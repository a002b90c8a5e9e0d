//! The three benchmark workloads: their inputs (generated from the seed)
//! and one timed pass of each through the public crate APIs.

use crate::timing::{self, Span, Timer};
use std::path::{Path, PathBuf};
use triad_phasedb::{DbConfig, DbStore, PhaseDb, StoreOutcome};
use triad_rm::RmKind;
use triad_sim::experiments::{averages, comparison_specs, fig9_specs, fold_comparisons};
use triad_sim::{Campaign, CampaignOutcome, CampaignRow, ExperimentSpec};
use triad_util::hash::{hex, Sha256};
use triad_workload::{generate_workloads, ArrivalProcess, Scenario, Stage, Workload, WorkloadSpec};

/// Fig. 6/9 workloads per scenario: twice the paper's six, which halves
/// the seed-to-seed variance of the simulated work and of the savings.
const PER_SCENARIO: usize = 12;
/// `dynamic-resume` system width.
const SWEEP_CORES: usize = 8;
/// `dynamic-resume` horizon per application, RM intervals (the
/// `workload-sweep` preset uses 48 and finishes in under 0.1 s).
const SWEEP_PER_CORE: u64 = 96;
/// `dynamic-resume` seed replicas of the 4 kinds × 4 scenarios grid: 256
/// rows, so the campaign takes seconds and its totals vary little from
/// seed to seed.
const SWEEP_REPLICAS: u64 = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperWarm,
    ColdBuild,
    DynamicResume,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperWarm, Kind::ColdBuild, Kind::DynamicResume];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperWarm => "paper-warm",
            Kind::ColdBuild => "cold-build",
            Kind::DynamicResume => "dynamic-resume",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload resolves its database from a populated store.
    pub fn warm(self) -> bool {
        self != Kind::ColdBuild
    }
}

/// One named campaign of a workload (one report document).
pub struct CampaignInput {
    pub label: String,
    pub campaign: Campaign,
    /// The Fig. 6 workloads the specs were built from (savings are folded
    /// per workload); `None` for campaigns that do not feed the savings.
    pub fig6: Option<Vec<Workload>>,
}

/// Everything a workload runs, generated from the seed.
pub struct Inputs {
    pub kind: Kind,
    pub cfg: DbConfig,
    pub threads: usize,
    pub campaigns: Vec<CampaignInput>,
    /// `dynamic-resume`: the leading half of the sweep, which the killed
    /// run completes (empty on the other workloads).
    pub killed: Campaign,
    /// Σ trace events over every spec, counted once at input generation.
    pub trace_events: u64,
}

fn fig6_campaign(n_cores: usize, seed: u64) -> CampaignInput {
    let workloads = generate_workloads(n_cores, PER_SCENARIO, seed);
    let specs = workloads.iter().flat_map(|wl| comparison_specs(wl, false, true, seed)).collect();
    CampaignInput {
        label: format!("fig6-{n_cores}core"),
        campaign: Campaign::new(specs),
        fig6: Some(workloads),
    }
}

fn fig9_campaign(n_cores: usize, seed: u64) -> CampaignInput {
    let workloads = generate_workloads(n_cores, PER_SCENARIO, seed);
    CampaignInput {
        label: format!("fig9-{n_cores}core"),
        campaign: Campaign::new(fig9_specs(&workloads, seed)),
        fig6: None,
    }
}

/// The `workload-sweep` kinds (steady/phased/bursty/churn) per scenario,
/// RM3 against the idle reference, over `SWEEP_REPLICAS` seeds.
fn sweep_campaign(seed: u64) -> CampaignInput {
    let n_cores = SWEEP_CORES;
    let per_core = SWEEP_PER_CORE;
    let horizon = per_core * n_cores as u64;
    let mut specs = Vec::new();
    for replica in 0..SWEEP_REPLICAS {
        for (i, s) in Scenario::ALL.into_iter().enumerate() {
            // Disjoint per base seed, so neighbouring seeds share no input.
            let scen_seed = seed.wrapping_mul(1000).wrapping_add(4 * replica + i as u64);
            let stage = Stage { scenario: Some(s), intervals: (horizon / 3).max(1) };
            let kinds = [
                WorkloadSpec::Steady { n_cores, scenario: Some(s), seed: scen_seed },
                WorkloadSpec::Phased { n_cores, seed: scen_seed, stages: vec![stage; 3] },
                WorkloadSpec::Bursty {
                    n_cores,
                    seed: scen_seed,
                    arrival: ArrivalProcess::Poisson { mean_gap: per_core as f64 / 8.0 },
                    mean_service: horizon / 4,
                    horizon,
                    scenario: Some(s),
                },
                WorkloadSpec::Churn {
                    n_cores,
                    seed: scen_seed,
                    period: per_core / 2,
                    horizon,
                    scenario: Some(s),
                    pool: Vec::new(),
                },
            ];
            for wl in kinds {
                let label = format!("sweep/{}/{}/r{replica}", wl.label(), s.short());
                let spec = ExperimentSpec::for_workload_spec(label, wl)
                    .expect("sweep workloads materialize")
                    .scenario(Some(s))
                    .seed(seed)
                    .target_intervals(per_core as usize);
                specs.push(spec);
            }
        }
    }
    CampaignInput { label: "sweep-8core".into(), campaign: Campaign::new(specs), fig6: None }
}

impl Inputs {
    pub fn new(kind: Kind, seed: u64, threads: usize) -> Inputs {
        let mut campaigns = match kind {
            Kind::PaperWarm => vec![
                fig6_campaign(4, seed),
                fig6_campaign(8, seed),
                fig9_campaign(4, seed),
                fig9_campaign(8, seed),
            ],
            Kind::ColdBuild => vec![fig6_campaign(4, seed)],
            Kind::DynamicResume => vec![sweep_campaign(seed)],
        };
        for c in &mut campaigns {
            c.campaign.threads = threads;
        }
        let killed = match kind {
            Kind::DynamicResume => {
                let specs = &campaigns[0].campaign.specs;
                specs[..specs.len() / 2].to_vec()
            }
            _ => Vec::new(),
        };
        let trace_events = campaigns
            .iter()
            .flat_map(|c| &c.campaign.specs)
            .map(|s| s.workload_trace().events.len() as u64)
            .sum();
        Inputs {
            kind,
            cfg: db_config(threads),
            threads,
            campaigns,
            killed: Campaign::new(killed).threads(threads),
            trace_events,
        }
    }

    pub fn specs_per_pass(&self) -> usize {
        self.campaigns.iter().map(|c| c.campaign.specs.len()).sum::<usize>()
            + self.killed.specs.len()
    }
}

/// The full-quality database every workload resolves, built with
/// `threads` workers.
pub fn db_config(threads: usize) -> DbConfig {
    DbConfig { threads, ..DbConfig::default_config() }
}

pub fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    hex(&h.finalize())
}

/// What one pass (set-up + every campaign) produced and cost.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub campaign_s: f64,
    pub resume_s: f64,
    /// `(campaign label, SHA-256 of the canonical report)`.
    pub digests: Vec<(String, String)>,
    /// Σ `intervals_checked` over simulated (not replayed) rows.
    pub intervals_simulated: u64,
    pub attempted: usize,
    pub quarantined: usize,
    pub rm3_savings_pct: f64,
    pub qos_violation_pct: f64,
    pub report_bytes: u64,
    pub journal_bytes: u64,
    /// Peak resident memory of the process so far, MB.
    pub peak_rss_mb: f64,
    /// Problems found by the pass's own output checks.
    pub errors: Vec<String>,
    pub timer: Timer,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.campaign_s
    }
}

/// The store the warm workloads resolve from, under the run directory.
pub fn warm_store(run_dir: &Path) -> DbStore {
    DbStore::new(run_dir.join("store"))
}

/// The store a `cold-build` pass builds into; emptied before every pass.
pub fn cold_store(run_dir: &Path) -> DbStore {
    DbStore::new(run_dir.join("cold-store"))
}

/// Populate the warm store (untimed; run in its own process so the
/// measured process's peak memory excludes the build).
pub fn populate(run_dir: &Path, cfg: &DbConfig) -> StoreOutcome {
    warm_store(run_dir).resolve_suite(cfg).outcome
}

fn check_rows(pass: &mut Pass, label: &str, out: &CampaignOutcome) {
    pass.attempted += out.rows.len() + out.quarantined.len();
    pass.quarantined += out.quarantined.len();
    for q in &out.quarantined {
        pass.errors.push(format!("{label}: quarantined {}", q.error));
    }
    for r in &out.rows {
        if !r.savings.is_finite() || !r.violation_rate.is_finite() {
            pass.errors.push(format!("{label}: non-finite savings in row {}", r.spec.name));
        }
    }
}

/// Serialize the canonical report, write it, and record its digest.
fn write_report(pass: &mut Pass, dir: &Path, label: &str, out: &CampaignOutcome) {
    let text = pass.timer.time(Span::ReportSerialize, || {
        Campaign::report_full(&out.rows, &out.quarantined).to_string_compact()
    });
    let path = dir.join(format!("{label}.json"));
    pass.timer.time(Span::ReportWrite, || std::fs::write(&path, &text)).unwrap_or_else(|e| {
        pass.errors.push(format!("writing {}: {e}", path.display()));
    });
    pass.report_bytes += text.len() as u64;
    pass.digests.push((label.to_string(), sha256_hex(text.as_bytes())));
}

fn rm3_qos(rows: &[CampaignRow]) -> (u64, u64) {
    rows.iter()
        .filter(|r| r.spec.rm == Some(RmKind::Rm3))
        .fold((0, 0), |(v, c), r| (v + r.result.qos_violations, c + r.result.intervals_checked))
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Resolve the database: a hit on the warm store, or a build + persist
/// into a fresh empty directory on `cold-build`.
fn setup(inputs: &Inputs, run_dir: &Path, pass: &mut Pass) -> Option<PhaseDb> {
    let (store, want) = if inputs.kind.warm() {
        (warm_store(run_dir), StoreOutcome::Hit)
    } else {
        let store = cold_store(run_dir);
        let _ = std::fs::remove_dir_all(store.dir());
        (store, StoreOutcome::Miss)
    };
    let started = std::time::Instant::now();
    let resolved = pass.timer.time(Span::Setup, || store.resolve_suite(&inputs.cfg));
    pass.setup_s = started.elapsed().as_secs_f64();
    if resolved.outcome != want {
        pass.errors.push(format!("store resolved as {:?}, expected {want:?}", resolved.outcome));
        return None;
    }
    Some(resolved.db)
}

/// One full pass of the workload: set-up, then every campaign and report.
/// Returns the pass and the database it resolved (for follow-up checks).
pub fn run_pass(inputs: &Inputs, run_dir: &Path) -> (Pass, Option<PhaseDb>) {
    let mut pass = Pass::default();
    let Some(db) = setup(inputs, run_dir, &mut pass) else {
        return (pass, None);
    };
    let reports = run_dir.join("reports");
    let _ = std::fs::create_dir_all(&reports);
    let started = std::time::Instant::now();
    match inputs.kind {
        Kind::PaperWarm | Kind::ColdBuild => campaigns(inputs, &db, &reports, &mut pass),
        Kind::DynamicResume => resume(inputs, &db, run_dir, &reports, &mut pass),
    }
    pass.campaign_s = started.elapsed().as_secs_f64();
    pass.peak_rss_mb = timing::peak_rss_mb();
    (pass, Some(db))
}

/// `paper-warm` / `cold-build`: every campaign as `Campaign::try_run`.
fn campaigns(inputs: &Inputs, db: &PhaseDb, reports: &Path, pass: &mut Pass) {
    let mut fig6_comparisons = Vec::new();
    let (mut viol, mut checked) = (0, 0);
    for c in &inputs.campaigns {
        let out = pass.timer.time(Span::CampaignRun, || c.campaign.try_run(db));
        check_rows(pass, &c.label, &out);
        pass.intervals_simulated +=
            out.rows.iter().map(|r| r.result.intervals_checked).sum::<u64>();
        write_report(pass, reports, &c.label, &out);
        if let Some(workloads) = &c.fig6 {
            if out.quarantined.is_empty() {
                fig6_comparisons.extend(fold_comparisons(workloads, &out.rows));
            }
            let (v, n) = rm3_qos(&out.rows);
            viol += v;
            checked += n;
        }
    }
    let (weighted, _) = averages(&fig6_comparisons);
    pass.rm3_savings_pct = 100.0 * weighted[2];
    pass.qos_violation_pct = pct(viol, checked);
}

pub fn journal_path(run_dir: &Path) -> PathBuf {
    run_dir.join("sweep.journal")
}

/// `dynamic-resume`: a killed journaled run over a prefix of the specs,
/// then a resumed journaled run over all of them.
fn resume(inputs: &Inputs, db: &PhaseDb, run_dir: &Path, reports: &Path, pass: &mut Pass) {
    let c = &inputs.campaigns[0];
    let journal = journal_path(run_dir);
    let killed =
        pass.timer.time(Span::CampaignRun, || inputs.killed.run_journaled(db, &journal, false));
    let killed = match killed {
        Ok(out) => out,
        Err(e) => return pass.errors.push(format!("killed run: {e}")),
    };
    check_rows(pass, "killed", &killed);
    pass.intervals_simulated += killed.rows.iter().map(|r| r.result.intervals_checked).sum::<u64>();

    let started = std::time::Instant::now();
    let resumed =
        pass.timer.time(Span::CampaignRun, || c.campaign.run_journaled(db, &journal, true));
    pass.resume_s = started.elapsed().as_secs_f64();
    let out = match resumed {
        Ok(out) => out,
        Err(e) => return pass.errors.push(format!("resumed run: {e}")),
    };
    check_rows(pass, &c.label, &out);
    let rest = c.campaign.specs.len() - killed.rows.len();
    if out.resumed != killed.rows.len() || out.simulated != rest {
        pass.errors.push(format!(
            "resume replayed {} and simulated {} rows, expected {} and {}",
            out.resumed,
            out.simulated,
            killed.rows.len(),
            rest
        ));
    }
    pass.intervals_simulated +=
        out.rows.iter().skip(killed.rows.len()).map(|r| r.result.intervals_checked).sum::<u64>();
    write_report(pass, reports, &c.label, &out);
    pass.journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

    let n = out.rows.len().max(1) as f64;
    pass.rm3_savings_pct = 100.0 * out.rows.iter().map(|r| r.savings).sum::<f64>() / n;
    let (v, checked) = rm3_qos(&out.rows);
    pass.qos_violation_pct = pct(v, checked);
}

/// The unjournaled reference report for `dynamic-resume` (the resumed
/// report must match it byte for byte), or the `fig6-4core` report of
/// `db` for the cold-build load-vs-build cross-check.
pub fn reference_report(inputs: &Inputs, db: &PhaseDb) -> String {
    let c = &inputs.campaigns[0];
    let out = c.campaign.try_run(db);
    Campaign::report_full(&out.rows, &out.quarantined).to_string_compact()
}
