//! Presenters: run one experiment, print the human-readable figure, and
//! return the machine-readable JSON document.
//!
//! Every simulation-backed experiment expands into campaign specs, runs
//! them through [`run_campaign`] (parallel, shared idle baselines) and
//! keeps the raw [`CampaignRow`]s in its JSON output alongside the
//! figure-shaped summary.
//!
//! The JSON documents are deterministic — identical bytes for the same
//! spec/seed at any thread count, and whether the phase database was
//! freshly built or loaded from the content-addressed store. Wall-clock
//! measurements therefore go to stderr, never into the JSON.

use crate::pct;
use std::sync::Arc;
use std::time::Instant;
use triad_arch::{
    CacheGeometry, CoreSize, DvfsGrid, SystemConfig, DVFS_TRANSITION_ENERGY_J,
    DVFS_TRANSITION_TIME_S, INTERVAL_INSTRUCTIONS, QOS_ALPHA,
};
use triad_cache::MlpMonitor;
use triad_energy::{EnergyBackend, EnergyBackendConfig, EnergyModel, TableBackend};
use triad_mem::DramParams;
use triad_phasedb::{characterize_app, PhaseDb};
use triad_rm::RmKind;
use triad_sim::campaign::{model_label, Campaign, CampaignRow, ExperimentSpec, QuarantinedRow};
use triad_sim::experiments::{
    averages, comparison_specs, fig2_workloads, fig9_specs, fold_comparisons,
    fold_model_comparisons, scenario_means, RmComparison,
};
use triad_sim::{evaluate_models, SimConfig, SimModel, Simulator, RM_INSTR_PER_OP};
use triad_trace::Category;
use triad_util::json::Json;
use triad_workload::{
    cell_probability, generate_workloads, scenario_of_pair, scenario_probability, ArrivalProcess,
    Scenario, Stage, WorkloadSpec,
};

/// Execution knobs shared by the campaign-backed experiments.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Override the per-spec simulated horizon (RM intervals).
    pub intervals: Option<usize>,
    /// Override every spec's energy-accounting backend (`None` leaves the
    /// specs' own selection — the parametric default — in place).
    pub energy: Option<EnergyBackendConfig>,
    /// Print per-row campaign completion lines to stderr (never stdout).
    pub progress: bool,
    /// Append every completed row to this durable journal and resume
    /// (skip re-simulating) any row whose record is already present. The
    /// CLI truncates the file up front unless `--resume` was given, so
    /// the campaigns themselves always open in resume mode — an
    /// experiment that runs several campaigns (fig6 per core count)
    /// shares one journal, disambiguated by the per-row resume keys.
    pub journal: Option<String>,
}

/// The backend an experiment effectively runs under, for JSON echoes.
fn effective_backend(opts: &RunOptions) -> EnergyBackendConfig {
    opts.energy.clone().unwrap_or_default()
}

/// What [`run_campaign`] hands back to a presenter: the completed rows,
/// the quarantined error rows, and a per-input-spec alignment so
/// presenters that pair rows with their spec/workload lists positionally
/// stay correct when a spec was quarantined.
pub struct CampaignRun {
    /// Completed rows, in spec order (quarantined specs omitted).
    pub rows: Vec<CampaignRow>,
    /// One slot per input spec, in order: `None` where quarantined.
    pub aligned: Vec<Option<CampaignRow>>,
    /// Structured error rows for specs that did not complete.
    pub quarantined: Vec<QuarantinedRow>,
    /// Timing JSON fragment: the spec count only (no wall-clock, keeping
    /// reports deterministic).
    pub timing: Json,
}

impl CampaignRun {
    /// True when every spec completed (no quarantined rows).
    pub fn complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The canonical campaign report: rows plus (only when present) the
    /// quarantined error rows — byte-identical to the historical
    /// `Campaign::report` on a fully successful run.
    pub fn campaign_json(&self) -> Json {
        Campaign::report_full(&self.rows, &self.quarantined)
    }
}

/// Print the quarantine notice and return true when the run lost specs;
/// presenters whose figure summaries assume one row per spec call this
/// and skip the summary (the campaign JSON still carries everything).
fn quarantine_note(run: &CampaignRun) -> bool {
    if run.complete() {
        return false;
    }
    println!(
        "{} spec(s) quarantined; figure summary skipped (error rows are in the campaign JSON):",
        run.quarantined.len()
    );
    for q in &run.quarantined {
        println!("  {}", q.error);
    }
    true
}

/// Run specs as one campaign, honoring [`RunOptions`].
pub fn run_campaign(
    db: &PhaseDb,
    mut specs: Vec<ExperimentSpec>,
    opts: &RunOptions,
) -> CampaignRun {
    if let Some(n) = opts.intervals {
        specs = specs.into_iter().map(|s| s.target_intervals(n)).collect();
    }
    if let Some(energy) = &opts.energy {
        specs = specs.into_iter().map(|s| s.energy_backend(energy.clone())).collect();
    }
    let campaign = Campaign::new(specs).threads(opts.threads).progress(opts.progress);
    let t0 = Instant::now();
    let outcome = match &opts.journal {
        None => campaign.try_run(db),
        // The CLI created/validated the journal up front, so an open/load
        // failure here is a mid-run environment loss (disk gone); treat it
        // like any other fatal environment error.
        Some(path) => campaign
            .run_journaled(db, std::path::Path::new(path), true)
            .unwrap_or_else(|e| panic!("{e}")),
    };
    let parallel_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "campaign: {} specs in {parallel_s:.2}s ({} simulated, {} resumed, {} quarantined)",
        campaign.specs.len(),
        outcome.simulated,
        outcome.resumed,
        outcome.quarantined.len()
    );
    for q in &outcome.quarantined {
        eprintln!("campaign: quarantined {}", q.error);
    }
    // Re-align completed rows with the input specs positionally: the
    // outcome names the spec index of every quarantined entry, so the
    // alignment survives duplicate specs (spec-equality matching would
    // misassign the surviving duplicate's row).
    let mut aligned = Vec::with_capacity(campaign.specs.len());
    let mut row_it = outcome.rows.iter();
    let mut quar_it = outcome.quarantined_indices.iter().peekable();
    for i in 0..campaign.specs.len() {
        if quar_it.next_if_eq(&&i).is_some() {
            aligned.push(None);
        } else {
            aligned.push(row_it.next().cloned());
        }
    }
    let timing = Json::obj().set("specs", campaign.specs.len());
    CampaignRun { rows: outcome.rows, aligned, quarantined: outcome.quarantined, timing }
}

fn comparison_table(title: &str, rows: &[RmComparison]) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
    println!("{:<12} {:<12} {:>7} {:>7} {:>7}  apps", "workload", "scenario", "RM1", "RM2", "RM3");
    for r in rows {
        println!(
            "{:<12} {:<12} {:>7} {:>7} {:>7}  {}",
            r.workload.name,
            r.workload.scenario.label(),
            pct(r.savings[0]),
            pct(r.savings[1]),
            pct(r.savings[2]),
            r.workload.apps.join(",")
        );
    }
}

fn comparison_json(rows: &[RmComparison]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj()
                    .set("workload", r.workload.name.clone())
                    .set("scenario", r.workload.scenario.label())
                    .set("apps", r.workload.apps.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                    .set("savings", r.savings.to_vec())
                    .set("violation_rate", r.violation_rate.to_vec())
            })
            .collect(),
    )
}

/// Table I: the baseline system configuration.
pub fn table1() -> Json {
    println!("TABLE I: Baseline configuration");
    println!("================================");
    println!("Core: out-of-order");
    println!("{:<14} {:>6} {:>6} {:>6}", "", "L", "M", "S");
    let p = |f: fn(CoreSize) -> u32| (f(CoreSize::L), f(CoreSize::M), f(CoreSize::S));
    let mut core_json = Json::obj();
    for (label, f) in [
        ("issue width", (|c: CoreSize| c.params().issue_width) as fn(CoreSize) -> u32),
        ("ROB", |c| c.params().rob),
        ("RS", |c| c.params().rs),
        ("LSQ", |c| c.params().lsq),
    ] {
        let (l, m, s) = p(f);
        println!("{:<14} {l:>6} {m:>6} {s:>6}", label);
        core_json = core_json.set(label, vec![l as i64, m as i64, s as i64]);
    }
    println!();
    let mut llc_json = Json::obj();
    for n in [2usize, 4, 8] {
        let g = CacheGeometry::table1(n);
        let range = g.per_core_way_range(n);
        println!(
            "{n}-core LLC: {} MB, {}-way, per-core allocation {:?} ways",
            g.llc.capacity_bytes / (1024 * 1024),
            g.llc.ways,
            range
        );
        llc_json = llc_json.set(
            &format!("{n}_core"),
            Json::obj()
                .set("capacity_mb", g.llc.capacity_bytes / (1024 * 1024))
                .set("ways", g.llc.ways)
                .set("way_min", *range.start())
                .set("way_max", *range.end()),
        );
    }
    let g = CacheGeometry::table1(4);
    println!(
        "L1-I/L1-D: {} KB {}-way | L2: {} KB {}-way | 64 B blocks, LRU",
        g.l1i.capacity_bytes / 1024,
        g.l1i.ways,
        g.l2.capacity_bytes / 1024,
        g.l2.ways
    );
    let d = DramParams::table1();
    println!(
        "DRAM: {} ns base latency, contention queue, {} GB/s per core",
        d.base_latency_s * 1e9,
        d.bandwidth_bps / 1e9
    );
    let grid = DvfsGrid::table1();
    println!(
        "DVFS: per-core {:.2}-{:.2} GHz / {:.2}-{:.2} V ({} points), baseline {:.1} GHz / {:.1} V",
        grid.point(0).freq_ghz(),
        grid.point(grid.len() - 1).freq_ghz(),
        grid.point(0).volt,
        grid.point(grid.len() - 1).volt,
        grid.len(),
        grid.baseline_point().freq_ghz(),
        grid.baseline_point().volt
    );
    println!(
        "RM interval: {}M instructions, QoS alpha = {}",
        INTERVAL_INSTRUCTIONS / 1_000_000,
        QOS_ALPHA
    );
    Json::obj()
        .set("experiment", "table1")
        .set("core", core_json)
        .set("llc", llc_json)
        .set("dram_latency_ns", d.base_latency_s * 1e9)
        .set("dvfs_points", grid.len())
        .set("interval_insts", INTERVAL_INSTRUCTIONS)
        .set("alpha", QOS_ALPHA)
}

/// Table II: categories derived via the §IV-C criteria.
pub fn table2(db: &PhaseDb) -> Json {
    println!("TABLE II: Application categories (derived via the paper's criteria)");
    println!("====================================================================");
    for cat in Category::ALL {
        let names: Vec<&str> = db
            .apps
            .iter()
            .map(characterize_app)
            .filter(|c| c.derived == cat)
            .map(|c| c.name)
            .collect();
        println!("{:<6} ({}): {}", cat.label(), names.len(), names.join(", "));
    }
    println!();
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6}  {:<6}",
        "app", "MPKI@4", "MPKI@8", "MPKI@12", "MLP-S", "MLP-M", "MLP-L", "class"
    );
    let mut matches = 0;
    let mut rows = Vec::new();
    for e in &db.apps {
        let c = characterize_app(e);
        if c.derived == c.expected {
            matches += 1;
        }
        println!(
            "{:<12} {:>7.2} {:>7.2} {:>7.2} {:>6.2} {:>6.2} {:>6.2}  {}",
            c.name,
            c.mpki[0],
            c.mpki[1],
            c.mpki[2],
            c.mlp[0],
            c.mlp[1],
            c.mlp[2],
            c.derived.label()
        );
        rows.push(
            Json::obj()
                .set("app", c.name)
                .set("expected", c.expected.label())
                .set("derived", c.derived.label())
                .set("mpki", c.mpki.to_vec())
                .set("mlp", c.mlp.to_vec()),
        );
    }
    println!("\n{matches}/{} match the paper's Table II", db.apps.len());
    Json::obj()
        .set("experiment", "table2")
        .set("matches", matches as i64)
        .set("apps", db.apps.len())
        .set("rows", Json::Arr(rows))
}

/// Fig. 1: category-mix probabilities and the four workload scenarios.
pub fn fig1() -> Json {
    println!("FIG. 1: category-mix cells (probability %, scenario)");
    println!("====================================================");
    print!("{:<8}", "");
    for b in Category::ALL {
        print!("{:>16}", b.label());
    }
    println!();
    let mut cells = Vec::new();
    for (i, a) in Category::ALL.iter().enumerate() {
        print!("{:<8}", a.label());
        for (j, b) in Category::ALL.iter().enumerate() {
            let p = cell_probability(*a, *b);
            let s = scenario_of_pair(*a, *b);
            if j < i {
                print!("{:>16}", "-"); // symmetric lower triangle omitted
            } else {
                print!(
                    "{:>11.1}% S{:<3}",
                    p * 100.0,
                    match s {
                        Scenario::S1 => 1,
                        Scenario::S2 => 2,
                        Scenario::S3 => 3,
                        Scenario::S4 => 4,
                    }
                );
            }
            cells.push(
                Json::obj()
                    .set("a", a.label())
                    .set("b", b.label())
                    .set("probability", p)
                    .set("scenario", s.label()),
            );
        }
        println!();
    }
    println!("\nScenario weights (paper: 47 / 22.1 / 22.1 / 8.8 %):");
    let mut weights = Json::obj();
    for s in Scenario::ALL {
        let p = scenario_probability(s);
        println!("  {}: {:.1}%", s.label(), p * 100.0);
        weights = weights.set(s.label(), p);
    }
    Json::obj()
        .set("experiment", "fig1")
        .set("cells", Json::Arr(cells))
        .set("scenario_weights", weights)
}

/// Fig. 2: two-core workloads, one per scenario, perfect models, no
/// overheads.
pub fn fig2(db: &PhaseDb, opts: &RunOptions) -> Json {
    let workloads = fig2_workloads();
    let specs: Vec<ExperimentSpec> =
        workloads.iter().flat_map(|wl| comparison_specs(wl, true, false, 0)).collect();
    let run = run_campaign(db, specs, opts);
    let comparisons_json = if quarantine_note(&run) {
        Json::Arr(Vec::new())
    } else {
        let comparisons = fold_comparisons(&workloads, &run.rows);
        comparison_table(
            "FIG. 2: two-core scenario savings (perfect models, no overheads)",
            &comparisons,
        );
        println!("\npaper shape: S1 both effective with RM3 well ahead (~70% higher);");
        println!("S2 comparable; S3 only RM3; S4 all ineffective");
        comparison_json(&comparisons)
    };
    Json::obj()
        .set("experiment", "fig2")
        .set("comparisons", comparisons_json)
        .set("campaign", run.campaign_json())
        .set("timing", run.timing)
}

/// Fig. 6: six workloads per scenario at each core count, realistic models
/// and overheads.
pub fn fig6(db: &PhaseDb, core_counts: &[usize], seed: u64, opts: &RunOptions) -> Json {
    let mut out = Json::obj().set("experiment", "fig6").set("seed", seed);
    for &n_cores in core_counts {
        let workloads = generate_workloads(n_cores, 6, seed);
        let specs: Vec<ExperimentSpec> =
            workloads.iter().flat_map(|wl| comparison_specs(wl, false, true, seed)).collect();
        let run = run_campaign(db, specs, opts);
        let core_json = if quarantine_note(&run) {
            Json::obj().set("comparisons", Json::Arr(Vec::new()))
        } else {
            let comparisons = fold_comparisons(&workloads, &run.rows);
            comparison_table(
                &format!("FIG. 6 ({n_cores}-core): energy savings per workload"),
                &comparisons,
            );
            println!("\nper-scenario means:");
            for (s, m) in scenario_means(&comparisons) {
                println!(
                    "  {:<11} RM1={} RM2={} RM3={}",
                    s.label(),
                    pct(m[0]),
                    pct(m[1]),
                    pct(m[2])
                );
            }
            let (w, p) = averages(&comparisons);
            println!(
                "weighted avg (47/22.1/22.1/8.8): RM1={} RM2={} RM3={}",
                pct(w[0]),
                pct(w[1]),
                pct(w[2])
            );
            println!(
                "plain avg:                       RM1={} RM2={} RM3={}",
                pct(p[0]),
                pct(p[1]),
                pct(p[2])
            );
            let best = comparisons.iter().map(|r| r.savings[2]).fold(f64::NEG_INFINITY, f64::max);
            println!("max RM3 savings: {} (paper: up to 17.6% on 4-core)\n", pct(best));
            Json::obj()
                .set("comparisons", comparison_json(&comparisons))
                .set("weighted_avg", w)
                .set("plain_avg", p)
        };
        out = out.set(
            &format!("{n_cores}_core"),
            core_json.set("campaign", run.campaign_json()).set("timing", run.timing),
        );
    }
    out
}

fn qos_eval_json(evals: &[(triad_rm::ModelKind, triad_sim::QosEvaluation)]) -> Json {
    Json::Arr(
        evals
            .iter()
            .map(|(k, e)| {
                Json::obj()
                    .set("model", k.label())
                    .set("probability", e.probability)
                    .set("expected_violation", e.expected_violation)
                    .set("std_violation", e.std_violation)
                    .set("bin_width", e.bin_width)
                    .set("histogram", e.histogram.clone())
            })
            .collect(),
    )
}

/// Fig. 7: QoS-violation probability, expected violation and standard
/// deviation for Model1 / Model2 / Model3.
pub fn fig7(db: &PhaseDb, n_cores: usize, opts: &RunOptions) -> Json {
    let sys = SystemConfig::table1(n_cores);
    let energy = effective_backend(opts);
    let em = energy.build().expect("energy backend validated by the CLI");
    let evals = evaluate_models(db, &sys, em.as_ref());
    println!("FIG. 7: QoS violations over all phases x current x target settings");
    println!("==================================================================");
    println!("{:<8} {:>12} {:>12} {:>12}", "model", "P(violation)", "E[violation]", "std");
    for (k, e) in &evals {
        println!(
            "{:<8} {:>11.2}% {:>11.2}% {:>11.2}%",
            k.label(),
            e.probability * 100.0,
            e.expected_violation * 100.0,
            e.std_violation * 100.0
        );
    }
    let p: Vec<f64> = evals.iter().map(|(_, e)| e.probability).collect();
    let ev: Vec<f64> = evals.iter().map(|(_, e)| e.expected_violation).collect();
    let sd: Vec<f64> = evals.iter().map(|(_, e)| e.std_violation).collect();
    println!("\nModel3 vs Model1: probability {:+.0}% (paper: -46%)", (p[2] / p[0] - 1.0) * 100.0);
    println!("Model3 vs Model2: probability {:+.0}% (paper: -32%)", (p[2] / p[1] - 1.0) * 100.0);
    println!("Model3 vs Model2: expected    {:+.0}% (paper: -49%)", (ev[2] / ev[1] - 1.0) * 100.0);
    println!("Model3 vs Model2: std         {:+.0}% (paper: -26%)", (sd[2] / sd[1] - 1.0) * 100.0);
    Json::obj()
        .set("experiment", "fig7")
        .set("cores", n_cores)
        .set("energy_backend", energy.label())
        .set("models", qos_eval_json(&evals))
}

/// Fig. 8: distribution of QoS-violation magnitudes per model, normalized
/// to the maximum bin across models.
pub fn fig8(db: &PhaseDb, n_cores: usize, opts: &RunOptions) -> Json {
    let sys = SystemConfig::table1(n_cores);
    let energy = effective_backend(opts);
    let em = energy.build().expect("energy backend validated by the CLI");
    let evals = evaluate_models(db, &sys, em.as_ref());
    let max = evals.iter().map(|(_, e)| e.histogram_max()).fold(0.0f64, f64::max);
    println!("FIG. 8: violation-magnitude distribution (normalized to max bin)");
    println!("=================================================================");
    print!("{:<12}", "violation");
    for (k, _) in &evals {
        print!("{:>10}", k.label());
    }
    println!();
    let bins = evals[0].1.histogram.len();
    for b in 0..bins {
        let lo = b as f64 * evals[0].1.bin_width * 100.0;
        let hi = lo + evals[0].1.bin_width * 100.0;
        let row: Vec<f64> = evals.iter().map(|(_, e)| e.histogram[b] / max).collect();
        if row.iter().all(|&x| x < 1e-6) {
            continue;
        }
        print!("{:>4.1}-{:<5.1}% ", lo, hi);
        for x in row {
            print!("{:>10.3}", x);
        }
        println!();
    }
    println!("\npaper shape: Model3 may show slightly more small (~5%) violations but");
    println!("substantially fewer in total, with the large-violation tail cut hardest");
    Json::obj()
        .set("experiment", "fig8")
        .set("cores", n_cores)
        .set("energy_backend", energy.label())
        .set("models", qos_eval_json(&evals))
}

/// Fig. 9: RM3 savings under Model1/Model2/Model3 versus the perfect-model
/// bound.
pub fn fig9(db: &PhaseDb, core_counts: &[usize], seed: u64, opts: &RunOptions) -> Json {
    let mut out = Json::obj().set("experiment", "fig9").set("seed", seed);
    for &n_cores in core_counts {
        let workloads = generate_workloads(n_cores, 6, seed);
        let run = run_campaign(db, fig9_specs(&workloads, seed), opts);
        let core_json = if quarantine_note(&run) {
            Json::obj().set("comparisons", Json::Arr(Vec::new()))
        } else {
            let comparisons = fold_model_comparisons(&workloads, &run.rows);
            println!("FIG. 9 ({n_cores}-core): RM3 savings by performance model");
            println!("==========================================================");
            println!(
                "{:<12} {:<12} {:>8} {:>8} {:>8} {:>8}",
                "workload", "scenario", "Model1", "Model2", "Model3", "perfect"
            );
            let mut avg = [0.0f64; 4];
            for r in &comparisons {
                println!(
                    "{:<12} {:<12} {:>8} {:>8} {:>8} {:>8}",
                    r.workload.name,
                    r.workload.scenario.label(),
                    pct(r.savings[0]),
                    pct(r.savings[1]),
                    pct(r.savings[2]),
                    pct(r.savings[3])
                );
                for (slot, s) in avg.iter_mut().zip(&r.savings) {
                    *slot += s / comparisons.len() as f64;
                }
            }
            println!(
                "{:<25} {:>8} {:>8} {:>8} {:>8}",
                "average",
                pct(avg[0]),
                pct(avg[1]),
                pct(avg[2]),
                pct(avg[3])
            );
            println!("paper shape: Model3 lands closest to the perfect bound\n");
            let rows_json = Json::Arr(
                comparisons
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("workload", r.workload.name.clone())
                            .set("scenario", r.workload.scenario.label())
                            .set("savings", r.savings.to_vec())
                    })
                    .collect(),
            );
            Json::obj().set("comparisons", rows_json).set("average", avg.to_vec())
        };
        out = out.set(
            &format!("{n_cores}_core"),
            core_json.set("campaign", run.campaign_json()).set("timing", run.timing),
        );
    }
    out
}

/// §III-E: RM algorithm overheads — operation counts per invocation versus
/// core count, plus the fixed hardware-transition costs.
pub fn overheads(db: &PhaseDb, seed: u64, opts: &RunOptions) -> Json {
    let intervals = opts.intervals;
    let energy = effective_backend(opts);
    let em: Arc<dyn EnergyBackend> =
        Arc::from(energy.build().expect("energy backend validated by the CLI"));
    println!("SEC. III-E: RM algorithm overheads");
    println!("==================================");
    println!("{:<8} {:>10} {:>10} {:>14}", "cores", "RM", "ops/invoc", "~instructions");
    let mut rows = Vec::new();
    for n in [2usize, 4, 8] {
        let wl = &generate_workloads(n, 1, seed)[0];
        for rm in [RmKind::Rm2, RmKind::Rm3] {
            let mut cfg = SimConfig::evaluation(rm, SimModel::Perfect);
            if let Some(n) = intervals {
                cfg.target_intervals = n;
            }
            let sim = Simulator::with_backend(db, n, cfg, Arc::clone(&em));
            let names: Vec<&str> = wl.apps.to_vec();
            let r = sim.run(&names);
            let ops = r.rm_ops as f64 / r.rm_invocations.max(1) as f64;
            println!(
                "{:<8} {:>10} {:>10.0} {:>13.0}K",
                n,
                rm.label(),
                ops,
                ops * RM_INSTR_PER_OP / 1000.0
            );
            rows.push(
                Json::obj()
                    .set("cores", n)
                    .set("rm", rm.label())
                    .set("ops_per_invocation", ops)
                    .set("instructions", ops * RM_INSTR_PER_OP),
            );
        }
    }
    println!("\npaper: RM3 = 51K/73K/100K and RM2 = 18K/40K/67K instructions for 2/4/8 cores");
    println!(
        "DVFS transition: {} us, {} uJ (Samsung Exynos 4210 measurements)",
        DVFS_TRANSITION_TIME_S * 1e6,
        DVFS_TRANSITION_ENERGY_J * 1e6
    );
    let mon = MlpMonitor::table1();
    println!(
        "ATD extension storage: {} bits (~{} bytes/core; paper: <300 bytes)",
        mon.storage_bits(),
        mon.storage_bits() / 8
    );
    Json::obj()
        .set("experiment", "overheads")
        .set("energy_backend", energy.label())
        .set("rows", Json::Arr(rows))
        .set("dvfs_transition_s", DVFS_TRANSITION_TIME_S)
        .set("dvfs_transition_j", DVFS_TRANSITION_ENERGY_J)
        .set("monitor_storage_bits", mon.storage_bits())
}

/// An ad-hoc campaign over one user-described spec.
pub fn custom(db: &PhaseDb, spec: ExperimentSpec, opts: &RunOptions) -> Json {
    let run = run_campaign(db, vec![spec], opts);
    if let Some(row) = run.rows.first() {
        println!("CUSTOM EXPERIMENT: {}", row.spec.name);
        println!("==================================");
        println!("apps:            {}", row.spec.apps.join(","));
        println!("controller:      {}", row.spec.rm.map(|r| r.label()).unwrap_or("idle"));
        println!("model:           {}", model_label(row.spec.model));
        println!("energy backend:  {}", row.spec.energy.label());
        println!("alpha:           {}", row.spec.alpha);
        println!("overheads:       {}", row.spec.overheads);
        println!(
            "energy:          {:.2} J (idle reference {:.2} J)",
            row.result.total_energy_j, row.idle_energy_j
        );
        println!("savings:         {}", pct(row.savings));
        println!(
            "QoS violations:  {}/{} ({})",
            row.result.qos_violations,
            row.result.intervals_checked,
            pct(row.violation_rate)
        );
        println!("RM invocations:  {}", row.result.rm_invocations);
    } else {
        quarantine_note(&run);
    }
    Json::obj()
        .set("experiment", "custom")
        .set("campaign", run.campaign_json())
        .set("timing", run.timing)
}

/// Relative path the sweep writes its sampled reference table to when no
/// measured table is supplied (stable, so reports stay reproducible).
pub const SAMPLED_TABLE_PATH: &str = "target/triad-energy-table-mcpat-sampled.json";

/// `energy-sweep`: rerun one workload's RM3-vs-idle campaign under every
/// energy backend and report the per-backend savings deltas — the
/// energy-model sensitivity study the backend seam exists for.
///
/// The measured-table leg uses `table` when given; otherwise a table
/// sampled from the parametric model at the Table I operating points is
/// written to [`SAMPLED_TABLE_PATH`] and swept (exercising the exact file
/// path a real measurement campaign would take).
pub fn energy_sweep(
    db: &PhaseDb,
    apps: &[&str],
    seed: u64,
    table: Option<&str>,
    opts: &RunOptions,
) -> Json {
    let table_path: String = match table {
        Some(p) => p.to_string(),
        None => {
            let grid = DvfsGrid::table1();
            let sampled = TableBackend::sampled_from(
                &EnergyModel::default_model(),
                grid.points(),
                SAMPLED_TABLE_PATH,
            );
            // The path is cwd-relative; `save` does not create parents.
            if let Some(parent) = std::path::Path::new(SAMPLED_TABLE_PATH).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            sampled.save(SAMPLED_TABLE_PATH).expect("writing the sampled energy table");
            eprintln!("sampled reference table written to {SAMPLED_TABLE_PATH}");
            SAMPLED_TABLE_PATH.to_string()
        }
    };
    let backends: Vec<EnergyBackendConfig> = vec![
        EnergyBackendConfig::Parametric,
        EnergyBackendConfig::Table { path: table_path },
        EnergyBackendConfig::Scaled { node: "22nm".into() },
        EnergyBackendConfig::Scaled { node: "14nm".into() },
        EnergyBackendConfig::Scaled { node: "7nm".into() },
    ];
    let specs: Vec<ExperimentSpec> = backends
        .iter()
        .map(|b| {
            ExperimentSpec::new(format!("sweep/{}", b.label()), apps)
                .seed(seed)
                .energy_backend(b.clone())
        })
        .collect();
    let run = run_campaign(db, specs, opts);

    // The parametric leg anchors the deltas; if it was quarantined the
    // deltas degrade to null (NaN) while the absolute numbers survive.
    let base_savings =
        run.aligned.first().and_then(|s| s.as_ref()).map_or(f64::NAN, |row| row.savings);
    println!("ENERGY SWEEP: RM3 savings per energy backend ({} cores)", apps.len());
    println!("=============================================================");
    println!(
        "{:<44} {:>10} {:>10} {:>8} {:>8}",
        "backend", "energy J", "idle J", "savings", "Δ vs mcpat"
    );
    let mut summary = Vec::new();
    for (b, slot) in backends.iter().zip(&run.aligned) {
        let Some(row) = slot else {
            println!("{:<44} {:>10}", b.label(), "quarantined");
            continue;
        };
        let delta = row.savings - base_savings;
        println!(
            "{:<44} {:>10.3} {:>10.3} {:>8} {:>+7.2}pp",
            b.label(),
            row.result.total_energy_j,
            row.idle_energy_j,
            pct(row.savings),
            delta * 100.0
        );
        summary.push(
            Json::obj()
                .set("backend", b.label())
                .set("total_energy_j", row.result.total_energy_j)
                .set("idle_energy_j", row.idle_energy_j)
                .set("savings", row.savings)
                .set("delta_savings_vs_parametric", delta)
                .set("violation_rate", row.violation_rate),
        );
    }
    println!("\nabsolute joules shift with the backend; the savings *ratio* is the");
    println!("sensitivity headline (leakier nodes reward down-volting less)");
    quarantine_note(&run);
    Json::obj()
        .set("experiment", "energy-sweep")
        .set("apps", apps.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        .set("seed", seed)
        .set("backends", Json::Arr(summary))
        .set("campaign", run.campaign_json())
        .set("timing", run.timing)
}

/// One dynamic-workload campaign row rendered for the workload reports.
fn workload_row_json(kind: &str, scenario: Option<Scenario>, row: &CampaignRow) -> Json {
    Json::obj()
        .set("kind", kind)
        .set(
            "scenario",
            match scenario {
                Some(s) => Json::from(s.label()),
                None => Json::from("census"),
            },
        )
        .set("name", row.spec.name.clone())
        .set("workload_fingerprint", row.spec.workload_fingerprint())
        .set("apps", row.spec.apps.clone())
        .set("savings", row.savings)
        .set("violation_rate", row.violation_rate)
        .set("total_energy_j", row.result.total_energy_j)
        .set("idle_energy_j", row.idle_energy_j)
        .set("vacancy_energy_j", row.result.vacancy_energy_j)
        .set("arrivals", row.result.arrivals)
        .set("departures", row.result.departures)
}

/// Assert a workload campaign produced sane numbers: every reported rate
/// and joule is finite (no NaN rows reach a report or the CI smoke step).
fn assert_workload_rows_finite(rows: &[CampaignRow]) {
    for row in rows {
        for (label, x) in [
            ("savings", row.savings),
            ("violation_rate", row.violation_rate),
            ("total_energy_j", row.result.total_energy_j),
            ("idle_energy_j", row.idle_energy_j),
            ("vacancy_energy_j", row.result.vacancy_energy_j),
            ("sim_time_s", row.result.sim_time_s),
        ] {
            assert!(x.is_finite(), "{}: non-finite {label} ({x})", row.spec.name);
        }
    }
}

/// An ad-hoc campaign over one dynamic workload spec (`--workload`):
/// RM-vs-idle on the same materialized trace.
pub fn workload_report(
    db: &PhaseDb,
    spec: ExperimentSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> Json {
    let run = run_campaign(db, vec![spec], opts);
    assert_workload_rows_finite(&run.rows);
    let Some(row) = run.rows.first() else {
        quarantine_note(&run);
        return Json::obj()
            .set("experiment", "workload")
            .set("workload", workload.to_json())
            .set("row", Json::Null)
            .set("trace_qos", Json::Null)
            .set("campaign", run.campaign_json())
            .set("timing", run.timing);
    };
    println!("WORKLOAD EXPERIMENT: {}", row.spec.name);
    println!("==================================");
    println!("workload:        {} ({})", workload.label(), row.spec.workload_fingerprint());
    println!("apps (union):    {}", row.spec.apps.join(","));
    println!("controller:      {}", row.spec.rm.map(|r| r.label()).unwrap_or("idle"));
    println!("model:           {}", model_label(row.spec.model));
    println!(
        "energy:          {:.2} J (idle reference {:.2} J, vacancy {:.3} J)",
        row.result.total_energy_j, row.idle_energy_j, row.result.vacancy_energy_j
    );
    println!("savings:         {}", pct(row.savings));
    println!(
        "QoS violations:  {}/{} ({})",
        row.result.qos_violations,
        row.result.intervals_checked,
        pct(row.violation_rate)
    );
    println!(
        "arrivals:        {} ({} departures, {} RM invocations)",
        row.result.arrivals, row.result.departures, row.result.rm_invocations
    );
    // Trace-weighted Fig. 7 statistics: the model's violation probability
    // under *this* workload's phase occupancy (qos_eval stepping through
    // the trace) rather than the uniform whole-suite average.
    let trace_qos = match row.spec.model {
        SimModel::Online(mk) => {
            let sys = SystemConfig::table1(row.spec.n_cores());
            let em = row.spec.energy.build().expect("energy backend validated by the CLI");
            let e = triad_sim::evaluate_model_on_trace(
                db,
                &row.spec.workload_trace(),
                mk,
                &sys,
                em.as_ref(),
            );
            println!(
                "trace-weighted QoS ({}): P(violation) {:.2}%, E[violation] {:.2}%",
                mk.label(),
                e.probability * 100.0,
                e.expected_violation * 100.0
            );
            Json::obj()
                .set("model", mk.label())
                .set("probability", e.probability)
                .set("expected_violation", e.expected_violation)
        }
        SimModel::Perfect => Json::Null,
    };
    Json::obj()
        .set("experiment", "workload")
        .set("workload", workload.to_json())
        .set("row", workload_row_json(workload.label(), row.spec.scenario, row))
        .set("trace_qos", trace_qos)
        .set("campaign", run.campaign_json())
        .set("timing", run.timing)
}

/// The dynamic-workload specs the `workload-sweep` preset evaluates: every
/// generator kind per scenario, plus the census-wide bursty-MMPP and
/// scaled-suite programs.
fn sweep_workloads(
    n_cores: usize,
    seed: u64,
    per_core: u64,
) -> Vec<(Option<Scenario>, WorkloadSpec)> {
    let horizon = per_core * n_cores as u64;
    let stage = (horizon / 3).max(1);
    let period = (per_core / 2).max(2);
    let mut out = Vec::new();
    for (i, s) in Scenario::ALL.into_iter().enumerate() {
        let scen_seed = seed.wrapping_add(i as u64);
        out.push((Some(s), WorkloadSpec::Steady { n_cores, scenario: Some(s), seed: scen_seed }));
        out.push((
            Some(s),
            WorkloadSpec::Phased {
                n_cores,
                seed: scen_seed,
                stages: vec![
                    Stage { scenario: Some(s), intervals: stage },
                    Stage { scenario: Some(s), intervals: stage },
                    Stage { scenario: Some(s), intervals: stage },
                ],
            },
        ));
        out.push((
            Some(s),
            WorkloadSpec::Bursty {
                n_cores,
                seed: scen_seed,
                arrival: ArrivalProcess::Poisson { mean_gap: (per_core as f64 / 8.0).max(1.0) },
                mean_service: (horizon / 4).max(2),
                horizon,
                scenario: Some(s),
            },
        ));
        out.push((
            Some(s),
            WorkloadSpec::Churn {
                n_cores,
                seed: scen_seed,
                period,
                horizon,
                scenario: Some(s),
                pool: Vec::new(),
            },
        ));
    }
    out.push((
        None,
        WorkloadSpec::Bursty {
            n_cores,
            seed,
            arrival: ArrivalProcess::Mmpp {
                mean_gap: [per_core as f64, (per_core as f64 / 8.0).max(1.0)],
                mean_dwell: [horizon as f64 / 4.0, horizon as f64 / 4.0],
            },
            mean_service: (horizon / 4).max(2),
            horizon,
            scenario: None,
        },
    ));
    out.push((None, WorkloadSpec::Scaled { n_cores, seed, copies: 1, segment: per_core.max(2) }));
    out
}

/// `workload-sweep`: run RM3 against the idle reference on one dynamic
/// workload of every generator kind per scenario, reporting per-scenario
/// energy savings and QoS-violation rates with the workload fingerprint on
/// every row.
pub fn workload_sweep(db: &PhaseDb, n_cores: usize, seed: u64, opts: &RunOptions) -> Json {
    let per_core = opts.intervals.unwrap_or(48) as u64;
    let workloads = sweep_workloads(n_cores, seed, per_core);
    let specs: Vec<ExperimentSpec> = workloads
        .iter()
        .map(|(scenario, wl)| {
            let label = match scenario {
                Some(s) => format!("sweep/{}/{}", wl.label(), s.short()),
                None => format!("sweep/{}/census", wl.label()),
            };
            ExperimentSpec::for_workload_spec(label, wl.clone())
                .expect("sweep workloads materialize")
                .scenario(*scenario)
                .seed(seed)
                .target_intervals(per_core as usize)
        })
        .collect();
    let run = run_campaign(db, specs, opts);
    assert_workload_rows_finite(&run.rows);

    println!("WORKLOAD SWEEP ({n_cores}-core): RM3 savings per dynamic workload");
    println!("=================================================================");
    println!(
        "{:<10} {:<12} {:>8} {:>9} {:>9} {:>9}  fingerprint",
        "kind", "scenario", "savings", "viol.rate", "arrivals", "vacancy J"
    );
    let mut row_json = Vec::new();
    for ((scenario, wl), slot) in workloads.iter().zip(&run.aligned) {
        let Some(row) = slot else {
            println!(
                "{:<10} {:<12} {:>8}",
                wl.label(),
                scenario.map(|s| s.label()).unwrap_or("census"),
                "quarantined"
            );
            continue;
        };
        println!(
            "{:<10} {:<12} {:>8} {:>9} {:>9} {:>9.3}  {}",
            wl.label(),
            scenario.map(|s| s.label()).unwrap_or("census"),
            pct(row.savings),
            pct(row.violation_rate),
            row.result.arrivals,
            row.result.vacancy_energy_j,
            &row.spec.workload_fingerprint()[..12],
        );
        row_json.push(workload_row_json(wl.label(), *scenario, row));
    }
    println!("\nper-scenario means across the workload kinds (steady + dynamic):");
    let mut scenario_json = Vec::new();
    for s in Scenario::ALL {
        let in_s: Vec<&CampaignRow> = workloads
            .iter()
            .zip(&run.aligned)
            .filter(|((sc, _), _)| *sc == Some(s))
            .filter_map(|(_, slot)| slot.as_ref())
            .collect();
        if in_s.is_empty() {
            continue;
        }
        let mean_savings = in_s.iter().map(|r| r.savings).sum::<f64>() / in_s.len() as f64;
        let mean_viol = in_s.iter().map(|r| r.violation_rate).sum::<f64>() / in_s.len() as f64;
        println!(
            "  {:<12} savings {} violation rate {}",
            s.label(),
            pct(mean_savings),
            pct(mean_viol)
        );
        scenario_json.push(
            Json::obj()
                .set("scenario", s.label())
                .set("mean_savings", mean_savings)
                .set("mean_violation_rate", mean_viol),
        );
    }
    quarantine_note(&run);
    Json::obj()
        .set("experiment", "workload-sweep")
        .set("cores", n_cores)
        .set("seed", seed)
        .set("rows", Json::Arr(row_json))
        .set("scenario_means", Json::Arr(scenario_json))
        .set("campaign", run.campaign_json())
        .set("timing", run.timing)
}

/// `churn`: per-core multiprogramming with mid-run app replacement. With
/// an explicit `pool` (the CI smoke path) one census-free workload runs;
/// otherwise one churn workload per scenario. Asserts nonzero arrivals and
/// finite (no-NaN) rows before reporting.
pub fn churn(db: &PhaseDb, n_cores: usize, seed: u64, pool: &[String], opts: &RunOptions) -> Json {
    let per_core = opts.intervals.unwrap_or(48) as u64;
    let horizon = per_core * n_cores as u64;
    let period = (per_core / 2).max(2);
    let workloads: Vec<(Option<Scenario>, WorkloadSpec)> = if pool.is_empty() {
        Scenario::ALL
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    Some(s),
                    WorkloadSpec::Churn {
                        n_cores,
                        seed: seed.wrapping_add(i as u64),
                        period,
                        horizon,
                        scenario: Some(s),
                        pool: Vec::new(),
                    },
                )
            })
            .collect()
    } else {
        vec![(
            None,
            WorkloadSpec::Churn {
                n_cores,
                seed,
                period,
                horizon,
                scenario: None,
                pool: pool.to_vec(),
            },
        )]
    };
    let specs: Vec<ExperimentSpec> = workloads
        .iter()
        .map(|(scenario, wl)| {
            let label = match scenario {
                Some(s) => format!("churn/{}", s.short()),
                None => format!("churn/pool:{}", pool.join("+")),
            };
            ExperimentSpec::for_workload_spec(label, wl.clone())
                .expect("churn workloads materialize")
                .scenario(*scenario)
                .seed(seed)
                .target_intervals(per_core as usize)
        })
        .collect();
    let run = run_campaign(db, specs, opts);
    assert_workload_rows_finite(&run.rows);
    let total_arrivals: u64 = run.rows.iter().map(|r| r.result.arrivals).sum();
    let replacements: u64 =
        run.rows.iter().map(|r| r.result.arrivals.saturating_sub(n_cores as u64)).sum();
    // The churn sanity floor only holds for complete runs; under fault
    // injection a quarantined row legitimately removes its arrivals.
    if run.complete() {
        assert!(total_arrivals > 0, "churn campaign observed no arrivals");
        assert!(replacements > 0, "churn campaign replaced no application mid-run");
    }

    println!("CHURN ({n_cores}-core, period ~{period} intervals, horizon {horizon})");
    println!("==============================================================");
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>6}  fingerprint",
        "workload", "savings", "viol.rate", "arrivals", "RMs"
    );
    let mut row_json = Vec::new();
    for ((scenario, wl), slot) in workloads.iter().zip(&run.aligned) {
        let Some(row) = slot else {
            println!("{:<22} {:>8}", wl.label(), "quarantined");
            continue;
        };
        println!(
            "{:<22} {:>8} {:>9} {:>9} {:>6}  {}",
            row.spec.name,
            pct(row.savings),
            pct(row.violation_rate),
            row.result.arrivals,
            row.result.rm_invocations,
            &row.spec.workload_fingerprint()[..12],
        );
        row_json.push(workload_row_json(wl.label(), *scenario, row));
    }
    println!("\n{total_arrivals} arrivals ({replacements} mid-run replacements); every RM");
    println!("re-plan on a churn event cold-restarts the core's phase position");
    quarantine_note(&run);
    Json::obj()
        .set("experiment", "churn")
        .set("cores", n_cores)
        .set("seed", seed)
        .set("arrivals", total_arrivals)
        .set("replacements", replacements)
        .set("rows", Json::Arr(row_json))
        .set("campaign", run.campaign_json())
        .set("timing", run.timing)
}
