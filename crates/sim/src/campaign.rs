//! Declarative, parallel experiment campaigns.
//!
//! Every §V experiment is some set of *(workload, controller, model,
//! α, overheads)* points evaluated against the shared idle-RM reference.
//! Instead of hand-rolling that loop per figure, a [`Campaign`] takes a
//! list of [`ExperimentSpec`]s — pure descriptions of single simulator
//! runs — and executes them in parallel over scoped threads with two
//! sharing optimizations:
//!
//! 1. the detailed-simulation [`PhaseDb`] is borrowed by every worker
//!    (it is immutable during a campaign), and
//! 2. idle-RM baselines are **memoized**: specs that share a workload
//!    (and horizon) share one idle reference run instead of each
//!    re-simulating it.
//!
//! Execution is deterministic: the simulator itself is a pure function of
//! its spec, workers write into order-preserving slots, and the JSON
//! serialization is canonical — so the same campaign produces
//! byte-identical output at any thread count. The engine's incremental
//! planning state (the persistent reduction forest and its local-plan
//! cache) is created inside each run, never shared across workers, so it
//! adds no cross-run coupling — and its decisions, including the reported
//! `rm_ops`, are byte-identical to the from-scratch formulation, keeping
//! every campaign row stable across this optimization. The experiment
//! drivers in [`crate::experiments`] and the `triad-bench` CLI are thin
//! layers over this module.
//!
//! Databases are resolved through the content-addressed
//! [`triad_phasedb::DbStore`]: a campaign knows exactly which applications
//! its specs reference ([`Campaign::required_apps`]), so the store can
//! load — or build and persist — precisely that artifact, and warm runs
//! skip the detailed simulation entirely.

use crate::engine::{max_suite_intervals, SimConfig, SimModel, SimResult, Simulator};
use crate::journal::{self, LoadedJournal, RowJournal};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Arc;
use triad_energy::{EnergyBackend, EnergyBackendConfig};
use triad_phasedb::PhaseDb;
use triad_rm::{ModelKind, RmKind};
use triad_telemetry::{Counter, SpanName};
use triad_trace::AppSpec;
use triad_util::failpoint::FailPoint;
use triad_util::hash::Fingerprint;
use triad_util::json::Json;
use triad_util::par;
use triad_workload::{Scenario, Workload, WorkloadSpec, WorkloadTrace};

static TRACE_MATERIALIZE_SPAN: SpanName = SpanName::new("campaign.trace_materialize");
static IDLE_BASELINE_SPAN: SpanName = SpanName::new("campaign.idle_baseline");
static SIMULATE_SPAN: SpanName = SpanName::new("campaign.simulate");
static QOS_EVAL_SPAN: SpanName = SpanName::new("campaign.qos_eval");
static ROWS: Counter = Counter::new("campaign.rows");
static ROWS_SIMULATED: Counter = Counter::new("campaign.rows_simulated");
static ROWS_RESUMED: Counter = Counter::new("campaign.rows_resumed");
static ROWS_QUARANTINED: Counter = Counter::new("campaign.rows_quarantined");
static RESUME_REJECTED: Counter = Counter::new("campaign.resume_rejected");

/// Injected-fault site evaluated at the top of every per-row simulation
/// (inside the row's `catch_unwind` quarantine), e.g.
/// `TRIAD_FAILPOINTS="campaign.row=once:panic"`.
pub static ROW_FP: FailPoint = FailPoint::new("campaign.row");

/// A pure description of one simulator run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Row label, e.g. `"4Core-W7/RM3"`.
    pub name: String,
    /// One application name per core.
    pub apps: Vec<String>,
    /// The Fig. 1 scenario this workload was generated for, if known.
    pub scenario: Option<Scenario>,
    /// Controller; `None` = the idle RM (baseline pinned).
    pub rm: Option<RmKind>,
    /// Predictor flavor.
    pub model: SimModel,
    /// QoS slack `α` (Eq. 3).
    pub alpha: f64,
    /// Charge DVFS/resize/RM-software overheads (§III-E).
    pub overheads: bool,
    /// Simulated horizon per application, in RM intervals.
    pub target_intervals: usize,
    /// Workload-generation seed, recorded for provenance.
    pub seed: u64,
    /// Energy-accounting backend the run is evaluated under; recorded in
    /// every report row so archived results stay attributable.
    pub energy: EnergyBackendConfig,
    /// Time-varying workload program, when the run is not a static app
    /// list. `None` replays `apps` frozen at `t = 0` (the pre-subsystem
    /// behavior); either way the materialized trace's fingerprint is
    /// recorded in the row.
    pub workload: Option<WorkloadSpec>,
}

impl ExperimentSpec {
    /// A spec with the paper's headline defaults: RM3 with the proposed
    /// Model3, overheads on, `α = 1`, suite-maximum horizon.
    pub fn new(name: impl Into<String>, apps: &[&str]) -> Self {
        ExperimentSpec {
            name: name.into(),
            apps: apps.iter().map(|s| s.to_string()).collect(),
            scenario: None,
            rm: Some(RmKind::Rm3),
            model: SimModel::Online(ModelKind::Model3),
            alpha: triad_arch::QOS_ALPHA,
            overheads: true,
            target_intervals: max_suite_intervals(),
            seed: 0,
            energy: EnergyBackendConfig::Parametric,
            workload: None,
        }
    }

    /// A spec over a dynamic [`WorkloadSpec`] with the headline defaults.
    /// `apps` is filled with the union of applications the materialized
    /// trace references (so campaigns resolve the right database), and the
    /// simulator replays the trace instead of a static list.
    ///
    /// Fails when the workload spec cannot be materialized.
    pub fn for_workload_spec(
        name: impl Into<String>,
        workload: WorkloadSpec,
    ) -> Result<Self, String> {
        let trace = workload.materialize()?;
        let apps = trace.apps();
        let refs: Vec<&str> = apps.iter().map(String::as_str).collect();
        let mut spec = Self::new(name, &refs);
        spec.workload = Some(workload);
        Ok(spec)
    }

    /// Spec for a generated [`Workload`].
    pub fn for_workload(wl: &Workload, rm: Option<RmKind>) -> Self {
        let rm_label = rm.map(|r| r.label()).unwrap_or("idle");
        ExperimentSpec {
            scenario: Some(wl.scenario),
            rm,
            ..Self::new(format!("{}/{rm_label}", wl.name), &wl.apps)
        }
    }

    /// Select the controller (`None` = idle reference).
    pub fn rm(mut self, rm: Option<RmKind>) -> Self {
        self.rm = rm;
        self
    }

    /// Select the predictor.
    pub fn model(mut self, model: SimModel) -> Self {
        self.model = model;
        self
    }

    /// Perfect predictor without overheads (the Fig. 2 idealization).
    pub fn perfect(mut self) -> Self {
        self.model = SimModel::Perfect;
        self.overheads = false;
        self
    }

    /// Set the QoS slack.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Enable/disable overhead charging.
    pub fn overheads(mut self, on: bool) -> Self {
        self.overheads = on;
        self
    }

    /// Shorten the simulated horizon (tests and smoke runs).
    pub fn target_intervals(mut self, n: usize) -> Self {
        self.target_intervals = n;
        self
    }

    /// Record the generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the energy-accounting backend.
    pub fn energy_backend(mut self, energy: EnergyBackendConfig) -> Self {
        self.energy = energy;
        self
    }

    /// Set the Fig. 1 scenario label recorded with the row.
    pub fn scenario(mut self, scenario: Option<Scenario>) -> Self {
        self.scenario = scenario;
        self
    }

    /// Number of cores: the workload's system width, or (for static specs)
    /// one application per core.
    pub fn n_cores(&self) -> usize {
        match &self.workload {
            Some(w) => w.n_cores(),
            None => self.apps.len(),
        }
    }

    /// The trace this spec replays: the materialized workload program, or
    /// the static trace implied by `apps`. Fails (instead of panicking)
    /// on an unmaterializable workload — campaigns quarantine such specs
    /// as [`CampaignError::Workload`] rows.
    pub fn try_workload_trace(&self) -> Result<WorkloadTrace, String> {
        match &self.workload {
            Some(w) => w.materialize(),
            None => Ok(WorkloadTrace::steady(&self.apps)),
        }
    }

    /// [`ExperimentSpec::try_workload_trace`], panicking on failure — for
    /// call sites that validated the spec up front.
    pub fn workload_trace(&self) -> WorkloadTrace {
        self.try_workload_trace()
            .unwrap_or_else(|e| panic!("spec {}: workload does not materialize: {e}", self.name))
    }

    /// Fingerprint of the materialized trace — the workload identity
    /// recorded in every campaign row. An unmaterializable workload gets
    /// the sentinel `"unmaterializable"` so quarantined error rows still
    /// serialize.
    pub fn workload_fingerprint(&self) -> String {
        match self.try_workload_trace() {
            Ok(t) => t.fingerprint(),
            Err(_) => "unmaterializable".into(),
        }
    }

    fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::evaluation(self.rm.unwrap_or(RmKind::Rm3), self.model);
        cfg.rm = self.rm;
        cfg.alpha = self.alpha;
        cfg.overheads = self.overheads;
        cfg.target_intervals = self.target_intervals;
        cfg
    }

    /// Canonical JSON form.
    pub fn to_json(&self) -> Json {
        self.to_json_with_fingerprint(&self.workload_fingerprint())
    }

    /// [`ExperimentSpec::to_json`] against an already-computed trace
    /// fingerprint, so resume-key computation does not re-materialize the
    /// workload. Report serialization (`CampaignRow::to_json`,
    /// `QuarantinedRow::to_json`) goes through [`ExperimentSpec::to_json`]
    /// and does materialize it again.
    fn to_json_with_fingerprint(&self, workload_fp: &str) -> Json {
        Json::obj()
            .set("name", self.name.clone())
            .set("apps", self.apps.clone())
            .set(
                "scenario",
                match self.scenario {
                    Some(s) => Json::from(s.label()),
                    None => Json::Null,
                },
            )
            .set("cores", self.n_cores())
            .set("rm", self.rm.map(|r| r.label()).unwrap_or("idle"))
            .set("model", model_label(self.model))
            .set("energy_backend", self.energy.label())
            .set("workload_fingerprint", workload_fp)
            .set("alpha", self.alpha)
            .set("overheads", self.overheads)
            .set("target_intervals", self.target_intervals)
            .set("seed", self.seed)
    }
}

/// The row's **resume key**: a fingerprint over the spec's canonical JSON
/// (which itself covers the controller, model, α, overheads, horizon,
/// seed and energy backend), the materialized workload-trace fingerprint
/// and the energy-backend label. Any change to the spec or its workload
/// re-keys the row, so a resumed campaign can never serve a stale result.
pub fn resume_key(spec: &ExperimentSpec, trace_fingerprint: &str) -> String {
    let mut f = Fingerprint::new("triad-journal-key/v1");
    f.str(&spec.to_json_with_fingerprint(trace_fingerprint).to_string_compact())
        .str(trace_fingerprint)
        .str(&spec.energy.label());
    f.hex()
}

/// Why a spec's row was quarantined (or a journaled run could not start).
///
/// The campaign layer never panics on bad input: energy-backend and
/// workload errors, injected faults and per-row panics all land here,
/// either as [`QuarantinedRow`]s (the campaign completes every other row)
/// or as this function-level error (journal IO).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// An energy backend could not be built (missing table file, unknown
    /// technology node).
    EnergyBackend {
        /// The backend's configuration label.
        label: String,
        /// Builder error text.
        reason: String,
    },
    /// A spec's workload program does not materialize.
    Workload {
        /// Spec name.
        spec: String,
        /// Materialization error text.
        reason: String,
    },
    /// The spec's simulation (or its shared idle baseline) panicked; the
    /// panic was caught and quarantined.
    RowPanic {
        /// Spec name.
        spec: String,
        /// Panic payload text.
        message: String,
    },
    /// The spec's simulation reported a typed fault (today: an injected
    /// failpoint error at `campaign.row`).
    RowFault {
        /// Spec name.
        spec: String,
        /// Fault text.
        reason: String,
    },
    /// The row journal could not be opened or loaded.
    Journal {
        /// Journal path.
        path: String,
        /// IO error text.
        reason: String,
    },
}

impl CampaignError {
    /// Stable machine-readable discriminant, used in error-row JSON.
    pub fn kind_label(&self) -> &'static str {
        match self {
            CampaignError::EnergyBackend { .. } => "energy_backend",
            CampaignError::Workload { .. } => "workload",
            CampaignError::RowPanic { .. } => "row_panic",
            CampaignError::RowFault { .. } => "row_fault",
            CampaignError::Journal { .. } => "journal",
        }
    }

    /// Canonical JSON form: `{"kind": ..., "message": ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj().set("kind", self.kind_label()).set("message", self.to_string())
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EnergyBackend { label, reason } => {
                write!(f, "energy backend {label}: {reason}")
            }
            CampaignError::Workload { spec, reason } => {
                write!(f, "spec {spec}: workload does not materialize: {reason}")
            }
            CampaignError::RowPanic { spec, message } => {
                write!(f, "spec {spec}: simulation panicked: {message}")
            }
            CampaignError::RowFault { spec, reason } => {
                write!(f, "spec {spec}: simulation fault: {reason}")
            }
            CampaignError::Journal { path, reason } => {
                write!(f, "journal {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A spec whose row could not be produced: the campaign completed every
/// other row and reports this one as a structured error row.
#[derive(Debug, Clone)]
pub struct QuarantinedRow {
    /// The failing spec.
    pub spec: ExperimentSpec,
    /// What went wrong.
    pub error: CampaignError,
}

impl QuarantinedRow {
    /// Canonical JSON form: the spec plus `{"kind","message"}`.
    pub fn to_json(&self) -> Json {
        Json::obj().set("spec", self.spec.to_json()).set("error", self.error.to_json())
    }
}

/// Everything a fault-tolerant campaign run produces.
#[derive(Debug, Clone, Default)]
pub struct CampaignOutcome {
    /// Completed rows, in spec order (quarantined specs omitted).
    pub rows: Vec<CampaignRow>,
    /// Specs that failed, in spec order.
    pub quarantined: Vec<QuarantinedRow>,
    /// Spec-list index of each `quarantined` entry (parallel to it) — the
    /// positional alignment presenters need to pair `rows` back with
    /// their input specs; matching by spec equality instead would
    /// misalign when a spec list contains duplicates and only one copy
    /// quarantines (exactly what a `once`-trigger failpoint produces).
    pub quarantined_indices: Vec<usize>,
    /// Rows re-keyed from the journal (not re-simulated).
    pub resumed: usize,
    /// Rows actually simulated this run.
    pub simulated: usize,
}

/// Memoization key of an idle-RM reference run: the workload-trace
/// fingerprint, the horizon, and the energy backend.
type BaselineKey = (String, usize, EnergyBackendConfig);

/// Display label for a predictor flavor.
pub fn model_label(model: SimModel) -> &'static str {
    match model {
        SimModel::Perfect => "perfect",
        SimModel::Online(k) => k.label(),
    }
}

/// Parse a controller name (`idle`, `rm1`, `rm2`, `rm3`, `rm3full`).
pub fn parse_rm(s: &str) -> Option<Option<RmKind>> {
    match s.to_ascii_lowercase().as_str() {
        "idle" | "none" => Some(None),
        "rm1" => Some(Some(RmKind::Rm1)),
        "rm2" => Some(Some(RmKind::Rm2)),
        "rm3" => Some(Some(RmKind::Rm3)),
        "rm3full" | "rm3-full" => Some(Some(RmKind::Rm3Full)),
        _ => None,
    }
}

/// Parse a predictor name (`perfect`, `model1`, `model2`, `model3`).
pub fn parse_model(s: &str) -> Option<SimModel> {
    match s.to_ascii_lowercase().as_str() {
        "perfect" => Some(SimModel::Perfect),
        "model1" | "m1" => Some(SimModel::Online(ModelKind::Model1)),
        "model2" | "m2" => Some(SimModel::Online(ModelKind::Model2)),
        "model3" | "m3" => Some(SimModel::Online(ModelKind::Model3)),
        _ => None,
    }
}

/// One executed spec: the simulation outcome plus its idle reference.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// The spec that produced this row.
    pub spec: ExperimentSpec,
    /// Simulation outcome.
    pub result: SimResult,
    /// Total energy of the shared idle-RM reference run.
    pub idle_energy_j: f64,
    /// Energy savings versus the idle reference (0 for idle specs).
    pub savings: f64,
    /// Observed QoS-violation rate (violating intervals / checked).
    pub violation_rate: f64,
}

impl CampaignRow {
    /// Canonical JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("spec", self.spec.to_json())
            .set("total_energy_j", self.result.total_energy_j)
            .set("core_mem_energy_j", self.result.core_mem_energy_j)
            .set("uncore_energy_j", self.result.uncore_energy_j)
            .set("sim_time_s", self.result.sim_time_s)
            .set("rm_invocations", self.result.rm_invocations)
            .set("rm_ops", self.result.rm_ops)
            .set("qos_violations", self.result.qos_violations)
            .set("intervals_checked", self.result.intervals_checked)
            .set("mean_violation", self.result.mean_violation)
            .set("idle_energy_j", self.idle_energy_j)
            .set("savings", self.savings)
            .set("violation_rate", self.violation_rate)
    }

    /// The journaled form: [`CampaignRow::to_json`] plus the `SimResult`
    /// fields the report row omits (`arrivals`, `departures`,
    /// `vacancy_energy_j`), which the churn/workload presenters consume.
    /// Journal records carry this superset so a resumed row restores the
    /// *complete* simulation outcome, while report serialization keeps
    /// its exact historical bytes.
    pub fn to_journal_json(&self) -> Json {
        self.to_json()
            .set("arrivals", self.result.arrivals)
            .set("departures", self.result.departures)
            .set("vacancy_energy_j", self.result.vacancy_energy_j)
    }

    /// Rebuild a row from its journaled [`CampaignRow::to_journal_json`]
    /// form and the (key-verified) spec that produced it. Returns `None`
    /// on schema drift (including pre-superset records missing the
    /// journal-only fields) — the caller re-simulates instead of trusting
    /// the record.
    ///
    /// Round-trip fidelity: every `SimResult` field is restored exactly
    /// (the canonical writer/parser pair round-trips floats
    /// bit-identically; `null` restores the non-finite values the writer
    /// serialized as `null`), so a resumed row re-serializes — through
    /// `to_json` *and* the presenters' workload row JSON — to the same
    /// bytes as the uninterrupted run.
    pub fn from_json(spec: ExperimentSpec, v: &Json) -> Option<CampaignRow> {
        let f = |name: &str| -> Option<f64> {
            match v.get(name)? {
                Json::Num(x) => Some(*x),
                Json::Int(i) => Some(*i as f64),
                Json::Null => Some(f64::NAN),
                _ => None,
            }
        };
        let u = |name: &str| -> Option<u64> {
            match v.get(name)? {
                Json::Int(i) if *i >= 0 => Some(*i as u64),
                _ => None,
            }
        };
        Some(CampaignRow {
            spec,
            result: SimResult {
                total_energy_j: f("total_energy_j")?,
                core_mem_energy_j: f("core_mem_energy_j")?,
                uncore_energy_j: f("uncore_energy_j")?,
                sim_time_s: f("sim_time_s")?,
                rm_invocations: u("rm_invocations")?,
                rm_ops: u("rm_ops")?,
                qos_violations: u("qos_violations")?,
                intervals_checked: u("intervals_checked")?,
                mean_violation: f("mean_violation")?,
                arrivals: u("arrivals")?,
                departures: u("departures")?,
                vacancy_energy_j: f("vacancy_energy_j")?,
            },
            idle_energy_j: f("idle_energy_j")?,
            savings: f("savings")?,
            violation_rate: f("violation_rate")?,
        })
    }
}

/// A batch of experiment specs executed in parallel against one database.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The specs, in output order.
    pub specs: Vec<ExperimentSpec>,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Print per-row completion lines to stderr (row index, spec label,
    /// elapsed seconds). Stdout — and every row — is unaffected.
    pub progress: bool,
}

impl Campaign {
    /// A campaign over the given specs using all available cores.
    pub fn new(specs: Vec<ExperimentSpec>) -> Self {
        Campaign { specs, threads: 0, progress: false }
    }

    /// Override the worker-thread count (1 = serial execution).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable per-row completion lines on stderr.
    pub fn progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Execute every spec and return rows in spec order.
    ///
    /// Phase 1 runs the deduplicated idle references in parallel; phase 2
    /// runs the specs in parallel against the memoized baselines. Both the
    /// row order and every number in it are independent of the thread
    /// count.
    ///
    /// Panics on the first quarantined spec (bad energy backend, bad
    /// workload, row panic) — the pre-fault-tolerance contract. Use
    /// [`Campaign::try_run`] or [`Campaign::run_journaled`] for the
    /// quarantining paths.
    pub fn run(&self, db: &PhaseDb) -> Vec<CampaignRow> {
        let outcome = self.try_run(db);
        if let Some(q) = outcome.quarantined.first() {
            panic!("campaign: {}", q.error);
        }
        outcome.rows
    }

    /// Execute every spec, quarantining failures instead of panicking:
    /// bad specs (unmaterializable workload, unbuildable energy backend)
    /// and rows whose simulation panics or faults become structured
    /// [`QuarantinedRow`]s while every other row completes normally.
    pub fn try_run(&self, db: &PhaseDb) -> CampaignOutcome {
        self.execute(db, None)
    }

    /// [`Campaign::try_run`] with a durable row journal at `path`: every
    /// completed row is appended (one `O_APPEND` line) as it finishes, and
    /// with `resume` the journal's surviving records are validated, re-keyed
    /// against this campaign's specs, and served without re-simulation —
    /// producing rows byte-identical to an uninterrupted run.
    ///
    /// `resume = false` truncates any existing journal first. A missing
    /// journal under `resume = true` simply starts fresh (nothing to
    /// resume is not an error — it is the first run of the schedule).
    pub fn run_journaled(
        &self,
        db: &PhaseDb,
        path: &Path,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        let journal_err = |e: std::io::Error| CampaignError::Journal {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        let loaded = if resume && path.exists() {
            journal::load(path).map_err(journal_err)?
        } else {
            LoadedJournal::default()
        };
        let journal = RowJournal::open(path, !resume).map_err(journal_err)?;
        Ok(self.execute(db, Some((&journal, &loaded.rows))))
    }

    /// The shared execution core behind [`Campaign::try_run`] and
    /// [`Campaign::run_journaled`].
    fn execute(
        &self,
        db: &PhaseDb,
        journal: Option<(&RowJournal, &HashMap<String, Json>)>,
    ) -> CampaignOutcome {
        // Build each distinct energy backend exactly once, up front: workers
        // share it via `Arc`, so a table file is read and parsed once per
        // campaign (and a file vanishing mid-campaign cannot fail a worker).
        // Build failures quarantine the specs that reference the backend.
        type BuiltBackend = (EnergyBackendConfig, Result<Arc<dyn EnergyBackend>, String>);
        let mut backends: Vec<BuiltBackend> = Vec::new();
        for spec in &self.specs {
            if !backends.iter().any(|(c, _)| c == &spec.energy) {
                let built = spec.energy.build().map(Arc::from);
                backends.push((spec.energy.clone(), built));
            }
        }
        let backend_for = |energy: &EnergyBackendConfig| -> Arc<dyn EnergyBackend> {
            let (_, built) = backends.iter().find(|(c, _)| c == energy).expect("pre-built above");
            built.clone().expect("quarantined before simulation")
        };

        // Materialize and fingerprint every spec's trace exactly once and
        // decide each spec's fate: run it, serve it from the journal, or
        // quarantine it. Run specs keep their trace with its fingerprint.
        let mut traces: Vec<Option<(WorkloadTrace, String)>> = Vec::with_capacity(self.specs.len());
        let mut preps: Vec<Prep> = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let trace = {
                let _span = TRACE_MATERIALIZE_SPAN.enter();
                spec.try_workload_trace()
            };
            let trace = match trace {
                Ok(t) => t,
                Err(reason) => {
                    traces.push(None);
                    preps.push(Prep::Quarantined(CampaignError::Workload {
                        spec: spec.name.clone(),
                        reason,
                    }));
                    continue;
                }
            };
            let backend =
                &backends.iter().find(|(c, _)| c == &spec.energy).expect("pre-built above").1;
            if let Err(reason) = backend {
                traces.push(None);
                preps.push(Prep::Quarantined(CampaignError::EnergyBackend {
                    label: spec.energy.label(),
                    reason: reason.clone(),
                }));
                continue;
            }
            let fingerprint = trace.fingerprint();
            let key = resume_key(spec, &fingerprint);
            let prep = match journal.and_then(|(_, rows)| rows.get(&key)) {
                Some(row_json) => match CampaignRow::from_json(spec.clone(), row_json) {
                    Some(row) => Prep::Resumed(Box::new(row)),
                    None => {
                        // Schema drift in a digest-valid record: distrust
                        // it and re-simulate.
                        RESUME_REJECTED.incr();
                        Prep::Run { key }
                    }
                },
                None => Prep::Run { key },
            };
            traces.push(Some((trace, fingerprint)));
            preps.push(prep);
        }

        // Deduplicate idle-baseline keys (with their traces) in first-seen
        // order, over the specs that will actually simulate. The idle-RM
        // reference is independent of controller, model, α and overheads
        // (the RM is never invoked), so its memoization key is only the
        // workload trace, the horizon and the energy backend the joules
        // are counted under.
        let mut keyed: Vec<(BaselineKey, &WorkloadTrace)> = Vec::new();
        for (i, prep) in preps.iter().enumerate() {
            if let Prep::Run { .. } = prep {
                let (trace, fingerprint) = traces[i].as_ref().expect("run specs keep their trace");
                let spec = &self.specs[i];
                let key = (fingerprint.clone(), spec.target_intervals, spec.energy.clone());
                if !keyed.iter().any(|(k, _)| *k == key) {
                    keyed.push((key, trace));
                }
            }
        }

        // A panicking baseline quarantines every spec that depends on it,
        // not the whole campaign.
        let idle_results: Vec<Result<SimResult, String>> =
            par::par_map(&keyed, self.threads, |(key, trace)| {
                let _span = IDLE_BASELINE_SPAN.enter();
                let (_, target, energy) = key;
                let backend = backend_for(energy);
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut cfg = SimConfig::idle();
                    cfg.target_intervals = *target;
                    Simulator::with_backend(db, trace.n_cores, cfg, backend).run_trace(trace)
                }))
                .map_err(panic_message)
            });
        let baselines: HashMap<&BaselineKey, &Result<SimResult, String>> =
            keyed.iter().map(|(k, _)| k).zip(&idle_results).collect();

        ROWS.add(self.specs.len() as u64);
        let started = std::time::Instant::now();
        let outcomes = par::par_map_indexed(&self.specs, self.threads, |i, spec| {
            let outcome = match &preps[i] {
                Prep::Quarantined(error) => RowOutcome::Quarantined(QuarantinedRow {
                    spec: spec.clone(),
                    error: error.clone(),
                }),
                Prep::Resumed(row) => {
                    ROWS_RESUMED.incr();
                    RowOutcome::Row((**row).clone())
                }
                Prep::Run { key } => {
                    let traced = traces[i].as_ref().expect("run specs keep their trace");
                    self.run_row(db, spec, traced, &baselines, &backend_for, key, journal)
                }
            };
            if self.progress {
                eprintln!(
                    "campaign: [{}/{}] {} done ({:.1}s elapsed)",
                    i + 1,
                    self.specs.len(),
                    spec.name,
                    started.elapsed().as_secs_f64()
                );
            }
            outcome
        });

        let mut result = CampaignOutcome::default();
        for (i, (outcome, prep)) in outcomes.into_iter().zip(&preps).enumerate() {
            match outcome {
                RowOutcome::Row(row) => {
                    match prep {
                        Prep::Resumed(_) => result.resumed += 1,
                        _ => result.simulated += 1,
                    }
                    result.rows.push(row);
                }
                RowOutcome::Quarantined(q) => {
                    ROWS_QUARANTINED.incr();
                    result.quarantined.push(q);
                    result.quarantined_indices.push(i);
                }
            }
        }
        result
    }

    /// Simulate one spec inside its panic quarantine, journaling the
    /// completed row.
    #[allow(clippy::too_many_arguments)]
    fn run_row(
        &self,
        db: &PhaseDb,
        spec: &ExperimentSpec,
        (trace, fingerprint): &(WorkloadTrace, String),
        baselines: &HashMap<&BaselineKey, &Result<SimResult, String>>,
        backend_for: &(dyn Fn(&EnergyBackendConfig) -> Arc<dyn EnergyBackend> + Sync),
        key: &str,
        journal: Option<(&RowJournal, &HashMap<String, Json>)>,
    ) -> RowOutcome {
        let bkey = (fingerprint.clone(), spec.target_intervals, spec.energy.clone());
        let idle = match baselines[&bkey] {
            Ok(idle) => idle,
            Err(message) => {
                return RowOutcome::Quarantined(QuarantinedRow {
                    spec: spec.clone(),
                    error: CampaignError::RowPanic {
                        spec: spec.name.clone(),
                        message: format!("idle baseline: {message}"),
                    },
                })
            }
        };
        let simulated =
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<SimResult, String> {
                ROW_FP.check()?;
                if spec.rm.is_none() {
                    // The spec *is* its own baseline; reuse the memoized run.
                    Ok(idle.clone())
                } else {
                    let _span = SIMULATE_SPAN.enter();
                    Ok(Simulator::with_backend(
                        db,
                        trace.n_cores,
                        spec.sim_config(),
                        backend_for(&spec.energy),
                    )
                    .run_trace(trace))
                }
            }));
        let result = match simulated {
            Err(payload) => {
                return RowOutcome::Quarantined(QuarantinedRow {
                    spec: spec.clone(),
                    error: CampaignError::RowPanic {
                        spec: spec.name.clone(),
                        message: panic_message(payload),
                    },
                })
            }
            Ok(Err(reason)) => {
                return RowOutcome::Quarantined(QuarantinedRow {
                    spec: spec.clone(),
                    error: CampaignError::RowFault { spec: spec.name.clone(), reason },
                })
            }
            Ok(Ok(result)) => result,
        };
        let _qos = QOS_EVAL_SPAN.enter();
        let savings = if spec.rm.is_none() { 0.0 } else { result.savings_vs(idle) };
        let violation_rate = if result.intervals_checked > 0 {
            result.qos_violations as f64 / result.intervals_checked as f64
        } else {
            0.0
        };
        let row = CampaignRow {
            spec: spec.clone(),
            idle_energy_j: idle.total_energy_j,
            savings,
            violation_rate,
            result,
        };
        ROWS_SIMULATED.incr();
        if let Some((j, _)) = journal {
            j.append(key, &row.to_journal_json());
        }
        RowOutcome::Row(row)
    }

    /// The suite applications this campaign's specs reference, in suite
    /// order — the exact database the campaign needs.
    pub fn required_apps(&self) -> Vec<AppSpec> {
        triad_trace::suite()
            .iter()
            .filter(|a| self.specs.iter().any(|s| s.apps.iter().any(|n| n == a.name)))
            .cloned()
            .collect()
    }

    /// Canonical JSON document for a finished campaign.
    pub fn report(rows: &[CampaignRow]) -> Json {
        Json::obj()
            .set("schema", "triad-campaign/v1")
            .set("rows", Json::Arr(rows.iter().map(CampaignRow::to_json).collect()))
    }

    /// [`Campaign::report`] plus the quarantined error rows (key present
    /// only when non-empty, so fully-successful reports keep their exact
    /// pre-fault-tolerance bytes).
    pub fn report_full(rows: &[CampaignRow], quarantined: &[QuarantinedRow]) -> Json {
        let doc = Self::report(rows);
        if quarantined.is_empty() {
            doc
        } else {
            doc.set(
                "quarantined",
                Json::Arr(quarantined.iter().map(QuarantinedRow::to_json).collect()),
            )
        }
    }
}

/// A spec's fate, decided in the prep phase.
enum Prep {
    /// Simulate, journaling the row under this resume key.
    Run {
        /// The row's resume key.
        key: String,
    },
    /// Served from the journal without re-simulation.
    Resumed(Box<CampaignRow>),
    /// Known-bad before simulation (workload/backend errors).
    Quarantined(CampaignError),
}

/// One spec's executed outcome.
enum RowOutcome {
    Row(CampaignRow),
    Quarantined(QuarantinedRow),
}

/// Render a caught panic payload (`&str` or `String` from `panic!`) as
/// text for the quarantine record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_phasedb::{build_apps, DbConfig, DbStore};

    /// The test database resolves through the shared workspace store: the
    /// first test run of the day builds and persists it, every later run —
    /// and every other test binary needing the same subset — loads it.
    fn small_db() -> PhaseDb {
        let names = ["mcf", "libquantum", "povray", "gcc"];
        let apps: Vec<_> =
            triad_trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
        DbStore::default_cache().resolve(&apps, &DbConfig::fast()).db
    }

    fn quick(spec: ExperimentSpec) -> ExperimentSpec {
        spec.target_intervals(6)
    }

    #[test]
    fn campaign_matches_direct_simulation() {
        let db = small_db();
        let spec = quick(ExperimentSpec::new("direct", &["mcf", "povray"]).perfect());
        let rows = Campaign::new(vec![spec.clone()]).run(&db);
        assert_eq!(rows.len(), 1);

        let names = ["mcf", "povray"];
        let mut cfg = SimConfig::perfect(RmKind::Rm3);
        cfg.target_intervals = 6;
        let direct = Simulator::new(&db, 2, cfg).run(&names);
        let mut idle_cfg = SimConfig::idle();
        idle_cfg.target_intervals = 6;
        let idle = Simulator::new(&db, 2, idle_cfg).run(&names);

        assert_eq!(rows[0].result.total_energy_j, direct.total_energy_j);
        assert_eq!(rows[0].idle_energy_j, idle.total_energy_j);
        assert_eq!(rows[0].savings, direct.savings_vs(&idle));
    }

    #[test]
    fn idle_baselines_are_shared_and_idle_specs_reuse_them() {
        let db = small_db();
        let mk =
            |name: &str, rm| quick(ExperimentSpec::new(name, &["mcf", "gcc"]).rm(rm).perfect());
        let rows = Campaign::new(vec![
            mk("idle", None),
            mk("rm1", Some(RmKind::Rm1)),
            mk("rm3", Some(RmKind::Rm3)),
        ])
        .run(&db);
        // All three rows reference the same baseline energy.
        assert_eq!(rows[0].idle_energy_j, rows[1].idle_energy_j);
        assert_eq!(rows[1].idle_energy_j, rows[2].idle_energy_j);
        // The idle spec IS the baseline run.
        assert_eq!(rows[0].result.total_energy_j, rows[0].idle_energy_j);
        assert_eq!(rows[0].savings, 0.0);
        assert_eq!(rows[0].result.rm_invocations, 0);
        // RM3 should do no worse than RM1 under the perfect model.
        assert!(rows[2].savings >= rows[1].savings - 0.005);
    }

    #[test]
    fn rows_are_thread_count_invariant() {
        let db = small_db();
        let specs: Vec<ExperimentSpec> = [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3]
            .iter()
            .map(|&rm| {
                quick(ExperimentSpec::new(rm.label(), &["mcf", "libquantum"]))
                    .rm(Some(rm))
                    .perfect()
            })
            .collect();
        let serial = Campaign::new(specs.clone()).threads(1).run(&db);
        let parallel = Campaign::new(specs).threads(4).run(&db);
        let a = Campaign::report(&serial).to_string_pretty();
        let b = Campaign::report(&parallel).to_string_pretty();
        assert_eq!(a, b, "campaign output must be thread-count invariant");
    }

    #[test]
    fn json_report_has_schema_and_rows() {
        let db = small_db();
        let rows =
            Campaign::new(vec![quick(ExperimentSpec::new("x", &["povray", "gcc"]).perfect())])
                .run(&db);
        let doc = Campaign::report(&rows);
        assert_eq!(doc.get("schema"), Some(&Json::from("triad-campaign/v1")));
        let s = doc.to_string_pretty();
        assert!(s.contains("\"savings\""));
        assert!(s.contains("\"rm\": \"RM3\""));
    }

    #[test]
    fn four_spec_campaign_speeds_up_on_multicore_hosts() {
        // The acceptance bar for the campaign layer: on a multi-core host,
        // running a 4-spec campaign in parallel beats serial execution in
        // wall-clock time while producing the same bytes. On single-core
        // hosts only the equivalence half is checkable.
        let db = small_db();
        let specs: Vec<ExperimentSpec> = [
            ("a", ["mcf", "povray"]),
            ("b", ["mcf", "gcc"]),
            ("c", ["libquantum", "gcc"]),
            ("d", ["povray", "libquantum"]),
        ]
        .iter()
        .map(|(name, apps)| ExperimentSpec::new(*name, apps).perfect().target_intervals(24))
        .collect();

        let t0 = std::time::Instant::now();
        let serial = Campaign::new(specs.clone()).threads(1).run(&db);
        let serial_s = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let parallel = Campaign::new(specs).threads(0).run(&db);
        let parallel_s = t1.elapsed().as_secs_f64();

        assert_eq!(
            Campaign::report(&serial).to_string_pretty(),
            Campaign::report(&parallel).to_string_pretty()
        );
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        eprintln!(
            "4-spec campaign on {cores} cores: serial {serial_s:.3}s, parallel {parallel_s:.3}s"
        );
        if cores >= 4 {
            assert!(
                parallel_s < serial_s,
                "parallel {parallel_s}s must beat serial {serial_s}s on a {cores}-core host"
            );
        }
    }

    #[test]
    fn required_apps_are_the_union_of_spec_apps_in_suite_order() {
        let campaign = Campaign::new(vec![
            ExperimentSpec::new("a", &["povray", "mcf"]),
            ExperimentSpec::new("b", &["mcf", "libquantum"]),
        ]);
        let names: Vec<&str> = campaign.required_apps().iter().map(|a| a.name).collect();
        let suite_order: Vec<&str> = triad_trace::suite()
            .iter()
            .map(|a| a.name)
            .filter(|n| ["mcf", "libquantum", "povray"].contains(n))
            .collect();
        assert_eq!(names, suite_order);
    }

    #[test]
    fn store_resolved_rows_are_byte_identical_to_a_fresh_build() {
        let dir = triad_util::fs::unique_temp_path("campaign-cached-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = DbStore::new(&dir);
        let cfg = DbConfig::fast();
        let campaign =
            Campaign::new(vec![quick(ExperimentSpec::new("cached", &["mcf", "povray"]).perfect())]);

        let direct = campaign.run(&build_apps(&campaign.required_apps(), &cfg));
        // Cold (build + persist), then warm (load): all three byte-equal.
        let cold = campaign.run(&store.resolve(&campaign.required_apps(), &cfg).db);
        let warm = campaign.run(&store.resolve(&campaign.required_apps(), &cfg).db);
        let report = |rows: &[CampaignRow]| Campaign::report(rows).to_string_pretty();
        assert_eq!(report(&direct), report(&cold));
        assert_eq!(report(&direct), report(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parsers_accept_cli_spellings() {
        assert_eq!(parse_rm("idle"), Some(None));
        assert_eq!(parse_rm("RM3"), Some(Some(RmKind::Rm3)));
        assert_eq!(parse_rm("rm3full"), Some(Some(RmKind::Rm3Full)));
        assert_eq!(parse_rm("bogus"), None);
        assert_eq!(parse_model("perfect"), Some(SimModel::Perfect));
        assert_eq!(parse_model("model2"), Some(SimModel::Online(ModelKind::Model2)));
        assert_eq!(parse_model("bogus"), None);
    }
}
