//! # triad-sim — the multi-core RM simulator and experiment drivers
//!
//! The paper evaluates its resource managers with an in-house interval
//! simulator (Fig. 5): per-application phase traces are replayed against the
//! detailed-simulation database, a global event queue advances whichever
//! core finishes its 100M-instruction interval first, and the RM is invoked
//! at every such event to re-optimize the whole system. This crate is that
//! simulator, plus everything §IV needs around it:
//!
//! * [`engine`] — the one event loop (static mixes replay as traces with
//!   one arrival per core at `t = 0`) with overhead accounting (DVFS transition,
//!   core-resize drain, RM software execution) and the paper's energy
//!   bookkeeping (§IV-D1: per-app core+memory energy until the app reaches
//!   the suite-maximum instruction count, plus uncore energy to the end);
//! * [`perfect`] — the ground-truth interval model (database lookups of the
//!   *next* interval), used for Fig. 2 and the "perfect" bars of Fig. 9;
//! * the `triad-workload` crate (its core types re-exported here) —
//!   Fig. 1's scenario taxonomy, the §IV-C generator, and the dynamic
//!   [`WorkloadSpec`]/[`WorkloadTrace`] machinery the simulator replays
//!   via [`Simulator::run_trace`] (arrivals, churn, vacancy);
//! * [`qos_eval`] — the Fig. 7/8 evaluation: violation probability,
//!   expected magnitude and distribution over all phases × current ×
//!   target settings, weighted by the suite's designed phase weights
//!   ([`triad_trace::AppSpec::phase_weights`]);
//! * [`campaign`] — declarative experiment specs executed in parallel with
//!   shared, memoized idle baselines, canonical JSON reports, per-row
//!   panic isolation and typed [`CampaignError`]s;
//! * [`journal`] — the durable append-only row journal behind
//!   [`Campaign::run_journaled`]: crash-safe resume re-keys completed
//!   rows instead of re-simulating them;
//! * [`experiments`] — the spec builders and row folds of Fig. 2, Fig. 6
//!   and Fig. 9 (the `triad-bench` presenters run the campaigns).

pub mod campaign;
pub mod engine;
pub mod experiments;
pub mod journal;
pub mod perfect;
pub mod qos_eval;

pub use campaign::{Campaign, CampaignError, CampaignOutcome, CampaignRow, ExperimentSpec};
pub use engine::{SimConfig, SimModel, SimResult, Simulator, RM_INSTR_PER_OP};
pub use perfect::PerfectModel;
pub use qos_eval::{evaluate_model_on_trace, evaluate_models, trace_app_weights, QosEvaluation};
pub use triad_workload::{
    generate_workloads, scenario_of_pair, Scenario, Workload, WorkloadSpec, WorkloadTrace,
};
