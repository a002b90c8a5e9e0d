//! # triad-rm — the coordinated resource manager (the paper's contribution)
//!
//! This crate implements the online RM of Nejat et al. (IPDPS 2020): every
//! time a core finishes an execution interval, the RM picks, for **every**
//! core, a core size `c`, a VF point `f` and an LLC way allocation `w` that
//! minimize predicted system energy subject to each application's QoS
//! constraint (execution time no worse than the fixed baseline setting,
//! Eq. 3). It does so in two stages, exactly as Fig. 3 describes:
//!
//! 1. **Local optimization** ([`local`]): per core, for every candidate
//!    allocation `w`, find the minimal frequency `f*(w)` — and, for the
//!    proposed RM3, the best core size `c*(w)` — that meets QoS, and record
//!    the resulting energy. The output is an *energy curve* `E(w)`.
//! 2. **Global optimization** ([`global`]): recursively reduce pairs of
//!    energy curves (`E_ab(s) = min_{wa+wb=s} E_a(wa) + E_b(wb)`) to find
//!    the allocation `{w*_j}` minimizing `Σ_j E_j(w_j)` under the LLC
//!    associativity constraint `Σ_j w_j = A`, then back-track the argmins.
//!
//! Three controllers share this machinery ([`RmKind`]):
//! * **RM1** — LLC partitioning only (fixed baseline `c`, `f`);
//! * **RM2** — LLC partitioning + per-core DVFS (Nejat et al., IPDPS 2019);
//! * **RM3** — LLC + DVFS + core adaptation (**the proposed scheme**).
//!
//! Predictions come from an [`IntervalModel`]; [`model::OnlineModel`]
//! implements the paper's analytical models over the hardware-monitor
//! statistics (Eq. 1–5) in three accuracy flavors ([`ModelKind`]):
//! Model1 (total misses), Model2 (constant measured MLP — the prior-art
//! model) and Model3 (the proposed per-configuration leading-miss
//! estimates from the ATD extension).
//!
//! Power and energy enter the models exclusively through the
//! `triad_energy::EnergyBackend` trait: the RM never hard-codes a power
//! parameterization, so experiment specs can swap the McPAT-parametric
//! default for measured tables or technology-scaled variants without
//! touching any optimizer code.

pub mod global;
pub mod local;
pub mod model;
pub mod planner;
pub mod qos;

pub use global::{
    optimize_partition, reduce_curves, reduce_curves_at, reduce_curves_into, EnergyCurve,
};
pub use local::{local_optimize, IntervalModel, LocalPlan, RmKind};
pub use model::{ModelKind, Observation, OnlineModel};
pub use planner::{plan_system, PlanView, PlannerState, RmDecision};
pub use qos::{qos_ok, violation_magnitude};
