//! # triad-trace — synthetic workload substrate (SPEC CPU2006 stand-in)
//!
//! The paper evaluates on the 27 usable SPEC CPU2006 benchmarks (calculix and
//! milc excluded), each reduced by SimPoint to a set of program *phases* that
//! are simulated in detail over every resource configuration. SPEC binaries
//! and traces are proprietary, so this crate provides **deterministic
//! synthetic application models**: each of the 27 named applications is a set
//! of parameterized phase generators ([`PhaseSpec`]) plus a per-interval
//! phase sequence, producing instruction traces ([`Trace`]) with controlled
//!
//! * instruction mix (loads/stores/branches/long-latency ops),
//! * instruction-level parallelism (dependency-distance distribution),
//! * memory-level parallelism (pointer-chase fraction, miss spacing),
//! * cache sensitivity (working-set mixture spanning the 0.5–4 MB range the
//!   2–16-way LLC allocations cover), and
//! * branch behavior (misprediction rate).
//!
//! The application library ([`apps::suite`]) is calibrated so that the
//! paper's own classification criteria (§IV-C) reproduce Table II's category
//! census: 5 CS-PS, 7 CS-PI, 7 CI-PS and 8 CI-PI applications.
//!
//! Everything is seeded; identical seeds produce identical traces.

pub mod apps;
pub mod inst;
pub mod phase;

pub use apps::{by_category, by_name, suite, AppSpec, Category};
pub use inst::{Inst, InstKind, Trace};
pub use phase::{AccessPattern, MemRegion, PhaseId, PhaseSpec};
