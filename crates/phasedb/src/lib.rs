//! # triad-phasedb — the detailed-simulation database
//!
//! The paper's methodology (§IV-A) performs Sniper + McPAT simulations of
//! every benchmark phase over **all** core configurations, VF settings and
//! LLC allocations, and collects the results in a database that the RM
//! simulator replays. This crate is that step:
//!
//! 1. each application phase generates its deterministic trace
//!    (`triad-trace`), working-set-scaled to match the scaled cache
//!    geometry;
//! 2. one [`triad_cache::classify_warm`] pass produces the per-access LLC
//!    stack distances and the ATD miss curves (warm-up mirrors the paper's
//!    100M-warmup/100M-detailed windows);
//! 3. for every `(core size, way allocation)` the out-of-order timing model
//!    runs at two frequencies, fitting the ground truth
//!    `T(f) = A/f + B` per configuration — which preserves the
//!    frequency-dependent overlap effects the online model's rigid `f_i/f`
//!    scaling cannot see;
//! 4. the low-frequency run also emulates the proposed hardware: it feeds
//!    the arrival-ordered LLC load stream into the [`triad_cache::MlpMonitor`]
//!    and records the performance-counter decomposition — i.e. exactly the
//!    *monitor statistics* the online RM is allowed to use.
//!
//! The resulting [`PhaseDb`] answers, for any `(phase, c, f, w)`:
//! ground-truth time and energy per instruction, and the monitor statistics
//! as observed at that setting.

//! Building is expensive (minutes of detailed simulation), so the database
//! is persisted behind a content-addressed [`DbStore`]: artifacts are keyed
//! by [`db_fingerprint`] (a canonical digest of the [`DbConfig`], the suite
//! definition and the shape constants), loaded on hit, and built + written
//! atomically on miss. Every consumer — campaigns and the `triad-bench`
//! CLI — resolves its database through the store instead of calling
//! [`build_suite`] directly.

pub mod build;
pub mod characterize;
pub mod fingerprint;
pub mod record;
pub mod serde;
pub mod store;

pub use build::{build_apps, build_phase, build_suite, DbConfig};
pub use characterize::{characterize_app, AppCharacterization};
pub use fingerprint::{db_fingerprint, FINGERPRINT_DOMAIN};
pub use record::{cw, AppDbEntry, MonitorStats, PhaseDb, PhaseRecord, NC, NW, W_MAX, W_MIN};
pub use serde::{db_from_json, db_to_json, DB_SCHEMA};
pub use store::{DbStore, Resolved, StoreOutcome};
