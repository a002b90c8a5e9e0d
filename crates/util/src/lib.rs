//! # triad-util — self-contained infrastructure shared by every crate
//!
//! The workspace builds in fully offline environments, so the usual
//! ecosystem crates are replaced by small, deterministic, std-only
//! implementations with compatible call-site APIs:
//!
//! * [`rand`] — a seedable xoshiro256++ PRNG behind the familiar
//!   `StdRng::seed_from_u64` / `random` / `random_bool` / `random_range`
//!   surface. Determinism across platforms and thread counts is a hard
//!   requirement for the phase-trace generators and the campaign layer.
//! * [`par`] — an order-preserving parallel map over scoped threads, the
//!   substrate for both the phase-database build and campaign execution.
//! * [`json`] — a minimal JSON document model with a canonical writer and
//!   a recursive-descent parser (the writer's inverse, with a fixed nesting
//!   bound so hostile input errors instead of overflowing the stack), so
//!   campaign results are byte-identical across runs and thread counts and
//!   persisted artifacts round-trip losslessly.
//! * [`hash`] — std-only SHA-256 plus a canonical [`hash::Fingerprint`]
//!   builder, the basis of the content-addressed phase-database store.
//! * [`mod@bench`] — a tiny wall-clock measurement harness for the
//!   `harness = false` benches.
//! * [`failpoint`] — deterministic fault injection at named sites
//!   (`TRIAD_FAILPOINTS` or programmatic), inert at one relaxed load +
//!   branch per site, the substrate of the crash-safety tests.
//! * [`fs`] — [`fs::atomic_write`], the tempfile + `rename` discipline
//!   every persisted artifact is written with.

pub mod bench;
pub mod failpoint;
pub mod fs;
pub mod hash;
pub mod json;
mod json_parse;
pub mod par;
pub mod rand;
