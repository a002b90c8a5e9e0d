//! # triad-uarch — mechanistic out-of-order core timing model
//!
//! The paper's detailed simulations use Sniper 7.2 with its "ROB"
//! (instruction-window-centric mechanistic) core model [Carlson et al., ACM
//! TACO 2014]. This crate implements the same modeling class: a one-pass,
//! trace-driven out-of-order timing model that resolves, per instruction,
//!
//! * **dispatch** — in order, `D(c)` per cycle, stalling on ROB fullness,
//!   scheduler (RS) fullness, LSQ fullness and branch-redirect refills;
//! * **issue** — when all producers (from the trace's dependency edges) have
//!   completed; pointer-chase loads therefore serialize behind the load
//!   that produces their address;
//! * **completion** — after the functional/memory latency; DRAM requests go
//!   through the [`triad_mem::DramQueue`] contention model;
//! * **retirement** — in order, `D(c)` per cycle.
//!
//! Besides total cycles, the model produces exactly the observables the
//! paper's RM consumes (§III-C/D):
//!
//! * the Eq. 1 time decomposition — `T0` (dispatch-width-scalable compute),
//!   `T1` (branch + cache-hit stalls) and `Tmem` (DRAM stalls) — via
//!   retire-slot gap attribution;
//! * the **true** leading-miss count and average MLP (ground truth that the
//!   ATD heuristic of `triad-cache` approximates);
//! * the arrival-ordered LLC load stream, which can be fed straight into an
//!   [`triad_cache::MlpMonitor`] to emulate the proposed hardware.
//!
//! The implementation lives in the reusable [`engine::TimingEngine`]:
//! ROB-bounded ring buffers (stored as `u32` cells when a proven cycle
//! bound fits) instead of trace-length scratch, plus a **lockstep batched
//! mode** that advances arbitrary [`engine::LaneSpec`] lanes — any mix of
//! LLC way allocations *and* clock frequencies — in one trace pass; the
//! phase-database build runs one 30-lane pass per core size.
//!
//! The timing surface is two functions: [`TimingEngine::simulate_lanes`],
//! the engine's one entry point, and the free [`simulate`], which runs one
//! lane at `(cfg.ways, cfg.freq_hz)` on a fresh engine, optionally feeding
//! an [`triad_cache::MlpMonitor`].

pub mod engine;
pub mod model;

pub use engine::{LaneSpec, TimingEngine};
pub use model::{simulate, TimingConfig, TimingResult};
