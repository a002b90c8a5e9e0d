//! The reusable lockstep timing engine.
//!
//! [`TimingEngine`] executes the out-of-order model of the original
//! trace-length implementation — proven byte-identical to it lane by lane
//! by property tests and the campaign/phase-db goldens — but restructures
//! the inner loop around five observations. Its one entry point is
//! [`TimingEngine::simulate_lanes`]; [`crate::simulate`] is the single-lane
//! helper over a fresh engine.
//!
//! 1. **ROB-bounded ring buffers.** The original implementation kept five
//!    trace-length arrays (`dispatch`/`issue`/`complete`/`retire`/`class`)
//!    alive for the whole pass. Every backward read the model performs is
//!    bounded by the reorder buffer:
//!
//!    * `retire[i − rob]` and `class[i − rob]` — distance exactly `rob`;
//!    * `issue[i − rs]` — `rs < rob` for every core size;
//!    * `retire[i − 1]` / `retire[i − width]` — `width < rob`;
//!    * `complete[i − d]` for a dependence distance `d` and
//!      `complete[oldest]` for the LSQ head — *not* structurally bounded,
//!      but provably **non-binding** beyond the ROB:
//!
//!      For `j ≤ i − rob`: `complete[j] ≤ retire[j]` (retirement waits for
//!      completion, `retire[i] = max(complete[i], …)`) and `retire` is
//!      monotone in program order (`retire[i] ≥ retire[i−1]`), so
//!      `complete[j] ≤ retire[i − rob]`. The dispatch stage already forces
//!      `dispatch[i] ≥ retire[i − rob]` (the ROB-occupancy constraint, and
//!      `i ≥ rob` whenever such a `j` exists), hence
//!      `complete[j] ≤ retire[i − rob] ≤ dispatch[i] < dispatch[i] + 1 ≤
//!      start`. A dependence older than the ROB can therefore never move
//!      the issue cycle, and an LSQ head older than the ROB can never
//!      exceed the dispatch candidate that the ROB constraint already set —
//!      in both cases the model's strict `>` comparisons leave cycle *and*
//!      stall-attribution class untouched, so skipping the read is exact.
//!      (Debug builds assert `retire[i − rob] ≤ dispatch[i]` and retire
//!      monotonicity, the two legs of the proof.)
//!
//!    Each array therefore shrinks to a power-of-two ring (the `issue` ring
//!    to RS depth — it is only ever read at distance exactly `rs`; the rest
//!    to ROB depth). The scratch drops from five trace-length vectors —
//!    megabytes per call, reallocated every call — to a few KiB *per lane*
//!    that live inside the engine and are reused across calls.
//!
//! 2. **Lockstep lane batching.** Runs that share a trace and its
//!    classification differ only in per-lane cycle arithmetic: the LLC way
//!    allocation decides which LLC accesses go to DRAM, and the clock
//!    frequency only rescales the DRAM latency into core cycles (every
//!    on-chip latency of Table I is specified *in cycles*). [`LaneSpec`]
//!    captures exactly that degree of freedom — `(ways, freq_hz)` — and
//!    every run is a lane plan: [`TimingEngine::simulate_lanes`] advances
//!    any number of such lanes (one, for [`crate::simulate`]) through the
//!    trace in **one pass**. Instruction/dependence/LSQ decode and the
//!    ascending-way hit/miss prefix split are shared; only the cycle
//!    arithmetic runs per lane. The phase-database build that once
//!    walked the same trace 90× per phase (15 allocations × 2 fit
//!    frequencies × 3 core sizes) now touches it **3×** — one 30-lane pass
//!    per core size, both fit frequencies fused.
//!
//! 3. **Block decode, lane-major execution.** Decode results are staged
//!    into fixed-size blocks (`BLOCK` instructions of `Dec` records),
//!    and each lane then replays the whole block in a tight inner loop.
//!    This turns the hot loop inside-out relative to a
//!    lane-inside-instruction nesting: per-lane architectural state (group
//!    cycle, redirect target, retire horizon, stall counters) stays in
//!    registers for `BLOCK` iterations instead of round-tripping through
//!    memory per instruction, and the rings are **lane-major** — each
//!    lane's cells form one contiguous ~1 KiB region that stays
//!    L1-resident while it replays a block. Absent constraints (no
//!    dependence; LSQ/ROB/RS not yet filled) are encoded as reads of a
//!    per-lane **sentinel slot** pinned to zero — a value the model's
//!    strict `>` / `max` combining rules provably ignore — so the inner
//!    loop carries no constraint-presence branches.
//!
//! 4. **Narrow cycle cells.** Cycle values are provably bounded by a
//!    conservative per-instruction worst case (dispatch advances by at
//!    most one group cycle; completion by at most the largest fixed
//!    latency, the DRAM zero-load latency and the *total* queue backlog,
//!    which itself grows by one service slot per request; redirects add
//!    the mispredict penalty). [`TimingEngine::simulate_lanes`] evaluates
//!    this bound once per call over its lane plan (at the plan's highest
//!    clock); when `(n + 1) × per_inst_bound` fits in `u32`, the rings
//!    store 32-bit cycles — halving ring traffic — while all arithmetic
//!    stays in `u64`, so results are bit-identical to the wide
//!    representation (asserted by property tests via
//!    [`TimingEngine::force_wide_cycles`]).
//!
//! 5. **Group-major fast path.** When a run has no monitors to feed, lanes
//!    are processed in groups of `GW` lanes with all per-lane state (cycles,
//!    stall counters, DRAM channel horizons via
//!    [`DramLaneState::parts`]) held in `[u64; GW]` parallel arrays and
//!    the ring cells **group-interleaved** (`row * GW + lane` within a
//!    group's chunk, versus the lane-major regions the scalar path uses)
//!    so every per-instruction ring access of the group is one contiguous
//!    `GW`-wide load/store. Each instruction's decode is unpacked once
//!    per group and the per-lane update — including the closed-form DRAM
//!    queue advance (`request_if` inlined elementwise with the public
//!    [`FP_SHIFT`]) — is written in branch-free select form, which LLVM
//!    autovectorizes (the workspace pins `-C target-cpu=native`; see
//!    `.cargo/config.toml`). The scalar path is retained as the frozen
//!    comparator: `SCALAR = true` instantiates the same generic body with
//!    the original per-lane `DramQueue` walk, and property tests plus the
//!    `db_build` bench gate assert bit-identical results and the ≥1.2×
//!    win on the memory-bound archetype.

use crate::model::{TimingConfig, TimingResult};
use triad_arch::CoreParams;
use triad_cache::{is_llc_code, llc_stack_dist_of, service_level_of, ClassifiedTrace, MlpMonitor};
use triad_mem::{DramLaneState, DramLanes, DramQueue, FP_SHIFT};
use triad_telemetry::Counter;
use triad_trace::{Inst, InstKind};

static LANES_TOTAL: Counter = Counter::new("uarch.lanes_total");
static LANE_REPS: Counter = Counter::new("uarch.lane_reps");
static FASTPATH_GROUPS: Counter = Counter::new("uarch.fastpath_groups");
static TAIL_LANES: Counter = Counter::new("uarch.tail_lanes");

/// Stall-attribution classes (the Eq. 1 decomposition) as ring codes.
const CLS_COMPUTE: u8 = 0;
const CLS_BRANCH: u8 = 1;
const CLS_CACHE: u8 = 2;
const CLS_DRAM: u8 = 3;

/// Completion-path kinds shared across lanes (see [`Dec`]). Lanes run in
/// ascending way order, so the allocations a given stack distance misses
/// are exactly a *prefix* of the lane list — the per-lane service-level
/// decision collapses to one shared `partition_point`.
const PATH_FIXED: u8 = 0;
/// LLC access with a tracked stack distance: lanes `< split` (ways ≤ dist)
/// go to DRAM, lanes `≥ split` hit the LLC.
const PATH_SPLIT: u8 = 1;
/// LLC access that misses every simulated allocation (cold/evicted).
const PATH_ALL_DRAM: u8 = 2;

/// [`Dec::flags`] bits.
const FLAG_MISPREDICT: u8 = 1;
/// The instruction is an LLC load and monitors are attached to this run.
const FLAG_COLLECT: u8 = 2;
/// The in-order retire-slot constraint `retire[i − width] + 1` is live
/// (`i ≥ width`). The `+ 1` must vanish with the constraint — a plain
/// sentinel read would yield `0 + 1` and could (correctly *not*) tie the
/// `max` — so the lane loop adds this flag bit instead of a constant.
const FLAG_RETW: u8 = 4;
/// Memory op is a load (a DRAM store retires early from the store buffer).
const FLAG_LOAD: u8 = 8;

/// Instructions decoded per block before the lanes replay it. Sized so the
/// block's [`Dec`] records (~32 B each) plus one lane's rings fit L1
/// comfortably.
const BLOCK: usize = 256;

/// One instruction's lane-independent decode: ring rows for every backward
/// constraint (the sentinel row when the constraint is absent), the shared
/// completion path and per-instruction flags. Filled once per instruction,
/// replayed by every lane.
#[derive(Clone, Copy, Default)]
struct Dec {
    /// Read rows into the rob-cap rings (`complete`/`retire`/`class`).
    rob_row: u32,
    lsq_row: u32,
    dep1_row: u32,
    dep2_row: u32,
    retw_row: u32,
    /// Read row into the rs-cap `issue` ring.
    rs_row: u32,
    /// Row this instruction writes in the rob-cap rings.
    slot_row: u32,
    /// Row this instruction writes in the issue ring.
    islot_row: u32,
    /// Fixed completion latency (the non-DRAM outcome of every path kind).
    lat: u32,
    /// Stall class of the non-DRAM outcome.
    cls: u8,
    /// `PATH_FIXED` / `PATH_SPLIT` / `PATH_ALL_DRAM`.
    path: u8,
    /// For `PATH_SPLIT`: lanes `< split` go to DRAM.
    split: u8,
    flags: u8,
    /// Raw classification code (for the monitor stream).
    code: u8,
}

/// One simulated configuration of a lockstep pass. Lanes share the trace,
/// its classification, the core size and every cycle-domain latency of the
/// [`TimingConfig`]; they differ only in
///
/// * `ways` — the LLC allocation (decides which LLC accesses go to DRAM),
/// * `freq_hz` — the core clock, which rescales the (wall-clock) DRAM
///   latency into core cycles and converts final cycle counts to seconds,
/// * `monitor` — whether the lane's arrival-ordered LLC load stream is
///   collected for an [`MlpMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSpec {
    /// LLC way allocation of this lane.
    pub ways: usize,
    /// Core clock frequency of this lane, Hz.
    pub freq_hz: f64,
    /// Collect this lane's LLC load stream for a monitor.
    pub monitor: bool,
}

impl LaneSpec {
    /// A monitor-less lane at `(ways, freq_hz)`.
    pub fn new(ways: usize, freq_hz: f64) -> Self {
        LaneSpec { ways, freq_hz, monitor: false }
    }
}

/// Per-lane simulation state (the slow-changing part; the per-block hot
/// state is hoisted into locals by the lane loop).
struct Lane {
    dram: DramQueue,
    freq_hz: f64,
    collect: bool,
    cycle_of_group: u64,
    dispatched_in_group: u64,
    branch_resume: u64,
    dram_loads: u64,
    dram_stores: u64,
    true_lm: u64,
    lm_end: u64,
    c_branch: u64,
    c_cache: u64,
    c_dram: u64,
    last_retire: u64,
}

impl Lane {
    fn new(cfg: &TimingConfig, spec: &LaneSpec) -> Self {
        Lane {
            dram: DramQueue::new(cfg.dram, spec.freq_hz),
            freq_hz: spec.freq_hz,
            collect: spec.monitor,
            cycle_of_group: 0,
            dispatched_in_group: 0,
            branch_resume: 0,
            dram_loads: 0,
            dram_stores: 0,
            true_lm: 0,
            lm_end: 0,
            c_branch: 0,
            c_cache: 0,
            c_dram: 0,
            last_retire: 0,
        }
    }
}

/// Width of one fast-path lane group: the group-major lane loop replays a
/// decoded block through `GW` representatives at once, with all per-lane
/// state in `[u64; GW]` arrays and the ring cells of a group interleaved
/// as `row * GW + lane`. Per-instruction work that depends only on the
/// decode record (ring rows, path flags, latencies) is then computed once
/// per group instead of once per lane, and the elementwise lane arithmetic
/// is exactly the shape LLVM's SLP/loop vectorizers turn into SIMD: the
/// model's serial dependency chain runs across *instructions*, never
/// across lanes.
const GW: usize = 8;

/// Per-group state of the fast lane loop (see [`GW`]): the hot
/// architectural registers of up to `GW` representative lanes as parallel
/// arrays, living across all blocks of a run and written back to the
/// [`Lane`]s once at the end. Positions `len..GW` are *pads* — copies of
/// the group's first lane that keep the elementwise loops at fixed width;
/// their results are simply never written back.
struct GroupState {
    /// Lane index (into the engine's lane list) per position.
    kidx: [usize; GW],
    /// Lane index as `u64`, for the `PATH_SPLIT` prefix compare.
    kq: [u64; GW],
    /// Per-position LLC-load collection flag (`false` on pads).
    collect: [bool; GW],
    /// Live positions; the rest are pads.
    len: usize,
    cog: [u64; GW],
    dig: [u64; GW],
    br: [u64; GW],
    lr: [u64; GW],
    lm_end: [u64; GW],
    true_lm: [u64; GW],
    dram_loads: [u64; GW],
    dram_stores: [u64; GW],
    /// Stall cycles by class, `stall[class][lane]`.
    stall: [[u64; GW]; 4],
    /// [`DramLaneState`] fields as lane-parallel arrays (see
    /// [`DramLaneState::parts`]): the closed-form queue update runs
    /// elementwise over homogeneous `u64` lanes.
    dram_base: [u64; GW],
    dram_svc: [u64; GW],
    dram_nf: [u64; GW],
    dram_reqs: [u64; GW],
    dram_qcyc: [u64; GW],
}

/// A group's interleaved cells of ring `row`: one `GW`-wide contiguous
/// chunk per row, so every per-instruction ring access of the group-major
/// loop is a single unit-stride vector load or store. The fixed-size
/// array return lets the compiler drop per-lane bounds checks.
#[inline(always)]
fn grow<C>(buf: &[C], row: usize) -> &[C; GW] {
    buf[row * GW..row * GW + GW].try_into().unwrap()
}

/// Mutable flavor of [`grow`].
#[inline(always)]
fn grow_mut<C>(buf: &mut [C], row: usize) -> &mut [C; GW] {
    (&mut buf[row * GW..row * GW + GW]).try_into().unwrap()
}

/// Cycle-cell representation of the ring buffers: `u32` when the run's
/// conservative cycle bound fits (half the ring traffic), `u64` otherwise.
/// All arithmetic happens in `u64`; cells only narrow storage.
trait Cycle: Copy + Default {
    const ZERO: Self;
    fn of(v: u64) -> Self;
    fn get(self) -> u64;
    /// The engine's ring scratch of this cell width.
    fn rings(engine: &mut TimingEngine) -> &mut Rings<Self>;
}

impl Cycle for u32 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn of(v: u64) -> Self {
        debug_assert!(v <= u32::MAX as u64, "narrow cycle cell overflow");
        v as u32
    }
    #[inline(always)]
    fn get(self) -> u64 {
        self as u64
    }
    fn rings(engine: &mut TimingEngine) -> &mut Rings<Self> {
        &mut engine.rings32
    }
}

impl Cycle for u64 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn of(v: u64) -> Self {
        v
    }
    #[inline(always)]
    fn get(self) -> u64 {
        self
    }
    fn rings(engine: &mut TimingEngine) -> &mut Rings<Self> {
        &mut engine.rings64
    }
}

/// Per-field ring buffers (SoA, **lane-major**): lane `k`'s cells occupy
/// one contiguous `rows`-sized region per field, so a lane's whole ring
/// working set stays L1-resident while it replays a block. Row `cap` of
/// each region is the zero **sentinel** slot — never written during a run;
/// reads of it encode "constraint absent" (see module docs, point 3).
#[derive(Default)]
struct Rings<C> {
    /// Completion cycles, `lanes × (rob-cap + 1)`.
    complete: Vec<C>,
    /// Retirement cycles, `lanes × (rob-cap + 1)`.
    retire: Vec<C>,
    /// Issue cycles, `lanes × (rs-cap + 1)` — only ever read at distance
    /// `rs`.
    issue: Vec<C>,
}

/// A reusable out-of-order timing engine: holds all scratch state across
/// calls and simulates one or many [`LaneSpec`] configurations per trace
/// pass through its one entry point, [`TimingEngine::simulate_lanes`].
///
/// The free function [`crate::simulate`] runs a single lane on a fresh
/// engine; callers that simulate repeatedly hold an engine instead so its
/// scratch is reused.
#[derive(Default)]
pub struct TimingEngine {
    rings32: Rings<u32>,
    rings64: Rings<u64>,
    /// Stall-attribution classes, `lanes × (rob-cap + 1)` (shared by both
    /// cycle representations).
    class: Vec<u8>,
    /// Block-decode staging buffer, [`BLOCK`] entries.
    dec: Vec<Dec>,
    /// Memory-op ordinal ring for the LSQ constraint (way-independent,
    /// shared across lanes): the youngest `lsq` memory-op indices.
    memops: Vec<u32>,
    /// Way-equivalence representative per lane (see `dedup_lanes`).
    rep: Vec<usize>,
    /// Per-lane LLC loads in (issue-cycle, program-index, stack-code) form;
    /// populated only for monitored lanes.
    llc_loads: Vec<Vec<(u64, u32, u8)>>,
    /// Lane states for the current call.
    lanes: Vec<Lane>,
    /// SoA DRAM channel block for the fast lane loop (one channel per
    /// lane, reset per run).
    dramv: DramLanes,
    /// Test hook: force the wide (`u64`) cell representation.
    force_wide: bool,
    /// Test/bench hook: simulate every lane even when way-equivalence
    /// proves some are clones.
    no_dedup: bool,
    /// Test/bench hook: run the scalar-DRAM compatibility lane loop.
    scalar_dram: bool,
}

impl TimingEngine {
    /// A fresh engine with no scratch allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Force the wide (`u64`) ring representation regardless of the cycle
    /// bound. Only useful to property-test that the narrow (`u32`)
    /// representation is bit-identical; results never differ.
    #[doc(hidden)]
    pub fn force_wide_cycles(&mut self, wide: bool) {
        self.force_wide = wide;
    }

    /// Simulate every lane individually even when way-equivalence proves
    /// some are bit-identical clones. Only useful to property-test the
    /// deduplication (results never differ) and to benchmark the engine
    /// as it existed before it — never in production paths.
    #[doc(hidden)]
    pub fn disable_lane_dedup(&mut self, off: bool) {
        self.no_dedup = off;
    }

    /// Run the scalar-DRAM compatibility lane loop — per-lane
    /// [`DramQueue`]s and unpacked ring cells, the loop as it existed
    /// before the closed-form fast path. Only useful to property-test the
    /// fast path (results never differ) and as the `db_build` bench's
    /// comparator — never in production paths.
    #[doc(hidden)]
    pub fn disable_dram_fast_path(&mut self, off: bool) {
        self.scalar_dram = off;
    }

    /// The engine's one entry point: a single pass over `trace` advancing
    /// every lane in `specs` — arbitrary `(ways, freq_hz)` pairs, as long
    /// as `ways` is non-decreasing across the lane list (the prefix-split
    /// decode relies on it). `cfg` provides the core size and the shared
    /// cycle-domain latencies; its `ways`/`freq_hz` fields are overridden
    /// per lane. `monitors` receives one entry per `monitor == true` lane,
    /// in lane order, and is empty when no lane is monitored.
    ///
    /// Each lane's [`TimingResult`] (and monitor state) is bit-identical to
    /// a standalone [`crate::simulate`] at that lane's configuration — the
    /// property the phase-database build's byte-identical-artifact golden
    /// rests on.
    pub fn simulate_lanes(
        &mut self,
        trace: &[Inst],
        ct: &ClassifiedTrace,
        cfg: &TimingConfig,
        specs: &[LaneSpec],
        monitors: &mut [MlpMonitor],
    ) -> Vec<TimingResult> {
        assert!(!specs.is_empty(), "at least one lane required");
        let monitored = specs.iter().filter(|s| s.monitor).count();
        assert_eq!(monitors.len(), monitored, "one monitor per monitored lane");
        // Conservative upper bound on any cycle value stored during the
        // run: each instruction advances every lane clock by at most one
        // group cycle plus a dispatch slot, the largest completion latency
        // and a redirect penalty; DRAM queueing adds (amortized) one
        // channel service slot per request plus the zero-load latency.
        // Summed over `n + 1` instructions this dominates every stored
        // `issue`, `complete`, `retire` and `branch_resume` value, so cells
        // fit `u32` whenever the bound does.
        let max_freq = specs.iter().map(|s| s.freq_hz).fold(0.0f64, f64::max).max(cfg.freq_hz);
        let probe = DramQueue::new(cfg.dram, max_freq);
        let lat_max = cfg.lat_llc.max(cfg.lat_longop).max(cfg.lat_l2).max(cfg.lat_l1) as u64;
        let per_inst = 4
            + 2 * cfg.mispredict_penalty as u64
            + lat_max
            + probe.base_cycles()
            + probe.service_cycles_ceil();
        let bound = (trace.len() as u128 + 1) * per_inst as u128;
        // The fast loop packs the stall class into the low 2 bits of the
        // `complete`/`retire` cells (stored values ×4) and runs the DRAM
        // update in u64 fixed point (arrivals < 2^54). Both hold whenever
        // the conservative bound does; a trace absurd enough to exceed it
        // falls back to the scalar loop, whose widened [`DramQueue`] is
        // exact over the full u64 cycle domain.
        let scalar = self.scalar_dram || bound >= (1u128 << 54);
        let stored = if scalar { bound } else { bound * 4 + 3 };
        let narrow = !self.force_wide && stored <= u32::MAX as u128;
        match (narrow, scalar) {
            (true, false) => self.run_cells::<u32, false>(trace, ct, cfg, specs, monitors),
            (true, true) => self.run_cells::<u32, true>(trace, ct, cfg, specs, monitors),
            (false, false) => self.run_cells::<u64, false>(trace, ct, cfg, specs, monitors),
            (false, true) => self.run_cells::<u64, true>(trace, ct, cfg, specs, monitors),
        }
    }

    /// The lockstep loop: decode a block of instructions once, then let
    /// every lane replay it against its own rings (module docs, points
    /// 2–3). With one lane this degenerates to the original scalar model.
    ///
    /// `SCALAR` selects the lane-loop flavor at compile time. The default
    /// fast loop (`false`) draws DRAM completions from the SoA
    /// [`DramLanes`] block in closed form and packs each ring cell as
    /// `cycle << 2 | class`, fusing the cycle+class reads at the ROB and
    /// LSQ rows into single loads and dropping the class-ring store. The
    /// scalar loop (`true`) is the pre-fast-path code — per-lane
    /// [`DramQueue`]s, separate class ring — kept as the bit-equality
    /// reference and bench comparator. Both produce identical results for
    /// every lane (property-tested across saturated / unsaturated / mixed
    /// DRAM regimes).
    fn run_cells<C: Cycle, const SCALAR: bool>(
        &mut self,
        trace: &[Inst],
        ct: &ClassifiedTrace,
        cfg: &TimingConfig,
        specs: &[LaneSpec],
        monitors: &mut [MlpMonitor],
    ) -> Vec<TimingResult> {
        let n = trace.len();
        assert_eq!(n, ct.len(), "trace and classification must align");
        let nl = specs.len();
        assert!(nl < 256, "lane count must fit the split byte");
        if n == 0 {
            return vec![TimingResult::default(); nl];
        }
        let CoreParams { issue_width, rob, rs, lsq } = cfg.core.params();
        let width = issue_width as usize;
        let rob = rob as usize;
        let rs = rs as usize;
        let lsq = lsq as usize;
        // The ring bound (module docs) needs every structural read distance
        // within the ROB.
        assert!(width <= rob && rs <= rob && lsq <= rob, "ring bound: RS/LSQ/width within ROB");

        // Per-lane ring regions are sized to 2× the (power-of-two) ring
        // depth: rows `0..cap` hold data, row `cap` is the zero sentinel,
        // and the power-of-two region length lets every access be indexed
        // as `row & (region_len − 1)` — an index the compiler can prove
        // in-bounds (`x & m ≤ m`), so the hot loop carries no bounds
        // checks.
        let cap = rob.next_power_of_two();
        let mask = cap - 1;
        let rows = cap * 2;
        let icap = rs.next_power_of_two();
        let imask = icap - 1;
        let irows = icap * 2;
        let lcap = lsq.next_power_of_two();
        let lmask = lcap - 1;
        let sent = cap as u32; // sentinel row of the rob-cap rings
        let isent = icap as u32; // sentinel row of the issue ring

        // Ascending way order is what lets the per-instruction service-level
        // decision collapse to a prefix split (see [`Dec`]).
        assert!(
            specs.windows(2).all(|p| p[0].ways <= p[1].ways),
            "lane ways must be non-decreasing"
        );
        self.memops.resize(lcap, 0);
        self.dec.resize(BLOCK, Dec::default());
        self.lanes.clear();
        for spec in specs {
            self.lanes.push(Lane::new(cfg, spec));
        }
        if !SCALAR {
            self.dramv.reset(cfg.dram, specs.iter().map(|s| s.freq_hz));
        }
        // Lane-reuse audit: `PhaseScratch` drives one engine through every
        // grid cell of a phase-db build, so every channel horizon and
        // `requests`/`queue_cycles` counter must start this run at zero —
        // a leak here would silently skew the next cell's DRAM timing.
        // (The scalar loop rebuilds per-lane `DramQueue`s in `Lane::new`
        // above, which the same assertion pattern covers by construction.)
        debug_assert!(
            SCALAR || self.dramv.is_fresh(),
            "DRAM lane block must enter a run with no carried-over state"
        );
        // Per-distance DRAM/LLC prefix split, tabled once per run: lanes
        // run in ascending way order, so `split_of[d]` is the first lane
        // whose allocation exceeds stack distance `d` (decode previously
        // re-derived this per instruction via `partition_point`).
        let mut split_of = [0u8; 16];
        for (dist, s) in split_of.iter_mut().enumerate() {
            *s = specs.partition_point(|l| l.ways <= dist) as u8;
        }
        let codes = ct.codes();

        // ---- way-equivalence dedup. A lane pair (w₁, f₁) / (w₂, f₂) with
        // w₁ ≤ w₂ has bit-identical cycle timelines when no LLC access in
        // the window separates them:
        //
        // * accesses with stack distance d < w₁ hit both, d ≥ w₂ (and cold
        //   misses) go to DRAM on both — only d ∈ [w₁, w₂) differs, so if
        //   no such distance occurs the DRAM decision agrees on every
        //   instruction;
        // * the frequency only scales DRAM latency into core cycles, so
        //   f₁ ≠ f₂ additionally requires the lanes to see *zero* DRAM
        //   traffic (no cold miss, no tracked d ≥ w₁).
        //
        // Equal ways (duplicate lanes) are the empty-range case of the
        // same rule. Every u64 cycle/stall counter of an equivalent pair
        // is then equal, so the clone lane skips the trace walk entirely
        // and copies its representative's end state — per-lane f64
        // conversion at its own frequency reproduces the standalone result
        // bit-for-bit. Streaming phases (all-cold misses) collapse the
        // whole way range to one lane per frequency; cache-resident phases
        // collapse everything past their largest occurring stack distance.
        let mut present = [false; 16];
        let mut cold_any = false;
        for &c in codes {
            if c <= 15 {
                present[c as usize] = true;
            } else {
                cold_any |= is_llc_code(c);
            }
        }
        self.rep.clear();
        for k in 0..nl {
            let mut r = k;
            for j in 0..k * (!self.no_dedup as usize) {
                let wj16 = specs[j].ways.min(16);
                let wk16 = specs[k].ways.min(16);
                if present[wj16..wk16].iter().any(|&p| p) {
                    continue;
                }
                let dram_free = !cold_any && !present[wj16..].iter().any(|&p| p);
                if specs[j].freq_hz == specs[k].freq_hz || dram_free {
                    r = self.rep[j];
                    break;
                }
            }
            self.rep.push(r);
        }

        let collect_any = !monitors.is_empty();
        while self.llc_loads.len() < nl {
            self.llc_loads.push(Vec::new());
        }
        // A representative collects the (shared) LLC load stream when any
        // lane of its class is monitored.
        for k in 0..nl {
            self.lanes[k].collect = false;
        }
        for (spec, &r) in specs.iter().zip(&self.rep) {
            if spec.monitor {
                self.lanes[r].collect = true;
            }
        }
        if collect_any {
            // Upper bound: `ct.llc_accesses` counts LLC loads *and* stores,
            // while only loads are collected — no reallocation, slight
            // over-reservation.
            for (lv, lane) in self.llc_loads.iter_mut().zip(&self.lanes) {
                lv.clear();
                if lane.collect {
                    lv.reserve(ct.llc_accesses as usize);
                }
            }
        }
        let min_ways = specs[0].ways;
        let lat_l1 = cfg.lat_l1;
        let lat_l2 = cfg.lat_l2;
        let lat_llc = cfg.lat_llc as u64;
        let lat_longop = cfg.lat_longop;
        let penalty = cfg.mispredict_penalty as u64;
        let mut m = 0usize; // memory ops decoded so far
        let rmask = rows - 1;
        let irmask = irows - 1;

        // Representative lanes (clones skip the walk entirely).
        let mut reps_list = [0usize; 256];
        let mut nreps = 0usize;
        for k in 0..nl {
            if self.rep[k] == k {
                reps_list[nreps] = k;
                nreps += 1;
            }
        }
        // Fast-path group partition (see [`GW`]): full groups of `GW`
        // representatives, one padded group for a remainder of two or
        // more, and a single leftover representative routed through the
        // single-lane tail loop (a padded group would cost ~`GW`× the
        // work of the one lane it simulates). The scalar loop runs every
        // representative through the tail loop — it is the pre-fast-path
        // reference and bench comparator.
        let (ngroups, ntail) = if SCALAR {
            (0, nreps)
        } else {
            let rem = nreps % GW;
            if rem == 1 {
                (nreps / GW, 1)
            } else {
                (nreps / GW + (rem > 1) as usize, 0)
            }
        };
        let tail_reps = &reps_list[nreps - ntail..nreps];
        // Telemetry (sidecar): how hard lane dedup collapses the grid and
        // how much of what's left the vectorized fast path covers.
        LANES_TOTAL.add(nl as u64);
        LANE_REPS.add(nreps as u64);
        FASTPATH_GROUPS.add(ngroups as u64);
        TAIL_LANES.add(ntail as u64);

        // (Re)size ring scratch and re-zero the sentinel rows (geometry or
        // the cell layout may have shifted stale cells under them). Stale
        // *non-sentinel* values are never read: every such read at
        // instruction `i` targets a row written earlier in this pass — the
        // read distances are bounded by the ring depths and gated on `i`
        // having advanced past them — so alternating the scalar
        // (lane-major) and fast (group-interleaved) layouts on one engine
        // is also safe. The scalar layout gives every lane `k` a
        // contiguous `rows`-sized region at `k * rows`; the fast layout
        // gives group `g` a `rows * GW` region at `g * rows * GW` with
        // cells interleaved as `row * GW + lane`, followed by one
        // lane-major region for the leftover tail representative.
        let tail_cbase = ngroups * rows * GW;
        let tail_ibase = ngroups * irows * GW;
        // Detached from `self` for the run so the lane loops can borrow
        // the rest of the engine alongside it; restored after the walk.
        let mut rings = std::mem::take(C::rings(self));
        if SCALAR {
            rings.complete.resize(rows * nl, C::ZERO);
            rings.retire.resize(rows * nl, C::ZERO);
            rings.issue.resize(irows * nl, C::ZERO);
            self.class.resize(rows * nl, 0);
            for k in 0..nl {
                rings.complete[k * rows + cap] = C::ZERO;
                rings.retire[k * rows + cap] = C::ZERO;
                rings.issue[k * irows + icap] = C::ZERO;
                self.class[k * rows + cap] = CLS_COMPUTE;
            }
        } else {
            rings.complete.resize(tail_cbase + rows * ntail, C::ZERO);
            rings.retire.resize(tail_cbase + rows * ntail, C::ZERO);
            rings.issue.resize(tail_ibase + irows * ntail, C::ZERO);
            for g in 0..ngroups {
                for l in 0..GW {
                    rings.complete[g * rows * GW + cap * GW + l] = C::ZERO;
                    rings.retire[g * rows * GW + cap * GW + l] = C::ZERO;
                    rings.issue[g * irows * GW + icap * GW + l] = C::ZERO;
                }
            }
            if ntail == 1 {
                rings.complete[tail_cbase + cap] = C::ZERO;
                rings.retire[tail_cbase + cap] = C::ZERO;
                rings.issue[tail_ibase + icap] = C::ZERO;
            }
        }

        // Group state for the whole run: pads replicate the group's first
        // lane — the replayed work is valid (so every in-loop invariant
        // and debug assertion holds on pads too) but never written back.
        let mut groups: Vec<GroupState> = Vec::with_capacity(ngroups);
        for g in 0..ngroups {
            let chunk = &reps_list[g * GW..(g * GW + GW).min(nreps)];
            let mut kidx = [chunk[0]; GW];
            kidx[..chunk.len()].copy_from_slice(chunk);
            let mut kq = [0u64; GW];
            let mut collect = [false; GW];
            let mut dram_base = [0u64; GW];
            let mut dram_svc = [0u64; GW];
            let mut dram_nf = [0u64; GW];
            let mut dram_reqs = [0u64; GW];
            let mut dram_qcyc = [0u64; GW];
            for l in 0..GW {
                kq[l] = kidx[l] as u64;
                let (b, s, nf, rq, qc) = self.dramv.lane_state(kidx[l]).parts();
                dram_base[l] = b;
                dram_svc[l] = s;
                dram_nf[l] = nf;
                dram_reqs[l] = rq;
                dram_qcyc[l] = qc;
                collect[l] = l < chunk.len() && self.lanes[kidx[l]].collect;
            }
            groups.push(GroupState {
                kidx,
                kq,
                collect,
                len: chunk.len(),
                cog: [0; GW],
                dig: [0; GW],
                br: [0; GW],
                lr: [0; GW],
                lm_end: [0; GW],
                true_lm: [0; GW],
                dram_loads: [0; GW],
                dram_stores: [0; GW],
                stall: [[0; GW]; 4],
                dram_base,
                dram_svc,
                dram_nf,
                dram_reqs,
                dram_qcyc,
            });
        }

        for block_start in (0..n).step_by(BLOCK) {
            let block = &trace[block_start..(block_start + BLOCK).min(n)];

            // ---- decode phase: once per instruction, not per lane ----
            for (j, inst) in block.iter().enumerate() {
                let i = block_start + j;
                let code = codes[i];
                let kind = inst.kind;
                let is_mem = kind.is_mem();
                let d = &mut self.dec[j];
                d.slot_row = (i & mask) as u32;
                d.islot_row = (i & imask) as u32;
                d.rob_row = if i >= rob { ((i - rob) & mask) as u32 } else { sent };
                d.rs_row = if i >= rs { ((i - rs) & imask) as u32 } else { isent };
                // LSQ head: the lsq-th-youngest memory op, if it can still
                // bind (older than the ROB ⇒ provably non-binding, module
                // docs).
                d.lsq_row = if is_mem && m >= lsq {
                    let oldest = self.memops[(m - lsq) & lmask] as usize;
                    if i - oldest < rob {
                        (oldest & mask) as u32
                    } else {
                        sent
                    }
                } else {
                    sent
                };
                if is_mem {
                    self.memops[m & lmask] = i as u32;
                    m += 1;
                }
                // Producers before the detailed window (dep distance > i)
                // completed during warmup; producers older than the ROB are
                // non-binding (module docs). Both impose no constraint.
                let d1 = inst.dep1 as usize;
                let d2 = inst.dep2 as usize;
                d.dep1_row =
                    if d1 > 0 && d1 <= i && d1 < rob { ((i - d1) & mask) as u32 } else { sent };
                d.dep2_row =
                    if d2 > 0 && d2 <= i && d2 < rob { ((i - d2) & mask) as u32 } else { sent };
                d.retw_row = if i >= width { ((i - width) & mask) as u32 } else { sent };
                let is_load = kind == InstKind::Load;
                let mut flags = 0u8;
                if kind == InstKind::Branch && inst.mispredict {
                    flags |= FLAG_MISPREDICT;
                }
                if i >= width {
                    flags |= FLAG_RETW;
                }
                if is_load {
                    flags |= FLAG_LOAD;
                }
                if collect_any && is_load && is_llc_code(code) {
                    flags |= FLAG_COLLECT;
                }
                // Completion path, shared across lanes: the service level
                // at the *smallest* allocation decides the shape, and for
                // tracked stack distances the DRAM lanes are the prefix
                // with `ways ≤ dist`.
                let (path, split, lat, cls) = match kind {
                    InstKind::Alu | InstKind::Branch => (PATH_FIXED, 0, 1, CLS_COMPUTE),
                    InstKind::LongOp => (PATH_FIXED, 0, lat_longop, CLS_COMPUTE),
                    InstKind::Load | InstKind::Store => match service_level_of(code, min_ways) {
                        1 => (PATH_FIXED, 0, lat_l1, CLS_COMPUTE),
                        2 => (PATH_FIXED, 0, lat_l2, CLS_CACHE),
                        3 => (PATH_FIXED, 0, cfg.lat_llc, CLS_CACHE),
                        _ => {
                            if code <= 15 {
                                let split = split_of[code as usize];
                                if split as usize == nl {
                                    (PATH_ALL_DRAM, 0, 0, CLS_DRAM)
                                } else {
                                    (PATH_SPLIT, split, cfg.lat_llc, CLS_CACHE)
                                }
                            } else {
                                (PATH_ALL_DRAM, 0, 0, CLS_DRAM)
                            }
                        }
                    },
                };
                d.path = path;
                d.split = split;
                d.lat = lat;
                d.cls = cls;
                d.flags = flags;
                d.code = code;
            }

            // ---- lane phase: each lane replays the decoded block. The
            // loop body is written in guarded-assignment form (`x = if c
            // { a } else { x }`) so every constraint fold and the stall
            // counters compile to conditional moves — the binding pattern
            // of the five dispatch constraints is data-dependent and
            // would mispredict heavily as branches. Ring indices are
            // masked with the power-of-two region mask, which the
            // compiler proves in-bounds. ----
            let dec = &self.dec[..block.len()];

            // Group-major fast loop (see [`GW`]): the decoded record and
            // its ring rows are unpacked once per group, then up to `GW`
            // lanes advance in elementwise lockstep over `[u64; GW]`
            // arrays. Every fold is a guarded assignment / select over
            // fixed-width arrays, and each ring row is one contiguous
            // `GW`-chunk — the shape the vectorizer lowers to SIMD
            // compares, blends and unit-stride vector loads/stores. The
            // per-lane math is the `SCALAR = false` arm of the tail loop
            // below, verbatim (the equivalence suite and the `db_store`
            // golden pin both).
            for (g, gs) in groups.iter_mut().enumerate() {
                let gcomp = &mut rings.complete[g * rows * GW..(g + 1) * rows * GW];
                let gret = &mut rings.retire[g * rows * GW..(g + 1) * rows * GW];
                let giss = &mut rings.issue[g * irows * GW..(g + 1) * irows * GW];
                // Hot state as block-scoped locals: scalar-replaceable for
                // certain, so nothing round-trips through memory per
                // instruction.
                let kidx = gs.kidx;
                let kq = gs.kq;
                let collect = gs.collect;
                let mut cog = gs.cog;
                let mut dig = gs.dig;
                let mut br = gs.br;
                let mut lr = gs.lr;
                let mut lm_end = gs.lm_end;
                let mut true_lm = gs.true_lm;
                let mut dram_loads = gs.dram_loads;
                let mut dram_stores = gs.dram_stores;
                let mut stall = gs.stall;
                let dram_base = gs.dram_base;
                let dram_svc = gs.dram_svc;
                let mut dram_nf = gs.dram_nf;
                let mut dram_reqs = gs.dram_reqs;
                let mut dram_qcyc = gs.dram_qcyc;
                for (j, d) in dec.iter().enumerate() {
                    // Shared per-instruction unpack — once per group, not
                    // once per lane.
                    let rob_row = d.rob_row as usize & rmask;
                    let lsq_row = d.lsq_row as usize & rmask;
                    let rs_row = d.rs_row as usize & irmask;
                    let dep1_row = d.dep1_row as usize & rmask;
                    let dep2_row = d.dep2_row as usize & rmask;
                    let retw_row = d.retw_row as usize & rmask;
                    let slot_row = d.slot_row as usize & rmask;
                    let islot_row = d.islot_row as usize & irmask;
                    let is_load = d.flags & FLAG_LOAD != 0;
                    let mispred = d.flags & FLAG_MISPREDICT != 0;
                    let retw_live = (d.flags & FLAG_RETW != 0) as u64;
                    let all_dram = d.path == PATH_ALL_DRAM;
                    let is_split = d.path == PATH_SPLIT;
                    let split = d.split as u64;
                    let lat = d.lat as u64;
                    let dcls = d.cls as u64;

                    // Ring reads, widened to `u64` lanes (classes ride as
                    // `u64` too so every array is lane-homogeneous).
                    let mut rr = [0u64; GW];
                    let mut rcl = [0u64; GW];
                    let rp = grow(gret, rob_row);
                    for l in 0..GW {
                        let p = rp[l].get();
                        rr[l] = p >> 2;
                        rcl[l] = p & 3;
                    }
                    let mut oc = [0u64; GW];
                    let mut lcl = [0u64; GW];
                    let op = grow(gcomp, lsq_row);
                    for l in 0..GW {
                        let p = op[l].get();
                        oc[l] = p >> 2;
                        lcl[l] = p & 3;
                    }
                    let mut il = [0u64; GW];
                    let ip = grow(giss, rs_row);
                    for l in 0..GW {
                        il[l] = ip[l].get();
                    }
                    let mut d1c = [0u64; GW];
                    let d1p = grow(gcomp, dep1_row);
                    for l in 0..GW {
                        d1c[l] = d1p[l].get() >> 2;
                    }
                    let mut d2c = [0u64; GW];
                    let d2p = grow(gcomp, dep2_row);
                    for l in 0..GW {
                        d2c[l] = d2p[l].get() >> 2;
                    }
                    let mut rw = [0u64; GW];
                    let rwp = grow(gret, retw_row);
                    for l in 0..GW {
                        rw[l] = rwp[l].get() >> 2;
                    }

                    let mut start_a = [0u64; GW];
                    let mut fin_a = [0u64; GW];
                    let mut r_a = [0u64; GW];
                    let mut fc_a = [0u64; GW];
                    for l in 0..GW {
                        let mut cand = cog[l];
                        let mut reason = CLS_COMPUTE as u64;
                        if br[l] > cand {
                            cand = br[l];
                            reason = CLS_BRANCH as u64;
                        }
                        if rr[l] > cand {
                            cand = rr[l];
                            reason = rcl[l];
                        }
                        if il[l] > cand {
                            cand = il[l];
                            reason = CLS_COMPUTE as u64;
                        }
                        if oc[l] > cand {
                            cand = oc[l];
                            reason = lcl[l];
                        }
                        let adv = cand > cog[l];
                        let wrap = !adv & (dig[l] >= width as u64);
                        cog[l] = if adv { cand } else { cog[l] + wrap as u64 };
                        dig[l] = if adv | wrap { 1 } else { dig[l] + 1 };
                        let dispatch = cog[l];
                        debug_assert!(rr[l] <= dispatch, "ROB bound violated");
                        let start = (dispatch + 1).max(d1c[l]).max(d2c[l]);
                        let to_dram = all_dram | (is_split & (kq[l] < split));
                        let arrival = start + lat_llc;
                        // Closed-form DRAM update, inlined elementwise
                        // (bit-identical to [`DramLaneState::request_if`];
                        // the u64 fixed-point domain is guarded by the
                        // run's cycle bound at dispatch).
                        let arrival_fp = arrival << FP_SHIFT;
                        let qstart = arrival_fp.max(dram_nf[l]);
                        let delay = (qstart - arrival_fp) >> FP_SHIFT;
                        dram_nf[l] = if to_dram { qstart + dram_svc[l] } else { dram_nf[l] };
                        dram_reqs[l] += to_dram as u64;
                        dram_qcyc[l] += if to_dram { delay } else { 0 };
                        let done = arrival + delay + dram_base[l];
                        let dram_load = to_dram & is_load;
                        let lead = dram_load & (arrival >= lm_end[l]);
                        true_lm[l] += lead as u64;
                        lm_end[l] = if lead { done } else { lm_end[l] };
                        dram_loads[l] += dram_load as u64;
                        dram_stores[l] += (to_dram & !is_load) as u64;
                        let dram_fin = if is_load { done } else { start + 1 };
                        let fin = if to_dram { dram_fin } else { start + lat };
                        let dram_cls = if is_load { CLS_DRAM } else { CLS_COMPUTE } as u64;
                        let cls = if to_dram { dram_cls } else { dcls };
                        let final_class =
                            if cls == CLS_COMPUTE as u64 && reason == CLS_BRANCH as u64 {
                                CLS_BRANCH as u64
                            } else {
                                cls
                            };
                        br[l] = if mispred { fin + penalty } else { br[l] };
                        let base = lr[l].max(rw[l] + retw_live);
                        let r = fin.max(base);
                        debug_assert!(r >= lr[l], "retire must be monotone");
                        lr[l] = r;
                        let diff = r - base;
                        stall[0][l] += if final_class == 0 { diff } else { 0 };
                        stall[1][l] += if final_class == 1 { diff } else { 0 };
                        stall[2][l] += if final_class == 2 { diff } else { 0 };
                        stall[3][l] += if final_class == 3 { diff } else { 0 };
                        start_a[l] = start;
                        fin_a[l] = fin;
                        r_a[l] = r;
                        fc_a[l] = final_class;
                    }

                    let sp = grow_mut(giss, islot_row);
                    for l in 0..GW {
                        sp[l] = C::of(start_a[l]);
                    }
                    let cw = grow_mut(gcomp, slot_row);
                    for l in 0..GW {
                        cw[l] = C::of(fin_a[l] << 2 | fc_a[l]);
                    }
                    let rwr = grow_mut(gret, slot_row);
                    for l in 0..GW {
                        rwr[l] = C::of(r_a[l] << 2 | fc_a[l]);
                    }

                    if d.flags & FLAG_COLLECT != 0 {
                        for l in 0..GW {
                            if collect[l] {
                                self.llc_loads[kidx[l]].push((
                                    start_a[l],
                                    (block_start + j) as u32,
                                    d.code,
                                ));
                            }
                        }
                    }
                }
                gs.cog = cog;
                gs.dig = dig;
                gs.br = br;
                gs.lr = lr;
                gs.lm_end = lm_end;
                gs.true_lm = true_lm;
                gs.dram_loads = dram_loads;
                gs.dram_stores = dram_stores;
                gs.stall = stall;
                gs.dram_nf = dram_nf;
                gs.dram_reqs = dram_reqs;
                gs.dram_qcyc = dram_qcyc;
            }

            // Single-lane tail: every representative in the scalar loop,
            // the single leftover representative in the fast loop.
            for &k in tail_reps {
                let lane = &mut self.lanes[k];
                let cbase = if SCALAR { k * rows } else { tail_cbase };
                let ibase = if SCALAR { k * irows } else { tail_ibase };
                let complete = &mut rings.complete[cbase..cbase + rows];
                let retire = &mut rings.retire[cbase..cbase + rows];
                let issue = &mut rings.issue[ibase..ibase + irows];
                let class: &mut [u8] =
                    if SCALAR { &mut self.class[cbase..cbase + rows] } else { &mut [] };
                let lv = &mut self.llc_loads[k];
                let lane_collect = lane.collect;
                let ku8 = k as u8;
                // Hot lane state lives in locals for the whole block; the
                // stall counters live in a class-indexed array so
                // attribution is an unconditional indexed add (class 0,
                // compute, is the discarded dummy slot). The fast loop
                // additionally detaches the lane's DRAM channel state from
                // the SoA block so the closed-form update runs on
                // registers.
                let mut dq = if SCALAR { DramLaneState::idle() } else { self.dramv.lane_state(k) };
                let mut cog = lane.cycle_of_group;
                let mut dig = lane.dispatched_in_group;
                let mut br = lane.branch_resume;
                let mut lr = lane.last_retire;
                let mut stall = [0u64; 4];

                for (j, d) in dec.iter().enumerate() {
                    // ---- dispatch: fold the five constraints in priority
                    // order; each strictly-greater candidate takes both the
                    // cycle and the blame. In the fast loop the ROB/LSQ
                    // rows carry `cycle << 2 | class` in one cell, so the
                    // cycle and its blame class arrive in a single load.
                    let rob_idx = d.rob_row as usize & rmask;
                    let lsq_idx = d.lsq_row as usize & rmask;
                    let (rr, rob_cls) = if SCALAR {
                        (retire[rob_idx].get(), 0u8)
                    } else {
                        let p = retire[rob_idx].get();
                        (p >> 2, (p & 3) as u8)
                    };
                    let (oc, lsq_cls) = if SCALAR {
                        (complete[lsq_idx].get(), 0u8)
                    } else {
                        let p = complete[lsq_idx].get();
                        (p >> 2, (p & 3) as u8)
                    };
                    let il = issue[d.rs_row as usize & irmask].get();
                    let mut cand = cog;
                    let mut reason = CLS_COMPUTE;
                    if br > cand {
                        cand = br;
                        reason = CLS_BRANCH;
                    }
                    if rr > cand {
                        cand = rr;
                        // ROB head's class
                        reason = if SCALAR { class[rob_idx] } else { rob_cls };
                    }
                    if il > cand {
                        cand = il;
                        reason = CLS_COMPUTE; // scheduler pressure is core-sized
                    }
                    if oc > cand {
                        cand = oc;
                        reason = if SCALAR { class[lsq_idx] } else { lsq_cls };
                    }
                    // Group advance: an external stall opens a new group at
                    // `cand`; a full group opens the next cycle's group.
                    if cand > cog {
                        cog = cand;
                        dig = 0;
                    } else if dig >= width as u64 {
                        cog += 1;
                        dig = 0;
                    }
                    dig += 1;
                    let dispatch = cog;
                    // Record what stalled this instruction's *dispatch* so
                    // pure front-end (branch) starvation is attributable at
                    // retire.
                    let dispatch_reason = reason;
                    // First leg of the ring-bound proof: the ROB constraint
                    // pins dispatch at or after the ROB head's retirement
                    // (trivially true on the zero sentinel).
                    debug_assert!(rr <= dispatch, "ROB bound violated");

                    // ---- issue (operand readiness) ----
                    let dep1c = complete[d.dep1_row as usize & rmask].get();
                    let dep2c = complete[d.dep2_row as usize & rmask].get();
                    let (dep1c, dep2c) =
                        if SCALAR { (dep1c, dep2c) } else { (dep1c >> 2, dep2c >> 2) };
                    let start = (dispatch + 1).max(dep1c).max(dep2c);

                    // ---- complete ----
                    let to_dram =
                        d.path == PATH_ALL_DRAM || (d.path == PATH_SPLIT && ku8 < d.split);
                    let (fin, cls) = if to_dram {
                        let arrival = start + lat_llc;
                        let done =
                            if SCALAR { lane.dram.request(arrival) } else { dq.request(arrival) };
                        if d.flags & FLAG_LOAD != 0 {
                            lane.dram_loads += 1;
                            if arrival >= lane.lm_end {
                                lane.true_lm += 1;
                                lane.lm_end = done;
                            }
                            (done, CLS_DRAM)
                        } else {
                            // Stores retire from the store buffer; the fill
                            // only consumes DRAM bandwidth.
                            lane.dram_stores += 1;
                            (start + 1, CLS_COMPUTE)
                        }
                    } else {
                        (start + d.lat as u64, d.cls)
                    };
                    // Loads that reach the LLC (hit or miss) probe the ATD.
                    if d.flags & FLAG_COLLECT != 0 && lane_collect {
                        lv.push((start, (block_start + j) as u32, d.code));
                    }
                    let final_class = if cls == CLS_COMPUTE && dispatch_reason == CLS_BRANCH {
                        CLS_BRANCH
                    } else {
                        cls
                    };

                    // ---- branch redirect ----
                    br = if d.flags & FLAG_MISPREDICT != 0 { fin + penalty } else { br };

                    // ---- retire (in order, `width` per cycle) + fused
                    // stall attribution: the retire delay beyond the
                    // structural in-order slot `base` is charged to the
                    // delaying class. `retire[i − 1]` is the lane's own
                    // `last_retire`; the `retire[i − width] + 1` term drops
                    // out exactly via the sentinel + FLAG_RETW when
                    // `i < width`.
                    let retw_live = (d.flags & FLAG_RETW != 0) as u64;
                    let retw = retire[d.retw_row as usize & rmask].get();
                    let retw = if SCALAR { retw } else { retw >> 2 };
                    let base = lr.max(retw + retw_live);
                    let r = fin.max(base);
                    // Second leg of the ring-bound proof: retire is
                    // monotone.
                    debug_assert!(r >= lr, "retire must be monotone");
                    lr = r;
                    issue[d.islot_row as usize & irmask] = C::of(start);
                    if SCALAR {
                        complete[d.slot_row as usize & rmask] = C::of(fin);
                        retire[d.slot_row as usize & rmask] = C::of(r);
                        class[d.slot_row as usize & rmask] = final_class;
                    } else {
                        let cls_bits = final_class as u64;
                        complete[d.slot_row as usize & rmask] = C::of(fin << 2 | cls_bits);
                        retire[d.slot_row as usize & rmask] = C::of(r << 2 | cls_bits);
                    }
                    stall[(final_class & 3) as usize] += r - base;
                }

                if !SCALAR {
                    self.dramv.commit_lane(k, dq);
                }
                lane.cycle_of_group = cog;
                lane.dispatched_in_group = dig;
                lane.branch_resume = br;
                lane.last_retire = lr;
                lane.c_branch += stall[CLS_BRANCH as usize];
                lane.c_cache += stall[CLS_CACHE as usize];
                lane.c_dram += stall[CLS_DRAM as usize];
            }
        }
        *C::rings(self) = rings;

        // Write each group's end state back to its representative lanes
        // and commit the DRAM horizons (pads — positions past `len` — die
        // here, unobserved).
        for gs in &groups {
            for l in 0..gs.len {
                let k = gs.kidx[l];
                self.dramv.commit_lane(
                    k,
                    DramLaneState::from_parts(
                        gs.dram_base[l],
                        gs.dram_svc[l],
                        gs.dram_nf[l],
                        gs.dram_reqs[l],
                        gs.dram_qcyc[l],
                    ),
                );
                let lane = &mut self.lanes[k];
                lane.cycle_of_group = gs.cog[l];
                lane.dispatched_in_group = gs.dig[l];
                lane.branch_resume = gs.br[l];
                lane.last_retire = gs.lr[l];
                lane.lm_end = gs.lm_end[l];
                lane.true_lm = gs.true_lm[l];
                lane.dram_loads = gs.dram_loads[l];
                lane.dram_stores = gs.dram_stores[l];
                lane.c_branch += gs.stall[CLS_BRANCH as usize][l];
                lane.c_cache += gs.stall[CLS_CACHE as usize][l];
                lane.c_dram += gs.stall[CLS_DRAM as usize][l];
            }
        }

        // Clone lanes copy their representative's end state: every u64
        // counter is provably equal (see the dedup comment), and the
        // result conversion below divides by each lane's *own* frequency.
        for k in 0..nl {
            let r = self.rep[k];
            if r != k {
                let (head, tail) = self.lanes.split_at_mut(k);
                let (src, dst) = (&head[r], &mut tail[0]);
                dst.cycle_of_group = src.cycle_of_group;
                dst.dispatched_in_group = src.dispatched_in_group;
                dst.branch_resume = src.branch_resume;
                dst.last_retire = src.last_retire;
                dst.c_branch = src.c_branch;
                dst.c_cache = src.c_cache;
                dst.c_dram = src.c_dram;
                dst.dram_loads = src.dram_loads;
                dst.dram_stores = src.dram_stores;
                dst.true_lm = src.true_lm;
                dst.lm_end = src.lm_end;
            }
        }

        // Feed the MLP monitors in LLC arrival order, one per monitored
        // lane, in lane order. A clone lane's stream is its
        // representative's (they are identical by construction).
        let monitored = specs.iter().enumerate().filter(|(_, s)| s.monitor);
        for ((k, _), mon) in monitored.zip(monitors.iter_mut()) {
            let lv = &mut self.llc_loads[self.rep[k]];
            lv.sort_by_key(|&(t, idx, _)| (t, idx));
            for &(_, idx, code) in lv.iter() {
                mon.on_llc_load(idx as u64, llc_stack_dist_of(code));
            }
        }

        self.lanes
            .iter()
            .map(|lane| {
                let cycles = lane.last_retire.max(1);
                let to_s = |c: u64| c as f64 / lane.freq_hz;
                let time_s = to_s(cycles);
                let t_branch_s = to_s(lane.c_branch);
                let t_cache_s = to_s(lane.c_cache);
                let tmem_s = to_s(lane.c_dram);
                let t0_s = (time_s - t_branch_s - t_cache_s - tmem_s).max(0.0);
                let ipc = n as f64 / cycles as f64;
                TimingResult {
                    insts: n as u64,
                    cycles,
                    time_s,
                    t0_s,
                    t_branch_s,
                    t_cache_s,
                    tmem_s,
                    dram_loads: lane.dram_loads,
                    dram_stores: lane.dram_stores,
                    true_leading_misses: lane.true_lm,
                    mlp: if lane.true_lm > 0 {
                        lane.dram_loads as f64 / lane.true_lm as f64
                    } else {
                        1.0
                    },
                    ipc,
                    util: ipc / width as f64,
                }
            })
            .collect()
    }
}
