//! Out-of-order timing-model inner-loop cost per simulated RM interval.
//!
//! The ROADMAP's hot-path item: database builds are dominated by the
//! out-of-order timing model — every phase runs it over the whole
//! (core size × frequency × ways) grid, and each run replays one detailed
//! interval (the scaled 100M-instruction window). This bench runs three
//! lane plans through one held engine's [`TimingEngine::simulate_lanes`]
//! for a memory-bound and a compute-bound phase:
//!
//! * **scalar** — a single lane per interval (the legacy unit;
//!   ns/instruction),
//! * **batched** — one lane per allocation of the full 15-allocation ways
//!   grid at one frequency (ns per instruction·grid-point), and
//! * **fused** — the database build's 30-lane mixed-frequency plan, versus
//!   the two single-frequency ways passes it replaced.
//!
//! Run with `cargo bench -p triad-bench --bench timing_model`; set
//! `TRIAD_BENCH_BUDGET_MS` to shrink the measurement window (CI smoke).

use std::hint::black_box;
use std::time::Duration;
use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::classify_warm;
use triad_phasedb::{DbConfig, W_MAX, W_MIN};
use triad_uarch::{LaneSpec, TimingConfig, TimingEngine};
use triad_util::bench::{bench, budget_from_env, speedup_gate};

/// PR 4 baseline (reference dev box, 2026-07-28, release build): the
/// pre-engine scalar inner loop retired ~35 ns/instruction — and paid that
/// for *each* of the 15 way allocations of a grid sweep.
const PR4_BASELINE_NS_PER_INST: f64 = 35.0;

/// Recorded with the lockstep engine (same box, 2026-07-28): scalar
/// single-allocation cost. Not asserted tightly — hardware varies — but a
/// >50× regression fails.
const SCALAR_BASELINE_NS_PER_INST: f64 = 30.0;

/// Recorded with the lockstep engine (same box, 2026-07-28): batched cost
/// per instruction·grid-point over the 15-way sweep — ~3× under the PR 4
/// per-allocation number because the trace, its classification codes and
/// the dependence decode are touched once instead of 15×.
const BATCHED_BASELINE_NS_PER_GRID_INST: f64 = 10.5;

/// Recorded with the fused mixed-frequency engine (same box, 2026-08-07):
/// the 30-lane pass costs ~11.5 ns/(inst·lane) on the memory-bound
/// archetype (nothing dedups) and ~1.3 ns/(inst·lane) on the streaming
/// archetype (way-equivalent lanes collapse to one representative).
const FUSED_BASELINE_NS_PER_LANE_INST: f64 = 11.5;

fn main() {
    let cfg = DbConfig::default_config();
    let geom = CacheGeometry::table1_scaled(4, cfg.scale);
    let budget = budget_from_env(Duration::from_secs(2));
    let nw = (W_MIN..=W_MAX).count() as f64;

    let mut worst_scalar = 0.0f64;
    let mut worst_batched = 0.0f64;
    let mut worst_fused = 0.0f64;
    let mut worst_ratio = f64::INFINITY;
    let mut engine = TimingEngine::new();
    for name in ["mcf", "povray"] {
        let app = triad_trace::by_name(name).unwrap();
        let phase = app.phases[0].scaled(cfg.scale as u64);
        let trace = phase.generate(cfg.warmup + cfg.detail, cfg.seed);
        let ct = classify_warm(&trace, &geom, cfg.warmup);
        let detailed = &trace.insts[cfg.warmup..];
        let n = detailed.len() as f64;

        // The paper's baseline operating point: medium core, 2 GHz, 8 ways.
        let tc = TimingConfig::table1(CoreSize::M, 2.0e9, 8);
        let scalar_lane = [LaneSpec::new(tc.ways, tc.freq_hz)];
        let m = bench(
            &format!("timing_model/scalar_{name}"),
            Some(detailed.len() as u64),
            budget,
            || {
                black_box(engine.simulate_lanes(detailed, &ct, &tc, &scalar_lane, &mut []));
            },
        );
        let scalar_ns = m.secs_per_iter * 1e9 / n;

        // The grid-sweep unit: all 15 allocations in one lockstep pass.
        let ways_at = |freq| (W_MIN..=W_MAX).map(|w| LaneSpec::new(w, freq)).collect::<Vec<_>>();
        let ways_lanes = ways_at(tc.freq_hz);
        let m = bench(
            &format!("timing_model/batched_ways_{name}"),
            Some((n * nw) as u64),
            budget,
            || {
                black_box(engine.simulate_lanes(detailed, &ct, &tc, &ways_lanes, &mut []));
            },
        );
        let batched_ns = m.secs_per_iter * 1e9 / (n * nw);
        let ratio = scalar_ns / batched_ns;
        println!(
            "timing_model/{name:<10} scalar {scalar_ns:>6.1} ns/inst   batched {batched_ns:>6.1} \
             ns/(inst*way)   lockstep speedup {ratio:>5.2}x"
        );

        // The db build's fused unit: both fit frequencies as one 30-lane
        // pass, against the two single-frequency passes it replaced.
        let lanes: Vec<LaneSpec> = (W_MIN..=W_MAX)
            .flat_map(|w| [LaneSpec::new(w, cfg.fit_lo_hz), LaneSpec::new(w, cfg.fit_hi_hz)])
            .collect();
        let lane_cfg = TimingConfig::table1(CoreSize::M, cfg.fit_lo_hz, W_MIN);
        let (lo_lanes, hi_lanes) = (ways_at(cfg.fit_lo_hz), ways_at(cfg.fit_hi_hz));
        let two_pass = bench(
            &format!("timing_model/two_pass_2f_{name}"),
            Some((n * nw * 2.0) as u64),
            budget,
            || {
                black_box(engine.simulate_lanes(detailed, &ct, &lane_cfg, &lo_lanes, &mut []));
                black_box(engine.simulate_lanes(detailed, &ct, &lane_cfg, &hi_lanes, &mut []));
            },
        );
        let fused = bench(
            &format!("timing_model/fused_2f_{name}"),
            Some((n * nw * 2.0) as u64),
            budget,
            || {
                black_box(engine.simulate_lanes(detailed, &ct, &lane_cfg, &lanes, &mut []));
            },
        );
        let fused_ns = fused.secs_per_iter * 1e9 / (n * nw * 2.0);
        let fused_ratio = two_pass.secs_per_iter / fused.secs_per_iter;
        println!(
            "timing_model/{name:<10} fused 30-lane {fused_ns:>6.1} ns/(inst*lane)   \
             fused-over-two-pass {fused_ratio:>5.2}x"
        );
        worst_scalar = worst_scalar.max(scalar_ns);
        worst_batched = worst_batched.max(batched_ns);
        worst_fused = worst_fused.max(fused_ns);
        worst_ratio = worst_ratio.min(ratio);
    }
    println!(
        "timing_model/baseline   PR4 {PR4_BASELINE_NS_PER_INST:.1} ns/inst per allocation -> \
         scalar {SCALAR_BASELINE_NS_PER_INST:.1} ns/inst + batched \
         {BATCHED_BASELINE_NS_PER_GRID_INST:.1} ns/(inst*way) (recorded 2026-07-28) -> \
         fused {FUSED_BASELINE_NS_PER_LANE_INST:.1} ns/(inst*lane) (recorded 2026-08-07)"
    );

    // Hard gates. The lockstep claim is machine-relative (both sides
    // measured in this process), so it holds on slow CI runners too —
    // short smoke budgets get a noise-tolerant threshold; the absolute
    // guards only catch catastrophic (>50x) regressions.
    let gate = speedup_gate(budget);
    assert!(
        worst_ratio >= gate,
        "lockstep batching must sweep the ways grid >={gate}x faster than scalar calls \
         (got {worst_ratio:.2}x)"
    );
    assert!(
        worst_scalar < SCALAR_BASELINE_NS_PER_INST * 50.0,
        "scalar inner loop regressed catastrophically: {worst_scalar:.1} ns/inst \
         vs recorded {SCALAR_BASELINE_NS_PER_INST:.1}"
    );
    assert!(
        worst_batched < BATCHED_BASELINE_NS_PER_GRID_INST * 50.0,
        "batched inner loop regressed catastrophically: {worst_batched:.1} ns/(inst*way) \
         vs recorded {BATCHED_BASELINE_NS_PER_GRID_INST:.1}"
    );
    assert!(
        worst_fused < FUSED_BASELINE_NS_PER_LANE_INST * 50.0,
        "fused mixed-frequency pass regressed catastrophically: {worst_fused:.1} ns/(inst*lane) \
         vs recorded {FUSED_BASELINE_NS_PER_LANE_INST:.1}"
    );
}
