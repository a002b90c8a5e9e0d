//! End-to-end phase-database build cost — the grid sweep `build_phase`
//! pays per phase, tracked separately from the single-interval
//! `timing_model` unit so the db-build trajectory has its own baseline.
//!
//! Measurements per phase archetype:
//!
//! * `build_phase` — the real thing: streaming generate-and-classify plus
//!   the single-decode 30-lane lockstep grid (3 trace passes per phase);
//! * `two_pass_build` — the PR 5 pipeline shape: materialize the trace,
//!   classify it in a second pass, sweep it again for the load-only miss
//!   histogram, then run the grid as 6 lockstep passes (a monitored
//!   lo-frequency sweep plus an unmonitored hi-frequency sweep per core);
//! * `legacy_grid` — the PR 4 formulation of the simulation part: one
//!   independent engine call per (core, frequency, allocation) grid point;
//! * `batched_grid` — that grid as the PR 5 6-pass lockstep shape;
//! * `fused_grid` — the same grid as 3 mixed-frequency 30-lane passes.
//!
//! Both asserted speedups are machine-relative (numerator and denominator
//! measured in this process, so they hold on slow CI runners): the
//! legacy/batched lockstep ratio, and the two-pass-vs-fused pipeline
//! ratio, which is the PR 6 acceptance gate. The absolute constants only
//! guard against catastrophic regressions. Run with
//! `cargo bench -p triad-bench --bench db_build`; set
//! `TRIAD_BENCH_BUDGET_MS` to shrink the window (CI smoke).

use std::hint::black_box;
use std::time::Duration;
use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::{classify_warm, MlpMonitor};
use triad_phasedb::{build_phase, DbConfig, NC, NW, W_MAX, W_MIN};
use triad_trace::InstKind;
use triad_uarch::{LaneSpec, TimingConfig, TimingEngine};
use triad_util::bench::{bench, budget_from_env, speedup_gate};

/// Recorded on the reference dev box (2026-08-07, release build) with the
/// fused pipeline: `build_phase` end-to-end cost per grid-point
/// instruction for the fast (32K-instruction-detail) configuration. The
/// PR 4 code paid ~44 ns here, the PR 5 code ~18 ns (0.482 s / 0.23 s cold
/// for the 3-app fast subset in `db_store`, now ~0.135 s). Only a >50×
/// regression fails.
const BUILD_BASELINE_NS_PER_GRID_INST: f64 = 10.0;

/// The fused pipeline must beat the PR 5 two-pass pipeline by this factor
/// on the **aggregate** of the three phase archetypes (in-process
/// comparison, summed build times). The gate is aggregate because the win
/// is workload-shaped: way-equivalent lanes collapse to one simulated
/// representative, which cuts the streaming archetype (all allocations
/// miss — 30 lanes, 2 survivors) by an order of magnitude but leaves the
/// memory-bound archetype (every stack distance occurs, nothing merges)
/// with only the shared-decode and front-end savings (~1.1×) — exactly the
/// mix the cold `db_store` path pays. 1.5 leaves headroom for noisy
/// runners; the reference box measures ~2×.
const FUSED_GATE: f64 = 1.5;

/// The closed-form DRAM fast path (SoA lane block + packed class cells)
/// must beat the scalar per-lane `DramQueue` walk by this factor on the
/// memory-bound archetype (`mcf`), where every detailed instruction
/// window is dominated by DRAM-classified loads and nothing dedups away.
/// In-process comparison: the same engine runs the same fused 30-lane
/// grid with `disable_dram_fast_path` flipped, so the ratio is
/// machine-relative and holds on slow CI runners.
const DRAM_FAST_PATH_GATE: f64 = 1.2;

fn main() {
    let cfg = DbConfig::fast();
    let geom = CacheGeometry::table1_scaled(4, cfg.scale);
    let budget = budget_from_env(Duration::from_secs(2));
    let grid_points = (2 * NC * NW) as f64; // 2 fit frequencies x 3 cores x 15 ways
    let grid_insts = grid_points * cfg.detail as f64;
    let lanes: Vec<LaneSpec> = (W_MIN..=W_MAX)
        .flat_map(|w| {
            [
                LaneSpec { ways: w, freq_hz: cfg.fit_lo_hz, monitor: true },
                LaneSpec::new(w, cfg.fit_hi_hz),
            ]
        })
        .collect();
    // The 6-pass shape's two sweeps per core: monitored at the low fit
    // frequency, unmonitored at the high one.
    let lo_lanes: Vec<LaneSpec> = (W_MIN..=W_MAX)
        .map(|w| LaneSpec { ways: w, freq_hz: cfg.fit_lo_hz, monitor: true })
        .collect();
    let hi_lanes: Vec<LaneSpec> =
        (W_MIN..=W_MAX).map(|w| LaneSpec::new(w, cfg.fit_hi_hz)).collect();

    let mut worst_build = 0.0f64;
    let mut worst_grid_ratio = f64::INFINITY;
    let mut mcf_dram_ratio = 0.0f64;
    let mut mcf_spec = None;
    let mut mcf_build_secs = 0.0f64;
    let mut fused_total = 0.0f64;
    let mut two_pass_total = 0.0f64;
    for name in ["mcf", "libquantum", "povray"] {
        let app = triad_trace::by_name(name).unwrap();
        let spec = app.phases[0].clone();

        // (1) The real build_phase, end to end.
        let m = bench(&format!("db_build/build_phase_{name}"), None, budget, || {
            black_box(build_phase(&spec, &cfg));
        });
        let build_ns = m.secs_per_iter * 1e9 / grid_insts;
        println!(
            "db_build/build_phase_{name:<18} {:>8.2} ms/phase  {build_ns:>6.1} ns/(grid-point inst)",
            m.secs_per_iter * 1e3
        );
        worst_build = worst_build.max(build_ns);

        // (2) The PR 5 pipeline shape, end to end: materialized trace,
        // second classification pass, third sweep for the load-only miss
        // histogram, 6-pass lockstep grid.
        let scaled = spec.scaled(cfg.scale as u64);
        let mut engine = TimingEngine::new();
        // The PR 5 engine had no way-equivalence lane deduplication and
        // walked a scalar per-lane `DramQueue`; turn both off so the
        // comparator measures that engine, not today's.
        engine.disable_lane_dedup(true);
        engine.disable_dram_fast_path(true);
        let two_pass = bench(&format!("db_build/two_pass_build_{name}"), None, budget, || {
            let trace = scaled.generate(cfg.warmup + cfg.detail, cfg.seed);
            let ct = classify_warm(&trace, &geom, cfg.warmup);
            let detailed = &trace.insts[cfg.warmup..];
            let mut load_hist = vec![0u64; geom.max_ways_per_core + 1];
            for (i, inst) in detailed.iter().enumerate() {
                if inst.kind == InstKind::Load && ct.is_llc_access(i) {
                    let code = ct.code(i);
                    let slot = if code <= 15 { code as usize } else { geom.max_ways_per_core };
                    load_hist[slot] += 1;
                }
            }
            black_box(load_hist);
            for c in CoreSize::ALL {
                let mut mons: Vec<MlpMonitor> =
                    (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
                let lo_cfg = TimingConfig::table1(c, cfg.fit_lo_hz, W_MIN);
                black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &lo_lanes, &mut mons));
                black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &hi_lanes, &mut []));
            }
        });
        let fused_ratio = two_pass.secs_per_iter / m.secs_per_iter;
        println!("db_build/pipeline_speedup_{name:<13} {fused_ratio:>8.2}x fused over two-pass");
        fused_total += m.secs_per_iter;
        two_pass_total += two_pass.secs_per_iter;

        // (3)–(5): the simulation grid alone — legacy per-point calls,
        // the 6-pass lockstep shape, and the fused 30-lane shape — over
        // the identical classified trace.
        let trace = scaled.generate(cfg.warmup + cfg.detail, cfg.seed);
        let ct = classify_warm(&trace, &geom, cfg.warmup);
        let detailed = &trace.insts[cfg.warmup..];

        let legacy = bench(&format!("db_build/legacy_grid_{name}"), None, budget, || {
            for c in CoreSize::ALL {
                for (lo, hi) in lo_lanes.iter().zip(&hi_lanes) {
                    let mut mon = MlpMonitor::table1();
                    let lo_cfg = TimingConfig::table1(c, lo.freq_hz, lo.ways);
                    let hi_cfg = TimingConfig::table1(c, hi.freq_hz, hi.ways);
                    let mon = std::slice::from_mut(&mut mon);
                    black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &[*lo], mon));
                    black_box(engine.simulate_lanes(detailed, &ct, &hi_cfg, &[*hi], &mut []));
                }
            }
        });
        let batched = bench(&format!("db_build/batched_grid_{name}"), None, budget, || {
            for c in CoreSize::ALL {
                let mut mons: Vec<MlpMonitor> =
                    (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
                let lo_cfg = TimingConfig::table1(c, cfg.fit_lo_hz, W_MIN);
                black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &lo_lanes, &mut mons));
                black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &hi_lanes, &mut []));
            }
        });
        engine.disable_lane_dedup(false);
        engine.disable_dram_fast_path(false);
        // The fused-vs-scalar-DRAM comparison gates a ~1.3-1.6x effect, so
        // its two windows get a floor: at the 250 ms smoke budget a ~23 ms
        // iteration yields only ~10 samples and background-load spikes on a
        // shared runner can push the measured ratio across the 1.2x gate.
        // ~750 ms per side stabilizes it without loosening the gate.
        let ab_budget = budget.max(Duration::from_millis(750));
        let fused = bench(&format!("db_build/fused_grid_{name}"), None, ab_budget, || {
            for c in CoreSize::ALL {
                let mut mons: Vec<MlpMonitor> =
                    (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
                let lo_cfg = TimingConfig::table1(c, cfg.fit_lo_hz, W_MIN);
                black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &lanes, &mut mons));
            }
        });

        // (6) The identical fused 30-lane grid with only the closed-form
        // DRAM fast path disabled — lane dedup stays on, so the ratio
        // isolates the PR 8 inner-loop change (SoA lane block + packed
        // class cells vs the scalar `DramQueue` walk and class ring).
        engine.disable_dram_fast_path(true);
        let scalar_dram =
            bench(&format!("db_build/scalar_dram_grid_{name}"), None, ab_budget, || {
                for c in CoreSize::ALL {
                    let mut mons: Vec<MlpMonitor> =
                        (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
                    let lo_cfg = TimingConfig::table1(c, cfg.fit_lo_hz, W_MIN);
                    black_box(engine.simulate_lanes(detailed, &ct, &lo_cfg, &lanes, &mut mons));
                }
            });
        engine.disable_dram_fast_path(false);
        let dram_ratio = scalar_dram.secs_per_iter / fused.secs_per_iter;
        let ratio = legacy.secs_per_iter / batched.secs_per_iter;
        let grid_fused = batched.secs_per_iter / fused.secs_per_iter;
        println!(
            "db_build/grid_speedup_{name:<17} {ratio:>8.2}x lockstep over legacy, \
             {grid_fused:>5.2}x fused over 6-pass, {dram_ratio:>5.2}x fast DRAM over scalar"
        );
        worst_grid_ratio = worst_grid_ratio.min(ratio);
        if name == "mcf" {
            mcf_dram_ratio = dram_ratio;
            mcf_spec = Some(spec.clone());
            mcf_build_secs = m.secs_per_iter;
        }
    }
    println!(
        "db_build/baseline                        {BUILD_BASELINE_NS_PER_GRID_INST:>8.1} \
         ns/(grid-point inst) (recorded 2026-08-07; PR 5: ~18, PR 4: ~44)"
    );

    let gate = speedup_gate(budget);
    assert!(
        worst_grid_ratio >= gate,
        "the lockstep grid must be >={gate}x faster than per-grid-point calls \
         (got {worst_grid_ratio:.2}x)"
    );
    let agg_ratio = two_pass_total / fused_total;
    println!(
        "db_build/pipeline_speedup_aggregate      {agg_ratio:>8.2}x fused over two-pass \
         (3 archetypes)"
    );
    assert!(
        agg_ratio >= FUSED_GATE,
        "the fused single-decode build must be >={FUSED_GATE}x faster than the \
         two-pass pipeline on the archetype aggregate (got {agg_ratio:.2}x)"
    );
    assert!(
        mcf_dram_ratio >= DRAM_FAST_PATH_GATE,
        "the closed-form DRAM fast path must be >={DRAM_FAST_PATH_GATE}x faster than the \
         scalar DramQueue walk on the memory-bound archetype (got {mcf_dram_ratio:.2}x)"
    );
    assert!(
        worst_build < BUILD_BASELINE_NS_PER_GRID_INST * 50.0,
        "build_phase regressed catastrophically: {worst_build:.1} ns/(grid-point inst) \
         vs recorded {BUILD_BASELINE_NS_PER_GRID_INST:.1}"
    );

    // ---- PR 9 gate: disabled telemetry costs ≤1% of a build_phase ----
    // Count the record operations one instrumented build executes (enable
    // metrics, build once, read `record_ops`), price what those same call
    // sites cost when telemetry is disabled (one relaxed load + branch
    // each, measured in a tight loop), and bound the product against the
    // build time measured above. Both sides are in-process, so the gate
    // holds on slow runners.
    static PROBE: triad_telemetry::Counter = triad_telemetry::Counter::new("db_build.probe");
    triad_telemetry::enable(triad_telemetry::METRICS);
    triad_telemetry::reset();
    black_box(build_phase(&mcf_spec.expect("mcf measured above"), &cfg));
    let ops = triad_telemetry::snapshot().record_ops;
    triad_telemetry::disable_all();
    triad_telemetry::reset();
    let probe_iters = 20_000_000u64;
    let t0 = std::time::Instant::now();
    for _ in 0..probe_iters {
        PROBE.add(black_box(1));
    }
    let disabled_ns = t0.elapsed().as_secs_f64() / probe_iters as f64 * 1e9;
    let overhead = ops as f64 * disabled_ns * 1e-9;
    let frac = overhead / mcf_build_secs;
    println!(
        "db_build/telemetry_disabled_overhead     {ops} record ops x {disabled_ns:.2} ns \
         = {:.6}% of build_phase (gate 1%)",
        frac * 100.0
    );
    assert!(
        frac <= 0.01,
        "disabled telemetry must cost ≤1% of build_phase: {ops} record ops x \
         {disabled_ns:.2} ns disabled call = {:.4}% of {:.1} ms",
        frac * 100.0,
        mcf_build_secs * 1e3
    );

    // ---- PR 10 gate: disarmed failpoints cost ≤1% of a build_phase ----
    // With no site configured, `FailPoint::fire()` is one relaxed atomic
    // load and a branch. Price that disarmed cost in a tight loop and
    // bound 1000 crossings — two orders of magnitude more than the real
    // store seam (db_store.load / persist.write / persist.rename: ≤3 per
    // artifact resolve, amortized over every phase) — against one build.
    static PROBE_FP: triad_util::failpoint::FailPoint =
        triad_util::failpoint::FailPoint::new("db_build.probe");
    triad_util::failpoint::clear_all();
    let t0 = std::time::Instant::now();
    for _ in 0..probe_iters {
        black_box(PROBE_FP.fire());
    }
    let disarmed_ns = t0.elapsed().as_secs_f64() / probe_iters as f64 * 1e9;
    let fp_crossings = 1_000.0;
    let fp_frac = fp_crossings * disarmed_ns * 1e-9 / mcf_build_secs;
    println!(
        "db_build/failpoint_disarmed_overhead     {fp_crossings:.0} crossings x \
         {disarmed_ns:.2} ns = {:.6}% of build_phase (gate 1%)",
        fp_frac * 100.0
    );
    assert!(
        fp_frac <= 0.01,
        "disarmed failpoints must cost ≤1% of build_phase: {fp_crossings:.0} crossings x \
         {disarmed_ns:.2} ns = {:.4}% of {:.1} ms",
        fp_frac * 100.0,
        mcf_build_secs * 1e3
    );
}
