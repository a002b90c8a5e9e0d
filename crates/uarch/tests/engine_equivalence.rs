//! Engine-equivalence property tests: a multi-lane
//! [`TimingEngine::simulate_lanes`] pass must be **bit-identical** to the
//! single-lane [`simulate`] helper for every lane — over randomized phases,
//! all core sizes, both database fit frequencies, with and without the MLP
//! monitor attached — plus the contract asserts of that entry point.

use std::ops::RangeInclusive;

use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::{classify_warm, ClassifiedTrace, MlpMonitor};
use triad_trace::{AccessPattern, Inst, MemRegion, PhaseSpec};
use triad_uarch::{simulate, LaneSpec, TimingConfig, TimingEngine, TimingResult};
use triad_util::rand::rngs::StdRng;
use triad_util::rand::{RngExt, SeedableRng};

const W_MIN: usize = 2;
const W_MAX: usize = 16;

/// Bitwise equality of two results (f64s compared by bit pattern, so this
/// is stricter than `PartialEq` — byte-identical artifacts require it).
fn assert_bits_eq(a: &TimingResult, b: &TimingResult, ctx: &str) {
    let ints =
        |r: &TimingResult| (r.insts, r.cycles, r.dram_loads, r.dram_stores, r.true_leading_misses);
    let floats = |r: &TimingResult| {
        [r.time_s, r.t0_s, r.t_branch_s, r.t_cache_s, r.tmem_s, r.mlp, r.ipc, r.util]
            .map(f64::to_bits)
    };
    assert_eq!(ints(a), ints(b), "{ctx}: counter mismatch");
    assert_eq!(floats(a), floats(b), "{ctx}: float bit-pattern mismatch");
}

/// One lane per allocation in `ways`, all at `freq_hz`.
fn way_lanes(ways: RangeInclusive<usize>, freq_hz: f64, monitor: bool) -> Vec<LaneSpec> {
    ways.map(|w| LaneSpec { ways: w, freq_hz, monitor }).collect()
}

/// An unmonitored `ways` sweep at the Table I latencies for `(core, freq)`
/// in one lockstep pass.
fn sweep(
    engine: &mut TimingEngine,
    trace: &[Inst],
    ct: &ClassifiedTrace,
    core: CoreSize,
    freq: f64,
    ways: RangeInclusive<usize>,
) -> Vec<TimingResult> {
    let cfg = TimingConfig::table1(core, freq, *ways.start());
    engine.simulate_lanes(trace, ct, &cfg, &way_lanes(ways, freq, false), &mut [])
}

fn random_spec(rng: &mut StdRng) -> (PhaseSpec, u64) {
    let r = |rng: &mut StdRng, lo: f64, hi: f64| lo + rng.random::<f64>() * (hi - lo);
    let spec = PhaseSpec {
        tag: 4,
        load_frac: r(rng, 0.05, 0.35),
        store_frac: r(rng, 0.0, 0.12),
        branch_frac: r(rng, 0.0, 0.2),
        longop_frac: r(rng, 0.0, 0.25),
        mispredict_rate: r(rng, 0.0, 0.08),
        dep_mean: r(rng, 2.0, 14.0),
        dep2_prob: 0.3,
        chase_frac: r(rng, 0.0, 0.9),
        burst: r(rng, 1.0, 24.0),
        addr_dep: r(rng, 0.0, 1.0),
        regions: vec![
            MemRegion::reuse_kib(8, 0.5),
            MemRegion::reuse_kib(rng.random_range(32u64..256), 0.3),
            MemRegion {
                blocks: rng.random_range(16u64..1 << 20),
                weight: 0.2,
                pattern: AccessPattern::Uniform,
            },
        ],
    };
    (spec, rng.random::<u64>())
}

/// Batched lockstep vs single-lane calls, no monitor: every
/// lane's `TimingResult` is bit-identical, across randomized phases, all
/// core sizes and both fit frequencies.
#[test]
fn batched_matches_legacy_single_config() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut engine = TimingEngine::new();
    for trial in 0..6 {
        let (spec, seed) = random_spec(&mut rng);
        let t = spec.generate(12_000, seed);
        let ct = classify_warm(&t, &geom, 4_000);
        let detailed = &t.insts[4_000..];
        for c in CoreSize::ALL {
            for freq in [1.0e9, 3.25e9] {
                let batched = sweep(&mut engine, detailed, &ct, c, freq, W_MIN..=W_MAX);
                assert_eq!(batched.len(), W_MAX - W_MIN + 1);
                for (k, w) in (W_MIN..=W_MAX).enumerate() {
                    let legacy = simulate(detailed, &ct, &TimingConfig::table1(c, freq, w), None);
                    assert_bits_eq(
                        &batched[k],
                        &legacy,
                        &format!("trial {trial} {c} f={freq:.2e} w={w}"),
                    );
                }
            }
        }
    }
}

/// With monitors attached: lane `k`'s monitor must end in exactly the
/// state a standalone monitored `simulate` at that allocation leaves —
/// compared over every (core size, way) counter the monitor tracks.
#[test]
fn batched_monitors_match_legacy_monitors() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let mut rng = StdRng::seed_from_u64(0x0A17);
    let mut engine = TimingEngine::new();
    for trial in 0..3 {
        let (spec, seed) = random_spec(&mut rng);
        let t = spec.generate(12_000, seed);
        let ct = classify_warm(&t, &geom, 4_000);
        let detailed = &t.insts[4_000..];
        for c in CoreSize::ALL {
            let mut mons: Vec<MlpMonitor> = (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
            let cfg = TimingConfig::table1(c, 1.0e9, W_MIN);
            let lanes = way_lanes(W_MIN..=W_MAX, 1.0e9, true);
            let batched = engine.simulate_lanes(detailed, &ct, &cfg, &lanes, &mut mons);
            for (k, w) in (W_MIN..=W_MAX).enumerate() {
                let mut legacy_mon = MlpMonitor::table1();
                let legacy = simulate(
                    detailed,
                    &ct,
                    &TimingConfig::table1(c, 1.0e9, w),
                    Some(&mut legacy_mon),
                );
                assert_bits_eq(&batched[k], &legacy, &format!("trial {trial} {c} w={w}"));
                for tc in CoreSize::ALL {
                    for tw in W_MIN..=W_MAX {
                        assert_eq!(
                            mons[k].lm_count(tc, tw),
                            legacy_mon.lm_count(tc, tw),
                            "trial {trial} {c} w={w}: lm({tc},{tw})"
                        );
                        assert_eq!(
                            mons[k].ov_count(tc, tw),
                            legacy_mon.ov_count(tc, tw),
                            "trial {trial} {c} w={w}: ov({tc},{tw})"
                        );
                    }
                }
            }
        }
    }
}

/// The phase-database build's actual lane plan — one fused pass over 30
/// mixed-frequency lanes (both fit frequencies interleaved per way) —
/// must match the two-pass formulation it replaced (a monitored
/// lo-frequency sweep plus an unmonitored hi-frequency sweep)
/// bit-for-bit, monitors included.
#[test]
fn fused_mixed_frequency_lanes_match_two_pass() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let (lo, hi) = (1.0e9, 3.25e9);
    let mut rng = StdRng::seed_from_u64(0xF0_5ED);
    let mut fused_engine = TimingEngine::new();
    let mut two_pass_engine = TimingEngine::new();
    let lanes: Vec<LaneSpec> = (W_MIN..=W_MAX)
        .flat_map(|w| [LaneSpec { ways: w, freq_hz: lo, monitor: true }, LaneSpec::new(w, hi)])
        .collect();
    for trial in 0..3 {
        let (spec, seed) = random_spec(&mut rng);
        let t = spec.generate(12_000, seed);
        let ct = classify_warm(&t, &geom, 4_000);
        let detailed = &t.insts[4_000..];
        for c in CoreSize::ALL {
            let cfg = TimingConfig::table1(c, lo, W_MIN);
            let mut fused_mons: Vec<MlpMonitor> =
                (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
            let fused = fused_engine.simulate_lanes(detailed, &ct, &cfg, &lanes, &mut fused_mons);

            let mut tp_mons: Vec<MlpMonitor> =
                (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect();
            let lo_lanes = way_lanes(W_MIN..=W_MAX, lo, true);
            let pass_lo =
                two_pass_engine.simulate_lanes(detailed, &ct, &cfg, &lo_lanes, &mut tp_mons);
            let pass_hi = sweep(&mut two_pass_engine, detailed, &ct, c, hi, W_MIN..=W_MAX);

            for (k, w) in (W_MIN..=W_MAX).enumerate() {
                let ctx = format!("trial {trial} {c} w={w}");
                assert_bits_eq(&fused[2 * k], &pass_lo[k], &format!("{ctx} lo"));
                assert_bits_eq(&fused[2 * k + 1], &pass_hi[k], &format!("{ctx} hi"));
                for tc in CoreSize::ALL {
                    for tw in W_MIN..=W_MAX {
                        assert_eq!(
                            fused_mons[k].lm_count(tc, tw),
                            tp_mons[k].lm_count(tc, tw),
                            "{ctx}: lm({tc},{tw})"
                        );
                        assert_eq!(
                            fused_mons[k].ov_count(tc, tw),
                            tp_mons[k].ov_count(tc, tw),
                            "{ctx}: ov({tc},{tw})"
                        );
                    }
                }
            }
        }
    }
}

/// Way-equivalence lane deduplication at its extremes: a pure streaming
/// phase (every LLC access misses at every allocation — all ways collapse
/// within a frequency) and a cache-resident phase (no DRAM traffic at all
/// — every lane collapses to one representative). Cloned lanes must still
/// reproduce the standalone model bit-for-bit.
#[test]
fn dedup_extremes_match_legacy() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let base = random_spec(&mut StdRng::seed_from_u64(0xDE_D0)).0;
    let streaming = PhaseSpec { regions: vec![MemRegion::stream_mib(64, 1.0)], ..base.clone() };
    let resident = PhaseSpec { regions: vec![MemRegion::reuse_kib(8, 1.0)], ..base };
    let mut engine = TimingEngine::new();
    let mut undeduped = TimingEngine::new();
    undeduped.disable_lane_dedup(true);
    for (label, spec) in [("streaming", &streaming), ("resident", &resident)] {
        let t = spec.generate(12_000, 0x5EED);
        let ct = classify_warm(&t, &geom, 4_000);
        let detailed = &t.insts[4_000..];
        for c in [CoreSize::S, CoreSize::L] {
            for freq in [1.0e9, 3.25e9] {
                let batched = sweep(&mut engine, detailed, &ct, c, freq, W_MIN..=W_MAX);
                let brute = sweep(&mut undeduped, detailed, &ct, c, freq, W_MIN..=W_MAX);
                for (k, w) in (W_MIN..=W_MAX).enumerate() {
                    let legacy = simulate(detailed, &ct, &TimingConfig::table1(c, freq, w), None);
                    assert_bits_eq(
                        &batched[k],
                        &legacy,
                        &format!("{label} {c} f={freq:.2e} w={w}"),
                    );
                    assert_bits_eq(
                        &batched[k],
                        &brute[k],
                        &format!("{label} {c} f={freq:.2e} w={w} dedup-vs-brute"),
                    );
                }
            }
        }
    }
}

/// The closed-form DRAM fast path (SoA lane block + packed ring cells)
/// against the scalar-queue compatibility loop, across the DRAM regimes
/// that exercise both arms of the closed form: a streaming phase
/// (channel saturated — completions ride the arithmetic progression), a
/// cache-resident phase (unsaturated — the queue never backs up), and
/// randomized mixed phases. Every lane's result and every monitor
/// counter must be bit-identical.
#[test]
fn dram_fast_path_matches_scalar_queue() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let mut rng = StdRng::seed_from_u64(0xD3A2);
    let base = random_spec(&mut rng).0;
    let saturated = PhaseSpec {
        load_frac: 0.45,
        chase_frac: 0.0,
        regions: vec![MemRegion::stream_mib(64, 1.0)],
        ..base.clone()
    };
    let unsaturated = PhaseSpec { regions: vec![MemRegion::reuse_kib(8, 1.0)], ..base.clone() };
    let mixed_a = random_spec(&mut rng).0;
    let mixed_b = random_spec(&mut rng).0;
    let (lo, hi) = (1.0e9, 3.25e9);
    let lanes: Vec<LaneSpec> = (W_MIN..=W_MAX)
        .flat_map(|w| [LaneSpec { ways: w, freq_hz: lo, monitor: true }, LaneSpec::new(w, hi)])
        .collect();
    let mut fast = TimingEngine::new();
    let mut scalar = TimingEngine::new();
    scalar.disable_dram_fast_path(true);
    for (label, spec) in [
        ("saturated", &saturated),
        ("unsaturated", &unsaturated),
        ("mixed_a", &mixed_a),
        ("mixed_b", &mixed_b),
    ] {
        let t = spec.generate(12_000, 0xFA57);
        let ct = classify_warm(&t, &geom, 4_000);
        let detailed = &t.insts[4_000..];
        for c in CoreSize::ALL {
            let cfg = TimingConfig::table1(c, lo, W_MIN);
            let nmon = W_MAX - W_MIN + 1;
            let mut fast_mons: Vec<MlpMonitor> = (0..nmon).map(|_| MlpMonitor::table1()).collect();
            let mut scal_mons: Vec<MlpMonitor> = (0..nmon).map(|_| MlpMonitor::table1()).collect();
            let a = fast.simulate_lanes(detailed, &ct, &cfg, &lanes, &mut fast_mons);
            let b = scalar.simulate_lanes(detailed, &ct, &cfg, &lanes, &mut scal_mons);
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_bits_eq(x, y, &format!("{label} {c} lane {k} fast-vs-scalar"));
            }
            for (k, (fm, sm)) in fast_mons.iter().zip(&scal_mons).enumerate() {
                for tc in CoreSize::ALL {
                    for tw in W_MIN..=W_MAX {
                        assert_eq!(
                            fm.lm_count(tc, tw),
                            sm.lm_count(tc, tw),
                            "{label} {c} mon {k}: lm({tc},{tw})"
                        );
                        assert_eq!(
                            fm.ov_count(tc, tw),
                            sm.ov_count(tc, tw),
                            "{label} {c} mon {k}: ov({tc},{tw})"
                        );
                    }
                }
            }
        }
    }
}

/// The narrow (u32-cell) and wide (u64-cell) ring representations are the
/// same algorithm at different storage widths: forcing the wide path on a
/// trace that fits narrow cells must change nothing.
#[test]
fn wide_cells_match_narrow_cells() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let mut rng = StdRng::seed_from_u64(0x3264);
    let (spec, seed) = random_spec(&mut rng);
    let t = spec.generate(12_000, seed);
    let ct = classify_warm(&t, &geom, 4_000);
    let detailed = &t.insts[4_000..];
    let mut narrow = TimingEngine::new();
    let mut wide = TimingEngine::new();
    wide.force_wide_cycles(true);
    for c in CoreSize::ALL {
        for freq in [1.0e9, 3.25e9] {
            let a = sweep(&mut narrow, detailed, &ct, c, freq, W_MIN..=W_MAX);
            let b = sweep(&mut wide, detailed, &ct, c, freq, W_MIN..=W_MAX);
            for (x, y) in a.iter().zip(&b) {
                assert_bits_eq(x, y, &format!("{c} f={freq:.2e} narrow-vs-wide"));
            }
        }
    }
}

/// Scratch reuse must not leak state between calls: interleaving
/// different traces, cores and frequencies through one engine gives the
/// same results as fresh engines.
#[test]
fn engine_reuse_is_stateless_across_calls() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let (spec_a, seed_a) = random_spec(&mut rng);
    let (spec_b, seed_b) = random_spec(&mut rng);
    let ta = spec_a.generate(9_000, seed_a);
    let tb = spec_b.generate(5_000, seed_b);
    let cta = classify_warm(&ta, &geom, 3_000);
    let ctb = classify_warm(&tb, &geom, 1_000);
    let da = &ta.insts[3_000..];
    let db = &tb.insts[1_000..];

    let mut shared = TimingEngine::new();
    // Big core first so later smaller-ROB calls run inside stale scratch.
    let first = sweep(&mut shared, da, &cta, CoreSize::L, 3.25e9, W_MIN..=W_MAX);
    let b_scalar = sweep(&mut shared, db, &ctb, CoreSize::S, 2.0e9, 5..=5)[0];
    let again = sweep(&mut shared, da, &cta, CoreSize::L, 3.25e9, W_MIN..=W_MAX);
    for (x, y) in first.iter().zip(&again) {
        assert_bits_eq(x, y, "repeat batched call");
    }
    let fresh = simulate(db, &ctb, &TimingConfig::table1(CoreSize::S, 2.0e9, 5), None);
    assert_bits_eq(&b_scalar, &fresh, "scalar after batched");
    // Partial way ranges agree with the full sweep's matching lanes.
    let sub = sweep(&mut shared, da, &cta, CoreSize::L, 3.25e9, 6..=9);
    for (k, w) in (6..=9).enumerate() {
        assert_bits_eq(&sub[k], &first[w - W_MIN], "partial range lane");
    }
}

/// The entry point's lane-plan contract: `monitors` must hold exactly one
/// monitor per `monitor == true` lane.
#[test]
#[should_panic(expected = "one monitor per monitored lane")]
fn monitor_count_must_match_monitored_lanes() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let (spec, seed) = random_spec(&mut StdRng::seed_from_u64(0xC0_47));
    let t = spec.generate(2_000, seed);
    let ct = classify_warm(&t, &geom, 1_000);
    let cfg = TimingConfig::table1(CoreSize::M, 2.0e9, W_MIN);
    let lanes = way_lanes(W_MIN..=4, 2.0e9, true);
    let mut mons: Vec<MlpMonitor> = (1..lanes.len()).map(|_| MlpMonitor::table1()).collect();
    TimingEngine::new().simulate_lanes(&t.insts[1_000..], &ct, &cfg, &lanes, &mut mons);
}

/// The entry point's lane-plan contract: lanes ascend in allocation, which
/// the shared prefix-split decode relies on.
#[test]
#[should_panic(expected = "lane ways must be non-decreasing")]
fn lane_ways_must_be_non_decreasing() {
    let geom = CacheGeometry::table1_scaled(4, 16);
    let (spec, seed) = random_spec(&mut StdRng::seed_from_u64(0xC0_48));
    let t = spec.generate(2_000, seed);
    let ct = classify_warm(&t, &geom, 1_000);
    let cfg = TimingConfig::table1(CoreSize::M, 2.0e9, W_MIN);
    let lanes = [LaneSpec::new(8, 2.0e9), LaneSpec::new(4, 2.0e9)];
    TimingEngine::new().simulate_lanes(&t.insts[1_000..], &ct, &cfg, &lanes, &mut []);
}
