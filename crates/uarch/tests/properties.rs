//! Randomized property tests for the out-of-order timing model, driven by
//! the deterministic workspace PRNG.

use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::classify;
use triad_trace::{MemRegion, PhaseSpec};
use triad_uarch::{simulate, TimingConfig};
use triad_util::rand::rngs::StdRng;
use triad_util::rand::{RngExt, SeedableRng};

/// Sample a random-but-plausible phase spec, mirroring the former proptest
/// strategy's ranges.
fn random_spec(rng: &mut StdRng) -> (PhaseSpec, u64) {
    let r = |rng: &mut StdRng, lo: f64, hi: f64| lo + rng.random::<f64>() * (hi - lo);
    let spec = PhaseSpec {
        tag: 3,
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
            MemRegion::reuse_kib(8, 0.6),
            MemRegion {
                blocks: rng.random_range(16u64..4096),
                weight: 0.4,
                pattern: triad_trace::AccessPattern::Uniform,
            },
        ],
    };
    (spec, rng.random::<u64>())
}

/// Structural invariants that must hold for any workload: IPC within
/// the dispatch width, decomposition sums to total, more ways never
/// slower, larger cores never slower, lower frequency never faster.
#[test]
fn timing_model_invariants() {
    let mut rng = StdRng::seed_from_u64(0x7171);
    for trial in 0..24 {
        let (spec, seed) = random_spec(&mut rng);
        let geom = CacheGeometry::table1_scaled(4, 16);
        let t = spec.generate(8_000, seed);
        let ct = classify(&t, &geom);

        let mut prev_core_time = f64::INFINITY;
        for c in CoreSize::ALL {
            let r = simulate(&t.insts, &ct, &TimingConfig::table1(c, 2.0e9, 8), None);
            assert!(r.ipc <= c.dispatch_width() as f64 + 1e-9, "trial {trial} {c}");
            let sum = r.t0_s + r.t_branch_s + r.t_cache_s + r.tmem_s;
            assert!((sum - r.time_s).abs() < 1e-12, "trial {trial} {c}");
            assert!(r.true_leading_misses <= r.dram_loads, "trial {trial} {c}");
            assert!(r.mlp >= 1.0 - 1e-12, "trial {trial} {c}");
            // Bigger cores never slower (small tolerance for queueing noise).
            assert!(r.time_s <= prev_core_time * 1.02, "trial {trial} {c}");
            prev_core_time = r.time_s;
        }

        let mut prev_way_time = f64::INFINITY;
        for w in [2usize, 6, 10, 16] {
            let r = simulate(&t.insts, &ct, &TimingConfig::table1(CoreSize::M, 2.0e9, w), None);
            assert!(r.time_s <= prev_way_time * 1.001, "trial {trial} w={w}");
            prev_way_time = r.time_s;
        }

        let lo = simulate(&t.insts, &ct, &TimingConfig::table1(CoreSize::M, 1.0e9, 8), None);
        let hi = simulate(&t.insts, &ct, &TimingConfig::table1(CoreSize::M, 3.25e9, 8), None);
        assert!(hi.time_s <= lo.time_s, "trial {trial}");
        // And frequency cannot speed memory up more than 3.25x overall.
        assert!(lo.time_s / hi.time_s <= 3.25 + 1e-9, "trial {trial}");
    }
}
