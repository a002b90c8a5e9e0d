//! Substrate throughput benches: cache classification, the out-of-order
//! timing model, the ATD+MLP monitor and the global curve reduction.
//!
//! Run with `cargo bench -p triad-bench --bench substrate`.

use std::hint::black_box;
use std::time::Duration;
use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::{classify, Atd, MlpMonitor};
use triad_rm::{optimize_partition, EnergyCurve};
use triad_trace::{MemRegion, PhaseSpec};
use triad_uarch::{LaneSpec, TimingConfig, TimingEngine};
use triad_util::bench::bench;

const BUDGET: Duration = Duration::from_millis(400);

fn spec() -> PhaseSpec {
    PhaseSpec {
        tag: 1,
        load_frac: 0.24,
        store_frac: 0.06,
        branch_frac: 0.12,
        longop_frac: 0.10,
        mispredict_rate: 0.02,
        dep_mean: 8.0,
        dep2_prob: 0.3,
        chase_frac: 0.1,
        burst: 1.0,
        addr_dep: 0.2,
        regions: vec![MemRegion::reuse_kib(8, 0.7), MemRegion::reuse_kib(200, 0.3)],
    }
}

fn bench_classify() {
    let t = spec().generate(64_000, 1);
    let geom = CacheGeometry::table1_scaled(4, 16);
    bench("classify/l1_l2_atd_pass", Some(t.len() as u64), BUDGET, || {
        black_box(classify(&t, &geom));
    });
}

fn bench_timing() {
    let t = spec().generate(64_000, 1);
    let geom = CacheGeometry::table1_scaled(4, 16);
    let ct = classify(&t, &geom);
    let mut engine = TimingEngine::new();
    let single = [LaneSpec::new(8, 2.0e9)];
    let ways: Vec<LaneSpec> = (2..=16).map(|w| LaneSpec::new(w, 2.0e9)).collect();
    for core in CoreSize::ALL {
        let tc = TimingConfig::table1(core, 2.0e9, 8);
        bench(&format!("timing/ooo_model_{core}"), Some(t.len() as u64), BUDGET, || {
            black_box(engine.simulate_lanes(&t.insts, &ct, &tc, &single, &mut []));
        });
        // The lockstep grid unit: all 15 allocations in one trace pass.
        bench(
            &format!("timing/ooo_lockstep_ways_{core}"),
            Some(15 * t.len() as u64),
            BUDGET,
            || {
                black_box(engine.simulate_lanes(&t.insts, &ct, &tc, &ways, &mut []));
            },
        );
    }
}

fn bench_monitors() {
    // Monitors constructed outside the timed closure: the measurement is
    // steady-state access throughput, not allocation/cold-start cost.
    let mut atd = Atd::table1();
    let mut x = 0u64;
    bench("monitors/atd_access", Some(10_000), BUDGET, || {
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(atd.access((x >> 16) & 0xFFFF_FFC0));
        }
    });
    let mut mon = MlpMonitor::table1();
    let mut x = 0u64;
    let mut i = 0u64;
    bench("monitors/mlp_monitor_load", Some(10_000), BUDGET, || {
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            mon.on_llc_load(i * 7, (x % 20) as u8);
            i += 1;
        }
    });
}

fn bench_global() {
    for n in [2usize, 4, 8, 16] {
        let curves: Vec<EnergyCurve> = (0..n)
            .map(|i| EnergyCurve {
                min_w: 2,
                energy: (0..15).map(|w| ((w + i) % 7) as f64 + 0.1).collect(),
            })
            .collect();
        bench(&format!("global_optimizer/reduce_{n}_cores"), None, BUDGET, || {
            black_box(optimize_partition(&curves, 8 * n));
        });
    }
}

fn main() {
    bench_classify();
    bench_timing();
    bench_monitors();
    bench_global();
}
