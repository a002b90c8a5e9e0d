//! The paper's hardware contribution in isolation: the ATD extension that
//! estimates leading misses for every (core size, LLC allocation) pair
//! (Fig. 4), validated against the ground-truth out-of-order timing model.
//!
//! Run with: `cargo run --release --example mlp_monitor`

use triad::arch::{CacheGeometry, CoreSize};
use triad::cache::{atd::COLD, classify_warm, MlpMonitor};
use triad::trace::{MemRegion, PhaseSpec};
use triad::uarch::{simulate, TimingConfig};

fn main() {
    // Fig. 4's worked example: four loads, all missing allocation w.
    let mut mon = MlpMonitor::table1();
    for idx in [5u64, 33, 20, 90] {
        mon.on_llc_load(idx, COLD);
    }
    println!("Fig. 4 worked example (LD1@5, LD3@33, LD2@20, LD4@90):");
    for c in CoreSize::ALL {
        println!(
            "  {c} core (ROB {:>3}): {} leading misses, {} overlapping",
            c.rob(),
            mon.lm_count(c, 8),
            mon.ov_count(c, 8)
        );
    }
    println!("  (paper: S counts 3 LMs; M counts 2)");

    // A streaming phase: estimates vs ground truth across core sizes.
    let spec = PhaseSpec {
        tag: 42,
        load_frac: 0.20,
        store_frac: 0.04,
        branch_frac: 0.10,
        longop_frac: 0.20,
        mispredict_rate: 0.01,
        dep_mean: 10.0,
        dep2_prob: 0.3,
        chase_frac: 0.0,
        burst: 1.0,
        addr_dep: 0.05,
        regions: vec![MemRegion::reuse_kib(8, 0.85), MemRegion::stream_mib(12, 0.15)],
    };
    let geom = CacheGeometry::table1_scaled(4, 16);
    let trace = spec.generate(200_000, 7);
    let ct = classify_warm(&trace, &geom, 100_000);
    println!("\nstreaming phase — estimated vs true MLP at 8 ways:");
    for c in CoreSize::ALL {
        let mut mon = MlpMonitor::table1();
        let r = simulate(
            &trace.insts[100_000..],
            &ct,
            &TimingConfig::table1(c, 2.0e9, 8),
            Some(&mut mon),
        );
        println!("  {c}: monitor estimate {:.2}, ground truth {:.2}", mon.mlp(c, 8), r.mlp);
    }
    println!(
        "\nstorage cost: {} bits per core (paper: < 300 bytes)",
        MlpMonitor::table1().storage_bits()
    );
}
