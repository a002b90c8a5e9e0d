//! Front-end cost of a phase build: trace generation and classification.
//!
//! PR 6 made these the cold path's second pillar (the lockstep grid being
//! the first): `build_phase` streams generation into classification
//! (state-only warmup, one pass) instead of materializing the warmup
//! `Inst` records and walking them twice. This bench tracks
//!
//! * `generate` — the deterministic RNG generator alone (streamed into a
//!   no-op sink);
//! * `gen_classify_split` — the pre-PR 6 shape: materialize the full
//!   trace, then `classify_warm` over it;
//! * `gen_classify_fused` — the streaming `generate_classify` pipeline
//!   `build_phase` actually runs;
//!
//! and asserts the fused pass is no slower than the split shape (it does
//! strictly less work). Run with
//! `cargo bench -p triad-bench --bench trace_front`; set
//! `TRIAD_BENCH_BUDGET_MS` to shrink the window (CI smoke).

use std::hint::black_box;
use std::time::Duration;
use triad_arch::CacheGeometry;
use triad_cache::{classify_warm, generate_classify};
use triad_phasedb::DbConfig;
use triad_util::bench::{bench, budget_from_env};

/// Recorded on the reference dev box (2026-08-07, release build): the
/// fused generate+classify pass costs ~34 ns per generated instruction
/// for the fast configuration (the pre-PR 6 split pipeline paid ~47 ns:
/// division-heavy RNG sampling plus a second classification pass over a
/// materialized trace). Only a >50× regression fails.
const FRONT_BASELINE_NS_PER_INST: f64 = 34.0;

fn main() {
    let cfg = DbConfig::fast();
    let geom = CacheGeometry::table1_scaled(4, cfg.scale);
    let budget = budget_from_env(Duration::from_secs(2));
    let len = cfg.warmup + cfg.detail;

    let mut worst_fused = 0.0f64;
    for name in ["mcf", "povray"] {
        let app = triad_trace::by_name(name).unwrap();
        let spec = app.phases[0].scaled(cfg.scale as u64);

        let g = bench(&format!("trace_front/generate_{name}"), Some(len as u64), budget, || {
            let mut sum = 0u64;
            spec.generate_stream(len, cfg.seed, |_, inst| sum ^= inst.addr);
            black_box(sum);
        });

        // PR 8 reference shape: the per-instruction chain of independent
        // `random_range` draws the tabled generator replaced. Both emit
        // identical streams (asserted by trace-crate tests); the table
        // must also never be slower.
        let chained = bench(
            &format!("trace_front/generate_chained_{name}"),
            Some(len as u64),
            budget,
            || {
                let mut sum = 0u64;
                spec.generate_stream_chained(len, cfg.seed, |_, inst| sum ^= inst.addr);
                black_box(sum);
            },
        );

        let split = bench(
            &format!("trace_front/gen_classify_split_{name}"),
            Some(len as u64),
            budget,
            || {
                let trace = spec.generate(len, cfg.seed);
                black_box(classify_warm(&trace, &geom, cfg.warmup));
            },
        );

        let mut detailed = Vec::new();
        let fused = bench(
            &format!("trace_front/gen_classify_fused_{name}"),
            Some(len as u64),
            budget,
            || {
                black_box(generate_classify(
                    &spec,
                    &geom,
                    cfg.warmup,
                    cfg.detail,
                    cfg.seed,
                    &mut detailed,
                ));
            },
        );

        let ns = |m: &triad_util::bench::Measurement| m.secs_per_iter * 1e9 / len as f64;
        println!(
            "trace_front/{name:<10} generate {:>5.1} ns/inst (chained {:>5.1})   \
             split {:>5.1} ns/inst   fused {:>5.1} ns/inst",
            ns(&g),
            ns(&chained),
            ns(&split),
            ns(&fused)
        );
        worst_fused = worst_fused.max(ns(&fused));

        // The tabled draw schedule replaces every per-instruction f64
        // comparison chain and Lemire rejection loop with table lookups;
        // it must not lose to the chain it replaced. Same 1.25 drift
        // allowance as the fused/split gate below.
        assert!(
            g.secs_per_iter <= chained.secs_per_iter * 1.25,
            "tabled generator slower than chained draws: {:.2} ms vs {:.2} ms",
            g.secs_per_iter * 1e3,
            chained.secs_per_iter * 1e3
        );

        // The fused pass does strictly less work than the split shape
        // (no warmup materialization, no second traversal); 1.25 absorbs
        // timer drift on busy single-core runners, where back-to-back
        // identical measurements differ by >10%.
        assert!(
            fused.secs_per_iter <= split.secs_per_iter * 1.25,
            "fused generate+classify slower than materialize-then-classify: \
             {:.2} ms vs {:.2} ms",
            fused.secs_per_iter * 1e3,
            split.secs_per_iter * 1e3
        );
    }

    println!(
        "trace_front/baseline                     {FRONT_BASELINE_NS_PER_INST:>8.1} \
         ns/inst fused (recorded 2026-08-07)"
    );
    assert!(
        worst_fused < FRONT_BASELINE_NS_PER_INST * 50.0,
        "front end regressed catastrophically: {worst_fused:.1} ns/inst \
         vs recorded {FRONT_BASELINE_NS_PER_INST:.1}"
    );
}
