//! `build_phase` runs the grid through the lockstep batched engine; this
//! test pins it bit-identically to the legacy formulation — one
//! independent single-lane `simulate` call (monitored at the low fit
//! frequency) per
//! (core, frequency, allocation) grid point — so the phase-database
//! artifacts (and everything downstream: campaign rows, goldens, store
//! digests) cannot drift.

use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::{classify_warm, MlpMonitor};
use triad_phasedb::{build_phase, cw, DbConfig, MonitorStats, PhaseRecord, NC, NW, W_MAX, W_MIN};
use triad_trace::PhaseSpec;
use triad_uarch::{simulate, TimingConfig};

/// The pre-engine `build_phase`: 2 × NC × NW independent trace passes.
fn legacy_build_phase(spec: &PhaseSpec, cfg: &DbConfig) -> PhaseRecord {
    let scaled = spec.scaled(cfg.scale as u64);
    let geom = CacheGeometry::table1_scaled(4, cfg.scale);
    let trace = scaled.generate(cfg.warmup + cfg.detail, cfg.seed);
    let ct = classify_warm(&trace, &geom, cfg.warmup);
    let detailed = &trace.insts[cfg.warmup..];
    let n = detailed.len() as f64;

    let miss_curve_pi: Vec<f64> =
        (1..=geom.max_ways_per_core).map(|w| ct.llc_misses(w) as f64 / n).collect();
    let mut load_hist = vec![0u64; geom.max_ways_per_core + 1];
    for (i, inst) in detailed.iter().enumerate() {
        if inst.kind == triad_trace::InstKind::Load && ct.is_llc_access(i) {
            let code = ct.code(i);
            let slot = if code <= 15 { code as usize } else { geom.max_ways_per_core };
            load_hist[slot] += 1;
        }
    }
    let load_miss_curve_pi: Vec<f64> = (1..=geom.max_ways_per_core)
        .map(|w| load_hist[w..].iter().sum::<u64>() as f64 / n)
        .collect();
    let llc_acc_pi = ct.llc_accesses as f64 / n;
    let wb_frac = ct.store_frac_at_llc;

    let mut a_cpi = vec![0.0; NC * NW];
    let mut b_spi = vec![0.0; NC * NW];
    let mut true_mlp = vec![1.0; NC * NW];
    let mut monitor: Vec<MonitorStats> = Vec::with_capacity(NC * NW);

    for c in CoreSize::ALL {
        for w in W_MIN..=W_MAX {
            let mut mon = MlpMonitor::table1();
            let lo =
                simulate(detailed, &ct, &TimingConfig::table1(c, cfg.fit_lo_hz, w), Some(&mut mon));
            let hi = simulate(detailed, &ct, &TimingConfig::table1(c, cfg.fit_hi_hz, w), None);

            let t_lo = lo.time_s / n;
            let t_hi = hi.time_s / n;
            let inv = 1.0 / cfg.fit_lo_hz - 1.0 / cfg.fit_hi_hz;
            let a = ((t_lo - t_hi) / inv).max(0.0);
            let b = (t_lo - a / cfg.fit_lo_hz).max(0.0);
            let i = cw(c, w);
            a_cpi[i] = a;
            b_spi[i] = b;
            true_mlp[i] = lo.mlp;

            let lm_pi: Vec<f64> = CoreSize::ALL
                .iter()
                .flat_map(|&tc| (W_MIN..=W_MAX).map(move |tw| (tc, tw)))
                .map(|(tc, tw)| mon.lm_count(tc, tw) as f64 / n)
                .collect();
            monitor.push(MonitorStats {
                c0_cpi: lo.t0_s * cfg.fit_lo_hz / n,
                c_branch_cpi: lo.t_branch_s * cfg.fit_lo_hz / n,
                c_cache_cpi: lo.t_cache_s * cfg.fit_lo_hz / n,
                tmem_spi: lo.tmem_s / n,
                mlp_avg: lo.mlp,
                lm_pi,
                ma_pi: miss_curve_pi[w - 1] * (1.0 + wb_frac),
            });
        }
    }

    PhaseRecord {
        a_cpi,
        b_spi,
        monitor,
        miss_curve_pi,
        load_miss_curve_pi,
        llc_acc_pi,
        wb_frac,
        true_mlp,
    }
}

fn assert_f64_slices_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}[{i}]: {x} vs {y}");
    }
}

fn assert_records_bits_eq(a: &PhaseRecord, b: &PhaseRecord, ctx: &str) {
    assert_f64_slices_bits_eq(&a.a_cpi, &b.a_cpi, &format!("{ctx}: a_cpi"));
    assert_f64_slices_bits_eq(&a.b_spi, &b.b_spi, &format!("{ctx}: b_spi"));
    assert_f64_slices_bits_eq(&a.true_mlp, &b.true_mlp, &format!("{ctx}: true_mlp"));
    assert_f64_slices_bits_eq(&a.miss_curve_pi, &b.miss_curve_pi, &format!("{ctx}: miss_curve"));
    assert_f64_slices_bits_eq(
        &a.load_miss_curve_pi,
        &b.load_miss_curve_pi,
        &format!("{ctx}: load_miss_curve"),
    );
    assert_eq!(a.llc_acc_pi.to_bits(), b.llc_acc_pi.to_bits(), "{ctx}: llc_acc_pi");
    assert_eq!(a.wb_frac.to_bits(), b.wb_frac.to_bits(), "{ctx}: wb_frac");
    assert_eq!(a.monitor.len(), b.monitor.len(), "{ctx}: monitor count");
    for (i, (ma, mb)) in a.monitor.iter().zip(&b.monitor).enumerate() {
        let c = format!("{ctx}: monitor[{i}]");
        assert_eq!(ma.c0_cpi.to_bits(), mb.c0_cpi.to_bits(), "{c}: c0_cpi");
        assert_eq!(ma.c_branch_cpi.to_bits(), mb.c_branch_cpi.to_bits(), "{c}: c_branch_cpi");
        assert_eq!(ma.c_cache_cpi.to_bits(), mb.c_cache_cpi.to_bits(), "{c}: c_cache_cpi");
        assert_eq!(ma.tmem_spi.to_bits(), mb.tmem_spi.to_bits(), "{c}: tmem_spi");
        assert_eq!(ma.mlp_avg.to_bits(), mb.mlp_avg.to_bits(), "{c}: mlp_avg");
        assert_eq!(ma.ma_pi.to_bits(), mb.ma_pi.to_bits(), "{c}: ma_pi");
        assert_f64_slices_bits_eq(&ma.lm_pi, &mb.lm_pi, &format!("{c}: lm_pi"));
    }
}

/// The batched `build_phase` reproduces the legacy per-grid-point build
/// bit-for-bit, `MonitorStats` included, for archetypes across the Table II
/// spectrum (memory-bound, streaming, compute-bound).
#[test]
fn build_phase_matches_legacy_grid_bit_exactly() {
    let cfg = DbConfig::fast();
    for name in ["mcf", "libquantum", "povray"] {
        let app = triad_trace::by_name(name).unwrap();
        let spec = &app.phases[0];
        let batched = build_phase(spec, &cfg);
        let legacy = legacy_build_phase(spec, &cfg);
        assert_records_bits_eq(&batched, &legacy, name);
    }
}
