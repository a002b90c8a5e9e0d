//! Parallel database construction.

use crate::record::{cw, AppDbEntry, MonitorStats, PhaseDb, PhaseRecord, NC, NW, W_MAX, W_MIN};
use triad_arch::{CacheGeometry, CoreSize};
use triad_cache::{generate_classify, MlpMonitor};
use triad_telemetry::SpanName;
use triad_trace::{AppSpec, Inst, PhaseSpec};
use triad_uarch::{LaneSpec, TimingConfig, TimingEngine};

static BUILD_APPS_SPAN: SpanName = SpanName::new("phasedb.build_apps");
static GENERATE_CLASSIFY_SPAN: SpanName = SpanName::new("phasedb.generate_classify");
static GRID_SPAN: SpanName = SpanName::new("phasedb.grid");

/// Database build parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Capacity scale factor between the paper's caches/working sets and
    /// the simulated ones (see `CacheGeometry::table1_scaled`).
    pub scale: usize,
    /// Warm-up instructions per phase (state only, no counters) — the
    /// paper's 100M-warmup window, scaled.
    pub warmup: usize,
    /// Detailed instructions per phase — the paper's 100M detailed window,
    /// scaled.
    pub detail: usize,
    /// Trace-generation seed.
    pub seed: u64,
    /// Lower fit frequency (also the monitor-statistics run), Hz.
    pub fit_lo_hz: f64,
    /// Upper fit frequency, Hz.
    pub fit_hi_hz: f64,
    /// Worker threads; 0 = available parallelism.
    pub threads: usize,
}

impl DbConfig {
    /// Full-quality configuration used by the experiment harness.
    pub const fn default_config() -> Self {
        DbConfig {
            scale: 16,
            warmup: 400_000,
            detail: 64_000,
            seed: 0xC0FFEE,
            fit_lo_hz: 1.0e9,
            fit_hi_hz: 3.25e9,
            threads: 0,
        }
    }

    /// Reduced configuration for unit tests (several times faster, noisier
    /// stats). The full warm-up is kept: a cold LLC inflates the flat part
    /// of every miss curve, which washes out the relative cache-sensitivity
    /// margins the Table II archetypes are calibrated to.
    pub const fn fast() -> Self {
        DbConfig { detail: 32_000, ..Self::default_config() }
    }
}

impl Default for DbConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// Build the database for the full 27-application suite.
pub fn build_suite(cfg: &DbConfig) -> PhaseDb {
    build_apps(triad_trace::suite(), cfg)
}

/// Build the database for an arbitrary set of applications.
///
/// Phases are processed in parallel with scoped worker threads; the result
/// is deterministic regardless of scheduling.
pub fn build_apps(apps: &[AppSpec], cfg: &DbConfig) -> PhaseDb {
    let _span = BUILD_APPS_SPAN.enter();
    let phases: Vec<&PhaseSpec> = apps.iter().flat_map(|app| &app.phases).collect();
    // Each worker thread owns one [`PhaseScratch`] — the timing engine's
    // ring buffers, the monitor set and the detailed-trace buffer — reused
    // across every phase the worker claims instead of reallocated per
    // phase. The scratch carries no state between phases (monitors are
    // reset, buffers overwritten), so results stay deterministic across
    // thread counts (asserted by tests).
    let mut records =
        triad_util::par::par_map_with(&phases, cfg.threads, PhaseScratch::new, |scratch, spec| {
            build_phase_with(spec, cfg, scratch)
        })
        .into_iter();
    let apps = apps
        .iter()
        .map(|app| AppDbEntry {
            spec: app.clone(),
            records: records.by_ref().take(app.phases.len()).collect(),
        })
        .collect();
    PhaseDb { apps }
}

/// Reusable per-worker scratch for [`build_phase_with`]: the timing
/// engine's ring buffers, one [`MlpMonitor`] per way allocation and the
/// detailed-trace buffer. Holding one of these per worker thread removes
/// every per-phase allocation from the build's steady state.
pub struct PhaseScratch {
    engine: TimingEngine,
    mons: Vec<MlpMonitor>,
    detailed: Vec<Inst>,
}

impl PhaseScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        PhaseScratch {
            engine: TimingEngine::new(),
            mons: (W_MIN..=W_MAX).map(|_| MlpMonitor::table1()).collect(),
            detailed: Vec::new(),
        }
    }
}

impl Default for PhaseScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Detailed simulation of one phase over the whole configuration space.
pub fn build_phase(spec: &PhaseSpec, cfg: &DbConfig) -> PhaseRecord {
    build_phase_with(spec, cfg, &mut PhaseScratch::new())
}

/// [`build_phase`] against caller-owned scratch — the single-decode
/// pipeline:
///
/// 1. trace generation and hierarchy classification are fused into one
///    streaming pass ([`generate_classify`]) that never materializes the
///    warmup instructions and fills the load-only miss histogram en route;
/// 2. each core size runs **one** 2·NW-lane lockstep pass covering every
///    way allocation at *both* fit frequencies (lanes interleaved
///    `(w, f_lo), (w, f_hi)` — ways stay non-decreasing), instead of two
///    NW-lane passes — 3 trace decodes per phase, down from 6 (and from 90
///    scalar passes before the lockstep engine).
pub fn build_phase_with(
    spec: &PhaseSpec,
    cfg: &DbConfig,
    scratch: &mut PhaseScratch,
) -> PhaseRecord {
    let scaled = spec.scaled(cfg.scale as u64);
    let geom = CacheGeometry::table1_scaled(4, cfg.scale);
    let front = GENERATE_CLASSIFY_SPAN.enter();
    let ct =
        generate_classify(&scaled, &geom, cfg.warmup, cfg.detail, cfg.seed, &mut scratch.detailed);
    drop(front);
    let detailed = scratch.detailed.as_slice();
    let n = detailed.len() as f64;

    let miss_curve_pi: Vec<f64> =
        (1..=geom.max_ways_per_core).map(|w| ct.llc_misses(w) as f64 / n).collect();
    // Load-only miss curve, for the stall-time models (Eq. 2 counts loads);
    // the histogram was filled during classification.
    let load_miss_curve_pi: Vec<f64> =
        (1..=geom.max_ways_per_core).map(|w| ct.llc_load_misses(w) as f64 / n).collect();
    let llc_acc_pi = ct.llc_accesses as f64 / n;
    let wb_frac = ct.store_frac_at_llc;

    let mut a_cpi = vec![0.0; NC * NW];
    let mut b_spi = vec![0.0; NC * NW];
    let mut true_mlp = vec![1.0; NC * NW];
    let mut monitor: Vec<MonitorStats> = Vec::with_capacity(NC * NW);

    // Lane plan shared by all core sizes: both fit frequencies fused into
    // one pass, monitors attached to the low-frequency lanes (cycle-domain
    // monitor state is frequency-independent; `lo` is the designated
    // statistics run).
    let lanes: Vec<LaneSpec> = (W_MIN..=W_MAX)
        .flat_map(|w| {
            [
                LaneSpec { ways: w, freq_hz: cfg.fit_lo_hz, monitor: true },
                LaneSpec { ways: w, freq_hz: cfg.fit_hi_hz, monitor: false },
            ]
        })
        .collect();
    for c in CoreSize::ALL {
        let _grid = GRID_SPAN.enter();
        for mon in &mut scratch.mons {
            mon.reset();
        }
        let base_cfg = TimingConfig::table1(c, cfg.fit_lo_hz, W_MIN);
        let results =
            scratch.engine.simulate_lanes(detailed, &ct, &base_cfg, &lanes, &mut scratch.mons);

        for (k, w) in (W_MIN..=W_MAX).enumerate() {
            let (lo, hi, mon) = (&results[2 * k], &results[2 * k + 1], &scratch.mons[k]);
            // Fit T(f) = A/f + B per instruction through both points.
            let t_lo = lo.time_s / n;
            let t_hi = hi.time_s / n;
            let inv = 1.0 / cfg.fit_lo_hz - 1.0 / cfg.fit_hi_hz;
            let a = ((t_lo - t_hi) / inv).max(0.0);
            let b = (t_lo - a / cfg.fit_lo_hz).max(0.0);
            let i = cw(c, w);
            a_cpi[i] = a;
            b_spi[i] = b;
            true_mlp[i] = lo.mlp;

            // Monitor statistics from the low-frequency run: cycle-domain
            // counters are frequency-independent; Tmem is stored in seconds.
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

#[cfg(test)]
mod tests {
    use super::*;
    use triad_arch::DvfsGrid;
    use triad_energy::EnergyModel;

    fn small_db() -> PhaseDb {
        let apps: Vec<AppSpec> = triad_trace::suite()
            .iter()
            .filter(|a| ["mcf", "libquantum", "povray"].contains(&a.name))
            .cloned()
            .collect();
        build_apps(&apps, &DbConfig::fast())
    }

    #[test]
    fn db_structure_matches_apps() {
        let db = small_db();
        assert_eq!(db.apps.len(), 3);
        for e in &db.apps {
            assert_eq!(e.records.len(), e.spec.phases.len());
            for r in &e.records {
                assert_eq!(r.a_cpi.len(), NC * NW);
                assert_eq!(r.monitor.len(), NC * NW);
                assert_eq!(r.miss_curve_pi.len(), 16);
            }
        }
    }

    #[test]
    fn time_decreases_with_frequency_and_ways() {
        let db = small_db();
        let r = &db.app("mcf").unwrap().records[0];
        for c in CoreSize::ALL {
            for w in [2usize, 8, 16] {
                let t1 = r.tpi(c, 1.0e9, w);
                let t2 = r.tpi(c, 2.0e9, w);
                let t3 = r.tpi(c, 3.25e9, w);
                assert!(t1 >= t2 && t2 >= t3, "{c} w={w}: {t1} {t2} {t3}");
            }
            // mcf is cache sensitive: 16 ways strictly beat 2.
            assert!(r.tpi(c, 2.0e9, 16) < r.tpi(c, 2.0e9, 2), "{c}");
        }
    }

    #[test]
    fn bigger_cores_are_never_slower() {
        let db = small_db();
        for e in &db.apps {
            for r in &e.records {
                for w in [2usize, 8, 16] {
                    let ts = r.tpi(CoreSize::S, 2.0e9, w);
                    let tm = r.tpi(CoreSize::M, 2.0e9, w);
                    let tl = r.tpi(CoreSize::L, 2.0e9, w);
                    // Allow 2% tolerance for simulation noise.
                    assert!(tm <= ts * 1.02, "{}: S {ts} vs M {tm}", e.spec.name);
                    assert!(tl <= tm * 1.02, "{}: M {tm} vs L {tl}", e.spec.name);
                }
            }
        }
    }

    #[test]
    fn miss_curves_are_monotone() {
        let db = small_db();
        for e in &db.apps {
            for r in &e.records {
                for w in 1..16 {
                    assert!(
                        r.miss_curve_pi[w - 1] >= r.miss_curve_pi[w] - 1e-12,
                        "{} w={w}",
                        e.spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn monitor_lm_bounded_by_misses() {
        // Leading misses can never exceed total (load) misses, which are
        // bounded by the miss curve.
        let db = small_db();
        for e in &db.apps {
            for r in &e.records {
                for c in CoreSize::ALL {
                    let m = r.monitor_at(c, 8);
                    for tc in CoreSize::ALL {
                        for tw in W_MIN..=W_MAX {
                            let lm = m.lm_pi[cw(tc, tw)];
                            assert!(
                                lm <= r.misses_pi(tw) + 1e-12,
                                "{}: lm {lm} > misses {}",
                                e.spec.name,
                                r.misses_pi(tw)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn energy_is_positive_and_scales_with_voltage() {
        let db = small_db();
        let em = EnergyModel::default_model();
        let grid = DvfsGrid::table1();
        let r = &db.app("povray").unwrap().records[0];
        let lo = r.energy_pi(CoreSize::M, grid.point(0), 8, &em);
        let hi = r.energy_pi(CoreSize::M, grid.point(9), 8, &em);
        assert!(lo > 0.0);
        // povray is compute-bound: high VF burns more energy per instruction
        // (quadratic power growth dominates the linear time reduction).
        assert!(hi > lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let apps: Vec<AppSpec> =
            triad_trace::suite().iter().filter(|a| a.name == "gcc").cloned().collect();
        let mut c1 = DbConfig::fast();
        c1.threads = 1;
        let mut c2 = DbConfig::fast();
        c2.threads = 2;
        let d1 = build_apps(&apps, &c1);
        let d2 = build_apps(&apps, &c2);
        for (r1, r2) in d1.apps[0].records.iter().zip(&d2.apps[0].records) {
            assert_eq!(r1.a_cpi, r2.a_cpi);
            assert_eq!(r1.b_spi, r2.b_spi);
            assert_eq!(r1.miss_curve_pi, r2.miss_curve_pi);
        }
    }

    #[test]
    fn streaming_app_is_cache_insensitive_in_db() {
        let db = small_db();
        let e = db.app("libquantum").unwrap();
        let m4 = e.weighted(|r| r.misses_pi(4));
        let m8 = e.weighted(|r| r.misses_pi(8));
        let m12 = e.weighted(|r| r.misses_pi(12));
        let dev = ((m4 - m8).abs()).max((m12 - m8).abs());
        assert!(dev < 0.2 * m8, "libquantum must be flat: {m4} {m8} {m12}");
        assert!(m8 * 1000.0 > 0.2, "but memory-active");
    }
}
