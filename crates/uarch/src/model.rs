//! The one-pass out-of-order timing model.

use triad_arch::CoreSize;
use triad_cache::{ClassifiedTrace, MlpMonitor};
use triad_mem::DramParams;

/// Configuration of one timing run.
#[derive(Debug, Clone, Copy)]
pub struct TimingConfig {
    /// Core size under simulation.
    pub core: CoreSize,
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
    /// LLC way allocation (decides which LLC accesses go to DRAM).
    pub ways: usize,
    /// L1D hit latency, cycles.
    pub lat_l1: u32,
    /// L2 hit latency, cycles.
    pub lat_l2: u32,
    /// LLC hit latency, cycles.
    pub lat_llc: u32,
    /// Long-latency arithmetic latency, cycles.
    pub lat_longop: u32,
    /// Front-end refill penalty after a mispredicted branch, cycles.
    pub mispredict_penalty: u32,
    /// DRAM parameters.
    pub dram: DramParams,
}

impl TimingConfig {
    /// Table I-flavored latencies for a core/frequency/allocation triple.
    pub fn table1(core: CoreSize, freq_hz: f64, ways: usize) -> Self {
        TimingConfig {
            core,
            freq_hz,
            ways,
            lat_l1: 3,
            lat_l2: 12,
            lat_llc: 30,
            lat_longop: 4,
            mispredict_penalty: 12,
            dram: DramParams::table1(),
        }
    }
}

/// Observables produced by one timing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingResult {
    /// Instructions simulated.
    pub insts: u64,
    /// Total cycles until the last instruction retires.
    pub cycles: u64,
    /// Wall-clock time, seconds (`cycles / freq`).
    pub time_s: f64,
    /// Width-scalable compute time (Eq. 1's `T0`), seconds.
    pub t0_s: f64,
    /// Branch-misprediction stall time, seconds (part of `T1`).
    pub t_branch_s: f64,
    /// L2/LLC-hit stall time, seconds (part of `T1`).
    pub t_cache_s: f64,
    /// DRAM stall time (Eq. 1's `Tmem`), seconds.
    pub tmem_s: f64,
    /// Loads serviced by DRAM.
    pub dram_loads: u64,
    /// Stores whose fill reached DRAM.
    pub dram_stores: u64,
    /// Ground-truth leading misses (loads whose DRAM access began with no
    /// other load miss outstanding).
    pub true_leading_misses: u64,
    /// Average MLP: DRAM loads per leading miss (1.0 when no misses).
    pub mlp: f64,
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// Pipeline utilization: `ipc / D(c)` — drives the dynamic-power model.
    pub util: f64,
}

/// Simulate `trace` (classified as `ct`) under `cfg` as one lane at
/// `(cfg.ways, cfg.freq_hz)` on a fresh [`crate::TimingEngine`].
///
/// `trace` must be the *detailed* portion matching `ct` (i.e. generated with
/// the same warmup split passed to `classify_warm`). With a `monitor`,
/// every LLC **load** (in LLC arrival order, with its program-order
/// instruction index and ATD stack distance) is also fed into the proposed
/// MLP monitor — emulating the Fig. 4 hardware attached to a core running
/// at this configuration.
///
/// Callers that simulate many intervals, allocations or frequencies should
/// hold an engine and batch them through
/// [`crate::TimingEngine::simulate_lanes`], which reuses its scratch and
/// walks the trace once for all lanes.
pub fn simulate(
    trace: &[triad_trace::Inst],
    ct: &ClassifiedTrace,
    cfg: &TimingConfig,
    monitor: Option<&mut MlpMonitor>,
) -> TimingResult {
    let spec = crate::LaneSpec { ways: cfg.ways, freq_hz: cfg.freq_hz, monitor: monitor.is_some() };
    let monitors = match monitor {
        Some(m) => std::slice::from_mut(m),
        None => &mut [],
    };
    crate::TimingEngine::new().simulate_lanes(trace, ct, cfg, &[spec], monitors)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_arch::CacheGeometry;
    use triad_cache::classify;
    use triad_trace::{AccessPattern, Inst, MemRegion, PhaseSpec, Trace};

    fn geom() -> CacheGeometry {
        CacheGeometry::table1_scaled(4, 16)
    }

    fn run(trace: &Trace, core: CoreSize, freq: f64, ways: usize) -> TimingResult {
        let ct = classify(trace, &geom());
        simulate(&trace.insts, &ct, &TimingConfig::table1(core, freq, ways), None)
    }

    fn compute_spec(dep_mean: f64) -> PhaseSpec {
        PhaseSpec {
            tag: 77,
            load_frac: 0.0,
            store_frac: 0.0,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean,
            dep2_prob: 0.0,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![],
        }
    }

    #[test]
    fn independent_alu_stream_reaches_full_width() {
        // dep distances far beyond the window → IPC ≈ D(c).
        let t = compute_spec(512.0).generate(40_000, 1);
        for c in CoreSize::ALL {
            let r = run(&t, c, 2.0e9, 8);
            let d = c.dispatch_width() as f64;
            assert!(r.ipc > 0.9 * d, "{c}: ipc {} vs width {d}", r.ipc);
            assert!(r.ipc <= d + 1e-9);
        }
    }

    #[test]
    fn serial_chain_is_width_independent() {
        // Every instruction depends on the previous one: IPC ≈ 1 (latency 1)
        // regardless of core size.
        let mut insts = vec![Inst::alu()];
        for _ in 1..20_000 {
            insts.push(Inst { dep1: 1, ..Inst::alu() });
        }
        let t = Trace { insts };
        let s = run(&t, CoreSize::S, 2.0e9, 8);
        let l = run(&t, CoreSize::L, 2.0e9, 8);
        assert!((s.ipc - 1.0).abs() < 0.05, "S ipc {}", s.ipc);
        assert!((l.ipc - 1.0).abs() < 0.05, "L ipc {}", l.ipc);
    }

    #[test]
    fn time_scales_inversely_with_frequency_for_compute() {
        let t = compute_spec(16.0).generate(30_000, 2);
        let t1 = run(&t, CoreSize::M, 1.0e9, 8);
        let t2 = run(&t, CoreSize::M, 2.0e9, 8);
        assert_eq!(t1.cycles, t2.cycles, "compute cycles are f-independent");
        assert!((t1.time_s / t2.time_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_time_does_not_scale_with_frequency() {
        // DRAM-bound: doubling f must not halve time.
        let spec = PhaseSpec {
            tag: 9,
            load_frac: 0.35,
            store_frac: 0.0,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean: 8.0,
            dep2_prob: 0.0,
            chase_frac: 0.9,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion {
                blocks: 1 << 22,
                weight: 1.0,
                pattern: AccessPattern::Uniform,
            }],
        };
        let t = spec.generate(30_000, 3);
        let lo = run(&t, CoreSize::M, 1.0e9, 2);
        let hi = run(&t, CoreSize::M, 3.25e9, 2);
        let speedup = lo.time_s / hi.time_s;
        assert!(speedup < 1.6, "memory-bound speedup should be far below 3.25x: {speedup}");
        assert!(hi.tmem_s > 0.5 * hi.time_s, "run must be memory-dominated");
    }

    #[test]
    fn chase_loads_serialize_misses() {
        let mk = |chase: f64, tag: u64| PhaseSpec {
            tag,
            load_frac: 0.35,
            store_frac: 0.0,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean: 8.0,
            dep2_prob: 0.0,
            chase_frac: chase,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion {
                blocks: 1 << 22,
                weight: 1.0,
                pattern: AccessPattern::Uniform,
            }],
        };
        let chasing = mk(0.95, 1).generate(30_000, 4);
        let indep = mk(0.0, 1).generate(30_000, 4);
        let rc = run(&chasing, CoreSize::L, 2.0e9, 2);
        let ri = run(&indep, CoreSize::L, 2.0e9, 2);
        assert!(rc.mlp < 1.6, "chase MLP should be near 1: {}", rc.mlp);
        assert!(ri.mlp > 3.0 * rc.mlp, "independent MLP {} vs chase {}", ri.mlp, rc.mlp);
        assert!(ri.time_s < rc.time_s, "overlap must speed execution up");
    }

    #[test]
    fn mlp_grows_with_core_size_for_independent_misses() {
        let spec = PhaseSpec {
            tag: 10,
            load_frac: 0.30,
            store_frac: 0.10,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean: 12.0,
            dep2_prob: 0.0,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![
                MemRegion { blocks: 128, weight: 0.75, pattern: AccessPattern::Uniform },
                MemRegion { blocks: 1 << 22, weight: 0.25, pattern: AccessPattern::Uniform },
            ],
        };
        let t = spec.generate(40_000, 5);
        let s = run(&t, CoreSize::S, 2.0e9, 8);
        let m = run(&t, CoreSize::M, 2.0e9, 8);
        let l = run(&t, CoreSize::L, 2.0e9, 8);
        assert!(s.mlp < m.mlp && m.mlp < l.mlp, "S={} M={} L={}", s.mlp, m.mlp, l.mlp);
        assert!(l.mlp >= 2.0, "L must reach MLP ≥ 2: {}", l.mlp);
        assert!(l.time_s < s.time_s, "more MLP must shorten execution");
    }

    #[test]
    fn more_ways_never_slow_execution() {
        let spec = PhaseSpec {
            tag: 11,
            load_frac: 0.3,
            store_frac: 0.1,
            branch_frac: 0.1,
            longop_frac: 0.05,
            mispredict_rate: 0.02,
            dep_mean: 7.0,
            dep2_prob: 0.2,
            chase_frac: 0.3,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![
                MemRegion::reuse_kib(8, 0.6),
                MemRegion::reuse_kib(192, 0.4), // knee inside the range (scaled)
            ],
        };
        let t = spec.generate(40_000, 6);
        let ct = classify(&t, &geom());
        let mut prev = f64::INFINITY;
        for w in [2usize, 4, 8, 12, 16] {
            let r = simulate(&t.insts, &ct, &TimingConfig::table1(CoreSize::M, 2.0e9, w), None);
            assert!(r.time_s <= prev * 1.001, "w={w}: {} vs {}", r.time_s, prev);
            prev = r.time_s;
        }
    }

    #[test]
    fn mispredicts_cost_time_and_are_attributed_to_branches() {
        let mk = |mr: f64| PhaseSpec {
            tag: 12,
            load_frac: 0.0,
            store_frac: 0.0,
            branch_frac: 0.25,
            longop_frac: 0.0,
            mispredict_rate: mr,
            dep_mean: 12.0,
            dep2_prob: 0.0,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![],
        };
        let clean = mk(0.0).generate(30_000, 7);
        let dirty = mk(0.10).generate(30_000, 7);
        let rc = run(&clean, CoreSize::M, 2.0e9, 8);
        let rd = run(&dirty, CoreSize::M, 2.0e9, 8);
        assert!(rd.time_s > rc.time_s * 1.2, "{} vs {}", rd.time_s, rc.time_s);
        assert!(rd.t_branch_s > 0.0);
        assert!(rc.t_branch_s <= rc.time_s * 0.01);
    }

    #[test]
    fn decomposition_sums_to_total() {
        let spec = PhaseSpec {
            tag: 13,
            load_frac: 0.3,
            store_frac: 0.1,
            branch_frac: 0.15,
            longop_frac: 0.1,
            mispredict_rate: 0.03,
            dep_mean: 6.0,
            dep2_prob: 0.3,
            chase_frac: 0.2,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion::reuse_kib(8, 0.5), MemRegion::reuse_kib(256, 0.5)],
        };
        let t = spec.generate(30_000, 8);
        let r = run(&t, CoreSize::M, 2.0e9, 8);
        let sum = r.t0_s + r.t_branch_s + r.t_cache_s + r.tmem_s;
        assert!((sum - r.time_s).abs() < 1e-12, "{sum} vs {}", r.time_s);
        assert!(r.t0_s > 0.0);
    }

    #[test]
    fn lsq_bounds_inflight_memory_ops() {
        // All loads, all independent DRAM misses: the S core's 10-entry LSQ
        // caps MLP near 10 even though its 64-entry ROB could hold more.
        let spec = PhaseSpec {
            tag: 14,
            load_frac: 1.0,
            store_frac: 0.0,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean: 512.0,
            dep2_prob: 0.0,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion {
                blocks: 1 << 22,
                weight: 1.0,
                pattern: AccessPattern::Uniform,
            }],
        };
        let t = spec.generate(20_000, 9);
        let r = run(&t, CoreSize::S, 2.0e9, 8);
        assert!(r.mlp <= 10.5, "S LSQ is 10 entries: MLP {}", r.mlp);
    }

    #[test]
    fn monitor_receives_llc_loads() {
        let spec = PhaseSpec {
            tag: 15,
            load_frac: 0.4,
            store_frac: 0.0,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean: 10.0,
            dep2_prob: 0.0,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion {
                blocks: 1 << 22,
                weight: 1.0,
                pattern: AccessPattern::Uniform,
            }],
        };
        let t = spec.generate(10_000, 10);
        let ct = classify(&t, &geom());
        let mut mon = MlpMonitor::table1();
        let r =
            simulate(&t.insts, &ct, &TimingConfig::table1(CoreSize::M, 2.0e9, 8), Some(&mut mon));
        // Every DRAM load is also an ATD-predicted miss at w=8 here (the
        // region never hits), so the monitor's miss count matches.
        assert_eq!(mon.miss_count(CoreSize::M, 8), r.dram_loads);
        assert!(mon.lm_count(CoreSize::M, 8) > 0);
        // The heuristic should land in the right ballpark of true MLP.
        let est = mon.mlp(CoreSize::M, 8);
        assert!(est / r.mlp < 3.0 && r.mlp / est < 3.0, "est {est} vs true {}", r.mlp);
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let t = Trace::default();
        let ct = classify(&t, &geom());
        let r = simulate(&t.insts, &ct, &TimingConfig::table1(CoreSize::M, 2.0e9, 8), None);
        assert_eq!(r.insts, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn deterministic_runs() {
        let t = compute_spec(8.0).generate(5000, 11);
        let a = run(&t, CoreSize::M, 2.0e9, 8);
        let b = run(&t, CoreSize::M, 2.0e9, 8);
        assert_eq!(a, b);
    }
}
