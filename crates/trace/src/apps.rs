//! The 27-application benchmark library (SPEC CPU2006 stand-ins, Table II).
//!
//! Each application is a set of [`PhaseSpec`]s plus a per-interval phase
//! sequence. Parameters are calibrated so that the paper's §IV-C
//! classification criteria — run on *our* detailed simulator — reproduce
//! Table II:
//!
//! * **Cache Sensitive (CS)**: MPKI varies by > 20 % when the LLC allocation
//!   changes by ±50 % around the 8-way baseline, and baseline MPKI ≥ 0.2;
//! * **Parallelism Sensitive (PS)**: MLP(L) − MLP(S) > 30 % of MLP(M) at the
//!   baseline allocation, and MLP(L) ≥ 2.
//!
//! The knobs map onto the criteria directly:
//!
//! * cyclic **sweep** regions put a sharp LRU miss-curve knee at an exact
//!   way count — a knee above 8 ways rewards bigger allocations (mcf,
//!   xalancbmk), a knee just below 8 makes reductions catastrophic while
//!   increases are useless (gcc, hmmer — the paper's Scenario 2
//!   observation);
//! * **streaming** regions miss at every allocation (CI but memory-bound);
//! * long **bursts** of independent misses overlap up to the ROB/LSQ window
//!   and expose core-size-dependent MLP (PS); short bursts or
//!   **pointer-chased** misses do not (PI).

use std::sync::OnceLock;

use crate::phase::{MemRegion, PhaseId, PhaseSpec};

/// Application category from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Cache sensitive, parallelism sensitive.
    CsPs,
    /// Cache sensitive, parallelism insensitive.
    CsPi,
    /// Cache insensitive, parallelism sensitive.
    CiPs,
    /// Cache insensitive, parallelism insensitive.
    CiPi,
}

impl Category {
    /// All categories, in the paper's ordering.
    pub const ALL: [Category; 4] = [Category::CsPs, Category::CsPi, Category::CiPs, Category::CiPi];

    /// Whether applications in this category are cache sensitive.
    pub fn cache_sensitive(self) -> bool {
        matches!(self, Category::CsPs | Category::CsPi)
    }

    /// Whether applications in this category are parallelism sensitive.
    pub fn parallelism_sensitive(self) -> bool {
        matches!(self, Category::CsPs | Category::CiPs)
    }

    /// Short label used in figures ("CS-PS" etc.).
    pub fn label(self) -> &'static str {
        match self {
            Category::CsPs => "CS-PS",
            Category::CsPi => "CS-PI",
            Category::CiPs => "CI-PS",
            Category::CiPi => "CI-PI",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete synthetic application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Benchmark name (SPEC CPU2006 stand-in).
    pub name: &'static str,
    /// Table II category this application is calibrated to.
    pub category: Category,
    /// Distinct program phases.
    pub phases: Vec<PhaseSpec>,
    /// Phase id of each consecutive execution interval; its length defines
    /// the application's total instruction count (in intervals).
    pub sequence: Vec<PhaseId>,
}

impl AppSpec {
    /// Number of execution intervals in one full run of the application.
    pub fn n_intervals(&self) -> usize {
        self.sequence.len()
    }

    /// SimPoint-style phase weights: the fraction of intervals spent in each
    /// phase. Sums to 1.
    pub fn phase_weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.phases.len()];
        for &p in &self.sequence {
            w[p] += 1.0;
        }
        let n = self.sequence.len() as f64;
        for x in &mut w {
            *x /= n;
        }
        w
    }
}

/// Raw per-application calibration row.
struct Row {
    name: &'static str,
    cat: Category,
    /// loads, stores, branches, long ops (fractions of the mix)
    mix: [f64; 4],
    mispredict: f64,
    dep_mean: f64,
    chase: f64,
    burst: f64,
    addr_dep: f64,
    /// hot (private-cache-resident) region: (KiB, weight)
    hot: (u64, f64),
    /// LLC-level regions (sweeps, streams, large uniform sets)
    regions: Vec<MemRegion>,
    /// number of 100M-instruction intervals in one run
    intervals: usize,
    /// phase-structure style: 0 = single phase, 1 = main+light, 2 = main+light+compute
    style: u8,
}

impl Row {
    fn main_phase(&self, tag: u64) -> PhaseSpec {
        let mut regions = vec![MemRegion::reuse_kib(self.hot.0, self.hot.1)];
        regions.extend(self.regions.iter().copied());
        PhaseSpec {
            tag,
            load_frac: self.mix[0],
            store_frac: self.mix[1],
            branch_frac: self.mix[2],
            longop_frac: self.mix[3],
            mispredict_rate: self.mispredict,
            dep_mean: self.dep_mean,
            dep2_prob: 0.3,
            chase_frac: self.chase,
            burst: self.burst,
            addr_dep: self.addr_dep,
            regions,
        }
    }

    /// A lower-memory-intensity variant of the main phase.
    fn light_phase(&self, tag: u64) -> PhaseSpec {
        let mut p = self.main_phase(tag);
        for r in p.regions.iter_mut().skip(1) {
            r.weight *= 0.45;
        }
        p.dep_mean = (p.dep_mean * 1.1).min(24.0);
        p.mispredict_rate *= 0.7;
        p
    }

    /// A compute-dominated variant (memory traffic mostly cache-resident).
    fn compute_phase(&self, tag: u64) -> PhaseSpec {
        let mut p = self.main_phase(tag);
        for r in p.regions.iter_mut().skip(1) {
            r.weight *= 0.1;
        }
        p.longop_frac = (p.longop_frac + 0.10).min(0.4);
        p.dep_mean = (p.dep_mean * 1.2).min(24.0);
        p
    }

    fn build(&self, idx: usize) -> AppSpec {
        // A stable tag per (app, phase): app index in the suite.
        let base_tag = (idx as u64 + 1) * 1000;
        let phases: Vec<PhaseSpec> = match self.style {
            0 => vec![self.main_phase(base_tag)],
            1 => vec![self.main_phase(base_tag), self.light_phase(base_tag + 1)],
            _ => vec![
                self.main_phase(base_tag),
                self.light_phase(base_tag + 1),
                self.compute_phase(base_tag + 2),
            ],
        };
        let pattern: &[PhaseId] = match self.style {
            0 => &[0],
            1 => &[0, 0, 0, 1],
            _ => &[0, 0, 1, 0, 0, 2],
        };
        let sequence: Vec<PhaseId> =
            (0..self.intervals).map(|i| pattern[i % pattern.len()]).collect();
        AppSpec { name: self.name, category: self.cat, phases, sequence }
    }
}

/// The full 27-application suite, in Table II order (CS-PS, CS-PI, CI-PS,
/// CI-PI). Census: 5 + 7 + 7 + 8.
///
/// The table is built once per process, on the first call, and every call
/// borrows it. Callers that need owned specs filter first and then clone.
pub fn suite() -> &'static [AppSpec] {
    static SUITE: OnceLock<Vec<AppSpec>> = OnceLock::new();
    SUITE.get_or_init(build_suite)
}

/// Builds the suite from its calibration rows; only [`suite`] calls it.
fn build_suite() -> Vec<AppSpec> {
    use Category::*;
    use MemRegion as R;
    #[rustfmt::skip]
    let rows: Vec<Row> = vec![
        // ------------------------------------------------ CS-PS (5)
        // Sweep knees above the 8-way baseline (more ways pay off) and long
        // bursts of independent misses (bigger cores extract MLP).
        Row { name: "tonto",      cat: CsPs, mix: [0.24, 0.06, 0.10, 0.20], mispredict: 0.020, dep_mean: 9.0,  chase: 0.06, burst: 1.0, addr_dep: 0.2, hot: (144, 0.72), regions: vec![R::reuse_kib(3072, 0.0650), R::stream_mib(48, 0.0106)], intervals: 34, style: 2 },
        Row { name: "mcf",        cat: CsPs, mix: [0.24, 0.06, 0.14, 0.04], mispredict: 0.045, dep_mean: 9.0,  chase: 0.10, burst: 1.0, addr_dep: 0.2, hot: (128, 0.70), regions: vec![R::reuse_kib(3456, 0.0850), R::stream_mib(48, 0.0160)], intervals: 42, style: 1 },
        Row { name: "omnetpp",    cat: CsPs, mix: [0.24, 0.06, 0.16, 0.04], mispredict: 0.040, dep_mean: 9.0,  chase: 0.10, burst: 1.0, addr_dep: 0.2, hot: (160, 0.72), regions: vec![R::reuse_kib(3328, 0.0599), R::stream_mib(64, 0.0160)], intervals: 38, style: 1 },
        Row { name: "soplex",     cat: CsPs, mix: [0.24, 0.06, 0.12, 0.16], mispredict: 0.025, dep_mean: 10.0, chase: 0.06, burst: 1.0, addr_dep: 0.2, hot: (128, 0.70), regions: vec![R::reuse_kib(2880, 0.0500), R::stream_mib(48, 0.0106)], intervals: 30, style: 2 },
        Row { name: "sphinx3",    cat: CsPs, mix: [0.24, 0.06, 0.10, 0.18], mispredict: 0.018, dep_mean: 10.0, chase: 0.05, burst: 1.0, addr_dep: 0.2, hot: (160, 0.72), regions: vec![R::reuse_kib(3200, 0.0320), R::stream_mib(48, 0.0106)], intervals: 48, style: 1 },
        // ------------------------------------------------ CS-PI (7)
        // Knees mostly just below the baseline (reduction hurts badly,
        // increase helps little — the paper's Scenario 2 remark) and
        // chase-dominated short-burst misses: MLP stays near 1.
        Row { name: "bzip2",      cat: CsPi, mix: [0.28, 0.10, 0.15, 0.02], mispredict: 0.050, dep_mean: 5.0,  chase: 0.82, burst: 3.0, addr_dep: 0.9, hot: (144, 0.74), regions: vec![R::sweep_ways(5.2, 0.010), R::stream_mib(32, 0.003)],  intervals: 28, style: 1 },
        Row { name: "gcc",        cat: CsPi, mix: [0.27, 0.11, 0.18, 0.02], mispredict: 0.042, dep_mean: 5.0,  chase: 0.80, burst: 3.0, addr_dep: 0.9, hot: (160, 0.72), regions: vec![R::sweep_ways(5.4, 0.011), R::stream_mib(32, 0.003)],  intervals: 26, style: 2 },
        Row { name: "gobmk",      cat: CsPi, mix: [0.26, 0.10, 0.20, 0.02], mispredict: 0.062, dep_mean: 5.0,  chase: 0.78, burst: 3.0, addr_dep: 0.9, hot: (160, 0.75), regions: vec![R::sweep_ways(5.0, 0.008), R::stream_mib(32, 0.003)],  intervals: 24, style: 1 },
        Row { name: "gromacs",    cat: CsPi, mix: [0.26, 0.08, 0.10, 0.20], mispredict: 0.020, dep_mean: 5.0,  chase: 0.76, burst: 3.0, addr_dep: 0.9, hot: (144, 0.76), regions: vec![R::sweep_ways(5.2, 0.008), R::stream_mib(32, 0.003)],  intervals: 30, style: 1 },
        Row { name: "h264ref",    cat: CsPi, mix: [0.28, 0.10, 0.12, 0.10], mispredict: 0.030, dep_mean: 5.0,  chase: 0.78, burst: 3.0, addr_dep: 0.9, hot: (160, 0.72), regions: vec![R::reuse_kib(2560, 0.012), R::stream_mib(32, 0.004)], intervals: 36, style: 1 },
        Row { name: "hmmer",      cat: CsPi, mix: [0.30, 0.12, 0.08, 0.06], mispredict: 0.012, dep_mean: 5.0,  chase: 0.80, burst: 3.0, addr_dep: 0.9, hot: (176, 0.74), regions: vec![R::sweep_ways(4.8, 0.007), R::stream_mib(32, 0.003)],  intervals: 32, style: 0 },
        Row { name: "xalancbmk",  cat: CsPi, mix: [0.30, 0.10, 0.18, 0.02], mispredict: 0.038, dep_mean: 5.0,  chase: 0.85, burst: 3.0, addr_dep: 0.9, hot: (144, 0.70), regions: vec![R::reuse_kib(2880, 0.013), R::stream_mib(32, 0.004)], intervals: 40, style: 1 },
        // ------------------------------------------------ CI-PS (7)
        // Streaming-dominated misses (allocation-independent) arriving in
        // long independent bursts: MLP grows with the ROB/LSQ window.
        Row { name: "namd",       cat: CiPs, mix: [0.20, 0.04, 0.08, 0.30], mispredict: 0.012, dep_mean: 11.0, chase: 0.02, burst: 1.0, addr_dep: 0.05, hot: (176, 0.87), regions: vec![R::stream_mib(48, 0.0360)],                          intervals: 36, style: 1 },
        Row { name: "zeusmp",     cat: CiPs, mix: [0.20, 0.04, 0.08, 0.26], mispredict: 0.012, dep_mean: 10.0, chase: 0.02, burst: 1.0, addr_dep: 0.05, hot: (160, 0.80), regions: vec![R::stream_mib(64, 0.0961)],   intervals: 30, style: 1 },
        Row { name: "GemsFDTD",   cat: CiPs, mix: [0.20, 0.04, 0.06, 0.28], mispredict: 0.008, dep_mean: 10.0, chase: 0.01, burst: 1.0, addr_dep: 0.05, hot: (160, 0.78), regions: vec![R::stream_mib(96, 0.1008)],                          intervals: 44, style: 1 },
        Row { name: "bwaves",     cat: CiPs, mix: [0.20, 0.04, 0.06, 0.30], mispredict: 0.006, dep_mean: 11.0, chase: 0.01, burst: 1.0, addr_dep: 0.05, hot: (144, 0.78), regions: vec![R::stream_mib(128, 0.0930)],                          intervals: 52, style: 0 },
        Row { name: "leslie3d",   cat: CiPs, mix: [0.20, 0.04, 0.07, 0.28], mispredict: 0.008, dep_mean: 10.0, chase: 0.01, burst: 1.0, addr_dep: 0.05, hot: (160, 0.78), regions: vec![R::stream_mib(96, 0.0853)],                          intervals: 40, style: 1 },
        Row { name: "libquantum", cat: CiPs, mix: [0.20, 0.04, 0.14, 0.06], mispredict: 0.010, dep_mean: 11.0, chase: 0.00, burst: 1.0, addr_dep: 0.05, hot: (128, 0.76), regions: vec![R::stream_mib(192, 0.1240)],                          intervals: 60, style: 0 },
        Row { name: "wrf",        cat: CiPs, mix: [0.20, 0.04, 0.09, 0.26], mispredict: 0.014, dep_mean: 10.0, chase: 0.02, burst: 1.0, addr_dep: 0.05, hot: (160, 0.82), regions: vec![R::stream_mib(64, 0.0806)],  intervals: 34, style: 2 },
        // ------------------------------------------------ CI-PI (8)
        // Either compute-bound (MPKI below the 0.2 guard) or memory-bound
        // with serialized (chased / short-burst) misses.
        Row { name: "cactusADM",  cat: CiPi, mix: [0.28, 0.10, 0.06, 0.24], mispredict: 0.008, dep_mean: 5.0,  chase: 0.75, burst: 1.0, addr_dep: 0.2, hot: (160, 0.80), regions: vec![R::stream_mib(64, 0.034)],                          intervals: 38, style: 1 },
        Row { name: "dealII",     cat: CiPi, mix: [0.26, 0.08, 0.12, 0.20], mispredict: 0.018, dep_mean: 10.0,  chase: 0.30, burst: 4.0, addr_dep: 1.0, hot: (48, 0.90), regions: vec![R::reuse_kib(384, 0.05)],                           intervals: 28, style: 1 },
        Row { name: "gamess",     cat: CiPi, mix: [0.24, 0.08, 0.09, 0.30], mispredict: 0.010, dep_mean: 10.0,  chase: 0.10, burst: 2.0, addr_dep: 1.0, hot: (48, 0.97), regions: vec![],                                                  intervals: 32, style: 2 },
        Row { name: "perlbench",  cat: CiPi, mix: [0.27, 0.11, 0.21, 0.02], mispredict: 0.045, dep_mean: 10.0,  chase: 0.55, burst: 3.0, addr_dep: 1.0, hot: (48, 0.92), regions: vec![R::reuse_kib(448, 0.04)],                           intervals: 26, style: 1 },
        Row { name: "povray",     cat: CiPi, mix: [0.24, 0.08, 0.12, 0.28], mispredict: 0.022, dep_mean: 10.0,  chase: 0.15, burst: 2.0, addr_dep: 1.0, hot: (48, 0.98), regions: vec![],                                                  intervals: 30, style: 1 },
        Row { name: "sjeng",      cat: CiPi, mix: [0.24, 0.09, 0.22, 0.02], mispredict: 0.070, dep_mean: 10.0,  chase: 0.40, burst: 3.0, addr_dep: 1.0, hot: (48, 0.94), regions: vec![R::reuse_kib(384, 0.03)],                           intervals: 28, style: 0 },
        Row { name: "astar",      cat: CiPi, mix: [0.28, 0.09, 0.18, 0.02], mispredict: 0.055, dep_mean: 5.0,  chase: 0.80, burst: 4.0, addr_dep: 0.8, hot: (160, 0.76), regions: vec![R::reuse_kib(512, 0.16), R::stream_mib(32, 0.006)],                           intervals: 30, style: 1 },
        Row { name: "lbm",        cat: CiPi, mix: [0.26, 0.16, 0.04, 0.16], mispredict: 0.004, dep_mean: 5.0,  chase: 0.75, burst: 1.0, addr_dep: 0.1, hot: (144, 0.70), regions: vec![R::stream_mib(160, 0.05)],                          intervals: 46, style: 0 },
    ];
    rows.iter().enumerate().map(|(i, r)| r.build(i)).collect()
}

/// Look up an application by name, borrowing it from [`suite`].
pub fn by_name(name: &str) -> Option<&'static AppSpec> {
    suite().iter().find(|a| a.name == name)
}

/// Applications of a given category, in suite order, borrowed from [`suite`].
pub fn by_category(cat: Category) -> Vec<&'static AppSpec> {
    suite().iter().filter(|a| a.category == cat).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_table2() {
        let s = suite();
        assert_eq!(s.len(), 27);
        let count = |c| s.iter().filter(|a| a.category == c).count();
        assert_eq!(count(Category::CsPs), 5);
        assert_eq!(count(Category::CsPi), 7);
        assert_eq!(count(Category::CiPs), 7);
        assert_eq!(count(Category::CiPi), 8);
    }

    #[test]
    fn table2_membership() {
        for (name, cat) in [
            ("mcf", Category::CsPs),
            ("sphinx3", Category::CsPs),
            ("xalancbmk", Category::CsPi),
            ("hmmer", Category::CsPi),
            ("libquantum", Category::CiPs),
            ("bwaves", Category::CiPs),
            ("lbm", Category::CiPi),
            ("povray", Category::CiPi),
        ] {
            assert_eq!(by_name(name).unwrap().category, cat, "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let s = suite();
        let mut names: Vec<_> = s.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn all_specs_validate() {
        for app in suite() {
            for (i, p) in app.phases.iter().enumerate() {
                p.validate().unwrap_or_else(|e| panic!("{} phase {i}: {e}", app.name));
            }
            assert!(!app.sequence.is_empty(), "{}", app.name);
            for &p in &app.sequence {
                assert!(p < app.phases.len(), "{} references missing phase", app.name);
            }
        }
    }

    #[test]
    fn phase_weights_sum_to_one() {
        for app in suite() {
            let w = app.phase_weights();
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "{}", app.name);
            assert!(w.iter().all(|&x| x > 0.0), "{} has an unused phase", app.name);
        }
    }

    #[test]
    fn phase_tags_are_globally_unique() {
        let mut tags = Vec::new();
        for app in suite() {
            for p in &app.phases {
                tags.push(p.tag);
            }
        }
        let n = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), n);
    }

    #[test]
    fn category_predicates() {
        assert!(Category::CsPs.cache_sensitive());
        assert!(Category::CsPs.parallelism_sensitive());
        assert!(Category::CsPi.cache_sensitive());
        assert!(!Category::CsPi.parallelism_sensitive());
        assert!(!Category::CiPs.cache_sensitive());
        assert!(Category::CiPs.parallelism_sensitive());
        assert!(!Category::CiPi.cache_sensitive());
        assert!(!Category::CiPi.parallelism_sensitive());
    }

    #[test]
    fn interval_counts_vary() {
        let s = suite();
        let min = s.iter().map(|a| a.n_intervals()).min().unwrap();
        let max = s.iter().map(|a| a.n_intervals()).max().unwrap();
        assert!(min >= 20, "apps must run at least 20 intervals, got {min}");
        assert!(max > min, "suite should have heterogeneous lengths");
    }

    #[test]
    fn by_category_returns_only_that_category() {
        for c in Category::ALL {
            for app in by_category(c) {
                assert_eq!(app.category, c);
            }
        }
    }

    #[test]
    fn suite_is_built_once() {
        assert!(std::ptr::eq(suite(), suite()));
    }

    #[test]
    fn lookups_borrow_from_the_suite() {
        let in_suite = |app: &AppSpec| suite().iter().any(|a| std::ptr::eq(a, app));
        assert!(in_suite(by_name("mcf").unwrap()));
        for c in Category::ALL {
            assert!(by_category(c).into_iter().all(in_suite), "{c}");
        }
    }

    #[test]
    fn racing_first_calls_see_one_suite() {
        // Other tests in this binary may build the suite first; the barrier
        // still lines the eight calls up as close together as it can.
        let start = std::sync::Barrier::new(8);
        let addrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        suite().as_ptr() as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(addrs.iter().all(|&a| a == suite().as_ptr() as usize));
    }

    #[test]
    fn ps_apps_expose_independent_misses() {
        // Structural sanity of the calibration: PS rows rely on independent,
        // address-ready misses whose overlap is bounded by the instruction
        // window; PI rows either serialize their misses through pointer
        // chases or have (almost) no LLC traffic to overlap.
        for app in suite() {
            let main = &app.phases[0];
            // Regions large enough to miss at the baseline allocation
            // (2 MB = 32768 blocks) are the ones whose overlap matters.
            let llc_weight: f64 =
                main.regions.iter().filter(|r| r.blocks > 32_768).map(|r| r.weight).sum();
            if app.category.parallelism_sensitive() {
                assert!(main.chase_frac <= 0.2, "{} chase {}", app.name, main.chase_frac);
                assert!(main.addr_dep <= 0.25, "{} addr_dep {}", app.name, main.addr_dep);
                assert!(llc_weight > 0.01, "{} needs LLC traffic", app.name);
            } else {
                assert!(
                    main.chase_frac >= 0.35 || llc_weight < 0.012,
                    "{} would expose size-dependent MLP",
                    app.name
                );
            }
        }
    }
}
