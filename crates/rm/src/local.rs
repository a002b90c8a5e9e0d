//! Local optimization: per-core energy curves `E(w)`, `f*(w)` and `c*(w)`.
//!
//! For every candidate allocation `w`, the local optimizer finds the
//! minimal-energy `(c, f)` pair that satisfies QoS (Eq. 3) against the
//! predicted baseline time, scanning frequencies bottom-up so that `f*` is
//! the *minimum* feasible frequency per core size (§III-A). The controller
//! kind decides which core sizes and frequencies may be touched.

use crate::qos::qos_ok;
use triad_arch::{CoreSize, DvfsGrid, Setting};

/// A predictor of next-interval behavior at an arbitrary setting.
///
/// Implemented by [`crate::OnlineModel`] (the paper's Eq. 1–5) and by the
/// simulator's *perfect* model (ground-truth database lookups). Both carry
/// a `&dyn triad_energy::EnergyBackend`, so the energy side of every
/// prediction — and therefore every plan the optimizers below produce —
/// follows whichever backend the experiment spec selected.
pub trait IntervalModel {
    /// Predicted `(seconds, joules)` per instruction at `s`.
    fn predict(&self, s: Setting) -> (f64, f64);
}

/// Which resources the controller may manage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmKind {
    /// LLC partitioning only (baseline `c` and `f` pinned).
    Rm1,
    /// LLC partitioning coordinated with per-core DVFS (prior art).
    Rm2,
    /// LLC + DVFS + core-size adaptation (the proposed scheme). Following
    /// the paper's §II finding that "there are only few cases where
    /// selecting the smallest core size leads to considerable energy
    /// saving", the search space is {baseline, larger} core sizes.
    Rm3,
    /// RM3 with the full core-size space including down-sizing to S — the
    /// ablation the paper's §II remark refers to.
    Rm3Full,
}

impl RmKind {
    /// The paper's three controllers, in paper order.
    pub const ALL: [RmKind; 3] = [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3];

    /// Display label ("RM1"…).
    pub fn label(self) -> &'static str {
        match self {
            RmKind::Rm1 => "RM1",
            RmKind::Rm2 => "RM2",
            RmKind::Rm3 => "RM3",
            RmKind::Rm3Full => "RM3-full",
        }
    }

    /// Core sizes this controller may select, in [`CoreSize::ALL`] order:
    /// a fixed-capacity array plus the live count (no allocation).
    pub fn core_choice_array(self, baseline: CoreSize) -> ([CoreSize; CoreSize::COUNT], usize) {
        let mut buf = [baseline; CoreSize::COUNT];
        let mut n = 0;
        match self {
            RmKind::Rm1 | RmKind::Rm2 => n = 1,
            RmKind::Rm3 => {
                for c in CoreSize::ALL {
                    if c >= baseline {
                        buf[n] = c;
                        n += 1;
                    }
                }
            }
            RmKind::Rm3Full => {
                buf = CoreSize::ALL;
                n = CoreSize::COUNT;
            }
        }
        (buf, n)
    }
}

impl std::fmt::Display for RmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The local optimizer's product for one core: an energy curve over `w`
/// plus the `(c, f)` choice behind every point.
#[derive(Debug, Clone)]
pub struct LocalPlan {
    /// Smallest allocation in the domain.
    pub min_w: usize,
    /// Predicted energy per instruction for each `w` (`INFINITY` =
    /// infeasible under QoS).
    pub energy: Vec<f64>,
    /// The chosen setting per `w` (aligned with `energy`).
    pub setting: Vec<Option<Setting>>,
    /// Model evaluations performed (the §III-E algorithm-overhead proxy).
    pub ops: u64,
}

impl LocalPlan {
    /// Energy at allocation `w`.
    pub fn energy_at(&self, w: usize) -> f64 {
        self.energy[w - self.min_w]
    }

    /// Chosen setting at allocation `w`.
    pub fn setting_at(&self, w: usize) -> Option<Setting> {
        self.setting[w - self.min_w]
    }

    /// The plan of a core with no usable statistics (it never completed an
    /// interval, or sits vacant): feasible only at the baseline allocation,
    /// at zero predicted energy, with no model evaluations behind it. One
    /// such plan serves every statistics-less core of a run — the contents
    /// never vary — so callers construct it once and share it.
    pub fn pinned(way_range: std::ops::RangeInclusive<usize>, baseline: Setting) -> LocalPlan {
        let min_w = *way_range.start();
        let n = way_range.end() - min_w + 1;
        assert!(way_range.contains(&baseline.ways), "baseline allocation must be in the domain");
        let mut energy = vec![f64::INFINITY; n];
        let mut setting = vec![None; n];
        energy[baseline.ways - min_w] = 0.0;
        setting[baseline.ways - min_w] = Some(baseline);
        LocalPlan { min_w, energy, setting, ops: 0 }
    }
}

/// Run the local optimization for one core.
///
/// * `model` — predictor for the upcoming interval;
/// * `kind` — controller (decides the `c`/`f` search space);
/// * `baseline` — the QoS reference setting (Table I baseline);
/// * `way_range` — candidate allocations (Table I: 2..=16, tighter on
///   2-core systems);
/// * `alpha` — QoS slack (Eq. 3; 1.0 in the paper).
pub fn local_optimize(
    model: &dyn IntervalModel,
    kind: RmKind,
    baseline: Setting,
    grid: &DvfsGrid,
    way_range: std::ops::RangeInclusive<usize>,
    alpha: f64,
) -> LocalPlan {
    let mut ops: u64 = 0;
    // Predicted baseline time is the QoS budget (Eq. 3 uses the *model* for
    // both sides, so model bias partially cancels).
    let (t_base, _) = model.predict(baseline);
    ops += 1;

    let min_w = *way_range.start();
    let n = way_range.end() - min_w + 1;
    let mut energy = vec![f64::INFINITY; n];
    let mut setting = vec![None; n];

    let (choices, n_choices) = kind.core_choice_array(baseline.core);
    for w in way_range {
        let mut best_e = f64::INFINITY;
        let mut best_s = None;
        for &c in &choices[..n_choices] {
            match kind {
                RmKind::Rm1 => {
                    // Fixed baseline VF: only feasibility and energy.
                    let s = Setting::new(c, baseline.vf, w);
                    let (t, e) = model.predict(s);
                    ops += 1;
                    if qos_ok(t, t_base, alpha) && e < best_e {
                        best_e = e;
                        best_s = Some(s);
                    }
                }
                RmKind::Rm2 | RmKind::Rm3 | RmKind::Rm3Full => {
                    // Minimal feasible frequency for this (c, w).
                    for (vf, _) in grid.iter() {
                        let s = Setting::new(c, vf, w);
                        let (t, e) = model.predict(s);
                        ops += 1;
                        if qos_ok(t, t_base, alpha) {
                            if e < best_e {
                                best_e = e;
                                best_s = Some(s);
                            }
                            break; // f*(c, w) found: higher f only costs energy
                        }
                    }
                }
            }
        }
        energy[w - min_w] = best_e;
        setting[w - min_w] = best_s;
    }
    LocalPlan { min_w, energy, setting, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic model: time improves with ways, frequency and core size;
    /// energy grows with V²f and core size.
    struct Toy {
        grid: DvfsGrid,
        /// memory seconds/instruction per w (index w-2)
        mem: Vec<f64>,
    }

    impl IntervalModel for Toy {
        fn predict(&self, s: Setting) -> (f64, f64) {
            let f = self.grid.point(s.vf).freq_hz;
            let v = self.grid.point(s.vf).volt;
            let compute = 0.5 / s.core.dispatch_width() as f64 * 4.0 / f * 1e9 / 1e9;
            let t = compute + self.mem[s.ways - 2];
            let p_dyn = [1.1, 2.2, 4.3][s.core.index()] * v * v * (f / 2.0e9);
            let p_static = [0.3, 0.6, 1.25][s.core.index()] * v;
            (t, (p_dyn + p_static) * t)
        }
    }

    fn toy() -> Toy {
        Toy {
            grid: DvfsGrid::table1(),
            mem: (0..15).map(|i| (2.0 - 0.1 * i as f64) * 1e-10).collect(),
        }
    }

    fn baseline(grid: &DvfsGrid) -> Setting {
        Setting::new(CoreSize::M, grid.baseline, 8)
    }

    #[test]
    fn baseline_allocation_is_always_feasible() {
        let t = toy();
        let b = baseline(&t.grid);
        for kind in RmKind::ALL {
            let plan = local_optimize(&t, kind, b, &t.grid, 2..=16, 1.0);
            assert!(
                plan.energy_at(8).is_finite(),
                "{kind}: baseline w must be feasible (baseline itself qualifies)"
            );
            let s = plan.setting_at(8).unwrap();
            let (tt, _) = t.predict(s);
            let (tb, _) = t.predict(b);
            assert!(tt <= tb + 1e-15);
        }
    }

    #[test]
    fn rm1_never_touches_core_or_frequency() {
        let t = toy();
        let b = baseline(&t.grid);
        let plan = local_optimize(&t, RmKind::Rm1, b, &t.grid, 2..=16, 1.0);
        for w in 2..=16 {
            if let Some(s) = plan.setting_at(w) {
                assert_eq!(s.core, b.core);
                assert_eq!(s.vf, b.vf);
                assert_eq!(s.ways, w);
            }
        }
    }

    #[test]
    fn rm2_lowers_frequency_when_ways_increase() {
        // With more ways, memory time shrinks, so a lower f still meets QoS
        // and saves energy.
        let t = toy();
        let b = baseline(&t.grid);
        let plan = local_optimize(&t, RmKind::Rm2, b, &t.grid, 2..=16, 1.0);
        let f8 = plan.setting_at(8).unwrap().vf;
        let f16 = plan.setting_at(16).unwrap().vf;
        assert!(f16 <= f8, "more cache ⇒ lower f*: {f16} vs {f8}");
        assert!(plan.energy_at(16) <= plan.energy_at(8));
        // And fewer ways require a higher frequency.
        let f2 = plan.setting_at(2).unwrap().vf;
        assert!(f2 >= f8);
    }

    #[test]
    fn rm3_exploits_bigger_cores_at_lower_frequency() {
        let t = toy();
        let b = baseline(&t.grid);
        let p2 = local_optimize(&t, RmKind::Rm2, b, &t.grid, 2..=16, 1.0);
        let p3 = local_optimize(&t, RmKind::Rm3, b, &t.grid, 2..=16, 1.0);
        for w in 2..=16 {
            assert!(
                p3.energy_at(w) <= p2.energy_at(w) + 1e-18,
                "RM3's search space contains RM2's: w={w}"
            );
        }
        // In this toy, the L core at a low VF beats M pushed high: RM3
        // should pick a larger core somewhere.
        let picked_l =
            (2..=16).any(|w| p3.setting_at(w).map(|s| s.core == CoreSize::L).unwrap_or(false));
        assert!(picked_l, "RM3 should exploit the wide core");
    }

    #[test]
    fn infeasible_points_are_infinite() {
        // A model in which small allocations can never meet QoS.
        struct Harsh {
            grid: DvfsGrid,
        }
        impl IntervalModel for Harsh {
            fn predict(&self, s: Setting) -> (f64, f64) {
                let t = if s.ways < 8 { 1.0 } else { 1e-9 };
                (t, 1.0)
            }
        }
        let h = Harsh { grid: DvfsGrid::table1() };
        let b = Setting::new(CoreSize::M, h.grid.baseline, 8);
        let plan = local_optimize(&h, RmKind::Rm2, b, &h.grid, 2..=16, 1.0);
        for w in 2..=7 {
            assert!(plan.energy_at(w).is_infinite(), "w={w}");
            assert!(plan.setting_at(w).is_none());
        }
        for w in 8..=16 {
            assert!(plan.energy_at(w).is_finite(), "w={w}");
        }
    }

    #[test]
    fn relaxing_alpha_never_increases_energy() {
        let t = toy();
        let b = baseline(&t.grid);
        let tight = local_optimize(&t, RmKind::Rm3, b, &t.grid, 2..=16, 1.0);
        let loose = local_optimize(&t, RmKind::Rm3, b, &t.grid, 2..=16, 1.2);
        for w in 2..=16 {
            assert!(loose.energy_at(w) <= tight.energy_at(w) + 1e-18, "w={w}");
        }
    }

    #[test]
    fn op_counts_grow_with_controller_scope() {
        let t = toy();
        let b = baseline(&t.grid);
        let o1 = local_optimize(&t, RmKind::Rm1, b, &t.grid, 2..=16, 1.0).ops;
        let o2 = local_optimize(&t, RmKind::Rm2, b, &t.grid, 2..=16, 1.0).ops;
        let o3 = local_optimize(&t, RmKind::Rm3, b, &t.grid, 2..=16, 1.0).ops;
        assert!(o1 < o2, "{o1} {o2}");
        assert!(o2 < o3, "{o2} {o3}");
    }

    #[test]
    fn frequency_scan_picks_minimum_feasible() {
        let t = toy();
        let b = baseline(&t.grid);
        let plan = local_optimize(&t, RmKind::Rm2, b, &t.grid, 2..=16, 1.0);
        for w in 2..=16 {
            if let Some(s) = plan.setting_at(w) {
                // Every lower frequency must violate QoS.
                let (tb, _) = t.predict(b);
                for vf in 0..s.vf {
                    let (tt, _) = t.predict(Setting::new(s.core, vf, w));
                    assert!(tt > tb, "w={w}, vf={vf} should be infeasible");
                }
            }
        }
    }
}
