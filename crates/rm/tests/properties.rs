//! Randomized property tests for the resource-manager optimizers.
//!
//! The global optimizer is checked against a brute-force enumeration of
//! way allocations on small instances (2–4 cores, curves up to 8 ways
//! wide), including `INFINITY`-infeasible curve entries, at both the
//! `optimize_partition` and the `plan_system` level. The local-optimizer
//! properties mirror the former proptest suite with a deterministic
//! workspace PRNG, so failures reproduce bit-exactly.

use triad_arch::{CoreSize, DvfsGrid, Setting};
use triad_rm::{
    local_optimize, optimize_partition, plan_system, EnergyCurve, IntervalModel, LocalPlan,
    PlannerState, RmKind,
};
use triad_util::rand::rngs::StdRng;
use triad_util::rand::{RngExt, SeedableRng};

/// Exhaustive reference optimizer: minimum of `Σ E_j(w_j)` over every
/// feasible allocation with `Σ w_j = total`.
fn brute_force(curves: &[EnergyCurve], total: usize) -> Option<(Vec<usize>, f64)> {
    fn rec(
        curves: &[EnergyCurve],
        i: usize,
        left: usize,
        acc: f64,
        cur: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if i == curves.len() {
            if left == 0 && acc.is_finite() && best.as_ref().map(|(_, e)| acc < *e).unwrap_or(true)
            {
                *best = Some((cur.clone(), acc));
            }
            return;
        }
        let c = &curves[i];
        for w in c.min_w..=c.max_w().min(left) {
            cur.push(w);
            rec(curves, i + 1, left - w, acc + c.at(w), cur, best);
            cur.pop();
        }
    }
    let mut best = None;
    rec(curves, 0, total, 0.0, &mut Vec::new(), &mut best);
    best
}

/// A random small instance: `n` curves starting at `min_w` with `len`
/// points each, a fraction of which are infeasible.
fn random_curves(
    rng: &mut StdRng,
    n: usize,
    min_w: usize,
    len: usize,
    p_inf: f64,
) -> Vec<EnergyCurve> {
    (0..n)
        .map(|_| EnergyCurve {
            min_w,
            energy: (0..len)
                .map(|_| {
                    if rng.random_bool(p_inf) {
                        f64::INFINITY
                    } else {
                        0.01 + rng.random::<f64>() * 10.0
                    }
                })
                .collect(),
        })
        .collect()
}

#[test]
fn global_optimizer_matches_brute_force_on_small_instances() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..300 {
        let n = 2 + trial % 3; // 2..=4 cores
        let len = 3 + trial % 6; // 3..=8 way choices per curve
        let min_w = 1 + trial % 2;
        let p_inf = [0.0, 0.1, 0.35][trial % 3];
        let curves = random_curves(&mut rng, n, min_w, len, p_inf);
        // Totals from infeasibly small through infeasibly large.
        let lo = n * min_w;
        let hi = n * (min_w + len - 1);
        for total in (lo.saturating_sub(1))..=(hi + 1) {
            let fast = optimize_partition(&curves, total);
            let slow = brute_force(&curves, total);
            match (&fast, &slow) {
                (Some((ws, e, _)), Some((_, eb))) => {
                    assert!((e - eb).abs() < 1e-9, "trial {trial} total {total}: {e} vs {eb}");
                    assert_eq!(ws.iter().sum::<usize>(), total);
                    let realized: f64 = ws.iter().enumerate().map(|(i, &w)| curves[i].at(w)).sum();
                    assert!(
                        (realized - e).abs() < 1e-9,
                        "trial {trial}: assignment must realize the optimum"
                    );
                }
                (None, None) => {}
                _ => panic!("trial {trial} total {total}: fast {fast:?} vs slow {slow:?}"),
            }
        }
    }
}

#[test]
fn plan_system_matches_brute_force_including_infeasible_entries() {
    let grid = DvfsGrid::table1();
    let baseline = Setting::new(CoreSize::M, grid.baseline, 2);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..200 {
        let n = 2 + trial % 3;
        let len = 4 + trial % 5; // 4..=8 way choices
        let min_w = 1;
        let curves = random_curves(&mut rng, n, min_w, len, 0.2);
        let plans: Vec<LocalPlan> = curves
            .iter()
            .map(|c| LocalPlan {
                min_w: c.min_w,
                energy: c.energy.clone(),
                setting: c
                    .energy
                    .iter()
                    .enumerate()
                    .map(|(i, e)| e.is_finite().then(|| Setting::new(CoreSize::M, 0, c.min_w + i)))
                    .collect(),
                ops: 1,
            })
            .collect();
        let total = n * (min_w + len - 1) / 2 + n; // somewhere mid-domain
        let decision = plan_system(&plans, total, baseline);
        match brute_force(&curves, total) {
            Some((_, eb)) => {
                assert!(
                    (decision.predicted_energy - eb).abs() < 1e-9,
                    "trial {trial}: {} vs brute-force {eb}",
                    decision.predicted_energy
                );
                assert_eq!(
                    decision.settings.iter().map(|s| s.ways).sum::<usize>(),
                    total,
                    "trial {trial}: Σw must hit the associativity budget"
                );
            }
            None => {
                // Infeasible: the planner falls back to the baseline.
                assert!(decision.predicted_energy.is_infinite(), "trial {trial}");
                assert!(decision.settings.iter().all(|s| *s == baseline), "trial {trial}");
            }
        }
    }
}

/// A random [`LocalPlan`] over `min_w..min_w+len`: the curve from
/// [`random_curves`], a distinct setting per feasible point and a random
/// ops count (so ops-sum mismatches cannot hide).
fn random_plan(rng: &mut StdRng, min_w: usize, len: usize, p_inf: f64) -> LocalPlan {
    let c = random_curves(rng, 1, min_w, len, p_inf).remove(0);
    let setting = c
        .energy
        .iter()
        .enumerate()
        .map(|(i, e)| e.is_finite().then(|| Setting::new(CoreSize::M, i % 3, min_w + i)))
        .collect();
    LocalPlan { min_w, energy: c.energy, setting, ops: rng.random_range(0..50u64) }
}

/// The tentpole guarantee: a persistent planner fed an arbitrary event
/// sequence (leaf updates, pinned resets — the shapes arrivals, churn,
/// departures and interval completions produce) returns decisions
/// **bit-identical** to a from-scratch `plan_system` over the same plans:
/// same settings, same predicted-energy bits, same reported `ops` —
/// including the infeasible fallback, which counts only local ops.
#[test]
fn incremental_planner_matches_from_scratch_bit_for_bit() {
    let grid = DvfsGrid::table1();
    let mut rng = StdRng::seed_from_u64(0x1AC5);
    for &n in &[1usize, 2, 3, 4, 5, 8, 9] {
        let min_w = 1;
        let len = 6; // ways 1..=6 per core
        let way_range = min_w..=(min_w + len - 1);
        let baseline = Setting::new(CoreSize::M, grid.baseline, 2);
        let total = n * (2 * min_w + len - 1) / 2; // mid-domain
        let mut state = PlannerState::new(n, way_range.clone(), total, baseline);
        let pinned = LocalPlan::pinned(way_range.clone(), baseline);
        let mut mirror: Vec<LocalPlan> = vec![pinned.clone(); n];
        let bits = |p: &LocalPlan| {
            (p.ops, p.setting.clone(), p.energy.iter().map(|e| e.to_bits()).collect::<Vec<_>>())
        };
        let mut via_set_leaf_pinned = true;

        for step in 0..=60 {
            if step > 0 {
                // One event: some core's leaf changes.
                let j = rng.random_range(0..n as u64) as usize;
                if rng.random_bool(0.25) {
                    // A pinned reset, alternately through the dedicated
                    // entry point and as an ordinary plan; both report a
                    // change exactly when the leaf was not already pinned.
                    let was_pinned = bits(&mirror[j]) == bits(&pinned);
                    let changed = if via_set_leaf_pinned {
                        state.set_leaf_pinned(j)
                    } else {
                        state.set_leaf(j, &pinned)
                    };
                    via_set_leaf_pinned = !via_set_leaf_pinned;
                    assert_eq!(changed, !was_pinned, "n={n} step={step}");
                    assert!(!state.set_leaf_pinned(j), "n={n} step={step}: already pinned");
                    assert!(!state.set_leaf(j, &pinned), "n={n} step={step}: already pinned");
                    mirror[j] = pinned.clone();
                } else {
                    let p_inf = [0.0, 0.2, 0.6][step % 3];
                    let plan = random_plan(&mut rng, min_w, len, p_inf);
                    state.set_leaf(j, &plan);
                    mirror[j] = plan;
                }
            }
            let scratch = plan_system(&mirror, total, baseline);
            let inc = state.replan();
            assert_eq!(inc.ops, scratch.ops, "n={n} step={step}: ops must match exactly");
            assert_eq!(
                inc.predicted_energy.to_bits(),
                scratch.predicted_energy.to_bits(),
                "n={n} step={step}: energy must be bit-identical"
            );
            assert_eq!(
                inc.settings,
                &scratch.settings[..],
                "n={n} step={step}: settings must match"
            );
            if n <= 4 {
                let curves: Vec<EnergyCurve> = mirror
                    .iter()
                    .map(|p| EnergyCurve { min_w: p.min_w, energy: p.energy.clone() })
                    .collect();
                match brute_force(&curves, total) {
                    Some((_, eb)) => assert!(
                        (inc.predicted_energy - eb).abs() < 1e-9,
                        "n={n} step={step}: {} vs brute-force {eb}",
                        inc.predicted_energy
                    ),
                    None => assert!(
                        inc.predicted_energy.is_infinite(),
                        "n={n} step={step}: brute force says infeasible"
                    ),
                }
            }
        }
    }
}

/// An out-of-domain ways budget must reproduce `plan_system`'s baseline
/// fallback (infinite energy, local-only ops) from the persistent planner
/// too.
#[test]
fn incremental_planner_matches_fallback_when_total_out_of_domain() {
    let grid = DvfsGrid::table1();
    let baseline = Setting::new(CoreSize::M, grid.baseline, 2);
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let (n, min_w, len) = (4usize, 1usize, 6usize);
    let total = n * (min_w + len - 1) + 3; // larger than any allocation
    let mut state = PlannerState::new(n, min_w..=(min_w + len - 1), total, baseline);
    let mut mirror = Vec::new();
    for j in 0..n {
        let plan = random_plan(&mut rng, min_w, len, 0.1);
        state.set_leaf(j, &plan);
        mirror.push(plan);
    }
    let scratch = plan_system(&mirror, total, baseline);
    let inc = state.replan();
    assert!(inc.predicted_energy.is_infinite());
    assert_eq!(inc.ops, scratch.ops, "fallback counts only the local ops");
    assert_eq!(inc.settings, &scratch.settings[..]);
}

/// A randomized-but-lawful model for local-optimizer properties.
struct RandModel {
    grid: DvfsGrid,
    mem: Vec<f64>,
    compute_scale: f64,
}

impl IntervalModel for RandModel {
    fn predict(&self, s: Setting) -> (f64, f64) {
        let f = self.grid.point(s.vf).freq_hz;
        let v = self.grid.point(s.vf).volt;
        let t =
            self.compute_scale / f * 4.0 / s.core.dispatch_width() as f64 + self.mem[s.ways - 2];
        let p = [1.4, 2.8, 5.5][s.core.index()] * v * v * (f / 2.0e9) + 0.5 * v;
        (t, p * t)
    }
}

fn random_model(rng: &mut StdRng) -> RandModel {
    // Monotone non-increasing memory curve over ways.
    let mut mem: Vec<f64> = (0..15).map(|_| 1.0e-11 + rng.random::<f64>() * 4.9e-10).collect();
    mem.sort_by(|a, b| b.total_cmp(a));
    RandModel { grid: DvfsGrid::table1(), mem, compute_scale: 0.3 + rng.random::<f64>() * 2.7 }
}

#[test]
fn local_plans_respect_qos() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for trial in 0..40 {
        let model = random_model(&mut rng);
        let baseline = Setting::new(CoreSize::M, model.grid.baseline, 8);
        let (t_base, _) = model.predict(baseline);
        for kind in RmKind::ALL {
            let plan = local_optimize(&model, kind, baseline, &model.grid, 2..=16, 1.0);
            assert!(plan.energy_at(8).is_finite(), "trial {trial} {kind}");
            for w in 2..=16 {
                if let Some(s) = plan.setting_at(w) {
                    let (t, e) = model.predict(s);
                    assert!(t <= t_base * (1.0 + 1e-12), "trial {trial} {kind} w={w}");
                    assert!((e - plan.energy_at(w)).abs() < 1e-15);
                    assert_eq!(s.ways, w);
                }
            }
        }
    }
}

#[test]
fn controller_hierarchy_dominates() {
    let mut rng = StdRng::seed_from_u64(0xD0E);
    for trial in 0..40 {
        let model = random_model(&mut rng);
        let baseline = Setting::new(CoreSize::M, model.grid.baseline, 8);
        let p1 = local_optimize(&model, RmKind::Rm1, baseline, &model.grid, 2..=16, 1.0);
        let p2 = local_optimize(&model, RmKind::Rm2, baseline, &model.grid, 2..=16, 1.0);
        let p3 = local_optimize(&model, RmKind::Rm3, baseline, &model.grid, 2..=16, 1.0);
        let p3f = local_optimize(&model, RmKind::Rm3Full, baseline, &model.grid, 2..=16, 1.0);
        for w in 2..=16 {
            assert!(p2.energy_at(w) <= p1.energy_at(w) + 1e-18, "trial {trial} w={w}");
            assert!(p3.energy_at(w) <= p2.energy_at(w) + 1e-18, "trial {trial} w={w}");
            assert!(p3f.energy_at(w) <= p3.energy_at(w) + 1e-18, "trial {trial} w={w}");
        }
    }
}
