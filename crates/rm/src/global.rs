//! Global optimization: recursive pairwise reduction of energy curves.
//!
//! The interface between local and global optimization is an energy curve
//! per core (§III-A). Two curves combine into one over their summed
//! allocation: `E_ab(s) = min_{wa + wb = s} E_a(wa) + E_b(wb)`; reducing
//! pairs recursively yields a single curve whose value at the total LLC
//! associativity `A` is the optimal system energy, and back-tracking the
//! recorded argmins recovers the per-core allocation `{w*_j}`. The
//! procedure is polynomial in the core count — the property the paper
//! highlights — and independent of *how* each local point was produced
//! (RM1/RM2/RM3 all feed it).

/// One core's energy-vs-allocation curve (`INFINITY` = infeasible).
#[derive(Debug, Clone)]
pub struct EnergyCurve {
    /// Smallest allocation in the domain.
    pub min_w: usize,
    /// Energy per instruction for `w = min_w ..`.
    pub energy: Vec<f64>,
}

impl EnergyCurve {
    /// Largest allocation in the domain.
    pub fn max_w(&self) -> usize {
        self.min_w + self.energy.len() - 1
    }

    /// Energy at allocation `w`.
    pub fn at(&self, w: usize) -> f64 {
        self.energy[w - self.min_w]
    }
}

/// A reduction-tree node: either one core or a combined curve with the
/// argmin table needed for back-tracking.
enum Node {
    Leaf { core: usize, curve: EnergyCurve },
    Pair { left: Box<Node>, right: Box<Node>, curve: EnergyCurve, choice: Vec<usize> },
}

impl Node {
    fn curve(&self) -> &EnergyCurve {
        match self {
            Node::Leaf { curve, .. } => curve,
            Node::Pair { curve, .. } => curve,
        }
    }

    /// Walk down assigning `s` ways to this subtree.
    fn assign(&self, s: usize, out: &mut [usize]) {
        match self {
            Node::Leaf { core, .. } => out[*core] = s,
            Node::Pair { left, right, curve, choice } => {
                let wa = choice[s - curve.min_w];
                left.assign(wa, out);
                right.assign(s - wa, out);
            }
        }
    }
}

/// Combine two curves, recording the left-side argmin per sum.
/// Returns the combined curve, the argmin table and the number of inner
/// iterations (the algorithm-overhead proxy).
pub fn reduce_curves(a: &EnergyCurve, b: &EnergyCurve) -> (EnergyCurve, Vec<usize>, u64) {
    let min_s = a.min_w + b.min_w;
    let len = a.energy.len() + b.energy.len() - 1;
    let mut energy = vec![f64::INFINITY; len];
    let mut choice = vec![a.min_w; len];
    let ops = reduce_curves_into(a.min_w, &a.energy, &b.energy, &mut energy, &mut choice);
    (EnergyCurve { min_w: min_s, energy }, choice, ops)
}

/// The allocation-free core of [`reduce_curves`]: combine two dense energy
/// slices into caller-owned output buffers, resetting them first. Entry
/// `k` of `energy`/`choice` is the sum `a_min + b_min + k`; only `a_min`
/// is needed, because the argmins are recorded as left-side allocations.
/// Both buffers must have length `a.len() + b.len() - 1` (the combined
/// domain). Returns the inner-iteration count `a.len() × b.len()` — the
/// §III-E overhead proxy, a pure function of the two domain shapes.
///
/// This is what [`crate::planner::PlannerState`] calls per pair-node so a
/// re-plan never allocates.
///
/// **Select form.** The loop runs `wa` outer and `wb` inner: row `wa`
/// folds `a[wa] + b[·]` into the contiguous output window starting at sum
/// `wa + b_min`, and each lane keeps the smaller value and its `wa` with a
/// branch-free select, so the inner loop autovectorizes. For any one sum
/// `s` the candidates still arrive in ascending `wa` order and replace the
/// incumbent only on a strict `<` — the same order and comparison as the
/// per-sum scan [`reduce_curves_at`] — so every energy bit and every
/// argmin (ties resolve to the lowest `wa`; an all-infeasible sum keeps
/// `a_min`) is identical to it.
pub fn reduce_curves_into(
    a_min: usize,
    a: &[f64],
    b: &[f64],
    energy: &mut [f64],
    choice: &mut [usize],
) -> u64 {
    debug_assert_eq!(energy.len(), a.len() + b.len() - 1, "output buffers must span the domain");
    debug_assert_eq!(choice.len(), energy.len());
    energy.fill(f64::INFINITY);
    choice.fill(a_min);
    for (i, &ea) in a.iter().enumerate() {
        let wa = a_min + i;
        let e_row = &mut energy[i..i + b.len()];
        let c_row = &mut choice[i..i + b.len()];
        for ((e, c), &eb) in e_row.iter_mut().zip(c_row.iter_mut()).zip(b) {
            let t = ea + eb;
            let lt = t < *e;
            *e = if lt { t } else { *e };
            *c = if lt { wa } else { *c };
        }
    }
    (a.len() * b.len()) as u64
}

/// Evaluate one entry of the combined curve: `E_ab(s)` and its left-side
/// argmin, without sweeping the joint domain. Returns `None` when `s` is
/// outside it. Candidates are scanned in ascending `wa` with a strict `<`
/// — the per-sum order [`reduce_curves_into`] preserves — so the returned
/// energy and argmin are bit-identical to the corresponding entries of
/// the full sweep. This is how [`crate::planner::PlannerState`] evaluates
/// the root node, whose curve is only ever read at the total-ways budget.
pub fn reduce_curves_at(
    a_min: usize,
    a: &[f64],
    b_min: usize,
    b: &[f64],
    s: usize,
) -> Option<(f64, usize)> {
    let a_max = a_min + a.len() - 1;
    let b_max = b_min + b.len() - 1;
    if s < a_min + b_min || s > a_max + b_max {
        return None;
    }
    let wa_lo = a_min.max(s.saturating_sub(b_max));
    let wa_hi = a_max.min(s - b_min);
    let mut energy = f64::INFINITY;
    let mut choice = a_min;
    for wa in wa_lo..=wa_hi {
        let e = a[wa - a_min] + b[s - wa - b_min];
        if e < energy {
            energy = e;
            choice = wa;
        }
    }
    Some((energy, choice))
}

fn build_tree(curves: &[EnergyCurve], lo: usize, hi: usize, ops: &mut u64) -> Node {
    if hi - lo == 1 {
        return Node::Leaf { core: lo, curve: curves[lo].clone() };
    }
    let mid = lo + (hi - lo) / 2;
    let left = build_tree(curves, lo, mid, ops);
    let right = build_tree(curves, mid, hi, ops);
    let (curve, choice, o) = reduce_curves(left.curve(), right.curve());
    *ops += o;
    Node::Pair { left: Box::new(left), right: Box::new(right), curve, choice }
}

/// Find `{w*_j}` minimizing `Σ_j E_j(w_j)` subject to `Σ_j w_j = total`.
///
/// Returns the allocation, the optimal energy and the iteration count, or
/// `None` when no feasible assignment exists (every per-core curve must
/// have at least one finite point summing to `total`).
pub fn optimize_partition(curves: &[EnergyCurve], total: usize) -> Option<(Vec<usize>, f64, u64)> {
    assert!(!curves.is_empty());
    let mut ops = 0u64;
    let root = build_tree(curves, 0, curves.len(), &mut ops);
    let rc = root.curve();
    if total < rc.min_w || total > rc.max_w() {
        return None;
    }
    let e = rc.at(total);
    if !e.is_finite() {
        return None;
    }
    let mut out = vec![0usize; curves.len()];
    root.assign(total, &mut out);
    Some((out, e, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_util::rand::rngs::StdRng;
    use triad_util::rand::{RngExt, SeedableRng};

    fn curve(min_w: usize, energy: Vec<f64>) -> EnergyCurve {
        EnergyCurve { min_w, energy }
    }

    /// Exhaustive reference optimizer for small systems.
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
                if left == 0
                    && acc.is_finite()
                    && best.as_ref().map(|(_, e)| acc < *e).unwrap_or(true)
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

    #[test]
    fn two_core_hand_case() {
        // Core 0 wants ways badly; core 1 is flat.
        let a = curve(2, (0..15).map(|i| 10.0 - i as f64 * 0.6).collect());
        let b = curve(2, vec![5.0; 15]);
        let (ws, e, _) = optimize_partition(&[a, b], 16).unwrap();
        assert_eq!(ws, vec![14, 2]);
        assert!((e - (10.0 - 12.0 * 0.6) + -5.0 + 10.0 - 10.0).abs() < 1.0); // sanity
        let total: usize = ws.iter().sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn respects_equality_constraint() {
        let curves: Vec<EnergyCurve> =
            (0..4).map(|i| curve(2, (0..15).map(|w| (w + i) as f64).collect())).collect();
        let (ws, _, _) = optimize_partition(&curves, 32).unwrap();
        assert_eq!(ws.iter().sum::<usize>(), 32);
        for &w in &ws {
            assert!((2..=16).contains(&w));
        }
    }

    #[test]
    fn matches_brute_force_on_random_curves() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..50 {
            let n = 2 + (trial % 3); // 2..4 cores
            let curves: Vec<EnergyCurve> = (0..n)
                .map(|_| {
                    let e: Vec<f64> = (0..15)
                        .map(|_| {
                            if rng.random_bool(0.1) {
                                f64::INFINITY
                            } else {
                                rng.random::<f64>() * 10.0
                            }
                        })
                        .collect();
                    curve(2, e)
                })
                .collect();
            let total = 8 * n;
            let fast = optimize_partition(&curves, total);
            let slow = brute_force(&curves, total);
            match (fast, slow) {
                (Some((ws, e, _)), Some((_, eb))) => {
                    assert!((e - eb).abs() < 1e-9, "trial {trial}: {e} vs {eb}");
                    let check: f64 = ws.iter().enumerate().map(|(i, &w)| curves[i].at(w)).sum();
                    assert!((check - e).abs() < 1e-9, "assignment must realize the optimum");
                    assert_eq!(ws.iter().sum::<usize>(), total);
                }
                (None, None) => {}
                (f, s) => panic!("trial {trial}: fast {f:?} vs slow {s:?}"),
            }
        }
    }

    #[test]
    fn infeasible_when_curves_are_infinite() {
        let a = curve(2, vec![f64::INFINITY; 15]);
        let b = curve(2, vec![1.0; 15]);
        assert!(optimize_partition(&[a, b], 16).is_none());
    }

    #[test]
    fn total_out_of_domain_is_rejected() {
        let a = curve(2, vec![1.0; 15]);
        let b = curve(2, vec![1.0; 15]);
        assert!(optimize_partition(&[a.clone(), b.clone()], 3).is_none());
        assert!(optimize_partition(&[a, b], 33).is_none());
    }

    #[test]
    fn eight_core_scales_and_balances() {
        // Identical convex curves: the even split must be optimal.
        let mk = || curve(2, (0..15).map(|i| ((i as f64) - 6.0).powi(2)).collect());
        let curves: Vec<EnergyCurve> = (0..8).map(|_| mk()).collect();
        let (ws, e, ops) = optimize_partition(&curves, 64).unwrap();
        assert_eq!(ws, vec![8; 8]);
        assert!(e.abs() < 1e-9, "even split has zero cost here: {e}");
        // Polynomial work: far below the 15^8 exhaustive space.
        assert!(ops < 20_000, "{ops}");
    }

    /// The select-form sweep against the per-sum scan, entry by entry:
    /// bit-equal energy, identical argmin and `ops == len_a × len_b`. The
    /// random curves cover arbitrary shapes; the integer-valued ones make
    /// equal sums common (ties must resolve to the lowest `wa`) and mix in
    /// `INFINITY` entries, over the planner's real domain shapes — 15-way
    /// leaves and their 29-way pairs, and the 15×29 node an odd core count
    /// produces.
    #[test]
    fn single_entry_reduction_matches_full_sweep() {
        let mut rng = StdRng::seed_from_u64(99);
        let random = |rng: &mut StdRng| {
            if rng.random_bool(0.2) {
                f64::INFINITY
            } else {
                rng.random::<f64>() * 5.0
            }
        };
        let tied = |rng: &mut StdRng| {
            if rng.random_bool(0.2) {
                f64::INFINITY
            } else {
                rng.random_range(0..4u64) as f64
            }
        };
        let mut cases: Vec<(EnergyCurve, EnergyCurve)> = Vec::new();
        for _ in 0..50 {
            let a = curve(2, (0..7).map(|_| random(&mut rng)).collect());
            let b = curve(1, (0..9).map(|_| random(&mut rng)).collect());
            cases.push((a, b));
        }
        for (len_a, len_b, min_a, min_b) in [(15, 15, 2, 2), (29, 29, 4, 4), (15, 29, 2, 4)] {
            for _ in 0..20 {
                let a = curve(min_a, (0..len_a).map(|_| tied(&mut rng)).collect());
                let b = curve(min_b, (0..len_b).map(|_| tied(&mut rng)).collect());
                cases.push((a, b));
            }
        }
        for (a, b) in &cases {
            // Stale buffers, as a re-reduced planner node has: the sweep
            // must reset them itself.
            let len = a.energy.len() + b.energy.len() - 1;
            let (mut energy, mut choice) = (vec![-1.0; len], vec![usize::MAX; len]);
            let ops = reduce_curves_into(a.min_w, &a.energy, &b.energy, &mut energy, &mut choice);
            assert_eq!(ops, (a.energy.len() * b.energy.len()) as u64);
            let min_s = a.min_w + b.min_w;
            for (k, (e_full, &wa_full)) in energy.iter().zip(&choice).enumerate() {
                let (e, wa) =
                    reduce_curves_at(a.min_w, &a.energy, b.min_w, &b.energy, min_s + k).unwrap();
                assert_eq!(e.to_bits(), e_full.to_bits());
                assert_eq!(wa, wa_full);
            }
            for s in [min_s - 1, min_s + len] {
                assert!(reduce_curves_at(a.min_w, &a.energy, b.min_w, &b.energy, s).is_none());
            }
        }
    }

    #[test]
    fn reduction_is_order_insensitive_in_value() {
        let mut rng = StdRng::seed_from_u64(7);
        let curves: Vec<EnergyCurve> =
            (0..5).map(|_| curve(2, (0..15).map(|_| rng.random::<f64>()).collect())).collect();
        let (_, e1, _) = optimize_partition(&curves, 40).unwrap();
        let mut rev = curves.clone();
        rev.reverse();
        let (_, e2, _) = optimize_partition(&rev, 40).unwrap();
        assert!((e1 - e2).abs() < 1e-12);
    }
}
