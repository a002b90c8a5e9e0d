//! System-level planning: local plans → global partition → new settings.
//!
//! The planner is energy-backend agnostic: joules enter through the
//! [`LocalPlan`] energy curves (produced by an [`crate::IntervalModel`]
//! holding a `&dyn triad_energy::EnergyBackend`), and this layer only
//! minimizes their sum — so swapping the backend re-shapes the curves
//! without touching any code below this point.
//!
//! Two entry points share the same mathematics:
//!
//! * [`plan_system`] — the one-shot formulation: clone the curves, build
//!   the reduction tree from scratch, back-track. Simple, allocating,
//!   used by tests and as the equivalence oracle.
//! * [`PlannerState`] — the persistent formulation a simulator holds for
//!   a whole run: the reduction tree is a flattened arena whose shape is
//!   fixed by the core count, every curve/argmin/scratch buffer is
//!   preallocated, and when one core's plan changes only its O(log n)
//!   ancestor pair-nodes are re-reduced. Its leaves are plain
//!   [`LocalPlan`]s; a core without statistics holds a copy of the one
//!   [`LocalPlan::pinned`] plan the state keeps, installed through the
//!   same compare-and-copy path as any other plan. Unchanged subtrees
//!   keep their stored curves, which are bit-identical to what a
//!   from-scratch build would recompute — so decisions (and the §III-E
//!   `ops` proxy, cached per pair-node) are byte-for-byte the same as
//!   [`plan_system`]'s.
//!   A re-plan over a clean forest only back-tracks, and the select-form
//!   [`reduce_curves_into`] makes a dirty path cheap, so a simulator can
//!   call [`PlannerState::replan`] at every RM invocation rather than
//!   caching whole-system decisions.

use crate::global::{optimize_partition, reduce_curves_at, reduce_curves_into, EnergyCurve};
use crate::local::LocalPlan;
use triad_arch::Setting;

/// The RM's decision for the whole system after one invocation.
#[derive(Debug, Clone)]
pub struct RmDecision {
    /// New setting per core.
    pub settings: Vec<Setting>,
    /// Predicted system energy per instruction (sum over cores).
    pub predicted_energy: f64,
    /// Model evaluations + reduction iterations (§III-E overhead proxy).
    pub ops: u64,
}

/// Combine per-core local plans into the optimal system setting.
///
/// Falls back to `baseline` on every core when the global problem is
/// infeasible — which cannot happen when each local plan kept its baseline
/// allocation feasible, but is handled defensively.
pub fn plan_system(plans: &[LocalPlan], total_ways: usize, baseline: Setting) -> RmDecision {
    let curves: Vec<EnergyCurve> =
        plans.iter().map(|p| EnergyCurve { min_w: p.min_w, energy: p.energy.clone() }).collect();
    let local_ops: u64 = plans.iter().map(|p| p.ops).sum();
    match optimize_partition(&curves, total_ways) {
        Some((ways, energy, global_ops)) => {
            let settings: Vec<Setting> = plans
                .iter()
                .zip(&ways)
                .map(|(p, &w)| p.setting_at(w).unwrap_or(baseline))
                .collect();
            RmDecision { settings, predicted_energy: energy, ops: local_ops + global_ops }
        }
        None => RmDecision {
            settings: vec![baseline; plans.len()],
            predicted_energy: f64::INFINITY,
            ops: local_ops,
        },
    }
}

/// A borrowed view of the planner's latest decision. Same contents as
/// [`RmDecision`], but the settings live in the planner's preallocated
/// buffer, so reading a decision never allocates.
#[derive(Debug, Clone, Copy)]
pub struct PlanView<'a> {
    /// New setting per core.
    pub settings: &'a [Setting],
    /// Predicted system energy per instruction (sum over cores).
    pub predicted_energy: f64,
    /// Model evaluations + reduction iterations (§III-E overhead proxy).
    pub ops: u64,
}

/// A reduction child: one core's curve slot or another pair-node.
#[derive(Debug, Clone, Copy)]
enum Child {
    Leaf(usize),
    Node(usize),
}

/// One interior reduction node: the combined curve and argmin table over
/// a fixed domain, plus the cached iteration count of its last reduction.
#[derive(Debug)]
struct PairNode {
    left: Child,
    right: Child,
    /// Smallest joint allocation in this subtree's domain.
    min_w: usize,
    energy: Vec<f64>,
    choice: Vec<usize>,
    /// The §III-E iteration count of a full sweep over this node's joint
    /// domain. A pure function of the two child domain shapes (every
    /// `(wa, wb)` pair is visited exactly once, so it equals
    /// `len_a × len_b`), fixed at construction — summing it per node is
    /// byte-identical to counting a from-scratch reduction, whether or
    /// not this re-plan actually re-reduced the node.
    ops: u64,
    /// The curve is stale: a leaf below changed since the last re-reduce.
    dirty: bool,
}

/// The persistent global planner: a reduction *forest kept warm between
/// RM invocations* instead of a tree rebuilt per invocation.
///
/// The arena's shape — the recursive midpoint pairing [`plan_system`]
/// uses — is fixed by the core count, so every curve, argmin table and
/// scratch buffer is allocated exactly once. [`PlannerState::set_leaf`]
/// installs a core's new local plan and marks its O(log n) ancestors
/// dirty; [`PlannerState::replan`] re-reduces only dirty nodes (children
/// first — the arena is stored in post-order) and back-tracks the argmins
/// into a reused buffer. A steady-state re-plan therefore touches
/// ⌈log₂ n⌉ pair-nodes and allocates nothing.
///
/// **Decision identity.** An unchanged subtree's stored curve is
/// bit-identical to what a from-scratch build would recompute (same
/// inputs through the same [`reduce_curves_into`] loop), so every curve,
/// argmin table, back-tracked allocation and predicted energy — and,
/// because each pair-node's iteration count is cached and summed, the
/// reported `ops` — matches [`plan_system`] byte for byte. The
/// randomized event-sequence test in `crates/rm/tests/properties.rs`
/// asserts this bit-equality against the from-scratch oracle.
#[derive(Debug)]
pub struct PlannerState {
    total_ways: usize,
    baseline: Setting,
    /// The [`LocalPlan::pinned`] plan every leaf starts as and
    /// [`PlannerState::set_leaf_pinned`] resets to.
    pinned: LocalPlan,
    /// Each core's latest local plan, in buffers sized once at
    /// construction.
    leaves: Vec<LocalPlan>,
    /// Interior nodes in post-order: children precede parents; the last
    /// node (when `n ≥ 2`) is the root.
    nodes: Vec<PairNode>,
    /// Parent interior node of each leaf (empty when `n = 1`).
    leaf_parent: Vec<usize>,
    /// Parent of each interior node (`None` for the root).
    node_parent: Vec<Option<usize>>,
    /// Back-tracked per-core allocation (reused scratch).
    ways: Vec<usize>,
    /// Latest decision's settings (reused output buffer).
    settings: Vec<Setting>,
    predicted_energy: f64,
    ops: u64,
    /// Pair-nodes re-reduced by the latest [`PlannerState::replan`] — the
    /// dirty-path length (0 on a clean re-plan, O(log n) after one leaf
    /// change, n−1 from scratch). Observability only; never feeds results.
    last_reduced: u64,
}

impl PlannerState {
    /// A planner for `n_cores` cores whose local plans all span
    /// `way_range`, under the global constraint `Σ w_j = total_ways`.
    /// Every leaf starts as the pinned baseline plan (the state of a core
    /// that has not completed an interval yet — see
    /// [`LocalPlan::pinned`]).
    pub fn new(
        n_cores: usize,
        way_range: std::ops::RangeInclusive<usize>,
        total_ways: usize,
        baseline: Setting,
    ) -> Self {
        assert!(n_cores >= 1, "the planner needs at least one core");
        let pinned = LocalPlan::pinned(way_range, baseline);
        let leaves = vec![pinned.clone(); n_cores];

        // Mirror `plan_system`'s recursive midpoint pairing, flattened in
        // post-order so children always precede their parent.
        let mut nodes: Vec<PairNode> = Vec::new();
        fn build(
            lo: usize,
            hi: usize,
            leaf_min: usize,
            leaf_len: usize,
            nodes: &mut Vec<PairNode>,
        ) -> (Child, usize, usize) {
            if hi - lo == 1 {
                return (Child::Leaf(lo), leaf_min, leaf_len);
            }
            let mid = lo + (hi - lo) / 2;
            let (left, l_min, l_len) = build(lo, mid, leaf_min, leaf_len, nodes);
            let (right, r_min, r_len) = build(mid, hi, leaf_min, leaf_len, nodes);
            let min_w = l_min + r_min;
            let len = l_len + r_len - 1;
            nodes.push(PairNode {
                left,
                right,
                min_w,
                energy: vec![f64::INFINITY; len],
                choice: vec![l_min; len],
                ops: (l_len * r_len) as u64,
                dirty: true,
            });
            (Child::Node(nodes.len() - 1), min_w, len)
        }
        build(0, n_cores, pinned.min_w, pinned.energy.len(), &mut nodes);

        let mut leaf_parent = vec![usize::MAX; n_cores];
        let mut node_parent = vec![None; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            for child in [node.left, node.right] {
                match child {
                    Child::Leaf(j) => leaf_parent[j] = i,
                    Child::Node(k) => node_parent[k] = Some(i),
                }
            }
        }

        PlannerState {
            total_ways,
            baseline,
            pinned,
            leaves,
            nodes,
            leaf_parent,
            node_parent,
            ways: vec![0; n_cores],
            settings: vec![baseline; n_cores],
            predicted_energy: f64::INFINITY,
            ops: 0,
            last_reduced: 0,
        }
    }

    /// Number of cores (leaves) in the forest.
    pub fn n_cores(&self) -> usize {
        self.leaves.len()
    }

    /// Install core `j`'s new local plan, copying into the leaf's
    /// preallocated buffers (never allocates). Returns `false` — and
    /// leaves the whole forest clean — when the plan is bit-identical to
    /// the leaf's current contents, which re-planning would provably
    /// reproduce anyway.
    pub fn set_leaf(&mut self, j: usize, plan: &LocalPlan) -> bool {
        let changed = copy_if_changed(&mut self.leaves[j], plan);
        if changed {
            self.mark_dirty_above_leaf(j);
        }
        changed
    }

    /// Reset core `j` to the pinned baseline plan (vacant core, or one
    /// with no completed interval). Returns `false` when already pinned.
    pub fn set_leaf_pinned(&mut self, j: usize) -> bool {
        let changed = copy_if_changed(&mut self.leaves[j], &self.pinned);
        if changed {
            self.mark_dirty_above_leaf(j);
        }
        changed
    }

    /// Mark leaf `j`'s ancestor chain dirty. Invariant: a dirty node's
    /// ancestors are all dirty, so the walk stops at the first dirty node.
    fn mark_dirty_above_leaf(&mut self, j: usize) {
        if self.nodes.is_empty() {
            return;
        }
        let mut i = self.leaf_parent[j];
        loop {
            if self.nodes[i].dirty {
                break;
            }
            self.nodes[i].dirty = true;
            match self.node_parent[i] {
                Some(p) => i = p,
                None => break,
            }
        }
    }

    /// Re-reduce every dirty pair-node (children first), back-track the
    /// argmins and return the decision. Allocation-free: all work happens
    /// in the preallocated arena. O(log n) pair reductions after a single
    /// leaf change; zero after none. The root is cheaper still: its curve
    /// is only ever read at the `total_ways` budget, so only that single
    /// entry is evaluated ([`reduce_curves_at`]) instead of sweeping the
    /// widest domain in the tree — the reported `ops` still count the
    /// full sweep, exactly as the one-shot formulation performs it.
    pub fn replan(&mut self) -> PlanView<'_> {
        let n_nodes = self.nodes.len();
        self.last_reduced = 0;
        for i in 0..n_nodes {
            if !self.nodes[i].dirty {
                continue;
            }
            self.last_reduced += 1;
            // Post-order: both children live strictly below index `i`.
            let (done, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            let (l_min, l_curve): (usize, &[f64]) = match node.left {
                Child::Leaf(j) => (self.leaves[j].min_w, &self.leaves[j].energy),
                Child::Node(k) => (done[k].min_w, &done[k].energy),
            };
            let (r_min, r_curve): (usize, &[f64]) = match node.right {
                Child::Leaf(j) => (self.leaves[j].min_w, &self.leaves[j].energy),
                Child::Node(k) => (done[k].min_w, &done[k].energy),
            };
            if i + 1 == n_nodes {
                // Root: evaluate the budget entry only.
                if let Some((e, wa)) =
                    reduce_curves_at(l_min, l_curve, r_min, r_curve, self.total_ways)
                {
                    node.energy[self.total_ways - node.min_w] = e;
                    node.choice[self.total_ways - node.min_w] = wa;
                }
            } else {
                let swept =
                    reduce_curves_into(l_min, l_curve, r_curve, &mut node.energy, &mut node.choice);
                debug_assert_eq!(
                    swept, node.ops,
                    "the sweep count is a pure function of the domain shapes"
                );
            }
            node.dirty = false;
        }

        let leaf_ops: u64 = self.leaves.iter().map(|l| l.ops).sum();
        let (root, root_min, root_len) = match self.nodes.last() {
            Some(n) => (Child::Node(self.nodes.len() - 1), n.min_w, n.energy.len()),
            None => (Child::Leaf(0), self.leaves[0].min_w, self.leaves[0].energy.len()),
        };
        let in_domain = self.total_ways >= root_min && self.total_ways < root_min + root_len;
        let energy = if in_domain {
            match root {
                Child::Node(k) => self.nodes[k].energy[self.total_ways - self.nodes[k].min_w],
                Child::Leaf(j) => self.leaves[j].energy_at(self.total_ways),
            }
        } else {
            f64::INFINITY
        };

        if !energy.is_finite() {
            // Infeasible: fall back to the baseline everywhere, counting
            // only the local-plan evaluations — exactly `plan_system`.
            self.settings.fill(self.baseline);
            self.predicted_energy = f64::INFINITY;
            self.ops = leaf_ops;
            return self.view();
        }

        let node_ops: u64 = self.nodes.iter().map(|n| n.ops).sum();
        let mut ways = std::mem::take(&mut self.ways);
        self.assign(root, self.total_ways, &mut ways);
        for (j, &w) in ways.iter().enumerate() {
            self.settings[j] = self.leaves[j].setting_at(w).unwrap_or(self.baseline);
        }
        self.ways = ways;
        self.predicted_energy = energy;
        self.ops = leaf_ops + node_ops;
        self.view()
    }

    /// Walk down assigning `s` ways to a subtree (the argmin back-track).
    fn assign(&self, child: Child, s: usize, out: &mut [usize]) {
        match child {
            Child::Leaf(j) => out[j] = s,
            Child::Node(k) => {
                let n = &self.nodes[k];
                let wa = n.choice[s - n.min_w];
                self.assign(n.left, wa, out);
                self.assign(n.right, s - wa, out);
            }
        }
    }

    /// Pair-nodes the latest [`PlannerState::replan`] re-reduced — its
    /// dirty-path length. Telemetry accessor; does not affect planning.
    pub fn last_reduced_nodes(&self) -> u64 {
        self.last_reduced
    }

    /// The latest decision computed by [`PlannerState::replan`].
    pub fn view(&self) -> PlanView<'_> {
        PlanView {
            settings: &self.settings,
            predicted_energy: self.predicted_energy,
            ops: self.ops,
        }
    }
}

/// Copy `plan` into `leaf`'s buffers unless the two are bit-identical;
/// returns whether anything changed.
fn copy_if_changed(leaf: &mut LocalPlan, plan: &LocalPlan) -> bool {
    assert!(
        plan.min_w == leaf.min_w && plan.energy.len() == leaf.energy.len(),
        "plan domain must match the planner's"
    );
    let same = leaf.ops == plan.ops
        && leaf.setting == plan.setting
        && leaf.energy.iter().zip(&plan.energy).all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        leaf.energy.copy_from_slice(&plan.energy);
        leaf.setting.copy_from_slice(&plan.setting);
        leaf.ops = plan.ops;
    }
    !same
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{local_optimize, IntervalModel, RmKind};
    use triad_arch::{CoreSize, DvfsGrid, SystemConfig};

    /// Core 0 is cache-hungry; core 1 is cache-flat and memory-light.
    struct Pair {
        grid: DvfsGrid,
        hungry: bool,
    }

    impl IntervalModel for Pair {
        fn predict(&self, s: Setting) -> (f64, f64) {
            let f = self.grid.point(s.vf).freq_hz;
            let v = self.grid.point(s.vf).volt;
            let mem = if self.hungry {
                // Sharp knee at 12 ways.
                if s.ways >= 12 {
                    0.05e-9
                } else {
                    2.0e-9
                }
            } else {
                0.05e-9
            };
            let t = 2.0 / (f / 1e9) * 1e-9 / s.core.dispatch_width() as f64 * 4.0 + mem;
            let p = [1.1, 2.2, 4.3][s.core.index()] * v * v * (f / 2.0e9)
                + [0.3, 0.6, 1.25][s.core.index()] * v;
            (t, p * t)
        }
    }

    #[test]
    fn planner_shifts_ways_to_the_hungry_core() {
        let sys = SystemConfig::table1(2);
        let b = sys.baseline_setting();
        let grid = sys.dvfs.clone();
        let hungry = Pair { grid: grid.clone(), hungry: true };
        let flat = Pair { grid: grid.clone(), hungry: false };
        let p0 = local_optimize(&hungry, RmKind::Rm2, b, &grid, sys.way_range(), 1.0);
        let p1 = local_optimize(&flat, RmKind::Rm2, b, &grid, sys.way_range(), 1.0);
        let d = plan_system(&[p0, p1], sys.total_ways(), b);
        assert_eq!(d.settings.len(), 2);
        assert_eq!(d.settings[0].ways + d.settings[1].ways, 16);
        assert!(d.settings[0].ways >= 12, "hungry core should receive the knee: {:?}", d.settings);
        assert!(d.predicted_energy.is_finite());
    }

    #[test]
    fn infeasible_plans_fall_back_to_baseline() {
        let sys = SystemConfig::table1(2);
        let b = sys.baseline_setting();
        let plans: Vec<_> = (0..2)
            .map(|_| crate::local::LocalPlan {
                min_w: 2,
                energy: vec![f64::INFINITY; 13],
                setting: vec![None; 13],
                ops: 1,
            })
            .collect();
        let d = plan_system(&plans, sys.total_ways(), b);
        assert_eq!(d.settings, vec![b, b]);
        assert!(d.predicted_energy.is_infinite());
    }

    #[test]
    fn ops_accumulate_local_and_global() {
        let sys = SystemConfig::table1(4);
        let b = sys.baseline_setting();
        let grid = sys.dvfs.clone();
        let flat = Pair { grid: grid.clone(), hungry: false };
        let plans: Vec<_> = (0..4)
            .map(|_| local_optimize(&flat, RmKind::Rm3, b, &grid, sys.way_range(), 1.0))
            .collect();
        let local: u64 = plans.iter().map(|p| p.ops).sum();
        let d = plan_system(&plans, sys.total_ways(), b);
        assert!(d.ops > local, "global reduction must add iterations");
        assert_eq!(d.settings.iter().map(|s| s.ways).sum::<usize>(), 32);
        let _ = CoreSize::ALL;
    }
}
