//! §III-E measurement: cost of one full RM invocation (local optimization +
//! global curve reduction) versus core count and controller, plus the PR 7
//! warm-path gates: the persistent-forest incremental re-plan must beat the
//! from-scratch reduction by ≥2× at 8 cores (1.5× under short CI smoke
//! budgets) and must not allocate on the steady-state path. The
//! `rm_reduce/*` pair times one 29×29 pair-node reduction in select form
//! against the per-sum scan; `bench_check` tracks their ratio.
//!
//! Run with `cargo bench -p triad-bench --bench rm_overhead`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use triad_arch::{DvfsGrid, Setting, SystemConfig};
use triad_rm::{
    local_optimize, plan_system, reduce_curves, reduce_curves_at, reduce_curves_into, EnergyCurve,
    IntervalModel, LocalPlan, PlannerState, RmKind,
};
use triad_util::bench::{bench, budget_from_env, speedup_gate};

/// Recorded on a 2-vCPU x86-64 host (2026-10-18, release build,
/// `TRIAD_BENCH_BUDGET_MS=250`): one incremental 8-core RM3 re-plan
/// (single leaf update, O(log n) path re-reduction in select form,
/// budget-entry-only root) costs ~0.94–1.27 µs over three runs; the
/// from-scratch clone-and-rebuild path costs ~5.7–6.6 µs (5.2–6.3×). Only
/// a >50× regression fails — the hard perf contract is the in-process
/// speedup gate below.
const RECORDED_INCREMENTAL_NS_PER_REPLAN: f64 = 1_100.0;

/// Global allocator that counts every allocation call, so the zero-alloc
/// claim on the steady-state re-plan path is checked, not asserted in
/// prose. Counting is monotone and `Relaxed`: the bench is single-threaded
/// and only ever diffs the counter across a quiescent window.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A cheap synthetic model so the bench measures the optimizer itself.
/// `mem_ns_per_way` shapes the memory term, so two instances produce
/// genuinely different energy curves (the alternating leaf updates below
/// must change plan content, not just touch it).
struct Synth {
    grid: DvfsGrid,
    mem_s_per_way: f64,
}

impl IntervalModel for Synth {
    fn predict(&self, s: Setting) -> (f64, f64) {
        let f = self.grid.point(s.vf).freq_hz;
        let v = self.grid.point(s.vf).volt;
        let t = 1.2e-9 * 2.0e9 / f
            + (17.0 - s.ways as f64) * self.mem_s_per_way
            + 4.0e-10 / s.core.dispatch_width() as f64;
        (t, (2.8 * v * v * (f / 2.0e9) + 0.6) * t)
    }
}

fn main() {
    let budget = budget_from_env(Duration::from_millis(300));

    println!("rm_invocation: one full local+global RM pass");
    for n_cores in [2usize, 4, 8] {
        let sys = SystemConfig::table1(n_cores);
        let model = Synth { grid: sys.dvfs.clone(), mem_s_per_way: 2.0e-11 };
        let b = sys.baseline_setting();
        for rm in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
            bench(&format!("rm_invocation/{}/{n_cores}cores", rm.label()), None, budget, || {
                let plans: Vec<_> = (0..n_cores)
                    .map(|_| local_optimize(&model, rm, b, &sys.dvfs, sys.way_range(), 1.0))
                    .collect();
                black_box(plan_system(&plans, sys.total_ways(), b));
            });
        }
    }

    // ---- PR 7 gate: from-scratch vs incremental re-plan at 8 cores ----
    // The scenario every warm-path RM event pays: one core's local plan
    // changed, the other seven are untouched. From-scratch is what the
    // engine did before this PR (clone every cached plan, rebuild all 7
    // pair-nodes); incremental updates one leaf in place and re-reduces
    // only its 3 ancestors, allocation-free.
    println!("\nrm_replan: single-leaf update, 8 cores, RM3");
    let n_cores = 8usize;
    let sys = SystemConfig::table1(n_cores);
    let b = sys.baseline_setting();
    let rm = RmKind::Rm3;
    let model_a = Synth { grid: sys.dvfs.clone(), mem_s_per_way: 2.0e-11 };
    let model_b = Synth { grid: sys.dvfs.clone(), mem_s_per_way: 6.0e-11 };
    let plans: Vec<LocalPlan> = (0..n_cores)
        .map(|_| local_optimize(&model_a, rm, b, &sys.dvfs, sys.way_range(), 1.0))
        .collect();
    let plan_a = plans[3].clone();
    let plan_b = local_optimize(&model_b, rm, b, &sys.dvfs, sys.way_range(), 1.0);
    assert!(
        plan_a.energy.iter().zip(&plan_b.energy).any(|(x, y)| x.to_bits() != y.to_bits()),
        "the two synthetic models must produce distinct curves or the gate is vacuous"
    );

    let mut base = plans.clone();
    let mut toggle = false;
    let scratch_m = bench("rm_replan/from_scratch/8cores", None, budget, || {
        toggle = !toggle;
        base[3] = if toggle { plan_b.clone() } else { plan_a.clone() };
        let cloned: Vec<LocalPlan> = base.clone();
        black_box(plan_system(&cloned, sys.total_ways(), b).predicted_energy);
    });

    let mut state = PlannerState::new(n_cores, sys.way_range(), sys.total_ways(), b);
    for (j, p) in plans.iter().enumerate() {
        state.set_leaf(j, p);
    }
    state.replan();
    let mut toggle = false;
    let inc_m = bench("rm_replan/incremental/8cores", None, budget, || {
        toggle = !toggle;
        state.set_leaf(3, if toggle { &plan_b } else { &plan_a });
        black_box(state.replan().predicted_energy);
    });

    // Decisions must agree bit-for-bit before any perf claim counts.
    state.set_leaf(3, &plan_a);
    let inc_view = state.replan();
    base[3] = plan_a.clone();
    let scratch_dec = plan_system(&base, sys.total_ways(), b);
    assert_eq!(inc_view.settings, &scratch_dec.settings[..]);
    assert_eq!(inc_view.predicted_energy.to_bits(), scratch_dec.predicted_energy.to_bits());
    assert_eq!(inc_view.ops, scratch_dec.ops);

    let speedup = scratch_m.secs_per_iter / inc_m.secs_per_iter;
    let gate = speedup_gate(budget);
    println!("rm_replan/speedup                        {speedup:>11.2}x  (gate {gate:.1}x)");
    assert!(
        speedup >= gate,
        "incremental re-plan must beat from-scratch by ≥{gate:.1}x at 8 cores, got {speedup:.2}x"
    );
    let inc_ns = inc_m.secs_per_iter * 1e9;
    assert!(
        inc_ns < RECORDED_INCREMENTAL_NS_PER_REPLAN * 50.0,
        "catastrophic re-plan regression: {inc_ns:.0} ns/replan vs recorded \
         {RECORDED_INCREMENTAL_NS_PER_REPLAN:.0}"
    );

    // ---- One pair-node reduction: select form vs per-sum scan ----
    // The 29×29 node is the 8-core tree's second level (two reduced pairs
    // of 15-way leaves). The per-sum scan is the loop shape the select
    // form replaced: every sum evaluated on its own through
    // `reduce_curves_at`, writing the same output buffers.
    println!("\nrm_reduce: one 29x29 pair-node reduction");
    let leaf = |p: &LocalPlan| EnergyCurve { min_w: p.min_w, energy: p.energy.clone() };
    let (a29, _, _) = reduce_curves(&leaf(&plan_a), &leaf(&plan_b));
    let (b29, _, _) = reduce_curves(&leaf(&plan_b), &leaf(&plan_a));
    let min_s = a29.min_w + b29.min_w;
    let len = a29.energy.len() + b29.energy.len() - 1;
    let (mut sel_e, mut sel_c) = (vec![0.0; len], vec![0usize; len]);
    bench("rm_reduce/select_29x29", None, budget, || {
        let a = black_box(&a29.energy);
        black_box(reduce_curves_into(a29.min_w, a, &b29.energy, &mut sel_e, &mut sel_c));
    });
    let (mut scan_e, mut scan_c) = (vec![0.0; len], vec![0usize; len]);
    bench("rm_reduce/per_s_scan_29x29", None, budget, || {
        let a = black_box(&a29.energy);
        for (k, (e, c)) in scan_e.iter_mut().zip(scan_c.iter_mut()).enumerate() {
            (*e, *c) = reduce_curves_at(a29.min_w, a, b29.min_w, &b29.energy, min_s + k)
                .expect("every sum is in the joint domain");
        }
        black_box(&scan_e);
    });
    assert!(
        sel_e.iter().zip(&scan_e).all(|(x, y)| x.to_bits() == y.to_bits()) && sel_c == scan_c,
        "select-form and per-sum reductions must agree bit for bit"
    );

    // ---- PR 7 gate: the steady-state re-plan path allocates nothing ----
    // Outside `bench()` (which prints and appends JSON): alternate the leaf
    // between two warmed plans and re-plan — the whole warm path the
    // engine runs per RM event.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1_000u64 {
        state.set_leaf(3, if i % 2 == 0 { &plan_a } else { &plan_b });
        black_box(state.replan().predicted_energy);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "steady-state re-plan must be allocation-free: {allocs} allocations in 1000 re-plans"
    );
    println!("rm_replan/allocations                              0  (1000 steady-state re-plans)");

    // ---- PR 9 gate: disabled telemetry costs ≤1% of a re-plan ----
    // Must run AFTER the zero-alloc gate: enabling telemetry allocates its
    // registry and thread shard. The rm crate itself is telemetry-free by
    // design (the dirty-path length is a plain `PlannerState` field the
    // simulator observes), so the re-plan path executes zero record
    // operations — this gate verifies that stays true, and prices what the
    // disabled call sites would cost if any crept in.
    static PROBE: triad_telemetry::Counter = triad_telemetry::Counter::new("rm_overhead.probe");
    triad_telemetry::enable(triad_telemetry::METRICS);
    triad_telemetry::reset();
    state.set_leaf(3, &plan_b);
    black_box(state.replan().predicted_energy);
    let ops = triad_telemetry::snapshot().record_ops;
    triad_telemetry::disable_all();
    triad_telemetry::reset();
    let probe_iters = 20_000_000u64;
    let t0 = std::time::Instant::now();
    for _ in 0..probe_iters {
        PROBE.add(black_box(1));
    }
    let disabled_ns = t0.elapsed().as_secs_f64() / probe_iters as f64 * 1e9;
    let overhead = ops as f64 * disabled_ns * 1e-9;
    let frac = overhead / inc_m.secs_per_iter;
    println!(
        "rm_replan/telemetry_disabled_overhead    {ops} record ops x {disabled_ns:.2} ns \
         = {:.6}% of a re-plan (gate 1%)",
        frac * 100.0
    );
    assert!(
        frac <= 0.01,
        "disabled telemetry must cost ≤1% of an incremental re-plan: {ops} record ops x \
         {disabled_ns:.2} ns = {:.4}% of {:.2} us",
        frac * 100.0,
        inc_m.secs_per_iter * 1e6
    );

    // ---- PR 10 gate: disarmed failpoints cost ≤1% of a re-plan ----
    // The rm crate carries no failpoint sites; the per-row crash seams
    // (campaign.row plus the two journal sites) sit above it, so a re-plan
    // crosses none. Price the disarmed `fire()` cost — one relaxed atomic
    // load and a branch — and bound what 3 crossings per re-plan would
    // cost if the seams ever moved down into this path.
    static PROBE_FP: triad_util::failpoint::FailPoint =
        triad_util::failpoint::FailPoint::new("rm_overhead.probe");
    triad_util::failpoint::clear_all();
    let t0 = std::time::Instant::now();
    for _ in 0..probe_iters {
        black_box(PROBE_FP.fire());
    }
    let disarmed_ns = t0.elapsed().as_secs_f64() / probe_iters as f64 * 1e9;
    let fp_frac = 3.0 * disarmed_ns * 1e-9 / inc_m.secs_per_iter;
    println!(
        "rm_replan/failpoint_disarmed_overhead    3 crossings x {disarmed_ns:.2} ns \
         = {:.6}% of a re-plan (gate 1%)",
        fp_frac * 100.0
    );
    assert!(
        fp_frac <= 0.01,
        "disarmed failpoints must cost ≤1% of an incremental re-plan: 3 crossings x \
         {disarmed_ns:.2} ns = {:.4}% of {:.2} us",
        fp_frac * 100.0,
        inc_m.secs_per_iter * 1e6
    );
}
