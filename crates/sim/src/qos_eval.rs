//! QoS-violation evaluation (§IV-D2, Figs. 7–8).
//!
//! A target setting chosen for interval `i+1` *violates* QoS when the model
//! predicted it would meet the baseline time but the actual execution
//! exceeds it:
//!
//! 1. actual:    `T_act(target) > T_act(base)`;
//! 2. predicted: `T_pred(target) ≤ T_pred(base)`;
//! 3. the target was selected by the RM — approximated, as in the paper, by
//!    uniform selection probability over targets.
//!
//! The evaluation iterates over all phases of all applications (weighted by
//! the suite's designed phase weights, [`AppSpec::phase_weights`]), all
//! current settings (which determine the monitor statistics the model
//! reads) and all target settings, and reports the violation probability,
//! the expected violation magnitude (Eq. 6), its standard deviation and the
//! magnitude histogram (Fig. 8).
//!
//! Predictions of the online models do not depend on the current VF point
//! (cycle counters are frequency-invariant and Eq. 2 is frequency-free), so
//! the current-setting space is `(c, w)`; targets span the full
//! `(c, f, w)` grid.
//!
//! [`AppSpec::phase_weights`]: triad_trace::AppSpec::phase_weights

use triad_arch::{CoreSize, Setting, SystemConfig};
use triad_energy::EnergyBackend;
use triad_mem::DramParams;
use triad_phasedb::{PhaseDb, W_MAX, W_MIN};
use triad_rm::{IntervalModel, ModelKind, Observation, OnlineModel};
use triad_workload::WorkloadTrace;

/// Aggregated violation statistics for one model.
#[derive(Debug, Clone)]
pub struct QosEvaluation {
    /// Probability that a (phase, current, target) triple is a violation.
    pub probability: f64,
    /// Expected violation magnitude (Eq. 6) over violating triples.
    pub expected_violation: f64,
    /// Standard deviation of the violation magnitude.
    pub std_violation: f64,
    /// Weighted histogram of violation magnitudes; bin `k` covers
    /// `[k·bin_width, (k+1)·bin_width)`.
    pub histogram: Vec<f64>,
    /// Histogram bin width (relative violation units).
    pub bin_width: f64,
}

impl QosEvaluation {
    /// Histogram normalized so the largest bin equals 1 (Fig. 8's y-axis is
    /// normalized to the maximum across models; apply that externally).
    pub fn histogram_max(&self) -> f64 {
        self.histogram.iter().copied().fold(0.0, f64::max)
    }
}

/// Number of histogram bins (up to 50 % violation at 2.5 % steps).
const N_BINS: usize = 20;
/// Histogram bin width.
const BIN_WIDTH: f64 = 0.025;

/// Evaluate one model under an explicit energy backend. The violation
/// *probability* is a pure timing property, but which targets the RM
/// "would select" is checked through the same model object a real run
/// builds, so the backend is threaded for faithfulness (and so sweeps can
/// report it as row provenance).
pub fn evaluate_model(
    db: &PhaseDb,
    kind: ModelKind,
    sys: &SystemConfig,
    em: &dyn EnergyBackend,
) -> QosEvaluation {
    let app_w = 1.0 / db.apps.len() as f64;
    evaluate_model_weighted(db, kind, sys, em, &vec![app_w; db.apps.len()])
}

/// Evaluate one model with the application weights a [`WorkloadTrace`]
/// implies: each application counts in proportion to the global intervals
/// it occupies in the trace (churn replacements and vacancy windows shrink
/// an application's share; applications absent from the trace contribute
/// nothing). This is the Fig. 7/8 evaluation "stepped through" a dynamic
/// workload instead of the uniform whole-suite average.
pub fn evaluate_model_on_trace(
    db: &PhaseDb,
    trace: &WorkloadTrace,
    kind: ModelKind,
    sys: &SystemConfig,
    em: &dyn EnergyBackend,
) -> QosEvaluation {
    evaluate_model_weighted(db, kind, sys, em, &trace_app_weights(db, trace))
}

/// Per-database-entry weights implied by a trace's scheduled occupancy
/// (normalized to sum 1 over the applications the database knows).
pub fn trace_app_weights(db: &PhaseDb, trace: &WorkloadTrace) -> Vec<f64> {
    let durations = trace.app_durations();
    let mut weights: Vec<f64> = db
        .apps
        .iter()
        .map(|e| {
            durations
                .iter()
                .find(|(name, _)| name.as_str() == e.spec.name)
                .map(|(_, d)| *d as f64)
                .unwrap_or(0.0)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "trace references no application present in the database");
    for w in &mut weights {
        *w /= total;
    }
    weights
}

/// The shared evaluation core: iterate phases × current × target settings
/// with an explicit per-application weight vector (aligned with
/// `db.apps`, summing to 1).
fn evaluate_model_weighted(
    db: &PhaseDb,
    kind: ModelKind,
    sys: &SystemConfig,
    em: &dyn EnergyBackend,
    app_weights: &[f64],
) -> QosEvaluation {
    let lmem = DramParams::table1().base_latency_s;
    let baseline = sys.baseline_setting();
    let bvf = sys.dvfs.point(baseline.vf);

    let mut total_w = 0.0f64;
    let mut viol_w = 0.0f64;
    let mut sum = 0.0f64;
    let mut sum2 = 0.0f64;
    let mut histogram = vec![0.0f64; N_BINS];

    for (entry, &app_w) in db.apps.iter().zip(app_weights) {
        if app_w == 0.0 {
            continue;
        }
        let weights = entry.spec.phase_weights();
        for (rec, &pw) in entry.records.iter().zip(&weights) {
            let t_act_base = rec.tpi(baseline.core, bvf.freq_hz, baseline.ways);
            // Current settings: (c, w); uniform probability.
            let n_cur = (CoreSize::COUNT * (W_MAX - W_MIN + 1)) as f64;
            for cur_c in CoreSize::ALL {
                for cur_w in W_MIN..=W_MAX {
                    let cur = Setting::new(cur_c, baseline.vf, cur_w);
                    let model = OnlineModel {
                        obs: Observation {
                            stats: rec.monitor_at(cur_c, cur_w),
                            miss_curve_pi: &rec.miss_curve_pi,
                            load_miss_curve_pi: &rec.load_miss_curve_pi,
                            current: cur,
                            sampled_dyn_w: 1.0,
                        },
                        kind,
                        grid: &sys.dvfs,
                        energy: em,
                        lmem_s: lmem,
                    };
                    let (t_pred_base, _) = model.predict(baseline);
                    // Targets: full (c, f, w) grid; uniform probability.
                    let n_tgt = (CoreSize::COUNT * sys.dvfs.len() * (W_MAX - W_MIN + 1)) as f64;
                    let w_triple = app_w * pw / (n_cur * n_tgt);
                    for tc in CoreSize::ALL {
                        for tf in 0..sys.dvfs.len() {
                            for tw in W_MIN..=W_MAX {
                                let tgt = Setting::new(tc, tf, tw);
                                total_w += w_triple;
                                let (t_pred, _) = model.predict(tgt);
                                if t_pred > t_pred_base {
                                    continue; // the RM would not select it
                                }
                                let tvf = sys.dvfs.point(tf);
                                let t_act = rec.tpi(tc, tvf.freq_hz, tw);
                                if t_act > t_act_base {
                                    let v = (t_act - t_act_base) / t_act_base;
                                    viol_w += w_triple;
                                    sum += w_triple * v;
                                    sum2 += w_triple * v * v;
                                    let bin = ((v / BIN_WIDTH) as usize).min(N_BINS - 1);
                                    histogram[bin] += w_triple;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    let probability = viol_w / total_w;
    let (expected, std) = if viol_w > 0.0 {
        let mean = sum / viol_w;
        let var = (sum2 / viol_w - mean * mean).max(0.0);
        (mean, var.sqrt())
    } else {
        (0.0, 0.0)
    };
    QosEvaluation {
        probability,
        expected_violation: expected,
        std_violation: std,
        histogram,
        bin_width: BIN_WIDTH,
    }
}

/// Evaluate all three online models (Fig. 7) under an explicit energy
/// backend.
pub fn evaluate_models(
    db: &PhaseDb,
    sys: &SystemConfig,
    em: &dyn EnergyBackend,
) -> Vec<(ModelKind, QosEvaluation)> {
    ModelKind::ALL.iter().map(|&k| (k, evaluate_model(db, k, sys, em))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_energy::EnergyModel;
    use triad_phasedb::{build_apps, DbConfig};

    fn db() -> PhaseDb {
        let names = ["mcf", "libquantum", "gcc", "povray"];
        let apps: Vec<_> =
            triad_trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
        build_apps(&apps, &DbConfig::fast())
    }

    #[test]
    fn model3_dominates_on_probability_and_tail() {
        let db = db();
        let sys = SystemConfig::table1(4);
        let evals = evaluate_models(&db, &sys, &EnergyModel::default_model());
        let p: Vec<f64> = evals.iter().map(|(_, e)| e.probability).collect();
        // The paper's headline (Fig. 7): Model3 < Model2 < Model1.
        assert!(p[2] < p[1], "Model3 {} must beat Model2 {}", p[2], p[1]);
        assert!(p[2] < p[0], "Model3 {} must beat Model1 {}", p[2], p[0]);
        for (_, e) in &evals {
            assert!(e.probability >= 0.0 && e.probability <= 1.0);
            assert!(e.expected_violation >= 0.0);
        }
    }

    #[test]
    fn histogram_mass_matches_probability() {
        let db = db();
        let sys = SystemConfig::table1(4);
        let e = evaluate_model(&db, ModelKind::Model2, &sys, &EnergyModel::default_model());
        let mass: f64 = e.histogram.iter().sum();
        assert!((mass - e.probability).abs() < 1e-9);
    }

    #[test]
    fn trace_weights_reflect_scheduled_occupancy() {
        use triad_workload::{EventKind, TraceEvent};
        let db = db();
        // A steady trace over a subset weights those apps equally and the
        // rest zero.
        let steady = WorkloadTrace::steady(&["mcf", "gcc"]);
        let w = trace_app_weights(&db, &steady);
        assert_eq!(w.len(), db.apps.len());
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (e, &x) in db.apps.iter().zip(&w) {
            let expect = if ["mcf", "gcc"].contains(&e.spec.name) { 0.5 } else { 0.0 };
            assert_eq!(x, expect, "{}", e.spec.name);
        }
        // A churn trace weights by occupied intervals: mcf holds core 0 for
        // the whole 20-interval horizon, gcc/povray split core 1 12/8.
        let churny = WorkloadTrace {
            n_cores: 2,
            horizon: Some(20),
            events: vec![
                TraceEvent {
                    at: 0,
                    core: 0,
                    kind: EventKind::Arrive { app: "mcf".into(), phase_offset: 0 },
                },
                TraceEvent {
                    at: 0,
                    core: 1,
                    kind: EventKind::Arrive { app: "gcc".into(), phase_offset: 0 },
                },
                TraceEvent {
                    at: 12,
                    core: 1,
                    kind: EventKind::Arrive { app: "povray".into(), phase_offset: 0 },
                },
            ],
        };
        let w = trace_app_weights(&db, &churny);
        let weight_of = |name: &str| {
            db.apps.iter().zip(&w).find(|(e, _)| e.spec.name == name).map(|(_, &x)| x).unwrap()
        };
        assert!((weight_of("mcf") - 0.5).abs() < 1e-12);
        assert!((weight_of("gcc") - 0.3).abs() < 1e-12);
        assert!((weight_of("povray") - 0.2).abs() < 1e-12);
        assert_eq!(weight_of("libquantum"), 0.0);
    }

    #[test]
    fn trace_weighted_evaluation_follows_the_workload() {
        let db = db();
        let sys = SystemConfig::table1(2);
        let em = EnergyModel::default_model();
        let uniform = evaluate_model(&db, ModelKind::Model2, &sys, &em);
        // A trace occupied solely by povray must reproduce the povray-only
        // evaluation — and generally differ from the uniform average.
        let povray_only = WorkloadTrace::steady(&["povray", "povray"]);
        let traced = evaluate_model_on_trace(&db, &povray_only, ModelKind::Model2, &sys, &em);
        let solo_db =
            PhaseDb { apps: db.apps.iter().filter(|e| e.spec.name == "povray").cloned().collect() };
        let solo = evaluate_model(&solo_db, ModelKind::Model2, &sys, &em);
        assert_eq!(traced.probability, solo.probability);
        assert_eq!(traced.expected_violation, solo.expected_violation);
        assert_ne!(traced.probability, uniform.probability);
    }

    #[test]
    fn violations_exist_but_are_minority() {
        let db = db();
        let sys = SystemConfig::table1(4);
        for (k, e) in evaluate_models(&db, &sys, &EnergyModel::default_model()) {
            assert!(e.probability > 0.0, "{k}: some modeling error must exist");
            assert!(e.probability < 0.5, "{k}: violations must be the minority");
        }
    }
}
