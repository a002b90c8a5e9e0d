//! Spec builders and row folds for the paper's result figures (Figs. 2,
//! 6, 9).
//!
//! Each figure is one [`Campaign`](crate::Campaign) of declarative
//! [`ExperimentSpec`]s: the builders here expand workloads into specs, the
//! caller runs them (the `triad-bench` presenters do, in parallel with
//! memoized idle references), and the folds turn the rows back into
//! figure-shaped comparisons.

use crate::campaign::{CampaignRow, ExperimentSpec};
use crate::engine::SimModel;
use triad_rm::{ModelKind, RmKind};
use triad_workload::{Scenario, Workload};

/// Energy savings of the three controllers on one workload.
#[derive(Debug, Clone)]
pub struct RmComparison {
    /// The workload evaluated.
    pub workload: Workload,
    /// Savings (fraction of idle-RM energy) for RM1, RM2, RM3.
    pub savings: [f64; 3],
    /// Observed QoS-violation rate per RM (violating intervals / checked).
    pub violation_rate: [f64; 3],
}

/// The model each controller uses in the realistic (Fig. 6) runs: the
/// prior-art controllers RM1/RM2 ship with the constant-MLP model
/// (Model2 — [Nejat et al., IPDPS 2019]); the proposed RM3 uses Model3.
pub fn default_model_for(rm: RmKind) -> SimModel {
    match rm {
        RmKind::Rm1 | RmKind::Rm2 => SimModel::Online(ModelKind::Model2),
        RmKind::Rm3 | RmKind::Rm3Full => SimModel::Online(ModelKind::Model3),
    }
}

/// The specs of one RM1/RM2/RM3 comparison row (Fig. 2/6 cell).
pub fn comparison_specs(
    wl: &Workload,
    perfect: bool,
    overheads: bool,
    seed: u64,
) -> Vec<ExperimentSpec> {
    RmKind::ALL
        .iter()
        .map(|&rm| {
            let model = if perfect { SimModel::Perfect } else { default_model_for(rm) };
            ExperimentSpec::for_workload(wl, Some(rm)).model(model).overheads(overheads).seed(seed)
        })
        .collect()
}

/// Fold three campaign rows (RM1/RM2/RM3, in order) into one comparison.
fn fold_comparison(wl: &Workload, rows: &[CampaignRow]) -> RmComparison {
    let mut savings = [0.0; 3];
    let mut viol = [0.0; 3];
    for (i, row) in rows.iter().enumerate() {
        savings[i] = row.savings;
        viol[i] = row.violation_rate;
    }
    RmComparison { workload: wl.clone(), savings, violation_rate: viol }
}

/// Fold campaign rows produced from per-workload [`comparison_specs`]
/// back into comparisons — the one place that knows the rows arrive in
/// `RmKind::ALL`-sized chunks per workload.
pub fn fold_comparisons(workloads: &[Workload], rows: &[CampaignRow]) -> Vec<RmComparison> {
    assert_eq!(rows.len(), workloads.len() * RmKind::ALL.len());
    workloads
        .iter()
        .zip(rows.chunks(RmKind::ALL.len()))
        .map(|(wl, chunk)| fold_comparison(wl, chunk))
        .collect()
}

/// The four representative two-core workloads of Fig. 2, one per
/// scenario; the figure runs them with perfect models and no overheads.
///
/// Representative pairs (first × second half category per §II):
/// S1 = libquantum + mcf (CI-PS × CS-PS), S2 = xalancbmk + povray (CS-PI × CI-PI),
/// S3 = libquantum + bwaves (CI-PS × CI-PS), S4 = povray + gamess
/// (CI-PI × CI-PI).
pub fn fig2_workloads() -> Vec<Workload> {
    let cases = [
        (Scenario::S1, ["libquantum", "mcf"]),
        (Scenario::S2, ["xalancbmk", "povray"]),
        (Scenario::S3, ["libquantum", "bwaves"]),
        (Scenario::S4, ["povray", "gamess"]),
    ];
    cases
        .iter()
        .map(|(s, apps)| Workload {
            name: format!("2Core-{}", s.label()),
            scenario: *s,
            apps: apps.to_vec(),
        })
        .collect()
}

/// Scenario-weighted and plain averages over a set of comparisons
/// (the paper weights scenarios by 47/22.1/22.1/8.8 %).
pub fn averages(rows: &[RmComparison]) -> (Vec<f64>, Vec<f64>) {
    let mut weighted = vec![0.0; 3];
    let mut plain = vec![0.0; 3];
    for rm in 0..3 {
        let mut wsum = 0.0;
        for s in Scenario::ALL {
            let in_s: Vec<f64> =
                rows.iter().filter(|r| r.workload.scenario == s).map(|r| r.savings[rm]).collect();
            if !in_s.is_empty() {
                let mean = in_s.iter().sum::<f64>() / in_s.len() as f64;
                weighted[rm] += s.weight() * mean;
                wsum += s.weight();
            }
        }
        if wsum > 0.0 {
            weighted[rm] /= wsum;
        }
        plain[rm] = rows.iter().map(|r| r.savings[rm]).sum::<f64>() / rows.len().max(1) as f64;
    }
    (weighted, plain)
}

/// Per-scenario mean savings per RM.
pub fn scenario_means(rows: &[RmComparison]) -> Vec<(Scenario, [f64; 3])> {
    Scenario::ALL
        .iter()
        .map(|&s| {
            let in_s: Vec<&RmComparison> =
                rows.iter().filter(|r| r.workload.scenario == s).collect();
            let mut m = [0.0; 3];
            for (rm, slot) in m.iter_mut().enumerate() {
                *slot = in_s.iter().map(|r| r.savings[rm]).sum::<f64>() / in_s.len().max(1) as f64;
            }
            (s, m)
        })
        .collect()
}

/// One workload's RM3 savings under every model (Fig. 9).
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// The workload evaluated.
    pub workload: Workload,
    /// Savings under Model1, Model2, Model3, and the perfect model.
    pub savings: [f64; 4],
}

/// The model ladder Fig. 9 sweeps, in figure order.
pub const FIG9_MODELS: [SimModel; 4] = [
    SimModel::Online(ModelKind::Model1),
    SimModel::Online(ModelKind::Model2),
    SimModel::Online(ModelKind::Model3),
    SimModel::Perfect,
];

/// The RM3-under-every-model specs for a set of workloads (Fig. 9 cells).
pub fn fig9_specs(workloads: &[Workload], seed: u64) -> Vec<ExperimentSpec> {
    workloads
        .iter()
        .flat_map(|wl| {
            FIG9_MODELS.iter().map(|&model| {
                ExperimentSpec::for_workload(wl, Some(RmKind::Rm3)).model(model).seed(seed)
            })
        })
        .collect()
}

/// Fold campaign rows produced from [`fig9_specs`] back into per-workload
/// model comparisons; the rows arrive in `FIG9_MODELS`-sized chunks per
/// workload.
pub fn fold_model_comparisons(
    workloads: &[Workload],
    rows: &[CampaignRow],
) -> Vec<ModelComparison> {
    assert_eq!(rows.len(), workloads.len() * FIG9_MODELS.len());
    workloads
        .iter()
        .zip(rows.chunks(FIG9_MODELS.len()))
        .map(|(wl, chunk)| {
            let mut savings = [0.0; 4];
            for (i, row) in chunk.iter().enumerate() {
                savings[i] = row.savings;
            }
            ModelComparison { workload: wl.clone(), savings }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use triad_phasedb::{DbConfig, DbStore, PhaseDb};

    /// Resolved through the shared workspace store (see
    /// `campaign::tests::small_db`): warm test runs skip the build.
    fn db() -> PhaseDb {
        let names = [
            "mcf",
            "sphinx3",
            "gcc",
            "hmmer",
            "xalancbmk",
            "libquantum",
            "bwaves",
            "povray",
            "gamess",
        ];
        let apps: Vec<_> =
            triad_trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
        DbStore::default_cache().resolve(&apps, &DbConfig::fast()).db
    }

    /// Fig. 2 as the `triad-bench` presenter runs it: perfect models, no
    /// overheads, one campaign over the four representative pairs.
    fn fig2_comparisons(db: &PhaseDb) -> Vec<RmComparison> {
        let workloads = fig2_workloads();
        let specs: Vec<ExperimentSpec> =
            workloads.iter().flat_map(|wl| comparison_specs(wl, true, false, 0)).collect();
        fold_comparisons(&workloads, &Campaign::new(specs).run(db))
    }

    /// A short Fig. 9 campaign (RM3 under every model) over the first two
    /// Fig. 2 pairs.
    fn fig9_rows(db: &PhaseDb) -> (Vec<Workload>, Vec<CampaignRow>) {
        let workloads = fig2_workloads()[..2].to_vec();
        let specs = fig9_specs(&workloads, 0).into_iter().map(|s| s.target_intervals(16)).collect();
        let rows = Campaign::new(specs).run(db);
        (workloads, rows)
    }

    #[test]
    fn fig2_shapes_hold() {
        let db = db();
        let rows = fig2_comparisons(&db);
        assert_eq!(rows.len(), 4);
        let s1 = &rows[0].savings;
        let s2 = &rows[1].savings;
        let s3 = &rows[2].savings;
        let s4 = &rows[3].savings;
        // Scenario 1: RM3 clearly above RM2.
        assert!(s1[2] > s1[1] + 0.01, "S1: RM3 {} vs RM2 {}", s1[2], s1[1]);
        // Scenario 2: RM2 and RM3 comparable.
        assert!((s2[2] - s2[1]).abs() < 0.05, "S2: RM3 {} vs RM2 {}", s2[2], s2[1]);
        // Scenario 3: only RM3 effective.
        assert!(s3[2] > 0.03, "S3: RM3 must save: {}", s3[2]);
        assert!(s3[1] < s3[2] * 0.5, "S3: RM2 {} must trail RM3 {}", s3[1], s3[2]);
        // Scenario 4: nobody saves much.
        assert!(s4[2].abs() < 0.04, "S4: RM3 should be ineffective: {}", s4[2]);
    }

    #[test]
    fn averages_are_convex_combinations() {
        let db = db();
        let rows = fig2_comparisons(&db);
        let (weighted, plain) = averages(&rows);
        for rm in 0..3 {
            let lo = rows.iter().map(|r| r.savings[rm]).fold(f64::INFINITY, f64::min);
            let hi = rows.iter().map(|r| r.savings[rm]).fold(f64::NEG_INFINITY, f64::max);
            assert!(weighted[rm] >= lo - 1e-12 && weighted[rm] <= hi + 1e-12);
            assert!(plain[rm] >= lo - 1e-12 && plain[rm] <= hi + 1e-12);
        }
    }

    #[test]
    fn fig9_fold_puts_each_model_in_its_column() {
        let db = db();
        let (workloads, rows) = fig9_rows(&db);
        let comparisons = fold_model_comparisons(&workloads, &rows);
        assert_eq!(comparisons.len(), workloads.len());
        for (wl, cmp) in workloads.iter().zip(&comparisons) {
            assert_eq!(cmp.workload.name, wl.name);
            for (i, model) in FIG9_MODELS.iter().enumerate() {
                let row = rows
                    .iter()
                    .find(|r| r.spec.scenario == Some(wl.scenario) && r.spec.model == *model)
                    .expect("one row per (workload, model)");
                assert_eq!(cmp.savings[i], row.savings, "{} column {i}", wl.name);
            }
        }
    }

    #[test]
    #[should_panic]
    fn fig9_fold_rejects_a_short_row_list() {
        let db = db();
        let (workloads, mut rows) = fig9_rows(&db);
        rows.remove(1);
        fold_model_comparisons(&workloads, &rows);
    }
}
