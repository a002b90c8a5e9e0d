//! Experiment drivers for the paper's result figures (Figs. 2, 6, 9).
//!
//! Each figure is expressed as a [`Campaign`] of declarative
//! [`ExperimentSpec`]s and executed in parallel: idle references are
//! memoized per workload, and all (workload × controller × model) cells of
//! a figure run concurrently.

use crate::campaign::{Campaign, CampaignRow, ExperimentSpec};
use crate::engine::SimModel;
use triad_phasedb::PhaseDb;
use triad_rm::{ModelKind, RmKind};
use triad_workload::{generate_workloads, Scenario, Workload};

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
pub fn fold_comparison(wl: &Workload, rows: &[CampaignRow]) -> RmComparison {
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

/// Compare RM1/RM2/RM3 against the idle RM on many workloads — one
/// parallel campaign with per-workload memoized idle references.
pub fn compare_rms_many(
    db: &PhaseDb,
    workloads: &[Workload],
    perfect: bool,
    overheads: bool,
    seed: u64,
) -> Vec<RmComparison> {
    let specs: Vec<ExperimentSpec> =
        workloads.iter().flat_map(|wl| comparison_specs(wl, perfect, overheads, seed)).collect();
    let rows = Campaign::new(specs).run(db);
    fold_comparisons(workloads, &rows)
}

/// Compare RM1/RM2/RM3 on one workload against the idle RM.
pub fn compare_rms(db: &PhaseDb, wl: &Workload, perfect: bool, overheads: bool) -> RmComparison {
    compare_rms_many(db, std::slice::from_ref(wl), perfect, overheads, 0)
        .pop()
        .expect("one workload in, one comparison out")
}

/// Fig. 2: two-core workloads, one per scenario, with perfect models and no
/// overheads.
///
/// Representative pairs (first × second half category per §II):
/// S1 = libquantum + mcf (CI-PS × CS-PS), S2 = xalancbmk + povray (CS-PI × CI-PI),
/// S3 = libquantum + bwaves (CI-PS × CI-PS), S4 = povray + gamess
/// (CI-PI × CI-PI).
pub fn fig2(db: &PhaseDb) -> Vec<RmComparison> {
    compare_rms_many(db, &fig2_workloads(), true, false, 0)
}

/// The four representative two-core workloads of Fig. 2.
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

/// Fig. 6: six workloads per scenario at `n_cores` (4 or 8 in the paper),
/// realistic models and overheads, RM1/RM2/RM3.
pub fn fig6(db: &PhaseDb, n_cores: usize, seed: u64) -> Vec<RmComparison> {
    compare_rms_many(db, &generate_workloads(n_cores, 6, seed), false, true, seed)
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

/// Fig. 9: RM3 with Model1/Model2/Model3 versus the perfect-model bound, on
/// the same workloads as Fig. 6 (overheads included; the perfect bound also
/// predicts the next phase exactly).
pub fn fig9(db: &PhaseDb, n_cores: usize, seed: u64) -> Vec<ModelComparison> {
    let workloads = generate_workloads(n_cores, 6, seed);
    let rows = Campaign::new(fig9_specs(&workloads, seed)).run(db);
    fold_model_comparisons(&workloads, &rows)
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
/// model comparisons.
pub fn fold_model_comparisons(
    workloads: &[Workload],
    rows: &[CampaignRow],
) -> Vec<ModelComparison> {
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
    use triad_phasedb::{DbConfig, DbStore};

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

    #[test]
    fn fig2_shapes_hold() {
        let db = db();
        let rows = fig2(&db);
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
        let rows = fig2(&db);
        let (weighted, plain) = averages(&rows);
        for rm in 0..3 {
            let lo = rows.iter().map(|r| r.savings[rm]).fold(f64::INFINITY, f64::min);
            let hi = rows.iter().map(|r| r.savings[rm]).fold(f64::NEG_INFINITY, f64::max);
            assert!(weighted[rm] >= lo - 1e-12 && weighted[rm] <= hi + 1e-12);
            assert!(plain[rm] >= lo - 1e-12 && plain[rm] <= hi + 1e-12);
        }
    }
}
