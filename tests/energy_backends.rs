//! The energy-backend seam's workspace-level contract:
//!
//! 1. with the **default** (McPAT-parametric) backend, campaign rows are
//!    byte-identical to the pre-refactor output (golden captured before the
//!    `EnergyBackend` trait existed) apart from the added self-describing
//!    `"energy_backend"` metadata line;
//! 2. non-default backends run the same specs end-to-end and produce
//!    *different*, self-describing rows;
//! 3. the phase database is purely microarchitectural: its content-address
//!    (and therefore the persisted store artifact) is unchanged by the
//!    energy backend choice.

use triad::energy::{EnergyBackendConfig, EnergyModel, TableBackend};
use triad::phasedb::{build_apps, db_fingerprint, DbConfig, DbStore, PhaseDb};
use triad::rm::{ModelKind, RmKind};
use triad::sim::engine::SimModel;
use triad::sim::{Campaign, ExperimentSpec};
use triad_arch::DvfsGrid;

/// Byte-exact pre-refactor campaign report for [`golden_specs`] (captured
/// from the seed code before `EnergyModel` became a backend).
const GOLDEN: &str = include_str!("golden/campaign_default.json");

fn db() -> PhaseDb {
    let names = ["mcf", "povray"];
    let apps: Vec<_> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    build_apps(&apps, &DbConfig::fast())
}

/// The exact spec list the golden was captured with.
fn golden_specs() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::new("golden/idle", &["mcf", "povray"]).rm(None).target_intervals(6).seed(7),
        ExperimentSpec::new("golden/rm3-perfect", &["mcf", "povray"])
            .perfect()
            .target_intervals(6)
            .seed(7),
        ExperimentSpec::new("golden/rm3-model3", &["mcf", "povray"])
            .model(SimModel::Online(ModelKind::Model3))
            .rm(Some(RmKind::Rm3))
            .target_intervals(6)
            .seed(7),
    ]
}

/// Drop the post-refactor metadata lines (`"energy_backend"` from the
/// backend seam, `"workload_fingerprint"` from the workload subsystem) so
/// the rest of the report can be compared byte-for-byte against the
/// pre-refactor bytes.
fn strip_backend_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("\"energy_backend\"") && !l.starts_with("\"workload_fingerprint\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn default_backend_reproduces_pre_refactor_rows_byte_identically() {
    let db = db();
    let report = Campaign::report(&Campaign::new(golden_specs()).run(&db)).to_string_pretty();
    // The new metadata is present on every row...
    assert_eq!(
        report.matches("\"energy_backend\": \"mcpat\"").count(),
        3,
        "every spec must self-describe its backend"
    );
    // ...and is the *only* difference from the pre-refactor bytes.
    assert_eq!(
        strip_backend_lines(&report),
        GOLDEN,
        "the default parametric backend must reproduce pre-refactor campaign rows byte-identically"
    );
}

#[test]
fn alternative_backends_run_end_to_end_and_change_the_rows() {
    let db = db();
    let table_path = triad_util::fs::unique_temp_path("backend-test-table.json");
    let table_path = table_path.to_str().unwrap().to_string();
    // A genuinely different "measurement": 20 % leakier than the model.
    let mut table = TableBackend::sampled_from(
        &EnergyModel::default_model(),
        DvfsGrid::table1().points(),
        table_path.clone(),
    );
    for pts in &mut table.points {
        for p in pts.iter_mut() {
            p.static_w *= 1.2;
        }
    }
    table.save(&table_path).unwrap();

    let with = |energy: EnergyBackendConfig| {
        let specs = golden_specs().into_iter().map(|s| s.energy_backend(energy.clone())).collect();
        Campaign::new(specs).run(&db)
    };
    let base = with(EnergyBackendConfig::Parametric);
    let scaled = with(EnergyBackendConfig::Scaled { node: "14nm".into() });
    let tabled = with(EnergyBackendConfig::Table { path: table_path.clone() });
    let _ = std::fs::remove_file(&table_path);

    for (rows, label) in [(&scaled, "scaled:14nm"), (&tabled, "table:")] {
        for (row, base_row) in rows.iter().zip(&base) {
            assert_ne!(
                row.result.total_energy_j, base_row.result.total_energy_j,
                "{label}: joules must differ from the parametric backend"
            );
            assert!(row.result.total_energy_j > 0.0);
            let json = row.to_json().to_string_pretty();
            assert!(
                json.contains(&format!("\"energy_backend\": \"{label}")),
                "{label}: rows must be self-describing, got:\n{json}"
            );
        }
    }
    // A 14 nm shrink cuts dynamic power harder than leakage: total joules
    // must drop relative to the 32 nm-calibrated base.
    assert!(scaled[0].result.total_energy_j < base[0].result.total_energy_j);
    // The leakier table raises them.
    assert!(tabled[0].result.total_energy_j > base[0].result.total_energy_j);
}

#[test]
fn phase_db_fingerprint_is_independent_of_the_energy_backend() {
    // The fingerprint is a pure function of (apps, DbConfig) — no energy
    // parameter exists in its input set...
    let apps: Vec<_> = triad::trace::suite()
        .iter()
        .filter(|a| ["mcf", "povray"].contains(&a.name))
        .cloned()
        .collect();
    let cfg = DbConfig::fast();
    let digest = db_fingerprint(&apps, &cfg);

    // ...so campaigns under different backends must resolve to the same
    // persisted artifact: one store file serves every backend.
    let dir = triad_util::fs::unique_temp_path("backend-fingerprint-test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DbStore::new(&dir);
    let mut paths = Vec::new();
    for energy in
        [EnergyBackendConfig::Parametric, EnergyBackendConfig::Scaled { node: "7nm".into() }]
    {
        let spec = ExperimentSpec::new("fp", &["mcf", "povray"])
            .perfect()
            .target_intervals(2)
            .energy_backend(energy);
        let campaign = Campaign::new(vec![spec]);
        let resolved = store.resolve(&campaign.required_apps(), &cfg);
        assert!(resolved.path.to_string_lossy().contains(&digest));
        paths.push(resolved.path.clone());
        let rows = campaign.run(&resolved.db);
        assert!(rows[0].result.total_energy_j > 0.0);
    }
    assert_eq!(paths[0], paths[1], "backend choice must not re-key the phase database");
    let artifacts = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(artifacts, 1, "exactly one store artifact must serve every backend");
    let _ = std::fs::remove_dir_all(&dir);
}
