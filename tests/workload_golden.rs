//! The workload subsystem's workspace-level contract:
//!
//! 1. a **steady §IV-C `WorkloadSpec`** reproduces the pre-refactor
//!    campaign rows byte-identically — against the same pre-refactor
//!    golden the energy-backend seam is held to — modulo the new
//!    `"workload_fingerprint"` metadata field (and the older
//!    `"energy_backend"` one);
//! 2. a workload-spec'd campaign and its plain-apps equivalent serialize
//!    **byte-identically with no stripping at all** (same trace, same
//!    fingerprint);
//! 3. the `churn` and `workload-sweep` presets run end-to-end through the
//!    `triad-bench` report layer and record a workload fingerprint, a
//!    savings figure and a QoS-violation rate in every row.

use triad::sim::{Campaign, ExperimentSpec};
use triad::workload::WorkloadSpec;
use triad_bench::reports::{self, RunOptions};
use triad_util::json::Json;

/// Byte-exact pre-refactor campaign report (captured from the seed code
/// before either the energy-backend or the workload subsystem existed).
const GOLDEN: &str = include_str!("golden/campaign_default.json");

fn db() -> triad::phasedb::PhaseDb {
    let names = ["mcf", "povray"];
    let apps: Vec<_> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    triad::phasedb::build_apps(&apps, &triad::phasedb::DbConfig::fast())
}

/// The golden spec list, re-expressed through the workload subsystem: the
/// same steady mcf+povray mix, carried as a `WorkloadSpec` instead of a
/// plain app list.
fn golden_specs_via_workload() -> Vec<ExperimentSpec> {
    let steady = || WorkloadSpec::Static { apps: vec!["mcf".into(), "povray".into()] };
    let base = |name: &str| {
        ExperimentSpec::for_workload_spec(name, steady())
            .expect("static workloads materialize")
            .target_intervals(6)
            .seed(7)
    };
    vec![
        base("golden/idle").rm(None),
        base("golden/rm3-perfect").perfect(),
        base("golden/rm3-model3"),
    ]
}

/// The same specs as plain app lists (the pre-subsystem form).
fn golden_specs_plain() -> Vec<ExperimentSpec> {
    let base =
        |name: &str| ExperimentSpec::new(name, &["mcf", "povray"]).target_intervals(6).seed(7);
    vec![
        base("golden/idle").rm(None),
        base("golden/rm3-perfect").perfect(),
        base("golden/rm3-model3"),
    ]
}

/// Drop the post-refactor metadata lines so the rest of the report can be
/// compared byte-for-byte against the pre-refactor bytes.
fn strip_metadata_lines(report: &str) -> String {
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
fn steady_workload_spec_reproduces_pre_refactor_rows_byte_identically() {
    let db = db();
    let via_workload =
        Campaign::report(&Campaign::new(golden_specs_via_workload()).run(&db)).to_string_pretty();
    // Every row records the workload fingerprint (same trace → same hash).
    assert_eq!(via_workload.matches("\"workload_fingerprint\"").count(), 3);
    let fp = WorkloadSpec::Static { apps: vec!["mcf".into(), "povray".into()] }
        .materialize()
        .unwrap()
        .fingerprint();
    assert_eq!(via_workload.matches(fp.as_str()).count(), 3);
    // Modulo the two metadata lines, the bytes are the pre-refactor bytes.
    assert_eq!(
        strip_metadata_lines(&via_workload),
        GOLDEN,
        "a steady §IV-C WorkloadSpec must reproduce pre-refactor campaign rows \
         byte-identically modulo the workload-fingerprint metadata"
    );
    // And the plain-apps path produces the *same* bytes with no stripping:
    // a static app list and its explicit workload spec are the same trace.
    let plain = Campaign::report(&Campaign::new(golden_specs_plain()).run(&db)).to_string_pretty();
    assert_eq!(via_workload, plain);
}

fn rows_of(doc: &Json) -> &[Json] {
    match doc.get("rows") {
        Some(Json::Arr(rows)) => rows,
        other => panic!("report must carry a rows array, got {other:?}"),
    }
}

fn assert_workload_rows_well_formed(doc: &Json) {
    let rows = rows_of(doc);
    assert!(!rows.is_empty());
    for row in rows {
        match row.get("workload_fingerprint") {
            Some(Json::Str(fp)) => assert_eq!(fp.len(), 64, "sha-256 hex fingerprint"),
            other => panic!("row missing workload_fingerprint: {other:?}"),
        }
        for key in ["savings", "violation_rate"] {
            match row.get(key) {
                Some(Json::Num(x)) => assert!(x.is_finite(), "{key} must be finite"),
                Some(Json::Int(_)) => {}
                other => panic!("row missing {key}: {other:?}"),
            }
        }
        assert!(row.get("scenario").is_some(), "rows are scenario-labeled");
    }
}

#[test]
fn churn_preset_runs_end_to_end_on_a_two_app_pool() {
    let db = db();
    let opts = RunOptions { intervals: Some(8), ..RunOptions::default() };
    let pool = vec!["mcf".to_string(), "povray".to_string()];
    let doc = reports::churn(&db, 2, 2020, &pool, &opts);
    assert_eq!(doc.get("experiment"), Some(&Json::from("churn")));
    assert_workload_rows_well_formed(&doc);
    match doc.get("arrivals") {
        Some(Json::Int(n)) => assert!(*n > 0, "churn must observe arrivals"),
        other => panic!("churn report missing arrivals: {other:?}"),
    }
}

#[test]
fn workload_sweep_preset_runs_end_to_end() {
    // The sweep samples census-wide apps; resolve the full suite through
    // the shared fast-config store (built once, reused by later tests).
    let db = triad::phasedb::DbStore::default_cache()
        .resolve(triad::trace::suite(), &triad::phasedb::DbConfig::fast())
        .db;
    let opts = RunOptions { intervals: Some(6), ..RunOptions::default() };
    let doc = reports::workload_sweep(&db, 2, 2020, &opts);
    assert_eq!(doc.get("experiment"), Some(&Json::from("workload-sweep")));
    assert_workload_rows_well_formed(&doc);
    // Per-scenario means are reported for every scenario.
    match doc.get("scenario_means") {
        Some(Json::Arr(means)) => assert_eq!(means.len(), 4),
        other => panic!("sweep report missing scenario_means: {other:?}"),
    }
    // Every generator kind appears.
    let rows = rows_of(&doc);
    for kind in ["steady", "phased", "bursty", "churn", "scaled"] {
        assert!(
            rows.iter().any(|r| r.get("kind") == Some(&Json::from(kind))),
            "sweep must cover the {kind} generator"
        );
    }
}
