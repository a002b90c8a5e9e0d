//! Crash-recovery tests for the journaled campaign path: resume-skip,
//! panic quarantine, typed error rows, and torn-tail repair. These live
//! in their own test binary (own process) because the failpoint registry
//! and telemetry totals are process-global.

use std::path::PathBuf;
use std::sync::Mutex;
use triad_energy::EnergyBackendConfig;
use triad_phasedb::{DbConfig, DbStore, PhaseDb};
use triad_sim::{Campaign, CampaignError, ExperimentSpec};
use triad_util::failpoint::{self, FaultKind, Trigger};

/// Failpoints and telemetry are process-global; every test serializes on
/// this and starts from a disarmed registry.
static GUARD: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    g
}

/// The shared-workspace-store subset the campaign unit tests use.
fn small_db() -> PhaseDb {
    let names = ["mcf", "libquantum", "povray", "gcc"];
    let apps: Vec<_> =
        triad_trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    DbStore::default_cache().resolve(&apps, &DbConfig::fast()).db
}

fn quick_specs() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::new("a/rm3", &["mcf", "povray"]).perfect().target_intervals(6),
        ExperimentSpec::new("b/rm3", &["libquantum", "gcc"]).perfect().target_intervals(6),
        ExperimentSpec::new("c/rm3", &["mcf", "gcc"]).perfect().target_intervals(6),
    ]
}

fn temp_journal(tag: &str) -> PathBuf {
    triad_util::fs::unique_temp_path(&format!("journal-test-{tag}.jsonl"))
}

#[test]
fn resume_skips_simulation_and_reproduces_rows_byte_identically() {
    let _g = locked();
    let db = small_db();
    let path = temp_journal("resume");
    let _ = std::fs::remove_file(&path);
    let campaign = Campaign::new(quick_specs()).threads(1);

    let fresh = campaign.run_journaled(&db, &path, false).unwrap();
    assert_eq!((fresh.simulated, fresh.resumed), (3, 0));
    assert_eq!(fresh.rows.len(), 3);

    triad_telemetry::enable(triad_telemetry::METRICS);
    triad_telemetry::reset();
    let resumed = campaign.run_journaled(&db, &path, true).unwrap();
    assert_eq!((resumed.simulated, resumed.resumed), (0, 3));
    assert_eq!(
        Campaign::report_full(&fresh.rows, &fresh.quarantined).to_string_compact(),
        Campaign::report_full(&resumed.rows, &resumed.quarantined).to_string_compact(),
        "resumed rows must be byte-identical to the uninterrupted run"
    );
    let snap = triad_telemetry::snapshot();
    assert_eq!(snap.counter("campaign.rows_resumed"), 3);
    assert_eq!(snap.counter("journal.records_loaded"), 3);
    assert_eq!(snap.counter("campaign.rows_simulated"), 0);
    triad_telemetry::disable_all();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_panicking_spec_is_quarantined_and_the_rest_complete() {
    let _g = locked();
    let db = small_db();
    let campaign = Campaign::new(quick_specs()).threads(1);
    let baseline = campaign.try_run(&db);
    assert!(baseline.quarantined.is_empty());

    // One injected panic: exactly one spec quarantines as a structured
    // error row; the other rows complete and match the clean run.
    failpoint::configure("campaign.row", Trigger::Once, FaultKind::Panic);
    let faulted = campaign.try_run(&db);
    failpoint::clear_all();
    assert_eq!(faulted.rows.len(), 2);
    assert_eq!(faulted.quarantined.len(), 1);
    let q = &faulted.quarantined[0];
    assert!(matches!(q.error, CampaignError::RowPanic { .. }), "got {:?}", q.error.kind_label());
    assert!(q.error.to_string().contains("injected panic"));
    for row in &faulted.rows {
        let clean = baseline.rows.iter().find(|r| r.spec == row.spec).unwrap();
        assert_eq!(
            row.to_json().to_string_compact(),
            clean.to_json().to_string_compact(),
            "surviving rows must be unaffected by the quarantine"
        );
    }

    // The full report carries the error rows; the plain report shape is
    // unchanged when nothing quarantined.
    let report = Campaign::report_full(&faulted.rows, &faulted.quarantined).to_string_compact();
    assert!(report.contains("\"quarantined\""));
    assert!(report.contains("row_panic"));
    assert_eq!(
        Campaign::report_full(&baseline.rows, &baseline.quarantined).to_string_compact(),
        Campaign::report(&baseline.rows).to_string_compact()
    );
}

#[test]
fn a_quarantined_journal_run_reconverges_on_resume() {
    let _g = locked();
    let db = small_db();
    let path = temp_journal("reconverge");
    let _ = std::fs::remove_file(&path);
    let campaign = Campaign::new(quick_specs()).threads(1);
    let baseline = campaign.try_run(&db);

    failpoint::configure("campaign.row", Trigger::Once, FaultKind::Panic);
    let faulted = campaign.run_journaled(&db, &path, false).unwrap();
    failpoint::clear_all();
    assert_eq!((faulted.rows.len(), faulted.quarantined.len()), (2, 1));

    // Resume without faults: the journal replays the two completed rows
    // and only the quarantined spec is simulated.
    let resumed = campaign.run_journaled(&db, &path, true).unwrap();
    assert_eq!((resumed.simulated, resumed.resumed), (1, 2));
    assert_eq!(
        Campaign::report(&resumed.rows).to_string_compact(),
        Campaign::report(&baseline.rows).to_string_compact(),
        "recovered campaign must match the uninterrupted run byte for byte"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn workload_and_backend_failures_become_typed_error_rows() {
    let _g = locked();
    let db = small_db();

    // A backend that cannot build (missing table file) quarantines with
    // the energy_backend kind instead of panicking the campaign.
    let bad_backend = ExperimentSpec::new("bad-backend", &["mcf", "povray"])
        .perfect()
        .target_intervals(6)
        .energy_backend(EnergyBackendConfig::Table { path: "/nonexistent/table.json".into() });
    // A dynamic workload whose (re-)materialization faults mid-campaign
    // quarantines with the workload kind. Static app-list specs never
    // hit `workload.materialize`; only a WorkloadSpec-backed one does.
    let dynamic = ExperimentSpec::for_workload_spec(
        "bad-workload",
        triad_workload::WorkloadSpec::Steady { n_cores: 2, scenario: None, seed: 7 },
    )
    .unwrap()
    .perfect()
    .target_intervals(6);
    failpoint::configure("workload.materialize", Trigger::Once, FaultKind::Error);
    let good =
        ExperimentSpec::new("good/rm3", &["libquantum", "gcc"]).perfect().target_intervals(6);
    let outcome = Campaign::new(vec![dynamic, bad_backend, good]).threads(1).try_run(&db);
    failpoint::clear_all();

    assert_eq!(outcome.rows.len(), 1, "the healthy spec must still complete");
    assert_eq!(outcome.rows[0].spec.name, "good/rm3");
    let kinds: Vec<&str> = outcome.quarantined.iter().map(|q| q.error.kind_label()).collect();
    assert_eq!(kinds, ["workload", "energy_backend"]);
    for q in &outcome.quarantined {
        let json = q.to_json().to_string_compact();
        assert!(json.contains("\"kind\"") && json.contains("\"message\""), "{json}");
    }
}

#[test]
fn a_torn_tail_resimulates_only_the_torn_row() {
    let _g = locked();
    let db = small_db();
    let path = temp_journal("torn");
    let _ = std::fs::remove_file(&path);
    let campaign = Campaign::new(quick_specs()).threads(1);
    let fresh = campaign.run_journaled(&db, &path, false).unwrap();
    assert_eq!(fresh.rows.len(), 3);

    // Tear the final record mid-write, as a crash would.
    let text = std::fs::read_to_string(&path).unwrap();
    let torn = &text[..text.len() - 17];
    std::fs::write(&path, torn).unwrap();

    let resumed = campaign.run_journaled(&db, &path, true).unwrap();
    assert_eq!((resumed.simulated, resumed.resumed), (1, 2));
    assert_eq!(
        Campaign::report(&resumed.rows).to_string_compact(),
        Campaign::report(&fresh.rows).to_string_compact()
    );

    // The repaired journal now holds all three rows again: a second
    // resume simulates nothing.
    let again = campaign.run_journaled(&db, &path, true).unwrap();
    assert_eq!((again.simulated, again.resumed), (0, 3));
    let _ = std::fs::remove_file(&path);
}

/// The journal record carries the `SimResult` fields the report row JSON
/// omits (`arrivals`, `departures`, `vacancy_energy_j`): the churn and
/// workload presenters consume them, so a resumed row must restore them
/// exactly rather than zeroing them.
#[test]
fn resumed_rows_restore_the_journal_only_simresult_fields() {
    let _g = locked();
    let db = small_db();
    let path = temp_journal("churn-resume");
    let _ = std::fs::remove_file(&path);
    let churn = triad_workload::WorkloadSpec::Churn {
        n_cores: 2,
        seed: 7,
        period: 3,
        horizon: 12,
        scenario: None,
        pool: vec!["mcf".into(), "povray".into()],
    };
    let spec = ExperimentSpec::for_workload_spec("churn/rm3", churn)
        .unwrap()
        .perfect()
        .target_intervals(6);
    let campaign = Campaign::new(vec![spec]).threads(1);
    let fresh = campaign.run_journaled(&db, &path, false).unwrap();
    assert_eq!(fresh.rows.len(), 1);
    assert!(fresh.rows[0].result.arrivals > 2, "churn must replace apps mid-run");

    let resumed = campaign.run_journaled(&db, &path, true).unwrap();
    assert_eq!((resumed.simulated, resumed.resumed), (0, 1));
    let (a, b) = (&fresh.rows[0].result, &resumed.rows[0].result);
    assert_eq!((a.arrivals, a.departures), (b.arrivals, b.departures));
    assert_eq!(a.vacancy_energy_j.to_bits(), b.vacancy_energy_j.to_bits());
    let _ = std::fs::remove_file(&path);
}

/// A transient write fault mid-append may leave a partial, unterminated
/// prefix in the journal; the retry (and any later append after an
/// exhausted retry budget) must lead with a newline so the next record
/// never glues onto the fragment and gets dropped with it.
#[test]
fn append_faults_never_corrupt_the_following_record() {
    let _g = locked();
    let path = temp_journal("retry");
    let _ = std::fs::remove_file(&path);
    let row = |i: i64| triad_util::json::Json::obj().set("i", i);
    let j = triad_sim::journal::RowJournal::open(&path, true).unwrap();
    j.append("k1", &row(1));

    // One transient fault: the retry lands the record intact.
    failpoint::configure("journal.append", Trigger::Once, FaultKind::Error);
    j.append("k2", &row(2));

    // A fault outlasting the whole retry budget loses its record; the
    // *next* append must still start on a fresh line.
    failpoint::configure("journal.append", Trigger::Always, FaultKind::Error);
    j.append("k3", &row(3));
    failpoint::clear_all();
    j.append("k4", &row(4));
    drop(j);

    let loaded = triad_sim::journal::load(&path).unwrap();
    assert_eq!(loaded.corrupt_dropped, 0, "no record may merge with a failed write");
    assert_eq!(loaded.rows.len(), 3);
    for k in ["k1", "k2", "k4"] {
        assert!(loaded.rows.contains_key(k), "{k} must survive");
    }
    assert!(!loaded.rows.contains_key("k3"), "the exhausted-budget append stays lost");
    let _ = std::fs::remove_file(&path);
}

/// A stale record under a matching key cannot be replayed into the wrong
/// campaign: the resume key covers the spec's canonical JSON, so editing
/// the spec invalidates the journal naturally (different key, full
/// re-simulation) rather than producing mixed rows.
#[test]
fn editing_a_spec_invalidates_its_journal_record() {
    let _g = locked();
    let db = small_db();
    let path = temp_journal("rekey");
    let _ = std::fs::remove_file(&path);
    let campaign = Campaign::new(quick_specs()).threads(1);
    let fresh = campaign.run_journaled(&db, &path, false).unwrap();
    assert_eq!(fresh.simulated, 3);

    let mut edited = quick_specs();
    edited[0] = edited[0].clone().alpha(1.25);
    let resumed = Campaign::new(edited).threads(1).run_journaled(&db, &path, true).unwrap();
    assert_eq!((resumed.simulated, resumed.resumed), (1, 2));
    assert_ne!(
        resumed.rows[0].to_json().to_string_compact(),
        fresh.rows[0].to_json().to_string_compact()
    );
    let _ = std::fs::remove_file(&path);
}
