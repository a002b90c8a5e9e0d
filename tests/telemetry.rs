//! Telemetry is a pure sidecar: campaign rows and persisted phase-db
//! artifacts are **byte-identical** with telemetry off, on, and across
//! thread counts; counter totals, histogram statistics and span counts are
//! thread-count invariant (wall-clock durations are exempt); and the
//! chrome trace export is a parseable set of complete `"X"` events.
//!
//! Everything lives in one `#[test]` because the telemetry registry and
//! aggregate are process-global — parallel test functions in this binary
//! would race on `enable`/`reset`.

use triad::phasedb::{DbConfig, DbStore};
use triad::sim::{Campaign, ExperimentSpec};
use triad::trace::AppSpec;
use triad_telemetry as tel;
use triad_util::json::Json;

fn apps() -> Vec<AppSpec> {
    let names = ["mcf", "povray"];
    triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect()
}

fn campaign() -> Campaign {
    Campaign::new(vec![
        ExperimentSpec::new("idle", &["mcf", "povray"]).rm(None).target_intervals(6),
        ExperimentSpec::new("rm3", &["mcf", "povray"]).target_intervals(6),
        ExperimentSpec::new("rm3-perfect", &["mcf", "povray"]).perfect().target_intervals(6),
    ])
}

fn store_bytes(tag: &str) -> Vec<u8> {
    let dir = triad_util::fs::unique_temp_path(&format!("telemetry-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let resolved = DbStore::new(&dir).resolve(&apps(), &DbConfig::fast());
    let bytes = std::fs::read(&resolved.path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn telemetry_is_a_pure_sidecar() {
    // Reference: everything off. (Fresh process — telemetry starts off.)
    let reference_artifact = store_bytes("off");
    let db = triad::phasedb::build_apps(&apps(), &DbConfig::fast());
    let reference = Campaign::report(&campaign().run(&db)).to_string_pretty();

    // Metrics on: rows stay byte-identical, and the persisted artifact
    // (the pinned-SHA golden's byte stream) does too.
    tel::enable(tel::METRICS);
    tel::reset();
    let rows_on = Campaign::report(&campaign().threads(1).run(&db)).to_string_pretty();
    assert_eq!(rows_on, reference, "campaign rows must not change when telemetry is on");
    assert_eq!(
        store_bytes("on"),
        reference_artifact,
        "phase-db artifact bytes must not change when telemetry is on"
    );
    let snap1 = tel::snapshot();

    // The instrumentation actually ran: a few load-bearing totals.
    assert_eq!(snap1.counter("campaign.rows"), 3);
    assert!(snap1.counter("sim.rm_invocations") > 0, "RM invocations uncounted");
    assert_eq!(
        snap1.span("rm.replan").map_or(0, |s| s.count),
        snap1.counter("sim.rm_invocations"),
        "every RM invocation re-plans"
    );
    assert!(snap1.span("sim.run").is_some(), "sim.run span never entered");
    assert!(snap1.histogram("sim.replan_dirty_nodes").is_some(), "dirty-path histogram empty");

    // Thread-count invariance: identical totals at 4 worker threads.
    // (store_bytes above contributed db_store counters to snap1; replay
    // exactly the campaign at both thread counts for the comparison.)
    tel::reset();
    let rows_t1 = campaign().threads(1).run(&db);
    let t1 = tel::snapshot();
    tel::reset();
    let rows_t4 = campaign().threads(4).run(&db);
    let t4 = tel::snapshot();
    assert_eq!(
        Campaign::report(&rows_t1).to_string_pretty(),
        Campaign::report(&rows_t4).to_string_pretty(),
        "rows must be thread-count invariant"
    );
    assert_eq!(t1.counters, t4.counters, "counter totals must be thread-count invariant");
    assert_eq!(t1.histograms, t4.histograms, "histogram stats must be thread-count invariant");
    let span_counts = |s: &tel::Snapshot| -> Vec<(String, u64)> {
        s.spans.iter().map(|(n, st)| (n.clone(), st.count)).collect()
    };
    assert_eq!(span_counts(&t1), span_counts(&t4), "span counts must be thread-count invariant");
    assert_eq!(t1.record_ops, t4.record_ops, "record_ops must be thread-count invariant");

    // Chrome trace: complete "X" events that round-trip through the
    // canonical JSON parser.
    tel::enable(tel::METRICS | tel::TRACE);
    tel::reset();
    let _ = tel::take_chrome_trace(); // drain anything from before
    let rows_traced = Campaign::report(&campaign().threads(2).run(&db)).to_string_pretty();
    assert_eq!(rows_traced, reference, "campaign rows must not change when tracing is on");
    let trace = tel::take_chrome_trace();
    let reparsed = triad_util::json::parse(&trace.to_string_pretty()).unwrap();
    let Some(Json::Arr(events)) = reparsed.get("traceEvents") else {
        panic!("traceEvents array missing from chrome trace");
    };
    assert!(!events.is_empty(), "no trace events captured");
    for e in events {
        assert_eq!(e.get("ph"), Some(&Json::Str("X".into())), "only complete events: {e:?}");
        assert!(e.get("ts").is_some() && e.get("dur").is_some() && e.get("name").is_some());
        // The per-invocation RM spans are metrics-only.
        let name = e.get("name");
        for untraced in ["rm.replan", "rm.local_plan"] {
            assert_ne!(name, Some(&Json::Str(untraced.into())), "{untraced} emitted a trace event");
        }
    }
    // ... yet they are still timed and counted in the metrics aggregate.
    let snap = tel::snapshot();
    assert_eq!(
        snap.span("rm.replan").map_or(0, |s| s.count),
        snap.counter("sim.rm_invocations"),
        "a traced run still counts every re-plan"
    );
    assert!(snap.span("rm.local_plan").is_some(), "rm.local_plan span never entered");
    // The metrics report parses and carries the schema tag.
    let report = triad_util::json::parse(&snap.to_json().to_string_pretty()).unwrap();
    assert_eq!(report.get("schema"), Some(&Json::Str("triad-telemetry/v1".into())));

    tel::disable_all();
}
