//! Crash-seam tests for the content-addressed store, driven by the
//! `triad-util` failpoint subsystem. These live in their own test binary
//! (own process): the failpoint registry and telemetry totals are
//! process-global, and the store's unit tests must never observe an armed
//! site.

use std::sync::Mutex;
use triad_phasedb::{DbConfig, DbStore, StoreOutcome};
use triad_trace::AppSpec;
use triad_util::failpoint::{self, FaultKind, Trigger};

/// Failpoints and telemetry are process-global; every test serializes on
/// this and starts from a disarmed registry.
static GUARD: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    g
}

fn test_apps() -> Vec<AppSpec> {
    triad_trace::suite().iter().filter(|a| a.name == "libquantum").cloned().collect()
}

fn temp_store(tag: &str) -> DbStore {
    let dir = triad_util::fs::unique_temp_path(&format!("phasedb-fault-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    DbStore::new(dir)
}

#[test]
fn injected_load_fault_degrades_to_a_clean_rebuild() {
    let _g = locked();
    let store = temp_store("load");
    let apps = test_apps();
    let cfg = DbConfig::fast();
    let warm = store.resolve(&apps, &cfg);
    assert_eq!(warm.outcome, StoreOutcome::Miss);

    // An unreadable artifact is indistinguishable from a corrupt one:
    // the store rebuilds and republishes rather than failing.
    failpoint::configure("db_store.load", Trigger::Once, FaultKind::Error);
    let faulted = store.resolve(&apps, &cfg);
    assert_eq!(faulted.outcome, StoreOutcome::CorruptRebuilt);
    assert_eq!(faulted.fingerprint, warm.fingerprint);
    failpoint::clear_all();

    // The republished artifact serves hits again.
    assert!(store.resolve(&apps, &cfg).outcome.is_hit());
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn absurdly_nested_artifact_degrades_to_a_clean_rebuild() {
    let _g = locked();
    let store = temp_store("deep");
    let apps = test_apps();
    let cfg = DbConfig::fast();
    let first = store.resolve(&apps, &cfg);
    let published = std::fs::read_to_string(&first.path).unwrap();

    // A balanced 300,000-deep document in place of the artifact: the
    // reader must reject it, not recurse until the stack overflows.
    let depth = 300_000;
    std::fs::write(&first.path, format!("{}{}", "[".repeat(depth), "]".repeat(depth))).unwrap();
    let rebuilt = store.resolve(&apps, &cfg);
    assert_eq!(rebuilt.outcome, StoreOutcome::CorruptRebuilt);
    assert_eq!(std::fs::read_to_string(&first.path).unwrap(), published);
    assert!(store.resolve(&apps, &cfg).outcome.is_hit());
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn transient_persist_faults_are_retried_and_counted() {
    let _g = locked();
    triad_telemetry::enable(triad_telemetry::METRICS);
    triad_telemetry::reset();
    let store = temp_store("retry");
    let apps = test_apps();
    let cfg = DbConfig::fast();

    // First write attempt faults; the bounded retry publishes on the
    // second. The resolve itself still reports a plain miss.
    failpoint::configure("db_store.persist.write", Trigger::Once, FaultKind::Error);
    let r = store.resolve(&apps, &cfg);
    failpoint::clear_all();
    assert_eq!(r.outcome, StoreOutcome::Miss);
    assert!(r.path.exists(), "retry must have published the artifact");
    assert!(store.resolve(&apps, &cfg).outcome.is_hit());

    let snap = triad_telemetry::snapshot();
    assert_eq!(snap.counter("db_store.persist_retry"), 1);
    triad_telemetry::disable_all();
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn crash_between_tempfile_and_rename_never_tears_the_artifact() {
    let _g = locked();
    triad_telemetry::enable(triad_telemetry::METRICS);
    triad_telemetry::reset();
    let store = temp_store("rename");
    let apps = test_apps();
    let cfg = DbConfig::fast();

    // Publish a good artifact, then force a rebuild whose persist dies at
    // the crash seam (tempfile written, rename never happens) on every
    // attempt. The published artifact must stay the old, complete one.
    let first = store.resolve(&apps, &cfg);
    let published = std::fs::read_to_string(&first.path).unwrap();
    failpoint::configure("db_store.persist.rename", Trigger::Always, FaultKind::Error);
    let crashed = store.clone().force_rebuild(true).resolve(&apps, &cfg);
    failpoint::clear_all();
    assert_eq!(crashed.outcome, StoreOutcome::ForcedRebuild);
    assert_eq!(
        std::fs::read_to_string(&first.path).unwrap(),
        published,
        "a persist crash must leave the old artifact untouched"
    );

    // Every failed attempt removed its tempfile.
    let leftovers: Vec<_> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "failed persists must not leave tempfiles: {leftovers:?}");

    // The store still serves the old artifact afterwards...
    let served = store.resolve(&apps, &cfg);
    assert_eq!(served.outcome, StoreOutcome::Hit);

    // ...and with no artifact at all, the same crash degrades to
    // rebuild-every-time, never to failure.
    let fresh = temp_store("rename-fresh");
    failpoint::configure("db_store.persist.rename", Trigger::Always, FaultKind::Error);
    let r1 = fresh.resolve(&apps, &cfg);
    let r2 = fresh.resolve(&apps, &cfg);
    failpoint::clear_all();
    assert_eq!(r1.outcome, StoreOutcome::Miss);
    assert_eq!(r2.outcome, StoreOutcome::Miss, "unpublished artifact rebuilds cleanly");
    assert_eq!(r1.fingerprint, r2.fingerprint);

    let snap = triad_telemetry::snapshot();
    assert!(
        snap.counter("db_store.persist_retry") >= 2,
        "every failed attempt past the first is a counted retry"
    );
    triad_telemetry::disable_all();
    let _ = std::fs::remove_dir_all(store.dir());
    let _ = std::fs::remove_dir_all(fresh.dir());
}
