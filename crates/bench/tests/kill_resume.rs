//! End-to-end crash-safety test against the real `triad-bench` binary:
//! a run is killed deterministically mid-campaign by an abort failpoint,
//! resumed from its journal, and must reproduce the uninterrupted report
//! byte for byte. A second leg quarantines one spec via an injected
//! panic, checks the nonzero exit, and reconverges on resume.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_triad-bench");

/// The shared workspace phase-db cache: warm after any prior test/bench
/// run, built once (fast config, 3 apps) otherwise.
fn db_cache() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/phasedb")
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = triad_util::fs::unique_temp_path(&format!("kill-resume-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An energy-sweep invocation: 5 specs (one per backend), serial so the
/// journal append order — and therefore the abort point — is exact.
fn bench(dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir)
        .args([
            "--experiment",
            "energy-sweep",
            "--fast",
            "--intervals",
            "6",
            "--threads",
            "1",
            "--db-cache",
            db_cache().to_str().unwrap(),
        ])
        .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawning triad-bench")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A churn invocation over the 2-app pool: one dynamic-workload spec
/// whose presenter consumes the `SimResult` fields the report row JSON
/// omits (arrivals, departures, vacancy energy).
fn churn_bench(dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir)
        .args([
            "--experiment",
            "churn",
            "--apps",
            "mcf,povray",
            "--cores",
            "2",
            "--fast",
            "--intervals",
            "6",
            "--threads",
            "1",
            "--db-cache",
            db_cache().to_str().unwrap(),
        ])
        .args(extra);
    cmd.output().expect("spawning triad-bench")
}

#[test]
fn killed_runs_resume_to_byte_identical_reports() {
    let dir = work_dir("sweep");

    // Uninterrupted baseline (no journal).
    let base = bench(&dir, &["--json", "base.json"], &[]);
    assert!(base.status.success(), "baseline failed: {}", String::from_utf8_lossy(&base.stderr));
    let base_json = read(&dir.join("base.json"));

    // Leg 1 — deterministic kill: abort after the third durable journal
    // append (2 of 5 specs still unrecorded), then resume without faults.
    let killed = bench(
        &dir,
        &["--journal", "kill.jsonl", "--json", "kill.json"],
        &[("TRIAD_FAILPOINTS", "journal.appended=every(3):abort")],
    );
    assert!(!killed.status.success(), "the abort failpoint must kill the run");
    let journal = read(&dir.join("kill.jsonl"));
    assert_eq!(journal.lines().count(), 3, "exactly three rows were durably journaled");

    let resumed = bench(
        &dir,
        &[
            "--journal",
            "kill.jsonl",
            "--resume",
            "--json",
            "resumed.json",
            "--telemetry",
            "tel.json",
        ],
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        read(&dir.join("resumed.json")),
        base_json,
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let tel = read(&dir.join("tel.json"));
    assert!(tel.contains("\"campaign.rows_resumed\": 3"), "telemetry: {tel}");
    assert!(tel.contains("\"campaign.rows_simulated\": 2"), "telemetry: {tel}");
    assert!(tel.contains("\"journal.records_loaded\": 3"), "telemetry: {tel}");

    // Leg 2 — quarantine: one injected row panic. The run completes the
    // other four rows, reports the error row, and exits nonzero with a
    // clean one-line diagnostic (no panic spew on stderr).
    let quarantined = bench(
        &dir,
        &[
            "--failpoints",
            "campaign.row=once:panic",
            "--journal",
            "quarantine.jsonl",
            "--json",
            "quarantine.json",
        ],
        &[],
    );
    assert_eq!(quarantined.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&quarantined.stderr);
    assert!(stderr.contains("1 spec(s) quarantined"), "stderr: {stderr}");
    let q_json = read(&dir.join("quarantine.json"));
    assert!(q_json.contains("\"quarantined\""), "report must carry the error row");
    assert!(q_json.contains("row_panic"), "report must carry the typed error kind");

    let reconverged = bench(
        &dir,
        &["--journal", "quarantine.jsonl", "--resume", "--json", "reconverged.json"],
        &[],
    );
    assert!(
        reconverged.status.success(),
        "reconverge failed: {}",
        String::from_utf8_lossy(&reconverged.stderr)
    );
    assert_eq!(
        read(&dir.join("reconverged.json")),
        base_json,
        "post-quarantine resume must reconverge on the uninterrupted report"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Churn leg: the preset's console table, sanity asserts and row JSON all
/// consume `arrivals`/`vacancy_energy_j` — fields the report rows omit
/// but the journal records carry. A run resumed wholly from its journal
/// must restore them (a zeroed resume would trip the preset's
/// nonzero-arrivals floor and change the row JSON).
#[test]
fn churn_resume_restores_the_fields_presenters_consume() {
    let dir = work_dir("churn");

    let base = churn_bench(&dir, &["--json", "base.json"]);
    assert!(base.status.success(), "baseline failed: {}", String::from_utf8_lossy(&base.stderr));
    let base_json = read(&dir.join("base.json"));

    let journaled = churn_bench(&dir, &["--journal", "churn.jsonl", "--json", "run.json"]);
    assert!(
        journaled.status.success(),
        "journaled run failed: {}",
        String::from_utf8_lossy(&journaled.stderr)
    );
    assert_eq!(read(&dir.join("run.json")), base_json, "journaling must not change the report");

    let resumed = churn_bench(
        &dir,
        &[
            "--journal",
            "churn.jsonl",
            "--resume",
            "--json",
            "resumed.json",
            "--telemetry",
            "tel.json",
        ],
    );
    assert!(
        resumed.status.success(),
        "churn resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        read(&dir.join("resumed.json")),
        base_json,
        "resumed churn report must be byte-identical to the uninterrupted run"
    );
    let tel = read(&dir.join("tel.json"));
    assert!(tel.contains("\"campaign.rows_resumed\": 1"), "telemetry: {tel}");
    // Zero-valued counters are omitted from the report: nothing simulated.
    assert!(!tel.contains("campaign.rows_simulated"), "telemetry: {tel}");

    let _ = std::fs::remove_dir_all(&dir);
}
