//! Wall-clock measurement for the `harness = false` benches.
//!
//! Replaces the criterion dependency with the 5 % of it the workspace
//! needs: warm up, run a fixed wall-clock budget, report mean time per
//! iteration (and derived throughput). When `TRIAD_BENCH_JSON` names a
//! file, every measurement is also appended there as one JSON object per
//! line (JSON Lines — append-safe across the several bench binaries CI
//! runs into the same file, then uploads as a workflow artifact).

use crate::json::Json;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Result of one measured benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Mean seconds per iteration.
    pub secs_per_iter: f64,
    /// Iterations executed in the measurement window.
    pub iters: u64,
}

impl Measurement {
    /// Iterations per second.
    pub fn per_sec(&self) -> f64 {
        1.0 / self.secs_per_iter
    }

    /// Human-readable time per iteration.
    pub fn display_time(&self) -> String {
        let s = self.secs_per_iter;
        if s >= 1.0 {
            format!("{s:.3} s")
        } else if s >= 1e-3 {
            format!("{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            format!("{:.3} us", s * 1e6)
        } else {
            format!("{:.1} ns", s * 1e9)
        }
    }
}

/// Measure `f` for roughly `budget` of wall-clock time after a short
/// warm-up, and print `label: <time>/iter` plus optional element
/// throughput.
pub fn bench(
    label: &str,
    elements_per_iter: Option<u64>,
    budget: Duration,
    mut f: impl FnMut(),
) -> Measurement {
    // Warm-up: run a few iterations or 10% of the budget, whichever first.
    let warmup_end = Instant::now() + budget / 10;
    for _ in 0..3 {
        f();
        if Instant::now() >= warmup_end {
            break;
        }
    }

    let start = Instant::now();
    let end = start + budget;
    let mut iters = 0u64;
    while Instant::now() < end || iters == 0 {
        f();
        black_box(());
        iters += 1;
    }
    let secs_per_iter = start.elapsed().as_secs_f64() / iters as f64;
    let m = Measurement { secs_per_iter, iters };
    match elements_per_iter {
        Some(n) => println!(
            "{label:<40} {:>12}/iter  {:>14.0} elem/s",
            m.display_time(),
            n as f64 * m.per_sec()
        ),
        None => println!("{label:<40} {:>12}/iter", m.display_time()),
    }
    append_json_record(label, elements_per_iter, &m);
    m
}

/// Append the measurement to the `TRIAD_BENCH_JSON` file (one JSON object
/// per line), if that variable is set. Failures to write are reported but
/// never fail the bench — the gates, not the record, are the contract.
fn append_json_record(label: &str, elements_per_iter: Option<u64>, m: &Measurement) {
    let Ok(path) = std::env::var("TRIAD_BENCH_JSON") else {
        return;
    };
    if let Err(e) = append_json_record_to(&path, label, elements_per_iter, m) {
        eprintln!("warning: could not append bench record to {path}: {e}");
    }
}

/// [`append_json_record`] against an explicit path (testable; the env
/// wrapper adds only the variable lookup). Each record carries the
/// host/context fields from [`host_context`], so artifacts collected from
/// several machines stay machine-attributable.
fn append_json_record_to(
    path: &str,
    label: &str,
    elements_per_iter: Option<u64>,
    m: &Measurement,
) -> std::io::Result<()> {
    let mut rec =
        Json::obj().set("label", label).set("secs_per_iter", m.secs_per_iter).set("iters", m.iters);
    if let Some(n) = elements_per_iter {
        rec = rec.set("elements_per_iter", n);
    }
    let host = host_context();
    rec = rec
        .set("hostname", host.hostname.as_str())
        .set("cores", host.cores)
        .set("target_features", host.target_features.as_str())
        .set("git_rev", host.git_rev.as_str());
    // One line, one write: `O_APPEND` makes a single `write_all` of a
    // complete line atomic enough that the several bench binaries CI runs
    // into one file cannot interleave bytes mid-record.
    let mut line = rec.to_string_compact();
    line.push('\n');
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
}

/// Machine attribution recorded with every bench JSON record.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// `$HOSTNAME`, `/etc/hostname`, or `unknown`.
    pub hostname: String,
    /// Available hardware parallelism.
    pub cores: u64,
    /// Compile-time SIMD target features (the visible effect of the
    /// workspace's `-C target-cpu=native` pin), e.g. `avx2+fma`.
    pub target_features: String,
    /// `git rev-parse --short HEAD` (or `$GITHUB_SHA`), best-effort.
    pub git_rev: String,
}

/// The host/context fields stamped into bench records, computed once per
/// process (the git lookup shells out).
pub fn host_context() -> &'static HostContext {
    static CTX: std::sync::OnceLock<HostContext> = std::sync::OnceLock::new();
    CTX.get_or_init(|| HostContext {
        hostname: std::env::var("HOSTNAME")
            .ok()
            .filter(|h| !h.is_empty())
            .or_else(|| {
                std::fs::read_to_string("/etc/hostname")
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
            .unwrap_or_else(|| "unknown".into()),
        cores: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        target_features: {
            let feats: Vec<&str> = [
                ("avx512f", cfg!(target_feature = "avx512f")),
                ("avx2", cfg!(target_feature = "avx2")),
                ("avx", cfg!(target_feature = "avx")),
                ("fma", cfg!(target_feature = "fma")),
                ("sse4.2", cfg!(target_feature = "sse4.2")),
                ("neon", cfg!(target_feature = "neon")),
            ]
            .iter()
            .filter(|&&(_, on)| on)
            .map(|&(name, _)| name)
            .collect();
            if feats.is_empty() {
                "baseline".into()
            } else {
                feats.join("+")
            }
        },
        git_rev: std::env::var("GITHUB_SHA")
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "--short", "HEAD"])
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                    .filter(|s| !s.is_empty())
            })
            .unwrap_or_else(|| "unknown".into()),
    })
}

/// Measurement budget from the `TRIAD_BENCH_BUDGET_MS` environment
/// variable (CI smoke runs shrink it), or `default` when unset/invalid.
pub fn budget_from_env(default: Duration) -> Duration {
    match std::env::var("TRIAD_BENCH_BUDGET_MS").ok().and_then(|v| v.parse::<u64>().ok()) {
        Some(ms) => Duration::from_millis(ms.max(1)),
        None => default,
    }
}

/// Hard-assert threshold for the lockstep-vs-scalar speedup gates: the
/// full claim (≥2×) needs a full measurement window; short smoke budgets
/// (<1 s, e.g. CI's 250 ms) get a conservative 1.5× so a noisy shared
/// runner cannot flake the gate while real perf rot still fails it.
pub fn speedup_gate(budget: Duration) -> f64 {
    if budget < Duration::from_secs(1) {
        1.5
    } else {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_sane() {
        let m = bench("noop", None, Duration::from_millis(20), || {
            black_box(1 + 1);
        });
        assert!(m.iters > 0);
        assert!(m.secs_per_iter > 0.0);
        assert!(m.secs_per_iter < 0.1);
    }

    fn temp_jsonl(tag: &str) -> std::path::PathBuf {
        crate::fs::unique_temp_path(&format!("bench-test-{tag}.jsonl"))
    }

    #[test]
    fn json_records_append_with_host_context() {
        let path = temp_jsonl("append");
        let _ = std::fs::remove_file(&path);
        let m = Measurement { secs_per_iter: 1e-3, iters: 42 };
        append_json_record_to(path.to_str().unwrap(), "first", None, &m).unwrap();
        append_json_record_to(path.to_str().unwrap(), "second", Some(7), &m).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "each call appends exactly one line");
        for (line, label) in lines.iter().zip(["first", "second"]) {
            let rec = crate::json::parse(line).expect("every record is valid JSON");
            assert_eq!(rec.get("label"), Some(&Json::Str(label.into())));
            assert_eq!(rec.get("iters"), Some(&Json::Int(42)));
            for key in ["secs_per_iter", "hostname", "cores", "target_features", "git_rev"] {
                assert!(rec.get(key).is_some(), "{key} field missing from {line}");
            }
        }
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("elements_per_iter"), Some(&Json::Int(7)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_record_path_is_not_fatal() {
        let m = Measurement { secs_per_iter: 1e-3, iters: 1 };
        let bad = "/nonexistent-triad-dir/sub/bench.jsonl";
        assert!(append_json_record_to(bad, "doomed", None, &m).is_err());
        // The env-driven wrapper downgrades that error to a warning: a
        // bench under a bad TRIAD_BENCH_JSON must still measure and return.
        std::env::set_var("TRIAD_BENCH_JSON", bad);
        let m = bench("bad-path", None, Duration::from_millis(5), || {
            black_box(1 + 1);
        });
        std::env::remove_var("TRIAD_BENCH_JSON");
        assert!(m.iters > 0);
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let path = temp_jsonl("concurrent");
        let _ = std::fs::remove_file(&path);
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let path = &path;
                s.spawn(move || {
                    let m = Measurement { secs_per_iter: 1e-6 * t as f64, iters: t as u64 };
                    for i in 0..per_thread {
                        append_json_record_to(
                            path.to_str().unwrap(),
                            &format!("t{t}-{i}"),
                            Some(i as u64),
                            &m,
                        )
                        .unwrap();
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), threads * per_thread, "no record lost or split");
        for line in lines {
            crate::json::parse(line)
                .unwrap_or_else(|e| panic!("interleaved/corrupt record {line:?}: {e:?}"));
        }
        let _ = std::fs::remove_file(&path);
    }
}
