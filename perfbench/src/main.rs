//! End-to-end campaign benchmark.
//!
//! ```text
//! triad-perfbench populate --run-dir DIR
//! triad-perfbench run --workload paper-warm|cold-build|dynamic-resume
//!     --seed N --seconds S --trace 0|1 --run-dir DIR --out-dir DIR [--record FILE]
//! ```
//!
//! `populate` fills the warm store under `DIR/store` (untimed, in its own
//! process). `run` repeats whole passes of the workload for `S` seconds
//! (at least [`MIN_PASSES`]) and prints medians; its last stdout line is
//! one JSON object `{"correct","attempted","failed","metrics"}`. With
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics instead. `perfbench/run.py` drives both steps.

mod timing;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use timing::Span;
use triad_telemetry as telemetry;
use triad_util::json::{self, Json};
use workloads::{run_pass, Inputs, Kind, Pass};

/// Fewest passes a measured run makes, so every median has three samples.
const MIN_PASSES: usize = 3;
/// No pass starts once this much of the run has elapsed, keeping a run on
/// a slow host inside its time limit.
const RUN_CAP_S: f64 = 120.0;

/// The end-to-end metrics the result line carries (`end_to_end` in
/// BENCHMARK.json). The untraced run prints and records more: `wall_s`
/// (set-up plus campaign), `resume_s` (only `dynamic-resume` resumes),
/// `failed_frac` (0 unless a spec fails) and `qos_violation_pct` (its
/// seed-to-seed spread exceeds any usable bound). See perfbench/README.md.
const GATED: &[&str] =
    &["setup_s", "campaign_s", "sim_intervals_per_s", "peak_rss_mb", "rm3_savings_pct"];

/// Per-layer metrics of the traced run: `(name, unit)`.
const PER_LAYER: &[(&str, &str)] = &[
    ("util.json_parse_s", "s"),
    ("util.json_parse_mb_per_s", "MB/s"),
    ("phasedb.store_read_s", "s"),
    ("phasedb.store_decode_s", "s"),
    ("phasedb.artifact_bytes", "bytes"),
    ("phasedb.build_s", "s"),
    ("phasedb.generate_classify_s", "s"),
    ("phasedb.grid_s", "s"),
    ("phasedb.persist_s", "s"),
    ("uarch.lane_dedup_ratio", "ratio"),
    ("sim.simulate_busy_s", "s"),
    ("sim.idle_baseline_busy_s", "s"),
    ("sim.rm_invocations", "count"),
    ("sim.finish_updates", "count"),
    ("sim.arrivals", "count"),
    ("sim.vacancy_fastforwards", "count"),
    ("rm.memo_hit_ratio", "ratio"),
    ("rm.replan_dirty_nodes_mean", "count"),
    ("campaign.run_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("campaign.rows_simulated", "count"),
    ("campaign.rows_resumed", "count"),
    ("workload.materialize_s", "s"),
    ("workload.trace_events", "count"),
    ("journal.load_s", "s"),
    ("journal.records_appended", "count"),
    ("journal.bytes", "bytes"),
    ("report.serialize_s", "s"),
    ("report.write_s", "s"),
    ("report.bytes", "bytes"),
    ("resume_s", "s"),
    ("qos_violation_pct", "%"),
    ("trace.overhead_s", "s"),
    ("unattributed_s", "s"),
];

/// Named per-layer values measured in one traced pass.
type LayerMetrics = Vec<(&'static str, f64)>;

/// A reported metric: `(name, unit, value)`.
type Metric = (&'static str, &'static str, f64);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    run_dir: PathBuf,
    out_dir: PathBuf,
    record: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::PaperWarm,
        seed: 2020,
        seconds: 20.0,
        trace: false,
        run_dir: PathBuf::new(),
        out_dir: PathBuf::new(),
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.kind = Kind::parse(value).ok_or_else(|| bad(&"unknown workload"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--run-dir" => args.run_dir = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            "--record" => args.record = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.run_dir.as_os_str().is_empty() || args.out_dir.as_os_str().is_empty() {
        return Err("--run-dir and --out-dir are required".into());
    }
    Ok(args)
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Output checks shared by every pass of a run.
#[derive(Default)]
struct Checks {
    errors: Vec<String>,
    digests: Option<Vec<(String, String)>>,
    attempted: usize,
    failed: usize,
}

impl Checks {
    /// Fold one pass in: its own errors, and its report digests against
    /// the first pass of the run (traced and untraced alike).
    fn absorb(&mut self, pass: &Pass) {
        self.errors.extend(pass.errors.iter().cloned());
        self.attempted += pass.attempted;
        self.failed += pass.quarantined;
        match &self.digests {
            None => self.digests = Some(pass.digests.clone()),
            Some(first) if *first != pass.digests => {
                self.errors.push("report digests differ between passes of one run".into())
            }
            Some(_) => {}
        }
    }

    /// Compare the digests with earlier runs of the same binary, workload
    /// and seed (recorded under `out_dir/ledger`), or record them.
    fn against_ledger(&mut self, out_dir: &Path, kind: Kind, seed: u64) {
        let Some(digests) = &self.digests else { return };
        let exe = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
        let exe_id = &workloads::sha256_hex(&exe)[..16];
        let dir = out_dir.join("ledger");
        let path = dir.join(format!("{exe_id}-{}-{seed}.txt", kind.name()));
        let text: String = digests.iter().map(|(l, d)| format!("{l} {d}\n")).collect();
        match std::fs::read_to_string(&path) {
            Ok(prev) if prev != text => self
                .errors
                .push(format!("report digests differ from an earlier run ({})", path.display())),
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::create_dir_all(&dir);
                let _ = std::fs::write(&path, text);
            }
        }
    }
}

/// `dynamic-resume`, after the first pass: the resumed report must match
/// an unjournaled run of the same specs on the pass's database (untimed).
fn resume_mismatch(inputs: &Inputs, db: &triad_phasedb::PhaseDb, pass: &Pass) -> Option<String> {
    if inputs.kind != Kind::DynamicResume {
        return None;
    }
    let reference = workloads::sha256_hex(workloads::reference_report(inputs, db).as_bytes());
    (pass.digests.first().map(|(_, d)| d) != Some(&reference))
        .then(|| "resumed report differs from the unjournaled run of the same specs".into())
}

fn print_digests(digests: &Option<Vec<(String, String)>>) {
    for (label, d) in digests.iter().flatten() {
        println!("report {label:<12} sha256={d}");
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    metrics.iter().fold(Json::obj(), |m, &(name, unit, value)| {
        m.set(name, Json::obj().set("value", value).set("unit", unit))
    })
}

fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    Json::obj()
        .set("correct", checks.errors.is_empty())
        .set("attempted", checks.attempted.max(1))
        .set("failed", checks.failed)
        .set("metrics", metrics_json(metrics))
        .to_string_compact()
}

/// The untraced measurement: whole passes for the run's duration.
fn measure(args: &Args, inputs: &Inputs) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES
        || (started.elapsed().as_secs_f64() < args.seconds
            && started.elapsed().as_secs_f64() < RUN_CAP_S)
    {
        let (pass, db) = run_pass(inputs, &args.run_dir);
        if passes.is_empty() {
            if let Some(db) = &db {
                checks.errors.extend(resume_mismatch(inputs, db, &pass));
            }
        }
        checks.absorb(&pass);
        let failed = db.is_none();
        passes.push(pass);
        if failed {
            break;
        }
    }
    checks.against_ledger(&args.out_dir, inputs.kind, args.seed);

    let col = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let last = passes.last().expect("at least one pass");
    let reported = [
        ("setup_s", "s", col(|p| p.setup_s)),
        ("campaign_s", "s", col(|p| p.campaign_s)),
        ("wall_s", "s", col(Pass::wall_s)),
        ("resume_s", "s", col(|p| p.resume_s)),
        ("sim_intervals_per_s", "1/s", col(|p| p.intervals_simulated as f64 / p.campaign_s)),
        // A user's run is one pass per process: the first pass's peak.
        ("peak_rss_mb", "MB", passes[0].peak_rss_mb),
        ("failed_frac", "ratio", checks.failed as f64 / checks.attempted.max(1) as f64),
        ("rm3_savings_pct", "%", last.rm3_savings_pct),
        ("qos_violation_pct", "%", last.qos_violation_pct),
    ];
    println!(
        "workload {} seed {} threads {} passes {} specs/pass {}",
        inputs.kind.name(),
        args.seed,
        inputs.threads,
        passes.len(),
        inputs.specs_per_pass()
    );
    print_digests(&checks.digests);
    for (name, unit, v) in reported {
        println!("metric {name:<22} {v:>16.6} {unit}");
    }
    (checks, reported.to_vec())
}

/// Per-layer metrics of one traced pass, from the telemetry snapshot.
fn layer_metrics(inputs: &Inputs, pass: &Pass, snap: &telemetry::Snapshot) -> LayerMetrics {
    let span_s = |name: &str| snap.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let build_s = span_s("db_store.build");
    let persist_s = if build_s > 0.0 { span_s("db_store.resolve") - build_s } else { 0.0 };
    let run_s = pass.timer.get(Span::CampaignRun);
    let row_busy = span_s("campaign.simulate")
        + span_s("campaign.idle_baseline")
        + span_s("campaign.qos_eval");
    let dirty = snap.histogram("sim.replan_dirty_nodes");
    let hits = snap.counter("sim.memo_hits");
    vec![
        ("phasedb.build_s", build_s),
        ("phasedb.generate_classify_s", span_s("phasedb.generate_classify")),
        ("phasedb.grid_s", span_s("phasedb.grid")),
        ("phasedb.persist_s", persist_s),
        (
            "uarch.lane_dedup_ratio",
            ratio(snap.counter("uarch.lane_reps"), snap.counter("uarch.lanes_total")),
        ),
        ("sim.simulate_busy_s", span_s("campaign.simulate")),
        ("sim.idle_baseline_busy_s", span_s("campaign.idle_baseline")),
        ("sim.rm_invocations", snap.counter("sim.rm_invocations") as f64),
        ("sim.finish_updates", snap.counter("sim.finish_updates") as f64),
        ("sim.arrivals", snap.counter("sim.arrivals") as f64),
        ("sim.vacancy_fastforwards", snap.counter("sim.vacancy_fastforwards") as f64),
        ("rm.memo_hit_ratio", ratio(hits, hits + snap.counter("sim.memo_misses"))),
        ("rm.replan_dirty_nodes_mean", dirty.map_or(0.0, |h| ratio(h.sum, h.count))),
        ("campaign.run_s", run_s),
        ("campaign.parallel_efficiency", row_busy / (run_s * inputs.threads as f64)),
        ("campaign.rows_simulated", snap.counter("campaign.rows_simulated") as f64),
        ("campaign.rows_resumed", snap.counter("campaign.rows_resumed") as f64),
        ("workload.materialize_s", span_s("campaign.trace_materialize")),
        ("workload.trace_events", inputs.trace_events as f64),
        ("journal.records_appended", snap.counter("journal.records_appended") as f64),
        ("journal.bytes", pass.journal_bytes as f64),
        ("report.serialize_s", pass.timer.get(Span::ReportSerialize)),
        ("report.write_s", pass.timer.get(Span::ReportWrite)),
        ("report.bytes", pass.report_bytes as f64),
        ("resume_s", pass.resume_s),
        ("qos_violation_pct", pass.qos_violation_pct),
        ("unattributed_s", pass.wall_s() - pass.timer.attributed()),
    ]
}

/// The store hit path performed step by step: read, parse, decode.
/// Returns its metrics and the decoded database.
fn hit_path(
    inputs: &Inputs,
    run_dir: &Path,
) -> Result<(LayerMetrics, triad_phasedb::PhaseDb), String> {
    let store = if inputs.kind.warm() {
        workloads::warm_store(run_dir)
    } else {
        workloads::cold_store(run_dir)
    };
    let apps = triad_trace::suite();
    let path = store.path_for(&triad_phasedb::db_fingerprint(&apps, &inputs.cfg));
    let t = Instant::now();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let db = triad_phasedb::db_from_json(&doc, &apps)?;
    let decode_s = t.elapsed().as_secs_f64();
    let bytes = text.len() as f64;
    let metrics = vec![
        ("util.json_parse_s", parse_s),
        ("util.json_parse_mb_per_s", bytes / 1e6 / parse_s),
        ("phasedb.store_read_s", read_s),
        ("phasedb.store_decode_s", decode_s),
        ("phasedb.artifact_bytes", bytes),
    ];
    Ok((metrics, db))
}

/// `journal::load` of the journal as the killed run left it: the first
/// records the killed run appended (later appends only extend the file).
fn journal_load_s(inputs: &Inputs, run_dir: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(workloads::journal_path(run_dir))
        .map_err(|e| format!("journal: {e}"))?;
    let prefix: String =
        text.split_inclusive('\n').take(inputs.killed.specs.len()).collect::<Vec<_>>().concat();
    let path = run_dir.join("killed.journal");
    std::fs::write(&path, prefix).map_err(|e| format!("journal: {e}"))?;
    let t = Instant::now();
    let loaded = triad_sim::journal::load(&path).map_err(|e| format!("journal: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    if loaded.rows.len() != inputs.killed.specs.len() {
        return Err(format!("journal prefix holds {} rows", loaded.rows.len()));
    }
    Ok(load_s)
}

/// The traced measurement: untraced and traced passes in alternation,
/// then the step-by-step hit path. Writes the telemetry metrics and the
/// Perfetto trace of the last traced pass to `out_dir`.
fn measure_traced(args: &Args, inputs: &Inputs) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last_db = None;
    let started = Instant::now();
    // Another pair only when it should still end inside the run's seconds.
    let mut pair_s = 0.0;
    while traced_walls.is_empty() || started.elapsed().as_secs_f64() + pair_s <= args.seconds {
        let pair_started = Instant::now();
        let (plain, db) = run_pass(inputs, &args.run_dir);
        checks.absorb(&plain);
        plain_walls.push(plain.wall_s());
        if db.is_none() {
            break;
        }
        telemetry::reset();
        telemetry::enable(telemetry::METRICS | telemetry::TRACE);
        let (traced, db) = run_pass(inputs, &args.run_dir);
        telemetry::disable_all();
        let snap = telemetry::snapshot();
        let trace = telemetry::take_chrome_trace();
        checks.absorb(&traced);
        traced_walls.push(traced.wall_s());
        for (name, v) in layer_metrics(inputs, &traced, &snap) {
            layers.entry(name).or_default().push(v);
        }
        if inputs.kind == Kind::DynamicResume {
            match journal_load_s(inputs, &args.run_dir) {
                Ok(s) => layers.entry("journal.load_s").or_default().push(s),
                Err(e) => checks.errors.push(e),
            }
        }
        let stem = format!("{}-seed{}", inputs.kind.name(), args.seed);
        let _ = std::fs::create_dir_all(&args.out_dir);
        let _ = std::fs::write(
            args.out_dir.join(format!("{stem}.telemetry.json")),
            snap.to_json().to_string_pretty(),
        );
        let _ = std::fs::write(
            args.out_dir.join(format!("{stem}.perfetto.json")),
            trace.to_string_compact(),
        );
        last_db = db;
        if last_db.is_none() {
            break;
        }
        pair_s = pair_started.elapsed().as_secs_f64();
    }

    if last_db.is_some() {
        match hit_path(inputs, &args.run_dir) {
            Ok((metrics, db)) => {
                for (name, v) in metrics {
                    layers.entry(name).or_default().push(v);
                }
                // cold-build: the artifact it just built must load to a
                // database that reproduces the built one's report.
                if inputs.kind == Kind::ColdBuild {
                    let loaded =
                        workloads::sha256_hex(workloads::reference_report(inputs, &db).as_bytes());
                    let built = checks.digests.as_ref().and_then(|d| d.first()).map(|(_, d)| d);
                    if built != Some(&loaded) {
                        checks.errors.push("report from the loaded artifact differs".into());
                    }
                }
            }
            Err(e) => checks.errors.push(format!("hit path: {e}")),
        }
    }
    checks.against_ledger(&args.out_dir, inputs.kind, args.seed);
    layers
        .entry("trace.overhead_s")
        .or_default()
        .push(median(&traced_walls) - median(&plain_walls));

    println!(
        "workload {} seed {} threads {} traced passes {}",
        inputs.kind.name(),
        args.seed,
        inputs.threads,
        traced_walls.len()
    );
    print_digests(&checks.digests);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layers.get(name).filter(|v| !v.is_empty()).map_or(0.0, |v| median(v));
            println!("layer {name:<30} {v:>16.6} {unit}");
            (name, unit, v)
        })
        .collect();
    (checks, metrics)
}

/// Append this run's metrics, stamped with the host context, to `path`.
fn record(path: &Path, args: &Args, checks: &Checks, metrics: &[Metric]) {
    let host = triad_util::bench::host_context();
    let digests =
        checks.digests.iter().flatten().fold(Json::obj(), |j, (l, d)| j.set(l, d.as_str()));
    let rec = Json::obj()
        .set("workload", args.kind.name())
        .set("seed", args.seed)
        .set("trace", args.trace)
        .set("seconds", args.seconds)
        .set("correct", checks.errors.is_empty())
        .set("hostname", host.hostname.as_str())
        .set("cores", host.cores)
        .set("target_features", host.target_features.as_str())
        .set("git_rev", host.git_rev.as_str())
        .set("digests", digests)
        .set("metrics", metrics_json(metrics));
    let mut line = rec.to_string_compact();
    line.push('\n');
    use std::io::Write;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("perfbench: --record {}: {e}", path.display());
    }
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let fail = |msg: String| {
        eprintln!("perfbench: {msg}");
        std::process::ExitCode::from(2)
    };
    match argv.first().map(String::as_str) {
        Some("populate") => {
            let args = match parse_args(&argv[1..]) {
                Ok(a) => a,
                Err(e) => return fail(e),
            };
            let outcome = workloads::populate(&args.run_dir, &workloads::db_config(threads()));
            eprintln!("perfbench: warm store populated ({outcome:?})");
            std::process::ExitCode::SUCCESS
        }
        Some("run") => {
            let args = match parse_args(&argv[1..]) {
                Ok(a) => a,
                Err(e) => return fail(e),
            };
            let inputs = Inputs::new(args.kind, args.seed, threads());
            let (checks, metrics) =
                if args.trace { measure_traced(&args, &inputs) } else { measure(&args, &inputs) };
            for e in &checks.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            if let Some(path) = &args.record {
                record(path, &args, &checks, &metrics);
            }
            let mut result = metrics;
            if !args.trace {
                result.retain(|(name, ..)| GATED.contains(name));
            }
            println!("{}", result_line(&checks, &result));
            std::process::ExitCode::SUCCESS
        }
        _ => fail("usage: triad-perfbench populate|run [flags] (see perfbench/run.py)".into()),
    }
}
