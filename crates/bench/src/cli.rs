//! The `triad-bench` command line: one driver for every experiment.
//!
//! ```text
//! triad-bench --experiment fig6 --cores 8 --json out.json
//! triad-bench --experiment custom --apps mcf,povray,gcc,libquantum --rm rm3 --model model2
//! ```
//!
//! Adding a scenario is a spec, not a binary: `custom` assembles an
//! [`ExperimentSpec`] straight from the flags.

use crate::reports::{self, RunOptions};
use crate::resolve_db;
use std::path::Path;
use triad_energy::EnergyBackendConfig;
use triad_phasedb::{DbConfig, DbStore};
use triad_sim::campaign::{parse_model, parse_rm, ExperimentSpec};
use triad_util::fs::atomic_write;
use triad_workload::WorkloadSpec;

const USAGE: &str = "\
triad-bench — campaign-driven experiment harness

USAGE:
    triad-bench --experiment <NAME> [OPTIONS]

EXPERIMENTS:
    table1, table2, fig1, fig2, fig6, fig7, fig8, fig9, overheads, custom,
    energy-sweep (rerun one workload across every energy backend),
    workload-sweep (RM3 on every dynamic-workload kind per scenario),
    churn (per-core multiprogramming with mid-run app replacement)

OPTIONS:
    -e, --experiment <NAME>   which experiment to run (required)
        --cores <N>           core count (fig6/fig9: default '4 and 8'; fig7/fig8: default 4)
        --seed <N>            workload-generation seed [default: 2020]
        --json <PATH>         write the machine-readable report to PATH
        --threads <N>         campaign worker threads (0 = all cores) [default: 0]
        --intervals <N>       override the simulated horizon (RM intervals per app)
        --fast                fast database (noisier stats) and a short horizon
        --db-cache <DIR>      phase-database cache directory
                              [default: $TRIAD_DB_CACHE or <workspace>/target/phasedb]
        --db-rebuild          ignore any cached database and rebuild (refreshes the cache)
        --energy-backend <B>  energy accounting backend: mcpat | table:<path> | scaled:<node>
                              (nodes: 32nm, 22nm, 14nm, 7nm) [default: mcpat];
                              energy-sweep: table:<path> is the measured table to sweep
                              (default: a table sampled from mcpat)
        --apps <A,B,..>       custom/energy-sweep: one application per core;
                              churn: the app pool replacements draw from
        --workload <PATH>     custom: run a dynamic workload spec (JSON, see the
                              README \"Workloads\" section) instead of --apps
        --rm <KIND>           custom: idle | rm1 | rm2 | rm3 | rm3full [default: rm3]
        --model <M>           custom: perfect | model1 | model2 | model3 [default: model3]
        --alpha <X>           custom: QoS slack factor [default: 1.0]
        --no-overheads        custom: do not charge transition/RM overheads
        --journal <PATH>      append every completed campaign row to a durable JSON-Lines
                              journal at PATH (truncated first unless --resume)
        --resume              resume from an existing --journal: rows already recorded
                              are loaded back instead of re-simulated
        --failpoints <SPEC>   arm deterministic fault-injection sites, e.g.
                              \"db_store.load=once;campaign.row=every(3):panic\"
                              (also read from $TRIAD_FAILPOINTS; see the README)
        --telemetry <PATH>    write a triad-telemetry/v1 metrics report (canonical JSON)
                              to PATH; the stdout/--json report is unaffected
        --chrome-trace <PATH> write a Chrome-trace-event JSON (open in Perfetto or
                              chrome://tracing) of stage spans to PATH
        --progress            print per-row campaign completion lines to stderr
    -h, --help                print this help
";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub experiment: String,
    pub cores: Option<usize>,
    pub seed: u64,
    pub json: Option<String>,
    pub threads: usize,
    pub intervals: Option<usize>,
    pub fast: bool,
    pub db_cache: Option<String>,
    pub db_rebuild: bool,
    pub energy_backend: Option<String>,
    pub apps: Vec<String>,
    pub workload: Option<String>,
    pub rm: String,
    pub model: String,
    pub alpha: f64,
    pub no_overheads: bool,
    pub journal: Option<String>,
    pub resume: bool,
    pub failpoints: Option<String>,
    pub telemetry: Option<String>,
    pub chrome_trace: Option<String>,
    pub progress: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            experiment: String::new(),
            cores: None,
            seed: 2020,
            json: None,
            threads: 0,
            intervals: None,
            fast: false,
            db_cache: None,
            db_rebuild: false,
            energy_backend: None,
            apps: Vec::new(),
            workload: None,
            rm: "rm3".into(),
            model: "model3".into(),
            alpha: 1.0,
            no_overheads: false,
            journal: None,
            resume: false,
            failpoints: None,
            telemetry: None,
            chrome_trace: None,
            progress: false,
        }
    }
}

/// Parse flags (no `std::env` access, so wrappers can inject).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} expects a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "-e" | "--experiment" => args.experiment = value(&mut it, a)?,
            "--cores" => {
                args.cores = Some(value(&mut it, a)?.parse().map_err(|e| format!("--cores: {e}"))?)
            }
            "--seed" => {
                args.seed = value(&mut it, a)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--json" => args.json = Some(value(&mut it, a)?),
            "--threads" => {
                args.threads = value(&mut it, a)?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--intervals" => {
                args.intervals =
                    Some(value(&mut it, a)?.parse().map_err(|e| format!("--intervals: {e}"))?)
            }
            "--fast" => args.fast = true,
            "--db-cache" => args.db_cache = Some(value(&mut it, a)?),
            "--db-rebuild" => args.db_rebuild = true,
            "--energy-backend" => args.energy_backend = Some(value(&mut it, a)?),
            "--apps" => {
                args.apps = value(&mut it, a)?.split(',').map(|s| s.trim().to_string()).collect()
            }
            "--workload" => args.workload = Some(value(&mut it, a)?),
            "--rm" => args.rm = value(&mut it, a)?,
            "--model" => args.model = value(&mut it, a)?,
            "--alpha" => {
                args.alpha = value(&mut it, a)?.parse().map_err(|e| format!("--alpha: {e}"))?
            }
            "--no-overheads" => args.no_overheads = true,
            "--journal" => args.journal = Some(value(&mut it, a)?),
            "--resume" => args.resume = true,
            "--failpoints" => args.failpoints = Some(value(&mut it, a)?),
            "--telemetry" => args.telemetry = Some(value(&mut it, a)?),
            "--chrome-trace" => args.chrome_trace = Some(value(&mut it, a)?),
            "--progress" => args.progress = true,
            "-h" | "--help" => {
                args.experiment = "help".into();
                return Ok(args);
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if args.experiment.is_empty() {
        return Err(format!("--experiment is required\n\n{USAGE}"));
    }
    Ok(args)
}

/// Run a parsed command line; returns the process exit code.
pub fn run(args: &Args) -> Result<(), String> {
    if args.experiment == "help" {
        println!("{USAGE}");
        return Ok(());
    }
    // Arm fault-injection sites first: $TRIAD_FAILPOINTS, then the
    // (higher-precedence, later-configured) --failpoints flag. A bad spec
    // is a user-input error — clean message, no backtrace.
    triad_util::failpoint::init_from_env().map_err(|e| format!("TRIAD_FAILPOINTS: {e}"))?;
    if let Some(spec) = &args.failpoints {
        triad_util::failpoint::configure_str(spec).map_err(|e| format!("--failpoints: {e}"))?;
    }
    if args.resume && args.journal.is_none() {
        return Err("--resume requires --journal <PATH>".into());
    }
    // Create/validate the journal before paying for anything expensive;
    // without --resume the file is truncated so the run starts fresh.
    if let Some(path) = &args.journal {
        let p = Path::new(path);
        if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| format!("--journal {path}: {e}"))?;
        }
        if !args.resume {
            std::fs::write(p, "").map_err(|e| format!("--journal {path}: {e}"))?;
        }
    }
    // Resolve the energy-backend selection and fail fast — before paying
    // for the database — when the table file or technology node is bad.
    let energy_cfg: Option<EnergyBackendConfig> = match &args.energy_backend {
        Some(b) => Some(EnergyBackendConfig::parse(b).ok_or_else(|| {
            format!("unknown --energy-backend {b} (expected mcpat, table:<path> or scaled:<node>)")
        })?),
        None => None,
    };
    if let Some(cfg) = &energy_cfg {
        cfg.build().map_err(|e| format!("--energy-backend {}: {e}", cfg.label()))?;
    }
    // Telemetry is a sidecar: recording is off unless an export path asks
    // for it, and the canonical stdout/--json rows never contain it.
    let mut telemetry_flags = 0u8;
    if args.telemetry.is_some() {
        telemetry_flags |= triad_telemetry::METRICS;
    }
    if args.chrome_trace.is_some() {
        telemetry_flags |= triad_telemetry::METRICS | triad_telemetry::TRACE;
    }
    if telemetry_flags != 0 {
        triad_telemetry::enable(telemetry_flags);
    }
    let run_opts = RunOptions {
        threads: args.threads,
        intervals: args.intervals.or(if args.fast { Some(32) } else { None }),
        energy: energy_cfg.clone(),
        progress: args.progress,
        journal: args.journal.clone(),
    };
    const EXPERIMENTS: [&str; 13] = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "overheads",
        "custom",
        "energy-sweep",
        "workload-sweep",
        "churn",
    ];
    if !EXPERIMENTS.contains(&args.experiment.as_str()) {
        return Err(format!("unknown experiment {}\n\n{USAGE}", args.experiment));
    }
    // Validate everything cheap *before* paying for the database build.
    // The sweep owns backend selection — it reruns the same specs under
    // every backend — so an explicit non-table --energy-backend would be
    // silently ignored; reject it instead. --energy-backend table:<path>
    // chooses the sweep's measured-table leg.
    let sweep_table: Option<String> = match (&args.experiment[..], &energy_cfg) {
        ("energy-sweep", None) => None,
        ("energy-sweep", Some(EnergyBackendConfig::Table { path })) => Some(path.clone()),
        ("energy-sweep", Some(other)) => {
            return Err(format!(
                "energy-sweep runs every backend; --energy-backend {} would have no \
                 effect (use --energy-backend table:<path> to choose the measured-table leg)",
                other.label()
            ))
        }
        _ => None,
    };
    let sweep_apps: Vec<String> = if args.apps.is_empty() {
        // The 3-app fast subset (the db_store bench's subset): small enough
        // for CI smoke runs, mixed enough to exercise every backend path.
        vec!["mcf".into(), "libquantum".into(), "povray".into()]
    } else {
        args.apps.clone()
    };
    // A dynamic workload spec file replaces --apps for `custom`; validate
    // it (parse + materialize) before paying for the database.
    let workload_spec: Option<WorkloadSpec> = match &args.workload {
        Some(path) => {
            if args.experiment != "custom" {
                return Err(format!(
                    "--workload only applies to the custom experiment \
                     (the {} preset generates its own workloads)",
                    args.experiment
                ));
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--workload {path}: {e}"))?;
            let json = triad_util::json::parse(&text)
                .map_err(|e| format!("--workload {path}: invalid JSON: {e:?}"))?;
            let spec =
                WorkloadSpec::from_json(&json).map_err(|e| format!("--workload {path}: {e}"))?;
            spec.materialize().map_err(|e| format!("--workload {path}: {e}"))?;
            Some(spec)
        }
        None => None,
    };
    if args.experiment == "custom" && workload_spec.is_some() && !args.apps.is_empty() {
        return Err("--workload and --apps conflict for custom: the workload spec \
             defines the applications (put an explicit list in a static spec)"
            .to_string());
    }
    let check_apps = |apps: &[String]| -> Result<(), String> {
        match apps.iter().find(|n| triad_trace::by_name(n).is_none()) {
            Some(bad) => {
                let known: Vec<&str> = triad_trace::suite().iter().map(|a| a.name).collect();
                Err(format!("unknown application {bad}; the suite contains: {}", known.join(", ")))
            }
            None => Ok(()),
        }
    };
    // The workload presets generate §IV-C mixes, so they need an even
    // system width — except churn over an explicit pool, which samples
    // per core. Fail here, before paying for the database.
    if matches!(args.experiment.as_str(), "workload-sweep" | "churn") {
        let n = args.cores.unwrap_or(4);
        let needs_even = args.experiment == "workload-sweep" || args.apps.is_empty();
        if needs_even && (n < 2 || !n.is_multiple_of(2)) {
            return Err(format!(
                "--experiment {} generates §IV-C mixes and needs an even --cores ≥ 2 \
                 (got {n}); churn with an explicit --apps pool accepts any width",
                args.experiment
            ));
        }
        if n == 0 {
            return Err("--cores must be at least 1".into());
        }
        // The churn preset accepts --apps as an optional replacement pool.
        check_apps(&args.apps)?;
    }
    let needs_apps = match args.experiment.as_str() {
        "custom" => workload_spec.is_none(),
        "energy-sweep" => true,
        _ => false,
    };
    let needs_rm_model = matches!(args.experiment.as_str(), "custom" | "energy-sweep");
    let custom_rm_model = if needs_rm_model {
        if needs_apps {
            let apps = if args.experiment == "custom" { &args.apps } else { &sweep_apps };
            if apps.len() < 2 {
                return Err(format!(
                    "{} experiments need --apps with at least two names",
                    args.experiment
                ));
            }
            check_apps(apps)?;
        }
        let rm = parse_rm(&args.rm).ok_or_else(|| format!("unknown --rm {}", args.rm))?;
        let model =
            parse_model(&args.model).ok_or_else(|| format!("unknown --model {}", args.model))?;
        Some((rm, model))
    } else {
        None
    };
    let db_cfg = if args.fast { DbConfig::fast() } else { DbConfig::default() };
    let store = match &args.db_cache {
        Some(dir) => DbStore::new(dir),
        None => DbStore::default_cache(),
    }
    .force_rebuild(args.db_rebuild);
    let needs_db = !matches!(args.experiment.as_str(), "table1" | "fig1");
    let db = if needs_db { Some(resolve_db(&db_cfg, &store)) } else { None };
    let db = db.as_ref();

    let both = [4usize, 8];
    let core_list = |args: &Args| args.cores.map(|c| vec![c]).unwrap_or_else(|| both.to_vec());
    let doc = match args.experiment.as_str() {
        "table1" => reports::table1(),
        "table2" => reports::table2(db.unwrap()),
        "fig1" => reports::fig1(),
        "fig2" => reports::fig2(db.unwrap(), &run_opts),
        "fig6" => reports::fig6(db.unwrap(), &core_list(args), args.seed, &run_opts),
        "fig7" => reports::fig7(db.unwrap(), args.cores.unwrap_or(4), &run_opts),
        "fig8" => reports::fig8(db.unwrap(), args.cores.unwrap_or(4), &run_opts),
        "fig9" => reports::fig9(db.unwrap(), &core_list(args), args.seed, &run_opts),
        "overheads" => reports::overheads(db.unwrap(), args.seed, &run_opts),
        "energy-sweep" => {
            let names: Vec<&str> = sweep_apps.iter().map(String::as_str).collect();
            let sweep_opts = RunOptions { energy: None, ..run_opts.clone() };
            reports::energy_sweep(
                db.unwrap(),
                &names,
                args.seed,
                sweep_table.as_deref(),
                &sweep_opts,
            )
        }
        "workload-sweep" => {
            reports::workload_sweep(db.unwrap(), args.cores.unwrap_or(4), args.seed, &run_opts)
        }
        "churn" => {
            reports::churn(db.unwrap(), args.cores.unwrap_or(4), args.seed, &args.apps, &run_opts)
        }
        "custom" => {
            let (rm, model) = custom_rm_model.expect("validated above");
            match &workload_spec {
                Some(wl) => {
                    let spec = ExperimentSpec::for_workload_spec(
                        format!("custom/{}", wl.label()),
                        wl.clone(),
                    )
                    .expect("workload validated above")
                    .rm(rm)
                    .model(model)
                    .alpha(args.alpha)
                    .overheads(!args.no_overheads)
                    .seed(args.seed);
                    reports::workload_report(db.unwrap(), spec, wl, &run_opts)
                }
                None => {
                    let names: Vec<&str> = args.apps.iter().map(String::as_str).collect();
                    let spec =
                        ExperimentSpec::new(format!("custom/{}", args.apps.join("+")), &names)
                            .rm(rm)
                            .model(model)
                            .alpha(args.alpha)
                            .overheads(!args.no_overheads)
                            .seed(args.seed);
                    reports::custom(db.unwrap(), spec, &run_opts)
                }
            }
        }
        _ => unreachable!("experiment name validated against EXPERIMENTS above"),
    };

    if let Some(path) = &args.json {
        atomic_write(Path::new(path), doc.to_string_pretty(), None)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    if let Some(path) = &args.telemetry {
        let report = triad_telemetry::snapshot().to_json().to_string_pretty();
        atomic_write(Path::new(path), report, None).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("telemetry metrics written to {path}");
    }
    if let Some(path) = &args.chrome_trace {
        let trace = triad_telemetry::take_chrome_trace().to_string_pretty();
        atomic_write(Path::new(path), trace, None).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    // Quarantined rows mean the report is incomplete: every output above
    // has been written (the surviving rows and the error rows are all in
    // the JSON), but the run as a whole did not succeed.
    let quarantined = quarantined_rows(&doc);
    if quarantined > 0 {
        return Err(format!(
            "{quarantined} spec(s) quarantined; the campaign report carries their error rows"
        ));
    }
    Ok(())
}

/// Count quarantined error rows anywhere in a report document (campaign
/// reports nest at different depths per experiment).
fn quarantined_rows(doc: &triad_util::json::Json) -> usize {
    use triad_util::json::Json;
    match doc {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| {
                let own = match (k.as_str(), v) {
                    ("quarantined", Json::Arr(rows)) => rows.len(),
                    _ => 0,
                };
                own + quarantined_rows(v)
            })
            .sum(),
        Json::Arr(items) => items.iter().map(quarantined_rows).sum(),
        _ => 0,
    }
}

/// Entry point of the `triad-bench` binary.
pub fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::ExitCode::FAILURE
        }
    }
}
