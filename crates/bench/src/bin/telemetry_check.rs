//! CI telemetry-artifact validation: check that a `--telemetry` metrics
//! report and a `--chrome-trace` event file are well-formed.
//!
//! * the metrics report must parse with [`triad_util::json::parse`],
//!   carry `schema: "triad-telemetry/v1"` and have non-empty `counters`;
//! * the chrome trace must parse, carry a non-empty `traceEvents` array,
//!   and every event must be a complete `"X"` event (the only kind
//!   `triad_telemetry::take_chrome_trace` writes) with numeric `ts`/`dur`.
//!
//! Usage: `telemetry_check <metrics.json> <chrome-trace.json>`

use std::process::ExitCode;
use triad_util::json::{parse, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: invalid JSON: {e:?}"))
}

fn check_metrics(path: &str) -> Result<usize, String> {
    let doc = load(path)?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == "triad-telemetry/v1" => {}
        other => return Err(format!("{path}: schema must be triad-telemetry/v1, got {other:?}")),
    }
    let Some(Json::Obj(counters)) = doc.get("counters") else {
        return Err(format!("{path}: counters object missing"));
    };
    if counters.is_empty() {
        return Err(format!("{path}: no counters recorded — instrumentation did not run"));
    }
    for key in ["histograms", "spans", "record_ops"] {
        if doc.get(key).is_none() {
            return Err(format!("{path}: {key} field missing"));
        }
    }
    Ok(counters.len())
}

fn check_chrome_trace(path: &str) -> Result<usize, String> {
    let doc = load(path)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err(format!("{path}: traceEvents array missing"));
    };
    if events.is_empty() {
        return Err(format!("{path}: no trace events captured — spans did not record"));
    }
    for (i, e) in events.iter().enumerate() {
        match e.get("ph") {
            Some(Json::Str(s)) if s == "X" => {}
            other => return Err(format!("{path}: event {i}: ph must be \"X\", got {other:?}")),
        }
        for key in ["ts", "dur"] {
            match e.get(key) {
                Some(Json::Num(x)) if x.is_finite() && *x >= 0.0 => {}
                Some(Json::Int(x)) if *x >= 0 => {}
                other => {
                    return Err(format!("{path}: event {i}: {key} must be ≥ 0, got {other:?}"))
                }
            }
        }
    }
    Ok(events.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [metrics, trace] = args.as_slice() else {
        eprintln!("usage: telemetry_check <metrics.json> <chrome-trace.json>");
        return ExitCode::FAILURE;
    };
    match (check_metrics(metrics), check_chrome_trace(trace)) {
        (Ok(nc), Ok(ne)) => {
            println!("telemetry_check: {nc} counters in {metrics}, {ne} events in {trace}: OK");
            ExitCode::SUCCESS
        }
        (m, t) => {
            for r in [m.map(|_| ()), t.map(|_| ())] {
                if let Err(e) = r {
                    eprintln!("telemetry_check: {e}");
                }
            }
            ExitCode::FAILURE
        }
    }
}
