//! Benchmark-side spans around each public call a pass makes.
//!
//! Each span is timed from outside the call and also entered as a
//! telemetry span, so a traced pass shows it in the Perfetto trace as the
//! parent of the program's own spans.

use std::time::Instant;
use triad_telemetry::SpanName;

/// The top-level calls of a pass; together they should cover its wall time.
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// `DbStore::resolve_suite`.
    Setup,
    /// `Campaign::try_run` / `Campaign::run_journaled`.
    CampaignRun,
    /// `Campaign::report_full` + canonical serialization.
    ReportSerialize,
    /// Writing the report file.
    ReportWrite,
}

const N_SPANS: usize = 4;

static NAMES: [SpanName; N_SPANS] = [
    SpanName::new("perfbench.setup"),
    SpanName::new("perfbench.campaign_run"),
    SpanName::new("perfbench.report_serialize"),
    SpanName::new("perfbench.report_write"),
];

/// Seconds spent inside each [`Span`] during one pass.
#[derive(Debug, Default)]
pub struct Timer {
    totals: [f64; N_SPANS],
}

impl Timer {
    /// Run `f` inside `span`, adding its wall time to the span's total.
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        let _guard = NAMES[span as usize].enter();
        let started = Instant::now();
        let out = f();
        self.totals[span as usize] += started.elapsed().as_secs_f64();
        out
    }

    /// Total seconds inside `span`.
    pub fn get(&self, span: Span) -> f64 {
        self.totals[span as usize]
    }

    /// Total seconds inside any span.
    pub fn attributed(&self) -> f64 {
        self.totals.iter().sum()
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
