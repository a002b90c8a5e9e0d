//! # triad-telemetry — zero-cost-when-disabled observability
//!
//! A static registry of named [`Counter`]s, [`Histogram`]s and
//! [`SpanName`]s with thread-sharded recording, plus two exporters: a
//! canonical-JSON metrics report (schema `triad-telemetry/v1`, written
//! with [`triad_util::json`]) and a Chrome-trace-event JSON that loads
//! directly in Perfetto or `chrome://tracing`.
//!
//! ## Design constraints
//!
//! * **Disabled is the default and costs one relaxed atomic load plus a
//!   predictable branch per call site.** Nothing is registered, no TLS is
//!   touched, no time is read. The `db_build` and `rm_overhead` benches
//!   gate the residual overhead at ≤1% of their hot loops.
//! * **Telemetry is a sidecar.** No recorded value ever feeds back into
//!   simulation results; campaign rows and persisted phase-database
//!   artifacts are byte-identical with telemetry on or off.
//! * **Counter and event *totals* are deterministic across thread
//!   counts.** Each thread records into its own shard; shards flush into
//!   one global aggregate when the thread exits (the campaign and
//!   phase-db workers are scoped threads, so they have flushed by the
//!   time their `par_map` returns) or when the owning thread calls
//!   [`snapshot`]/[`take_chrome_trace`]. Totals are sums of `u64`s, so
//!   the merge order does not matter. Wall-clock durations are exempt —
//!   they are honest measurements, not replayable state.
//!
//! ## Usage
//!
//! ```
//! use triad_telemetry as telemetry;
//!
//! static CACHE_HITS: telemetry::Counter = telemetry::Counter::new("demo.cache_hits");
//! static RESOLVE: telemetry::SpanName = telemetry::SpanName::new("demo.resolve");
//!
//! telemetry::enable(telemetry::METRICS | telemetry::TRACE);
//! {
//!     let _span = RESOLVE.enter();
//!     CACHE_HITS.add(3);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("demo.cache_hits"), 3);
//! let trace = telemetry::take_chrome_trace();
//! assert!(trace.to_string_compact().contains("\"ph\":\"X\""));
//! telemetry::disable_all();
//! telemetry::reset();
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use triad_util::json::Json;

/// Flag bit: record counters, histograms and span aggregates.
pub const METRICS: u8 = 1;
/// Flag bit: capture per-span Chrome trace events (heavier: one event
/// per entry of every span not declared [`SpanName::untraced`],
/// timestamped against a process-wide epoch).
pub const TRACE: u8 = 1 << 1;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// True if counter/histogram/span-aggregate recording is enabled.
#[inline]
pub fn metrics_on() -> bool {
    FLAGS.load(Ordering::Relaxed) & METRICS != 0
}

/// Turn on the given flag bits ([`METRICS`], [`TRACE`]). Idempotent;
/// the trace epoch is pinned on first enable.
pub fn enable(flags: u8) {
    epoch();
    FLAGS.fetch_or(flags & (METRICS | TRACE), Ordering::Relaxed);
}

/// Turn all recording off. Already-recorded data stays until [`reset`].
pub fn disable_all() {
    FLAGS.store(0, Ordering::Relaxed);
}

/// Process-wide epoch all trace timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Name registry: stable small ids for statically-declared instruments.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Names {
    counters: Vec<&'static str>,
    hists: Vec<&'static str>,
    spans: Vec<&'static str>,
}

static NAMES: Mutex<Names> =
    Mutex::new(Names { counters: Vec::new(), hists: Vec::new(), spans: Vec::new() });

fn lock_names() -> std::sync::MutexGuard<'static, Names> {
    NAMES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Register `name` in `list`, deduplicating: two statics with the same
/// name share one slot, so their recordings merge.
fn register(list: fn(&mut Names) -> &mut Vec<&'static str>, name: &'static str) -> u32 {
    let mut names = lock_names();
    let list = list(&mut names);
    if let Some(i) = list.iter().position(|&n| n == name) {
        return i as u32;
    }
    list.push(name);
    (list.len() - 1) as u32
}

/// Cached-id helper shared by the three instrument kinds: `cache` holds
/// `id + 1` so the zero-initialized static means "not yet registered".
fn resolve_id(
    cache: &AtomicU32,
    list: fn(&mut Names) -> &mut Vec<&'static str>,
    name: &'static str,
) -> usize {
    let c = cache.load(Ordering::Relaxed);
    if c != 0 {
        return (c - 1) as usize;
    }
    let id = register(list, name);
    cache.store(id + 1, Ordering::Relaxed);
    id as usize
}

// ---------------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------------

/// A named monotonic counter. Declare as a `static`; recording is
/// thread-sharded and the exported value is the sum over all shards.
pub struct Counter {
    name: &'static str,
    id: AtomicU32,
}

impl Counter {
    /// Declare a counter. `name` should be `subsystem.metric` style.
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, id: AtomicU32::new(0) }
    }

    /// Add `n`. A no-op (one load + branch) unless [`METRICS`] is on.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_on() {
            return;
        }
        self.add_enabled(n);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    #[cold]
    fn add_enabled(&self, n: u64) {
        let id = resolve_id(&self.id, |n| &mut n.counters, self.name);
        with_shard(|s| {
            if s.counts.len() <= id {
                s.counts.resize(id + 1, 0);
            }
            s.counts[id] += n;
            s.ops += 1;
        });
    }
}

/// Number of log2 buckets a [`Histogram`] keeps: bucket 0 counts the
/// value 0, bucket `i` counts values with `i` significant bits (i.e.
/// `[2^(i-1), 2^i)`); everything ≥ 2^31 lands in the last bucket.
pub const HIST_BUCKETS: usize = 33;

/// A named log2-bucketed histogram of `u64` samples (count, sum,
/// min/max and 33 power-of-two buckets). Totals are deterministic
/// across thread counts for a deterministic sample set.
pub struct Histogram {
    name: &'static str,
    id: AtomicU32,
}

impl Histogram {
    /// Declare a histogram.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram { name, id: AtomicU32::new(0) }
    }

    /// Record one sample. A no-op unless [`METRICS`] is on.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !metrics_on() {
            return;
        }
        self.observe_enabled(v);
    }

    #[cold]
    fn observe_enabled(&self, v: u64) {
        let id = resolve_id(&self.id, |n| &mut n.hists, self.name);
        let bucket = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        with_shard(|s| {
            if s.hists.len() <= id {
                s.hists.resize(id + 1, HistAgg::new());
            }
            s.hists[id].record(v, bucket);
            s.ops += 1;
        });
    }
}

#[derive(Clone)]
struct HistAgg {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl HistAgg {
    fn new() -> HistAgg {
        HistAgg { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HIST_BUCKETS] }
    }

    fn record(&mut self, v: u64, bucket: usize) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket] += 1;
    }

    fn merge(&mut self, o: &HistAgg) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        for (a, b) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *a += b;
        }
    }
}

/// A named span. [`SpanName::enter`] returns a guard that records the
/// elapsed wall time on drop (into the metrics aggregate) and, when
/// [`TRACE`] is on, emits one Chrome complete (`"ph":"X"`) event — unless
/// the span was declared with [`SpanName::untraced`].
pub struct SpanName {
    name: &'static str,
    id: AtomicU32,
    traced: bool,
}

impl SpanName {
    /// Declare a span name.
    pub const fn new(name: &'static str) -> SpanName {
        SpanName { name, id: AtomicU32::new(0), traced: true }
    }

    /// Declare a metrics-only span: it keeps its count and total time but
    /// never emits a Chrome event. For spans entered so often, and so
    /// briefly, that per-entry trace events would dominate the trace.
    pub const fn untraced(name: &'static str) -> SpanName {
        SpanName { name, id: AtomicU32::new(0), traced: false }
    }

    /// Start timing. Costs one load + branch when everything is off.
    #[inline]
    pub fn enter(&self) -> SpanGuard {
        let flags = FLAGS.load(Ordering::Relaxed);
        let flags = if self.traced { flags } else { flags & METRICS };
        if flags == 0 {
            return SpanGuard { active: None };
        }
        SpanGuard {
            active: Some(ActiveSpan {
                id: resolve_id(&self.id, |n| &mut n.spans, self.name) as u32,
                name: self.name,
                traced: self.traced,
                start: Instant::now(),
            }),
        }
    }
}

struct ActiveSpan {
    id: u32,
    name: &'static str,
    traced: bool,
    start: Instant,
}

/// Guard returned by [`SpanName::enter`]; records on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let dur = span.start.elapsed();
        let flags = FLAGS.load(Ordering::Relaxed);
        if flags == 0 {
            return;
        }
        with_shard(|s| {
            if flags & METRICS != 0 {
                let id = span.id as usize;
                if s.spans.len() <= id {
                    s.spans.resize(id + 1, SpanAgg { count: 0, total_ns: 0 });
                }
                s.spans[id].count += 1;
                s.spans[id].total_ns += dur.as_nanos() as u64;
                s.ops += 1;
            }
            if flags & TRACE != 0 && span.traced {
                s.events.push(Event {
                    name: span.name,
                    ts_ns: span.start.duration_since(epoch()).as_nanos() as u64,
                    dur_ns: dur.as_nanos() as u64,
                });
            }
        });
    }
}

#[derive(Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
}

struct Event {
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
}

// ---------------------------------------------------------------------------
// Thread shards and the global aggregate.
// ---------------------------------------------------------------------------

struct Shard {
    tid: u32,
    counts: Vec<u64>,
    hists: Vec<HistAgg>,
    spans: Vec<SpanAgg>,
    events: Vec<Event>,
    ops: u64,
}

impl Shard {
    fn new() -> Shard {
        static NEXT_TID: AtomicU32 = AtomicU32::new(0);
        Shard {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            counts: Vec::new(),
            hists: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
            ops: 0,
        }
    }

    fn clear(&mut self) {
        self.counts.clear();
        self.hists.clear();
        self.spans.clear();
        self.events.clear();
        self.ops = 0;
    }
}

/// TLS cell whose `Drop` flushes the shard into the global aggregate —
/// worker threads spawned by `triad_util::par` flush automatically when
/// their scope ends.
struct ShardCell(RefCell<Shard>);

impl Drop for ShardCell {
    fn drop(&mut self) {
        flush_shard(&mut self.0.borrow_mut());
    }
}

thread_local! {
    static SHARD: ShardCell = ShardCell(RefCell::new(Shard::new()));
}

fn with_shard(f: impl FnOnce(&mut Shard)) {
    // Ignore recording attempts during thread teardown after the shard
    // itself has been destroyed.
    let _ = SHARD.try_with(|c| f(&mut c.0.borrow_mut()));
}

struct FlushedEvent {
    name: &'static str,
    tid: u32,
    ts_ns: u64,
    dur_ns: u64,
}

struct Aggregate {
    counts: Vec<u64>,
    hists: Vec<HistAgg>,
    spans: Vec<SpanAgg>,
    events: Vec<FlushedEvent>,
    ops: u64,
}

static AGG: Mutex<Aggregate> = Mutex::new(Aggregate {
    counts: Vec::new(),
    hists: Vec::new(),
    spans: Vec::new(),
    events: Vec::new(),
    ops: 0,
});

fn lock_agg() -> std::sync::MutexGuard<'static, Aggregate> {
    AGG.lock().unwrap_or_else(|e| e.into_inner())
}

fn flush_shard(shard: &mut Shard) {
    if shard.counts.is_empty()
        && shard.hists.is_empty()
        && shard.spans.is_empty()
        && shard.events.is_empty()
        && shard.ops == 0
    {
        return;
    }
    let mut agg = lock_agg();
    if agg.counts.len() < shard.counts.len() {
        agg.counts.resize(shard.counts.len(), 0);
    }
    for (a, c) in agg.counts.iter_mut().zip(shard.counts.iter()) {
        *a += c;
    }
    if agg.hists.len() < shard.hists.len() {
        agg.hists.resize(shard.hists.len(), HistAgg::new());
    }
    for (a, h) in agg.hists.iter_mut().zip(shard.hists.iter()) {
        a.merge(h);
    }
    if agg.spans.len() < shard.spans.len() {
        agg.spans.resize(shard.spans.len(), SpanAgg { count: 0, total_ns: 0 });
    }
    for (a, s) in agg.spans.iter_mut().zip(shard.spans.iter()) {
        a.count += s.count;
        a.total_ns += s.total_ns;
    }
    let tid = shard.tid;
    agg.events.extend(shard.events.drain(..).map(|e| FlushedEvent {
        name: e.name,
        tid,
        ts_ns: e.ts_ns,
        dur_ns: e.dur_ns,
    }));
    agg.ops += shard.ops;
    shard.clear();
}

/// Flush the calling thread's shard into the global aggregate. Called
/// implicitly by [`snapshot`] and [`take_chrome_trace`]; other threads
/// flush when they exit.
pub fn flush_thread() {
    with_shard(flush_shard);
}

/// Discard everything recorded so far (global aggregate plus the
/// calling thread's shard). Registered names keep their ids.
pub fn reset() {
    with_shard(Shard::clear);
    let mut agg = lock_agg();
    agg.counts.clear();
    agg.hists.clear();
    agg.spans.clear();
    agg.events.clear();
    agg.ops = 0;
}

// ---------------------------------------------------------------------------
// Snapshot + exporters.
// ---------------------------------------------------------------------------

/// Exported histogram statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` pairs for the non-empty log2 buckets.
    pub buckets: Vec<(u32, u64)>,
}

/// Exported span statistics. `count` is deterministic across thread
/// counts; `total_ns` is wall clock and is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds across entries (informational).
    pub total_ns: u64,
}

/// A point-in-time copy of every aggregate, sorted by name.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, total)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, stats)` for every registered histogram, sorted by name.
    pub histograms: Vec<(String, HistStats)>,
    /// `(name, stats)` for every registered span, sorted by name.
    pub spans: Vec<(String, SpanStats)>,
    /// Total record operations performed while metrics were enabled —
    /// the `O` in the benches' `O × cost_per_disabled_call ≤ 1%` gate.
    pub record_ops: u64,
}

impl Snapshot {
    /// Total for a counter by name (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    /// Span stats by name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Histogram stats by name.
    pub fn histogram(&self, name: &str) -> Option<&HistStats> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Canonical `triad-telemetry/v1` metrics report. Counter totals,
    /// histogram statistics and span counts are deterministic across
    /// thread counts; `total_ms` fields are wall clock.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, v) in &self.counters {
            counters = counters.set(name, *v);
        }
        let mut hists = Json::obj();
        for (name, h) in &self.histograms {
            let buckets = Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(i, c)| Json::Arr(vec![Json::from(u64::from(i)), Json::from(c)]))
                    .collect(),
            );
            hists = hists.set(
                name,
                Json::obj()
                    .set("count", h.count)
                    .set("sum", h.sum)
                    .set("min", h.min)
                    .set("max", h.max)
                    .set("buckets", buckets),
            );
        }
        let mut spans = Json::obj();
        for (name, s) in &self.spans {
            spans = spans.set(
                name,
                Json::obj().set("count", s.count).set("total_ms", s.total_ns as f64 / 1e6),
            );
        }
        Json::obj()
            .set("schema", "triad-telemetry/v1")
            .set("counters", counters)
            .set("histograms", hists)
            .set("spans", spans)
            .set("record_ops", self.record_ops)
    }
}

/// Snapshot every aggregate (flushing the calling thread's shard first).
/// Does not consume anything; call [`reset`] to start over.
pub fn snapshot() -> Snapshot {
    flush_thread();
    let names = lock_names();
    let agg = lock_agg();
    let mut counters: Vec<(String, u64)> = names
        .counters
        .iter()
        .enumerate()
        .map(|(i, &n)| (n.to_string(), agg.counts.get(i).copied().unwrap_or(0)))
        .collect();
    counters.sort();
    let mut histograms: Vec<(String, HistStats)> = names
        .hists
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let h = agg.hists.get(i).cloned().unwrap_or_else(HistAgg::new);
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(b, &c)| (b as u32, c))
                .collect();
            (
                n.to_string(),
                HistStats {
                    count: h.count,
                    sum: h.sum,
                    min: if h.count == 0 { 0 } else { h.min },
                    max: h.max,
                    buckets,
                },
            )
        })
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    let mut spans: Vec<(String, SpanStats)> = names
        .spans
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let s = agg.spans.get(i).copied().unwrap_or(SpanAgg { count: 0, total_ns: 0 });
            (n.to_string(), SpanStats { count: s.count, total_ns: s.total_ns })
        })
        .collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot { counters, histograms, spans, record_ops: agg.ops }
}

/// Drain all captured span events into a Chrome-trace-event JSON
/// document (`{"traceEvents": [...]}` with complete `"X"` events),
/// loadable in Perfetto or `chrome://tracing`. Timestamps are
/// microseconds since the telemetry epoch; `tid` is the recording
/// thread's shard id.
pub fn take_chrome_trace() -> Json {
    flush_thread();
    let mut agg = lock_agg();
    let mut events = std::mem::take(&mut agg.events);
    drop(agg);
    events.sort_by(|a, b| (a.ts_ns, a.tid, a.name).cmp(&(b.ts_ns, b.tid, b.name)));
    let items = events
        .iter()
        .map(|e| {
            Json::obj()
                .set("name", e.name)
                .set("cat", "triad")
                .set("ph", "X")
                .set("ts", e.ts_ns as f64 / 1e3)
                .set("dur", e.dur_ns as f64 / 1e3)
                .set("pid", 0u64)
                .set("tid", u64::from(e.tid))
        })
        .collect();
    Json::obj().set("traceEvents", Json::Arr(items)).set("displayTimeUnit", "ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; serialize the tests.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh() {
        disable_all();
        reset();
    }

    static C1: Counter = Counter::new("test.c1");
    static C2: Counter = Counter::new("test.c2");
    static H1: Histogram = Histogram::new("test.h1");
    static S1: SpanName = SpanName::new("test.s1");
    static UNTRACED: SpanName = SpanName::untraced("test.untraced");

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        fresh();
        C1.add(5);
        H1.observe(9);
        drop(S1.enter());
        let snap = snapshot();
        assert_eq!(snap.counter("test.c1"), 0);
        assert_eq!(snap.record_ops, 0);
        assert!(snap.histogram("test.h1").map(|h| h.count).unwrap_or(0) == 0);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let _g = serial();
        fresh();
        enable(METRICS);
        C1.add(2);
        C1.incr();
        C2.add(7);
        H1.observe(0);
        H1.observe(1);
        H1.observe(1024);
        let snap = snapshot();
        fresh();
        assert_eq!(snap.counter("test.c1"), 3);
        assert_eq!(snap.counter("test.c2"), 7);
        let h = snap.histogram("test.h1").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1025);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 → bucket 0, 1 → bucket 1, 1024 = 2^10 → bucket 11.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (11, 1)]);
        assert_eq!(snap.record_ops, 6);
        // Counters come back sorted by name.
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn totals_are_thread_count_invariant() {
        let _g = serial();
        let work = |threads: usize| {
            fresh();
            enable(METRICS);
            let items: Vec<u64> = (0..64).collect();
            triad_util::par::par_map(&items, threads, |&i| {
                let _s = S1.enter();
                C1.add(i);
                H1.observe(i);
            });
            let snap = snapshot();
            fresh();
            (
                snap.counter("test.c1"),
                snap.histogram("test.h1").unwrap().clone(),
                snap.span("test.s1").unwrap().count,
                snap.record_ops,
            )
        };
        let one = work(1);
        let four = work(4);
        assert_eq!(one.0, four.0);
        assert_eq!(one.1, four.1);
        assert_eq!(one.2, four.2);
        assert_eq!(one.3, four.3);
        assert_eq!(one.0, (0..64).sum::<u64>());
        assert_eq!(one.2, 64);
    }

    #[test]
    fn chrome_trace_is_parseable_complete_events() {
        let _g = serial();
        fresh();
        enable(METRICS | TRACE);
        for _ in 0..3 {
            let _s = S1.enter();
            let _u = UNTRACED.enter();
        }
        let doc = take_chrome_trace();
        let snap = snapshot();
        fresh();
        assert_eq!(snap.span("test.s1").unwrap().count, 3);
        // The untraced span is timed like any other but leaves no event.
        assert_eq!(snap.span("test.untraced").unwrap().count, 3);
        let text = doc.to_string_pretty();
        let parsed = triad_util::json::parse(&text).expect("chrome trace must parse");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        assert_eq!(events.len(), 3);
        for e in events {
            assert_eq!(e.get("ph"), Some(&Json::Str("X".into())));
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert_eq!(e.get("pid"), Some(&Json::Int(0)));
        }
        // Drained: a second take is empty.
        let doc2 = take_chrome_trace();
        assert_eq!(doc2.get("traceEvents"), Some(&Json::Arr(Vec::new())));
    }

    #[test]
    fn metrics_json_round_trips() {
        let _g = serial();
        fresh();
        enable(METRICS);
        C1.add(11);
        H1.observe(5);
        {
            let _s = S1.enter();
        }
        let snap = snapshot();
        fresh();
        let text = snap.to_json().to_string_pretty();
        let parsed = triad_util::json::parse(&text).expect("metrics report must parse");
        assert_eq!(parsed.get("schema"), Some(&Json::Str("triad-telemetry/v1".into())));
        let counters = parsed.get("counters").unwrap();
        assert_eq!(counters.get("test.c1"), Some(&Json::Int(11)));
    }
}
