//! Zero-dependency observability for the Parma pipeline.
//!
//! The paper's evaluation hinges on *where time goes*: equation formation
//! vs. solving, per-worker busy time, iteration counts of the inner
//! solvers. This crate provides the one shared instrument panel:
//!
//! * [`span`] — RAII wall-clock spans with thread-local nesting, so the
//!   trace shows `pipeline/form_equations`, `pipeline/solve/cg`, …
//! * [`counter_add`] — monotonic counters (solver iterations, retries,
//!   steals),
//! * [`gauge_set`] — last-value gauges (pool geometry, worker busy time),
//! * [`record_series`] — numeric series (residual histories, per-worker
//!   busy milliseconds), kept one `Vec<f64>` per recording so repeated
//!   solves stay distinguishable,
//! * [`hist`] — lock-free log-linear histograms for latency/iteration
//!   distributions with p50/p90/p99 extraction,
//! * [`events`] — a bounded lock-free flight recorder of structured
//!   events (solve start/end, retries, quarantines, steals),
//! * [`expo`] — Prometheus text-format 0.0.4 rendering of a snapshot,
//! * [`serve`] — a std-only HTTP listener exposing `/metrics` and
//!   `/snapshot` for live scraping during long batch runs,
//! * [`context`] — the trace/span identifiers one distributed job carries
//!   across processes,
//! * [`fleet`] — the coordinator-side store of worker-shipped telemetry
//!   (per-worker labeled series, retained flight-recorder tails),
//! * [`fnv`] — FNV-1a 64, the one content hash behind journal
//!   fingerprints, wire-frame sums and container checksums,
//! * [`timeline`] — clock-offset-corrected cross-process causal timeline
//!   reconstruction (`parma-timeline/v1`),
//! * [`snapshot`] / [`Snapshot::to_json`] — export to machine-readable
//!   JSON for the CLI's `--trace <path>` flag and the bench harness.
//!
//! Collection is **off by default** and the disabled fast path is a single
//! relaxed atomic load — no allocation, no locking — so instrumented hot
//! loops cost nothing in normal runs. Two independent gates share that
//! load:
//!
//! * **trace** ([`set_enabled`]) — the original one-shot trace mode. It
//!   additionally turns on spans and series, which grow without bound and
//!   are therefore reserved for bounded runs that end in a trace dump.
//! * **live** ([`set_live`]) — bounded-memory telemetry only: counters,
//!   gauges, histograms and the event ring. Safe to leave on for hours;
//!   this is what `--metrics-addr` uses.
//!
//! Registry recording happens at span *end* (and at explicit
//! counter/series calls), never per loop iteration, so contention stays
//! negligible; histograms and events bypass the registry mutex entirely.

pub mod context;
pub mod events;
pub mod expo;
pub mod fleet;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod serve;
pub mod timeline;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Bit for trace mode: spans + series + everything live mode records.
const FLAG_TRACE: u8 = 1 << 0;
/// Bit for live mode: counters, gauges, histograms, events only.
const FLAG_LIVE: u8 = 1 << 1;

static FLAGS: AtomicU8 = AtomicU8::new(0);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

thread_local! {
    /// Stack of open span names on this thread; defines the path prefix.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct Registry {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<Vec<f64>>>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct SpanStat {
    count: u64,
    total: Duration,
    max: Duration,
}

/// Turns trace collection on or off. Turning it off does not clear data
/// already collected; call [`reset`] for that.
pub fn set_enabled(on: bool) {
    set_flag(FLAG_TRACE, on);
}

/// Whether trace collection is currently on.
pub fn is_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_TRACE != 0
}

/// Turns bounded-memory live telemetry (counters, gauges, histograms,
/// events) on or off, without enabling the unbounded span/series
/// recording that trace mode adds.
pub fn set_live(on: bool) {
    set_flag(FLAG_LIVE, on);
}

/// Whether live telemetry is currently on.
pub fn is_live() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_LIVE != 0
}

/// Whether *any* collection is on — the gate for the bounded-memory
/// instruments (counters, gauges, histograms, events).
pub fn is_active() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

fn set_flag(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Clears all collected spans, counters, gauges, series, histograms and
/// flight-recorder events.
pub fn reset() {
    let mut reg = REGISTRY.lock().unwrap();
    reg.spans.clear();
    reg.counters.clear();
    reg.gauges.clear();
    reg.series.clear();
    drop(reg);
    hist::reset_all();
    events::reset();
}

/// Opens a wall-clock span. The returned guard records the elapsed time
/// into the registry when dropped, keyed by the `/`-joined path of spans
/// open on this thread (`"pipeline/solve/cg"`). When tracing is disabled
/// this is a no-op costing one atomic load.
pub fn span(name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            path: None,
            start: None,
        };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            let mut p = stack.join("/");
            p.push('/');
            p.push_str(name);
            p
        };
        stack.push(name.to_string());
        path
    });
    SpanGuard {
        path: Some(path),
        start: Some(Instant::now()),
    }
}

/// RAII guard returned by [`span`]. Dropping it closes the span.
#[must_use = "a span measures until dropped; binding it to _ closes it immediately"]
pub struct SpanGuard {
    path: Option<String>,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(path), Some(start)) = (self.path.take(), self.start) else {
            return;
        };
        let elapsed = start.elapsed();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut reg = REGISTRY.lock().unwrap();
        let stat = reg.spans.entry(path).or_default();
        stat.count += 1;
        stat.total += elapsed;
        stat.max = stat.max.max(elapsed);
    }
}

/// Adds `delta` to the named monotonic counter. No-op when neither trace
/// nor live collection is on.
pub fn counter_add(name: &str, delta: u64) {
    if !is_active() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    *reg.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Sets the named gauge to its latest value (last write wins). No-op when
/// neither trace nor live collection is on.
pub fn gauge_set(name: &str, value: f64) {
    if !is_active() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    reg.gauges.insert(name.to_string(), value);
}

/// Records one numeric series (e.g. a residual history) under `name`.
/// Repeated calls with the same name append separate series, preserving
/// per-solve structure. Series grow without bound, so they are gated on
/// trace mode only — live mode does not record them.
pub fn record_series(name: &str, values: &[f64]) {
    if !is_enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    reg.series
        .entry(name.to_string())
        .or_default()
        .push(values.to_vec());
}

/// Collects one numeric series (typically a residual history) and records
/// it on drop, together with an iteration counter. When tracing is
/// disabled at construction the pushes are no-ops and nothing is
/// recorded, so hot solver loops can push unconditionally. Drop-based
/// recording means every exit path of a solver — convergence, breakdown,
/// budget exhaustion — still lands in the trace.
pub struct SeriesRecorder {
    series_name: &'static str,
    counter_name: &'static str,
    values: Option<Vec<f64>>,
}

impl SeriesRecorder {
    /// A recorder writing the series under `series_name` and adding the
    /// series length to `counter_name` when dropped.
    pub fn new(series_name: &'static str, counter_name: &'static str) -> Self {
        SeriesRecorder {
            series_name,
            counter_name,
            values: is_enabled().then(Vec::new),
        }
    }

    /// Appends one value (no-op when tracing was disabled at creation).
    pub fn push(&mut self, v: f64) {
        if let Some(values) = self.values.as_mut() {
            values.push(v);
        }
    }
}

impl Drop for SeriesRecorder {
    fn drop(&mut self) {
        if let Some(values) = self.values.take() {
            counter_add(self.counter_name, values.len() as u64);
            record_series(self.series_name, &values);
        }
    }
}

/// Aggregated timing of one span path.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// `/`-joined nesting path.
    pub path: String,
    /// How many times the span closed.
    pub count: u64,
    /// Sum of elapsed wall-clock across closings.
    pub total: Duration,
    /// Longest single closing.
    pub max: Duration,
}

/// A point-in-time copy of everything collected so far.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Span timings sorted by path.
    pub spans: Vec<SpanRecord>,
    /// Counters sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Series sorted by name; each recording is kept separate.
    pub series: Vec<(String, Vec<Vec<f64>>)>,
    /// Histogram snapshots sorted by name.
    pub hists: Vec<(String, hist::HistSnapshot)>,
}

impl Default for SpanRecord {
    fn default() -> Self {
        SpanRecord {
            path: String::new(),
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        }
    }
}

/// Copies the current registry contents, including histogram state.
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap();
    let snap = Snapshot {
        spans: reg
            .spans
            .iter()
            .map(|(path, s)| SpanRecord {
                path: path.clone(),
                count: s.count,
                total: s.total,
                max: s.max,
            })
            .collect(),
        counters: reg.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        gauges: reg.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        series: reg
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        hists: Vec::new(),
    };
    drop(reg);
    let mut snap = snap;
    snap.hists = hist::snapshot_all();
    snap
}

impl Snapshot {
    /// Looks up a span record by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn hist(&self, name: &str) -> Option<&hist::HistSnapshot> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Looks up all recordings of a series by name.
    pub fn series(&self, name: &str) -> Option<&[Vec<f64>]> {
        self.series
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Serializes the snapshot to a compact JSON document:
    ///
    /// ```json
    /// {
    ///   "spans": [{"path": "...", "count": n, "total_ms": x, "max_ms": y}],
    ///   "counters": {"name": n},
    ///   "series": {"name": [[...], [...]]}
    /// }
    /// ```
    ///
    /// Gauges and histograms are deliberately *not* part of the trace
    /// document — their bucket layout varies run to run with timing, and
    /// the trace format is pinned by golden tests. They are exported by
    /// [`Snapshot::to_json_full`] (the `/snapshot` endpoint) instead.
    pub fn to_json(&self) -> String {
        self.to_json_with_meta(&[])
    }

    /// Like [`Snapshot::to_json`], with string metadata fields (schema,
    /// version, config hash, …) emitted first so artifacts from different
    /// builds are distinguishable.
    pub fn to_json_with_meta(&self, meta: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let mut root = json::Object::begin(&mut out);
        for (k, v) in meta {
            root.field_str(k, v);
        }
        self.write_core(&mut root);
        root.end();
        out
    }

    /// Serializes everything — the trace sections plus gauges and
    /// histograms — for the live `/snapshot` endpoint.
    pub fn to_json_full(&self, meta: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let mut root = json::Object::begin(&mut out);
        for (k, v) in meta {
            root.field_str(k, v);
        }
        self.write_core(&mut root);

        let mut gauges = String::new();
        {
            let mut obj = json::Object::begin(&mut gauges);
            for (k, v) in &self.gauges {
                obj.field_f64(k, *v);
            }
            obj.end();
        }
        root.field_raw("gauges", &gauges);

        let mut hists = String::new();
        {
            let mut obj = json::Object::begin(&mut hists);
            for (k, h) in &self.hists {
                obj.field_raw(k, &h.to_json());
            }
            obj.end();
        }
        root.field_raw("histograms", &hists);

        root.end();
        out
    }

    /// Writes the pinned trace sections (spans, counters, series) in their
    /// golden-test order into an open root object.
    fn write_core(&self, root: &mut json::Object<'_>) {
        let mut spans = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            let mut obj = json::Object::begin(&mut spans);
            obj.field_str("path", &s.path);
            obj.field_u64("count", s.count);
            obj.field_f64("total_ms", s.total.as_secs_f64() * 1e3);
            obj.field_f64("max_ms", s.max.as_secs_f64() * 1e3);
            obj.end();
        }
        spans.push(']');
        root.field_raw("spans", &spans);

        let mut counters = String::new();
        {
            let mut obj = json::Object::begin(&mut counters);
            for (k, v) in &self.counters {
                obj.field_u64(k, *v);
            }
            obj.end();
        }
        root.field_raw("counters", &counters);

        let mut series = String::new();
        {
            let mut obj = json::Object::begin(&mut series);
            for (k, recordings) in &self.series {
                let mut arr = String::from("[");
                for (i, rec) in recordings.iter().enumerate() {
                    if i > 0 {
                        arr.push(',');
                    }
                    json::number_array(&mut arr, rec);
                }
                arr.push(']');
                obj.field_raw(k, &arr);
            }
            obj.end();
        }
        root.field_raw("series", &series);
    }
}

/// The registry is process-global, so tests that flip the collection
/// flags must not interleave; they serialize on this lock. Shared across
/// the crate's unit-test modules (`hist`, `events`, `serve` tests flip the
/// same flags).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::OnceLock;
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = test_guard();
        set_enabled(false);
        set_live(false);
        reset();
        {
            let _s = span("never");
            counter_add("never", 3);
            gauge_set("never.g", 1.0);
            record_series("never", &[1.0]);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.series.is_empty());
    }

    #[test]
    fn live_mode_records_bounded_instruments_only() {
        let _g = test_guard();
        set_enabled(false);
        set_live(true);
        reset();
        {
            let _s = span("ignored");
            counter_add("live.count", 2);
            gauge_set("live.gauge", 4.5);
            record_series("ignored", &[1.0]);
        }
        set_live(false);
        let snap = snapshot();
        assert!(snap.spans.is_empty(), "live mode must not record spans");
        assert!(snap.series.is_empty(), "live mode must not record series");
        assert_eq!(snap.counter("live.count"), Some(2));
        assert_eq!(snap.gauge("live.gauge"), Some(4.5));
    }

    #[test]
    fn spans_nest_into_paths() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        let inner = snap.span("outer/inner").unwrap();
        assert_eq!(inner.count, 2);
        assert!(inner.total >= inner.max);
        assert!(
            snap.span("inner").is_none(),
            "nested span must not appear as a root path"
        );
    }

    #[test]
    fn counters_and_series_accumulate() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        counter_add("iters", 5);
        counter_add("iters", 2);
        record_series("residuals", &[1.0, 0.5]);
        record_series("residuals", &[2.0]);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("iters"), Some(7));
        assert_eq!(
            snap.series("residuals").unwrap(),
            &[vec![1.0, 0.5], vec![2.0]]
        );
    }

    #[test]
    fn spans_from_many_threads_aggregate() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let _s = span("worker");
                        counter_add("ticks", 1);
                    }
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.span("worker").unwrap().count, 32);
        assert_eq!(snap.counter("ticks"), Some(32));
    }

    #[test]
    fn snapshot_serializes_to_wellformed_json() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _s = span("stage");
        }
        counter_add("n", 1);
        record_series("r", &[1.0, f64::NAN]);
        set_enabled(false);
        let json = snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"spans\":["));
        assert!(json.contains("\"path\":\"stage\""));
        assert!(json.contains("\"counters\":{\"n\":1}"));
        assert!(json.contains("\"series\":{\"r\":[[1.0,null]]}"));
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn meta_fields_lead_the_document() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        counter_add("n", 1);
        set_enabled(false);
        let json = snapshot()
            .to_json_with_meta(&[("schema", "parma-trace/v1"), ("config_hash", "abc123")]);
        assert!(
            json.starts_with(
                "{\"schema\":\"parma-trace/v1\",\"config_hash\":\"abc123\",\"spans\":["
            ),
            "{json}"
        );
    }

    #[test]
    fn full_json_includes_gauges_and_histograms() {
        let _g = test_guard();
        set_live(true);
        reset();
        gauge_set("pool.threads", 4.0);
        hist::record("lib.test.full_json", 2.0);
        set_live(false);
        let json = snapshot().to_json_full(&[("schema", "parma-snapshot/v1")]);
        assert!(json.contains("\"gauges\":{\"pool.threads\":4.0}"), "{json}");
        assert!(
            json.contains("\"lib.test.full_json\":{\"count\":1,"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn series_recorder_records_on_drop() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let mut rec = SeriesRecorder::new("rec.residuals", "rec.iterations");
            rec.push(1.0);
            rec.push(0.5);
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.series("rec.residuals").unwrap(), &[vec![1.0, 0.5]]);
        assert_eq!(snap.counter("rec.iterations"), Some(2));
    }

    #[test]
    fn series_recorder_disabled_is_inert() {
        let _g = test_guard();
        set_enabled(false);
        set_live(false);
        reset();
        {
            let mut rec = SeriesRecorder::new("rec.residuals", "rec.iterations");
            rec.push(1.0);
        }
        assert!(snapshot().series.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let _g = test_guard();
        set_enabled(true);
        counter_add("x", 1);
        gauge_set("g", 2.0);
        reset();
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("x"), None);
        assert_eq!(snap.gauge("g"), None);
    }
}
