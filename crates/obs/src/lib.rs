//! Zero-dependency observability for the Parma pipeline.
//!
//! The paper's evaluation hinges on *where time goes*: equation formation
//! vs. solving, per-worker busy time, iteration counts of the inner
//! solvers. This crate provides the one shared instrument panel:
//!
//! * [`hist`] — lock-free log-linear histograms for latency/iteration
//!   distributions with p50/p90/p99 extraction. Every timed stage is one
//!   `static` [`hist::Hist`] whose name ends in `_ms`, timed by the drop
//!   guard [`hist::Hist::time`] (`parma.sweep_ms`,
//!   `model.forward.refactor_ms`, `parma.detect_ms`, …),
//! * [`counter_add`] — monotonic counters (solver iterations, retries,
//!   steals),
//! * [`gauge_set`] — last-value gauges (pool geometry, worker busy time),
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
//!   JSON for the CLI's `--trace <path>` flag and the bench harness. The
//!   trace's `spans` are the stage histograms: path `parma/sweep` is the
//!   histogram `parma.sweep_ms`.
//!
//! Collection is **off by default** and the disabled fast path is a single
//! relaxed atomic load — no allocation, no locking — so instrumented hot
//! loops cost nothing in normal runs. Two independent gates share that
//! load, and both turn on the same bounded instruments:
//!
//! * **trace** ([`set_enabled`]) — one-shot runs that end in a trace dump
//!   (`--trace`),
//! * **live** ([`set_live`]) — long-running processes scraped while they
//!   run (`--metrics-addr`, `parma serve`, `parma worker`).
//!
//! Every instrument is bounded — a histogram is a fixed set of buckets, a
//! counter or gauge one registry entry per name — so either mode is safe
//! to leave on for hours. Stage timers and events never take a lock;
//! counters and gauges take the registry mutex once per call and allocate
//! only on a name's first use.

pub mod context;
pub mod events;
pub mod expo;
pub mod fleet;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod serve;
pub mod timeline;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Bit for trace mode (a run that ends in a trace dump).
const FLAG_TRACE: u8 = 1 << 0;
/// Bit for live mode (a process scraped while it runs).
const FLAG_LIVE: u8 = 1 << 1;

static FLAGS: AtomicU8 = AtomicU8::new(0);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }
}

/// Turns trace collection on or off. Turning it off does not clear data
/// already collected; call [`reset`] for that.
pub fn set_enabled(on: bool) {
    set_flag(FLAG_TRACE, on);
}

/// Turns live telemetry (counters, gauges, histograms, events) on or off,
/// independently of trace mode.
pub fn set_live(on: bool) {
    set_flag(FLAG_LIVE, on);
}

/// Whether live telemetry is currently on.
pub fn is_live() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_LIVE != 0
}

/// Whether *any* collection is on — the gate for every instrument.
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

/// Clears all collected counters, gauges, histograms and flight-recorder
/// events.
pub fn reset() {
    let mut reg = REGISTRY.lock().unwrap();
    reg.counters.clear();
    reg.gauges.clear();
    drop(reg);
    hist::reset_all();
    events::reset();
}

/// Adds `delta` to the named monotonic counter. No-op when neither trace
/// nor live collection is on; allocates only the first time a name is
/// used.
pub fn counter_add(name: &str, delta: u64) {
    if !is_active() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    match reg.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            reg.counters.insert(name.to_string(), delta);
        }
    }
}

/// Sets the named gauge to its latest value (last write wins). No-op when
/// neither trace nor live collection is on; allocates only the first time
/// a name is used.
pub fn gauge_set(name: &str, value: f64) {
    if !is_active() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    match reg.gauges.get_mut(name) {
        Some(v) => *v = value,
        None => {
            reg.gauges.insert(name.to_string(), value);
        }
    }
}

/// A point-in-time copy of everything collected so far.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counters sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots sorted by name.
    pub hists: Vec<(String, hist::HistSnapshot)>,
}

/// Copies the current registry contents, including histogram state.
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap();
    let counters = reg.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let gauges = reg.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect();
    drop(reg);
    Snapshot {
        counters,
        gauges,
        hists: hist::snapshot_all(),
    }
}

impl Snapshot {
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

    /// Serializes the snapshot to a compact JSON document:
    ///
    /// ```json
    /// {
    ///   "spans": [{"path": "parma/sweep", "count": n, "total_ms": x, "max_ms": y}],
    ///   "counters": {"name": n}
    /// }
    /// ```
    ///
    /// Each span is one stage histogram — a name ending in `_ms` — whose
    /// path is the name without `_ms`, dots as slashes, with the
    /// histogram's count, sum and max. Gauges and bucket layouts are
    /// deliberately *not* part of the trace document — they vary run to
    /// run with timing, and the trace format is pinned by golden tests.
    /// They are exported by [`Snapshot::to_json_full`] (the `/snapshot`
    /// endpoint) instead.
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

    /// Writes the pinned trace sections (spans, counters) in their
    /// golden-test order into an open root object.
    fn write_core(&self, root: &mut json::Object<'_>) {
        let mut spans = String::from("[");
        let stages = self
            .hists
            .iter()
            .filter_map(|(name, h)| Some((name.strip_suffix("_ms")?, h)));
        for (i, (stage, h)) in stages.enumerate() {
            if i > 0 {
                spans.push(',');
            }
            let mut obj = json::Object::begin(&mut spans);
            obj.field_str("path", &stage.replace('.', "/"));
            obj.field_u64("count", h.count);
            obj.field_f64("total_ms", h.sum);
            obj.field_f64("max_ms", h.max);
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
    use crate::hist::Hist;

    #[test]
    fn disabled_mode_records_nothing() {
        static STAGE: Hist = Hist::new("lib.test.never_ms");
        let _g = test_guard();
        set_enabled(false);
        set_live(false);
        reset();
        {
            let _t = STAGE.time();
            counter_add("never", 3);
            gauge_set("never.g", 1.0);
        }
        let snap = snapshot();
        assert!(snap.hist("lib.test.never_ms").is_none());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn live_mode_records_bounded_instruments_only() {
        static STAGE: Hist = Hist::new("lib.test.live_ms");
        let _g = test_guard();
        set_enabled(false);
        set_live(true);
        reset();
        {
            let _t = STAGE.time();
            counter_add("live.count", 2);
            gauge_set("live.gauge", 4.5);
        }
        set_live(false);
        let snap = snapshot();
        assert_eq!(snap.counter("live.count"), Some(2));
        assert_eq!(snap.gauge("live.gauge"), Some(4.5));
        assert_eq!(snap.hist("lib.test.live_ms").map(|h| h.count), Some(1));
    }

    #[test]
    fn spans_nest_into_paths() {
        // A stage's trace path is its histogram name without `_ms`, dots
        // as slashes; a histogram of anything but milliseconds is no
        // stage.
        static OUTER: Hist = Hist::new("lib.outer_ms");
        static INNER: Hist = Hist::new("lib.outer.inner_ms");
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _outer = OUTER.time();
            for _ in 0..2 {
                let _inner = INNER.time();
            }
        }
        hist::histogram("lib.outer.iters").record(3.0);
        set_enabled(false);
        let json = snapshot().to_json();
        assert!(
            json.contains("{\"path\":\"lib/outer\",\"count\":1,"),
            "{json}"
        );
        assert!(
            json.contains("{\"path\":\"lib/outer/inner\",\"count\":2,"),
            "{json}"
        );
        assert!(!json.contains("iters"), "{json}");
    }

    #[test]
    fn counters_accumulate() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        counter_add("iters", 5);
        counter_add("iters", 2);
        set_enabled(false);
        assert_eq!(snapshot().counter("iters"), Some(7));
    }

    #[test]
    fn spans_from_many_threads_aggregate() {
        static WORKER: Hist = Hist::new("lib.test.worker_ms");
        let _g = test_guard();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let _t = WORKER.time();
                        counter_add("ticks", 1);
                    }
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.hist("lib.test.worker_ms").unwrap().count, 32);
        assert_eq!(snap.counter("ticks"), Some(32));
    }

    #[test]
    fn snapshot_serializes_to_wellformed_json() {
        static STAGE: Hist = Hist::new("stage_ms");
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _t = STAGE.time();
        }
        counter_add("n", 1);
        set_enabled(false);
        let json = snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(
            json.starts_with("{\"spans\":[{\"path\":\"stage\",\"count\":1,\"total_ms\":"),
            "{json}"
        );
        assert!(json.ends_with(",\"counters\":{\"n\":1}}"), "{json}");
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
        hist::histogram("lib.test.full_json").record(2.0);
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
    fn stage_timer_records_on_drop() {
        static STAGE: Hist = Hist::new("lib.test.timer_ms");
        let _g = test_guard();
        set_live(true);
        reset();
        {
            let _t = STAGE.time();
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(snapshot().hist("lib.test.timer_ms").is_none());
        }
        set_live(false);
        let snap = snapshot();
        let h = snap.hist("lib.test.timer_ms").expect("recorded on drop");
        assert_eq!(h.count, 1);
        assert!(h.max >= 2.0, "elapsed time is in milliseconds: {}", h.max);
    }

    #[test]
    fn stage_timer_disabled_is_inert() {
        static STAGE: Hist = Hist::new("lib.test.inert_ms");
        let _g = test_guard();
        set_enabled(false);
        set_live(false);
        reset();
        {
            // Started while collection was off: inert even if collection
            // turns on before it drops.
            let _t = STAGE.time();
            set_live(true);
        }
        set_live(false);
        assert!(snapshot().hist("lib.test.inert_ms").is_none());
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
