//! Bounded lock-free flight recorder of structured events.
//!
//! A fixed-capacity ring of `Copy` event records, written with a seqlock
//! protocol: a writer claims a ticket with one `fetch_add`, marks the slot
//! odd while writing, and even (ticket-stamped) when done. Readers accept
//! a slot only when its sequence matches the ticket they expect before
//! *and* after copying the payload, so a torn read is impossible — at
//! worst a slot overwritten mid-scan is skipped. The recorder is lossy by
//! design: under wraparound the oldest events vanish, which is exactly
//! the "last N events before the failure" semantics a flight recorder
//! wants.
//!
//! Events carry the item index being worked on. Call sites deep in the
//! solver do not know their item, so the batch layer pins it to the
//! worker thread with [`item_scope`] and [`emit`] picks it up implicitly.

use std::cell::{Cell, UnsafeCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Schema tag stamped on every JSONL event line.
pub const EVENTS_SCHEMA: &str = "parma-events/v1";

/// Ring capacity (events). Power of two so the slot index is a mask.
pub const RING_CAPACITY: usize = 1024;

/// Sentinel for "no item associated with this event".
pub const NO_ITEM: u64 = u64::MAX;

/// Bit position of the scope-key namespace tag. Scope keys are bare
/// `u64`s; the low 48 bits carry the index and the bits above carry a
/// namespace so identifiers from different number spaces can never
/// collide (local batch item 5 vs. dist ticket 5 vs. worker 5). 48 was
/// chosen so every namespaced key is still exactly representable as an
/// f64 / JSON number (|key| < 2^53). Namespace 0 is local batch items,
/// which keeps plain small indices — and all pre-existing callers —
/// byte-identical in the JSONL output.
pub const SCOPE_NS_SHIFT: u32 = 48;

/// Mask of the index bits below the namespace tag.
pub const SCOPE_INDEX_MASK: u64 = (1 << SCOPE_NS_SHIFT) - 1;

/// Namespace tag for distributed job tickets.
pub const NS_DIST_JOB: u64 = 1 << SCOPE_NS_SHIFT;

/// Namespace tag for distributed worker ids.
pub const NS_DIST_WORKER: u64 = 2 << SCOPE_NS_SHIFT;

/// The scope key for dist ticket `ticket` — disjoint from every local
/// batch item index, so a coordinator running in-process fallback solves
/// and remote dispatches at once keeps their flight-recorder trails
/// separate in [`recent_events_for_item`].
pub fn job_key(ticket: u64) -> u64 {
    NS_DIST_JOB | (ticket & SCOPE_INDEX_MASK)
}

/// The scope key for dist worker `id` (join/death/duplicate events).
pub fn worker_key(id: u64) -> u64 {
    NS_DIST_WORKER | (id & SCOPE_INDEX_MASK)
}

/// What happened. Labels are the wire names in `parma-events/v1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A supervised solve attempt began.
    SolveStart,
    /// A solve finished successfully (`value` = exit residual).
    SolveOk,
    /// A solve attempt failed (`info` = attempt index).
    SolveFailed,
    /// The in-solver recovery ladder fired (`info` = rung index).
    Recovery,
    /// The supervisor scheduled a retry (`info` = next attempt index).
    Retry,
    /// The supervisor is backing off between rounds (`value` = ms).
    Backoff,
    /// An item was quarantined after exhausting retries.
    Quarantine,
    /// A pool worker stole a chunk from a peer (`item` = thief index).
    Steal,
    /// A worker caught a panic.
    Panic,
    /// The coordinator dispatched a shard (`item` = ticket, `info` =
    /// worker id).
    DistDispatch,
    /// A dead worker's shard was requeued (`item` = ticket, `info` = the
    /// dead worker, `value` = dispatches so far).
    DistReassign,
    /// A worker registered with the coordinator (`item` = worker id).
    DistWorkerJoin,
    /// A worker missed its heartbeat deadline or dropped the connection
    /// (`item` = worker id).
    DistWorkerDead,
    /// A late result arrived for an already-decided shard and was
    /// discarded (`item` = ticket, `info` = worker id).
    DistDuplicate,
    /// A worker adopted the trace context a dispatch carried (`item` =
    /// job key, `info` = span id, `value` = trace id).
    DistTraceAdopt,
    /// A worker dropped one telemetry heartbeat because the writer was
    /// busy — dropped, never blocking (`info` = drops so far).
    DistTelemetryDrop,
}

impl EventKind {
    /// Stable wire name.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SolveStart => "solve_start",
            EventKind::SolveOk => "solve_ok",
            EventKind::SolveFailed => "solve_failed",
            EventKind::Recovery => "recovery",
            EventKind::Retry => "retry",
            EventKind::Backoff => "backoff",
            EventKind::Quarantine => "quarantine",
            EventKind::Steal => "steal",
            EventKind::Panic => "panic",
            EventKind::DistDispatch => "dist_dispatch",
            EventKind::DistReassign => "dist_reassign",
            EventKind::DistWorkerJoin => "dist_worker_join",
            EventKind::DistWorkerDead => "dist_worker_dead",
            EventKind::DistDuplicate => "dist_duplicate",
            EventKind::DistTraceAdopt => "dist_trace_adopt",
            EventKind::DistTelemetryDrop => "dist_telemetry_drop",
        }
    }

    /// Stable wire code — the byte the dist telemetry codec ships event
    /// tails under. Codes are append-only: a retired kind's code is never
    /// reused.
    pub fn code(self) -> u8 {
        match self {
            EventKind::SolveStart => 1,
            EventKind::SolveOk => 2,
            EventKind::SolveFailed => 3,
            EventKind::Recovery => 4,
            EventKind::Retry => 5,
            EventKind::Backoff => 6,
            EventKind::Quarantine => 7,
            EventKind::Steal => 8,
            EventKind::Panic => 9,
            // 10 and 11 (ingest events of a deleted loader) are retired.
            EventKind::DistDispatch => 12,
            EventKind::DistReassign => 13,
            EventKind::DistWorkerJoin => 14,
            EventKind::DistWorkerDead => 15,
            EventKind::DistDuplicate => 16,
            EventKind::DistTraceAdopt => 17,
            EventKind::DistTelemetryDrop => 18,
        }
    }

    /// The kind for a wire code, or `None` for an unknown value.
    pub fn from_code(b: u8) -> Option<EventKind> {
        Some(match b {
            1 => EventKind::SolveStart,
            2 => EventKind::SolveOk,
            3 => EventKind::SolveFailed,
            4 => EventKind::Recovery,
            5 => EventKind::Retry,
            6 => EventKind::Backoff,
            7 => EventKind::Quarantine,
            8 => EventKind::Steal,
            9 => EventKind::Panic,
            12 => EventKind::DistDispatch,
            13 => EventKind::DistReassign,
            14 => EventKind::DistWorkerJoin,
            15 => EventKind::DistWorkerDead,
            16 => EventKind::DistDuplicate,
            17 => EventKind::DistTraceAdopt,
            18 => EventKind::DistTelemetryDrop,
            _ => return None,
        })
    }
}

/// One flight-recorder record. `Copy` so ring slots can be overwritten
/// without drops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (ticket order).
    pub seq: u64,
    /// Microseconds since the process's first event-clock use.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Item index, or [`NO_ITEM`].
    pub item: u64,
    /// Kind-specific small integer (attempt, rung, worker…).
    pub info: u64,
    /// Kind-specific measurement (residual, milliseconds…).
    pub value: f64,
}

const EMPTY_EVENT: Event = Event {
    seq: 0,
    t_us: 0,
    kind: EventKind::SolveStart,
    item: NO_ITEM,
    info: 0,
    value: 0.0,
};

struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<Event>,
}

struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

// The seqlock protocol guards `data`: readers validate `seq` around the
// copy and writers publish with Release stores.
unsafe impl Sync for Ring {}

static RING: OnceLock<Ring> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring {
        head: AtomicU64::new(0),
        slots: (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(EMPTY_EVENT),
            })
            .collect(),
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds on this process's monotonic event clock — the same clock
/// every [`Event::t_us`] is stamped with. Clock-offset probes and solve
/// timestamps on the dist wire use this, so a worker's shipped events and
/// its offset estimate refer to one clock.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    static CURRENT_ITEM: Cell<u64> = const { Cell::new(NO_ITEM) };
}

/// Pins `item` as this thread's current item until the guard drops
/// (restoring the previous value, so scopes nest).
pub fn item_scope(item: u64) -> ItemScope {
    let prev = CURRENT_ITEM.with(|c| c.replace(item));
    ItemScope { prev }
}

/// Guard returned by [`item_scope`].
pub struct ItemScope {
    prev: u64,
}

impl Drop for ItemScope {
    fn drop(&mut self) {
        CURRENT_ITEM.with(|c| c.set(self.prev));
    }
}

/// Records an event tagged with the thread's current item scope. No-op
/// (one atomic load) when collection is off.
pub fn emit(kind: EventKind, info: u64, value: f64) {
    if !crate::is_active() {
        return;
    }
    let item = CURRENT_ITEM.with(|c| c.get());
    write_event(kind, item, info, value);
}

/// Records an event for an explicitly named item.
pub fn emit_for(kind: EventKind, item: u64, info: u64, value: f64) {
    if !crate::is_active() {
        return;
    }
    write_event(kind, item, info, value);
}

fn write_event(kind: EventKind, item: u64, info: u64, value: f64) {
    let t_us = epoch().elapsed().as_micros() as u64;
    let ring = ring();
    let ticket = ring.head.fetch_add(1, Ordering::Relaxed);
    let slot = &ring.slots[(ticket % RING_CAPACITY as u64) as usize];
    // Odd = writing; readers skip. Ticket-stamped even = published.
    slot.seq.store(2 * ticket + 1, Ordering::Release);
    unsafe {
        *slot.data.get() = Event {
            seq: ticket,
            t_us,
            kind,
            item,
            info,
            value,
        };
    }
    slot.seq.store(2 * ticket + 2, Ordering::Release);
}

/// Copies the ring's currently valid events in sequence order (oldest
/// first). Slots being overwritten during the scan are skipped.
pub fn events_snapshot() -> Vec<Event> {
    let Some(ring) = RING.get() else {
        return Vec::new();
    };
    let head = ring.head.load(Ordering::Acquire);
    let start = head.saturating_sub(RING_CAPACITY as u64);
    let mut out = Vec::new();
    for ticket in start..head {
        let slot = &ring.slots[(ticket % RING_CAPACITY as u64) as usize];
        let before = slot.seq.load(Ordering::Acquire);
        if before != 2 * ticket + 2 {
            continue;
        }
        let ev = unsafe { *slot.data.get() };
        if slot.seq.load(Ordering::Acquire) == before {
            out.push(ev);
        }
    }
    out
}

/// The last `n` events, oldest first.
pub fn recent_events(n: usize) -> Vec<Event> {
    let mut all = events_snapshot();
    if all.len() > n {
        all.drain(..all.len() - n);
    }
    all
}

/// The last `n` events touching `item` (or carrying no item), oldest
/// first — the deterministic context to embed in an item's failure
/// report, independent of what other workers were doing.
pub fn recent_events_for_item(item: u64, n: usize) -> Vec<Event> {
    let mut all: Vec<Event> = events_snapshot()
        .into_iter()
        .filter(|e| e.item == item)
        .collect();
    if all.len() > n {
        all.drain(..all.len() - n);
    }
    all
}

/// Serializes one event as a JSON object body (no schema field) for
/// embedding inside other documents.
pub fn event_json_body(e: &Event) -> String {
    let mut out = String::new();
    let mut obj = crate::json::Object::begin(&mut out);
    obj.field_u64("seq", e.seq);
    obj.field_u64("t_us", e.t_us);
    obj.field_str("kind", e.kind.label());
    if e.item == NO_ITEM {
        obj.field_raw("item", "null");
    } else {
        obj.field_u64("item", e.item);
    }
    obj.field_u64("info", e.info);
    obj.field_f64("value", e.value);
    obj.end();
    out
}

/// Serializes events as `parma-events/v1` JSONL — one schema-stamped
/// object per line, trailing newline included when non-empty.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let mut obj = crate::json::Object::begin(&mut out);
        obj.field_str("schema", EVENTS_SCHEMA);
        obj.field_u64("seq", e.seq);
        obj.field_u64("t_us", e.t_us);
        obj.field_str("kind", e.kind.label());
        if e.item == NO_ITEM {
            obj.field_raw("item", "null");
        } else {
            obj.field_u64("item", e.item);
        }
        obj.field_u64("info", e.info);
        obj.field_f64("value", e.value);
        obj.end();
        let _ = writeln!(out);
    }
    out
}

/// Serializes events as a JSON array of object bodies (for embedding a
/// `"events": [...]` field in failure reports).
pub fn events_json_array(events: &[Event]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_json_body(e));
    }
    out.push(']');
    out
}

/// Empties the ring. Called by [`crate::reset`].
pub(crate) fn reset() {
    let Some(ring) = RING.get() else {
        return;
    };
    // Invalidate every slot first so readers racing the head reset can
    // never observe a stale payload as fresh.
    for slot in ring.slots.iter() {
        slot.seq.store(u64::MAX, Ordering::Release);
    }
    ring.head.store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_newest_capacity_events() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        for i in 0..(RING_CAPACITY as u64 + 50) {
            emit_for(EventKind::Retry, i, i, 0.0);
        }
        let events = events_snapshot();
        crate::set_live(false);
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events.first().unwrap().seq, 50);
        assert_eq!(events.last().unwrap().seq, RING_CAPACITY as u64 + 49);
        // Oldest-first ordering.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn disabled_emits_are_dropped() {
        let _g = crate::test_guard();
        crate::set_live(false);
        crate::set_enabled(false);
        crate::reset();
        emit(EventKind::Quarantine, 0, 0.0);
        assert!(events_snapshot().is_empty());
    }

    #[test]
    fn item_scope_tags_and_restores() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        {
            let _outer = item_scope(7);
            emit(EventKind::SolveStart, 0, 0.0);
            {
                let _inner = item_scope(9);
                emit(EventKind::Recovery, 1, 0.0);
            }
            emit(EventKind::SolveOk, 0, 1e-12);
        }
        emit(EventKind::Steal, 2, 0.0);
        let events = events_snapshot();
        crate::set_live(false);
        let items: Vec<u64> = events.iter().map(|e| e.item).collect();
        assert_eq!(items, vec![7, 9, 7, NO_ITEM]);
        let per_item = recent_events_for_item(7, 8);
        assert_eq!(per_item.len(), 2);
        assert_eq!(per_item[0].kind, EventKind::SolveStart);
        assert_eq!(per_item[1].kind, EventKind::SolveOk);
    }

    #[test]
    fn namespaced_scope_keys_never_collide_across_number_spaces() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        // Local batch item 5, dist ticket 5 and dist worker 5 all share
        // the bare index — the regression this guards against is their
        // flight-recorder trails bleeding into each other.
        {
            let _local = item_scope(5);
            emit(EventKind::SolveStart, 0, 0.0);
        }
        emit_for(EventKind::DistDispatch, job_key(5), 1, 0.0);
        emit_for(EventKind::DistWorkerJoin, worker_key(5), 0, 0.0);
        let events = events_snapshot();
        crate::set_live(false);

        assert_eq!(events.len(), 3);
        let keys: std::collections::BTreeSet<u64> = events.iter().map(|e| e.item).collect();
        assert_eq!(keys.len(), 3, "the three number spaces must be disjoint");
        let local = recent_events_for_item(5, 8);
        assert_eq!(local.len(), 1, "dist events leaked into item 5's trail");
        assert_eq!(local[0].kind, EventKind::SolveStart);
        let job = recent_events_for_item(job_key(5), 8);
        assert_eq!(job.len(), 1);
        assert_eq!(job[0].kind, EventKind::DistDispatch);
        // Every namespaced key must survive an f64 round trip exactly —
        // event values and JSON numbers are f64.
        for key in [job_key(5), worker_key(5), job_key(SCOPE_INDEX_MASK)] {
            assert_eq!(key as f64 as u64, key, "key {key:#x} not f64-exact");
        }
        assert_ne!(job_key(5), worker_key(5));
        assert_ne!(job_key(NO_ITEM), NO_ITEM, "job keys must not alias NO_ITEM");
    }

    #[test]
    fn event_kind_wire_codes_round_trip() {
        for code in 0..=u8::MAX {
            if let Some(kind) = EventKind::from_code(code) {
                assert_eq!(kind.code(), code);
            }
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(
            EventKind::from_code(EventKind::DistTelemetryDrop.code()),
            Some(EventKind::DistTelemetryDrop)
        );
    }

    #[test]
    fn jsonl_lines_are_schema_stamped() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        emit_for(EventKind::Backoff, 3, 1, 250.0);
        let events = events_snapshot();
        crate::set_live(false);
        let jsonl = events_to_jsonl(&events);
        let line = jsonl.lines().next().unwrap();
        assert!(
            line.starts_with("{\"schema\":\"parma-events/v1\",\"seq\":0,\"t_us\":"),
            "{line}"
        );
        assert!(
            line.ends_with("\"kind\":\"backoff\",\"item\":3,\"info\":1,\"value\":250.0}"),
            "{line}"
        );
        let arr = events_json_array(&events);
        assert!(arr.starts_with("[{\"seq\":0,"), "{arr}");
        assert!(arr.ends_with("}]"), "{arr}");
    }

    #[test]
    fn concurrent_writers_never_tear_reads() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..2000 {
                        emit_for(EventKind::Steal, t, i, t as f64);
                    }
                });
            }
            for _ in 0..20 {
                let events = events_snapshot();
                for e in &events {
                    // A torn read would mix fields from different writers.
                    assert_eq!(e.value, e.item as f64, "torn event: {e:?}");
                }
            }
        });
        crate::set_live(false);
        let events = events_snapshot();
        assert_eq!(events.len(), RING_CAPACITY);
    }
}
