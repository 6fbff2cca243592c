//! Trace context: the identifiers that stitch one job's records into a
//! single causal chain across processes.
//!
//! The coordinator mints one `trace_id` per batch and one `span_id` per
//! dispatch attempt; redispatches chain via `parent_span`. The context
//! rides the `parma-wire/v2` `Assign` payload, the worker adopts it for
//! the duration of the handler (thread-local, nesting like
//! [`crate::events::item_scope`]), and every journal provenance line and
//! embedded flight-recorder tail carries it back out — so `parma obs
//! timeline` can follow dispatch → solve → ack for one trace across the
//! coordinator's and every worker's records.
//!
//! Identifiers are 48-bit (nonzero) so they survive every f64 hop in the
//! pipeline — event `value` fields, JSON numbers — exactly. Zero means
//! "no context" on the wire and in storage.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifiers fit in 48 bits: exactly representable as f64/JSON numbers.
pub const ID_MASK: u64 = (1 << 48) - 1;

/// The trace context one dispatch attempt runs under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// The batch-wide trace this job belongs to (0 = none).
    pub trace_id: u64,
    /// This dispatch attempt's span (0 = none).
    pub span_id: u64,
    /// The span of the previous dispatch attempt of the same job
    /// (redispatch lineage), or 0 for a first dispatch.
    pub parent_span: u64,
}

impl TraceContext {
    /// Whether any context is set.
    pub fn is_set(&self) -> bool {
        self.trace_id != 0
    }
}

/// Formats a 48-bit id as 12 lowercase hex digits (zero-padded, so ids
/// sort and grep consistently).
pub fn format_id(id: u64) -> String {
    format!("{:012x}", id & ID_MASK)
}

/// Parses an id previously written by [`format_id`]. Accepts any hex
/// string that fits in 48 bits; rejects empty, oversized and non-hex
/// input.
pub fn parse_id(text: &str) -> Option<u64> {
    if text.is_empty() || text.len() > 12 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Process-global id source. Seeded lazily from wall clock, pid and the
/// address of a stack local, then stepped with a splitmix-style odd
/// multiplier — not cryptographic, just unlikely to collide across the
/// handful of processes in one fleet.
static ID_STATE: AtomicU64 = AtomicU64::new(0);

fn seed() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9e37_79b9_7f4a_7c15);
    let local = 0u8;
    let addr = std::ptr::addr_of!(local) as u64;
    t ^ (u64::from(std::process::id()).rotate_left(32)) ^ addr.rotate_left(17)
}

/// Mints a fresh nonzero 48-bit identifier.
pub fn mint_id() -> u64 {
    loop {
        let cur = ID_STATE.load(Ordering::Relaxed);
        let base = if cur == 0 { seed() } else { cur };
        let next = base
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        if ID_STATE
            .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        // Fold the high bits down so the truncation loses no entropy.
        let id = (next ^ (next >> 48)) & ID_MASK;
        if id != 0 {
            return id;
        }
    }
}

thread_local! {
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext { trace_id: 0, span_id: 0, parent_span: 0 }) };
}

/// Pins `ctx` as this thread's current trace context until the guard
/// drops (restoring the previous value, so scopes nest). Workers wrap
/// each assignment's handler in this.
pub fn context_scope(ctx: TraceContext) -> ContextScope {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextScope { prev }
}

/// Guard returned by [`context_scope`].
pub struct ContextScope {
    prev: TraceContext,
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// The trace context currently pinned on this thread (all-zero when
/// none).
pub fn current() -> TraceContext {
    CURRENT.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_nonzero_distinct_and_f64_exact() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let id = mint_id();
            assert_ne!(id, 0);
            assert_eq!(id & !ID_MASK, 0, "id exceeds 48 bits");
            assert_eq!(id as f64 as u64, id, "id not exact in f64");
            seen.insert(id);
        }
        assert!(
            seen.len() >= 999,
            "minted ids collide far too often: {} distinct of 1000",
            seen.len()
        );
    }

    #[test]
    fn hex_round_trips() {
        for id in [1u64, 0xabc, ID_MASK, mint_id()] {
            let text = format_id(id);
            assert_eq!(text.len(), 12);
            assert_eq!(parse_id(&text), Some(id & ID_MASK));
        }
        assert_eq!(parse_id(""), None);
        assert_eq!(parse_id("1234567890abcd"), None, "more than 48 bits");
        assert_eq!(parse_id("not-hex-here"), None);
    }

    #[test]
    fn context_scopes_nest_and_restore() {
        assert!(!current().is_set());
        let outer = TraceContext {
            trace_id: 7,
            span_id: 8,
            parent_span: 0,
        };
        {
            let _g = context_scope(outer);
            assert_eq!(current(), outer);
            {
                let inner = TraceContext {
                    trace_id: 7,
                    span_id: 9,
                    parent_span: 8,
                };
                let _g2 = context_scope(inner);
                assert_eq!(current(), inner);
            }
            assert_eq!(current(), outer);
        }
        assert!(!current().is_set());
    }
}
