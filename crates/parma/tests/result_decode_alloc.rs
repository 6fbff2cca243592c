//! A worker's Result payload declares its own map dimensions and record
//! counts, and the coordinator decodes it. A forged declaration must cost
//! no more memory than the bytes that carry it: a 37-byte payload claiming
//! a 4096×4096 map is truncated, and finding that out may not reserve the
//! 128 MiB the map would need; a failure report declaring 1,024 attempts
//! or 4,096 events it does not carry may not reserve room for them either.
//! Measured with the tracking global allocator, alone in this test binary
//! so no other test's allocations land in the window.

use mea_parallel::dist::{DecodeError, PayloadWriter};
use parma::dist::codec::{decode_failure, decode_time_points, TAG_SOLVE_FAILED, TAG_SOLVE_OK};

#[global_allocator]
static ALLOC: mea_memtrack::TrackingAllocator = mea_memtrack::TrackingAllocator::new();

/// Bytes reserved at peak while `decode` runs, and whether it reported
/// truncation.
fn reserved_by<T>(decode: impl FnOnce() -> Result<T, DecodeError>) -> (usize, bool) {
    let base = mea_memtrack::live_bytes();
    mea_memtrack::reset_peak();
    let decoded = decode();
    let reserved = mea_memtrack::peak_bytes().saturating_sub(base);
    (reserved, matches!(decoded, Err(DecodeError::Truncated)))
}

/// A failure blob up to its attempt count: item 0, a panic, no detail.
fn failure_head(attempts: u64) -> PayloadWriter {
    let mut w = PayloadWriter::new();
    w.put_u8(TAG_SOLVE_FAILED);
    w.put_u64(0); // item
    w.put_u8(1); // kind: panic
    w.put_str("");
    w.put_u64(attempts);
    w
}

#[test]
fn forged_map_dimensions_reserve_nothing_before_truncation() {
    let side = 4096u32;
    let mut w = PayloadWriter::new();
    w.put_u8(TAG_SOLVE_OK);
    w.put_u64(1); // one time point
    w.put_u32(0); // hours
    w.put_u32(side);
    w.put_u32(side);
    w.put_u64(u64::from(side) * u64::from(side));
    w.put_f64(1.0); // the only value actually present
    let payload = w.into_bytes();
    assert_eq!(payload.len(), 37);

    let (reserved, truncated) = reserved_by(|| decode_time_points(&payload));
    assert!(truncated);
    assert!(
        reserved < 1 << 20,
        "decoding a 37-byte payload reserved {reserved} bytes"
    );

    // A failure report declaring 1,024 attempts and carrying none.
    let attempts = failure_head(1 << 10).into_bytes();
    // One declaring no attempts and 4,096 events, carrying none.
    let mut w = failure_head(0);
    w.put_u64(1 << 12);
    let events = w.into_bytes();
    for (label, payload) in [("1,024 attempts", attempts), ("4,096 events", events)] {
        let (reserved, truncated) = reserved_by(|| decode_failure(&payload));
        assert!(truncated, "{label}");
        assert!(
            reserved < 4 << 10,
            "decoding a failure blob declaring {label} in {} bytes reserved {reserved} bytes",
            payload.len()
        );
    }
}
