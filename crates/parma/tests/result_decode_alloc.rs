//! A worker's Result payload declares its own map dimensions, and the
//! coordinator decodes it. A forged declaration must cost no more memory
//! than the bytes that carry it: a 37-byte payload claiming a 4096×4096
//! map is truncated, and finding that out may not reserve the 128 MiB the
//! map would need. Measured with the tracking global allocator, alone in
//! this test binary so no other test's allocations land in the window.

use mea_parallel::dist::{DecodeError, PayloadWriter};
use parma::dist::codec::{decode_time_points, TAG_SOLVE_OK};

#[global_allocator]
static ALLOC: mea_memtrack::TrackingAllocator = mea_memtrack::TrackingAllocator::new();

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

    let base = mea_memtrack::live_bytes();
    mea_memtrack::reset_peak();
    let decoded = decode_time_points(&payload);
    let reserved = mea_memtrack::peak_bytes().saturating_sub(base);
    assert!(matches!(decoded, Err(DecodeError::Truncated)));
    assert!(
        reserved < 1 << 20,
        "decoding a 37-byte payload reserved {reserved} bytes"
    );
}
