//! A text dataset's header declares its own matrix dimensions. A forged
//! declaration must cost no more memory than the bytes that carry it: a
//! body claiming a 4096×4096 matrix but holding one value is truncated,
//! and finding that out may not reserve the 128 MiB the matrix would need.
//! Measured with the tracking global allocator, alone in this test binary
//! so no other test's allocations land in the window.

use mea_model::{DatasetError, WetLabDataset};

#[global_allocator]
static ALLOC: mea_memtrack::TrackingAllocator = mea_memtrack::TrackingAllocator::new();

#[test]
fn forged_matrix_dimensions_reserve_nothing_before_truncation() {
    let body = b"# parma-dataset v1\nrows 4096\ncols 4096\nmeasurement 0 5\n1.0\n";
    type Reader = fn(&[u8]) -> Result<WetLabDataset, DatasetError>;
    let readers: [(&str, Reader); 3] = [
        ("read_text", |b| WetLabDataset::read_text(b)),
        ("read_text_naive", |b| WetLabDataset::read_text_naive(b)),
        ("from_bytes", WetLabDataset::from_bytes),
    ];
    for (name, read) in readers {
        let base = mea_memtrack::live_bytes();
        mea_memtrack::reset_peak();
        let parsed = read(body);
        let reserved = mea_memtrack::peak_bytes().saturating_sub(base);
        assert!(matches!(parsed, Err(DatasetError::Parse(_))), "{name}");
        assert!(
            reserved < 1 << 20,
            "{name}: parsing a {}-byte body reserved {reserved} bytes",
            body.len()
        );
    }
}
