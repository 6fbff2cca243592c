//! Property tests for the `parma-dataset v1` text reader.
//!
//! The text reader is an input edge: dataset files for `parma solve` and
//! `parma batch`, `parma serve` request bodies and `parma worker` task
//! payloads all reach it. Two contracts, over every truncation and every
//! single-byte mutation of a written session, random byte strings, and
//! headers declaring any `rows` and `cols` up to `u64::MAX`:
//!
//! 1. **No input panics.** Each yields `Ok` or a typed [`DatasetError`]:
//!    `Parse`, `NonPhysical`, `NonPhysicalVoltage`, or `Io` for bytes that
//!    are not UTF-8. (That
//!    a forged header reserves nothing is measured with the tracking
//!    allocator in `text_decode_alloc.rs`.)
//! 2. **The buffered reader and the naive reference agree**: on which
//!    inputs are `Ok`, and bit for bit on the `Ok` results.

use mea_model::{CrossingMatrix, DatasetError, MeaGrid, Measurement, WetLabDataset};

/// SplitMix64: cheap, deterministic, well mixed.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The text of a deterministic session: values span many binades of the
/// positive-finite range (2⁻⁶⁰ … 2⁶⁰), so the shortest-round-trip
/// formatting writes plain decimals and exponents alike.
fn session_text(rows: usize, cols: usize, n_meas: usize, seed: u64) -> Vec<u8> {
    let grid = MeaGrid::new(rows, cols);
    let mut x = seed | 1;
    let measurements = (0..n_meas)
        .map(|k| {
            let values = (0..grid.crossings())
                .map(|_| {
                    let bits = splitmix(&mut x);
                    let exp = (bits % 121) as i32 - 60;
                    (1.0 + (bits >> 11) as f64 / (1u64 << 53) as f64) * (exp as f64).exp2()
                })
                .collect();
            Measurement {
                hours: (k as u32) * 6,
                voltage: 1.0 + k as f64 * 0.5,
                z: CrossingMatrix::from_vec(grid, values),
                ground_truth: None,
            }
        })
        .collect();
    let mut text = Vec::new();
    WetLabDataset { grid, measurements }
        .write_text(&mut text)
        .unwrap();
    text
}

/// Whether two parsed sessions are identical bit for bit (voltages may be
/// NaN, which `PartialEq` would call unequal to itself).
fn same_bits(a: &WetLabDataset, b: &WetLabDataset) -> bool {
    a.grid == b.grid
        && a.measurements.len() == b.measurements.len()
        && a.measurements.iter().zip(&b.measurements).all(|(x, y)| {
            x.hours == y.hours
                && x.voltage.to_bits() == y.voltage.to_bits()
                && x.ground_truth.is_none()
                && y.ground_truth.is_none()
                && x.z
                    .as_slice()
                    .iter()
                    .zip(y.z.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Parses `bytes` with both readers, checks both contracts, and returns
/// the buffered reader's result.
fn parse_both(bytes: &[u8]) -> Result<WetLabDataset, DatasetError> {
    let fast = WetLabDataset::read_text(bytes);
    let naive = WetLabDataset::read_text_naive(bytes);
    let shown = String::from_utf8_lossy(bytes);
    for result in [&fast, &naive] {
        match result {
            Ok(_)
            | Err(
                DatasetError::Parse(_)
                | DatasetError::NonPhysical { .. }
                | DatasetError::NonPhysicalVoltage { .. },
            ) => {}
            Err(DatasetError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData => {}
            Err(other) => panic!("untyped failure {other:?} on {shown:?}"),
        }
    }
    match (&fast, &naive) {
        (Ok(a), Ok(b)) => assert!(same_bits(a, b), "readers parsed {shown:?} differently"),
        (Err(_), Err(_)) => {}
        _ => panic!("readers disagree on {shown:?}: {fast:?} vs {naive:?}"),
    }
    fast
}

/// The bytes the format gives meaning to: digits, a decimal point, the
/// value and line separators, spaces, signs and exponents.
const ALPHABET: &[u8] = b"0123456789.\t\n -e";

/// A header declaring `rows × cols`, then one measurement whose body is a
/// `body_rows × body_cols` matrix of ones.
fn declared(rows: u64, cols: u64, body_rows: usize, body_cols: usize) -> String {
    let mut text = format!("# parma-dataset v1\nrows {rows}\ncols {cols}\nmeasurement 0 5\n");
    for _ in 0..body_rows {
        text.push_str(&vec!["1"; body_cols].join("\t"));
        text.push('\n');
    }
    text
}

/// Every prefix parses to `Ok` or a typed error, and the readers agree.
/// A cut exactly between measurements, or inside the digits of a row's
/// last value, leaves a valid shorter session; the full text parses.
#[test]
fn every_truncation_is_typed_and_both_readers_agree() {
    let text = session_text(3, 4, 3, 0xFEED);
    let mut oks = 0;
    for len in 0..=text.len() {
        oks += parse_both(&text[..len]).is_ok() as usize;
    }
    assert!(parse_both(&text).is_ok(), "the untruncated text must parse");
    assert!(oks > 1, "some proper prefixes are valid sessions");
}

/// Every byte replaced by a flip of its low or high bit, by 0xFF, or by a
/// byte the format gives meaning to.
#[test]
fn every_single_byte_mutation_is_typed_and_both_readers_agree() {
    let text = session_text(2, 3, 2, 0xC0FFEE);
    for i in 0..text.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut damaged = text.clone();
            damaged[i] ^= mask;
            let _ = parse_both(&damaged);
        }
        for &byte in ALPHABET.iter().chain(b"\r") {
            let mut damaged = text.clone();
            damaged[i] = byte;
            let _ = parse_both(&damaged);
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, alone and after a valid header line.
    #[test]
    fn prop_random_bytes_are_typed_and_both_readers_agree(
        bytes in proptest::collection::vec(proptest::any::<u8>(), 0..256),
    ) {
        let _ = parse_both(&bytes);
        let mut headed = b"# parma-dataset v1\n".to_vec();
        headed.extend_from_slice(&bytes);
        let _ = parse_both(&headed);
    }

    /// Random text over the format's own alphabet after a valid header,
    /// which reaches the row and value parsers far more often than raw
    /// bytes do.
    #[test]
    fn prop_random_format_text_is_typed_and_both_readers_agree(
        picks in proptest::collection::vec(0..ALPHABET.len(), 0..200),
    ) {
        let mut text = b"# parma-dataset v1\nrows 2\ncols 2\nmeasurement 0 5\n".to_vec();
        text.extend(picks.iter().map(|&p| ALPHABET[p]));
        let _ = parse_both(&text);
    }

    /// `rows` and `cols` spread over every magnitude up to `u64::MAX`
    /// (zero, small, 2³¹-sized, overflowing products), against a short
    /// body. Only a body that supplies exactly `rows × cols` values may
    /// parse, and then to the declared grid.
    #[test]
    fn prop_declared_dimensions_cost_nothing_until_supplied(
        row_bits in proptest::any::<u64>(),
        row_shift in 0u32..64,
        col_bits in proptest::any::<u64>(),
        col_shift in 0u32..64,
        body in (1usize..5, 1usize..5),
    ) {
        let (rows, cols) = (row_bits >> row_shift, col_bits >> col_shift);
        for (r, c) in [(rows, cols), (rows % 5, cols % 5), (body.0 as u64, body.1 as u64)] {
            let parsed = parse_both(declared(r, c, body.0, body.1).as_bytes());
            let supplied = (r, c) == (body.0 as u64, body.1 as u64);
            proptest::prop_assert_eq!(parsed.is_ok(), supplied, "{}×{} against {:?}", r, c, body);
            if let Ok(ds) = parsed {
                proptest::prop_assert_eq!(ds.grid, MeaGrid::new(body.0, body.1));
            }
        }
    }
}
