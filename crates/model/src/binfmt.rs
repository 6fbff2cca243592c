//! `parma-bin/v1`: the versioned, checksummed, mmap-friendly binary
//! container for wet-lab sessions.
//!
//! The text format (`dataset.rs`) reproduces the paper's Excel→text
//! conversion; it is the interchange format, not the ingest format — the
//! paper measured dataset I/O as a first-order bottleneck (the `fig9_io`
//! figure exists to chart it), and parsing floats one token at a time on
//! the solve thread is where that time goes. This module defines the
//! production container: fixed-stride little-endian `f64` blocks that a
//! reader can *borrow* straight out of a mapped file — no per-float
//! parse, no intermediate `Vec`s — with enough integrity metadata that a
//! damaged file can never load as wrong values.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset 0   magic            8 B   "PARMABIN"
//! offset 8   version          u32   1
//! offset 12  header_len       u32   length of the header record (8-multiple)
//! offset 16  header record:
//!              rows           u32
//!              cols           u32
//!              sections       u32   measurement count
//!              flags          u32   reserved, 0
//!              provenance_len u32
//!              provenance     UTF-8 writer stamp
//!              zero padding to an 8-byte multiple
//!            header checksum  u64   striped FNV-1a64 over bytes [0, 16 + header_len)
//! then per measurement section (each starts 8-aligned):
//!              hours          u32
//!              flags          u32   bit 0: ground-truth R block present
//!              voltage        f64
//!              Z block        rows·cols × f64
//!              [R block       rows·cols × f64]   iff flags bit 0
//!            section checksum u64   striped FNV-1a64 over the section's bytes
//! end of file — trailing bytes are rejected
//! ```
//!
//! Every offset of an `f64` block is a multiple of 8 from the start of
//! the file, so a page-aligned mapping (or any 8-aligned buffer) serves
//! the blocks by reinterpretation on little-endian hosts; unaligned
//! buffers (HTTP bodies) fall back to a single copying pass.
//!
//! # Integrity
//!
//! Every byte of the file is covered: the magic and version by explicit
//! comparison, everything else by one of the checksums (the checksum
//! fields themselves by the comparison against the recomputed value).
//! The checksum ([`checksum64`]) is a *striped* FNV-1a64: eight
//! independent lanes each fold one little-endian `u64` word per 64-byte
//! block — the FNV transition `h' = (h ⊕ w) · prime` is injective in
//! both `h` and `w` (the prime is odd, so multiplication is invertible
//! mod 2⁶⁴) — and the lanes are combined by XOR of distinct rotations,
//! with the tail and length folded through scalar FNV-1a. A single
//! corrupted byte changes exactly one word of exactly one lane (or the
//! scalar tail), which changes that lane's hash, which changes the
//! combined value — so single-byte corruption is detected
//! *deterministically*, not just with 1 − 2⁻⁶⁴ probability. Unlike the
//! byte-serial FNV-1a loop (a ~2 ns/byte multiply dependency chain that
//! dominated binary ingest), the independent lanes keep the multiplier
//! ports busy and verify at several GB/s. `tests/binfmt_properties.rs`
//! exhaustively flips every byte to pin the detection guarantee.
//!
//! # Validation at ingest
//!
//! The PR 4 non-finite/non-physical gate lives in the format's
//! validation pass: after a section's checksum verifies, its blocks are
//! scanned with a branch-free predicate (`v > 0` ∧ `v < ∞`, which also
//! rejects NaN — autovectorizer-friendly) and the first offender is
//! reported as a typed [`DatasetError::NonPhysical`] with its
//! hour/row/col location; a section's applied voltage must be finite and
//! positive too ([`DatasetError::NonPhysicalVoltage`]). Corrupt records
//! die at ingest, never mid-batch.

use crate::dataset::{DatasetError, Measurement, WetLabDataset};
use crate::grid::{CrossingMatrix, MeaGrid};
use std::io::Write;

/// The container's magic bytes — what format sniffing dispatches on.
pub const MAGIC: [u8; 8] = *b"PARMABIN";

/// The format version this module writes and the only one it reads.
pub const VERSION: u32 = 1;

/// Ground-truth-present bit in a section's flags word.
const SECTION_HAS_TRUTH: u32 = 1;

/// The container's checksum: striped FNV-1a64 (see the module docs'
/// integrity argument). Eight independent FNV lanes each fold one
/// little-endian `u64` word per 64-byte block, the sub-block tail and
/// the total length go through scalar FNV-1a, and the lanes are combined
/// by XOR of distinct rotations. Detection of any single corrupted byte
/// is deterministic (each lane transition is injective and exactly one
/// lane changes); throughput is ~an order of magnitude past the
/// byte-serial loop because the eight multiply chains are independent.
pub fn checksum64(bytes: &[u8]) -> u64 {
    use mea_obs::fnv::{fnv1a64, OFFSET, PRIME};
    const LANES: usize = 8;
    let mut h = [0u64; LANES];
    for (k, lane) in h.iter_mut().enumerate() {
        *lane = OFFSET ^ k as u64;
    }
    let blocks = bytes.chunks_exact(8 * LANES);
    let tail = blocks.remainder();
    for block in blocks {
        for (k, lane) in h.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[8 * k..8 * k + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut out = fnv1a64(tail) ^ (bytes.len() as u64).wrapping_mul(PRIME);
    for (k, &lane) in h.iter().enumerate() {
        out ^= lane.rotate_left(8 * k as u32);
    }
    out
}

/// Index of the first non-physical value in a block, or `None` when the
/// whole block is finite and strictly positive.
///
/// The hot path folds a branch-free predicate over fixed-width chunks —
/// two compares and an AND per lane, no NaN special-casing (`NaN > 0` is
/// already false) — so the scan vectorizes; only a failing chunk pays
/// for the positional re-scan.
pub fn first_nonphysical(vals: &[f64]) -> Option<usize> {
    const LANES: usize = 8;
    let mut i = 0;
    while i + LANES <= vals.len() {
        let mut ok = true;
        for &v in &vals[i..i + LANES] {
            ok &= (v > 0.0) & (v < f64::INFINITY);
        }
        if !ok {
            break;
        }
        i += LANES;
    }
    vals[i..]
        .iter()
        .position(|&v| !((v > 0.0) & (v < f64::INFINITY)))
        .map(|k| i + k)
}

/// Serializes a session into the `parma-bin/v1` container. Unlike the
/// text format, ground-truth resistor maps survive the round trip (the
/// per-section flag bit), so write→parse is the identity on generated
/// sessions.
pub fn write_binary<W: Write>(ds: &WetLabDataset, mut w: W) -> Result<(), DatasetError> {
    let rows = ds.grid.rows();
    let cols = ds.grid.cols();
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(DatasetError::Parse(
            "grid too large for parma-bin/v1".into(),
        ));
    }
    let provenance = format!(
        "parma-bin/v{VERSION} writer=mea-model/{}",
        env!("CARGO_PKG_VERSION")
    );
    let mut head = Vec::with_capacity(64 + provenance.len());
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    let mut rec = Vec::with_capacity(24 + provenance.len());
    rec.extend_from_slice(&(rows as u32).to_le_bytes());
    rec.extend_from_slice(&(cols as u32).to_le_bytes());
    rec.extend_from_slice(&(ds.measurements.len() as u32).to_le_bytes());
    rec.extend_from_slice(&0u32.to_le_bytes());
    rec.extend_from_slice(&(provenance.len() as u32).to_le_bytes());
    rec.extend_from_slice(provenance.as_bytes());
    while rec.len() % 8 != 0 {
        rec.push(0);
    }
    head.extend_from_slice(&(rec.len() as u32).to_le_bytes());
    head.extend_from_slice(&rec);
    let sum = checksum64(&head);
    head.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&head)?;

    let mut section = Vec::new();
    for m in &ds.measurements {
        section.clear();
        let flags = match m.ground_truth {
            Some(_) => SECTION_HAS_TRUTH,
            None => 0,
        };
        section.extend_from_slice(&m.hours.to_le_bytes());
        section.extend_from_slice(&flags.to_le_bytes());
        section.extend_from_slice(&m.voltage.to_le_bytes());
        for &v in m.z.as_slice() {
            section.extend_from_slice(&v.to_le_bytes());
        }
        if let Some(r) = &m.ground_truth {
            for &v in r.as_slice() {
                section.extend_from_slice(&v.to_le_bytes());
            }
        }
        let sum = checksum64(&section);
        section.extend_from_slice(&sum.to_le_bytes());
        w.write_all(&section)?;
    }
    Ok(())
}

/// One measurement's blocks, borrowed from the file when alignment and
/// endianness allow, copied once otherwise.
#[derive(Debug)]
enum Block<'a> {
    /// Zero-copy: the file bytes reinterpreted in place.
    Borrowed(&'a [f64]),
    /// The unaligned/byte-swapped fallback (HTTP bodies, exotic hosts).
    Owned(Vec<f64>),
}

impl Block<'_> {
    fn as_slice(&self) -> &[f64] {
        match self {
            Block::Borrowed(s) => s,
            Block::Owned(v) => v,
        }
    }

    fn into_vec(self) -> Vec<f64> {
        match self {
            Block::Borrowed(s) => s.to_vec(),
            Block::Owned(v) => v,
        }
    }

    fn is_borrowed(&self) -> bool {
        matches!(self, Block::Borrowed(_))
    }
}

/// Reinterprets (or decodes) a little-endian `f64` block. Zero-copy iff
/// the bytes are 8-aligned and the host is little-endian; any bit
/// pattern is a valid `f64`, so the reinterpretation itself is safe.
fn float_block(bytes: &[u8]) -> Block<'_> {
    debug_assert_eq!(bytes.len() % 8, 0);
    #[cfg(target_endian = "little")]
    if (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>()) {
        // SAFETY: alignment checked above; u8 → f64 reinterpretation is
        // valid for every bit pattern and the length is a multiple of 8.
        let (pre, mid, post) = unsafe { bytes.align_to::<f64>() };
        debug_assert!(pre.is_empty() && post.is_empty());
        return Block::Borrowed(mid);
    }
    Block::Owned(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect(),
    )
}

/// A bounds-checked reader over the raw container bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DatasetError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(DatasetError::Parse(format!(
                "truncated parma-bin file: {what} needs {n} bytes at offset {}",
                self.pos
            ))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, DatasetError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DatasetError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, what: &str) -> Result<f64, DatasetError> {
        Ok(f64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }
}

/// One parsed measurement section, blocks still in (or borrowed from)
/// the file buffer.
#[derive(Debug)]
pub struct BinSection<'a> {
    /// Hours after device setup.
    pub hours: u32,
    /// Applied voltage, volts.
    pub voltage: f64,
    z: Block<'a>,
    truth: Option<Block<'a>>,
}

impl BinSection<'_> {
    /// The measured-impedance block, row-major.
    pub fn z(&self) -> &[f64] {
        self.z.as_slice()
    }

    /// The ground-truth resistor block, when the writer had one.
    pub fn ground_truth(&self) -> Option<&[f64]> {
        self.truth.as_ref().map(|b| b.as_slice())
    }

    /// Whether this section's blocks are served zero-copy from the
    /// underlying buffer (true on the mmap path).
    pub fn is_zero_copy(&self) -> bool {
        self.z.is_borrowed()
    }
}

/// A fully validated `parma-bin/v1` file: checksums verified, physicality
/// gate passed, float blocks addressable without a parse.
#[derive(Debug)]
pub struct BinFile<'a> {
    grid: MeaGrid,
    provenance: &'a str,
    sections: Vec<BinSection<'a>>,
}

impl<'a> BinFile<'a> {
    /// Parses and validates a container. Structural damage is a typed
    /// [`DatasetError::Parse`] or [`DatasetError::Corrupt`]; non-physical
    /// values are [`DatasetError::NonPhysical`] with their location, and a
    /// non-physical voltage is [`DatasetError::NonPhysicalVoltage`]. A
    /// file that parses is fully trustworthy — there is no lazy tail.
    pub fn parse(bytes: &'a [u8]) -> Result<BinFile<'a>, DatasetError> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        if cur.take(8, "magic")? != MAGIC {
            return Err(DatasetError::Parse(
                "not a parma-bin file (bad magic)".into(),
            ));
        }
        let version = cur.u32("version")?;
        if version != VERSION {
            return Err(DatasetError::Parse(format!(
                "unsupported parma-bin version {version} (this reader supports {VERSION})"
            )));
        }
        let header_len = cur.u32("header length")? as usize;
        if !header_len.is_multiple_of(8) || header_len < 20 {
            return Err(DatasetError::Corrupt(format!(
                "header record length {header_len} is not a padded record"
            )));
        }
        let rec_start = cur.pos;
        let rec = cur.take(header_len, "header record")?;
        let stored = cur.u64("header checksum")?;
        let actual = checksum64(&bytes[..rec_start + header_len]);
        if stored != actual {
            return Err(DatasetError::Corrupt(format!(
                "header checksum mismatch (stored {stored:016x}, computed {actual:016x})"
            )));
        }
        let mut hc = Cursor { buf: rec, pos: 0 };
        let rows = hc.u32("rows")? as usize;
        let cols = hc.u32("cols")? as usize;
        let n_sections = hc.u32("section count")? as usize;
        let _flags = hc.u32("header flags")?;
        let prov_len = hc.u32("provenance length")? as usize;
        let provenance = std::str::from_utf8(hc.take(prov_len, "provenance")?)
            .map_err(|_| DatasetError::Corrupt("provenance is not UTF-8".into()))?;
        if rows == 0 || cols == 0 {
            return Err(DatasetError::Parse("rows/cols must be positive".into()));
        }
        if n_sections == 0 {
            return Err(DatasetError::Parse("file contains no measurements".into()));
        }
        let grid = MeaGrid::new(rows, cols);
        let block_bytes = rows
            .checked_mul(cols)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| DatasetError::Corrupt("grid dimensions overflow".into()))?;

        let mut sections = Vec::with_capacity(n_sections);
        for s in 0..n_sections {
            let start = cur.pos;
            let hours = cur.u32("section hours")?;
            let flags = cur.u32("section flags")?;
            if flags & !SECTION_HAS_TRUTH != 0 {
                return Err(DatasetError::Corrupt(format!(
                    "section {s} carries unknown flags {flags:#x}"
                )));
            }
            let voltage = cur.f64("section voltage")?;
            let z_bytes = cur.take(block_bytes, "Z block")?;
            let truth_bytes = if flags & SECTION_HAS_TRUTH != 0 {
                Some(cur.take(block_bytes, "R block")?)
            } else {
                None
            };
            let stored = cur.u64("section checksum")?;
            let actual = checksum64(&bytes[start..start + (cur.pos - start) - 8]);
            if stored != actual {
                return Err(DatasetError::Corrupt(format!(
                    "section {s} checksum mismatch (stored {stored:016x}, computed {actual:016x})"
                )));
            }
            let voltage = crate::dataset::physical_voltage(hours, voltage)?;
            let z = float_block(z_bytes);
            if let Some(bad) = first_nonphysical(z.as_slice()) {
                return Err(DatasetError::NonPhysical {
                    hours,
                    row: bad / cols,
                    col: bad % cols,
                    value: z.as_slice()[bad],
                });
            }
            let truth = match truth_bytes {
                Some(tb) => {
                    let t = float_block(tb);
                    if let Some(bad) = first_nonphysical(t.as_slice()) {
                        return Err(DatasetError::NonPhysical {
                            hours,
                            row: bad / cols,
                            col: bad % cols,
                            value: t.as_slice()[bad],
                        });
                    }
                    Some(t)
                }
                None => None,
            };
            sections.push(BinSection {
                hours,
                voltage,
                z,
                truth,
            });
        }
        if cur.pos != bytes.len() {
            return Err(DatasetError::Corrupt(format!(
                "{} trailing bytes after the last section",
                bytes.len() - cur.pos
            )));
        }
        Ok(BinFile {
            grid,
            provenance,
            sections,
        })
    }

    /// Device geometry.
    pub fn grid(&self) -> MeaGrid {
        self.grid
    }

    /// The writer's provenance stamp.
    pub fn provenance(&self) -> &str {
        self.provenance
    }

    /// The measurement sections, in file order.
    pub fn sections(&self) -> &[BinSection<'a>] {
        &self.sections
    }

    /// Materializes an owned dataset: one memcpy per borrowed block (the
    /// owned fallback blocks move without copying).
    pub fn into_dataset(self) -> WetLabDataset {
        let grid = self.grid;
        let measurements = self
            .sections
            .into_iter()
            .map(|s| Measurement {
                hours: s.hours,
                voltage: s.voltage,
                z: CrossingMatrix::from_vec(grid, s.z.into_vec()),
                ground_truth: s
                    .truth
                    .map(|t| CrossingMatrix::from_vec(grid, t.into_vec())),
            })
            .collect();
        WetLabDataset { grid, measurements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyConfig;

    fn session(n: usize, seed: u64) -> WetLabDataset {
        WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), seed).unwrap()
    }

    fn encode(ds: &WetLabDataset) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(ds, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_the_identity_including_ground_truth() {
        let ds = session(4, 11);
        let bytes = encode(&ds);
        let parsed = BinFile::parse(&bytes).unwrap().into_dataset();
        assert_eq!(parsed, ds, "binary round trip must be the identity");
    }

    #[test]
    fn blocks_are_zero_copy_on_aligned_buffers() {
        let ds = session(3, 7);
        let bytes = encode(&ds);
        // Vec<u8> from the writer is at least 8-aligned in practice only
        // by luck; force alignment through a u64 backing store.
        let words = bytes.len().div_ceil(8);
        let mut backing = vec![0u64; words];
        let view =
            unsafe { std::slice::from_raw_parts_mut(backing.as_mut_ptr() as *mut u8, words * 8) };
        view[..bytes.len()].copy_from_slice(&bytes);
        let bin = BinFile::parse(&view[..bytes.len()]).unwrap();
        assert!(bin.sections().iter().all(|s| s.is_zero_copy()));
        assert!(bin.provenance().contains("parma-bin/v1"));
        assert_eq!(bin.grid(), ds.grid);
    }

    #[test]
    fn unaligned_buffers_fall_back_to_a_copy_with_identical_values() {
        let ds = session(3, 7);
        let bytes = encode(&ds);
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        let parsed = BinFile::parse(&shifted[1..]).unwrap().into_dataset();
        assert_eq!(parsed, ds);
    }

    #[test]
    fn nonphysical_values_die_at_ingest_with_their_location() {
        let mut ds = session(3, 5);
        ds.measurements[1].z.set(2, 1, f64::NAN);
        let bytes = encode(&ds);
        match BinFile::parse(&bytes).unwrap_err() {
            DatasetError::NonPhysical {
                hours, row, col, ..
            } => assert_eq!((hours, row, col), (6, 2, 1)),
            other => panic!("expected NonPhysical, got {other:?}"),
        }
        // A section's applied voltage is checked the same way.
        for bad in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            let mut ds = session(3, 5);
            ds.measurements[2].voltage = bad;
            match BinFile::parse(&encode(&ds)).unwrap_err() {
                DatasetError::NonPhysicalVoltage { hours, .. } => {
                    assert_eq!(hours, ds.measurements[2].hours, "voltage {bad}")
                }
                other => panic!("voltage {bad}: expected NonPhysicalVoltage, got {other:?}"),
            }
        }
    }

    #[test]
    fn nonphysical_scan_finds_the_first_offender() {
        let vals: Vec<f64> = (1..=40).map(|v| v as f64).collect();
        assert_eq!(first_nonphysical(&vals), None);
        for (idx, bad) in [(0usize, -1.0), (7, 0.0), (8, f64::NAN), (39, f64::INFINITY)] {
            let mut v = vals.clone();
            v[idx] = bad;
            assert_eq!(first_nonphysical(&v), Some(idx), "bad value {bad} at {idx}");
        }
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let bytes = encode(&session(2, 3));
        for len in 0..bytes.len() {
            assert!(
                BinFile::parse(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not parse"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&session(2, 3));
        bytes.push(0);
        assert!(matches!(
            BinFile::parse(&bytes).unwrap_err(),
            DatasetError::Corrupt(_)
        ));
    }
}
