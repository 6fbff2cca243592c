//! The wet-lab dataset substitute: timed measurement series with text
//! import/export.
//!
//! The paper's data came from a biomedical wet lab: a device measured cell
//! media four times a day (0, 6, 12 and 24 hours after setup), the raw
//! values were saved as Excel files and converted to text before being fed
//! to Parma. This module reproduces that pipeline synthetically: anomaly
//! regions grow over the day, each time point is forward-solved to an exact
//! measured-impedance matrix, and the series round-trips through the same
//! tab-separated text format the paper's converter produced.

use crate::anomaly::{AnomalyConfig, AnomalyRegion};
use crate::forward::ForwardSolver;
use crate::grid::{CrossingMatrix, MeaGrid, ResistorGrid, ZMatrix};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// The wet lab's measurement schedule, hours after device setup.
pub const MEASUREMENT_HOURS: [u32; 4] = [0, 6, 12, 24];

/// Errors of the dataset pipeline.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The text file is malformed; payload describes where and why.
    Parse(String),
    /// A measured resistance is non-finite (NaN/∞) or not strictly
    /// positive — corrupt data that must be rejected at ingestion, before
    /// it can poison a solve. Typed (unlike [`Self::Parse`]) so supervised
    /// batch runs can classify it as `non_finite_input` in their failure
    /// taxonomy.
    NonPhysical {
        /// The measurement's hour stamp.
        hours: u32,
        /// Zero-based matrix row of the offending value.
        row: usize,
        /// Zero-based matrix column of the offending value.
        col: usize,
        /// The offending value as parsed.
        value: f64,
    },
    /// A measurement's applied voltage is non-finite or not strictly
    /// positive — rejected at ingestion like [`Self::NonPhysical`], so a
    /// bad file is blamed on the file, never on the solver configuration.
    NonPhysicalVoltage {
        /// The measurement's hour stamp.
        hours: u32,
        /// The voltage as parsed.
        value: f64,
    },
    /// The forward solve failed (non-physical generated map — a bug).
    Solve(mea_linalg::LinalgError),
    /// A binary (`parma-bin/v1`) container failed an integrity check — a
    /// checksum mismatch, trailing bytes, or inconsistent structure. The
    /// payload says which section and why. Distinct from [`Self::Parse`]
    /// so callers can tell "damaged bytes of a known format" from "not
    /// this format at all".
    Corrupt(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset I/O error: {e}"),
            DatasetError::Parse(s) => write!(f, "dataset parse error: {s}"),
            DatasetError::NonPhysical {
                hours,
                row,
                col,
                value,
            } => write!(
                f,
                "non-physical measured impedance {value} at hour {hours}, row {row}, col {col} \
                 (values must be finite and strictly positive)"
            ),
            DatasetError::NonPhysicalVoltage { hours, value } => write!(
                f,
                "non-physical applied voltage {value} at hour {hours} \
                 (voltages must be finite and strictly positive)"
            ),
            DatasetError::Solve(e) => write!(f, "dataset forward solve failed: {e}"),
            DatasetError::Corrupt(s) => write!(f, "binary dataset corrupt: {s}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

/// One timed measurement: what the device reports at a given hour.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Hours after setup (0, 6, 12 or 24 in the paper's schedule).
    pub hours: u32,
    /// Applied voltage, volts (5 V in the paper).
    pub voltage: f64,
    /// The measured impedance matrix `Z`.
    pub z: ZMatrix,
    /// The ground-truth resistor map behind this measurement — available
    /// only because the dataset is synthetic; `None` after a text-file
    /// round trip (real measurements carry no ground truth).
    pub ground_truth: Option<ResistorGrid>,
}

/// A full synthetic wet-lab session: one device, four time points.
#[derive(Clone, Debug, PartialEq)]
pub struct WetLabDataset {
    /// Device geometry.
    pub grid: MeaGrid,
    /// Measurements in chronological order.
    pub measurements: Vec<Measurement>,
}

impl WetLabDataset {
    /// Generates a session: anomalies are seeded at hour 0 and grow toward
    /// hour 24 (radius ×1.6, amplitude ×1.8 across the day, interpolated
    /// per time point).
    pub fn generate(grid: MeaGrid, cfg: &AnomalyConfig, seed: u64) -> Result<Self, DatasetError> {
        let base_regions = cfg.sample_regions(grid, seed);
        let mut measurements = Vec::with_capacity(MEASUREMENT_HOURS.len());
        for &hours in &MEASUREMENT_HOURS {
            let t = hours as f64 / 24.0;
            let grown: Vec<AnomalyRegion> = base_regions
                .iter()
                .map(|r| r.grown(1.0 + 0.6 * t, 1.0 + 0.8 * t))
                .collect();
            let r = cfg.render(grid, &grown, seed.wrapping_add(hours as u64));
            let z = ForwardSolver::new(&r)
                .map_err(DatasetError::Solve)?
                .solve_all();
            measurements.push(Measurement {
                hours,
                voltage: 5.0,
                z,
                ground_truth: Some(r),
            });
        }
        Ok(WetLabDataset { grid, measurements })
    }

    /// The measurement at a given hour, if present.
    pub fn at_hours(&self, hours: u32) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.hours == hours)
    }

    /// Writes the session in the paper's converted-text format:
    ///
    /// ```text
    /// # parma-dataset v1
    /// rows <m>
    /// cols <n>
    /// measurement <hours> <voltage>
    /// <tab-separated Z row 0>
    /// …
    /// ```
    ///
    /// Values are written with Rust's shortest-round-trip `f64`
    /// formatting, so parsing them back reproduces the exact bits — a
    /// text↔binary conversion chain is lossless on the parsed values
    /// (which is what lets CI byte-compare a text → bin → text round
    /// trip).
    pub fn write_text<W: Write>(&self, mut w: W) -> Result<(), DatasetError> {
        writeln!(w, "# parma-dataset v1")?;
        writeln!(w, "rows {}", self.grid.rows())?;
        writeln!(w, "cols {}", self.grid.cols())?;
        for m in &self.measurements {
            writeln!(w, "measurement {} {}", m.hours, m.voltage)?;
            for i in 0..self.grid.rows() {
                for j in 0..self.grid.cols() {
                    if j > 0 {
                        w.write_all(b"\t")?;
                    }
                    write!(w, "{}", m.z.get(i, j))?;
                }
                writeln!(w)?;
            }
        }
        Ok(())
    }

    /// Writes to a file path (buffered) in the text format.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), DatasetError> {
        let f = std::fs::File::create(path)?;
        self.write_text(std::io::BufWriter::new(f))
    }

    /// Serializes into the `parma-bin/v1` container (see
    /// [`crate::binfmt`]). Unlike the text format this round-trips
    /// ground-truth maps, and loading it is a checksum + validation scan
    /// instead of a float-by-float parse.
    pub fn write_binary<W: Write>(&self, w: W) -> Result<(), DatasetError> {
        crate::binfmt::write_binary(self, w)
    }

    /// Writes to a file path (buffered) in the binary container format.
    pub fn save_binary<P: AsRef<Path>>(&self, path: P) -> Result<(), DatasetError> {
        let f = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(f);
        self.write_binary(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Parses the text format. Ground truth is not part of the format, so
    /// loaded measurements carry `ground_truth: None`.
    ///
    /// One line buffer is reused for the whole file — the historical
    /// `BufReader::lines()` reader allocated a fresh `String` per line
    /// (one per matrix row), which dominated load time at device scale;
    /// [`Self::read_text_naive`] keeps that shape so the I/O bench can
    /// pin the speedup.
    pub fn read_text<R: Read>(r: R) -> Result<Self, DatasetError> {
        let mut lines = LineReader::new(r);
        let header = lines
            .next_line()?
            .ok_or_else(|| DatasetError::Parse("empty file".into()))?;
        if header.trim() != "# parma-dataset v1" {
            return Err(DatasetError::Parse(format!(
                "unrecognized header {header:?}"
            )));
        }
        let rows = parse_kv(&mut lines, "rows")?;
        let cols = parse_kv(&mut lines, "cols")?;
        let grid = header_grid(rows, cols)?;
        let mut measurements = Vec::new();
        'sessions: loop {
            // Find the next measurement header, skipping blank lines.
            let (hours, voltage) = loop {
                let Some(line) = lines.next_line()? else {
                    break 'sessions;
                };
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split_whitespace();
                if parts.next() != Some("measurement") {
                    return Err(DatasetError::Parse(format!(
                        "expected a measurement header, found {line:?}"
                    )));
                }
                let hours: u32 = parts
                    .next()
                    .ok_or_else(|| DatasetError::Parse("measurement missing hours".into()))?
                    .parse()
                    .map_err(|e| DatasetError::Parse(format!("bad hours: {e}")))?;
                let voltage: f64 = parts
                    .next()
                    .ok_or_else(|| DatasetError::Parse("measurement missing voltage".into()))?
                    .parse()
                    .map_err(|e| DatasetError::Parse(format!("bad voltage: {e}")))?;
                break (hours, physical_voltage(hours, voltage)?);
            };
            let mut values = Vec::new();
            for i in 0..rows {
                let row = lines
                    .next_line()?
                    .ok_or_else(|| DatasetError::Parse(format!("truncated matrix at row {i}")))?;
                let mut count = 0usize;
                for tok in row.split('\t') {
                    let v: f64 = tok.trim().parse().map_err(|e| {
                        DatasetError::Parse(format!("bad value {tok:?} in row {i}: {e}"))
                    })?;
                    // "NaN"/"inf" parse successfully as f64, so this typed
                    // gate — not the parse above — is what keeps corrupt
                    // values out of the solver.
                    if !v.is_finite() || v <= 0.0 {
                        return Err(DatasetError::NonPhysical {
                            hours,
                            row: i,
                            col: count,
                            value: v,
                        });
                    }
                    values.push(v);
                    count += 1;
                }
                if count != cols {
                    return Err(DatasetError::Parse(format!(
                        "row {i} has {count} values, expected {cols}"
                    )));
                }
            }
            measurements.push(Measurement {
                hours,
                voltage,
                z: CrossingMatrix::from_vec(grid, values),
                ground_truth: None,
            });
        }
        if measurements.is_empty() {
            return Err(DatasetError::Parse("file contains no measurements".into()));
        }
        Ok(WetLabDataset { grid, measurements })
    }

    /// The pre-PR 8 text reader, allocation per line, retained verbatim
    /// as the reference the I/O bench (`figures fig9-io`) and the
    /// equivalence test pin the buffered reader against. Not a public
    /// ingest path.
    #[doc(hidden)]
    pub fn read_text_naive<R: Read>(r: R) -> Result<Self, DatasetError> {
        let mut lines = BufReader::new(r).lines();
        let header = lines
            .next()
            .ok_or_else(|| DatasetError::Parse("empty file".into()))??;
        if header.trim() != "# parma-dataset v1" {
            return Err(DatasetError::Parse(format!(
                "unrecognized header {header:?}"
            )));
        }
        let rows = parse_kv_naive(&mut lines, "rows")?;
        let cols = parse_kv_naive(&mut lines, "cols")?;
        let grid = header_grid(rows, cols)?;
        let mut measurements = Vec::new();
        while let Some(line) = lines.next() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("measurement") {
                return Err(DatasetError::Parse(format!(
                    "expected a measurement header, found {line:?}"
                )));
            }
            let hours: u32 = parts
                .next()
                .ok_or_else(|| DatasetError::Parse("measurement missing hours".into()))?
                .parse()
                .map_err(|e| DatasetError::Parse(format!("bad hours: {e}")))?;
            let voltage: f64 = parts
                .next()
                .ok_or_else(|| DatasetError::Parse("measurement missing voltage".into()))?
                .parse()
                .map_err(|e| DatasetError::Parse(format!("bad voltage: {e}")))?;
            let voltage = physical_voltage(hours, voltage)?;
            let mut values = Vec::new();
            for i in 0..rows {
                let row = lines
                    .next()
                    .ok_or_else(|| DatasetError::Parse(format!("truncated matrix at row {i}")))??;
                let mut count = 0usize;
                for tok in row.split('\t') {
                    let v: f64 = tok.trim().parse().map_err(|e| {
                        DatasetError::Parse(format!("bad value {tok:?} in row {i}: {e}"))
                    })?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(DatasetError::NonPhysical {
                            hours,
                            row: i,
                            col: count,
                            value: v,
                        });
                    }
                    values.push(v);
                    count += 1;
                }
                if count != cols {
                    return Err(DatasetError::Parse(format!(
                        "row {i} has {count} values, expected {cols}"
                    )));
                }
            }
            measurements.push(Measurement {
                hours,
                voltage,
                z: CrossingMatrix::from_vec(grid, values),
                ground_truth: None,
            });
        }
        if measurements.is_empty() {
            return Err(DatasetError::Parse("file contains no measurements".into()));
        }
        Ok(WetLabDataset { grid, measurements })
    }

    /// Reads from a file path, sniffing the format: `parma-bin/v1`
    /// containers go through the zero-copy reader (checksums + validation
    /// scan, one memcpy per block), anything else through the text
    /// parser. Either way the file arrives via [`crate::mapped::MappedFile`],
    /// so even text loads are a single mapping instead of buffered reads.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, DatasetError> {
        let mapped = crate::mapped::MappedFile::open(path)?;
        Self::from_mapped(&mapped)
    }

    /// Parses a dataset out of an already-mapped file (see [`Self::load`]).
    pub fn from_mapped(mapped: &crate::mapped::MappedFile) -> Result<Self, DatasetError> {
        let bytes = mapped.bytes();
        if bytes.starts_with(&crate::binfmt::MAGIC) {
            Ok(crate::binfmt::BinFile::parse(bytes)?.into_dataset())
        } else {
            Self::read_text(bytes)
        }
    }

    /// Parses a dataset from an in-memory buffer — the ingest path for
    /// HTTP request bodies (`parma serve`), where data arrives without
    /// ever touching a file. Dispatches on the `parma-bin/v1` magic, so
    /// jobs can POST either format; identical validation to
    /// [`Self::load`]: malformed input is a typed [`DatasetError::Parse`]
    /// or [`DatasetError::Corrupt`], non-physical values a
    /// [`DatasetError::NonPhysical`], never a panic. Binary bodies at
    /// arbitrary alignment take the copying decode path.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DatasetError> {
        if bytes.starts_with(&crate::binfmt::MAGIC) {
            Ok(crate::binfmt::BinFile::parse(bytes)?.into_dataset())
        } else {
            Self::read_text(bytes)
        }
    }
}

/// A buffered line reader that reuses one `String` for every line (the
/// text reader's per-line allocation fix).
struct LineReader<R> {
    inner: BufReader<R>,
    buf: String,
}

impl<R: Read> LineReader<R> {
    fn new(r: R) -> Self {
        LineReader {
            inner: BufReader::new(r),
            buf: String::with_capacity(256),
        }
    }

    /// The next line without its terminator, or `None` at EOF. The
    /// returned slice borrows the shared buffer and is invalidated by the
    /// next call.
    fn next_line(&mut self) -> Result<Option<&str>, DatasetError> {
        self.buf.clear();
        let n = self.inner.read_line(&mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(self.buf.trim_end_matches(['\n', '\r'])))
    }
}

/// A measurement's applied voltage, if it is finite and strictly
/// positive. Every reader — both text readers and the binary container —
/// checks it at ingestion.
pub(crate) fn physical_voltage(hours: u32, voltage: f64) -> Result<f64, DatasetError> {
    if voltage > 0.0 && voltage.is_finite() {
        Ok(voltage)
    } else {
        Err(DatasetError::NonPhysicalVoltage {
            hours,
            value: voltage,
        })
    }
}

/// The grid a text header declares. A zero dimension or a `rows × cols`
/// that overflows is a parse error. Nothing is reserved from the header:
/// the matrix grows only as its rows parse, so a short body cannot make
/// the reader allocate for values it never supplied.
fn header_grid(rows: usize, cols: usize) -> Result<MeaGrid, DatasetError> {
    if rows == 0 || cols == 0 {
        return Err(DatasetError::Parse("rows/cols must be positive".into()));
    }
    if rows.checked_mul(cols).is_none() {
        return Err(DatasetError::Parse(format!(
            "rows × cols overflows: {rows} × {cols}"
        )));
    }
    Ok(MeaGrid::new(rows, cols))
}

fn parse_kv<R: Read>(lines: &mut LineReader<R>, key: &str) -> Result<usize, DatasetError> {
    let line = lines
        .next_line()?
        .ok_or_else(|| DatasetError::Parse(format!("missing {key} line")))?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(DatasetError::Parse(format!(
            "expected {key:?}, got {line:?}"
        )));
    }
    parts
        .next()
        .ok_or_else(|| DatasetError::Parse(format!("{key} missing value")))?
        .parse()
        .map_err(|e| DatasetError::Parse(format!("bad {key}: {e}")))
}

fn parse_kv_naive(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    key: &str,
) -> Result<usize, DatasetError> {
    let line = lines
        .next()
        .ok_or_else(|| DatasetError::Parse(format!("missing {key} line")))??;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(DatasetError::Parse(format!(
            "expected {key:?}, got {line:?}"
        )));
    }
    parts
        .next()
        .ok_or_else(|| DatasetError::Parse(format!("{key} missing value")))?
        .parse()
        .map_err(|e| DatasetError::Parse(format!("bad {key}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_session() -> WetLabDataset {
        WetLabDataset::generate(MeaGrid::square(5), &AnomalyConfig::default(), 99).unwrap()
    }

    #[test]
    fn generates_four_time_points() {
        let ds = small_session();
        assert_eq!(ds.measurements.len(), 4);
        let hours: Vec<u32> = ds.measurements.iter().map(|m| m.hours).collect();
        assert_eq!(hours, vec![0, 6, 12, 24]);
        assert!(ds.at_hours(12).is_some());
        assert!(ds.at_hours(13).is_none());
    }

    #[test]
    fn anomalies_grow_over_the_day() {
        let ds = small_session();
        // Mean ground-truth resistance must not decrease with time.
        let means: Vec<f64> = ds
            .measurements
            .iter()
            .map(|m| m.ground_truth.as_ref().unwrap().mean())
            .collect();
        for w in means.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "anomaly growth must raise mean R: {means:?}"
            );
        }
    }

    #[test]
    fn measurements_are_consistent_with_ground_truth() {
        let ds = small_session();
        for m in &ds.measurements {
            let r = m.ground_truth.as_ref().unwrap();
            let z = ForwardSolver::new(r).unwrap().solve_all();
            assert!(m.z.rel_max_diff(&z) < 1e-12);
        }
    }

    #[test]
    fn text_roundtrip_preserves_measurements_bitwise() {
        let ds = small_session();
        let mut buf = Vec::new();
        ds.write_text(&mut buf).unwrap();
        let loaded = WetLabDataset::read_text(&buf[..]).unwrap();
        assert_eq!(loaded.grid, ds.grid);
        assert_eq!(loaded.measurements.len(), 4);
        for (a, b) in loaded.measurements.iter().zip(&ds.measurements) {
            assert_eq!(a.hours, b.hours);
            assert_eq!(a.voltage, b.voltage);
            // Shortest-round-trip formatting makes the text format exact,
            // not merely close — the convert chain's losslessness rests
            // on this.
            for (x, y) in a.z.as_slice().iter().zip(b.z.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "Z must survive the text format");
            }
            assert!(
                a.ground_truth.is_none(),
                "text format carries no ground truth"
            );
        }
    }

    #[test]
    fn buffered_reader_matches_the_naive_reference() {
        let ds = small_session();
        let mut buf = Vec::new();
        ds.write_text(&mut buf).unwrap();
        let fast = WetLabDataset::read_text(&buf[..]).unwrap();
        let naive = WetLabDataset::read_text_naive(&buf[..]).unwrap();
        assert_eq!(fast, naive, "reader rewrite must not change results");
        // Error behavior stays aligned too.
        for garbage in ["", "nonsense\n", "# parma-dataset v1\nrows 2\n"] {
            assert_eq!(
                WetLabDataset::read_text(garbage.as_bytes()).is_err(),
                WetLabDataset::read_text_naive(garbage.as_bytes()).is_err(),
                "{garbage:?}"
            );
        }
    }

    #[test]
    fn binary_roundtrip_through_files_and_sniffing_load() {
        let ds = small_session();
        let dir = std::env::temp_dir().join("parma-dataset-binary-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("session.pbin");
        let txt_path = dir.join("session.txt");
        ds.save_binary(&bin_path).unwrap();
        ds.save(&txt_path).unwrap();
        // load() sniffs: the binary file round-trips the full session
        // (ground truth included), the text file parses as before.
        let from_bin = WetLabDataset::load(&bin_path).unwrap();
        assert_eq!(from_bin, ds, "binary load is the identity");
        let from_txt = WetLabDataset::load(&txt_path).unwrap();
        assert_eq!(from_txt.grid, ds.grid);
        for (a, b) in from_txt.measurements.iter().zip(&ds.measurements) {
            for (x, y) in a.z.as_slice().iter().zip(b.z.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&txt_path).ok();
    }

    #[test]
    fn from_bytes_sniffs_binary_payloads() {
        let ds = small_session();
        let mut bin = Vec::new();
        ds.write_binary(&mut bin).unwrap();
        let loaded = WetLabDataset::from_bytes(&bin).unwrap();
        assert_eq!(loaded, ds, "binary HTTP bodies load like files");
        // Truncated and bit-flipped binary bodies are typed errors.
        assert!(WetLabDataset::from_bytes(&bin[..bin.len() - 3]).is_err());
        let mut corrupt = bin.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(WetLabDataset::from_bytes(&corrupt).is_err());
    }

    #[test]
    fn from_bytes_matches_the_reader_and_rejects_garbage() {
        let ds = small_session();
        let mut buf = Vec::new();
        ds.write_text(&mut buf).unwrap();
        let loaded = WetLabDataset::from_bytes(&buf).unwrap();
        assert_eq!(loaded.grid, ds.grid);
        assert_eq!(loaded.measurements.len(), ds.measurements.len());
        assert!(matches!(
            WetLabDataset::from_bytes(b"not a dataset"),
            Err(DatasetError::Parse(_))
        ));
        let poisoned = String::from_utf8(buf).unwrap().replace("measurement", "m");
        assert!(WetLabDataset::from_bytes(poisoned.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let ds = small_session();
        let dir = std::env::temp_dir().join("parma-dataset-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.txt");
        ds.save(&path).unwrap();
        let loaded = WetLabDataset::load(&path).unwrap();
        assert_eq!(loaded.grid, ds.grid);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_header() {
        let err = WetLabDataset::read_text("nonsense\n".as_bytes()).unwrap_err();
        assert!(matches!(err, DatasetError::Parse(_)));
    }

    #[test]
    fn rejects_truncated_matrix() {
        let text = "# parma-dataset v1\nrows 2\ncols 2\nmeasurement 0 5\n1.0\t2.0\n";
        let err = WetLabDataset::read_text(text.as_bytes()).unwrap_err();
        assert!(matches!(err, DatasetError::Parse(_)));
    }

    #[test]
    fn rejects_ragged_row() {
        let text = "# parma-dataset v1\nrows 1\ncols 3\nmeasurement 0 5\n1.0\t2.0\n";
        let err = WetLabDataset::read_text(text.as_bytes()).unwrap_err();
        match err {
            DatasetError::Parse(s) => assert!(s.contains("expected 3")),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_nonphysical_values_with_typed_location() {
        let text = "# parma-dataset v1\nrows 1\ncols 2\nmeasurement 6 5\n1.0\t-3.0\n";
        let err = WetLabDataset::read_text(text.as_bytes()).unwrap_err();
        match err {
            DatasetError::NonPhysical {
                hours,
                row,
                col,
                value,
            } => {
                assert_eq!((hours, row, col), (6, 0, 1));
                assert_eq!(value, -3.0);
            }
            other => panic!("expected NonPhysical, got {other:?}"),
        }
    }

    #[test]
    fn rejects_nan_inf_and_zero_values() {
        // "NaN" and "inf" parse as valid f64 tokens — the physicality gate
        // (not the parser) must reject them, with the typed variant.
        for (token, hours) in [("NaN", 0u32), ("inf", 12), ("-inf", 24), ("0.0", 6)] {
            let text = format!(
                "# parma-dataset v1\nrows 1\ncols 2\nmeasurement {hours} 5\n1.0\t{token}\n"
            );
            let err = WetLabDataset::read_text(text.as_bytes()).unwrap_err();
            match err {
                DatasetError::NonPhysical {
                    hours: h, row, col, ..
                } => assert_eq!((h, row, col), (hours, 0, 1), "token {token}"),
                other => panic!("token {token}: expected NonPhysical, got {other:?}"),
            }
            // The same tokens as the applied voltage, in both readers.
            let text = format!(
                "# parma-dataset v1\nrows 1\ncols 2\nmeasurement {hours} {token}\n1.0\t1.0\n"
            );
            for parsed in [
                WetLabDataset::read_text(text.as_bytes()),
                WetLabDataset::read_text_naive(text.as_bytes()),
            ] {
                match parsed.unwrap_err() {
                    DatasetError::NonPhysicalVoltage { hours: h, .. } => {
                        assert_eq!(h, hours, "voltage {token}")
                    }
                    other => panic!("voltage {token}: expected NonPhysicalVoltage, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_empty_and_zero_dims() {
        assert!(WetLabDataset::read_text("".as_bytes()).is_err());
        let text = "# parma-dataset v1\nrows 0\ncols 2\n";
        assert!(WetLabDataset::read_text(text.as_bytes()).is_err());
        let text2 = "# parma-dataset v1\nrows 2\ncols 2\n";
        assert!(matches!(
            WetLabDataset::read_text(text2.as_bytes()).unwrap_err(),
            DatasetError::Parse(_)
        ));
    }

    #[test]
    fn huge_and_overflowing_headers_are_parse_errors() {
        // 2³¹ × 2³¹ fits a usize but no memory, so the reader may hold only
        // the one value supplied; 2³² × 2³² overflows a usize outright.
        for dim in [1u64 << 31, 1u64 << 32] {
            let text =
                format!("# parma-dataset v1\nrows {dim}\ncols {dim}\nmeasurement 0 5\n1.0\n");
            for parsed in [
                WetLabDataset::read_text(text.as_bytes()),
                WetLabDataset::read_text_naive(text.as_bytes()),
            ] {
                assert!(
                    matches!(parsed, Err(DatasetError::Parse(_))),
                    "{dim}: {parsed:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 5).unwrap();
        let b = WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 5).unwrap();
        assert_eq!(a, b);
    }
}
