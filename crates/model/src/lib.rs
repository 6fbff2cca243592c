//! MEA device model for the Parma reproduction.
//!
//! This crate is the "physics" substrate: everything the paper's system
//! needs to know about the device itself.
//!
//! * [`grid`] — the `m×n` MEA geometry: wires, joints (Figure 1 numbering),
//!   resistor grids and measured-impedance matrices,
//! * [`graph`] — the wire-node identifiers ([`WireId`]) of the wire-level
//!   `K_{m,n}`,
//! * [`paths`] — the exponential all-pairs path baseline of §II-C: simple
//!   path enumeration, the `n^(n+1)` growth estimate, and the naive
//!   parallel-resistor aggregation formula,
//! * [`forward`] — the forward nodal solver `Z = F(R)` (Kirchhoff-exact
//!   effective resistances through the weighted Laplacian of `K_{m,n}`),
//! * [`anomaly`] — synthetic ground-truth resistance maps with injected
//!   anomaly regions in the paper's wet-lab range (2,000–11,000 kΩ),
//! * [`dataset`] — the wet-lab dataset substitute: 0/6/12/24-hour time
//!   series with text import/export mirroring the paper's Excel→text
//!   pipeline,
//! * [`binfmt`] — the `parma-bin/v1` production container: checksummed
//!   little-endian `f64` blocks with a zero-copy reader and the
//!   physicality gate run at ingest,
//! * [`mapped`] — read-only file mapping (raw `mmap` on Linux, aligned
//!   owned read elsewhere) backing the zero-copy reader.

pub mod anomaly;
pub mod binfmt;
pub mod dataset;
pub mod faults;
pub mod forward;
pub mod graph;
pub mod grid;
pub mod mapped;
pub mod noise;
pub mod paths;
pub mod rng;

pub use anomaly::{AnomalyConfig, AnomalyRegion};
pub use binfmt::{BinFile, BinSection};
pub use dataset::{DatasetError, Measurement, WetLabDataset};
pub use forward::{ForwardSolver, ForwardWorkspace, PairPotentials};
pub use graph::WireId;
pub use grid::{CrossingMatrix, MeaGrid, ResistorGrid, ZMatrix};
pub use mapped::MappedFile;
pub use noise::NoiseModel;
pub use paths::{enumerate_paths, exact_path_count, paper_path_count, WirePath};
