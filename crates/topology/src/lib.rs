//! Algebraic-topology substrate for the Parma MEA-parametrization system.
//!
//! This crate implements the mathematical machinery of §III of the paper
//! *Topological Modeling and Parallelization of Multidimensional Data on
//! Microelectrode Arrays*:
//!
//! * [`Simplex`] — abstract simplices (finite vertex sets),
//! * [`SimplicialComplex`] — abstract simplicial complexes with downward
//!   closure and validation of the simplicial intersection property
//!   (the paper's Figure 3 shows a polyhedron that *fails* it),
//! * [`GF2Matrix`] — dense linear algebra over the two-element field, the
//!   coefficient field of the paper's mod-2 chain groups,
//! * [`Chain`] — elements of the chain group `Cᵏ` with the mod-2 "duplicate
//!   simplices cancel" operation,
//! * [`BoundaryOperator`] — the boundary maps `∂ₖ : Cᵏ → Cᵏ⁻¹`,
//! * [`HomologyGroup`] / [`betti_numbers`] — cycle groups `Dᵏ = ker ∂ₖ`,
//!   boundary groups `Bᵏ = im ∂ₖ₊₁`, the quotients `Hᵏ = Dᵏ/Bᵏ` and their
//!   ranks (Betti numbers),
//! * [`cycles`] — explicit fundamental-cycle bases of 1-dimensional complexes
//!   (circuit graphs) via spanning trees; these are the independent
//!   "holes" that Parma parallelizes over,
//! * [`mea_complex`] — the translation of an `n×n` MEA device into an
//!   abstract simplicial complex (Proposition 1 of the paper).
//!
//! # Quick example
//!
//! ```
//! use mea_topology::{SimplicialComplex, Simplex, betti_numbers};
//!
//! // The hollow triangle: three edges, no 2-face. One connected component,
//! // one independent 1-dimensional hole.
//! let complex = SimplicialComplex::from_maximal_simplices([
//!     Simplex::new([0, 1]),
//!     Simplex::new([1, 2]),
//!     Simplex::new([0, 2]),
//! ]).unwrap();
//! let betti = betti_numbers(&complex);
//! assert_eq!(betti, vec![1, 1]);
//! ```

mod boundary;
mod chain;
mod complex;
pub mod cycles;
mod gf2;
mod homology;
pub mod lattice;
pub mod mea_complex;
pub mod persistence;
mod simplex;

pub use boundary::BoundaryOperator;
pub use chain::Chain;
pub use complex::{ComplexError, SimplicialComplex};
pub use cycles::{fundamental_cycles, CycleBasis, FundamentalCycle};
pub use gf2::GF2Matrix;
pub use homology::{betti_numbers, euler_characteristic, homology, HomologyGroup};
pub use mea_complex::{mea_to_complex, MeaComplexReport};
pub use persistence::{persistence_barcode, Barcode, Filtration, PersistenceInterval};
pub use simplex::Simplex;
