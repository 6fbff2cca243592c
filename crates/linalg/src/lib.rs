//! Numeric substrate for the Parma MEA-parametrization system.
//!
//! The paper's reference implementation leaned on NumPy/SciPy; the Rust
//! sparse-solver ecosystem is thinner, so this crate provides everything the
//! rest of the workspace needs, built from scratch and property-tested:
//!
//! * [`DenseMatrix`] — row-major dense matrices with LU (partial pivoting)
//!   and Cholesky factorizations, multi-right-hand-side solves and inverses,
//! * [`CsrMatrix`] — compressed sparse row matrices with triplet assembly
//!   and matrix-vector products,
//! * [`conjugate_gradient`] — Jacobi-preconditioned CG for s.p.d. systems,
//! * [`newton_solve`] — a damped Newton driver for square nonlinear systems,
//! * [`fixed_point`] — a generic damped fixed-point driver with
//!   residual-based convergence control,
//! * [`vec_ops`] — the handful of BLAS-1 kernels everything else uses,
//! * [`BipartiteFactor`] — a structured Schur-complement factorization of
//!   grounded crossbar Laplacians with explicit [`simd`] lanes and a
//!   [`Parallelism`] seam for intra-solve row-chunk parallelism; every
//!   forward refactor of Parma's inverse solve goes through it.

mod bipartite;
mod cg;
mod cgls;
mod csr;
mod dense;
mod error;
mod fixedpoint;
pub mod kernels;
mod newton;
pub mod par;
pub mod simd;
pub mod spectral;
pub mod stationary;
pub mod vec_ops;

pub use bipartite::{BipartiteFactor, BipartiteSystem, InverseScope, CHUNK};
pub use cg::{conjugate_gradient, CgOptions, CgOutcome};
pub use cgls::{cgls, cgls_into, CglsOptions, CglsOutcome, CglsStats, CglsWorkspace};
pub use csr::{CooTriplets, CsrMatrix, CsrPattern};
pub use dense::{CholeskyFactor, DenseMatrix, LuFactor};
pub use error::LinalgError;
pub use fixedpoint::{fixed_point, FixedPointOptions, FixedPointOutcome};
pub use newton::{newton_solve, NewtonOptions, NewtonOutcome};
pub use par::{Parallelism, Sequential};
pub use simd::F64x4;
pub use spectral::{condition_estimate, inverse_power_iteration, power_iteration, EigenEstimate};
pub use stationary::{stationary_solve, StationaryMethod, StationaryOptions, StationaryOutcome};
