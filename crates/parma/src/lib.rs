//! # Parma — topological parallelization of MEA parametrization
//!
//! A from-scratch Rust reproduction of *Topological Modeling and
//! Parallelization of Multidimensional Data on Microelectrode Arrays*
//! (Tawose, Li, Yang, Yan, Zhao — IPDPS 2022).
//!
//! Given the pair-wise measured impedances `Z[i][j]` of an `n×n`
//! microelectrode array, Parma recovers the unknown per-crossing
//! resistances `R[i][j]` — the parametrization that downstream anomaly
//! detection needs — by:
//!
//! 1. modeling the device as an abstract simplicial complex whose first
//!    homology group exposes `(n−1)²` independent Kirchhoff cycles
//!    (`mea-topology`, re-exported through [`betti`]),
//! 2. replacing the exponential all-paths formulation with the polynomial
//!    joint-constraint system of §IV-A (`mea-equations`),
//! 3. solving the resulting nonlinear system by a damped conductance
//!    fixed-point iteration whose per-pair updates are embarrassingly
//!    parallel ([`solver`]), under any of the paper's execution strategies
//!    (`mea-parallel`).
//!
//! # Quickstart
//!
//! ```
//! use parma::prelude::*;
//!
//! // A synthetic 8×8 device with one anomalous region (the wet-lab
//! // substitute described in DESIGN.md).
//! let grid = MeaGrid::square(8);
//! let (ground_truth, _regions) = AnomalyConfig::default().generate(grid, 42);
//! let measured = ForwardSolver::new(&ground_truth).unwrap().solve_all();
//!
//! // Recover the resistor map from measurements alone.
//! let config = ParmaConfig::default();
//! let solution = ParmaSolver::new(config).solve(&measured).unwrap();
//! assert!(solution.resistors.rel_max_diff(&ground_truth) < 1e-6);
//! ```

pub mod batch;
pub mod betti;
pub mod classical;
pub mod config;
pub mod detect;
pub mod diagnostics;
pub mod dist;
pub mod error;
pub mod formation;
pub mod full_newton;
pub mod newton;
pub mod path_solver;
pub mod persistence;
pub mod pipeline;
pub mod plan_cache;
pub mod service;
pub mod session;
pub mod solver;
pub mod supervisor;

pub use batch::{execute, Job, Outcome};
pub use betti::{parallelism_bound, BettiSchedule};
pub use config::ParmaConfig;
pub use detect::{detect_anomalies, DetectionReport};
pub use error::ParmaError;
pub use formation::form_equations_parallel;
pub use plan_cache::PlanCache;
pub use service::{AdmissionError, JobState, JobView, ServiceConfig, ServiceStats, SolveService};
pub use session::SessionStore;
pub use solver::{
    ParmaSolution, ParmaSolver, RecoveryAction, RecoveryEvent, SolvePlan, SolveScratch,
};
pub use supervisor::{AttemptFailure, FailureKind, FailureReport, SupervisorConfig};

/// Everything a typical caller needs.
pub mod prelude {
    pub use crate::betti::parallelism_bound;
    pub use crate::config::ParmaConfig;
    pub use crate::detect::{detect_anomalies, DetectionReport};
    pub use crate::error::ParmaError;
    pub use crate::pipeline::{Pipeline, TimePointResult};
    pub use crate::plan_cache::PlanCache;
    pub use crate::service::{AdmissionError, JobState, JobView, ServiceConfig, SolveService};
    pub use crate::session::SessionStore;
    pub use crate::solver::{
        ParmaSolution, ParmaSolver, RecoveryAction, RecoveryEvent, SolvePlan, SolveScratch,
    };
    pub use crate::supervisor::{FailureKind, FailureReport, SupervisorConfig};
    pub use mea_model::{
        AnomalyConfig, CrossingMatrix, ForwardSolver, MeaGrid, ResistorGrid, WetLabDataset, ZMatrix,
    };
    pub use mea_parallel::{CancelToken, Strategy};
}
