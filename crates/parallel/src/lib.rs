//! Parallel execution strategies for Parma — the paper's §IV/§V taxonomy.
//!
//! The paper evaluates four ways to run the joint-constraint workload:
//!
//! * **Single-thread** — the serialized baseline of ref [15],
//! * **Parallel** — exactly four threads, one per constraint category
//!   (source / destination / `Ua` / `Ub`); bounded by the category skew,
//! * **Balanced Parallel** — deterministic work balancing across `k`
//!   threads (a static longest-processing-time partition, §IV-C.1),
//! * **PyMP-k** — fine-grained dynamic work sharing (§IV-C.2), which this
//!   crate provides twice: via a rayon pool ([`Strategy::FineGrained`]) and
//!   via our own crossbeam-deque work-stealing scheduler
//!   ([`Strategy::WorkStealing`]),
//!
//! plus MPI across nodes for Figure 10, reproduced here by the
//! deterministic rank simulator in [`mpi_sim`] (see DESIGN.md §2 for the
//! substitution argument).
//!
//! Work is expressed as a list of [`WorkItem`]s — index, category, cost
//! estimate — mapped through a caller-supplied function; results always
//! come back in item order regardless of strategy, which is what makes the
//! strategy-equivalence property tests possible.

pub mod balanced;
pub mod budget;
pub mod dist;
pub mod hetero;
pub mod metrics;
pub mod mpi_sim;
pub mod pool;
mod strategy;
pub mod supervise;

pub use balanced::partition_lpt;
pub use budget::ThreadBudget;
pub use dist::{
    read_frame, shard_ranges, write_frame, Frame, FrameError, HeartbeatPolicy, MsgKind,
    PayloadReader, PayloadWriter, PROTOCOL_VERSION,
};
pub use hetero::{simulate_hetero, HeteroClusterModel, HeteroPartition};
pub use metrics::ExecutionReport;
pub use mpi_sim::{ClusterModel, CommModel, MpiSimReport};
pub use pool::{JobFailure, JobPanic, PoolStats, RunOutcome, WorkStealingPool, WorkerStats};
pub use strategy::{execute, execute_with_report, Strategy, WorkItem, CATEGORY_COUNT};
pub use supervise::{CancelToken, Interrupt};
