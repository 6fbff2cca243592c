//! Pins the tentpole allocation guarantee: with a reusable
//! [`SolveScratch`], the steady-state sweep iteration of
//! [`ParmaSolver::solve_supervised`] performs **zero** heap
//! allocations. Verified with the tracking global allocator: two solves
//! of the same problem that differ only in iteration budget must allocate
//! exactly the same number of times — every per-solve allocation is
//! iteration-count independent, so any per-iteration allocation would
//! show up as a difference.

use mea_model::{AnomalyConfig, ForwardSolver, MeaGrid};
use parma::prelude::CancelToken;
use parma::{ParmaConfig, ParmaSolver, SolvePlan, SolveScratch};

#[global_allocator]
static ALLOC: mea_memtrack::TrackingAllocator = mea_memtrack::TrackingAllocator::new();

#[test]
fn steady_state_iteration_allocates_nothing() {
    let grid = MeaGrid::square(6);
    let (truth, _) = AnomalyConfig::default().generate(grid, 17);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();
    let plan = SolvePlan::new(grid);
    let token = CancelToken::unbounded();

    // Unreachable tolerance + recovery off: both runs exhaust their
    // budget, so iteration counts are exactly max_iter.
    let run = |max_iter: usize, scratch: &mut SolveScratch| {
        let solver = ParmaSolver::new(ParmaConfig {
            max_iter,
            tol: 1e-30,
            recovery: false,
            ..Default::default()
        });
        let err = solver
            .solve_supervised(&plan, &z, None, scratch, &token)
            .unwrap_err();
        let count = mea_memtrack::allocation_count();
        drop(err);
        count
    };

    let mut scratch = SolveScratch::new();
    // Warm-up: sizes every lazily-grown buffer (scratch, history capacity
    // is per-solve) before measuring.
    let before_warmup = mea_memtrack::allocation_count();
    run(30, &mut scratch);
    let after_warmup = mea_memtrack::allocation_count();
    assert!(
        after_warmup > before_warmup,
        "sanity: a solve performs some per-solve allocation"
    );

    // The allocation counter is process-global and the test harness's own
    // threads occasionally allocate, so each budget is measured several
    // times and the minimum delta taken — harness noise is strictly
    // additive, while the solve itself is deterministic.
    let mut measure = |max_iter: usize| {
        (0..5)
            .map(|_| {
                let base = mea_memtrack::allocation_count();
                run(max_iter, &mut scratch) - base
            })
            .min()
            .unwrap()
    };
    let short_delta = measure(30);
    let long_delta = measure(80);

    assert_eq!(
        short_delta, long_delta,
        "50 extra sweep iterations must allocate zero extra times \
         (30-iter solve: {short_delta} allocations, 80-iter: {long_delta})"
    );
}
