//! Property tests for the topology-keyed plan cache: the cache key is the
//! exact `(rows, cols)` geometry, so relabeling-equal devices (a 3×4 and a
//! 4×3 have isomorphic circuit graphs) must never share an entry, and a
//! cached plan must be indistinguishable from a freshly analyzed one.
//!
//! These pin the invariants `parma serve` leans on: a cache hit skips the
//! symbolic analysis *only* because `SolvePlan` is topology-pure — handing
//! job B the plan built for job A cannot change a single bit of B's solve.

use mea_model::{AnomalyConfig, ForwardSolver, MeaGrid};
use parma::plan_cache::PlanCache;
use parma::prelude::CancelToken;
use parma::solver::{SolvePlan, SolveScratch};
use parma::{ParmaConfig, ParmaSolver};
use std::sync::Arc;

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(128))]

    /// `get_or_analyze` is observationally a fresh `SolvePlan::new`: same
    /// geometry, bit-identical conditioning scalar, and the second request
    /// for the same geometry returns the very same allocation.
    #[test]
    fn prop_cached_plan_equals_fresh_analysis(
        rows in 1usize..8,
        cols in 1usize..8,
    ) {
        let cache = PlanCache::new();
        let grid = MeaGrid::new(rows, cols);
        let fresh = SolvePlan::new(grid);
        let cached = cache.get_or_analyze(grid);
        proptest::prop_assert_eq!(cached.grid(), fresh.grid());
        proptest::prop_assert_eq!(cached.kappa().to_bits(), fresh.kappa().to_bits());
        // The hit path returns the cached allocation, not a rebuild.
        let again = cache.get_or_analyze(grid);
        proptest::prop_assert!(Arc::ptr_eq(&cached, &again));
        proptest::prop_assert_eq!(cache.stats(), (1, 1));
    }

    /// Distinct geometries never collide — including relabeling-equal
    /// pairs like r×c vs c×r, whose graphs are isomorphic but whose plans
    /// index crossings differently.
    #[test]
    fn prop_distinct_geometries_never_collide(
        r1 in 1usize..8,
        c1 in 1usize..8,
        r2 in 1usize..8,
        c2 in 1usize..8,
    ) {
        let cache = PlanCache::new();
        let a = cache.get_or_analyze(MeaGrid::new(r1, c1));
        let b = cache.get_or_analyze(MeaGrid::new(r2, c2));
        if (r1, c1) == (r2, c2) {
            proptest::prop_assert!(Arc::ptr_eq(&a, &b));
            proptest::prop_assert_eq!(cache.len(), 1);
        } else {
            proptest::prop_assert!(!Arc::ptr_eq(&a, &b));
            proptest::prop_assert_eq!(cache.len(), 2);
            proptest::prop_assert_eq!(a.grid(), MeaGrid::new(r1, c1));
            proptest::prop_assert_eq!(b.grid(), MeaGrid::new(r2, c2));
        }
        // Every request is accounted for: hits + misses == requests.
        let (hits, misses) = cache.stats();
        proptest::prop_assert_eq!(hits + misses, 2);
    }

    /// The cache hands racing builders a single winner: whatever
    /// interleaving, all callers observe one allocation per key and the
    /// ledger stays consistent.
    #[test]
    fn prop_concurrent_requests_converge_on_one_plan(
        rows in 2usize..6,
        cols in 2usize..6,
        threads in 2usize..6,
    ) {
        let cache = Arc::new(PlanCache::new());
        let grid = MeaGrid::new(rows, cols);
        let plans: Vec<Arc<SolvePlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || cache.get_or_analyze(grid))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &plans[1..] {
            proptest::prop_assert!(Arc::ptr_eq(&plans[0], p));
        }
        proptest::prop_assert_eq!(cache.len(), 1);
        let (hits, misses) = cache.stats();
        // Losing racers are double-counted as a miss then a hit on retry,
        // never dropped: at least one miss, and every thread got a plan.
        proptest::prop_assert!(misses >= 1);
        proptest::prop_assert!(hits + misses >= threads as u64);
    }
}

/// Bitwise end-to-end: solving through a shared (hit) plan produces the
/// same bits as solving through a private fresh plan. One concrete case
/// outside the proptest loop — a full solve per case would dominate the
/// suite's runtime.
#[test]
fn cached_plan_solve_is_bitwise_identical_to_fresh() {
    let grid = MeaGrid::square(6);
    let (truth, _) = AnomalyConfig::default().generate(grid, 77);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();

    let cache = PlanCache::new();
    cache.get_or_analyze(grid); // prime: the solve below takes the hit path
    let shared = cache.get_or_analyze(grid);
    assert_eq!(cache.stats(), (1, 1));

    let solver = ParmaSolver::new(ParmaConfig::default());
    let solve = |plan: &SolvePlan| {
        let mut scratch = SolveScratch::new();
        solver
            .solve_supervised(plan, &z, None, &mut scratch, &CancelToken::unbounded())
            .unwrap()
    };
    let via_cache = solve(&shared);
    let via_fresh = solve(&SolvePlan::new(grid));
    assert_eq!(via_cache.iterations, via_fresh.iterations);
    assert_eq!(
        via_cache.residual.to_bits(),
        via_fresh.residual.to_bits(),
        "residual bits drifted between cached and fresh plans"
    );
    for i in 0..grid.rows() {
        for j in 0..grid.cols() {
            assert_eq!(
                via_cache.resistors.get(i, j).to_bits(),
                via_fresh.resistors.get(i, j).to_bits(),
                "resistor ({i}, {j}) differs between cached and fresh plans"
            );
        }
    }
}
