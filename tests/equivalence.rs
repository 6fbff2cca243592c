//! Strategy-equivalence and physics-consistency invariants across crates:
//! every execution strategy must produce identical equation systems, and
//! they and the solver output must agree with Kirchhoff physics.

use mea_equations::{form_all_equations, EquationSystem};
use mea_parallel::Strategy;
use mea_topology::{betti_numbers, mea_complex};
use parma::prelude::*;
use parma::{form_equations_parallel, BettiSchedule};

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::SingleThread,
        Strategy::Parallel4,
        Strategy::BalancedParallel { threads: 2 },
        Strategy::BalancedParallel { threads: 5 },
        Strategy::FineGrained { threads: 2 },
        Strategy::FineGrained { threads: 3 },
        Strategy::WorkStealing { threads: 2 },
        Strategy::WorkStealing { threads: 4 },
    ]
}

fn measured(n: usize, seed: u64) -> (ResistorGrid, ZMatrix) {
    let (truth, _) = AnomalyConfig::default().generate(MeaGrid::square(n), seed);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();
    (truth, z)
}

#[test]
fn formation_is_strategy_invariant() {
    let (_, z) = measured(6, 99);
    let reference = form_all_equations(&z, 5.0);
    for s in strategies() {
        assert_eq!(form_equations_parallel(&z, 5.0, s), reference, "{s:?}");
    }
}

#[test]
fn formed_equations_agree_with_physics_under_every_strategy() {
    let (truth, z) = measured(5, 123);
    for s in strategies() {
        let eqs = form_equations_parallel(&z, 5.0, s);
        let sys = EquationSystem::from_equations(&z, 5.0, eqs);
        let x = sys.exact_unknowns_for(&truth).unwrap();
        assert!(sys.max_residual(&x) < 1e-9, "{s:?}");
    }
}

#[test]
fn betti_number_cyclomatic_number_and_schedule_agree() {
    for (m, n) in [(2usize, 2usize), (3, 3), (4, 7), (6, 5)] {
        let grid = MeaGrid::new(m, n);
        // Homology of the joint-level complex…
        let joint = betti_numbers(&mea_complex::mea_to_complex(m, n));
        // …homology of the contracted wire graph…
        let wire = betti_numbers(&mea_complex::mea_wire_complex(m, n));
        // …the graph-theoretic cyclomatic number…
        let cyclomatic = m * n - (m + n) + 1;
        // …and the scheduler's bound must all coincide.
        assert_eq!(joint[1], cyclomatic);
        assert_eq!(wire[1], cyclomatic);
        assert_eq!(BettiSchedule::new(grid).parallelism_bound(), cyclomatic);
        assert_eq!(parma::parallelism_bound(grid), (m - 1) * (n - 1));
    }
}

#[test]
fn solver_accuracy_is_seed_and_size_robust() {
    for (n, seed) in [(3usize, 1u64), (5, 2), (8, 3), (12, 4)] {
        let (truth, z) = measured(n, seed);
        let sol = ParmaSolver::new(ParmaConfig::default()).solve(&z).unwrap();
        assert!(
            sol.resistors.rel_max_diff(&truth) < 1e-5,
            "n = {n}, seed = {seed}: {}",
            sol.resistors.rel_max_diff(&truth)
        );
    }
}

#[test]
fn equation_census_matches_the_paper_for_paper_scales() {
    // §IV-A: 2n³ equations and (2n−1)n² unknowns at every paper scale.
    for n in [10usize, 20, 50, 100] {
        let grid = MeaGrid::square(n);
        assert_eq!(grid.equations(), 2 * n * n * n);
        assert_eq!(grid.unknowns(), (2 * n - 1) * n * n);
    }
}
