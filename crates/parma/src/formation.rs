//! Parallel equation formation — the workload of the paper's Figures 6, 7
//! and 9, runnable under every execution strategy.
//!
//! The work unit is one `(pair, category)` block (see
//! [`crate::betti::BettiSchedule::formation_items`]); blocks are formed
//! independently and flattened back into the canonical pair-major,
//! category-ordered layout, so the output is *identical* to the sequential
//! `mea_equations::form_all_equations` regardless of strategy — the
//! property the equivalence tests pin down.

use crate::betti::BettiSchedule;
use mea_equations::{form_category_equations, ConstraintCategory, Equation};
use mea_model::ZMatrix;
use mea_obs::hist::Hist;
use mea_parallel::{execute, Strategy, CATEGORY_COUNT};

/// Wall time of one whole-array formation under a strategy (ms).
static FORM_EQUATIONS_MS: Hist = Hist::new("parma.form_equations_ms");

/// Forms the full joint-constraint system under a strategy.
///
/// Equations come back in the canonical order (pair-major; source,
/// destination, `Ua*`, `Ub*` within each pair).
pub fn form_equations_parallel(z: &ZMatrix, voltage: f64, strategy: Strategy) -> Vec<Equation> {
    let _timer = FORM_EQUATIONS_MS.time();
    let grid = z.grid();
    let schedule = BettiSchedule::new(grid);
    let items = schedule.formation_items();
    let blocks: Vec<Vec<Equation>> = execute(strategy, &items, |w| {
        let pair = w.id / CATEGORY_COUNT;
        let (i, j) = (pair / grid.cols(), pair % grid.cols());
        form_category_equations(
            grid,
            i,
            j,
            voltage,
            z.get(i, j),
            ConstraintCategory::ALL[w.category],
        )
    });
    let mut out = Vec::with_capacity(grid.equations());
    for block in blocks {
        out.extend(block);
    }
    mea_obs::counter_add("equations.formed", out.len() as u64);
    out
}

/// The four §IV-A category labels in block order, for reporting.
pub fn category_order() -> [ConstraintCategory; 4] {
    ConstraintCategory::ALL
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_equations::form_all_equations;
    use mea_model::{AnomalyConfig, ForwardSolver, MeaGrid};

    fn measured(n: usize, seed: u64) -> ZMatrix {
        let (truth, _) = AnomalyConfig::default().generate(MeaGrid::square(n), seed);
        ForwardSolver::new(&truth).unwrap().solve_all()
    }

    #[test]
    fn every_strategy_reproduces_the_sequential_system() {
        let z = measured(5, 17);
        let reference = form_all_equations(&z, 5.0);
        for strategy in [
            Strategy::SingleThread,
            Strategy::Parallel4,
            Strategy::BalancedParallel { threads: 3 },
            Strategy::FineGrained { threads: 2 },
            Strategy::WorkStealing { threads: 2 },
        ] {
            let formed = form_equations_parallel(&z, 5.0, strategy);
            assert_eq!(formed, reference, "strategy {strategy:?} diverged");
        }
    }

    #[test]
    fn works_on_rectangular_grids() {
        let grid = MeaGrid::new(2, 4);
        let (truth, _) = AnomalyConfig::default().generate(grid, 3);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let formed = form_equations_parallel(&z, 5.0, Strategy::BalancedParallel { threads: 2 });
        assert_eq!(formed, form_all_equations(&z, 5.0));
    }

    #[test]
    fn formed_system_validates_against_physics() {
        use mea_equations::EquationSystem;
        let grid = MeaGrid::square(4);
        let (truth, _) = AnomalyConfig::default().generate(grid, 8);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let formed = form_equations_parallel(&z, 5.0, Strategy::FineGrained { threads: 2 });
        let sys = EquationSystem::from_equations(&z, 5.0, formed);
        let x = sys.exact_unknowns_for(&truth).unwrap();
        assert!(sys.max_residual(&x) < 1e-9);
    }

    #[test]
    fn category_order_is_canonical() {
        assert_eq!(category_order()[0], ConstraintCategory::Source);
        assert_eq!(category_order()[3], ConstraintCategory::IntermediateUb);
    }
}
