//! Betti-aware work decomposition — the bridge from §III's homology to
//! §IV's parallel schedules.
//!
//! The first Betti number of the MEA complex counts its independent
//! Kirchhoff cycles: `β₁ = (m−1)(n−1)`. Parma's runtime work units (pairs
//! and per-pair constraint categories) inherit their independence from
//! those cycles; this module returns that bound in closed form (its test
//! derives the same value from the actual GF(2) homology) and manufactures
//! the [`WorkItem`] list for equation formation.

use mea_model::MeaGrid;
use mea_parallel::{WorkItem, CATEGORY_COUNT};

/// The intrinsic parallelism of a device: `β₁ = (rows−1)(cols−1)` of the
/// joint-level simplicial complex — the paper's `(n−1)^k` for `k = 2`.
pub fn parallelism_bound(grid: MeaGrid) -> usize {
    (grid.rows() - 1) * (grid.cols() - 1)
}

/// A Betti-aware schedule: the formation work items and the useful
/// worker count.
#[derive(Clone, Debug)]
pub struct BettiSchedule {
    grid: MeaGrid,
    bound: usize,
}

impl BettiSchedule {
    /// Builds the schedule.
    pub fn new(grid: MeaGrid) -> Self {
        BettiSchedule {
            grid,
            bound: parallelism_bound(grid),
        }
    }

    /// The geometry.
    pub fn grid(&self) -> MeaGrid {
        self.grid
    }

    /// `β₁` — the maximum useful fine-grained parallelism.
    pub fn parallelism_bound(&self) -> usize {
        self.bound
    }

    /// Caps a requested worker count at the useful parallelism (requesting
    /// more workers than independent cycles wastes threads, the effect the
    /// paper observes at small `n`).
    pub fn effective_workers(&self, requested: usize) -> usize {
        requested.clamp(1, self.bound.max(1))
    }

    /// One work item per (pair, constraint category) — the formation
    /// granularity. `id = pair·4 + category`; costs carry the §IV-C skew:
    /// the two intermediate categories are `(n−1)`-fold heavier.
    pub fn formation_items(&self) -> Vec<WorkItem> {
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        // Expected term counts per category block (see FormationCensus).
        let costs = [
            cols as u64,                // source: n terms
            rows as u64,                // destination: m terms
            ((cols - 1) * rows) as u64, // Ua block: (n−1)·m terms
            ((rows - 1) * cols) as u64, // Ub block: (m−1)·n terms
        ];
        (0..self.grid.pairs() * CATEGORY_COUNT)
            .map(|id| {
                let category = id % CATEGORY_COUNT;
                WorkItem {
                    id,
                    category,
                    cost: costs[category].max(1),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_topology::{betti_numbers, mea_complex};

    #[test]
    fn bound_matches_closed_form() {
        // β₁ derived from the GF(2) homology of the joint-level complex.
        for (m, n) in [
            (2usize, 2usize),
            (3, 3),
            (4, 6),
            (5, 5),
            (1, 1),
            (1, 5),
            (5, 1),
            (2, 7),
            (7, 2),
            (9, 4),
        ] {
            let homology = betti_numbers(&mea_complex::mea_to_complex(m, n))[1];
            assert_eq!(parallelism_bound(MeaGrid::new(m, n)), homology, "{m}×{n}");
        }
    }

    #[test]
    fn single_wire_pair_has_no_parallel_cycles() {
        assert_eq!(parallelism_bound(MeaGrid::square(1)), 0);
        let s = BettiSchedule::new(MeaGrid::square(1));
        assert_eq!(s.effective_workers(16), 1);
    }

    #[test]
    fn effective_workers_clamps_to_bound() {
        let s = BettiSchedule::new(MeaGrid::square(4)); // β₁ = 9
        assert_eq!(s.effective_workers(4), 4);
        assert_eq!(s.effective_workers(100), 9);
        assert_eq!(s.effective_workers(0), 1);
    }

    #[test]
    fn formation_items_carry_the_category_skew() {
        let s = BettiSchedule::new(MeaGrid::square(5));
        let items = s.formation_items();
        assert_eq!(items.len(), 25 * 4);
        // Intermediate blocks must be heavier than source/destination.
        assert!(items[2].cost > items[0].cost);
        assert!(items[3].cost > items[1].cost);
        // Category pattern repeats per pair.
        assert_eq!(items[4].category, 0);
        assert_eq!(items[7].category, 3);
    }
}
