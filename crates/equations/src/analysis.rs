//! Banded-aware symbolic analysis of the joint-constraint pattern — the
//! scale audit for paper-size devices (`n = 64–100`).
//!
//! The `2n³`-equation path multiplies several grid dimensions together
//! (`(2n−1)n²` unknowns, `Θ(n⁴)` Jacobian entries, `2n²`-joint censuses).
//! At `n = 100` every one of those products still fits comfortably in a
//! 64-bit `usize`, but the margins are invisible at the call sites and a
//! 32-bit target or a careless `bytes = nnz * 8 * something` can wrap.
//! [`SystemScale`] centralizes the arithmetic in `u128` so it *cannot*
//! overflow, and [`SystemScale::checked`] reports whether the counts fit
//! the platform's `usize` before anything allocates.
//!
//! The second half is the structural case for the factorization:
//! [`pair_block_pattern`] assembles the symbolic CSR pattern of one
//! pair's `2n`-equation block over the global unknown space — without any
//! dense storage, so it is cheap even at `n = 100` where the global
//! column space has ~2 million unknowns — and [`analyze_pair_block`]
//! compresses it to the pair's own column support to measure bandwidth.
//! The crossbar block is *not* thinly banded (its locally-compressed
//! bandwidth grows with the block, the arrowhead shape of §IV-A), which
//! is exactly why the solver factors the equivalent grounded Laplacian
//! through the structured Schur path instead of a banded elimination.

use crate::constraint::Equation;
use crate::formation::form_pair_equations;
use crate::jacobian::term_columns;
use crate::unknowns::UnknownIndex;
use mea_linalg::CsrPattern;
use mea_model::MeaGrid;

/// The analytic size of a grid's joint-constraint system, computed in
/// `u128` so no intermediate product can overflow regardless of platform
/// or grid size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemScale {
    /// Equations: `(2 + rows−1 + cols−1)·pairs` (`2n³` square).
    pub equations: u128,
    /// Unknowns: `(rows−1 + cols−1)·pairs + crossings` (`(2n−1)n²` square).
    pub unknowns: u128,
    /// Flow terms — the real formation work (`Θ(n⁴)`).
    pub terms: u128,
    /// Upper bound on Jacobian structural entries: every term contributes
    /// at most one `∂/∂R` and two `∂/∂p` positions.
    pub jacobian_nnz_bound: u128,
}

impl SystemScale {
    /// The scale of `grid`'s system, by the §IV-A closed forms. Products
    /// saturate at `u128::MAX` (the term count is `Θ((mn)²)`, which a
    /// pathological `u32::MAX`-per-axis grid pushes past even 128 bits);
    /// any saturated count also fails [`Self::checked`], so nothing
    /// downstream can size an allocation from a wrapped value.
    pub fn of(grid: MeaGrid) -> Self {
        let (m, n) = (grid.rows() as u128, grid.cols() as u128);
        let pairs = m.saturating_mul(n);
        // 2 + (m−1) + (n−1) equations per pair = m + n.
        let equations = (m + n).saturating_mul(pairs);
        let unknowns = ((m - 1) + (n - 1))
            .saturating_mul(pairs)
            .saturating_add(pairs);
        // Terms per pair: source n, dest m, each Ua m, each Ub n.
        let per_pair = (m + n)
            .saturating_add((n - 1).saturating_mul(m))
            .saturating_add((m - 1).saturating_mul(n));
        let terms = pairs.saturating_mul(per_pair);
        SystemScale {
            equations,
            unknowns,
            terms,
            jacobian_nnz_bound: terms.saturating_mul(3),
        }
    }

    /// The counts as platform `usize`s, or `None` when any of them (or the
    /// dense-equivalent byte sizes derived from them) would not fit — the
    /// gate to check before sizing allocations from these numbers.
    pub fn checked(&self) -> Option<CheckedScale> {
        Some(CheckedScale {
            equations: usize::try_from(self.equations).ok()?,
            unknowns: usize::try_from(self.unknowns).ok()?,
            terms: usize::try_from(self.terms).ok()?,
            jacobian_nnz_bound: usize::try_from(self.jacobian_nnz_bound).ok()?,
        })
    }
}

/// [`SystemScale`] narrowed to `usize` (see [`SystemScale::checked`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckedScale {
    /// Equation count.
    pub equations: usize,
    /// Unknown count.
    pub unknowns: usize,
    /// Flow-term count.
    pub terms: usize,
    /// Jacobian structural-entry bound.
    pub jacobian_nnz_bound: usize,
}

/// The symbolic CSR pattern of one pair's equation block over the
/// **global** unknown space: `2 + (rows−1) + (cols−1)` rows (the pair's
/// equations in category order) by `grid.unknowns()` columns.
///
/// Assembly is purely structural — which unknowns each equation touches
/// depends only on the topology, never on measured values — and stores
/// `O(rows·cols)` positions, so the `n = 100` block (200 × 1,990,000)
/// costs ~40k entries rather than any dense intermediate.
pub fn pair_block_pattern(grid: MeaGrid, i: usize, j: usize) -> CsrPattern {
    let index = UnknownIndex::new(grid);
    // Nominal drive values: the structure is value-independent, the
    // formation API just requires them positive.
    let eqs = form_pair_equations(grid, i, j, 5.0, 1000.0);
    let positions = block_positions(&eqs, &index);
    CsrPattern::from_positions(eqs.len(), index.len(), &positions)
        .expect("pair-block positions are in bounds by construction")
}

/// Every structural `(row, col)` position of a pair's equation block.
fn block_positions(eqs: &[Equation], index: &UnknownIndex) -> Vec<(usize, usize)> {
    let mut positions = Vec::new();
    for (row, eq) in eqs.iter().enumerate() {
        for t in &eq.terms {
            let (r_col, from_col, to_col) = term_columns(eq, t, index);
            positions.push((row, r_col));
            if let Some(c) = from_col {
                positions.push((row, c));
            }
            if let Some(c) = to_col {
                positions.push((row, c));
            }
        }
    }
    positions
}

/// Structural summary of one pair's block (see [`analyze_pair_block`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairBlockAnalysis {
    /// Equations in the block (`2n` square).
    pub rows: usize,
    /// Distinct unknowns the block touches: every resistance (the
    /// intermediate balances reach across all wires) plus the pair's own
    /// intermediates — `crossings + (rows−1) + (cols−1)`.
    pub columns_touched: usize,
    /// Structural entries.
    pub nnz: usize,
    /// Half-bandwidth of the block after compressing columns to the
    /// touched set — the banded-elimination figure of merit.
    pub local_bandwidth: usize,
    /// Order of the pair's equivalent grounded Laplacian
    /// (`rows + cols − 1`), the system the forward solver actually
    /// factors for this pair.
    pub laplacian_dim: usize,
}

impl PairBlockAnalysis {
    /// Whether the locally-compressed block is thin-banded: half-bandwidth
    /// below a quarter of the touched width. Crossbar pair blocks never
    /// are (each balance row reaches across a whole wire), which rules
    /// out a classical banded factorization in favor of the structured
    /// Schur path.
    pub fn is_thinly_banded(&self) -> bool {
        4 * self.local_bandwidth < self.columns_touched
    }
}

/// Analyzes one pair's block: assembles the symbolic pattern, compresses
/// its columns to the touched set, and measures the result. Dense-free at
/// every size (the `n = 100` audit test runs this in debug builds, so the
/// index arithmetic is exercised with debug overflow checks on).
pub fn analyze_pair_block(grid: MeaGrid, i: usize, j: usize) -> PairBlockAnalysis {
    let index = UnknownIndex::new(grid);
    let eqs = form_pair_equations(grid, i, j, 5.0, 1000.0);
    let mut positions = block_positions(&eqs, &index);
    positions.sort_unstable();
    positions.dedup();
    // Compress columns to local indices in ascending global order.
    let mut touched: Vec<usize> = positions.iter().map(|&(_, c)| c).collect();
    touched.sort_unstable();
    touched.dedup();
    let local: Vec<(usize, usize)> = positions
        .iter()
        .map(|&(r, c)| {
            (
                r,
                touched.binary_search(&c).expect("column is in touched set"),
            )
        })
        .collect();
    let pattern = CsrPattern::from_positions(eqs.len(), touched.len(), &local)
        .expect("local positions are in bounds by construction");
    PairBlockAnalysis {
        rows: eqs.len(),
        columns_touched: touched.len(),
        nnz: pattern.nnz(),
        local_bandwidth: pattern.bandwidth(),
        laplacian_dim: grid.rows() + grid.cols() - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::JacobianTemplate;
    use crate::system::EquationSystem;
    use mea_model::CrossingMatrix;

    /// Closed-form structural entry count of one pair's block:
    /// source `2c−1`, destination `2r−1`, each Ua `2r`, each Ub `2c`.
    fn expected_block_nnz(rows: usize, cols: usize) -> usize {
        (2 * cols - 1) + (2 * rows - 1) + (cols - 1) * 2 * rows + (rows - 1) * 2 * cols
    }

    #[test]
    fn scale_matches_grid_closed_forms() {
        for grid in [MeaGrid::square(3), MeaGrid::new(2, 5), MeaGrid::square(100)] {
            let scale = SystemScale::of(grid);
            assert_eq!(scale.equations, grid.equations() as u128);
            assert_eq!(scale.unknowns, grid.unknowns() as u128);
            let checked = scale.checked().expect("paper sizes fit 64-bit usize");
            assert_eq!(checked.equations, grid.equations());
            assert_eq!(checked.unknowns, grid.unknowns());
        }
        let g100 = SystemScale::of(MeaGrid::square(100));
        assert_eq!(g100.equations, 2_000_000);
        assert_eq!(g100.unknowns, 1_990_000);
        assert_eq!(g100.terms, 10_000 * (100 + 100 + 99 * 100 + 99 * 100));
        assert_eq!(g100.jacobian_nnz_bound, 3 * g100.terms);
    }

    #[test]
    fn scale_cannot_overflow_even_on_absurd_grids() {
        // u32::MAX² crossings overflow every 64-bit product chain, and the
        // Θ((mn)²) term count even exceeds u128: the arithmetic must
        // saturate (never wrap or panic) and `checked` must refuse the
        // narrowing.
        let grid = MeaGrid::new(u32::MAX as usize, u32::MAX as usize);
        let scale = SystemScale::of(grid);
        let m = u32::MAX as u128;
        assert_eq!(scale.equations, 2 * m * m * m);
        assert_eq!(scale.terms, u128::MAX, "term count saturates");
        assert!(scale.checked().is_none(), "counts exceed 64-bit usize");
    }

    #[test]
    fn n100_pair_block_assembles_symbolically_without_dense_storage() {
        // The scale-audit test the issue asks for: in a debug build this
        // exercises every index computation on the 2n³ path (k′
        // compression, pair offsets, global column mapping) with overflow
        // checks enabled, at paper scale, in milliseconds — because
        // nothing dense is ever materialized.
        let grid = MeaGrid::square(100);
        let pattern = pair_block_pattern(grid, 37, 62);
        pattern.validate().unwrap();
        assert_eq!(pattern.rows(), 200);
        assert_eq!(pattern.cols(), 1_990_000);
        assert_eq!(pattern.nnz(), expected_block_nnz(100, 100));
        // Spot-check the slot map at the extremes of the column space.
        let index = UnknownIndex::new(grid);
        let r_col = index.index_of(crate::unknowns::Unknown::R { i: 37, j: 62 });
        assert!(pattern.slot(0, r_col).is_some(), "source row divides R_ij");
        assert!(pattern.slot(1, r_col).is_some(), "dest row divides R_ij");
        let analysis = analyze_pair_block(grid, 37, 62);
        assert_eq!(analysis.rows, 200);
        assert_eq!(analysis.columns_touched, 100 * 100 + 99 + 99);
        assert_eq!(analysis.nnz, pattern.nnz());
        assert_eq!(analysis.laplacian_dim, 199);
    }

    #[test]
    fn pair_block_rows_match_the_full_jacobian_template() {
        // The standalone block must be exactly the pair's row slice of the
        // whole-system symbolic pattern.
        for (rows, cols) in [(3usize, 3usize), (3, 4), (5, 2)] {
            let grid = MeaGrid::new(rows, cols);
            let z = CrossingMatrix::filled(grid, 1200.0);
            let sys = EquationSystem::assemble(&z, 5.0);
            let template = JacobianTemplate::analyze(&sys);
            let full = template.pattern();
            let per_pair = 2 + (rows - 1) + (cols - 1);
            for (pi, pj) in grid.pair_iter() {
                let block = pair_block_pattern(grid, pi, pj);
                let row0 = grid.pair_index(pi, pj) * per_pair;
                for r in 0..per_pair {
                    let block_cols: Vec<usize> =
                        block.row_slots(r).map(|s| block.col_at(s)).collect();
                    let full_cols: Vec<usize> =
                        full.row_slots(row0 + r).map(|s| full.col_at(s)).collect();
                    assert_eq!(block_cols, full_cols, "pair ({pi},{pj}) row {r}");
                }
            }
        }
    }

    #[test]
    fn crossbar_blocks_are_never_thinly_banded() {
        // The structural fact behind the factorization: balance rows reach
        // across whole wires, so compressing to the touched columns still
        // leaves near-full bandwidth — banded elimination has no purchase
        // and the structured Schur path is the right large-n route.
        for n in [4usize, 8, 16, 32] {
            let a = analyze_pair_block(MeaGrid::square(n), n / 2, n / 3);
            assert!(
                !a.is_thinly_banded(),
                "n = {n}: bandwidth {} of width {}",
                a.local_bandwidth,
                a.columns_touched
            );
        }
    }
}
