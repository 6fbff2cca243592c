//! Dense linear algebra over GF(2), the coefficient field of the paper's
//! mod-2 chain groups.
//!
//! Rows are stored as packed `u64` blocks, so elimination steps are
//! word-parallel XORs. Rank computation over GF(2) is the workhorse behind
//! Betti numbers: `βₖ = (#k-simplices − rank ∂ₖ) − rank ∂ₖ₊₁`.

/// A dense matrix over the two-element field.
///
/// Bit `(r, c)` is stored in word `c / 64` of row `r`. The matrix owns its
/// dimensions separately from storage so zero-row/zero-column matrices work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GF2Matrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl GF2Matrix {
    /// The all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        GF2Matrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = GF2Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds from an iterator of `(row, col)` positions holding 1 bits.
    /// Duplicate positions toggle (mod-2 semantics).
    pub fn from_ones<I: IntoIterator<Item = (usize, usize)>>(
        rows: usize,
        cols: usize,
        ones: I,
    ) -> Self {
        let mut m = GF2Matrix::zeros(rows, cols);
        for (r, c) in ones {
            m.flip(r, c);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        let w = self.data[r * self.words_per_row + c / 64];
        (w >> (c % 64)) & 1 == 1
    }

    /// Writes entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.words_per_row + c / 64;
        let mask = 1u64 << (c % 64);
        if v {
            self.data[idx] |= mask;
        } else {
            self.data[idx] &= !mask;
        }
    }

    /// Toggles entry `(r, c)` (mod-2 addition of 1).
    pub fn flip(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.words_per_row + c / 64] ^= 1u64 << (c % 64);
    }

    /// XORs row `src` into row `dst` (`dst += src` over GF(2)).
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        debug_assert!(src != dst);
        let w = self.words_per_row;
        let (a, b) = (src * w, dst * w);
        // Split borrows via raw slices over disjoint ranges.
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b);
            for k in 0..w {
                hi[k] ^= lo[a + k];
            }
        } else {
            let (lo, hi) = self.data.split_at_mut(a);
            for k in 0..w {
                lo[b + k] ^= hi[k];
            }
        }
    }

    /// Swaps two rows.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let w = self.words_per_row;
        for k in 0..w {
            self.data.swap(r1 * w + k, r2 * w + k);
        }
    }

    /// Matrix product over GF(2). Panics on shape mismatch.
    pub fn mul(&self, rhs: &GF2Matrix) -> GF2Matrix {
        assert_eq!(self.cols, rhs.rows, "GF2Matrix::mul shape mismatch");
        let mut out = GF2Matrix::zeros(self.rows, rhs.cols);
        let w = rhs.words_per_row;
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    // out.row(r) ^= rhs.row(c)
                    let (orow, rrow) = (r * out.words_per_row, c * w);
                    for k in 0..w {
                        out.data[orow + k] ^= rhs.data[rrow + k];
                    }
                }
            }
        }
        out
    }

    /// Applies the matrix to a column vector given as a bitset slice of
    /// `cols` entries packed in `u64` words. Returns the packed result.
    pub fn mul_vec(&self, v: &[u64]) -> Vec<u64> {
        assert!(v.len() >= self.words_per_row.max(1) || self.cols == 0);
        let out_words = self.rows.div_ceil(64);
        let mut out = vec![0u64; out_words.max(1)];
        for r in 0..self.rows {
            let mut acc = 0u64;
            let base = r * self.words_per_row;
            for (dw, vw) in self.data[base..base + self.words_per_row].iter().zip(v) {
                acc ^= dw & vw;
            }
            if acc.count_ones() % 2 == 1 {
                out[r / 64] ^= 1u64 << (r % 64);
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> GF2Matrix {
        let mut out = GF2Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let base = r * self.words_per_row;
            for k in 0..self.words_per_row {
                let mut word = self.data[base + k];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    out.set(k * 64 + bit, r, true);
                    word &= word - 1;
                }
            }
        }
        out
    }

    /// Rank via Gaussian elimination on a working copy.
    pub fn rank(&self) -> usize {
        self.clone().eliminate().0
    }

    /// In-place forward elimination to row-echelon form.
    ///
    /// Returns `(rank, pivot_cols)`; pivot columns are in increasing order.
    pub fn eliminate(&mut self) -> (usize, Vec<usize>) {
        let mut pivots = Vec::new();
        let mut row = 0usize;
        for col in 0..self.cols {
            if row == self.rows {
                break;
            }
            // Find a pivot at or below `row`.
            let mut pivot = None;
            for r in row..self.rows {
                if self.get(r, col) {
                    pivot = Some(r);
                    break;
                }
            }
            let Some(p) = pivot else { continue };
            self.swap_rows(row, p);
            // Clear this column everywhere else (Gauss-Jordan: also above,
            // which gives reduced echelon form and simpler kernel extraction).
            for r in 0..self.rows {
                if r != row && self.get(r, col) {
                    self.xor_row_into(row, r);
                }
            }
            pivots.push(col);
            row += 1;
        }
        (pivots.len(), pivots)
    }

    /// A basis of the kernel (null space), one packed bit-vector of length
    /// `cols` per basis element. `dim ker = cols − rank`.
    pub fn kernel_basis(&self) -> Vec<Vec<u64>> {
        let mut work = self.clone();
        let (_rank, pivots) = work.eliminate();
        let is_pivot = {
            let mut v = vec![false; self.cols];
            for &c in &pivots {
                v[c] = true;
            }
            v
        };
        let words = self.cols.div_ceil(64).max(1);
        let mut basis = Vec::new();
        for free_col in 0..self.cols {
            if is_pivot[free_col] {
                continue;
            }
            let mut vec = vec![0u64; words];
            vec[free_col / 64] |= 1u64 << (free_col % 64);
            // For each pivot row, if that row has a 1 in free_col, then the
            // pivot variable equals the free variable (mod 2).
            for (prow, &pcol) in pivots.iter().enumerate() {
                if work.get(prow, free_col) {
                    vec[pcol / 64] |= 1u64 << (pcol % 64);
                }
            }
            basis.push(vec);
        }
        basis
    }

    /// Solves `A x = b` over GF(2) if consistent. `b` is a packed bit-vector
    /// of `rows` entries; the solution (if any) is a packed bit-vector of
    /// `cols` entries. Returns `None` when the system is inconsistent.
    pub fn solve(&self, b: &[u64]) -> Option<Vec<u64>> {
        // Build the augmented matrix [A | b].
        let mut aug = GF2Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            for k in 0..self.words_per_row {
                aug.data[r * aug.words_per_row + k] = self.data[r * self.words_per_row + k];
            }
            // Mask stray bits beyond self.cols in the last copied word.
            if !self.cols.is_multiple_of(64) && self.words_per_row > 0 {
                let lastw = r * aug.words_per_row + self.words_per_row - 1;
                aug.data[lastw] &= (1u64 << (self.cols % 64)) - 1;
            }
            if (b[r / 64] >> (r % 64)) & 1 == 1 {
                aug.set(r, self.cols, true);
            }
        }
        let (_, pivots) = aug.eliminate();
        // Inconsistent iff the augmentation column is a pivot.
        if pivots.contains(&self.cols) {
            return None;
        }
        let words = self.cols.div_ceil(64).max(1);
        let mut x = vec![0u64; words];
        for (prow, &pcol) in pivots.iter().enumerate() {
            if aug.get(prow, self.cols) {
                x[pcol / 64] |= 1u64 << (pcol % 64);
            }
        }
        Some(x)
    }

    /// Number of 1 entries.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bit(v: &[u64], i: usize) -> bool {
        (v[i / 64] >> (i % 64)) & 1 == 1
    }

    #[test]
    fn identity_rank_is_full() {
        assert_eq!(GF2Matrix::identity(10).rank(), 10);
        assert_eq!(GF2Matrix::zeros(5, 7).rank(), 0);
    }

    #[test]
    fn get_set_flip_roundtrip() {
        let mut m = GF2Matrix::zeros(3, 130); // spans multiple words
        m.set(2, 129, true);
        assert!(m.get(2, 129));
        m.flip(2, 129);
        assert!(!m.get(2, 129));
        m.flip(0, 63);
        m.flip(0, 64);
        assert!(m.get(0, 63) && m.get(0, 64));
    }

    #[test]
    fn duplicate_ones_cancel() {
        let m = GF2Matrix::from_ones(2, 2, [(0, 0), (0, 0), (1, 1)]);
        assert!(!m.get(0, 0));
        assert!(m.get(1, 1));
    }

    #[test]
    fn known_rank_example() {
        // Rows: [1 1 0], [0 1 1], [1 0 1] — third is sum of first two.
        let m = GF2Matrix::from_ones(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn mul_with_identity_is_noop() {
        let m = GF2Matrix::from_ones(3, 4, [(0, 1), (1, 3), (2, 0), (2, 2)]);
        assert_eq!(m.mul(&GF2Matrix::identity(4)), m);
        assert_eq!(GF2Matrix::identity(3).mul(&m), m);
    }

    #[test]
    fn transpose_involutive() {
        let m = GF2Matrix::from_ones(5, 70, [(0, 69), (4, 0), (2, 33), (3, 64)]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rank(), m.rank());
    }

    #[test]
    fn kernel_vectors_are_annihilated() {
        let m = GF2Matrix::from_ones(3, 5, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]);
        let basis = m.kernel_basis();
        assert_eq!(basis.len(), 5 - m.rank());
        for v in &basis {
            let out = m.mul_vec(v);
            assert!(out.iter().all(|&w| w == 0), "kernel vector not annihilated");
        }
    }

    #[test]
    fn solve_consistent_system() {
        // x0 + x1 = 1, x1 = 1 => x0 = 0, x1 = 1
        let m = GF2Matrix::from_ones(2, 2, [(0, 0), (0, 1), (1, 1)]);
        let b = vec![0b11u64];
        let x = m.solve(&b).expect("consistent");
        assert!(!bit(&x, 0));
        assert!(bit(&x, 1));
    }

    #[test]
    fn solve_detects_inconsistency() {
        // x0 = 1 and x0 = 0 simultaneously.
        let m = GF2Matrix::from_ones(2, 1, [(0, 0), (1, 0)]);
        let b = vec![0b01u64];
        assert!(m.solve(&b).is_none());
    }

    #[test]
    fn solve_wide_matrix() {
        let m = GF2Matrix::from_ones(2, 100, [(0, 99), (1, 64)]);
        let b = vec![0b11u64];
        let x = m.solve(&b).unwrap();
        assert!(bit(&x, 99) && bit(&x, 64));
    }

    #[test]
    fn eliminate_reports_pivot_columns() {
        let mut m = GF2Matrix::from_ones(3, 4, [(0, 1), (1, 1), (1, 3), (2, 3)]);
        let (rank, pivots) = m.eliminate();
        assert_eq!(rank, 2);
        assert_eq!(pivots, vec![1, 3]);
    }

    proptest! {
        #[test]
        fn prop_rank_bounds(rows in 0usize..20, cols in 0usize..20, seed in any::<u64>()) {
            let mut state = seed;
            let mut m = GF2Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if state >> 63 == 1 {
                        m.set(r, c, true);
                    }
                }
            }
            let rank = m.rank();
            prop_assert!(rank <= rows.min(cols));
            prop_assert_eq!(rank, m.transpose().rank());
            // rank-nullity
            prop_assert_eq!(m.kernel_basis().len(), cols - rank);
        }

        #[test]
        fn prop_solve_constructed_rhs(rows in 1usize..15, cols in 1usize..15, seed in any::<u64>()) {
            // Build A and x, then solve A x = b; a solution must exist and
            // must reproduce b (it need not equal x when A is singular).
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 63 == 1
            };
            let mut a = GF2Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if next() { a.set(r, c, true); }
                }
            }
            let words = cols.div_ceil(64);
            let mut x = vec![0u64; words];
            for c in 0..cols {
                if next() { x[c / 64] |= 1 << (c % 64); }
            }
            let b = a.mul_vec(&x);
            let sol = a.solve(&b).expect("constructed system must be consistent");
            let b2 = a.mul_vec(&sol);
            prop_assert_eq!(b, b2);
        }
    }
}
