//! Structured factorization of grounded bipartite (crossbar) Laplacians.
//!
//! The per-pair joint system of an m×n crossbar is, after grounding one
//! vertical wire, the `dim = m + (n−1)` matrix
//!
//! ```text
//!     L = [ D_h  −G  ]      D_h : m×m diagonal (horizontal wire degrees)
//!         [ −Gᵀ  D_v ]      D_v : nv×nv diagonal (vertical wire degrees)
//!                           G   : m×nv cross-conductances, nv = n−1
//! ```
//!
//! Dense Cholesky ignores this shape and pays `O(dim³)` with strided
//! triangular solves. This module factors through the vertical-wire Schur
//! complement `S = D_v − Ŵᵀ·Ŵ` (with `Ŵ = √(D_h⁻¹)·G`, so `S` is exactly
//! symmetric) and assembles the inverse blocks directly:
//!
//! ```text
//!     (L⁻¹)_VV = S⁻¹
//!     (L⁻¹)_HV = D_h⁻¹ G S⁻¹            = U·S⁻¹        (U = D_h⁻¹G)
//!     (L⁻¹)_HH = D_h⁻¹ + (U·S⁻¹)·Uᵀ
//! ```
//!
//! Every O(n³) stage is a set of contiguous row dot-products or row axpys —
//! the shapes [`crate::simd`] lanes are built for — and the stages
//! parallelize over disjoint row chunks through the [`Parallelism`] seam
//! with a partition that depends only on the problem size, so results are
//! bitwise identical across executors and thread counts.
//!
//! Long loops poll an optional stop condition once per [`CHUNK`]-row task
//! and between stages, so a deadline can interrupt a large factorization
//! mid-flight ([`LinalgError::Cancelled`]) instead of only between solver
//! iterations.

use crate::dense::{CholeskyFactor, DenseMatrix};
use crate::error::LinalgError;
use crate::par::Parallelism;
use crate::simd;
use std::sync::atomic::{AtomicBool, Ordering};

/// Rows per parallel task — also the cancellation polling granularity.
/// Fixed (never derived from thread count) so the work partition, and
/// therefore the bits, cannot depend on the executor.
pub const CHUNK: usize = 16;

/// Which inverse blocks a factorization must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InverseScope {
    /// All blocks, including the full m×m HH block (`O(m²·nv)` extra work).
    Full,
    /// Only what the sweep hot path reads: the VV block, the HV block, and
    /// the HH *diagonal*. HH off-diagonals are left zero.
    SweepOnly,
}

/// The grounded bipartite system in structured form: two diagonal blocks
/// plus the dense cross-conductance block, assembled entry-by-entry like
/// the dense Laplacian but in `O(m·nv)` storage instead of `O(dim²)`.
#[derive(Clone, Debug, Default)]
pub struct BipartiteSystem {
    m: usize,
    nv: usize,
    /// Horizontal degrees `D_h` (length m). Includes grounded-column mass.
    dh: Vec<f64>,
    /// Vertical degrees `D_v` (length nv).
    dv: Vec<f64>,
    /// Cross block `G`, row-major m×nv: `g[i·nv + j]`.
    g: Vec<f64>,
}

impl BipartiteSystem {
    /// An empty system; call [`reset`](Self::reset) before assembling.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes for `m` horizontal wires and `nv` (non-grounded) vertical
    /// wires and zeroes all coefficients. Keeps allocations when the shape
    /// is unchanged.
    pub fn reset(&mut self, m: usize, nv: usize) {
        self.m = m;
        self.nv = nv;
        self.dh.clear();
        self.dh.resize(m, 0.0);
        self.dv.clear();
        self.dv.resize(nv, 0.0);
        self.g.clear();
        self.g.resize(m * nv, 0.0);
    }

    /// Horizontal wire count m.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Non-grounded vertical wire count nv = n − 1.
    pub fn nv(&self) -> usize {
        self.nv
    }

    /// Grounded dimension m + nv.
    pub fn dim(&self) -> usize {
        self.m + self.nv
    }

    /// Adds a crossing conductance between horizontal wire `i` and
    /// (non-grounded) vertical wire `j`.
    pub fn add_cross(&mut self, i: usize, j: usize, g: f64) {
        self.dh[i] += g;
        self.dv[j] += g;
        self.g[i * self.nv + j] += g;
    }

    /// Adds a conductance from horizontal wire `i` to the grounded vertical
    /// wire: contributes to `D_h` only (its row/column were eliminated).
    pub fn add_ground(&mut self, i: usize, g: f64) {
        self.dh[i] += g;
    }

    /// Assembles the dense grounded Laplacian `[D_h −G; −Gᵀ D_v]` into
    /// `out` (the reference the structured inverse is tested against).
    pub fn to_dense(&self, out: &mut DenseMatrix) {
        let dim = self.dim();
        assert_eq!(out.rows(), dim, "to_dense: row mismatch");
        assert_eq!(out.cols(), dim, "to_dense: col mismatch");
        out.as_mut_slice().fill(0.0);
        for i in 0..self.m {
            out[(i, i)] = self.dh[i];
            for j in 0..self.nv {
                let g = self.g[i * self.nv + j];
                out[(i, self.m + j)] = -g;
                out[(self.m + j, i)] = -g;
            }
        }
        for j in 0..self.nv {
            out[(self.m + j, self.m + j)] = self.dv[j];
        }
    }
}

/// Shared-pointer view of a matrix for writes to *disjoint* rows from
/// parallel tasks. Safety rests on the stage partitions below: every row
/// index is owned by exactly one task.
struct RowTable {
    ptr: *mut f64,
    cols: usize,
    rows: usize,
}

unsafe impl Sync for RowTable {}

impl RowTable {
    fn new(m: &mut DenseMatrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        RowTable {
            ptr: m.as_mut_slice().as_mut_ptr(),
            cols,
            rows,
        }
    }

    /// # Safety
    /// `r < self.rows`, and no other task may hold row `r` concurrently.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(&self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r * self.cols), self.cols) }
    }
}

/// Number of CHUNK-row tasks covering `rows` rows.
fn task_count(rows: usize) -> usize {
    rows.div_ceil(CHUNK)
}

/// Reusable workspace + factorization of a [`BipartiteSystem`].
///
/// [`factor_invert_into`](Self::factor_invert_into) is the whole API: it
/// factors and writes the requested inverse blocks in one pass, reusing all
/// internal buffers across calls (allocation-free after warm-up at a fixed
/// shape).
#[derive(Clone, Debug)]
pub struct BipartiteFactor {
    m: usize,
    nv: usize,
    /// `1 / D_h` (length m).
    dhinv: Vec<f64>,
    /// `√(1 / D_h)` (length m).
    sdhinv: Vec<f64>,
    /// `Ŵᵀ`, nv×m with contiguous rows: `wt[j][i] = g[i][j]·√dhinv[i]`.
    wt: DenseMatrix,
    /// `U = D_h⁻¹·G`, m×nv with contiguous rows.
    u: DenseMatrix,
    /// Schur complement `S = D_v − ŴᵀŴ`, nv×nv.
    schur: DenseMatrix,
    chol: CholeskyFactor,
    /// `S⁻¹`, nv×nv.
    sinv: DenseMatrix,
    /// `X_hv = U·S⁻¹`, m×nv.
    xhv: DenseMatrix,
    col: Vec<f64>,
}

impl Default for BipartiteFactor {
    fn default() -> Self {
        Self::new()
    }
}

impl BipartiteFactor {
    /// An empty factor; buffers size themselves on first use.
    pub fn new() -> Self {
        BipartiteFactor {
            m: usize::MAX,
            nv: usize::MAX,
            dhinv: Vec::new(),
            sdhinv: Vec::new(),
            wt: DenseMatrix::zeros(0, 0),
            u: DenseMatrix::zeros(0, 0),
            schur: DenseMatrix::zeros(0, 0),
            chol: CholeskyFactor::empty(),
            sinv: DenseMatrix::zeros(0, 0),
            xhv: DenseMatrix::zeros(0, 0),
            col: Vec::new(),
        }
    }

    fn ensure(&mut self, m: usize, nv: usize) {
        if self.m != m || self.nv != nv {
            self.m = m;
            self.nv = nv;
            self.dhinv = vec![0.0; m];
            self.sdhinv = vec![0.0; m];
            self.wt = DenseMatrix::zeros(nv, m);
            self.u = DenseMatrix::zeros(m, nv);
            self.schur = DenseMatrix::zeros(nv, nv);
            self.sinv = DenseMatrix::zeros(nv, nv);
            self.xhv = DenseMatrix::zeros(m, nv);
            self.col = vec![0.0; nv];
        }
    }

    /// Factors `sys` and writes the inverse of the grounded Laplacian into
    /// `out` (`dim×dim`, fully overwritten).
    ///
    /// * `scope` selects which blocks are produced; under
    ///   [`InverseScope::SweepOnly`] the HH off-diagonals are zeroed, not
    ///   computed.
    /// * `par` executes the row-chunk tasks; the chunk partition is fixed
    ///   by the shape, so any executor yields bitwise-identical output.
    /// * `should_stop` is polled once per row chunk and between stages;
    ///   when it returns `true` the factorization aborts with
    ///   [`LinalgError::Cancelled`] and `out` is unspecified.
    pub fn factor_invert_into(
        &mut self,
        sys: &BipartiteSystem,
        out: &mut DenseMatrix,
        scope: InverseScope,
        par: &dyn Parallelism,
        should_stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(), LinalgError> {
        let (m, nv) = (sys.m, sys.nv);
        if m == 0 {
            return Err(LinalgError::InvalidInput(
                "bipartite system needs at least one horizontal wire".into(),
            ));
        }
        let dim = m + nv;
        if out.rows() != dim || out.cols() != dim {
            return Err(LinalgError::ShapeMismatch(format!(
                "inverse needs {dim}×{dim} output, got {}×{}",
                out.rows(),
                out.cols()
            )));
        }
        self.ensure(m, nv);

        let stop_hit = AtomicBool::new(false);
        // One poll per chunk: cheap relative to a CHUNK-row stage slice,
        // tight enough to bound deadline overshoot by a single chunk.
        let poll = |stop_hit: &AtomicBool| -> bool {
            if stop_hit.load(Ordering::Relaxed) {
                return true;
            }
            match should_stop {
                Some(f) if f() => {
                    stop_hit.store(true, Ordering::Relaxed);
                    true
                }
                _ => false,
            }
        };
        let bail = |stop_hit: &AtomicBool| -> Result<(), LinalgError> {
            if stop_hit.load(Ordering::Relaxed) || poll(stop_hit) {
                Err(LinalgError::Cancelled)
            } else {
                Ok(())
            }
        };

        // Stage A (sequential, O(m·nv)): diagonal inverses and the two
        // scaled copies of G.
        for (i, &d) in sys.dh.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite(i));
            }
            self.dhinv[i] = 1.0 / d;
            self.sdhinv[i] = self.dhinv[i].sqrt();
        }
        for j in 0..nv {
            let row = self.wt.row_mut(j);
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = sys.g[i * nv + j] * self.sdhinv[i];
            }
        }
        for i in 0..m {
            let di = self.dhinv[i];
            let (src, dst) = (&sys.g[i * nv..(i + 1) * nv], self.u.row_mut(i));
            for (s, d) in src.iter().zip(dst.iter_mut()) {
                *d = s * di;
            }
        }
        bail(&stop_hit)?;

        // Stage B (parallel, O(nv²·m/2)): Schur complement upper triangle
        // by pinned row dots, then a sequential mirror.
        {
            let wt = &self.wt;
            let dv = &sys.dv;
            let table = RowTable::new(&mut self.schur);
            par.run(task_count(nv), &|t| {
                if poll(&stop_hit) {
                    return;
                }
                let lo = t * CHUNK;
                let hi = (lo + CHUNK).min(nv);
                #[allow(clippy::needless_range_loop)]
                for j in lo..hi {
                    // Safety: rows [lo, hi) are owned by task t alone.
                    let srow = unsafe { table.row_mut(j) };
                    let wj = wt.row(j);
                    for (k, slot) in srow.iter_mut().enumerate().skip(j) {
                        let dotv = simd::dot(wj, wt.row(k));
                        *slot = if k == j { dv[j] - dotv } else { -dotv };
                    }
                }
            });
        }
        bail(&stop_hit)?;
        for j in 0..nv {
            for k in (j + 1)..nv {
                self.schur[(k, j)] = self.schur[(j, k)];
            }
        }

        // Stage C (sequential, O(nv³)): dense Cholesky of S and its
        // inverse. At paper scale this is ~1/8 of the dense path's cube.
        self.chol.refactor_from(&self.schur)?;
        bail(&stop_hit)?;
        self.chol.inverse_into(&mut self.sinv, &mut self.col);
        bail(&stop_hit)?;

        // Stage D (parallel, O(m·nv²)): X_hv = U·S⁻¹ as row-axpy chains —
        // one accumulator per output element, ascending k, so lane width
        // and executor cannot reorder the sums.
        {
            let u = &self.u;
            let sinv = &self.sinv;
            let table = RowTable::new(&mut self.xhv);
            par.run(task_count(m), &|t| {
                if poll(&stop_hit) {
                    return;
                }
                let lo = t * CHUNK;
                let hi = (lo + CHUNK).min(m);
                for i in lo..hi {
                    // Safety: rows [lo, hi) are owned by task t alone.
                    let xrow = unsafe { table.row_mut(i) };
                    xrow.fill(0.0);
                    let urow = u.row(i);
                    for (k, &uik) in urow.iter().enumerate() {
                        simd::axpy(uik, sinv.row(k), xrow);
                    }
                }
            });
        }
        bail(&stop_hit)?;

        // Stage E: assemble the output blocks. VV + HV are O(dim²) copies;
        // the HH gemm (Full scope only) is the O(m²·nv/2) parallel stage.
        out.as_mut_slice().fill(0.0);
        for j in 0..nv {
            out.row_mut(m + j)[m..].copy_from_slice(self.sinv.row(j));
        }
        for i in 0..m {
            out.row_mut(i)[m..].copy_from_slice(self.xhv.row(i));
            for j in 0..nv {
                out[(m + j, i)] = self.xhv[(i, j)];
            }
        }
        match scope {
            InverseScope::SweepOnly => {
                for i in 0..m {
                    out[(i, i)] = self.dhinv[i] + simd::dot(self.xhv.row(i), self.u.row(i));
                }
            }
            InverseScope::Full => {
                let u = &self.u;
                let xhv = &self.xhv;
                let dhinv = &self.dhinv;
                let table = RowTable::new(out);
                par.run(task_count(m), &|t| {
                    if poll(&stop_hit) {
                        return;
                    }
                    let lo = t * CHUNK;
                    let hi = (lo + CHUNK).min(m);
                    #[allow(clippy::needless_range_loop)]
                    for i in lo..hi {
                        // Safety: rows [lo, hi) are owned by task t alone,
                        // and this stage touches columns i..m only.
                        let orow = unsafe { table.row_mut(i) };
                        let xrow = xhv.row(i);
                        for (i2, slot) in orow.iter_mut().enumerate().take(m).skip(i) {
                            let dotv = simd::dot(xrow, u.row(i2));
                            *slot = if i2 == i { dhinv[i] + dotv } else { dotv };
                        }
                    }
                });
                bail(&stop_hit)?;
                for i in 0..m {
                    for i2 in (i + 1)..m {
                        out[(i2, i)] = out[(i, i2)];
                    }
                }
            }
        }
        bail(&stop_hit)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::Sequential;

    /// Runs the fixed task partition in *reverse* order and reports a fake
    /// thread count — if any stage's output depended on task order or on
    /// `threads()`, the bitwise pins against [`Sequential`] would break.
    struct ReverseOrder;
    impl Parallelism for ReverseOrder {
        fn threads(&self) -> usize {
            4
        }
        fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
            for t in (0..tasks).rev() {
                f(t);
            }
        }
    }

    fn demo_system(m: usize, n: usize, seed: u64) -> BipartiteSystem {
        let mut sys = BipartiteSystem::new();
        sys.reset(m, n - 1);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            0.2 + (state % 1000) as f64 / 250.0
        };
        for i in 0..m {
            for j in 0..n {
                let g = next();
                if j + 1 == n {
                    sys.add_ground(i, g);
                } else {
                    sys.add_cross(i, j, g);
                }
            }
        }
        sys
    }

    fn invert(sys: &BipartiteSystem, scope: InverseScope, par: &dyn Parallelism) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(sys.dim(), sys.dim());
        let mut fac = BipartiteFactor::new();
        fac.factor_invert_into(sys, &mut out, scope, par, None)
            .expect("factorization must succeed");
        out
    }

    #[test]
    fn to_dense_matches_hand_assembly() {
        let mut sys = BipartiteSystem::new();
        sys.reset(2, 1);
        sys.add_cross(0, 0, 2.0);
        sys.add_cross(1, 0, 3.0);
        sys.add_ground(0, 5.0);
        let mut lap = DenseMatrix::zeros(3, 3);
        sys.to_dense(&mut lap);
        let expect =
            DenseMatrix::from_rows(&[&[7.0, 0.0, -2.0], &[0.0, 3.0, -3.0], &[-2.0, -3.0, 5.0]]);
        assert_eq!(lap.as_slice(), expect.as_slice());
    }

    #[test]
    fn full_inverse_matches_dense_cholesky() {
        for (m, n) in [(3, 3), (5, 4), (4, 7), (9, 9), (1, 5), (6, 2)] {
            let sys = demo_system(m, n, (m * 31 + n) as u64);
            let structured = invert(&sys, InverseScope::Full, &Sequential);
            let mut lap = DenseMatrix::zeros(sys.dim(), sys.dim());
            sys.to_dense(&mut lap);
            let dense = lap.cholesky().expect("SPD").inverse();
            let scale = dense.norm_max();
            for r in 0..sys.dim() {
                for c in 0..sys.dim() {
                    let err = (structured[(r, c)] - dense[(r, c)]).abs();
                    assert!(
                        err <= 1e-12 * scale.max(1.0),
                        "({m}×{n}) entry ({r},{c}): {} vs {}",
                        structured[(r, c)],
                        dense[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_only_matches_full_on_hot_entries() {
        let sys = demo_system(6, 5, 42);
        let full = invert(&sys, InverseScope::Full, &Sequential);
        let sweep = invert(&sys, InverseScope::SweepOnly, &Sequential);
        let (m, dim) = (sys.m(), sys.dim());
        for r in 0..dim {
            for c in 0..dim {
                let hh_off = r < m && c < m && r != c;
                if hh_off {
                    assert_eq!(sweep[(r, c)], 0.0, "HH off-diagonal must stay zero");
                } else {
                    assert_eq!(
                        sweep[(r, c)].to_bits(),
                        full[(r, c)].to_bits(),
                        "entry ({r},{c}) must be bitwise shared between scopes"
                    );
                }
            }
        }
    }

    #[test]
    fn executor_and_task_order_do_not_change_bits() {
        for (m, n) in [(5, 4), (20, 19), (33, 18)] {
            let sys = demo_system(m, n, 7);
            for scope in [InverseScope::Full, InverseScope::SweepOnly] {
                let seq = invert(&sys, scope, &Sequential);
                let rev = invert(&sys, scope, &ReverseOrder);
                for (a, b) in seq.as_slice().iter().zip(rev.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{m}×{n} {scope:?}");
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let big = demo_system(10, 9, 3);
        let small = demo_system(4, 4, 5);
        let mut fac = BipartiteFactor::new();
        let mut out = DenseMatrix::zeros(big.dim(), big.dim());
        fac.factor_invert_into(&big, &mut out, InverseScope::Full, &Sequential, None)
            .unwrap();
        let first = out.as_slice().to_vec();
        // Shrink, then return to the original shape: bits must match.
        let mut out_small = DenseMatrix::zeros(small.dim(), small.dim());
        fac.factor_invert_into(
            &small,
            &mut out_small,
            InverseScope::Full,
            &Sequential,
            None,
        )
        .unwrap();
        fac.factor_invert_into(&big, &mut out, InverseScope::Full, &Sequential, None)
            .unwrap();
        for (a, b) in first.iter().zip(out.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn stop_condition_cancels_factorization() {
        let sys = demo_system(20, 20, 11);
        let mut out = DenseMatrix::zeros(sys.dim(), sys.dim());
        let mut fac = BipartiteFactor::new();
        let always = || true;
        let err = fac
            .factor_invert_into(
                &sys,
                &mut out,
                InverseScope::Full,
                &Sequential,
                Some(&always),
            )
            .unwrap_err();
        assert_eq!(err, LinalgError::Cancelled);
        // A stop condition that never fires still succeeds.
        let never = || false;
        fac.factor_invert_into(
            &sys,
            &mut out,
            InverseScope::Full,
            &Sequential,
            Some(&never),
        )
        .unwrap();
    }

    #[test]
    fn cancellation_overshoot_is_bounded_to_chunk_granularity() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Two halves of the polling contract. First: once the stop
        // condition returns true it is never consulted again (the hit is
        // cached), so the post-cancellation overshoot is the in-flight
        // chunk, not the rest of the factorization.
        let sys = demo_system(70, 70, 3);
        let mut out = DenseMatrix::zeros(sys.dim(), sys.dim());
        let mut fac = BipartiteFactor::new();
        let calls = AtomicUsize::new(0);
        let fire_at = 5usize;
        let stop = || calls.fetch_add(1, Ordering::SeqCst) + 1 >= fire_at;
        let err = fac
            .factor_invert_into(&sys, &mut out, InverseScope::Full, &Sequential, Some(&stop))
            .unwrap_err();
        assert_eq!(err, LinalgError::Cancelled);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            fire_at,
            "no polls may happen after the first true"
        );
        // Second: a run that never cancels polls at most once per
        // CHUNK-row task plus once per stage boundary — chunk granularity,
        // not per-row or per-element.
        let (m, nv) = (sys.m(), sys.nv());
        let polls = AtomicUsize::new(0);
        let never = || {
            polls.fetch_add(1, Ordering::SeqCst);
            false
        };
        fac.factor_invert_into(
            &sys,
            &mut out,
            InverseScope::Full,
            &Sequential,
            Some(&never),
        )
        .unwrap();
        let chunk_tasks = nv.div_ceil(CHUNK) + 2 * m.div_ceil(CHUNK);
        let stage_boundaries = 8;
        assert!(
            polls.load(Ordering::SeqCst) <= chunk_tasks + stage_boundaries,
            "{} polls exceeds the chunk-granularity budget of {}",
            polls.load(Ordering::SeqCst),
            chunk_tasks + stage_boundaries
        );
    }

    #[test]
    fn single_vertical_wire_degenerates_cleanly() {
        // n = 1: every vertical wire is the grounded one, nv = 0, and the
        // inverse is just diag(1 / D_h).
        let mut sys = BipartiteSystem::new();
        sys.reset(3, 0);
        sys.add_ground(0, 2.0);
        sys.add_ground(1, 4.0);
        sys.add_ground(2, 8.0);
        let out = invert(&sys, InverseScope::Full, &Sequential);
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 / sys.dh[r] } else { 0.0 };
                assert_eq!(out[(r, c)], expect);
            }
        }
    }

    #[test]
    fn non_positive_degree_is_rejected() {
        let mut sys = BipartiteSystem::new();
        sys.reset(2, 1);
        sys.add_cross(0, 0, 1.0);
        // Row 1 has no conductance at all: D_h[1] = 0.
        let mut out = DenseMatrix::zeros(3, 3);
        let err = BipartiteFactor::new()
            .factor_invert_into(&sys, &mut out, InverseScope::Full, &Sequential, None)
            .unwrap_err();
        assert_eq!(err, LinalgError::NotPositiveDefinite(1));
    }
}
