//! CGLS: conjugate gradients on the normal equations, in operator form.
//!
//! Solves `min‖A·x − b‖₂` for sparse rectangular `A` without forming
//! `AᵀA` (two sparse mat-vecs per iteration). This is the inner solver of
//! the full-system Gauss-Newton in `parma::full_newton`, whose Jacobian
//! has `2n³` rows over `(2n−1)n²` columns — forming the normal matrix
//! explicitly would densify badly through the shared `R` columns.

use crate::csr::CsrMatrix;
use crate::error::LinalgError;
use crate::vec_ops;
use mea_obs::hist::Hist;

/// Wall time of one CGLS solve (ms).
static CGLS_MS: Hist = Hist::new("linalg.cgls_ms");

/// Options for [`cgls`].
#[derive(Clone, Debug)]
pub struct CglsOptions {
    /// Stop when ‖Aᵀ(b − A·x)‖ ≤ tol·‖Aᵀb‖ (the normal-equation
    /// residual; the right criterion for least squares).
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for CglsOptions {
    fn default() -> Self {
        CglsOptions {
            tol: 1e-12,
            max_iter: 10_000,
        }
    }
}

/// Result of a CGLS run.
#[derive(Clone, Debug)]
pub struct CglsOutcome {
    /// The least-squares solution estimate.
    pub x: Vec<f64>,
    /// Iterations taken.
    pub iterations: usize,
    /// Final relative normal-equation residual.
    pub residual: f64,
}

/// Convergence statistics of a [`cgls_into`] run; the solution itself
/// stays in the workspace ([`CglsWorkspace::solution`]).
#[derive(Clone, Copy, Debug)]
pub struct CglsStats {
    /// Iterations taken.
    pub iterations: usize,
    /// Final relative normal-equation residual.
    pub residual: f64,
}

/// Reusable CGLS state: solution, residual, normal residual, search
/// direction, and `A·p` buffers. One workspace amortizes every
/// per-iteration (and per-call) allocation across an outer Gauss-Newton
/// loop; buffers regrow only when the operator shape grows.
#[derive(Clone, Debug, Default)]
pub struct CglsWorkspace {
    x: Vec<f64>,
    r: Vec<f64>,
    s: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
}

impl CglsWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The solution estimate written by the last [`cgls_into`] call.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

fn reset(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

/// Runs CGLS from the zero vector into a reusable workspace; the solution
/// lands in [`CglsWorkspace::solution`]. Uses the fused CSR kernels
/// ([`CsrMatrix::mul_vec_norm_sq_into`] and
/// [`CsrMatrix::axpy_mul_transposed_into`]) so each iteration makes one
/// pass per mat-vec and allocates nothing; iterates are bitwise identical
/// to the unfused formulation.
pub fn cgls_into(
    a: &CsrMatrix,
    b: &[f64],
    opts: &CglsOptions,
    ws: &mut CglsWorkspace,
) -> Result<CglsStats, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::InvalidInput(
            "cgls: rhs length mismatch".into(),
        ));
    }
    let n = a.cols();
    reset(&mut ws.x, n);
    ws.r.clear();
    ws.r.extend_from_slice(b); // r = b − A·x with x = 0
    reset(&mut ws.s, n);
    a.mul_vec_transposed_into(&ws.r, &mut ws.s); // s = Aᵀr (normal residual)
                                                 // ‖s‖ = √(s·s) bitwise, so gamma doubles as the residual norm.
    let mut gamma = vec_ops::dot(&ws.s, &ws.s);
    let s0_norm = gamma.sqrt().max(f64::MIN_POSITIVE);
    ws.p.clear();
    ws.p.extend_from_slice(&ws.s);
    reset(&mut ws.q, a.rows());
    let _timer = CGLS_MS.time();
    let count =
        |iterations: usize| mea_obs::counter_add("linalg.cgls.iterations", iterations as u64);
    for it in 0..opts.max_iter {
        let rel = gamma.sqrt() / s0_norm;
        if rel <= opts.tol {
            count(it);
            return Ok(CglsStats {
                iterations: it,
                residual: rel,
            });
        }
        let qq = a.mul_vec_norm_sq_into(&ws.p, &mut ws.q);
        if qq <= 0.0 || !qq.is_finite() {
            // p ∈ ker A: the normal residual should already be ~0; treat
            // as converged at whatever level we reached.
            count(it);
            return Ok(CglsStats {
                iterations: it,
                residual: rel,
            });
        }
        let alpha = gamma / qq;
        vec_ops::axpy(alpha, &ws.p, &mut ws.x);
        a.axpy_mul_transposed_into(-alpha, &ws.q, &mut ws.r, &mut ws.s);
        let gamma_new = vec_ops::dot(&ws.s, &ws.s);
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        for (pi, &si) in ws.p.iter_mut().zip(&ws.s) {
            *pi = si + beta * *pi;
        }
    }
    count(opts.max_iter);
    let rel = gamma.sqrt() / s0_norm;
    if rel <= opts.tol {
        Ok(CglsStats {
            iterations: opts.max_iter,
            residual: rel,
        })
    } else {
        Err(LinalgError::NoConvergence {
            iterations: opts.max_iter,
            residual: rel,
        })
    }
}

/// Runs CGLS from the zero vector.
pub fn cgls(a: &CsrMatrix, b: &[f64], opts: &CglsOptions) -> Result<CglsOutcome, LinalgError> {
    let mut ws = CglsWorkspace::new();
    let stats = cgls_into(a, b, opts, &mut ws)?;
    Ok(CglsOutcome {
        x: std::mem::take(&mut ws.x),
        iterations: stats.iterations,
        residual: stats.residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooTriplets;

    fn matrix(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut t = CooTriplets::new(rows, cols);
        for &(r, c, v) in entries {
            t.push(r, c, v);
        }
        t.to_csr()
    }

    #[test]
    fn square_consistent_system() {
        // [[2,1],[1,3]] x = [3,5] → x = [0.8, 1.4].
        let a = matrix(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let out = cgls(&a, &[3.0, 5.0], &CglsOptions::default()).unwrap();
        assert!((out.x[0] - 0.8).abs() < 1e-9);
        assert!((out.x[1] - 1.4).abs() < 1e-9);
    }

    #[test]
    fn overdetermined_least_squares() {
        // Fit y = c over observations 1, 2, 3: least squares c = 2.
        let a = matrix(3, 1, &[(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)]);
        let out = cgls(&a, &[1.0, 2.0, 3.0], &CglsOptions::default()).unwrap();
        assert!((out.x[0] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_consistent_reaches_zero_residual() {
        // 3 equations, 2 unknowns, consistent by construction.
        let a = matrix(
            3,
            2,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, -1.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
            ],
        );
        let xtrue = [2.0, -1.0];
        let b = a.mul_vec(&xtrue);
        let out = cgls(&a, &b, &CglsOptions::default()).unwrap();
        for (x, t) in out.x.iter().zip(&xtrue) {
            assert!((x - t).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_deficient_returns_minimum_norm_like_solution() {
        // Two identical columns: any split solves it; CGLS from zero gives
        // the minimum-norm split (equal halves).
        let a = matrix(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let out = cgls(&a, &[2.0, 2.0], &CglsOptions::default()).unwrap();
        assert!((out.x[0] - 1.0).abs() < 1e-9);
        assert!((out.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A badly conditioned tall system with a tiny budget.
        let mut entries = Vec::new();
        for i in 0..20 {
            entries.push((i, i % 5, 1.0 + i as f64 * 0.1));
            entries.push((i, (i + 1) % 5, 0.5));
        }
        let a = matrix(20, 5, &entries);
        let b = vec![1.0; 20];
        let opts = CglsOptions {
            max_iter: 1,
            tol: 1e-15,
        };
        assert!(matches!(
            cgls(&a, &b, &opts),
            Err(LinalgError::NoConvergence { .. }) | Ok(_)
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let a = matrix(2, 2, &[(0, 0, 1.0)]);
        assert!(cgls(&a, &[1.0], &CglsOptions::default()).is_err());
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = matrix(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let out = cgls(&a, &[0.0; 3], &CglsOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }
}
