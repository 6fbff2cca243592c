//! Jacobi-preconditioned conjugate gradients for symmetric positive
//! (semi-)definite systems.
//!
//! Used for grounded-Laplacian solves when the caller prefers an iterative
//! method over the dense factorizations (e.g. very large synthetic arrays).

use crate::csr::CsrMatrix;
use crate::error::LinalgError;
use crate::vec_ops;
use mea_obs::hist::Hist;

/// Wall time of one CG solve (ms).
static CG_MS: Hist = Hist::new("linalg.cg_ms");

/// Options for [`conjugate_gradient`].
#[derive(Clone, Debug)]
pub struct CgOptions {
    /// Relative residual target: stop when ‖r‖₂ ≤ tol·‖b‖₂.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Use the diagonal (Jacobi) preconditioner. Diagonal entries must be
    /// positive when enabled.
    pub jacobi: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            max_iter: 10_000,
            jacobi: true,
        }
    }
}

/// Result of a converged CG run.
#[derive(Clone, Debug)]
pub struct CgOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations taken.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Solves `A·x = b` for symmetric positive definite `A` (CSR).
///
/// Returns [`LinalgError::NoConvergence`] when the budget is exhausted and
/// [`LinalgError::InvalidInput`] on shape mismatch or a non-positive
/// diagonal with the Jacobi preconditioner enabled.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &CgOptions,
) -> Result<CgOutcome, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::InvalidInput("CG needs a square matrix".into()));
    }
    if b.len() != n {
        return Err(LinalgError::InvalidInput("CG rhs length mismatch".into()));
    }
    let inv_diag: Option<Vec<f64>> = if opts.jacobi {
        let d = a.diagonal();
        if d.iter().any(|&x| x <= 0.0) {
            return Err(LinalgError::InvalidInput(
                "Jacobi preconditioner needs positive diagonal".into(),
            ));
        }
        Some(d.into_iter().map(|x| 1.0 / x).collect())
    } else {
        None
    };
    let bnorm = vec_ops::norm2(b).max(f64::MIN_POSITIVE);

    let mut x = match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n, "x0 length mismatch");
            x0.to_vec()
        }
        None => vec![0.0; n],
    };
    let mut r = {
        let ax = a.mul_vec(&x);
        vec_ops::sub(b, &ax)
    };
    let precondition = |r: &[f64]| -> Vec<f64> {
        match &inv_diag {
            Some(d) => r.iter().zip(d).map(|(ri, di)| ri * di).collect(),
            None => r.to_vec(),
        }
    };
    let mut z = precondition(&r);
    let mut p = z.clone();
    let mut rz = vec_ops::dot(&r, &z);
    let mut ap = vec![0.0; n];

    let _timer = CG_MS.time();
    let count = |iterations: usize| mea_obs::counter_add("linalg.cg.iterations", iterations as u64);
    for it in 0..opts.max_iter {
        let rel = vec_ops::norm2(&r) / bnorm;
        if rel <= opts.tol {
            count(it);
            return Ok(CgOutcome {
                x,
                iterations: it,
                residual: rel,
            });
        }
        a.mul_vec_into(&p, &mut ap);
        let pap = vec_ops::dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Matrix not positive definite along p (or breakdown).
            count(it);
            return Err(LinalgError::InvalidInput(
                "CG breakdown: matrix is not positive definite".into(),
            ));
        }
        let alpha = rz / pap;
        vec_ops::axpy(alpha, &p, &mut x);
        vec_ops::axpy(-alpha, &ap, &mut r);
        z = precondition(&r);
        let rz_new = vec_ops::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    count(opts.max_iter);
    let rel = vec_ops::norm2(&r) / bnorm;
    if rel <= opts.tol {
        Ok(CgOutcome {
            x,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooTriplets;
    use proptest::prelude::*;

    /// 1-D Poisson matrix: tridiagonal [−1, 2, −1], s.p.d.
    fn poisson(n: usize) -> CsrMatrix {
        let mut t = CooTriplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn solves_poisson() {
        let n = 50;
        let a = poisson(n);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&xtrue);
        let out = conjugate_gradient(&a, &b, None, &CgOptions::default()).unwrap();
        for (x, t) in out.x.iter().zip(&xtrue) {
            assert!((x - t).abs() < 1e-6, "{x} vs {t}");
        }
    }

    #[test]
    fn warm_start_converges_fast() {
        let n = 30;
        let a = poisson(n);
        let xtrue: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b = a.mul_vec(&xtrue);
        let cold = conjugate_gradient(&a, &b, None, &CgOptions::default()).unwrap();
        let warm = conjugate_gradient(&a, &b, Some(&xtrue), &CgOptions::default()).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert_eq!(warm.iterations, 0, "exact start must exit immediately");
    }

    #[test]
    fn without_preconditioner_also_converges() {
        let a = poisson(20);
        let b = vec![1.0; 20];
        let opts = CgOptions {
            jacobi: false,
            ..Default::default()
        };
        let out = conjugate_gradient(&a, &b, None, &opts).unwrap();
        let r = crate::vec_ops::sub(&a.mul_vec(&out.x), &b);
        assert!(crate::vec_ops::norm2(&r) < 1e-8);
    }

    #[test]
    fn budget_exhaustion_reports_no_convergence() {
        let a = poisson(64);
        let b = vec![1.0; 64];
        let opts = CgOptions {
            max_iter: 2,
            tol: 1e-14,
            ..Default::default()
        };
        match conjugate_gradient(&a, &b, None, &opts) {
            Err(LinalgError::NoConvergence { iterations, .. }) => assert_eq!(iterations, 2),
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        let mut t = CooTriplets::new(2, 3);
        t.push(0, 0, 1.0);
        let m = t.to_csr();
        assert!(conjugate_gradient(&m, &[1.0, 1.0], None, &CgOptions::default()).is_err());
        let a = poisson(3);
        assert!(conjugate_gradient(&a, &[1.0], None, &CgOptions::default()).is_err());
    }

    #[test]
    fn detects_indefinite_matrix() {
        // diag(1, −1) is indefinite: CG must break down, not loop forever.
        let mut t = CooTriplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, -1.0);
        let a = t.to_csr();
        let opts = CgOptions {
            jacobi: false,
            ..Default::default()
        };
        let err = conjugate_gradient(&a, &[0.0, 1.0], None, &opts).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
    }

    proptest! {
        /// CG agrees with dense LU on random s.p.d. systems.
        #[test]
        fn prop_cg_matches_lu(n in 2usize..12, seed in any::<u64>()) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            // A = Mᵀ·M + n·I is s.p.d. and reasonably conditioned.
            let mut mdat = crate::dense::DenseMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    mdat[(r, c)] = next();
                }
            }
            let mut a_dense = mdat.transpose().mul(&mdat);
            for i in 0..n {
                a_dense[(i, i)] += n as f64;
            }
            let mut t = CooTriplets::new(n, n);
            for r in 0..n {
                for c in 0..n {
                    t.push(r, c, a_dense[(r, c)]);
                }
            }
            let a = t.to_csr();
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let cg = conjugate_gradient(&a, &b, None, &CgOptions::default()).unwrap();
            let lu = a_dense.solve(&b).unwrap();
            for (x, y) in cg.x.iter().zip(&lu) {
                prop_assert!((x - y).abs() < 1e-6, "{} vs {}", x, y);
            }
        }
    }
}
