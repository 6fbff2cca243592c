//! A damped Newton driver for square nonlinear systems `F(x) = 0`.
//!
//! Parma's cross-check solvers (the exponential path-based baseline at small
//! `n`, and the dense-Jacobian verification mode) run through this driver.
//! The Jacobian can be supplied analytically or approximated by forward
//! finite differences.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::vec_ops;
use mea_obs::hist::Hist;

/// Wall time of one Newton solve (ms).
static NEWTON_MS: Hist = Hist::new("linalg.newton_ms");

/// Options for [`newton_solve`].
#[derive(Clone, Debug)]
pub struct NewtonOptions {
    /// Convergence target on ‖F(x)‖∞.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Backtracking: the step is halved until the residual decreases, at
    /// most this many times per iteration.
    pub max_backtracks: usize,
    /// Relative perturbation for finite-difference Jacobians.
    pub fd_eps: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            tol: 1e-10,
            max_iter: 100,
            max_backtracks: 30,
            fd_eps: 1e-7,
        }
    }
}

/// Result of a converged Newton run.
#[derive(Clone, Debug)]
pub struct NewtonOutcome {
    /// The root found.
    pub x: Vec<f64>,
    /// Iterations taken.
    pub iterations: usize,
    /// Final ‖F(x)‖∞.
    pub residual: f64,
}

/// Solves `F(x) = 0` by damped Newton with an optional analytic Jacobian.
///
/// * `f` — evaluates the residual vector (length must match `x0`).
/// * `jac` — evaluates the Jacobian at `x`; pass `None` to use forward
///   finite differences built from `f`.
///
/// Fails with [`LinalgError::NoConvergence`] when the budget runs out, or
/// propagates a singular-Jacobian error from the inner LU solve.
pub fn newton_solve<F, J>(
    f: F,
    jac: Option<J>,
    x0: &[f64],
    opts: &NewtonOptions,
) -> Result<NewtonOutcome, LinalgError>
where
    F: Fn(&[f64]) -> Vec<f64>,
    J: Fn(&[f64]) -> DenseMatrix,
{
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut fx = f(&x);
    if fx.len() != n {
        return Err(LinalgError::ShapeMismatch(format!(
            "newton: F returned {} residuals for {} unknowns",
            fx.len(),
            n
        )));
    }
    let _timer = NEWTON_MS.time();
    let count =
        |iterations: usize| mea_obs::counter_add("linalg.newton.iterations", iterations as u64);
    // Reusable per-iteration state: one LU factor refactored in place plus
    // the step/candidate buffers, so the Newton loop itself allocates only
    // what the user-supplied closures allocate.
    let mut lu = crate::dense::LuFactor::empty();
    let mut neg_fx = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    for it in 0..opts.max_iter {
        let res = vec_ops::norm_inf(&fx);
        if !res.is_finite() {
            count(it);
            return Err(LinalgError::InvalidInput("non-finite residual".into()));
        }
        if res <= opts.tol {
            count(it);
            return Ok(NewtonOutcome {
                x,
                iterations: it,
                residual: res,
            });
        }
        let j = match &jac {
            Some(j) => j(&x),
            None => fd_jacobian(&f, &x, &fx, opts.fd_eps),
        };
        // Solve J·δ = −F.
        for (o, &v) in neg_fx.iter_mut().zip(&fx) {
            *o = -v;
        }
        lu.refactor_from(&j)?;
        lu.solve_into(&neg_fx, &mut delta);
        // Backtracking line search on the residual norm.
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..=opts.max_backtracks {
            x_new.copy_from_slice(&x);
            vec_ops::axpy(step, &delta, &mut x_new);
            let fx_new = f(&x_new);
            let res_new = vec_ops::norm_inf(&fx_new);
            if res_new.is_finite() && res_new < res {
                x.copy_from_slice(&x_new);
                fx = fx_new;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            // Stalled: accept the full step anyway once; if the residual
            // then fails to improve, the final NoConvergence reports it.
            vec_ops::axpy(1.0, &delta, &mut x);
            fx = f(&x);
        }
    }
    count(opts.max_iter);
    let res = vec_ops::norm_inf(&fx);
    if res <= opts.tol {
        Ok(NewtonOutcome {
            x,
            iterations: opts.max_iter,
            residual: res,
        })
    } else {
        Err(LinalgError::NoConvergence {
            iterations: opts.max_iter,
            residual: res,
        })
    }
}

/// Forward finite-difference Jacobian: column `j` is
/// `(F(x + hⱼ·eⱼ) − F(x)) / hⱼ` with `hⱼ` scaled to `x[j]`.
fn fd_jacobian<F>(f: &F, x: &[f64], fx: &[f64], eps: f64) -> DenseMatrix
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let n = x.len();
    let mut j = DenseMatrix::zeros(fx.len(), n);
    let mut xp = x.to_vec();
    for col in 0..n {
        let h = eps * x[col].abs().max(1.0);
        xp[col] = x[col] + h;
        let fp = f(&xp);
        xp[col] = x[col];
        for row in 0..fx.len() {
            j[(row, col)] = (fp[row] - fx[row]) / h;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    type NoJac = fn(&[f64]) -> DenseMatrix;

    #[test]
    fn scalar_square_root() {
        // x² − 2 = 0, starting from 1.
        let f = |x: &[f64]| vec![x[0] * x[0] - 2.0];
        let out = newton_solve(f, None::<NoJac>, &[1.0], &NewtonOptions::default()).unwrap();
        assert!((out.x[0] - std::f64::consts::SQRT_2).abs() < 1e-8);
    }

    #[test]
    fn coupled_2d_system() {
        // x² + y² = 4, x·y = 1 — intersect circle and hyperbola.
        let f = |v: &[f64]| vec![v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0];
        let out = newton_solve(f, None::<NoJac>, &[2.0, 0.3], &NewtonOptions::default()).unwrap();
        let (x, y) = (out.x[0], out.x[1]);
        assert!((x * x + y * y - 4.0).abs() < 1e-8);
        assert!((x * y - 1.0).abs() < 1e-8);
    }

    #[test]
    fn analytic_jacobian_used() {
        let f = |x: &[f64]| vec![x[0].exp() - 3.0];
        let j = |x: &[f64]| DenseMatrix::from_rows(&[&[x[0].exp()]]);
        let out = newton_solve(f, Some(j), &[0.0], &NewtonOptions::default()).unwrap();
        assert!((out.x[0] - 3.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn analytic_matches_finite_difference() {
        let f = |v: &[f64]| vec![v[0].powi(3) - v[1], v[1] * v[1] - v[0] - 1.0];
        let j =
            |v: &[f64]| DenseMatrix::from_rows(&[&[3.0 * v[0] * v[0], -1.0], &[-1.0, 2.0 * v[1]]]);
        let a = newton_solve(f, Some(j), &[1.0, 1.0], &NewtonOptions::default()).unwrap();
        let b = newton_solve(f, None::<NoJac>, &[1.0, 1.0], &NewtonOptions::default()).unwrap();
        for (x, y) in a.x.iter().zip(&b.x) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn damping_handles_overshoot() {
        // f(x) = arctan(x): the undamped Newton step diverges for |x₀| > ~1.39.
        let f = |x: &[f64]| vec![x[0].atan()];
        let out = newton_solve(f, None::<NoJac>, &[3.0], &NewtonOptions::default()).unwrap();
        assert!(
            out.x[0].abs() < 1e-8,
            "damped Newton must converge from 3.0"
        );
    }

    #[test]
    fn reports_no_convergence() {
        // x² + 1 = 0 has no real root.
        let f = |x: &[f64]| vec![x[0] * x[0] + 1.0];
        let opts = NewtonOptions {
            max_iter: 20,
            ..Default::default()
        };
        let err = newton_solve(f, None::<NoJac>, &[0.7], &opts).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::NoConvergence { .. } | LinalgError::Singular(_)
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let f = |_: &[f64]| vec![0.0, 0.0];
        let err = newton_solve(f, None::<NoJac>, &[1.0], &NewtonOptions::default()).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch(_)));
    }

    #[test]
    fn already_converged_exits_at_zero_iterations() {
        let f = |x: &[f64]| vec![x[0]];
        let out = newton_solve(f, None::<NoJac>, &[0.0], &NewtonOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
    }
}
