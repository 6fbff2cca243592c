//! A damped fixed-point driver with residual-based convergence control.
//!
//! Parma's inverse solve is a damped fixed-point iteration on the
//! conductance vector (`g ← g + α·(1/Z_meas − 1/Z_model)` per pair), but
//! `ParmaSolver` runs its own loop; this module is a generic driver with
//! no caller outside this crate.

use crate::error::LinalgError;
use crate::vec_ops;

/// Options for [`fixed_point`].
#[derive(Clone, Debug)]
pub struct FixedPointOptions {
    /// Damping factor α ∈ (0, 1]: `x ← (1−α)·x + α·G(x)`.
    pub damping: f64,
    /// Convergence target on the caller-supplied residual.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        FixedPointOptions {
            damping: 1.0,
            tol: 1e-10,
            max_iter: 1_000,
        }
    }
}

/// Result of a converged fixed-point run.
#[derive(Clone, Debug)]
pub struct FixedPointOutcome {
    /// The fixed point found.
    pub x: Vec<f64>,
    /// Iterations taken.
    pub iterations: usize,
    /// Final residual as reported by the `residual` callback.
    pub residual: f64,
    /// Residual history, one entry per iteration (useful for convergence
    /// plots and for the scalability experiments' simulated-time model).
    pub history: Vec<f64>,
}

/// Iterates `x ← (1−α)·x + α·G(x)` until `residual(x) ≤ tol`.
///
/// * `step` — evaluates `G(x)`, the full (undamped) update.
/// * `residual` — a scale-free convergence measure; called once per
///   iteration *before* stepping, so a zero-iteration exit is possible.
///
/// Fails with [`LinalgError::NoConvergence`] on budget exhaustion and
/// [`LinalgError::InvalidInput`] if an update produces non-finite values or
/// the damping factor is out of range.
pub fn fixed_point<S, R>(
    step: S,
    residual: R,
    x0: &[f64],
    opts: &FixedPointOptions,
) -> Result<FixedPointOutcome, LinalgError>
where
    S: FnMut(&[f64]) -> Vec<f64>,
    R: FnMut(&[f64]) -> f64,
{
    let mut step = step;
    let mut residual = residual;
    if !(opts.damping > 0.0 && opts.damping <= 1.0) {
        return Err(LinalgError::InvalidInput(format!(
            "damping must be in (0, 1], got {}",
            opts.damping
        )));
    }
    let _span = mea_obs::span("linalg/fixed_point");
    let mut trace = mea_obs::SeriesRecorder::new(
        "linalg.fixed_point.residuals",
        "linalg.fixed_point.iterations",
    );
    let mut x = x0.to_vec();
    let mut history = Vec::new();
    for it in 0..opts.max_iter {
        let res = residual(&x);
        history.push(res);
        trace.push(res);
        if !res.is_finite() {
            return Err(LinalgError::InvalidInput("non-finite residual".into()));
        }
        if res <= opts.tol {
            return Ok(FixedPointOutcome {
                x,
                iterations: it,
                residual: res,
                history,
            });
        }
        let gx = step(&x);
        if gx.len() != x.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "fixed_point: step returned {} values for {} unknowns",
                gx.len(),
                x.len()
            )));
        }
        for (xi, gi) in x.iter_mut().zip(&gx) {
            *xi = (1.0 - opts.damping) * *xi + opts.damping * gi;
        }
        if !vec_ops::all_finite(&x) {
            return Err(LinalgError::InvalidInput("non-finite iterate".into()));
        }
    }
    let res = residual(&x);
    history.push(res);
    if res <= opts.tol {
        Ok(FixedPointOutcome {
            x,
            iterations: opts.max_iter,
            residual: res,
            history,
        })
    } else {
        Err(LinalgError::NoConvergence {
            iterations: opts.max_iter,
            residual: res,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_contraction() {
        // G(x) = cos(x) has a unique fixed point ≈ 0.739085.
        let out = fixed_point(
            |x| vec![x[0].cos()],
            |x| (x[0] - x[0].cos()).abs(),
            &[0.0],
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert!((out.x[0] - 0.739_085_133_215_160_6).abs() < 1e-9);
        assert!(out.iterations > 0);
    }

    #[test]
    fn damping_stabilizes_oscillation() {
        // G(x) = −x + 2 oscillates undamped between x₀ and 2−x₀ forever;
        // with α = 0.5 it lands on the fixed point x = 1 in one step.
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: 1e-12,
            max_iter: 50,
        };
        let out =
            fixed_point(|x| vec![-x[0] + 2.0], |x| (x[0] - 1.0).abs(), &[5.0], &opts).unwrap();
        assert!((out.x[0] - 1.0).abs() < 1e-12);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn zero_iterations_when_already_at_fixed_point() {
        let out = fixed_point(
            |x| x.to_vec(),
            |_| 0.0,
            &[3.0, 4.0],
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.x, vec![3.0, 4.0]);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let opts = FixedPointOptions {
            max_iter: 5,
            tol: 1e-12,
            ..Default::default()
        };
        let err = fixed_point(
            |x| vec![x[0] + 1.0], // diverges
            |x| x[0].abs() + 1.0,
            &[0.0],
            &opts,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LinalgError::NoConvergence { iterations: 5, .. }
        ));
    }

    #[test]
    fn invalid_damping_rejected() {
        for bad in [0.0, -0.5, 1.5] {
            let opts = FixedPointOptions {
                damping: bad,
                ..Default::default()
            };
            let err = fixed_point(|x| x.to_vec(), |_| 1.0, &[0.0], &opts).unwrap_err();
            assert!(matches!(err, LinalgError::InvalidInput(_)));
        }
    }

    #[test]
    fn non_finite_update_detected() {
        let err = fixed_point(
            |_| vec![f64::NAN],
            |_| 1.0,
            &[0.0],
            &FixedPointOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
    }

    #[test]
    fn history_is_monotone_for_linear_contraction() {
        // G(x) = 0.5·x contracts to 0; residual halves each step.
        let out = fixed_point(
            |x| vec![0.5 * x[0]],
            |x| x[0].abs(),
            &[1.0],
            &FixedPointOptions {
                tol: 1e-8,
                ..Default::default()
            },
        )
        .unwrap();
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
    }

    #[test]
    fn shape_mismatch_from_step_rejected() {
        let err = fixed_point(
            |_| vec![0.0, 0.0],
            |_| 1.0,
            &[0.0],
            &FixedPointOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch(_)));
    }
}
