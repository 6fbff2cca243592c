//! A whole-system solver: Gauss-Newton on the literal `2n³` joint-constraint
//! equations over all `(2n−1)n²` unknowns (`R`, `Ua`, `Ub` together).
//!
//! The production solver (`crate::solver`) eliminates the intermediate
//! voltages analytically via the shared Laplacian factorization; this
//! solver instead consumes the equation system exactly as §IV-A writes it
//! — the way a downstream solver would consume Parma's generated equation
//! files — using the analytic sparse Jacobian (`mea_equations::jacobian`)
//! and CGLS for the least-squares step. It is the third independent path
//! to the same root and the one that exercises the sparse substrate
//! end-to-end.

use crate::error::ParmaError;
use mea_equations::{EquationSystem, JacobianTemplate};
#[cfg(test)]
use mea_linalg::{cgls, CooTriplets};
use mea_linalg::{cgls_into, vec_ops, CglsOptions, CglsWorkspace, CsrMatrix, CsrPattern};
use mea_model::{ForwardSolver, ForwardWorkspace, ResistorGrid, ZMatrix};
use mea_obs::hist::Hist;
use mea_parallel::{CancelToken, Interrupt};

/// Wall time of one full-system Gauss-Newton solve (ms).
static FULL_NEWTON_MS: Hist = Hist::new("parma.full_newton_ms");

/// Options for [`full_newton_inverse`].
#[derive(Clone, Copy, Debug)]
pub struct FullNewtonOptions {
    /// Convergence target on ‖residual‖∞ (mA — the equations balance
    /// currents).
    pub tol: f64,
    /// Outer Gauss-Newton iterations.
    pub max_iter: usize,
    /// Inner CGLS relative tolerance.
    pub inner_tol: f64,
    /// Inner CGLS iteration budget.
    pub inner_max_iter: usize,
    /// Backtracking halvings per outer step.
    pub max_backtracks: usize,
}

impl Default for FullNewtonOptions {
    fn default() -> Self {
        FullNewtonOptions {
            tol: 1e-10,
            max_iter: 40,
            inner_tol: 1e-10,
            inner_max_iter: 2_000,
            max_backtracks: 25,
        }
    }
}

/// Outcome of a whole-system solve.
#[derive(Clone, Debug)]
pub struct FullNewtonOutcome {
    /// The recovered resistor map.
    pub resistors: ResistorGrid,
    /// Outer iterations used.
    pub iterations: usize,
    /// Final ‖residual‖∞.
    pub residual: f64,
    /// Outer iterations that needed a Tikhonov-damped retry after the plain
    /// Gauss-Newton step failed its line search (0 on healthy solves).
    pub regularized_steps: usize,
}

/// Stacks `√λ·I` under the Jacobian so CGLS minimizes
/// `‖J·δ + F‖² + λ‖δ‖²` — the Levenberg–Marquardt damped step. The
/// augmented right-hand side is the caller's padded with `cols` zeros.
///
/// One-shot reference path (re-sorts per call); the solver itself uses
/// [`TikhonovCache`], which freezes the augmented structure once and
/// refills values per λ. Kept as the oracle the cache is tested against.
#[cfg(test)]
fn tikhonov_stack(jac: &CsrMatrix, lambda: f64) -> CsrMatrix {
    let (m, n) = (jac.rows(), jac.cols());
    let mut coo = CooTriplets::new(m + n, n);
    for r in 0..m {
        for (c, v) in jac.row_entries(r) {
            coo.push(r, c, v);
        }
    }
    let s = lambda.sqrt();
    for i in 0..n {
        coo.push(m + i, i, s);
    }
    coo.to_csr()
}

/// The frozen structure of the `[J; √λ·I]` stack: built once per solve
/// from the Jacobian template's pattern, refilled per damping strength.
///
/// In slot order the augmented matrix's values are exactly the Jacobian's
/// values followed by the `n` diagonal entries of the `√λ·I` tail (row-
/// major CSR puts rows `m..m+n` last), so a refill is one `memcpy` plus
/// one fill — no triplets, no sort.
struct TikhonovCache {
    aug: CsrMatrix,
    jac_nnz: usize,
}

impl TikhonovCache {
    /// Freezes the augmented structure for a Jacobian with this pattern.
    fn new(pattern: &CsrPattern) -> Self {
        let (m, n) = (pattern.rows(), pattern.cols());
        let mut positions: Vec<(usize, usize)> = Vec::with_capacity(pattern.nnz() + n);
        for r in 0..m {
            for slot in pattern.row_slots(r) {
                positions.push((r, pattern.col_at(slot)));
            }
        }
        for i in 0..n {
            positions.push((m + i, i));
        }
        let aug = CsrPattern::from_positions(m + n, n, &positions)
            .expect("augmented positions are in bounds by construction")
            .matrix_zeroed();
        TikhonovCache {
            aug,
            jac_nnz: pattern.nnz(),
        }
    }

    /// Refills the stack with the current Jacobian values and damping
    /// strength, returning the ready-to-use operator.
    fn refill(&mut self, jac: &CsrMatrix, lambda: f64) -> &CsrMatrix {
        debug_assert_eq!(jac.nnz(), self.jac_nnz, "Jacobian structure drifted");
        let values = self.aug.values_mut();
        values[..self.jac_nnz].copy_from_slice(jac.values());
        values[self.jac_nnz..].fill(lambda.sqrt());
        &self.aug
    }
}

/// `max_j ‖column j‖²` of the Jacobian — the scale reference for the
/// Levenberg–Marquardt damping parameter (Marquardt's `τ·max diag(JᵀJ)`).
fn max_column_norm_sq(jac: &CsrMatrix) -> f64 {
    let mut col_sq = vec![0.0f64; jac.cols()];
    for r in 0..jac.rows() {
        for (c, v) in jac.row_entries(r) {
            col_sq[c] += v * v;
        }
    }
    col_sq.into_iter().fold(0.0, f64::max)
}

/// Solves the full joint-constraint system for a measured `Z`.
///
/// Seeding: `R⁰ = κ·Z` (the uniform-mode-exact scaling) and one forward
/// solve of `R⁰` for the intermediate voltages; after that the iteration
/// never touches the Laplacian again — it works purely on the symbolic
/// equation system.
pub fn full_newton_inverse(
    z: &ZMatrix,
    voltage: f64,
    opts: &FullNewtonOptions,
) -> Result<FullNewtonOutcome, ParmaError> {
    full_newton_supervised(z, voltage, opts, &CancelToken::unbounded())
}

/// Like [`full_newton_inverse`] but under a [`CancelToken`], polled once
/// per outer Gauss-Newton iteration. A fired deadline surfaces as
/// [`ParmaError::Timeout`] carrying the current resistor estimate; an
/// uninterrupted run performs identical floating-point work to the
/// unsupervised entry point.
pub fn full_newton_supervised(
    z: &ZMatrix,
    voltage: f64,
    opts: &FullNewtonOptions,
    token: &CancelToken,
) -> Result<FullNewtonOutcome, ParmaError> {
    if !z.is_physical() {
        return Err(ParmaError::InvalidMeasurement(
            "measured impedances must be strictly positive and finite".into(),
        ));
    }
    if !(voltage > 0.0 && voltage.is_finite()) {
        return Err(ParmaError::InvalidMeasurement(
            "voltage must be positive".into(),
        ));
    }
    let grid = z.grid();
    let sys = EquationSystem::assemble(z, voltage);
    // Seed.
    let kappa = (grid.rows() * grid.cols()) as f64 / (grid.rows() + grid.cols() - 1) as f64;
    let mut r0 = z.clone();
    for v in r0.as_mut_slice() {
        *v *= kappa;
    }
    let mut x = sys.exact_unknowns_for(&r0)?;
    let crossings = grid.crossings();

    let _timer = FULL_NEWTON_MS.time();
    let count =
        |iterations: usize| mea_obs::counter_add("parma.full_newton.iterations", iterations as u64);
    // Symbolic work happens exactly once per topology: the template freezes
    // the Jacobian's structure (and the damped retry's augmented structure);
    // every iteration below is a pure numeric refill, no sorting.
    let template = JacobianTemplate::analyze(&sys);
    let mut jac = template.matrix_zeroed();
    let mut tikhonov: Option<TikhonovCache> = None;
    let mut fx = sys.residuals(&x);
    let mut regularized_steps = 0usize;
    // Reusable numeric state: one CGLS workspace shared by the plain step
    // and every damped retry, plus the right-hand-side and line-search
    // buffers — the outer iteration allocates nothing in steady state.
    let mut cgls_ws = CglsWorkspace::new();
    let mut neg_f = vec![0.0; fx.len()];
    let mut rhs: Vec<f64> = Vec::new();
    let mut step_scratch = StepScratch::new(grid);
    let inner_opts = CglsOptions {
        tol: opts.inner_tol,
        max_iter: opts.inner_max_iter,
    };
    for it in 0..opts.max_iter {
        // Iteration-boundary supervision only: no check inside the numeric
        // work, so an uninterrupted run keeps its bits.
        if let Some(interrupt) = token.check() {
            count(it);
            return Err(match interrupt {
                Interrupt::TimedOut => ParmaError::Timeout {
                    iterations: it,
                    partial: Some(sys.unpack_resistors(&x)),
                },
                Interrupt::Cancelled => ParmaError::Cancelled { iterations: it },
            });
        }
        let res = vec_ops::norm_inf(&fx);
        if res <= opts.tol {
            count(it);
            return Ok(FullNewtonOutcome {
                resistors: sys.unpack_resistors(&x),
                iterations: it,
                residual: res,
                regularized_steps,
            });
        }
        template.numeric(&x, &mut jac);
        for (o, &v) in neg_f.iter_mut().zip(&fx) {
            *o = -v;
        }
        cgls_into(&jac, &neg_f, &inner_opts, &mut cgls_ws).map_err(ParmaError::Linalg)?;
        let mut advanced = try_step(
            &sys,
            &mut x,
            &mut fx,
            cgls_ws.solution(),
            res,
            crossings,
            opts,
            &mut step_scratch,
        );
        if !advanced {
            // The plain Gauss-Newton direction is unusable even fully
            // backtracked — typically a (near-)singular Jacobian making the
            // CGLS step point nowhere useful. Retry with Tikhonov damping at
            // escalating strength: stack √λ·I under J so the step minimizes
            // ‖J·δ + F‖² + λ‖δ‖² and shortens toward steepest descent.
            let scale = max_column_norm_sq(&jac).max(f64::MIN_POSITIVE);
            rhs.clear();
            rhs.extend_from_slice(&neg_f);
            rhs.resize(neg_f.len() + jac.cols(), 0.0);
            let cache = tikhonov.get_or_insert_with(|| TikhonovCache::new(template.pattern()));
            for k in 0..4 {
                let lambda = scale * 1e-6 * 100f64.powi(k);
                let aug = cache.refill(&jac, lambda);
                if cgls_into(aug, &rhs, &inner_opts, &mut cgls_ws).is_err() {
                    continue;
                }
                if try_step(
                    &sys,
                    &mut x,
                    &mut fx,
                    cgls_ws.solution(),
                    res,
                    crossings,
                    opts,
                    &mut step_scratch,
                ) {
                    advanced = true;
                    regularized_steps += 1;
                    mea_obs::counter_add("parma.full_newton.recoveries", 1);
                    break;
                }
            }
        }
        if !advanced {
            count(it);
            return Err(ParmaError::NoConvergence {
                iterations: it,
                residual: res,
                partial: sys.unpack_resistors(&x),
            });
        }
    }
    count(opts.max_iter);
    let res = vec_ops::norm_inf(&fx);
    if res <= opts.tol {
        Ok(FullNewtonOutcome {
            resistors: sys.unpack_resistors(&x),
            iterations: opts.max_iter,
            residual: res,
            regularized_steps,
        })
    } else {
        Err(ParmaError::NoConvergence {
            iterations: opts.max_iter,
            residual: res,
            partial: sys.unpack_resistors(&x),
        })
    }
}

/// Reusable line-search buffers: candidate point, its residuals, and the
/// resistor scratch `EquationSystem::residuals_into` refreshes per call.
struct StepScratch {
    x_new: Vec<f64>,
    f_new: Vec<f64>,
    r: ResistorGrid,
}

impl StepScratch {
    fn new(grid: mea_model::MeaGrid) -> Self {
        StepScratch {
            x_new: Vec::new(),
            f_new: Vec::new(),
            r: ResistorGrid::filled(grid, 0.0),
        }
    }
}

/// One backtracking line search along `delta` with the physicality guard on
/// the `R` block; advances `x`/`fx` in place (by swapping with the scratch
/// buffers — no allocation) and reports whether the residual strictly
/// improved.
#[allow(clippy::too_many_arguments)]
fn try_step(
    sys: &EquationSystem,
    x: &mut Vec<f64>,
    fx: &mut Vec<f64>,
    delta: &[f64],
    res: f64,
    crossings: usize,
    opts: &FullNewtonOptions,
    scratch: &mut StepScratch,
) -> bool {
    let mut step = 1.0;
    for _ in 0..=opts.max_backtracks {
        scratch.x_new.clear();
        scratch.x_new.extend_from_slice(x);
        vec_ops::axpy(step, delta, &mut scratch.x_new);
        let r_ok = scratch.x_new[..crossings]
            .iter()
            .all(|v| *v > 0.0 && v.is_finite());
        if r_ok {
            sys.residuals_into(&scratch.x_new, &mut scratch.f_new, &mut scratch.r);
            let res_new = vec_ops::norm_inf(&scratch.f_new);
            if res_new.is_finite() && res_new < res {
                std::mem::swap(x, &mut scratch.x_new);
                std::mem::swap(fx, &mut scratch.f_new);
                return true;
            }
        }
        step *= 0.5;
    }
    false
}

/// Convenience: full-system solve that also cross-checks the recovered map
/// against an independent forward solve, returning the max relative
/// mismatch (diagnostic for tests and examples).
pub fn full_newton_check(z: &ZMatrix, voltage: f64) -> Result<(ResistorGrid, f64), ParmaError> {
    let out = full_newton_inverse(z, voltage, &FullNewtonOptions::default())?;
    let mut ws = ForwardWorkspace::new(z.grid());
    let z_again = ForwardSolver::with_workspace(&out.resistors, &mut ws)?.solve_all();
    Ok((out.resistors, z_again.rel_max_diff(z)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParmaConfig;
    use crate::solver::ParmaSolver;
    use mea_model::{AnomalyConfig, CrossingMatrix, MeaGrid};

    fn measured(n: usize, seed: u64) -> (ResistorGrid, ZMatrix) {
        let (truth, _) = AnomalyConfig::default().generate(MeaGrid::square(n), seed);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        (truth, z)
    }

    #[test]
    fn recovers_ground_truth() {
        for n in [2usize, 4] {
            let (truth, z) = measured(n, n as u64 + 100);
            let out = full_newton_inverse(&z, 5.0, &FullNewtonOptions::default()).unwrap();
            assert!(
                out.resistors.rel_max_diff(&truth) < 1e-6,
                "n = {n}: rel error {}",
                out.resistors.rel_max_diff(&truth)
            );
            assert!(
                out.iterations < 20,
                "Gauss-Newton should be fast, took {}",
                out.iterations
            );
        }
    }

    #[test]
    fn agrees_with_the_production_solver() {
        let (_, z) = measured(5, 200);
        let full = full_newton_inverse(&z, 5.0, &FullNewtonOptions::default()).unwrap();
        let fp = ParmaSolver::new(ParmaConfig::default()).solve(&z).unwrap();
        assert!(
            full.resistors.rel_max_diff(&fp.resistors) < 1e-5,
            "two independent formulations must meet: {}",
            full.resistors.rel_max_diff(&fp.resistors)
        );
    }

    #[test]
    fn forward_check_closes_the_loop() {
        let (_, z) = measured(4, 201);
        let (_, mismatch) = full_newton_check(&z, 5.0).unwrap();
        assert!(
            mismatch < 1e-8,
            "recovered map must reproduce Z: {mismatch}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let z = CrossingMatrix::filled(MeaGrid::square(2), -1.0);
        assert!(full_newton_inverse(&z, 5.0, &FullNewtonOptions::default()).is_err());
        let z_ok = CrossingMatrix::filled(MeaGrid::square(2), 1000.0);
        assert!(full_newton_inverse(&z_ok, 0.0, &FullNewtonOptions::default()).is_err());
    }

    #[test]
    fn healthy_solves_never_regularize() {
        for n in [2usize, 4, 5] {
            let (_, z) = measured(n, n as u64 + 300);
            let out = full_newton_inverse(&z, 5.0, &FullNewtonOptions::default()).unwrap();
            assert_eq!(
                out.regularized_steps, 0,
                "n = {n}: well-posed exact data must never trip the damped retry"
            );
        }
    }

    #[test]
    fn tikhonov_stack_is_the_damped_least_squares_operator() {
        // J = [[2, 0], [0, 3], [1, 1]], λ = 9 → two extra rows of 3·I.
        let mut coo = CooTriplets::new(3, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 1.0);
        coo.push(2, 1, 1.0);
        let jac = coo.to_csr();
        let aug = tikhonov_stack(&jac, 9.0);
        assert_eq!((aug.rows(), aug.cols()), (5, 2));
        let y = aug.mul_vec(&[1.0, -1.0]);
        assert_eq!(y, vec![2.0, -3.0, 0.0, 3.0, -3.0]);
        // Marquardt scale reference: max column sum-of-squares of J.
        assert_eq!(max_column_norm_sq(&jac), 10.0); // col 1: 9 + 1
    }

    #[test]
    fn tikhonov_cache_matches_the_one_shot_stack_bitwise() {
        // The cached augmented operator must be indistinguishable from the
        // reference construction: same shape, same structure, same bits.
        let (_, z) = measured(3, 77);
        let sys = EquationSystem::assemble(&z, 5.0);
        let template = JacobianTemplate::analyze(&sys);
        let x = {
            let grid = z.grid();
            let kappa = (grid.rows() * grid.cols()) as f64 / (grid.rows() + grid.cols() - 1) as f64;
            let mut r0 = z.clone();
            for v in r0.as_mut_slice() {
                *v *= kappa;
            }
            sys.exact_unknowns_for(&r0).unwrap()
        };
        let mut jac = template.matrix_zeroed();
        template.numeric(&x, &mut jac);
        let mut cache = TikhonovCache::new(template.pattern());
        for lambda in [1e-8, 3.5, 9e4] {
            let cached = cache.refill(&jac, lambda);
            let oracle = tikhonov_stack(&jac, lambda);
            assert_eq!(
                (cached.rows(), cached.cols()),
                (oracle.rows(), oracle.cols())
            );
            // The oracle drops explicit zeros the pattern keeps, so compare
            // through the cached structure: every oracle entry must sit in
            // the cache with identical bits, and cache-only slots must be 0.
            for r in 0..oracle.rows() {
                for (c, v) in oracle.row_entries(r) {
                    assert_eq!(cached.get(r, c).to_bits(), v.to_bits(), "({r}, {c})");
                }
            }
            let probe = vec![1.0; cached.cols()];
            let a = cached.mul_vec(&probe);
            let b = oracle.mul_vec(&probe);
            for (ai, bi) in a.iter().zip(&b) {
                assert_eq!(ai.to_bits(), bi.to_bits());
            }
        }
    }

    #[test]
    fn tikhonov_step_shrinks_toward_zero_as_lambda_grows() {
        // For tall J, the damped normal equations give δ(λ) = (JᵀJ+λI)⁻¹Jᵀb;
        // ‖δ‖ must be monotonically non-increasing in λ.
        let mut coo = CooTriplets::new(3, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1e-4); // badly scaled column → ill-conditioned
        coo.push(2, 0, 1.0);
        coo.push(2, 1, 1.0);
        let jac = coo.to_csr();
        let b = vec![1.0, 1.0, 1.0, 0.0, 0.0];
        let mut prev = f64::INFINITY;
        for lambda in [1e-8, 1e-4, 1.0, 1e4] {
            let aug = tikhonov_stack(&jac, lambda);
            let out = cgls(&aug, &b, &CglsOptions::default()).unwrap();
            let norm = vec_ops::norm2(&out.x);
            assert!(
                norm <= prev + 1e-9,
                "λ = {lambda}: ‖δ‖ grew {prev} → {norm}"
            );
            prev = norm;
        }
    }

    #[test]
    fn supervised_timeout_carries_partial_estimate() {
        let (_, z) = measured(4, 203);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match full_newton_supervised(&z, 5.0, &FullNewtonOptions::default(), &token) {
            Err(ParmaError::Timeout {
                iterations,
                partial,
            }) => {
                assert_eq!(iterations, 0);
                assert!(partial.expect("partial carried").is_physical());
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        let cancelled = CancelToken::unbounded();
        cancelled.cancel();
        assert!(matches!(
            full_newton_supervised(&z, 5.0, &FullNewtonOptions::default(), &cancelled),
            Err(ParmaError::Cancelled { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        let (_, z) = measured(4, 202);
        let opts = FullNewtonOptions {
            max_iter: 1,
            tol: 1e-16,
            ..Default::default()
        };
        match full_newton_inverse(&z, 5.0, &opts) {
            Err(ParmaError::NoConvergence { partial, .. }) => assert!(partial.is_physical()),
            Ok(out) => assert!(out.residual <= 1e-16), // unlikely but legal
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
