//! The Parma inverse solver: a damped conductance fixed point with
//! embarrassingly parallel per-pair updates.
//!
//! # Derivation
//!
//! At the current estimate `R⁽ᵗ⁾`, one grounded-Laplacian factorization
//! gives every pair's model impedance `Z_model = R_eff(i, j)` and wire
//! potentials in `O(n³ + n²·n)` total (see `mea_model::ForwardSolver`).
//! The §IV-A source equation, written with the *measured* impedance but the
//! model potentials, solves for the direct resistance:
//!
//! ```text
//! U/Z_meas = U/R_ij + Σ_k (U − Ua_k)/R_ik
//!          = U/Z_model − U/R_ij⁽ᵗ⁾ + U/R_ij      (model satisfies its own balance)
//! ⇒  g_ij ← g_ij + (1/Z_meas − 1/Z_model)
//! ```
//!
//! i.e. the direct *conductance* absorbs the terminal-conductance mismatch.
//! Every pair's update is an O(1) read of the shared factorization that
//! writes only its own entry — the `(n−1)²` independent homology cycles of
//! §III are what guarantee the updates do not interact within an
//! iteration — so one sequential row-major pass over the pairs is the
//! whole sweep; the factorization is where the work and the intra-solve
//! parallelism are.
//!
//! # Damping
//!
//! Because the direct resistor sits in parallel with the rest of the
//! network, `1/Z_ij = g_ij + G_rest(g_others)`: the update above is a
//! Jacobi sweep on that system. Its coupling matrix `K = ∂(1/Z)/∂g`
//! factors as `D·S` with `D = diag(1/Z²)` positive and `S` the entrywise
//! square of a Gram matrix — PSD by the Schur product theorem — so `K`'s
//! spectrum is real and positive. Its top eigenvalue is
//! `κ = mn/(m+n−1)`, reached by the uniform mode (`1/Z = κ·g` exactly
//! for uniform maps, by homogeneity); slow local modes sit below 1. With
//! the damping `α = 2/(1+κ)` every mode satisfies `|1 − α·λ| < 1`, so
//! the sweep is a guaranteed geometric contraction; the asymptotic rate is
//! `max(|1−α·λ_min|, (κ−1)/(κ+1))`, which `crate::diagnostics` measures
//! and matches against the observed history. The iteration starts from
//! `R⁽⁰⁾ = κ·Z_meas` (exact in the uniform mode) and a ×8 trust clamp per
//! sweep keeps early iterates physical.

use crate::config::ParmaConfig;
use crate::error::ParmaError;
use mea_linalg::{LinalgError, Parallelism, Sequential};
use mea_model::{ForwardSolver, ForwardWorkspace, MeaGrid, ResistorGrid, ZMatrix};
use mea_obs::events::{emit as emit_event, EventKind};
use mea_obs::hist::Hist;
use mea_parallel::{CancelToken, Interrupt, WorkStealingPool};

/// Per-solve wall-clock latency (ms), across all exit paths.
static SOLVE_MS: Hist = Hist::new("parma.solve_ms");
/// Outer iterations at solve exit.
static SOLVE_ITERS: Hist = Hist::new("parma.solve_iters");
/// Relative residual at solve exit (converged or not).
static SOLVE_RESIDUAL: Hist = Hist::new("parma.solve_residual");
/// One damped update sweep over all pairs (ms).
static SWEEP_MS: Hist = Hist::new("parma.sweep_ms");
/// In-place refactorization of the scratch forward solver (ms).
static REFACTOR_MS: Hist = Hist::new("model.forward.refactor_ms");

/// Result of a converged (or accepted) solve.
#[derive(Clone, Debug)]
pub struct ParmaSolution {
    /// The recovered resistor map (kΩ).
    pub resistors: ResistorGrid,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Final relative impedance mismatch.
    pub residual: f64,
    /// Residual after each iteration (for convergence plots).
    pub history: Vec<f64>,
    /// Recovery interventions taken during the solve, in order. Empty for
    /// healthy solves; non-empty means the plain damped sweep stalled or
    /// diverged and the solver escalated (see [`RecoveryAction`]).
    pub recovery: Vec<RecoveryEvent>,
}

/// One rung of the convergence-failure recovery ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Applied one Aitken Δ² extrapolation to the conductance vector. A
    /// plateau whose iterates still move is a slow geometric mode with
    /// rate ≈ 1 (near-degenerate pairs, e.g. crossings sharing wires with
    /// a short); extrapolating the last three iterates cancels that mode
    /// in the linear regime and is tried first because it is the only
    /// rung that *speeds up* rather than damps.
    Extrapolate,
    /// Persistently halved the sweep damping: the residual plateaued,
    /// which on degenerate maps means the coupling exceeds the healthy
    /// bound κ and the step overshoots into a limit cycle.
    ReduceDamping,
    /// Pulled the iterate halfway back toward the well-conditioned
    /// uniform-mode solution `κ·Z` (the fixed point's analogue of
    /// Tikhonov regularization toward the prior).
    Regularize,
    /// Abandoned the iterate and restarted from `κ·Z` under strong
    /// damping — the rung of last resort, also taken immediately when the
    /// residual turns non-finite.
    ColdRestart,
}

/// Record of one recovery intervention.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// What the solver did.
    pub action: RecoveryAction,
    /// Outer iteration at which it acted.
    pub at_iteration: usize,
    /// The residual that triggered it (may be NaN/∞ for divergence).
    pub residual: f64,
}

/// Residual-plateau window: the ladder escalates when a window this long
/// improves the residual by less than [`STALL_FACTOR`].
const STALL_WINDOW: usize = 25;

/// Minimum relative improvement a healthy solve shows per window. A
/// geometric contraction at the worst healthy rate (~0.92/iteration, see
/// `crate::diagnostics`) improves ~8× per window; requiring only 2%
/// keeps false positives impossible while still catching limit cycles,
/// which improve not at all.
const STALL_FACTOR: f64 = 0.98;

/// Reusable per-solve scratch: the forward solver (refactored in place
/// each iteration instead of rebuilt) and its factorization workspace.
///
/// Carries no data-dependent state between solves — results through
/// [`ParmaSolver::solve_supervised`] are bitwise identical to
/// [`ParmaSolver::solve`] — it only amortizes allocations. The job
/// executor keeps one per pool worker; with it, the steady-state sweep
/// iteration performs no heap allocation at all.
pub struct SolveScratch {
    forward: Option<ForwardSolver>,
    ws: ForwardWorkspace,
    intra: usize,
    pool: Option<WorkStealingPool>,
}

impl SolveScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    ///
    /// The embedded factorization workspace runs in sweep-only inverse
    /// scope: the solver's hot path reads only effective resistances, so
    /// every refactor skips the HH-block gemm entirely.
    pub fn new() -> Self {
        let mut ws = ForwardWorkspace::empty();
        ws.set_sweep_only(true);
        SolveScratch {
            forward: None,
            ws,
            intra: 1,
            pool: None,
        }
    }

    /// Grants this scratch `threads` intra-solve workers: structured
    /// refactors fan their row-chunk stages over a private work-stealing
    /// pool. The chunk partition is thread-count-independent, so any
    /// width — including 1 — produces bitwise-identical results; this
    /// setting trades wall time only.
    pub fn set_intra_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.intra {
            self.intra = threads;
            self.pool = (threads > 1).then(|| WorkStealingPool::new(threads));
        }
    }
}

impl Default for SolveScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The inverse solver.
#[derive(Clone, Debug)]
pub struct ParmaSolver {
    config: ParmaConfig,
}

impl ParmaSolver {
    /// A solver with the given configuration. Construction is infallible;
    /// the configuration is validated on the first solve, which returns
    /// [`ParmaError::InvalidConfig`] for out-of-range values.
    pub fn new(config: ParmaConfig) -> Self {
        ParmaSolver { config }
    }

    /// Recovers the resistor map behind a measured impedance matrix.
    ///
    /// The initial iterate scales each measured `Z_ij` by the uniform-mode
    /// factor `κ = mn/(m+n−1)` (for a uniform map, `Z = R/κ` exactly), so
    /// the slowest-converging mode starts already solved.
    pub fn solve(&self, z: &ZMatrix) -> Result<ParmaSolution, ParmaError> {
        self.solve_supervised(z, None, &mut SolveScratch::new(), &CancelToken::unbounded())
    }

    /// The workhorse behind [`Self::solve`] and every batch, serve and
    /// worker solve: solves optionally from an explicit initial map (e.g.
    /// the previous time point's solution, defaulting to the uniform-mode
    /// seed `κ·Z`), reusing caller-owned [`SolveScratch`] so repeated
    /// solves pay no per-iteration allocation, under a [`CancelToken`].
    /// The scratch carries no data-dependent state, so the result is
    /// bitwise identical to [`Self::solve`]. The token is polled once per
    /// outer iteration (never inside the floating-point work, so an
    /// uninterrupted solve keeps the same bits) and a fired token
    /// surfaces as [`ParmaError::Timeout`] — carrying the partial iterate
    /// — or [`ParmaError::Cancelled`].
    pub fn solve_supervised(
        &self,
        z: &ZMatrix,
        initial: Option<ResistorGrid>,
        scratch: &mut SolveScratch,
        token: &CancelToken,
    ) -> Result<ParmaSolution, ParmaError> {
        self.config.validate()?;
        validate_measurements(z)?;
        let grid = z.grid();
        let kappa = coupling_bound(grid);
        let initial = match initial {
            Some(map) => {
                if map.grid() != grid {
                    return Err(ParmaError::InvalidMeasurement(
                        "initial map geometry differs from the measurements".into(),
                    ));
                }
                if !map.is_physical() {
                    return Err(ParmaError::InvalidMeasurement(
                        "initial map must be strictly positive".into(),
                    ));
                }
                map
            }
            None => {
                let mut seed = z.clone();
                for v in seed.as_mut_slice() {
                    *v *= kappa;
                }
                seed
            }
        };
        // Telemetry only: never influences the floating-point work, and
        // when collection is off this is one atomic load.
        let _timer = SOLVE_MS.time();
        emit_event(EventKind::SolveStart, 0, 0.0);
        // Destructure the scratch once so the forward-solver slot and its
        // factorization workspace borrow disjointly.
        let SolveScratch {
            forward: fwd_slot,
            ws,
            pool,
            ..
        } = scratch;
        // Intra-solve executor for the structured factorization stages;
        // bitwise-neutral by the fixed-partition contract.
        let par: &dyn Parallelism = match pool {
            Some(p) => p,
            None => &Sequential,
        };
        let mut r = initial;
        // Sweep output and Aitken history buffers, rotated by swapping so
        // the steady-state iteration allocates nothing.
        let mut next = ResistorGrid::filled(grid, 0.0);
        let mut prev1 = ResistorGrid::filled(grid, 0.0);
        let mut prev2 = ResistorGrid::filled(grid, 0.0);
        let (mut have_prev1, mut have_prev2) = (false, false);
        let mut history = Vec::with_capacity(self.config.max_iter + 1);
        let mut recovery: Vec<RecoveryEvent> = Vec::new();
        // Adaptive safeguard: the κ-derived damping is optimal for
        // healthy maps but under-damps degenerate ones (a dead wire makes
        // a whole row couple ~n-fold, past κ, and the plain sweep falls
        // into a limit cycle). When the residual stops improving we shrink
        // the step geometrically; on improvement it creeps back up.
        let mut shrink = 1.0f64;
        // Persistent multiplier applied by the recovery ladder; unlike
        // `shrink` it never creeps back up.
        let mut recovery_damp = 1.0f64;
        // Next ladder rung to try when the solve stalls.
        let mut ladder = [
            RecoveryAction::Extrapolate,
            RecoveryAction::ReduceDamping,
            RecoveryAction::Regularize,
            RecoveryAction::ColdRestart,
        ]
        .into_iter();
        // Iteration index after the last intervention; the plateau window
        // restarts there so one intervention gets time to act.
        let mut last_intervention = 0usize;
        let mut prev_residual = f64::INFINITY;
        // Whether the factorization in `fwd_slot` matches the current `r`
        // (it goes stale on rotation and on every recovery edit of `r`).
        let mut forward_current = false;
        let outcome = 'iterate: {
            for it in 0..self.config.max_iter {
                // Supervision check at the iteration boundary only: an
                // uninterrupted run performs exactly the unsupervised
                // floating-point work (bitwise determinism contract).
                if let Some(interrupt) = token.check() {
                    return Err(interrupted_failure(interrupt, it, r, &history));
                }
                // The factorization itself polls the token at row-chunk
                // granularity (the PR 6 overshoot fix): a deadline firing
                // mid-refactor surfaces here as `LinalgError::Cancelled`
                // instead of waiting out the whole O(dim³) stage.
                let forward = match ensure_forward(fwd_slot, ws, &r, grid, par, token) {
                    Ok(f) => f,
                    Err(ParmaError::Linalg(LinalgError::Cancelled)) => {
                        let interrupt = token.check().unwrap_or(Interrupt::Cancelled);
                        return Err(interrupted_failure(interrupt, it, r, &history));
                    }
                    Err(e) => return Err(e),
                };
                forward_current = true;
                let residual = sweep_into(
                    &self.config,
                    forward,
                    z,
                    &r,
                    kappa,
                    shrink * recovery_damp,
                    &mut next,
                );
                history.push(residual);
                if residual <= self.config.tol {
                    break 'iterate Ok((it, residual));
                }

                // Convergence-failure detection: a non-finite residual is
                // divergence; a window that barely improves is a stall
                // (limit cycle or hopeless contraction rate).
                let diverged = !residual.is_finite();
                let stalled = !diverged
                    && it + 1 >= last_intervention + STALL_WINDOW
                    && residual > STALL_FACTOR * history[history.len() - STALL_WINDOW];
                if self.config.recovery && (diverged || stalled) {
                    // Divergence skips straight to the cold restart; a
                    // poisoned iterate is not worth damping or blending.
                    let action = if diverged {
                        let _ = ladder.by_ref().last();
                        Some(RecoveryAction::ColdRestart)
                    } else {
                        ladder.next()
                    };
                    if let Some(action) = action {
                        match action {
                            RecoveryAction::Extrapolate => {
                                // Aitken Δ² per pair, in conductance space
                                // (the iteration's variable): the slow
                                // mode's geometric tail cancels exactly in
                                // the linear regime. Entries whose
                                // differences are too small to extrapolate
                                // stably are left alone.
                                if have_prev2 && have_prev1 {
                                    let (r0, r1) = (&prev2, &prev1);
                                    for (i, j) in grid.pair_iter() {
                                        let g0 = 1.0 / r0.get(i, j);
                                        let g1 = 1.0 / r1.get(i, j);
                                        let g2 = 1.0 / r.get(i, j);
                                        let (d1, d2) = (g1 - g0, g2 - g1);
                                        let denom = d2 - d1;
                                        if denom.abs() > 1e-12 * g2.abs() {
                                            let acc = g2 - d2 * d2 / denom;
                                            if acc.is_finite() && acc > 0.0 {
                                                let bounded = acc
                                                    .min(1.0 / self.config.min_resistance)
                                                    .max(1e-12);
                                                r.set(i, j, 1.0 / bounded);
                                            }
                                        }
                                    }
                                }
                            }
                            RecoveryAction::ReduceDamping => {
                                recovery_damp *= 0.5;
                                // Accept the sweep output as the iterate.
                                std::mem::swap(&mut r, &mut next);
                            }
                            RecoveryAction::Regularize => {
                                // Blend halfway toward the uniform-mode
                                // solution κ·Z — the fixed point's
                                // Tikhonov-style pull toward the
                                // well-conditioned prior.
                                for (i, j) in grid.pair_iter() {
                                    let prior = kappa * z.get(i, j);
                                    r.set(i, j, 0.5 * (r.get(i, j) + prior));
                                }
                                recovery_damp *= 0.5;
                            }
                            RecoveryAction::ColdRestart => {
                                for (i, j) in grid.pair_iter() {
                                    r.set(i, j, kappa * z.get(i, j));
                                }
                                recovery_damp = 0.25;
                                shrink = 1.0;
                            }
                        }
                        forward_current = false;
                        mea_obs::counter_add("parma.solver.recoveries", 1);
                        emit_event(EventKind::Recovery, recovery.len() as u64, residual);
                        recovery.push(RecoveryEvent {
                            action,
                            at_iteration: it,
                            residual,
                        });
                        last_intervention = it + 1;
                        prev_residual = f64::INFINITY;
                        have_prev1 = false;
                        have_prev2 = false;
                        continue;
                    }
                    if diverged {
                        // Ladder exhausted and the iterate is poisoned:
                        // keep the last finite iterate (whose factorization
                        // is still current) and stop early.
                        break 'iterate Err(it + 1);
                    }
                }

                if residual >= prev_residual {
                    shrink = (shrink * 0.7).max(1e-3);
                } else {
                    shrink = (shrink * 1.02).min(1.0);
                }
                prev_residual = residual;
                // Rotate r → prev1 → prev2 and adopt the sweep output, by
                // swaps so no buffer is ever reallocated.
                std::mem::swap(&mut prev2, &mut prev1);
                have_prev2 = have_prev1;
                std::mem::swap(&mut prev1, &mut r);
                have_prev1 = true;
                std::mem::swap(&mut r, &mut next);
                forward_current = false;
            }
            Err(self.config.max_iter)
        };
        mea_obs::counter_add("parma.solver.solves", 1);
        match outcome {
            Ok((iterations, residual)) => {
                mea_obs::counter_add("parma.solver.iterations", iterations as u64);
                SOLVE_ITERS.record(iterations as f64);
                SOLVE_RESIDUAL.record(residual);
                emit_event(EventKind::SolveOk, iterations as u64, residual);
                Ok(ParmaSolution {
                    resistors: r,
                    iterations,
                    residual,
                    history,
                    recovery,
                })
            }
            Err(iterations) => {
                // One final residual check with the last iterate. The
                // loop's factorization is reused when it still matches `r`
                // (the diverged-early-exit path) instead of rebuilding.
                if !forward_current {
                    match ensure_forward(fwd_slot, ws, &r, grid, par, token) {
                        Ok(_) => {}
                        // Token fired during the final residual-check
                        // refactor: map the interrupt directly.
                        Err(ParmaError::Linalg(LinalgError::Cancelled)) => {
                            mea_obs::counter_add("parma.solver.failures", 1);
                            mea_obs::counter_add("parma.solver.iterations", iterations as u64);
                            emit_event(
                                EventKind::SolveFailed,
                                iterations as u64,
                                history.last().copied().unwrap_or(f64::NAN),
                            );
                            return Err(match token.check().unwrap_or(Interrupt::Cancelled) {
                                Interrupt::TimedOut => ParmaError::Timeout {
                                    iterations,
                                    partial: Some(r),
                                },
                                Interrupt::Cancelled => ParmaError::Cancelled { iterations },
                            });
                        }
                        Err(e) => return Err(e),
                    }
                }
                let forward = fwd_slot.as_ref().expect("forward solver ensured above");
                let residual = max_rel_mismatch(forward, z);
                history.push(residual);
                mea_obs::counter_add("parma.solver.iterations", iterations as u64);
                SOLVE_ITERS.record(iterations as f64);
                SOLVE_RESIDUAL.record(residual);
                if residual <= self.config.tol {
                    emit_event(EventKind::SolveOk, iterations as u64, residual);
                    Ok(ParmaSolution {
                        resistors: r,
                        iterations,
                        residual,
                        history,
                        recovery,
                    })
                } else {
                    mea_obs::counter_add("parma.solver.failures", 1);
                    emit_event(EventKind::SolveFailed, iterations as u64, residual);
                    Err(ParmaError::NoConvergence {
                        iterations,
                        residual,
                        partial: r,
                    })
                }
            }
        }
    }
}

/// Solve-failure bookkeeping for an interrupt (token fired at an
/// iteration boundary or mid-factorization), returning the error to
/// surface. Consumes `r` so a timeout can carry the partial iterate.
fn interrupted_failure(
    interrupt: Interrupt,
    iterations: usize,
    r: ResistorGrid,
    history: &[f64],
) -> ParmaError {
    mea_obs::counter_add("parma.solver.solves", 1);
    mea_obs::counter_add("parma.solver.failures", 1);
    mea_obs::counter_add("parma.solver.iterations", iterations as u64);
    SOLVE_ITERS.record(iterations as f64);
    emit_event(
        EventKind::SolveFailed,
        iterations as u64,
        history.last().copied().unwrap_or(f64::NAN),
    );
    match interrupt {
        Interrupt::TimedOut => ParmaError::Timeout {
            iterations,
            partial: Some(r),
        },
        Interrupt::Cancelled => ParmaError::Cancelled { iterations },
    }
}

/// Refactors the scratch forward solver in place for the current iterate,
/// building it fresh on first use or on a geometry change. The
/// factorization runs on `par` and polls `token` at chunk granularity
/// (structured path); a fired token surfaces as
/// `ParmaError::Linalg(LinalgError::Cancelled)` for the caller to map.
fn ensure_forward<'a>(
    slot: &'a mut Option<ForwardSolver>,
    ws: &mut ForwardWorkspace,
    r: &ResistorGrid,
    grid: MeaGrid,
    par: &dyn Parallelism,
    token: &CancelToken,
) -> Result<&'a ForwardSolver, ParmaError> {
    let rebuild = match slot.as_ref() {
        Some(f) => f.grid() != grid,
        None => true,
    };
    let stop = || token.check().is_some();
    let should_stop: Option<&(dyn Fn() -> bool + Sync)> = Some(&stop);
    let _timer = REFACTOR_MS.time();
    if rebuild {
        *slot = Some(ForwardSolver::with_workspace_supervised(
            r,
            ws,
            par,
            should_stop,
        )?);
    } else {
        slot.as_mut()
            .expect("checked above")
            .refactor_supervised(r, ws, par, should_stop)?;
    }
    Ok(slot.as_ref().expect("installed above"))
}

/// The extreme Jacobi-coupling eigenvalue `κ = mn/(m+n−1)` of uniform
/// maps; see the module docs. Equals 1 for a single crossing (the map is
/// then the identity). Sets the initial-guess scaling and the sweep
/// damping `α = 2/(1+κ)`.
fn coupling_bound(grid: MeaGrid) -> f64 {
    let (m, n) = (grid.rows() as f64, grid.cols() as f64);
    m * n / (m + n - 1.0)
}

/// One damped Jacobi sweep over every pair in row-major order, writing
/// the updated map into `next` (fully overwritten) and returning the max
/// relative mismatch. Allocates nothing.
fn sweep_into(
    config: &ParmaConfig,
    forward: &ForwardSolver,
    z: &ZMatrix,
    r: &ResistorGrid,
    kappa: f64,
    shrink: f64,
    next: &mut ResistorGrid,
) -> f64 {
    let _timer = SWEEP_MS.time();
    // Damping: optimal for the uniform-map spectrum [λ_min, κ], times the
    // user multiplier, times the adaptive safeguard factor the outer loop
    // maintains (degenerate maps — e.g. a dead wire — couple more strongly
    // than κ and need extra damping; see `ParmaSolver::solve_supervised`).
    let alpha = shrink * config.damping * 2.0 / (1.0 + kappa);
    let mut residual = 0.0f64;
    for (i, j) in z.grid().pair_iter() {
        let z_meas = z.get(i, j);
        let z_model = forward.effective_resistance(i, j);
        let g_old = 1.0 / r.get(i, j);
        let g_new = g_old + alpha * (1.0 / z_meas - 1.0 / z_model);
        // Trust clamp: stay within ×8 of the previous conductance and
        // within the configured physical bounds.
        let bounded = g_new
            .clamp(g_old / 8.0, g_old * 8.0)
            .min(1.0 / config.min_resistance)
            .max(1e-12);
        next.set(i, j, 1.0 / bounded);
        residual = residual.max((z_model - z_meas).abs() / z_meas);
    }
    residual
}

fn max_rel_mismatch(forward: &ForwardSolver, z: &ZMatrix) -> f64 {
    let grid = z.grid();
    grid.pair_iter().fold(0.0f64, |m, (i, j)| {
        m.max((forward.effective_resistance(i, j) - z.get(i, j)).abs() / z.get(i, j))
    })
}

fn validate_measurements(z: &ZMatrix) -> Result<(), ParmaError> {
    if !z.is_physical() {
        return Err(ParmaError::InvalidMeasurement(
            "measured impedances must be strictly positive and finite".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_model::{AnomalyConfig, CrossingMatrix};

    /// One unbounded solve from `initial`, on fresh scratch.
    fn solve_with(
        solver: &ParmaSolver,
        z: &ZMatrix,
        initial: Option<ResistorGrid>,
    ) -> Result<ParmaSolution, ParmaError> {
        solver.solve_supervised(
            z,
            initial,
            &mut SolveScratch::new(),
            &CancelToken::unbounded(),
        )
    }

    fn roundtrip(n: usize, seed: u64, config: ParmaConfig) -> (ResistorGrid, ParmaSolution) {
        let grid = MeaGrid::square(n);
        let (truth, _) = AnomalyConfig::default().generate(grid, seed);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let sol = ParmaSolver::new(config).solve(&z).unwrap();
        (truth, sol)
    }

    #[test]
    fn recovers_ground_truth_small() {
        for n in [1usize, 2, 4] {
            let (truth, sol) = roundtrip(n, 7, ParmaConfig::default());
            assert!(
                sol.resistors.rel_max_diff(&truth) < 1e-6,
                "n = {n}: rel error {}",
                sol.resistors.rel_max_diff(&truth)
            );
        }
    }

    #[test]
    fn recovers_ground_truth_midsize() {
        let (truth, sol) = roundtrip(10, 3, ParmaConfig::default());
        assert!(sol.resistors.rel_max_diff(&truth) < 1e-5);
        assert!(sol.residual <= 1e-10);
    }

    #[test]
    fn residual_history_decreases_overall() {
        let (_, sol) = roundtrip(6, 11, ParmaConfig::default());
        let first = sol.history.first().copied().unwrap();
        let last = sol.history.last().copied().unwrap();
        assert!(
            last < first * 1e-3,
            "history must collapse: {first} → {last}"
        );
    }

    #[test]
    fn warm_start_accelerates() {
        let grid = MeaGrid::square(8);
        let (truth, _) = AnomalyConfig::default().generate(grid, 31);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let solver = ParmaSolver::new(ParmaConfig::default());
        let cold = solver.solve(&z).unwrap();
        let warm = solve_with(&solver, &z, Some(truth.clone())).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert_eq!(warm.iterations, 0, "exact start must exit immediately");
    }

    #[test]
    fn damping_still_converges() {
        let cfg = ParmaConfig {
            damping: 0.5,
            ..Default::default()
        };
        let (truth, sol) = roundtrip(5, 13, cfg);
        assert!(sol.resistors.rel_max_diff(&truth) < 1e-5);
    }

    #[test]
    fn budget_exhaustion_reports_partial() {
        let cfg = ParmaConfig {
            max_iter: 2,
            tol: 1e-14,
            ..Default::default()
        };
        let grid = MeaGrid::square(6);
        let (truth, _) = AnomalyConfig::default().generate(grid, 5);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        match ParmaSolver::new(cfg).solve(&z) {
            Err(ParmaError::NoConvergence {
                iterations,
                partial,
                residual,
            }) => {
                assert_eq!(iterations, 2);
                assert!(partial.is_physical());
                assert!(residual > 0.0);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn rejects_nonphysical_measurements() {
        let z = CrossingMatrix::filled(MeaGrid::square(3), -1.0);
        let err = ParmaSolver::new(ParmaConfig::default())
            .solve(&z)
            .unwrap_err();
        assert!(matches!(err, ParmaError::InvalidMeasurement(_)));
    }

    #[test]
    fn rejects_mismatched_initial_map() {
        let z = CrossingMatrix::filled(MeaGrid::square(3), 1000.0);
        let init = CrossingMatrix::filled(MeaGrid::square(4), 1000.0);
        let solver = ParmaSolver::new(ParmaConfig::default());
        let err = solve_with(&solver, &z, Some(init)).unwrap_err();
        assert!(matches!(err, ParmaError::InvalidMeasurement(_)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Round-trip property: for random physical maps in the wet-lab
        /// range, measure-then-solve recovers the map.
        #[test]
        fn prop_roundtrip_random_maps(n in 2usize..6, seed in proptest::prelude::any::<u64>()) {
            let grid = MeaGrid::square(n);
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                2000.0 + 9000.0 * ((state >> 11) as f64 / (1u64 << 53) as f64)
            };
            let mut truth = CrossingMatrix::filled(grid, 0.0);
            for (i, j) in grid.pair_iter() {
                truth.set(i, j, next());
            }
            let z = ForwardSolver::new(&truth).unwrap().solve_all();
            let cfg = ParmaConfig { max_iter: 2000, ..Default::default() };
            let sol = ParmaSolver::new(cfg).solve(&z).unwrap();
            proptest::prop_assert!(
                sol.resistors.rel_max_diff(&truth) < 1e-5,
                "n = {}, seed = {}: rel error {}",
                n, seed, sol.resistors.rel_max_diff(&truth)
            );
        }
    }

    #[test]
    fn iteration_counts_are_pinned_on_seed_fixtures() {
        // Regression pin for the deterministic-reduction contract: the
        // chunked dot/norm kernels and the workspace refactor path fix the
        // whole iteration trajectory, so these counts change only if the
        // numerics change. Bump deliberately, never to paper over drift.
        for (n, seed, want) in [(4usize, 7u64, 48usize), (6, 11, 72), (8, 31, 96)] {
            let grid = MeaGrid::square(n);
            let (truth, _) = AnomalyConfig::default().generate(grid, seed);
            let z = ForwardSolver::new(&truth).unwrap().solve_all();
            let sol = ParmaSolver::new(ParmaConfig::default()).solve(&z).unwrap();
            assert_eq!(
                sol.iterations, want,
                "(n = {n}, seed = {seed}): iteration count drifted"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical() {
        // One scratch reused across solves (including a geometry change)
        // must give exactly the bits of the fresh-scratch path.
        let solver = ParmaSolver::new(ParmaConfig::default());
        let mut scratch = SolveScratch::new();
        for (n, seed) in [(5usize, 1u64), (4, 9), (5, 42)] {
            let grid = MeaGrid::square(n);
            let (truth, _) = AnomalyConfig::default().generate(grid, seed);
            let z = ForwardSolver::new(&truth).unwrap().solve_all();
            let fresh = solve_with(&solver, &z, None).unwrap();
            let reused = solver
                .solve_supervised(&z, None, &mut scratch, &CancelToken::unbounded())
                .unwrap();
            assert_eq!(fresh.iterations, reused.iterations);
            for (a, b) in fresh
                .resistors
                .as_slice()
                .iter()
                .zip(reused.resistors.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn supervised_unbounded_is_bitwise_identical() {
        let grid = MeaGrid::square(6);
        let (truth, _) = AnomalyConfig::default().generate(grid, 11);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let solver = ParmaSolver::new(ParmaConfig::default());
        let plain = solver.solve(&z).unwrap();
        let supervised = solver
            .solve_supervised(
                &z,
                None,
                &mut SolveScratch::new(),
                &CancelToken::unbounded(),
            )
            .unwrap();
        assert_eq!(plain.iterations, supervised.iterations);
        for (a, b) in plain
            .resistors
            .as_slice()
            .iter()
            .zip(supervised.resistors.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn expired_deadline_surfaces_as_timeout_with_partial() {
        let grid = MeaGrid::square(5);
        let (truth, _) = AnomalyConfig::default().generate(grid, 3);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = ParmaSolver::new(ParmaConfig::default())
            .solve_supervised(&z, None, &mut SolveScratch::new(), &token)
            .unwrap_err();
        match err {
            ParmaError::Timeout {
                iterations,
                partial,
            } => {
                assert_eq!(iterations, 0, "deadline was already expired");
                let partial = partial.expect("solver-level timeout carries the iterate");
                assert!(partial.is_physical(), "partial iterate must stay physical");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_surfaces_as_cancelled() {
        let grid = MeaGrid::square(5);
        let (truth, _) = AnomalyConfig::default().generate(grid, 3);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let token = CancelToken::unbounded();
        token.cancel();
        let err = ParmaSolver::new(ParmaConfig::default())
            .solve_supervised(&z, None, &mut SolveScratch::new(), &token)
            .unwrap_err();
        assert!(matches!(err, ParmaError::Cancelled { iterations: 0 }));
    }

    #[test]
    fn uniform_array_recovers_uniform_map() {
        // All crossings identical: the inverse problem is symmetric and the
        // solution must preserve the symmetry.
        let grid = MeaGrid::square(5);
        let truth = CrossingMatrix::filled(grid, 3000.0);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let sol = ParmaSolver::new(ParmaConfig::default()).solve(&z).unwrap();
        let vals = sol.resistors.as_slice();
        let first = vals[0];
        for v in vals {
            assert!((v - first).abs() / first < 1e-9, "symmetry broken");
        }
        assert!((first - 3000.0).abs() / 3000.0 < 1e-8);
    }
}
