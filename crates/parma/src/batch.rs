//! The job executor: the one path every role runs device sessions
//! through — `parma batch`, the sharded batch's in-process fallback, each
//! `parma worker` task and each `parma serve` job. Every role parses its
//! datasets at its own edge; the executor solves in-memory sessions only.
//!
//! [`execute`] schedules whole sessions on a `mea_parallel::WorkStealingPool`
//! under the supervisor (`crate::supervisor`: panic isolation, retries
//! with escalation, deadlines, quarantine) and splits its thread budget
//! between two axes ([`ThreadBudget`]): the job (outer) axis is saturated
//! first — `min(threads, jobs)` workers — and only a *surplus* (threads >
//! jobs, the paper-scale few-large-solves regime) flows to the
//! intra-solve axis, capped per job by its Betti parallelism bound β₁
//! ([`crate::betti`]). Intra-solve workers parallelize the structured
//! *factorization* stages; the O(n²) pair sweep is one sequential pass.
//!
//! What every role needs around a solve lives here once: one
//! [`SolveScratch`] per pool worker, the supervisor's escalation ladder
//! and chaos injection, and failure reports keyed by the caller's job id.
//!
//! # Determinism
//!
//! Outcomes come back in job order, and each session is bitwise
//! identical to [`Pipeline::run`] on the same dataset (at the escalation
//! level that succeeded): scratch carries no data-dependent state, the
//! intra-solve factorization stages use fixed row-chunk partitions
//! independent of the worker count, and supervision acts only between
//! attempts. Thread count — on either axis — worker placement
//! and steal interleavings affect wall time only, never bits.

use crate::pipeline::{Pipeline, TimePointResult};
use crate::solver::SolveScratch;
use crate::supervisor::{supervise, FailureReport, SupervisorConfig};
use mea_model::{MeaGrid, ResistorGrid, WetLabDataset, ZMatrix};
use mea_parallel::{ThreadBudget, WorkStealingPool};
use std::sync::Mutex;

/// Wall-clock per job attempt (ms).
static ITEM_MS: mea_obs::hist::Hist = mea_obs::hist::Hist::new("parma.batch.item_ms");

/// One device session to solve.
#[derive(Clone, Debug)]
pub struct Job<'a> {
    /// The caller's id for this job. Failure reports, `on_done`, chaos
    /// draws and flight-recorder events are keyed by it.
    pub id: usize,
    /// The session's dataset, already parsed and validated by the caller.
    pub dataset: &'a WetLabDataset,
    /// Seeds hour 0 from a previous session's `(resistors, impedances)`
    /// pair; a seed of another geometry is ignored (cold start).
    pub warm: Option<(ResistorGrid, ZMatrix)>,
}

impl<'a> Job<'a> {
    /// A cold job over an in-memory dataset.
    pub fn loaded(id: usize, dataset: &'a WetLabDataset) -> Self {
        Job {
            id,
            dataset,
            warm: None,
        }
    }
}

/// A decided job: every time point solved, or a quarantine report.
pub type Outcome = Result<Vec<TimePointResult>, FailureReport>;

/// Runs `jobs` through `pipeline` on `threads` threads under the
/// supervisor policy `sup` and returns the outcomes in job order.
/// `on_done(id, outcome)` fires exactly once per job, as soon as its fate
/// is decided (possibly on a worker thread) — which is what lets callers
/// journal incrementally.
pub fn execute(
    pipeline: &Pipeline,
    jobs: &[Job<'_>],
    threads: usize,
    sup: &SupervisorConfig,
    on_done: &(dyn Fn(usize, &Outcome) + Sync),
) -> Vec<Outcome> {
    let budget = ThreadBudget::split(threads, jobs.len());
    let pool = WorkStealingPool::new(budget.outer);
    let spare: Mutex<Vec<(MeaGrid, SolveScratch)>> = Mutex::new(Vec::new());
    let ids: Vec<usize> = jobs.iter().map(|job| job.id).collect();
    let out = supervise(
        &pool,
        &ids,
        sup,
        &|k, escalation, token| {
            let _timer = ITEM_MS.time();
            let job = &jobs[k];
            let dataset = job.dataset;
            let mut scratch = take_scratch(&spare, dataset.grid);
            // More intra-solve workers than independent cycles buy nothing.
            scratch.set_intra_threads(
                budget.inner_capped(crate::betti::parallelism_bound(dataset.grid)),
            );
            let res = pipeline.escalated(escalation).run_session(
                dataset,
                token,
                sup.solve_deadline,
                job.warm.clone(),
                &mut scratch,
            );
            spare
                .lock()
                .expect("scratch lock")
                .push((dataset.grid, scratch));
            res
        },
        &|k, outcome| on_done(jobs[k].id, outcome),
    );
    mea_obs::counter_add("parma.batch.items", out.len() as u64);
    mea_obs::counter_add(
        "parma.batch.failures",
        out.iter().filter(|r| r.is_err()).count() as u64,
    );
    out
}

/// A scratch for one attempt on `grid`: a spare one last used on the same
/// geometry, else a fresh one. At most one attempt per pool worker runs at
/// once, so retiring a spare whenever a fresh scratch is made keeps one
/// scratch per pool worker — and a worker never holds buffers sized for a
/// larger geometry than the job in hand.
fn take_scratch(spare: &Mutex<Vec<(MeaGrid, SolveScratch)>>, grid: MeaGrid) -> SolveScratch {
    let mut spare = spare.lock().expect("scratch lock");
    match spare.iter().position(|(g, _)| *g == grid) {
        Some(k) => spare.swap_remove(k).1,
        None => {
            spare.pop();
            SolveScratch::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParmaConfig;
    use crate::error::ParmaError;
    use crate::solver::{ParmaSolution, ParmaSolver};
    use crate::supervisor::FailureKind;
    use mea_model::{AnomalyConfig, CrossingMatrix, ForwardSolver, Measurement};

    fn measurements(n: usize, count: usize) -> Vec<ZMatrix> {
        (0..count)
            .map(|k| {
                let (truth, _) =
                    AnomalyConfig::default().generate(MeaGrid::square(n), 900 + k as u64);
                ForwardSolver::new(&truth).unwrap().solve_all()
            })
            .collect()
    }

    /// A one-time-point session around `z` — so its solve is exactly
    /// `ParmaSolver::solve(z)`.
    fn single(z: &ZMatrix) -> WetLabDataset {
        WetLabDataset {
            grid: z.grid(),
            measurements: vec![Measurement {
                hours: 0,
                voltage: 5.0,
                z: z.clone(),
                ground_truth: None,
            }],
        }
    }

    fn singles(zs: &[ZMatrix]) -> Vec<WetLabDataset> {
        zs.iter().map(single).collect()
    }

    fn sessions(n: usize, count: u64, seed: u64) -> Vec<WetLabDataset> {
        (0..count)
            .map(|k| {
                WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), seed + k)
                    .unwrap()
            })
            .collect()
    }

    fn pipeline(config: ParmaConfig) -> Pipeline {
        Pipeline::new(config, 1.5).unwrap()
    }

    fn no_retries() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// Runs in-memory datasets as jobs `0..n`.
    fn run(
        pipeline: &Pipeline,
        datasets: &[WetLabDataset],
        threads: usize,
        sup: &SupervisorConfig,
    ) -> Vec<Outcome> {
        let jobs: Vec<Job> = datasets
            .iter()
            .enumerate()
            .map(|(i, ds)| Job::loaded(i, ds))
            .collect();
        execute(pipeline, &jobs, threads, sup, &|_, _| {})
    }

    /// The only time point's solution of a successful one-point job.
    fn solution(out: &Outcome) -> &ParmaSolution {
        &out.as_ref().expect("job succeeds")[0].solution
    }

    fn assert_bitwise(a: &ParmaSolution, b: &ParmaSolution, label: &str) {
        assert_eq!(a.iterations, b.iterations, "{label}");
        assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "{label}");
        let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.history), bits(&b.history), "{label}");
        assert_eq!(a.recovery, b.recovery, "{label}");
        assert_eq!(
            bits(a.resistors.as_slice()),
            bits(b.resistors.as_slice()),
            "{label}"
        );
    }

    fn assert_sessions_bitwise(a: &[TimePointResult], b: &[TimePointResult], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.hours, y.hours, "{label}");
            assert_bitwise(&x.solution, &y.solution, label);
        }
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let zs = measurements(5, 6);
        let solver = ParmaSolver::new(ParmaConfig::default());
        let out = run(
            &pipeline(ParmaConfig::default()),
            &singles(&zs),
            4,
            &no_retries(),
        );
        assert_eq!(out.len(), zs.len());
        for (i, (z, o)) in zs.iter().zip(&out).enumerate() {
            assert_bitwise(solution(o), &solver.solve(z).unwrap(), &format!("job {i}"));
        }
    }

    #[test]
    fn thread_count_never_changes_bits() {
        let datasets = singles(&measurements(4, 5));
        let p = pipeline(ParmaConfig::default());
        let one = run(&p, &datasets, 1, &no_retries());
        for threads in [2usize, 3, 8] {
            let many = run(&p, &datasets, threads, &no_retries());
            for (a, b) in one.iter().zip(&many) {
                assert_bitwise(solution(a), solution(b), &format!("{threads} threads"));
            }
        }
    }

    #[test]
    fn surplus_threads_flow_to_the_intra_solve_axis_without_changing_bits() {
        // Few large jobs, many threads: ThreadBudget routes the surplus
        // to each job's factorization (n = 25 horizontal wires span two
        // CHUNK-row tasks, so the intra pool actually runs). A loose
        // tolerance keeps the solves short; they must still be bitwise
        // identical to the single-thread run.
        let datasets = singles(&measurements(25, 2));
        let p = pipeline(ParmaConfig {
            tol: 1e-4,
            ..Default::default()
        });
        assert_eq!(ThreadBudget::split(8, datasets.len()).inner, 4);
        let narrow = run(&p, &datasets, 1, &no_retries());
        let wide = run(&p, &datasets, 8, &no_retries());
        for (a, b) in narrow.iter().zip(&wide) {
            assert_bitwise(solution(a), solution(b), "intra-solve width");
        }
    }

    #[test]
    fn failures_stay_in_their_slot() {
        let mut zs = measurements(3, 3);
        // Nothing converges in one iteration at an absurd tolerance.
        zs.insert(1, zs[0].clone());
        let p = pipeline(ParmaConfig {
            max_iter: 1,
            tol: 1e-16,
            ..Default::default()
        });
        let out = run(&p, &singles(&zs), 2, &no_retries());
        assert_eq!(out.len(), 4);
        for (i, res) in out.iter().enumerate() {
            let report = res.as_ref().unwrap_err();
            assert_eq!(report.item, i);
            assert_eq!(report.kind, FailureKind::Divergence);
            assert_eq!(report.attempts.len(), 1);
        }
    }

    #[test]
    fn mixed_geometries_share_nothing_wrongly() {
        let mut zs = measurements(3, 2);
        zs.extend(measurements(5, 2));
        // Interleaved transposed geometries: the pool's spare scratch and
        // its forward solver are keyed by the exact (rows, cols) pair, so a
        // 3×4 solve must never reuse state sized for a 4×3 one.
        for k in 0..3u64 {
            for (rows, cols) in [(3usize, 4usize), (4, 3)] {
                let (truth, _) =
                    AnomalyConfig::default().generate(MeaGrid::new(rows, cols), 950 + k);
                zs.push(ForwardSolver::new(&truth).unwrap().solve_all());
            }
        }
        let solver = ParmaSolver::new(ParmaConfig::default());
        let p = pipeline(ParmaConfig::default());
        let datasets = singles(&zs);
        for threads in [1usize, 3] {
            let out = run(&p, &datasets, threads, &no_retries());
            for (k, (z, res)) in zs.iter().zip(&out).enumerate() {
                let b = solution(res);
                assert_eq!(b.resistors.grid(), z.grid());
                assert_eq!(
                    b.resistors
                        .rel_max_diff(&solver.solve(z).unwrap().resistors),
                    0.0,
                    "job {k} on {threads} thread(s): reused state must not leak across geometries"
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = execute(
            &pipeline(ParmaConfig::default()),
            &[],
            4,
            &SupervisorConfig::default(),
            &|_, _| panic!("no job, no callback"),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        // The executor takes a validated pipeline: a bad configuration
        // never reaches a job.
        let cfg = ParmaConfig {
            damping: 2.0,
            ..Default::default()
        };
        assert!(matches!(
            Pipeline::new(cfg, 1.5),
            Err(ParmaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_item_is_reported_not_panicked() {
        let mut zs = measurements(3, 2);
        zs.push(CrossingMatrix::filled(MeaGrid::square(3), -2.0));
        let out = run(
            &pipeline(ParmaConfig::default()),
            &singles(&zs),
            2,
            &no_retries(),
        );
        assert!(out[0].is_ok() && out[1].is_ok());
        let report = out[2].as_ref().unwrap_err();
        assert_eq!(report.kind, FailureKind::NonFiniteInput);
        assert!(report.detail.contains("invalid measurement"), "{report}");
    }

    #[test]
    fn sessions_match_the_sequential_pipeline() {
        let datasets = sessions(4, 3, 70);
        let p = pipeline(ParmaConfig::default());
        let out = run(&p, &datasets, 2, &SupervisorConfig::default());
        assert_eq!(out.len(), 3);
        for (d, (ds, res)) in datasets.iter().zip(&out).enumerate() {
            assert_sessions_bitwise(
                res.as_ref().unwrap(),
                &p.run(ds).unwrap(),
                &format!("dataset {d}"),
            );
        }
    }

    #[test]
    fn supervised_with_retries_disabled_matches_plain_bitwise() {
        // The determinism contract: no retries, no deadlines, no chaos →
        // the executor is the plain sequential solver, bit for bit.
        let zs = measurements(5, 4);
        let solver = ParmaSolver::new(ParmaConfig::default());
        let out = run(
            &pipeline(ParmaConfig::default()),
            &singles(&zs),
            3,
            &no_retries(),
        );
        for (z, o) in zs.iter().zip(&out) {
            assert_bitwise(solution(o), &solver.solve(z).unwrap(), "no retries");
        }
    }

    #[test]
    fn supervised_escalation_rescues_a_tight_budget() {
        // Base config too tight to converge (1 iteration) and recovery off:
        // the first attempt diverges, the escalated retries widen the
        // budget and arm the ladder until the solve lands.
        let p = pipeline(ParmaConfig {
            max_iter: 1,
            recovery: false,
            ..Default::default()
        });
        let sup = SupervisorConfig {
            max_retries: 8,
            backoff: std::time::Duration::ZERO,
            ..Default::default()
        };
        let out = run(&p, &singles(&measurements(4, 3)), 2, &sup);
        for (i, r) in out.iter().enumerate() {
            let tps = r
                .as_ref()
                .unwrap_or_else(|rep| panic!("job {i} should be rescued, got {rep}"));
            assert!(tps[0].solution.residual <= ParmaConfig::default().tol);
        }
    }

    #[test]
    fn supervised_quarantines_bad_items_and_finishes_the_rest() {
        let mut zs = measurements(4, 3);
        zs.insert(1, CrossingMatrix::filled(MeaGrid::square(4), -2.0));
        let out = run(
            &pipeline(ParmaConfig::default()),
            &singles(&zs),
            2,
            &SupervisorConfig::default(),
        );
        assert_eq!(out.len(), 4);
        let report = out[1].as_ref().unwrap_err();
        assert_eq!(report.kind, FailureKind::NonFiniteInput);
        assert_eq!(report.item, 1);
        assert_eq!(report.attempts.len(), 1, "bad input gets no retries");
        for i in [0usize, 2, 3] {
            assert!(out[i].is_ok(), "healthy job {i} must complete");
        }
    }

    #[test]
    fn supervised_sessions_match_plain_sessions_bitwise() {
        let datasets = sessions(4, 3, 80);
        let p = pipeline(ParmaConfig::default());
        let jobs: Vec<Job> = datasets
            .iter()
            .enumerate()
            .map(|(i, ds)| Job::loaded(i, ds))
            .collect();
        let fired = Mutex::new(Vec::new());
        let out = execute(&p, &jobs, 2, &no_retries(), &|id, r| {
            assert!(r.is_ok());
            fired.lock().unwrap().push(id);
        });
        let mut fired = fired.into_inner().unwrap();
        fired.sort_unstable();
        assert_eq!(fired, vec![0, 1, 2], "on_done fires once per job");
        for (d, (ds, res)) in datasets.iter().zip(&out).enumerate() {
            assert_sessions_bitwise(
                res.as_ref().unwrap(),
                &p.run(ds).unwrap(),
                &format!("dataset {d}"),
            );
        }
    }

    #[test]
    fn supervised_solve_deadline_quarantines_as_timeout() {
        let sup = SupervisorConfig {
            max_retries: 1,
            solve_deadline: Some(std::time::Duration::ZERO),
            backoff: std::time::Duration::ZERO,
            ..Default::default()
        };
        let out = run(
            &pipeline(ParmaConfig::default()),
            &singles(&measurements(4, 2)),
            2,
            &sup,
        );
        for r in &out {
            let report = r.as_ref().unwrap_err();
            assert_eq!(report.kind, FailureKind::Timeout);
            assert_eq!(report.attempts.len(), 2, "timeout retries then quarantines");
        }
    }

    #[test]
    fn on_done_and_reports_are_keyed_by_the_callers_id() {
        let mut zs = measurements(3, 3);
        zs[1] = CrossingMatrix::filled(MeaGrid::square(3), -2.0);
        let datasets = singles(&zs);
        let jobs: Vec<Job> = datasets
            .iter()
            .enumerate()
            .map(|(k, ds)| Job::loaded(10 * (k + 1), ds))
            .collect();
        let fired = Mutex::new(Vec::new());
        let out = execute(
            &pipeline(ParmaConfig::default()),
            &jobs,
            2,
            &SupervisorConfig::default(),
            &|id, r| fired.lock().unwrap().push((id, r.is_ok())),
        );
        let mut fired = fired.into_inner().unwrap();
        fired.sort_unstable();
        assert_eq!(fired, vec![(10, true), (20, false), (30, true)]);
        assert_eq!(out[1].as_ref().unwrap_err().item, 20);
    }

    #[test]
    fn bad_detection_factor_fails_the_whole_call() {
        // A bad detection factor is rejected where the executor's pipeline
        // is built, before any job runs.
        assert!(matches!(
            Pipeline::new(ParmaConfig::default(), 0.5),
            Err(ParmaError::InvalidConfig(_))
        ));
    }
}
