//! The end-to-end pipeline: measured time series → recovered resistor
//! maps → anomaly reports.
//!
//! This is the workflow the paper's wet lab motivated: the device measures
//! cell media at 0/6/12/24 hours, Parma parametrizes each snapshot, and
//! thresholding the recovered maps localizes the (growing) anomalies.
//! Consecutive time points warm-start from the previous solution,
//! extrapolated by the per-pair measured-impedance ratio (see
//! [`Pipeline::run`]).

use crate::config::ParmaConfig;
use crate::detect::{detect_anomalies, DetectionReport};
use crate::error::ParmaError;
use crate::session::ratio_extrapolate;
use crate::solver::{ParmaSolution, ParmaSolver, SolveScratch};
use mea_model::WetLabDataset;
use mea_obs::hist::Hist;
use mea_parallel::CancelToken;

/// Anomaly detection on one recovered map (ms).
static DETECT_MS: Hist = Hist::new("parma.detect_ms");

/// One time point's outcome.
#[derive(Clone, Debug)]
pub struct TimePointResult {
    /// Hours after setup.
    pub hours: u32,
    /// The inverse-solve outcome.
    pub solution: ParmaSolution,
    /// Anomaly detection on the recovered map.
    pub detection: DetectionReport,
    /// Max relative error against ground truth, when the dataset is
    /// synthetic and carries it.
    pub ground_truth_error: Option<f64>,
}

/// The full measurement-to-detection pipeline.
#[derive(Clone, Debug)]
pub struct Pipeline {
    config: ParmaConfig,
    /// Detection threshold factor over the median baseline.
    detection_factor: f64,
}

impl Pipeline {
    /// A pipeline with the given solver configuration and a detection
    /// factor (must exceed 1; 1.5 is a good default for the paper's
    /// resistance range). Returns [`ParmaError::InvalidConfig`] for
    /// out-of-range values.
    pub fn new(config: ParmaConfig, detection_factor: f64) -> Result<Self, ParmaError> {
        config.validate()?;
        if !(detection_factor > 1.0 && detection_factor.is_finite()) {
            return Err(ParmaError::InvalidConfig(format!(
                "detection factor must exceed 1, got {detection_factor}"
            )));
        }
        Ok(Pipeline {
            config,
            detection_factor,
        })
    }

    /// Processes every time point of a session — the unsupervised
    /// reference every executor role must reproduce bit for bit.
    ///
    /// Each solve after hour 0 starts from the previous recovered map
    /// *extrapolated* by the measured-impedance ratio: crossing `(i,j)`
    /// starts at `R_prev(i,j) · Z_new(i,j)/Z_prev(i,j)`. Impedance is
    /// locally near-proportional to direct resistance, so the ratio
    /// transports the previous solution onto the new measurement and
    /// lands far closer than the raw previous map when anomalies grow
    /// between time points.
    pub fn run(&self, dataset: &WetLabDataset) -> Result<Vec<TimePointResult>, ParmaError> {
        self.run_session(
            dataset,
            &CancelToken::unbounded(),
            None,
            None,
            &mut SolveScratch::new(),
        )
    }

    /// This pipeline at supervisor escalation level `level`
    /// ([`crate::supervisor::escalated`]; level 0 is `self`).
    pub(crate) fn escalated(&self, level: usize) -> Pipeline {
        Pipeline {
            config: crate::supervisor::escalated(&self.config, level),
            ..self.clone()
        }
    }

    /// The session loop behind [`Self::run`] and the job executor
    /// (`crate::batch::execute`). Each time point solves under a child of
    /// `token` clamped to `solve_budget`; hour 0 optionally starts from
    /// `warm_seed`, a previous session's `(resistors, impedances)` pair
    /// transported by the same ratio extrapolation (a seed of another
    /// geometry is ignored — cold start). An uninterrupted run is bitwise
    /// identical to [`Self::run`] for any scratch: it carries no
    /// data-dependent state.
    pub(crate) fn run_session(
        &self,
        dataset: &WetLabDataset,
        token: &CancelToken,
        solve_budget: Option<std::time::Duration>,
        warm_seed: Option<(mea_model::ResistorGrid, mea_model::ZMatrix)>,
        scratch: &mut SolveScratch,
    ) -> Result<Vec<TimePointResult>, ParmaError> {
        let solver = ParmaSolver::new(self.config);
        let mut out: Vec<TimePointResult> = Vec::with_capacity(dataset.measurements.len());
        let mut warm = warm_seed;
        for m in &dataset.measurements {
            let init = match &warm {
                Some((prev_r, prev_z)) if prev_r.grid() == m.z.grid() => {
                    Some(ratio_extrapolate(prev_r, prev_z, &m.z))
                }
                _ => None,
            };
            let solve_token = token.child(solve_budget);
            let solution = solver.solve_supervised(&m.z, init, scratch, &solve_token)?;
            let detection = {
                let _timer = DETECT_MS.time();
                detect_anomalies(&solution.resistors, self.detection_factor)
            };
            let ground_truth_error = m
                .ground_truth
                .as_ref()
                .map(|truth| solution.resistors.rel_max_diff(truth));
            warm = Some((solution.resistors.clone(), m.z.clone()));
            out.push(TimePointResult {
                hours: m.hours,
                solution,
                detection,
                ground_truth_error,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{execute, Job, Outcome};
    use crate::solver::ParmaSolver;
    use crate::supervisor::{FailureKind, SupervisorConfig};
    use mea_model::{AnomalyConfig, MeaGrid};

    fn session(n: usize, seed: u64) -> WetLabDataset {
        WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), seed).unwrap()
    }

    #[test]
    fn processes_all_time_points_accurately() {
        let ds = session(6, 2024);
        let results = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            let err = r
                .ground_truth_error
                .expect("synthetic data has ground truth");
            assert!(err < 1e-6, "hour {}: error {err}", r.hours);
        }
    }

    #[test]
    fn anomaly_coverage_grows_with_time() {
        let ds = session(12, 7);
        let results = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&ds)
            .unwrap();
        let first = results.first().unwrap().detection.anomalies.len();
        let last = results.last().unwrap().detection.anomalies.len();
        assert!(
            last >= first,
            "growing anomalies must not shrink the detection set: {first} → {last}"
        );
    }

    #[test]
    fn warm_start_is_used_after_hour_zero() {
        // The extrapolated warm start must beat (or at worst match, within
        // slack) a cold solve of the *same* measurement, hour by hour.
        let ds = session(8, 55);
        let results = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&ds)
            .unwrap();
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        let solver = ParmaSolver::new(ParmaConfig::default());
        for (r, m) in results[1..].iter().zip(&ds.measurements[1..]) {
            let cold = solver.solve(&m.z).unwrap();
            warm_total += r.solution.iterations;
            cold_total += cold.iterations;
            assert!(
                r.solution.iterations <= cold.iterations + 5,
                "hour {}: warm start regressed: {} vs cold {}",
                r.hours,
                r.solution.iterations,
                cold.iterations
            );
        }
        assert!(
            warm_total < cold_total,
            "across the session the warm start must save iterations: {warm_total} vs {cold_total}"
        );
    }

    /// Runs one job through the executor on one thread.
    fn execute_one(pipeline: &Pipeline, job: Job<'_>, sup: &SupervisorConfig) -> Outcome {
        execute(pipeline, &[job], 1, sup, &|_, _| {}).pop().unwrap()
    }

    fn no_retries() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 0,
            ..Default::default()
        }
    }

    fn assert_same_bits(a: &[TimePointResult], b: &[TimePointResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.solution.iterations, y.solution.iterations);
            for (u, v) in x
                .solution
                .resistors
                .as_slice()
                .iter()
                .zip(y.solution.resistors.as_slice())
            {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn supervised_run_matches_plain_run_bitwise() {
        let ds = session(6, 91);
        let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
        let plain = pipeline.run(&ds).unwrap();
        let supervised =
            execute_one(&pipeline, Job::loaded(0, &ds), &SupervisorConfig::default()).unwrap();
        assert_same_bits(&plain, &supervised);
    }

    #[test]
    fn warm_seed_cuts_iterations_and_mismatched_seed_is_ignored() {
        let ds = session(8, 55);
        let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
        let cold = pipeline.run(&ds).unwrap();
        // Seed with the exact hour-0 answer: the transported start is the
        // fixed point itself, so hour 0 must converge in strictly fewer
        // iterations than the cold solve.
        let seeded = Job {
            warm: Some((
                cold[0].solution.resistors.clone(),
                ds.measurements[0].z.clone(),
            )),
            ..Job::loaded(0, &ds)
        };
        let warm = execute_one(&pipeline, seeded, &no_retries()).unwrap();
        assert!(
            warm[0].solution.iterations < cold[0].solution.iterations,
            "seeded hour 0 must save iterations: {} vs {}",
            warm[0].solution.iterations,
            cold[0].solution.iterations
        );
        // A seed of the wrong geometry silently cold-starts.
        let wrong_grid = MeaGrid::square(5);
        let bogus = Job {
            warm: Some((
                mea_model::CrossingMatrix::filled(wrong_grid, 1.0),
                mea_model::CrossingMatrix::filled(wrong_grid, 1.0),
            )),
            ..Job::loaded(0, &ds)
        };
        let ignored = execute_one(&pipeline, bogus, &no_retries()).unwrap();
        assert_eq!(
            ignored[0].solution.iterations, cold[0].solution.iterations,
            "mismatched seed must behave exactly like a cold start"
        );
    }

    #[test]
    fn expired_session_deadline_stops_the_run() {
        let ds = session(6, 91);
        let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
        let timed_out = |sup: SupervisorConfig| {
            let report = execute_one(&pipeline, Job::loaded(0, &ds), &sup).unwrap_err();
            report.kind == FailureKind::Timeout
        };
        assert!(timed_out(SupervisorConfig {
            max_retries: 0,
            batch_deadline: Some(std::time::Duration::ZERO),
            ..Default::default()
        }));
        // A zero per-solve budget also stops the run, via the child clamp.
        assert!(timed_out(SupervisorConfig {
            max_retries: 0,
            solve_deadline: Some(std::time::Duration::ZERO),
            ..Default::default()
        }));
    }

    #[test]
    fn bad_detection_factor_rejected() {
        let err = Pipeline::new(ParmaConfig::default(), 1.0).unwrap_err();
        assert!(matches!(err, ParmaError::InvalidConfig(_)));
        assert!(err.to_string().contains("detection factor"));
    }

    #[test]
    fn bad_solver_config_rejected_at_construction() {
        let cfg = ParmaConfig {
            damping: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            Pipeline::new(cfg, 1.5),
            Err(ParmaError::InvalidConfig(_))
        ));
    }
}
