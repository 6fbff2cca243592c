//! The long-lived solve service behind `parma serve`: a bounded job
//! queue, a fixed worker pool, and the cross-request state that makes a
//! daemon worth running — the per-device [`SessionStore`] (warm-start
//! each timepoint from the previous solution).
//!
//! Every job runs through the job executor ([`crate::batch::execute`]) as
//! a one-job batch, under the supervisor: panics are isolated, retryable
//! failures get their backoff/escalation ladder, and exhausted items
//! surface as classified [`FailureReport`]s rather than taking the daemon
//! down. Admission control is a bounded queue; a full queue or a
//! draining service rejects *at submit time* with an [`AdmissionError`]
//! mapped onto the supervisor's failure taxonomy (retryable → HTTP 429,
//! terminal → 503 at the CLI layer).
//!
//! # Determinism contract
//!
//! A session-less job is bitwise identical to a direct
//! [`Pipeline::run`] of the same request, and a warm-started session
//! changes only the iteration count. Both halves are pinned by the serve
//! end-to-end harness.

use crate::batch::{execute, Job};
use crate::config::ParmaConfig;
use crate::error::ParmaError;
use crate::pipeline::{Pipeline, TimePointResult};
use crate::session::SessionStore;
use crate::supervisor::{FailureKind, FailureReport, SupervisorConfig};
use mea_model::WetLabDataset;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One job, from dequeue to decision (ms).
static JOB_MS: mea_obs::hist::Hist = mea_obs::hist::Hist::new("parma.serve.job_ms");

/// Everything that shapes the service's numeric output and its capacity.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Base solver configuration.
    pub solver: ParmaConfig,
    /// Anomaly-detection threshold factor.
    pub detection_factor: f64,
    /// Worker threads draining the queue (≥ 1).
    pub workers: usize,
    /// Most jobs allowed to *wait* (running jobs don't count; ≥ 1).
    /// Submits past this are rejected with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Retry/deadline/backoff policy for each job.
    pub supervisor: SupervisorConfig,
    /// Artificial pre-solve delay per job — a load-test knob (the
    /// backpressure tests use it to keep workers busy); `None` in
    /// production.
    pub hold: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            solver: ParmaConfig::default(),
            detection_factor: 1.5,
            workers: 2,
            queue_capacity: 32,
            supervisor: SupervisorConfig::default(),
            hold: None,
        }
    }
}

/// Why a submit was turned away at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is full; retry after backing off.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The service is draining and accepts no new work.
    ShuttingDown,
}

impl AdmissionError {
    /// Maps the admission failure onto the supervisor taxonomy: a full
    /// queue is transient pressure (like a timeout — retryable), a
    /// draining service is a cancellation (terminal).
    pub fn failure_kind(&self) -> FailureKind {
        match self {
            AdmissionError::QueueFull { .. } => FailureKind::Timeout,
            AdmissionError::ShuttingDown => FailureKind::Cancelled,
        }
    }

    /// Whether the client should retry (drives 429-vs-503 at the HTTP
    /// layer).
    pub fn retryable(&self) -> bool {
        self.failure_kind().retryable()
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} waiting)")
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// A worker is solving it.
    Running,
    /// Every time point solved.
    Done(Arc<Vec<TimePointResult>>),
    /// Quarantined by the supervisor.
    Failed(Arc<FailureReport>),
}

impl JobState {
    /// The stable status label served over HTTP.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// A point-in-time copy of one job's public state.
#[derive(Clone)]
pub struct JobView {
    /// The id `submit` returned.
    pub id: u64,
    /// The device session the job belongs to, if any.
    pub session: Option<String>,
    /// Lifecycle state (results/reports are shared, not copied).
    pub state: JobState,
}

/// Cumulative service counters, for summaries and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that solved every time point.
    pub completed: u64,
    /// Jobs quarantined by the supervisor.
    pub failed: u64,
    /// Submits rejected by admission control.
    pub rejected: u64,
}

struct JobRecord {
    session: Option<String>,
    dataset: Option<Arc<WetLabDataset>>,
    state: JobState,
}

/// Fires exactly once per decided job (success or quarantine), as soon
/// as its fate is known — the CLI journals (and fsyncs) from it.
pub type DoneHook = dyn Fn(u64, &Result<Vec<TimePointResult>, FailureReport>) + Send + Sync;

/// Optional remote-execution seam: given a job and its dataset, either
/// solve it elsewhere (`Some(result)`) or decline (`None`) — in which
/// case the job runs in-process as if no offloader existed. Declining is
/// how worker loss degrades gracefully: the local path is always there.
pub type OffloadHook = dyn Fn(u64, &WetLabDataset) -> Option<Result<Vec<TimePointResult>, FailureReport>>
    + Send
    + Sync;

struct Inner {
    cfg: ServiceConfig,
    pipeline: Pipeline,
    queue: Mutex<VecDeque<u64>>,
    available: Condvar,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    stopping: AtomicBool,
    sessions: SessionStore,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    on_done: Option<Box<DoneHook>>,
    offload: Option<Box<OffloadHook>>,
}

/// A running solve service. Dropping it drains and joins the workers.
pub struct SolveService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SolveService {
    /// Validates `cfg` and starts the worker pool. `on_done` sees every
    /// decided job ([`DoneHook`]). Session-less jobs are offered to
    /// `offload` first (device-session jobs never are — warm-start state
    /// lives in this process and must not be split across machines); an
    /// offloader that declines, or is absent, leaves the job on the
    /// in-process path.
    pub fn start(
        cfg: ServiceConfig,
        on_done: Option<Box<DoneHook>>,
        offload: Option<Box<OffloadHook>>,
    ) -> Result<SolveService, ParmaError> {
        // Surface bad numeric configuration now, not on the first job.
        let pipeline = Pipeline::new(cfg.solver, cfg.detection_factor)?;
        if cfg.workers == 0 {
            return Err(ParmaError::InvalidConfig("service needs ≥ 1 worker".into()));
        }
        if cfg.queue_capacity == 0 {
            return Err(ParmaError::InvalidConfig(
                "service queue capacity must be ≥ 1".into(),
            ));
        }
        let workers = cfg.workers;
        let inner = Arc::new(Inner {
            cfg,
            pipeline,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stopping: AtomicBool::new(false),
            sessions: SessionStore::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            on_done,
            offload,
        });
        let mut handles = Vec::with_capacity(workers);
        for k in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("parma-serve-{k}"))
                .spawn(move || worker_loop(&worker_inner))
                .map_err(|e| {
                    ParmaError::InvalidConfig(format!("cannot spawn service worker: {e}"))
                })?;
            handles.push(handle);
        }
        Ok(SolveService {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Admits a dataset as a new job and returns its id, or rejects it
    /// under backpressure. `session` opts the job into cross-request
    /// warm starting under that device id.
    pub fn submit(
        &self,
        dataset: WetLabDataset,
        session: Option<&str>,
    ) -> Result<u64, AdmissionError> {
        let inner = &self.inner;
        if inner.stopping.load(Ordering::Acquire) {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            mea_obs::counter_add("parma.serve.rejected", 1);
            return Err(AdmissionError::ShuttingDown);
        }
        let mut queue = inner.queue.lock().expect("service queue lock");
        if queue.len() >= inner.cfg.queue_capacity {
            drop(queue);
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            mea_obs::counter_add("parma.serve.rejected", 1);
            return Err(AdmissionError::QueueFull {
                capacity: inner.cfg.queue_capacity,
            });
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.jobs.lock().expect("service job table lock").insert(
            id,
            JobRecord {
                session: session.map(str::to_string),
                dataset: Some(Arc::new(dataset)),
                state: JobState::Queued,
            },
        );
        queue.push_back(id);
        mea_obs::gauge_set("parma.serve.queue_depth", queue.len() as f64);
        drop(queue);
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        mea_obs::counter_add("parma.serve.submitted", 1);
        inner.available.notify_one();
        Ok(id)
    }

    /// A snapshot of one job's state, or `None` for an unknown id.
    pub fn job(&self, id: u64) -> Option<JobView> {
        let jobs = self.inner.jobs.lock().expect("service job table lock");
        jobs.get(&id).map(|record| JobView {
            id,
            session: record.session.clone(),
            state: record.state.clone(),
        })
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().expect("service queue lock").len()
    }

    /// Live device sessions with committed warm-start state.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.len()
    }

    /// Cumulative admission/completion counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
        }
    }

    /// Closes the admission door *now*: every submit from this point on
    /// answers [`AdmissionError::ShuttingDown`], while queued and
    /// in-flight jobs keep draining. This is the first half of
    /// [`Self::shutdown`], split out so an HTTP shutdown endpoint can
    /// stop admissions before it even answers — otherwise there is a
    /// window between "shutdown accepted" and the drain actually
    /// starting in which a racing submit is accepted and then lost to
    /// the dying process.
    pub fn begin_drain(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        self.inner.available.notify_all();
    }

    /// Graceful drain: stops admitting, lets the workers finish every
    /// queued and in-flight job, and joins them. Idempotent; returns the
    /// number of jobs decided over the service's lifetime.
    pub fn shutdown(&self) -> u64 {
        self.begin_drain();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("service worker lock"));
        for handle in handles {
            let _ = handle.join();
        }
        self.inner.completed.load(Ordering::Relaxed) + self.inner.failed.load(Ordering::Relaxed)
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let id = {
            let mut queue = inner.queue.lock().expect("service queue lock");
            loop {
                if let Some(id) = queue.pop_front() {
                    mea_obs::gauge_set("parma.serve.queue_depth", queue.len() as f64);
                    break Some(id);
                }
                if inner.stopping.load(Ordering::Acquire) {
                    break None;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .expect("service queue lock poisoned");
            }
        };
        let Some(id) = id else {
            return;
        };
        run_job(inner, id);
    }
}

fn run_job(inner: &Inner, id: u64) {
    let timer = JOB_MS.time();
    let (dataset, session) = {
        let mut jobs = inner.jobs.lock().expect("service job table lock");
        let record = jobs.get_mut(&id).expect("queued job has a record");
        record.state = JobState::Running;
        (
            record
                .dataset
                .take()
                .expect("queued job carries its dataset"),
            record.session.clone(),
        )
    };
    if let Some(hold) = inner.cfg.hold {
        std::thread::sleep(hold);
    }
    // Session-less jobs may run on a remote worker; the solve there is
    // the executor over one job, so the result bits are identical.
    // A declined offload (no workers, worker died, undecodable reply)
    // falls through to the in-process path below.
    let offloaded = if session.is_none() {
        inner.offload.as_ref().and_then(|off| off(id, &dataset))
    } else {
        None
    };
    let outcome = match offloaded {
        Some(result) => result,
        None => {
            // A one-job batch: parallelism across jobs comes from the
            // service's worker threads themselves.
            let job = Job {
                warm: session
                    .as_deref()
                    .and_then(|sid| inner.sessions.warm_pair(sid, dataset.grid)),
                ..Job::loaded(id as usize, &dataset)
            };
            let sup = &inner.cfg.supervisor;
            execute(&inner.pipeline, &[job], 1, sup, &|_, _| {})
                .pop()
                .expect("one job yields one outcome")
        }
    };
    let result = match outcome {
        Ok(time_points) => {
            if let (Some(sid), Some(last_tp), Some(last_m)) = (
                session.as_deref(),
                time_points.last(),
                dataset.measurements.last(),
            ) {
                inner
                    .sessions
                    .commit(sid, last_tp.solution.resistors.clone(), last_m.z.clone());
            }
            inner.completed.fetch_add(1, Ordering::Relaxed);
            mea_obs::counter_add("parma.serve.completed", 1);
            Ok(time_points)
        }
        Err(report) => {
            inner.failed.fetch_add(1, Ordering::Relaxed);
            mea_obs::counter_add("parma.serve.failed", 1);
            Err(report)
        }
    };
    drop(timer);
    if let Some(hook) = &inner.on_done {
        hook(id, &result);
    }
    let state = match result {
        Ok(time_points) => JobState::Done(Arc::new(time_points)),
        Err(report) => JobState::Failed(Arc::new(report)),
    };
    inner
        .jobs
        .lock()
        .expect("service job table lock")
        .get_mut(&id)
        .expect("running job has a record")
        .state = state;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_model::{AnomalyConfig, MeaGrid};
    use std::time::Instant;

    fn session_data(n: usize, seed: u64) -> WetLabDataset {
        WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), seed).unwrap()
    }

    /// One single-measurement dataset per time point of a session — the
    /// serve-shaped workload: each timepoint arrives as its own request.
    fn split_session(ds: &WetLabDataset) -> Vec<WetLabDataset> {
        ds.measurements
            .iter()
            .map(|m| WetLabDataset {
                grid: ds.grid,
                measurements: vec![m.clone()],
            })
            .collect()
    }

    fn wait_done(service: &SolveService, id: u64) -> JobView {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let view = service.job(id).expect("submitted job is known");
            match view.state {
                JobState::Done(_) | JobState::Failed(_) => return view,
                _ => {
                    assert!(Instant::now() < deadline, "job {id} never decided");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    #[test]
    fn jobs_complete_and_match_the_direct_pipeline_bitwise() {
        let service = SolveService::start(ServiceConfig::default(), None, None).unwrap();
        let ds = session_data(6, 2024);
        let direct = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&ds)
            .unwrap();
        let id = service.submit(ds, None).unwrap();
        let JobState::Done(got) = wait_done(&service, id).state else {
            panic!("job failed");
        };
        assert_eq!(got.len(), direct.len());
        for (a, b) in got.iter().zip(&direct) {
            assert_eq!(a.solution.iterations, b.solution.iterations);
            for (x, y) in a
                .solution
                .resistors
                .as_slice()
                .iter()
                .zip(b.solution.resistors.as_slice())
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(service.stats().completed, 1);
        service.shutdown();
    }

    #[test]
    fn session_warm_start_saves_iterations_across_requests() {
        let service = SolveService::start(ServiceConfig::default(), None, None).unwrap();
        let points = split_session(&session_data(8, 55));
        let mut cold_total = 0usize;
        let mut warm_total = 0usize;
        // Cold: each timepoint as an unrelated request.
        for ds in &points {
            let id = service.submit(ds.clone(), None).unwrap();
            let JobState::Done(tps) = wait_done(&service, id).state else {
                panic!("cold job failed");
            };
            cold_total += tps[0].solution.iterations;
        }
        // Warm: the same timepoints under one device session, sequentially.
        for ds in &points {
            let id = service.submit(ds.clone(), Some("dev-1")).unwrap();
            let JobState::Done(tps) = wait_done(&service, id).state else {
                panic!("warm job failed");
            };
            warm_total += tps[0].solution.iterations;
        }
        assert!(
            warm_total < cold_total,
            "session warm start must save iterations: {warm_total} vs {cold_total}"
        );
        assert_eq!(service.session_count(), 1);
        service.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_retryable_backpressure() {
        let service = SolveService::start(
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                hold: Some(Duration::from_millis(300)),
                ..Default::default()
            },
            None,
            None,
        )
        .unwrap();
        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        for seed in 0..8u64 {
            match service.submit(session_data(3, seed), None) {
                Ok(id) => admitted.push(id),
                Err(e) => {
                    assert_eq!(e, AdmissionError::QueueFull { capacity: 1 });
                    assert!(e.retryable());
                    assert_eq!(e.failure_kind(), FailureKind::Timeout);
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "an 8-burst against capacity 1 must reject");
        assert_eq!(service.stats().rejected, rejected as u64);
        service.shutdown();
        for id in admitted {
            assert!(
                matches!(service.job(id).unwrap().state, JobState::Done(_)),
                "admitted jobs must still be drained to completion"
            );
        }
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
        let service = SolveService::start(
            ServiceConfig {
                workers: 1,
                queue_capacity: 16,
                ..Default::default()
            },
            None,
            None,
        )
        .unwrap();
        let ids: Vec<u64> = (0..4u64)
            .map(|seed| service.submit(session_data(4, seed), None).unwrap())
            .collect();
        let decided = service.shutdown();
        assert_eq!(decided, 4, "every admitted job is decided before join");
        for id in ids {
            assert!(matches!(service.job(id).unwrap().state, JobState::Done(_)));
        }
        let err = service.submit(session_data(4, 9), None).unwrap_err();
        assert_eq!(err, AdmissionError::ShuttingDown);
        assert!(!err.retryable());
        assert_eq!(err.failure_kind(), FailureKind::Cancelled);
        // Idempotent.
        assert_eq!(service.shutdown(), 4);
    }

    #[test]
    fn hook_fires_once_per_decided_job_and_failures_quarantine() {
        let fired: Arc<Mutex<Vec<(u64, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let hook_log = Arc::clone(&fired);
        let service = SolveService::start(
            ServiceConfig {
                supervisor: SupervisorConfig {
                    max_retries: 1,
                    solve_deadline: Some(Duration::from_nanos(1)),
                    backoff: Duration::ZERO,
                    ..Default::default()
                },
                ..Default::default()
            },
            Some(Box::new(move |id, result| {
                hook_log.lock().unwrap().push((id, result.is_ok()));
            })),
            None,
        )
        .unwrap();
        let id = service.submit(session_data(6, 3), None).unwrap();
        let view = wait_done(&service, id);
        let JobState::Failed(report) = view.state else {
            panic!("a 1 ns solve deadline must quarantine");
        };
        assert_eq!(report.kind, FailureKind::Timeout);
        assert_eq!(report.item, id as usize, "report keyed by job id");
        service.shutdown();
        assert_eq!(*fired.lock().unwrap(), vec![(id, false)]);
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn invalid_configuration_is_rejected_at_start() {
        assert!(SolveService::start(
            ServiceConfig {
                workers: 0,
                ..Default::default()
            },
            None,
            None,
        )
        .is_err());
        assert!(SolveService::start(
            ServiceConfig {
                queue_capacity: 0,
                ..Default::default()
            },
            None,
            None,
        )
        .is_err());
        assert!(SolveService::start(
            ServiceConfig {
                detection_factor: 0.5,
                ..Default::default()
            },
            None,
            None,
        )
        .is_err());
    }

    #[test]
    fn unknown_job_ids_are_none() {
        let service = SolveService::start(ServiceConfig::default(), None, None).unwrap();
        assert!(service.job(999).is_none());
        service.shutdown();
    }
}
