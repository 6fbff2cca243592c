//! Multi-process sharding for the CLI: the `parma worker` command and
//! the coordinator-side driver behind `parma batch --workers N`.
//!
//! The unit of distribution is one whole dataset (one batch item): per
//! the paper's §V parallelization ladder, sessions are independent, so
//! whole-array sharding never splits a warm-start chain and the remote
//! solve is **the job executor over one job** — the same code path the
//! in-process batch runs (`parma::execute`). That is the whole
//! bitwise-identity argument: there is no "distributed solver", only the
//! local executor running in more processes.
//!
//! Shards are placed with the same deterministic block partition
//! `mpi_sim` ranks use (`block_range` over the sorted live-worker set),
//! so a run at `p` workers is comparable with the Figure-10 simulated
//! rank `p` — and when a worker dies, the reassignment steal order is
//! the ascending ticket order, which keeps placement deterministic for
//! a given death sequence.

use crate::args::Args;
use crate::{journal, CliError};
use parma::dist::codec::{self, SolveTask};
use parma::dist::worker::run_worker_with;
use parma::dist::{Coordinator, DistPolicy, TaskOutcome};
use parma::prelude::*;
use parma::supervisor::FailureKind;
use parma::{execute, AttemptFailure, Job};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// `parma worker --connect <host:port> [--name N]`: join a coordinator
/// and solve assigned datasets until released. The handler is
/// deliberately thin and stateless — decode, run the executor on one job,
/// encode — so remote and local solves share every numeric code path.
pub fn worker<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let addr = args
        .get("connect")
        .ok_or_else(|| "missing --connect: parma worker --connect <host:port>".to_string())?;
    let name = args
        .get("name")
        .map(String::from)
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    // --metrics-addr starts this worker's own telemetry listener once the
    // handshake has assigned an id, so the /snapshot meta names exactly
    // who this process is within the fleet.
    let metrics_addr = args.get("metrics-addr").map(String::from);
    let metrics_addr_file = args.get("metrics-addr-file").map(String::from);
    let mut server: Option<mea_obs::serve::MetricsServer> = None;
    let mut server_err: Option<String> = None;
    let mut on_registered = |worker_id: u64| {
        let Some(ma) = &metrics_addr else { return };
        let meta = vec![
            ("schema".to_string(), "parma-snapshot/v1".to_string()),
            ("role".to_string(), "worker".to_string()),
            ("worker_id".to_string(), worker_id.to_string()),
            ("worker_name".to_string(), name.clone()),
        ];
        match mea_obs::serve::MetricsServer::start(ma, meta) {
            Ok(srv) => {
                if let Some(f) = &metrics_addr_file {
                    if let Err(e) = crate::commands::write_addr_file(f, srv.addr()) {
                        server_err = Some(e);
                        return;
                    }
                }
                server = Some(srv);
            }
            Err(e) => server_err = Some(e),
        }
    };
    let summary =
        run_worker_with(addr, &name, &solve_blob, &mut on_registered).map_err(CliError::from)?;
    if let Some(e) = server_err {
        return Err(e.into());
    }
    drop(server);
    writeln!(
        out,
        "worker {name}: {} task(s) processed",
        summary.processed
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// A failure the *worker runtime* decided (undecodable task, bad
/// configuration) — as opposed to one the solver quarantined.
fn internal_failure(detail: String) -> Vec<u8> {
    codec::encode_failure(&FailureReport {
        item: 0,
        kind: FailureKind::Internal,
        detail: detail.clone(),
        attempts: vec![AttemptFailure {
            attempt: 0,
            kind: FailureKind::Internal,
            detail,
        }],
        events: Vec::new(),
    })
}

/// Decode → solve → encode for one assigned dataset; the job (and so its
/// failure report) is keyed by the dispatch ticket.
fn solve_blob(ticket: u64, blob: &[u8]) -> Result<Vec<u8>, Vec<u8>> {
    let task = match SolveTask::decode(blob) {
        Ok(t) => t,
        Err(e) => return Err(internal_failure(format!("undecodable task: {e:?}"))),
    };
    let dataset = match WetLabDataset::from_bytes(&task.dataset) {
        Ok(d) => d,
        Err(e) => return Err(internal_failure(format!("undecodable dataset: {e}"))),
    };
    let config = ParmaConfig {
        tol: task.tol,
        ..Default::default()
    };
    let sup = SupervisorConfig {
        max_retries: task.max_retries as usize,
        solve_deadline: (task.solve_deadline_ms > 0)
            .then(|| Duration::from_millis(task.solve_deadline_ms)),
        batch_deadline: None,
        backoff: Duration::from_millis(task.backoff_ms),
    };
    let pipeline = match Pipeline::new(config, task.detect) {
        Ok(p) => p,
        Err(e) => return Err(internal_failure(format!("bad configuration: {e}"))),
    };
    let job = Job::loaded(ticket as usize, &dataset);
    match execute(&pipeline, &[job], 1, &sup, &|_, _| {})
        .pop()
        .expect("one job in, one outcome out")
    {
        Ok(tps) => Ok(codec::encode_time_points(&tps)),
        Err(report) => Err(codec::encode_failure(&report)),
    }
}

/// Everything `batch` hands the distributed driver.
pub struct DistBatch<'a> {
    pub sessions: &'a [WetLabDataset],
    pub work_names: &'a [String],
    pub config: &'a ParmaConfig,
    pub detect: f64,
    /// The batch's thread budget, which the in-process fallback keeps.
    pub threads: usize,
    pub sup: &'a SupervisorConfig,
    pub workers: usize,
    pub heartbeat_ms: u64,
    pub journal: Option<&'a journal::Journal>,
    pub quiet: bool,
    pub done_items: &'a AtomicUsize,
    pub failed_items: &'a AtomicUsize,
    /// Where to publish the coordinator's fleet-telemetry store once the
    /// coordinator is bound, so an already-running /metrics listener can
    /// append the per-worker series to its exposition.
    pub fleet_slot: Option<&'a std::sync::OnceLock<std::sync::Arc<mea_obs::fleet::FleetStore>>>,
}

/// Runs the work set across `workers` self-spawned `parma worker`
/// processes. Returns results in work-set order, exactly shaped like
/// the executor's return — the caller's reporting code cannot tell the
/// paths apart.
///
/// Fault handling, in order of escalation:
/// * a worker death mid-shard → the shard is redispatched to a survivor
///   (dedup'd by the coordinator's single decide transition);
/// * the last worker dies, or a shard exhausts its dispatch budget, or a
///   result blob fails to decode → the shard **falls back to in-process
///   solving**, same code path, same bits;
/// * no worker ever connects → the whole set falls back.
pub fn run_distributed(
    spec: &DistBatch,
) -> Result<Vec<Result<Vec<TimePointResult>, FailureReport>>, String> {
    let n = spec.sessions.len();
    let interval = Duration::from_millis(spec.heartbeat_ms.max(10));
    let policy = DistPolicy {
        heartbeat: mea_parallel::HeartbeatPolicy {
            interval,
            deadline: interval * 10,
        },
        max_dispatches: 3,
    };
    let coord = Coordinator::bind("127.0.0.1:0", policy)
        .map_err(|e| format!("cannot bind coordinator: {e}"))?;
    if let Some(slot) = spec.fleet_slot {
        let _ = slot.set(coord.fleet());
    }
    let addr = coord.addr().to_string();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut children: Vec<Child> = Vec::with_capacity(spec.workers);
    for k in 0..spec.workers {
        match Command::new(&exe)
            .args(["worker", "--connect", &addr, "--name", &format!("w{k}")])
            .stdout(Stdio::null())
            .stdin(Stdio::null())
            .spawn()
        {
            Ok(child) => children.push(child),
            Err(e) => {
                if !spec.quiet {
                    eprintln!("dist: cannot spawn worker w{k}: {e}");
                }
            }
        }
    }

    let mut results: Vec<Option<Result<Vec<TimePointResult>, FailureReport>>> =
        (0..n).map(|_| None).collect();
    let mut fallback: Vec<usize> = Vec::new();

    if children.is_empty() || !coord.wait_for_workers(1, Duration::from_secs(30)) {
        if !spec.quiet {
            eprintln!("dist: no workers connected — solving in-process");
        }
        fallback.extend(0..n);
    } else {
        // Give the rest of the complement a moment to join before the
        // first dispatch, so placement follows the full block partition
        // instead of funneling early shards to whoever connected first.
        // Best-effort: a straggler past the grace period just joins the
        // steal pool late.
        coord.wait_for_workers(children.len(), Duration::from_secs(10));
        let mut by_ticket: HashMap<u64, usize> = HashMap::with_capacity(n);
        let mut tickets: BTreeSet<u64> = BTreeSet::new();
        for (i, (session, name)) in spec.sessions.iter().zip(spec.work_names).enumerate() {
            let mut bytes = Vec::new();
            session
                .write_binary(&mut bytes)
                .map_err(|e| format!("cannot encode {name}: {e}"))?;
            let task = SolveTask {
                name: name.clone(),
                dataset: bytes,
                tol: spec.config.tol,
                detect: spec.detect,
                max_retries: spec.sup.max_retries as u64,
                solve_deadline_ms: spec.sup.solve_deadline.map_or(0, |d| d.as_millis() as u64),
                backoff_ms: spec.sup.backoff.as_millis() as u64,
            };
            let ticket = coord.submit(task.encode(), (i, n));
            by_ticket.insert(ticket, i);
            tickets.insert(ticket);
        }
        while !tickets.is_empty() {
            let (ticket, outcome) = coord.take_decided(&mut tickets);
            let i = by_ticket[&ticket];
            // Journal the shard's dispatch history as trace sidecar lines
            // *before* its entry line, whatever the outcome — so even a
            // shard that degrades to in-process keeps its remote lineage.
            if let Some(j) = spec.journal {
                let trace_id = coord.trace_id();
                for (attempt, d) in coord.job_trace(ticket).iter().enumerate() {
                    j.record(&journal::entry_trace(
                        &spec.work_names[i],
                        trace_id,
                        ticket,
                        attempt as u64,
                        d,
                    ))?;
                }
            }
            match outcome {
                TaskOutcome::Ok { worker, blob } => match codec::decode_time_points(&blob) {
                    Ok(tps) => {
                        if let Some(j) = spec.journal {
                            j.record(&journal::entry_ok_with_worker(
                                &spec.work_names[i],
                                &tps,
                                Some(worker),
                            ))?;
                        }
                        spec.done_items.fetch_add(1, Ordering::Relaxed);
                        results[i] = Some(Ok(tps));
                    }
                    Err(e) => {
                        if !spec.quiet {
                            eprintln!(
                                "dist: undecodable result for {} from worker {worker}: {e:?} — \
                                 re-solving in-process",
                                spec.work_names[i]
                            );
                        }
                        fallback.push(i);
                    }
                },
                TaskOutcome::Failed { worker, blob } => match codec::decode_failure(&blob) {
                    Ok(mut report) => {
                        // Remote reports carry the worker's item index (0:
                        // it solves one-session slices); re-key to ours so
                        // the journal line matches the in-process run's.
                        report.item = i;
                        if let Some(j) = spec.journal {
                            j.record(&journal::entry_failed_with_worker(
                                &spec.work_names[i],
                                &report,
                                Some(worker),
                            ))?;
                        }
                        spec.failed_items.fetch_add(1, Ordering::Relaxed);
                        results[i] = Some(Err(report));
                    }
                    Err(e) => {
                        if !spec.quiet {
                            eprintln!(
                                "dist: undecodable failure for {} from worker {worker}: {e:?} — \
                                 re-solving in-process",
                                spec.work_names[i]
                            );
                        }
                        fallback.push(i);
                    }
                },
                TaskOutcome::NoWorkers => fallback.push(i),
                TaskOutcome::WorkerLost { dispatches } => {
                    if !spec.quiet {
                        eprintln!(
                            "dist: {} lost {dispatches} worker(s) mid-solve — re-solving \
                             in-process",
                            spec.work_names[i]
                        );
                    }
                    fallback.push(i);
                }
            }
        }
    }
    // A SIGKILL'd worker never ships a final report; its forensics are
    // whatever flight-recorder tail it already piggybacked on heartbeats,
    // which the coordinator retains past death. Surface them with the
    // run's failure reporting.
    if !spec.quiet {
        for (id, w) in coord.fleet().workers() {
            if !w.alive && !w.events.is_empty() {
                eprintln!(
                    "dist: worker {} (id {id}) died; retained flight-recorder tail \
                     ({} event(s)):",
                    w.name,
                    w.events.len()
                );
                eprint!("{}", mea_obs::events::events_to_jsonl(&w.events));
            }
        }
    }
    coord.shutdown();
    for mut child in children {
        child.kill().ok();
        child.wait().ok();
    }

    if !fallback.is_empty() {
        if !spec.quiet {
            eprintln!(
                "dist: solving {} shard(s) in-process (graceful degradation)",
                fallback.len()
            );
        }
        fallback.sort_unstable();
        let pipeline = Pipeline::new(*spec.config, spec.detect)
            .map_err(|e| format!("bad configuration: {e}"))?;
        let jobs: Vec<Job> = fallback
            .iter()
            .map(|&i| Job::loaded(i, &spec.sessions[i]))
            .collect();
        let journal_errors: std::sync::Mutex<Vec<String>> = Default::default();
        let on_done = |i: usize, res: &Result<Vec<TimePointResult>, FailureReport>| {
            match res {
                Ok(_) => spec.done_items.fetch_add(1, Ordering::Relaxed),
                Err(_) => spec.failed_items.fetch_add(1, Ordering::Relaxed),
            };
            if let Some(j) = spec.journal {
                let line = match res {
                    Ok(tps) => journal::entry_ok(&spec.work_names[i], tps),
                    Err(report) => journal::entry_failed(&spec.work_names[i], report),
                };
                if let Err(e) = j.record(&line) {
                    journal_errors.lock().expect("journal error log").push(e);
                }
            }
        };
        let local = execute(&pipeline, &jobs, spec.threads, spec.sup, &on_done);
        if let Some(e) = journal_errors
            .lock()
            .expect("journal error log")
            .first()
            .cloned()
        {
            return Err(e);
        }
        for (&i, res) in fallback.iter().zip(local) {
            results[i] = Some(res);
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every shard decided exactly once"))
        .collect())
}
