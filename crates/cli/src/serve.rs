//! `parma serve`: the long-lived solve daemon.
//!
//! One listener hosts both the job API and the live telemetry endpoints
//! (the handler claims its routes, everything else falls through to
//! `/metrics`, `/snapshot`, `/events` — see `mea_obs::serve`):
//!
//! * `POST /jobs[?session=ID]` — submit a dataset (text format, as the
//!   request body) → `202 {"job":N,…}`; with `session`, the job
//!   warm-starts from that device's previous solution and commits its
//!   own. Backpressure: `429` + `Retry-After` when the bounded queue is
//!   full (retryable — the supervisor taxonomy's `timeout`), `503` while
//!   draining (terminal — `cancelled`).
//! * `GET /jobs/<id>` — lifecycle status (`queued|running|done|failed`;
//!   failed embeds the `parma-failure/v1` report).
//! * `GET /jobs/<id>/result` — the full `parma-serve-result/v1` document
//!   with per-time-point `residual_bits`/`resistors_fnv1a`, pinning the
//!   solve's exact bits over plain HTTP.
//! * `POST /shutdown` — graceful drain: stop admitting, finish queued
//!   jobs, flush the journal, exit 0.
//! * `GET /healthz` — liveness + queue depth.
//!
//! Jobs run under the batch supervisor (retries, deadlines, quarantine);
//! with `--journal` every decided job is fsync'd as a
//! `parma-journal/v1` line keyed `job-<id>`, exactly the batch format.

use crate::args::Args;
use crate::commands::{config_fingerprint, deadline_arg, write_addr_file};
use crate::{journal, CliError};
use mea_obs::json;
use mea_obs::serve::{Handler, MetricsServer, Request, Response};
use parma::prelude::*;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// This build's version, stamped into snapshots and result documents.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// `parma serve`: bind, start the worker pool, serve until `POST
/// /shutdown` (or `--for` seconds elapse), then drain gracefully.
pub fn serve<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:9185");
    let addr_file = args.get("addr-file");
    let threads: usize = args.get_or("threads", 2)?;
    let queue: usize = args.get_or("queue", 32)?;
    let tol: f64 = args.get_or("tol", 1e-10)?;
    let detect: f64 = args.get_or("detect", 1.5)?;
    let hold_ms: u64 = args.get_or("hold-ms", 0)?;
    let for_secs: f64 = args.get_or("for", 0.0)?;
    if !(0.0..=86_400.0).contains(&for_secs) {
        return Err("--for must be between 0 and 86400 seconds"
            .to_string()
            .into());
    }
    let sup = SupervisorConfig {
        max_retries: args.get_or("max-retries", 2)?,
        solve_deadline: deadline_arg(args, "solve-deadline")?,
        batch_deadline: None,
        backoff: Duration::from_millis(args.get_or("backoff-ms", 25)?),
    };
    let config = ParmaConfig {
        tol,
        ..Default::default()
    };
    let cfg_hash = config_fingerprint(
        &config,
        &[
            ("threads", threads.to_string()),
            ("detect", detect.to_string()),
            ("queue", queue.to_string()),
            ("supervisor", format!("{sup:?}")),
        ],
    );

    // The journal is shared with the service's on_done hook; IO errors in
    // the hook must not kill a worker, so they are logged and surfaced in
    // the final summary.
    let journal = match args.get("journal") {
        Some(path) => {
            let p = std::path::Path::new(path);
            let fresh = std::fs::metadata(p).map_or(true, |m| m.len() == 0);
            let jr = journal::Journal::open_append(p).map_err(CliError::from)?;
            if fresh {
                jr.record(&journal::entry_header(&cfg_hash))
                    .map_err(CliError::from)?;
            }
            Some(Arc::new(jr))
        }
        None => None,
    };
    let journal_errors: Arc<Mutex<Vec<String>>> = Arc::default();

    mea_obs::reset();
    mea_obs::set_live(true);

    // Optional remote-worker listener: `parma worker --connect` processes
    // register here and session-less jobs offload to them, with the
    // coordinator's heartbeat/reassignment machinery between us and any
    // worker death. Session jobs always solve in-process (warm-start
    // state is local), and a declined offload falls back locally too.
    let coordinator = match args.get("workers-addr") {
        Some(waddr) => {
            let coord = Arc::new(
                parma::dist::Coordinator::bind(waddr, parma::dist::DistPolicy::default())
                    .map_err(|e| format!("cannot bind worker listener {waddr:?}: {e}"))?,
            );
            if let Some(f) = args.get("workers-addr-file") {
                write_addr_file(f, coord.addr())?;
            }
            Some(coord)
        }
        None => {
            if args.get("workers-addr-file").is_some() {
                return Err("--workers-addr-file needs --workers-addr <host:port>"
                    .to_string()
                    .into());
            }
            None
        }
    };
    let offload: Option<Box<parma::service::OffloadHook>> = coordinator.as_ref().map(|coord| {
        let coord = Arc::clone(coord);
        Box::new(move |id: u64, ds: &WetLabDataset| {
            if coord.worker_count() == 0 {
                return None; // no fleet — solve in-process
            }
            let mut bytes = Vec::new();
            ds.write_binary(&mut bytes).ok()?;
            let task = parma::dist::codec::SolveTask {
                name: format!("job-{id}"),
                dataset: bytes,
                tol,
                detect,
                max_retries: sup.max_retries as u64,
                solve_deadline_ms: sup.solve_deadline.map_or(0, |d| d.as_millis() as u64),
                backoff_ms: sup.backoff.as_millis() as u64,
            };
            let ticket = coord.submit(task.encode(), (0, 1));
            let mut tickets: std::collections::BTreeSet<u64> = [ticket].into_iter().collect();
            let (_, outcome) = coord.take_decided(&mut tickets);
            match outcome {
                parma::dist::TaskOutcome::Ok { blob, .. } => {
                    parma::dist::codec::decode_time_points(&blob).ok().map(Ok)
                }
                parma::dist::TaskOutcome::Failed { blob, .. } => {
                    let mut report = parma::dist::codec::decode_failure(&blob).ok()?;
                    report.item = id as usize;
                    Some(Err(report))
                }
                // Worker died (possibly repeatedly) — degrade to the
                // in-process path, which produces the same bits.
                parma::dist::TaskOutcome::NoWorkers
                | parma::dist::TaskOutcome::WorkerLost { .. } => None,
            }
        }) as Box<parma::service::OffloadHook>
    });

    let hook_journal = journal.clone();
    let hook_errors = Arc::clone(&journal_errors);
    let service = Arc::new(
        parma::service::SolveService::start(
            parma::service::ServiceConfig {
                solver: config,
                detection_factor: detect,
                workers: threads,
                queue_capacity: queue,
                supervisor: sup,
                hold: (hold_ms > 0).then(|| Duration::from_millis(hold_ms)),
            },
            Some(Box::new(move |id, result| {
                let Some(j) = &hook_journal else {
                    return;
                };
                let name = format!("job-{id}");
                let line = match result {
                    Ok(tps) => journal::entry_ok(&name, tps),
                    Err(report) => journal::entry_failed(&name, report),
                };
                if let Err(e) = j.record(&line) {
                    hook_errors.lock().expect("journal error log").push(e);
                }
            })),
            offload,
        )
        .map_err(|e| format!("cannot start service: {e}"))?,
    );

    // POST /shutdown wakes this pair; --for is the fallback alarm.
    let drain = Arc::new((Mutex::new(false), Condvar::new()));
    let handler_service = Arc::clone(&service);
    let handler_drain = Arc::clone(&drain);
    let handler: Arc<Handler> =
        Arc::new(move |req: &Request| route(req, &handler_service, &handler_drain));

    let meta = vec![
        ("schema".to_string(), "parma-snapshot/v1".to_string()),
        ("version".to_string(), VERSION.to_string()),
        ("config_hash".to_string(), cfg_hash.clone()),
        ("role".to_string(), "serve".to_string()),
    ];
    let mut server = MetricsServer::start_with_handler(addr, meta, handler)?;
    // Readiness: the address is published only once both the listener and
    // the worker pool are live, atomically — a reader never sees a
    // half-written address (see `write_addr_file`).
    if let Some(f) = addr_file {
        write_addr_file(f, server.addr())?;
    }
    writeln!(
        out,
        "serving jobs + telemetry on http://{} ({} worker(s), queue {})",
        server.addr(),
        threads,
        queue
    )
    .map_err(|e| e.to_string())?;
    if let Some(coord) = &coordinator {
        writeln!(
            out,
            "accepting parma workers on {} (parma worker --connect {})",
            coord.addr(),
            coord.addr()
        )
        .map_err(|e| e.to_string())?;
    }

    // Sleep until drained or the --for alarm fires.
    {
        let (flag, condvar) = &*drain;
        let mut stopped = flag.lock().expect("drain flag lock");
        if for_secs > 0.0 {
            let deadline = std::time::Instant::now() + Duration::from_secs_f64(for_secs);
            while !*stopped {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    break;
                }
                let (guard, _) = condvar
                    .wait_timeout(stopped, left)
                    .expect("drain flag lock poisoned");
                stopped = guard;
            }
        } else {
            while !*stopped {
                stopped = condvar.wait(stopped).expect("drain flag lock poisoned");
            }
        }
    }

    // Graceful drain: finish queued + in-flight jobs (journal lines and
    // all), then stop the listener and report. `service.shutdown()` joins
    // the workers, and offloaded jobs are synchronous inside them — so
    // joining also waits out every dispatched-but-unacked remote shard
    // (or its reassignment/fallback). Only then is the worker fleet
    // released.
    let decided = service.shutdown();
    if let Some(coord) = &coordinator {
        coord.begin_shutdown();
    }
    server.shutdown();
    mea_obs::set_live(false);
    let stats = service.stats();
    writeln!(
        out,
        "drained: {decided} job(s) decided ({} ok, {} failed), {} rejected; \
         {} session(s)",
        stats.completed,
        stats.failed,
        stats.rejected,
        service.session_count()
    )
    .map_err(|e| e.to_string())?;
    if let Some(e) = journal_errors
        .lock()
        .expect("journal error log")
        .first()
        .cloned()
    {
        return Err(e.into());
    }
    Ok(())
}

/// Routes one request; `None` falls through to the telemetry built-ins.
fn route(
    req: &Request,
    service: &parma::service::SolveService,
    drain: &(Mutex<bool>, Condvar),
) -> Option<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => Some(submit(req, service)),
        ("POST", "/shutdown") => {
            // Close the admission door BEFORE answering: if the flag were
            // only relayed to the main thread, there would be a window
            // between this 200 and `service.shutdown()` in which a racing
            // POST /jobs is admitted (202) — and then lost when the
            // process exits. With the door shut here, every submit after
            // this line answers 503, so "accepted" can never mean "will
            // be dropped". Queued and in-flight jobs still drain fully.
            service.begin_drain();
            let (flag, condvar) = drain;
            *flag.lock().expect("drain flag lock") = true;
            condvar.notify_all();
            Some(Response::json(200, "{\"status\":\"draining\"}".to_string()))
        }
        ("GET", "/healthz") => Some(Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"queue_depth\":{}}}",
                service.queue_depth()
            ),
        )),
        ("GET", path) => {
            let rest = path.strip_prefix("/jobs/")?;
            let (id_text, want_result) = match rest.strip_suffix("/result") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let Ok(id) = id_text.parse::<u64>() else {
                return Some(Response::error(
                    400,
                    "bad_job_id",
                    &format!("job ids are integers, got {id_text:?}"),
                ));
            };
            let Some(view) = service.job(id) else {
                return Some(Response::error(
                    404,
                    "unknown_job",
                    &format!("no job {id} was ever admitted"),
                ));
            };
            Some(if want_result {
                result_response(&view)
            } else {
                status_response(&view)
            })
        }
        _ => None,
    }
}

/// `POST /jobs`: parse, admit, 202 — or a typed rejection.
fn submit(req: &Request, service: &parma::service::SolveService) -> Response {
    let dataset = match WetLabDataset::from_bytes(&req.body) {
        Ok(ds) => ds,
        Err(e) => {
            // Ingest failures take the same taxonomy path as batch items:
            // classify the dataset error, report it as a typed 400.
            let err = ParmaError::from(e);
            let kind = parma::supervisor::classify(&err);
            return Response::error(
                400,
                kind.label(),
                &format!("cannot parse dataset body: {err}"),
            );
        }
    };
    let session = req.query_param("session");
    match service.submit(dataset, session) {
        Ok(id) => {
            let mut body = String::with_capacity(64);
            let mut obj = json::Object::begin(&mut body);
            obj.field_str("schema", "parma-serve-job/v1");
            obj.field_u64("job", id);
            obj.field_str("status", "queued");
            if let Some(s) = session {
                obj.field_str("session", s);
            }
            obj.end();
            Response::json(202, body)
        }
        Err(e) => {
            let kind = e.failure_kind();
            let detail = format!(
                "{e}; classified {} ({})",
                kind.label(),
                if e.retryable() {
                    "retryable — back off and resubmit"
                } else {
                    "terminal"
                }
            );
            match e {
                parma::service::AdmissionError::QueueFull { .. } => {
                    Response::error(429, "queue_full", &detail).with_retry_after(1)
                }
                parma::service::AdmissionError::ShuttingDown => {
                    Response::error(503, "shutting_down", &detail)
                }
            }
        }
    }
}

/// Shared prefix of status/result documents.
fn job_fields(obj: &mut json::Object<'_>, schema: &str, view: &parma::service::JobView) {
    obj.field_str("schema", schema);
    obj.field_u64("job", view.id);
    obj.field_str("status", view.state.label());
    if let Some(s) = &view.session {
        obj.field_str("session", s);
    }
}

fn status_response(view: &parma::service::JobView) -> Response {
    let mut body = String::with_capacity(96);
    let mut obj = json::Object::begin(&mut body);
    job_fields(&mut obj, "parma-serve-status/v1", view);
    if let parma::service::JobState::Failed(report) = &view.state {
        obj.field_raw("report", &report.to_json());
    }
    obj.end();
    Response::json(200, body)
}

fn result_response(view: &parma::service::JobView) -> Response {
    match &view.state {
        parma::service::JobState::Done(time_points) => {
            let mut body = String::with_capacity(256);
            let mut obj = json::Object::begin(&mut body);
            job_fields(&mut obj, "parma-serve-result/v1", view);
            obj.field_str("version", VERSION);
            obj.field_raw("time_points", &journal::time_points_json(time_points));
            obj.end();
            Response::json(200, body)
        }
        parma::service::JobState::Failed(report) => {
            let mut body = String::with_capacity(256);
            let mut obj = json::Object::begin(&mut body);
            job_fields(&mut obj, "parma-serve-result/v1", view);
            obj.field_raw("report", &report.to_json());
            obj.end();
            Response::json(200, body)
        }
        _ => Response::error(
            409,
            "not_done",
            &format!("job {} is still {}", view.id, view.state.label()),
        ),
    }
}
