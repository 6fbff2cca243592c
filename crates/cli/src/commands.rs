//! The CLI commands: generate, solve, batch, topology, equations, verify.

use crate::args::Args;
use crate::{journal, CliError, EXIT_QUARANTINED, EXIT_REGRESSION};
use mea_equations::{form_all_equations, read_system, write_system, FormationCensus};
use mea_model::{AnomalyConfig, ForwardSolver, MeaGrid, WetLabDataset};
use mea_topology::{fundamental_cycles, mea_complex};
use parma::persistence::anomaly_persistence;
use parma::prelude::*;
use parma::{execute, AttemptFailure, Job};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// This build's version, stamped into traces, journals and snapshots.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Publishes a bound listener address atomically: write a sibling temp
/// file, then rename over the target. Readers polling the file to
/// discover a port-0 bind either see nothing or the complete address —
/// never a prefix. (Plain `fs::write` is truncate-then-write, so a racing
/// reader could see e.g. `127.0.0.1:51` of `127.0.0.1:51234`, which
/// *parses* and sends the client to the wrong port. This was the flaky
/// ephemeral-port race in the live-metrics tests.)
pub(crate) fn write_addr_file(path: &str, addr: std::net::SocketAddr) -> Result<(), String> {
    let tmp = format!("{path}.{}.tmp", std::process::id());
    std::fs::write(&tmp, addr.to_string()).map_err(|e| format!("cannot write {tmp:?}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot publish {path:?}: {e}"))
}

/// Provenance hash of everything that shapes a run's numeric output:
/// FNV-1a-64 over the `Debug` rendering of the solver configuration plus
/// any run-level knobs the caller appends. Identical config → identical
/// hash, so journals and traces from the same setup stamp identically.
pub(crate) fn config_fingerprint(config: &ParmaConfig, extras: &[(&str, String)]) -> String {
    let mut text = format!("{config:?}");
    for (k, v) in extras {
        text.push_str(&format!("|{k}={v}"));
    }
    format!("{:016x}", journal::fnv1a64_bytes(text.as_bytes()))
}

/// Writes a finished trace either to a file or — for `--trace -` — to the
/// command's output stream.
fn write_trace<W: Write>(trace: &str, json: &str, out: &mut W) -> Result<(), String> {
    if trace == "-" {
        writeln!(out, "{json}").map_err(|e| e.to_string())
    } else {
        std::fs::write(trace, json).map_err(|e| format!("cannot write trace {trace:?}: {e}"))?;
        writeln!(out, "trace written to {trace}").map_err(|e| e.to_string())
    }
}

fn grid_from(args: &Args) -> Result<MeaGrid, String> {
    match (args.get("rows"), args.get("cols")) {
        (Some(_), Some(_)) => {
            let rows: usize = args.require_as("rows")?;
            let cols: usize = args.require_as("cols")?;
            if rows == 0 || cols == 0 {
                return Err("--rows/--cols must be positive".into());
            }
            Ok(MeaGrid::new(rows, cols))
        }
        (None, None) => {
            let n: usize = args.require_as("n")?;
            if n == 0 {
                return Err("--n must be positive".into());
            }
            Ok(MeaGrid::square(n))
        }
        _ => Err("give both --rows and --cols, or just --n".into()),
    }
}

/// `parma generate`: synthesize a session and write the dataset file.
pub fn generate<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let grid = grid_from(args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let regions: usize = args.get_or("regions", 2)?;
    let path = args.require("out")?;
    let cfg = AnomalyConfig {
        regions,
        ..Default::default()
    };
    let session =
        WetLabDataset::generate(grid, &cfg, seed).map_err(|e| format!("generation failed: {e}"))?;
    session
        .save(path)
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    writeln!(
        out,
        "wrote {path}: {}×{} array, {} measurements (0/6/12/24 h), {} anomaly region(s), seed {seed}",
        grid.rows(),
        grid.cols(),
        session.measurements.len(),
        regions
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `parma solve`: load a dataset, recover resistor maps, report anomalies.
pub fn solve<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.require("input")?;
    let tol: f64 = args.get_or("tol", 1e-10)?;
    let detect_factor: f64 = args.get_or("detect", 1.5)?;
    let prominence: f64 = args.get_or("prominence", 800.0)?;
    let trace_path = args.get("trace");
    let session =
        WetLabDataset::load(path).map_err(|e| format!("cannot load dataset {path:?}: {e}"))?;
    let config = ParmaConfig {
        tol,
        ..Default::default()
    };
    let pipeline =
        Pipeline::new(config, detect_factor).map_err(|e| format!("bad configuration: {e}"))?;
    if trace_path.is_some() {
        mea_obs::reset();
        mea_obs::set_enabled(true);
    }
    let run_result = pipeline.run(&session);
    if let Some(trace) = trace_path {
        mea_obs::set_enabled(false);
        let hash = config_fingerprint(&config, &[("detect", detect_factor.to_string())]);
        let json = mea_obs::snapshot().to_json_with_meta(&[
            ("schema", "parma-trace/v1"),
            ("version", VERSION),
            ("config_hash", &hash),
        ]);
        write_trace(trace, &json, out)?;
    }
    let results = run_result.map_err(|e| format!("solve failed: {e}"))?;
    writeln!(
        out,
        "{path}: {}×{} array",
        session.grid.rows(),
        session.grid.cols()
    )
    .map_err(|e| e.to_string())?;
    for r in &results {
        let analysis = anomaly_persistence(&r.solution.resistors, prominence);
        writeln!(
            out,
            "hour {:>2}: {} iterations, residual {:.2e}, baseline {:.0} kΩ, \
             {} crossings above threshold, {} persistent region(s)",
            r.hours,
            r.solution.iterations,
            r.solution.residual,
            r.detection.baseline,
            r.detection.anomalies.len(),
            analysis.regions.len()
        )
        .map_err(|e| e.to_string())?;
        for (idx, reg) in analysis.regions.iter().enumerate() {
            writeln!(
                out,
                "    region {}: peak {:.0} kΩ, prominence {:.0} kΩ",
                idx + 1,
                reg.peak_resistance,
                reg.prominence
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `parma convert`: translate a dataset between the text container and
/// `parma-bin/v1`. The direction defaults to the *opposite* of the input
/// (sniffed by the magic bytes); `--to text|binary` forces one. Both
/// writers emit shortest-round-trip values, so conversion is lossless:
/// text → binary → text is byte-identical and the parsed measurements
/// are bitwise equal whichever container they travel through.
pub fn convert<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let (Some(input), Some(output)) = (args.positional(0), args.positional(1)) else {
        return Err("usage: parma convert <in> <out> [--to text|binary]".into());
    };
    if let Some(extra) = args.positional(2) {
        return Err(format!("unexpected extra argument {extra:?}"));
    }
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
    let input_is_binary = bytes.starts_with(&mea_model::binfmt::MAGIC);
    let to_binary = match args.get("to") {
        Some("text") => false,
        Some("binary") => true,
        Some(other) => return Err(format!("unknown --to {other:?} (text|binary)")),
        None => !input_is_binary,
    };
    let session =
        WetLabDataset::from_bytes(&bytes).map_err(|e| format!("cannot parse {input:?}: {e}"))?;
    if to_binary {
        session.save_binary(output)
    } else {
        session.save(output)
    }
    .map_err(|e| format!("cannot write {output:?}: {e}"))?;
    let written = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    writeln!(
        out,
        "converted {input} ({}) -> {output} ({}): {}×{} array, {} measurements, {} bytes",
        if input_is_binary { "binary" } else { "text" },
        if to_binary { "binary" } else { "text" },
        session.grid.rows(),
        session.grid.cols(),
        session.measurements.len(),
        written
    )
    .map_err(|e| e.to_string())
}

/// Optional `--key SECS` duration flag (fractional seconds). The upper
/// bound keeps the deadline representable as the u64 milliseconds it
/// travels to workers in.
pub(crate) fn deadline_arg(args: &Args, key: &str) -> Result<Option<Duration>, String> {
    let Some(s) = args.get(key) else {
        return Ok(None);
    };
    let secs: f64 = s
        .parse()
        .map_err(|_| format!("flag --{key} has invalid value {s:?}"))?;
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if secs > 0.0 && u64::try_from(d.as_millis()).is_ok() => Ok(Some(d)),
        _ => Err(format!(
            "flag --{key} must be a positive number of seconds, at most {}",
            u64::MAX / 1000
        )),
    }
}

/// How one dataset file of the batch will be handled, in filename order.
enum BatchEntry {
    /// The journal already has this item's result; not re-solved.
    Skipped,
    /// The file failed ingestion; quarantined without ever being solved.
    Unloadable(FailureReport),
    /// Index into the supervised run's item list.
    Work(usize),
}

/// `parma batch`: solve every dataset file in a directory concurrently
/// under the retry/quarantine supervisor. `--journal` appends one fsync'd
/// JSON line per decided item; `--resume` skips items the journal already
/// records as solved, bitwise-identically to an uninterrupted run. Every
/// file is parsed and validated here, before any solve starts, whichever
/// path then solves it (in-process or `--workers`); a file that fails is
/// quarantined without being solved. Any quarantined item makes the
/// command exit with status [`EXIT_QUARANTINED`] after a per-taxonomy
/// failure summary.
pub fn batch<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let dir = args
        .positional(0)
        .ok_or_else(|| "missing dataset directory: parma batch <dir> [--threads T]".to_string())?;
    if let Some(extra) = args.positional(1) {
        return Err(format!("unexpected extra argument {extra:?}").into());
    }
    let threads: usize = args.get_or("threads", 4)?;
    let tol: f64 = args.get_or("tol", 1e-10)?;
    let detect_factor: f64 = args.get_or("detect", 1.5)?;
    let trace_path = args.get("trace");
    let sup = SupervisorConfig {
        max_retries: args.get_or("max-retries", 2)?,
        solve_deadline: deadline_arg(args, "solve-deadline")?,
        batch_deadline: deadline_arg(args, "deadline")?,
        backoff: Duration::from_millis(args.get_or("backoff-ms", 25)?),
    };
    let journal_path = args.get("journal");
    let resume = args.flag("resume");
    if resume && journal_path.is_none() {
        return Err(
            "--resume needs --journal <file> to know what already finished"
                .to_string()
                .into(),
        );
    }
    let quiet = args.flag("quiet");
    let workers: usize = args.get_or("workers", 0)?;
    let heartbeat_ms: u64 = args.get_or("heartbeat-ms", 200)?;
    if heartbeat_ms == 0 {
        return Err("--heartbeat-ms must be positive".to_string().into());
    }
    let metrics_addr = args.get("metrics-addr");
    let metrics_addr_file = args.get("metrics-addr-file");
    let metrics_linger: f64 = args.get_or("metrics-linger", 0.0)?;
    if metrics_addr.is_none() && (metrics_addr_file.is_some() || metrics_linger != 0.0) {
        return Err(
            "--metrics-addr-file/--metrics-linger need --metrics-addr <host:port>"
                .to_string()
                .into(),
        );
    }
    if !(0.0..=3600.0).contains(&metrics_linger) {
        return Err("--metrics-linger must be between 0 and 3600 seconds"
            .to_string()
            .into());
    }

    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {dir:?}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no dataset files in {dir:?}").into());
    }

    // On --resume, anything the journal records as solved stays solved;
    // failed entries get a fresh chance (and a fresh journal line).
    let already_done = match journal_path {
        Some(j) if resume && std::path::Path::new(j).exists() => {
            journal::load(std::path::Path::new(j))?
        }
        _ => Default::default(),
    };

    // Classify every file up front. Ingestion failures are quarantined
    // items, not fatal errors — the rest of the batch still runs.
    let mut names: Vec<String> = Vec::with_capacity(paths.len());
    let mut entries: Vec<BatchEntry> = Vec::with_capacity(paths.len());
    let mut sessions: Vec<WetLabDataset> = Vec::new();
    let mut work_names: Vec<String> = Vec::new();
    for p in &paths {
        let name = p
            .file_name()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("non-UTF-8 path {p:?}"))?
            .to_string();
        if already_done.get(&name).map(String::as_str) == Some("ok") {
            entries.push(BatchEntry::Skipped);
        } else {
            match WetLabDataset::load(p) {
                Ok(session) => {
                    entries.push(BatchEntry::Work(sessions.len()));
                    sessions.push(session);
                    work_names.push(name.clone());
                }
                Err(e) => {
                    let err = ParmaError::from(e);
                    let kind = parma::supervisor::classify(&err);
                    let detail = format!("cannot load dataset: {err}");
                    entries.push(BatchEntry::Unloadable(FailureReport {
                        item: entries.len(),
                        kind,
                        detail: detail.clone(),
                        attempts: vec![AttemptFailure {
                            attempt: 0,
                            kind,
                            detail,
                        }],
                        events: Vec::new(),
                    }));
                }
            }
        }
        names.push(name);
    }
    let skipped = entries
        .iter()
        .filter(|e| matches!(e, BatchEntry::Skipped))
        .count();

    let config = ParmaConfig {
        tol,
        ..Default::default()
    };
    let cfg_hash = config_fingerprint(
        &config,
        &[
            ("threads", threads.to_string()),
            ("detect", detect_factor.to_string()),
            ("supervisor", format!("{sup:?}")),
        ],
    );

    let journal = match journal_path {
        Some(j) => {
            let path = std::path::Path::new(j);
            // A fresh journal leads with a provenance header; appends to an
            // existing one must not, or resumes would interleave headers
            // between entries.
            let fresh = std::fs::metadata(path).map_or(true, |m| m.len() == 0);
            let jr = journal::Journal::open_append(path)?;
            if fresh {
                jr.record(&journal::entry_header(&cfg_hash))?;
            }
            Some(jr)
        }
        None => None,
    };
    if let Some(j) = &journal {
        for (name, entry) in names.iter().zip(&entries) {
            if let BatchEntry::Unloadable(report) = entry {
                j.record(&journal::entry_failed(name, report))?;
            }
        }
    }

    let pipeline =
        Pipeline::new(config, detect_factor).map_err(|e| format!("bad configuration: {e}"))?;
    let live = metrics_addr.is_some();
    if trace_path.is_some() || live {
        mea_obs::reset();
    }
    if trace_path.is_some() {
        mea_obs::set_enabled(true);
    }
    if live {
        mea_obs::set_live(true);
    }
    // When the batch shards across workers the coordinator's /metrics
    // additionally exposes the fleet-merged per-worker series. The store
    // is only bound once the dist driver is up, so the handler reads it
    // through a slot: scrapes before (or without) a distributed run just
    // fall through to the built-in exposition.
    let fleet_slot: Arc<std::sync::OnceLock<Arc<mea_obs::fleet::FleetStore>>> =
        Arc::new(std::sync::OnceLock::new());
    let server = match metrics_addr {
        Some(addr) => {
            let role = if workers > 0 { "coordinator" } else { "batch" };
            let meta = vec![
                ("schema".to_string(), "parma-snapshot/v1".to_string()),
                ("version".to_string(), VERSION.to_string()),
                ("config_hash".to_string(), cfg_hash.clone()),
                ("role".to_string(), role.to_string()),
            ];
            let srv = if workers > 0 {
                let slot = Arc::clone(&fleet_slot);
                let handler: Arc<mea_obs::serve::Handler> =
                    Arc::new(move |req: &mea_obs::serve::Request| {
                        if req.method != "GET" || req.path != "/metrics" {
                            return None;
                        }
                        let fleet = slot.get()?;
                        let mut body = mea_obs::expo::prometheus(&mea_obs::snapshot());
                        body.push_str(&fleet.render_prometheus());
                        Some(mea_obs::serve::Response {
                            status: 200,
                            content_type: mea_obs::expo::CONTENT_TYPE,
                            body,
                            retry_after: None,
                        })
                    });
                mea_obs::serve::MetricsServer::start_with_handler(addr, meta, handler)
                    .map_err(CliError::from)?
            } else {
                mea_obs::serve::MetricsServer::start(addr, meta).map_err(CliError::from)?
            };
            if let Some(f) = metrics_addr_file {
                write_addr_file(f, srv.addr())?;
            }
            if !quiet {
                eprintln!(
                    "metrics: serving /metrics /snapshot /events on http://{}",
                    srv.addr()
                );
            }
            Some(srv)
        }
        None => None,
    };
    // `on_done` runs while the supervisor holds the batch; journal IO
    // errors are collected and surfaced once the run finishes.
    let journal_errors: std::sync::Mutex<Vec<String>> = Default::default();
    let done_items = Arc::new(AtomicUsize::new(0));
    let failed_items = Arc::new(AtomicUsize::new(0));
    let on_done = |i: usize, res: &Result<Vec<TimePointResult>, FailureReport>| {
        match res {
            Ok(_) => done_items.fetch_add(1, Ordering::Relaxed),
            Err(_) => failed_items.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(j) = &journal {
            let line = match res {
                Ok(tps) => journal::entry_ok(&work_names[i], tps),
                Err(report) => journal::entry_failed(&work_names[i], report),
            };
            if let Err(e) = j.record(&line) {
                journal_errors.lock().expect("journal error log").push(e);
            }
        }
    };
    let t0 = std::time::Instant::now();
    let reporter_stop = Arc::new(AtomicBool::new(false));
    let reporter = (live && !quiet).then(|| {
        progress_reporter(
            work_names.len(),
            Arc::clone(&done_items),
            Arc::clone(&failed_items),
            Arc::clone(&reporter_stop),
        )
    });
    let run_result = if workers > 0 {
        // Multi-process sharding: the dist driver journals completions
        // itself (tagging lines with the solving worker) and degrades to
        // in-process solving on worker loss — same code path, same bits.
        crate::dist_cmd::run_distributed(&crate::dist_cmd::DistBatch {
            sessions: &sessions,
            work_names: &work_names,
            config: &config,
            detect: detect_factor,
            threads,
            sup: &sup,
            workers,
            heartbeat_ms,
            journal: journal.as_ref(),
            quiet,
            done_items: &done_items,
            failed_items: &failed_items,
            fleet_slot: Some(&fleet_slot),
        })
    } else {
        let jobs: Vec<Job> = sessions
            .iter()
            .enumerate()
            .map(|(i, session)| Job::loaded(i, session))
            .collect();
        Ok(execute(&pipeline, &jobs, threads, &sup, &on_done))
    };
    let elapsed = t0.elapsed();
    reporter_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = reporter {
        handle.join().ok();
    }
    if let Some(trace) = trace_path {
        mea_obs::set_enabled(false);
        let json = mea_obs::snapshot().to_json_with_meta(&[
            ("schema", "parma-trace/v1"),
            ("version", VERSION),
            ("config_hash", &cfg_hash),
        ]);
        write_trace(trace, &json, out)?;
    }
    let results = run_result?;
    if let Some(e) = journal_errors
        .lock()
        .expect("journal error log")
        .first()
        .cloned()
    {
        return Err(e.into());
    }

    writeln!(
        out,
        "{dir}: {} dataset(s), {} thread(s)",
        paths.len(),
        threads.max(1)
    )
    .map_err(|e| e.to_string())?;
    let mut solves = 0usize;
    let mut quarantined: Vec<&FailureReport> = Vec::new();
    for (name, entry) in names.iter().zip(&entries) {
        match entry {
            BatchEntry::Skipped => {
                if !quiet {
                    writeln!(out, "  {name}: already journaled — skipped")
                        .map_err(|e| e.to_string())?;
                }
            }
            BatchEntry::Unloadable(report) => {
                quarantined.push(report);
                if !quiet {
                    writeln!(
                        out,
                        "  {name}: QUARANTINED [{}] — {}",
                        report.kind.label(),
                        report.detail
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
            BatchEntry::Work(i) => match &results[*i] {
                Ok(time_points) => {
                    solves += time_points.len();
                    let iterations: usize = time_points.iter().map(|r| r.solution.iterations).sum();
                    let worst = time_points
                        .iter()
                        .map(|r| r.solution.residual)
                        .fold(0.0f64, f64::max);
                    let last = time_points.last();
                    if !quiet {
                        writeln!(
                            out,
                            "  {name}: {} time points, {} iterations, worst residual {:.2e}, \
                             {} anomalies at hour {}",
                            time_points.len(),
                            iterations,
                            worst,
                            last.map_or(0, |r| r.detection.anomalies.len()),
                            last.map_or(0, |r| r.hours)
                        )
                        .map_err(|e| e.to_string())?;
                    }
                }
                Err(report) => {
                    quarantined.push(report);
                    if !quiet {
                        writeln!(
                            out,
                            "  {name}: QUARANTINED [{}] after {} attempt(s) — {}",
                            report.kind.label(),
                            report.attempts.len(),
                            report.detail
                        )
                        .map_err(|e| e.to_string())?;
                    }
                }
            },
        }
    }
    if skipped > 0 {
        writeln!(
            out,
            "resume: {skipped} dataset(s) already journaled, skipped"
        )
        .map_err(|e| e.to_string())?;
    }
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        solves as f64 / secs
    } else {
        0.0
    };
    writeln!(
        out,
        "batch: {solves} solves in {:.1} ms — {rate:.1} solves/sec, {} failure(s)",
        secs * 1e3,
        quarantined.len()
    )
    .map_err(|e| e.to_string())?;
    // The listener outlives the run by --metrics-linger seconds so
    // scrapers (and the CI smoke check) can read the final counters
    // before the process exits.
    if let Some(mut srv) = server {
        if metrics_linger > 0.0 {
            if !quiet {
                eprintln!(
                    "metrics: lingering {metrics_linger}s on http://{}",
                    srv.addr()
                );
            }
            std::thread::sleep(Duration::from_secs_f64(metrics_linger));
        }
        srv.shutdown();
    }
    if live {
        mea_obs::set_live(false);
    }
    if quarantined.is_empty() {
        return Ok(());
    }
    // Per-taxonomy summary: one line per failure kind, alphabetical.
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for report in &quarantined {
        *counts.entry(report.kind.label()).or_default() += 1;
    }
    writeln!(out, "failures by kind:").map_err(|e| e.to_string())?;
    for (label, count) in counts {
        writeln!(out, "  {label:<16} {count}").map_err(|e| e.to_string())?;
    }
    Err(CliError {
        code: EXIT_QUARANTINED,
        message: format!("{} dataset(s) quarantined", quarantined.len()),
    })
}

/// Spawns the once-a-second stderr progress line for a live batch:
/// decided/failed/retried counts, solve-latency quantiles from the
/// process-global histogram, and a rate-based ETA. Reads only atomics and
/// telemetry snapshots, so it never perturbs the solve itself.
fn progress_reporter(
    total: usize,
    done: Arc<AtomicUsize>,
    failed: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let t0 = std::time::Instant::now();
        loop {
            // Sleep one second in short slices so shutdown is prompt and
            // short batches finish without ever printing.
            for _ in 0..10 {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let d = done.load(Ordering::Relaxed);
            let f = failed.load(Ordering::Relaxed);
            let retried = mea_obs::snapshot()
                .counter("parma.batch.retries")
                .unwrap_or(0);
            let solve = mea_obs::hist::histogram("parma.solve_ms").snapshot();
            let (p50, p99) = if solve.is_empty() {
                (0.0, 0.0)
            } else {
                (solve.quantile(0.5), solve.quantile(0.99))
            };
            let decided = d + f;
            let eta = if decided > 0 && decided < total {
                let per_item = t0.elapsed().as_secs_f64() / decided as f64;
                format!("{:.1}s", per_item * (total - decided) as f64)
            } else {
                "—".to_string()
            };
            eprintln!(
                "progress: {d}/{total} done, {f} failed, {retried} retried | \
                 solve p50 {p50:.2} ms p99 {p99:.2} ms | ETA {eta}"
            );
        }
    })
}

/// One kernel row of a `parma-bench/kernels-v1` file.
struct BenchKernel {
    name: String,
    n: u64,
    opt_ms: f64,
}

/// Loads and validates a `parma-bench/kernels-v1` file.
fn load_bench(path: &str) -> Result<Vec<BenchKernel>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench file {path:?}: {e}"))?;
    let doc = mea_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some("parma-bench/kernels-v1") => {}
        other => {
            return Err(format!(
                "{path}: expected schema \"parma-bench/kernels-v1\", found {other:?}"
            ))
        }
    }
    let kernels = doc
        .get("kernels")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{path}: missing \"kernels\" array"))?;
    let mut rows = Vec::with_capacity(kernels.len());
    for (i, k) in kernels.iter().enumerate() {
        let field = |key: &str| {
            k.get(key)
                .ok_or_else(|| format!("{path}: kernel #{i} is missing {key:?}"))
        };
        rows.push(BenchKernel {
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("{path}: kernel #{i} name is not a string"))?
                .to_string(),
            n: field("n")?
                .as_f64()
                .ok_or_else(|| format!("{path}: kernel #{i} n is not a number"))?
                as u64,
            opt_ms: field("opt_ms")?
                .as_f64()
                .ok_or_else(|| format!("{path}: kernel #{i} opt_ms is not a number"))?,
        });
    }
    Ok(rows)
}

/// `parma bench diff old.json new.json [--tolerance F]`: compares two
/// kernel-benchmark exports and prints a per-kernel delta table. Exits
/// with [`EXIT_REGRESSION`] when any kernel's optimized time grew by more
/// than the tolerance fraction — the CI perf gate.
pub fn bench<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    match args.positional(0) {
        Some("diff") => {}
        Some(other) => return Err(format!("unknown bench subcommand {other:?} (try diff)").into()),
        None => {
            return Err("usage: parma bench diff <old.json> <new.json>"
                .to_string()
                .into())
        }
    }
    let (Some(old_path), Some(new_path)) = (args.positional(1), args.positional(2)) else {
        return Err("usage: parma bench diff <old.json> <new.json>"
            .to_string()
            .into());
    };
    if let Some(extra) = args.positional(3) {
        return Err(format!("unexpected extra argument {extra:?}").into());
    }
    let tolerance: f64 = args.get_or("tolerance", 0.25)?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err("--tolerance must be a non-negative fraction (0.25 = 25%)"
            .to_string()
            .into());
    }
    let old = load_bench(old_path)?;
    let new = load_bench(new_path)?;
    let old_by_key: std::collections::BTreeMap<(&str, u64), f64> = old
        .iter()
        .map(|k| ((k.name.as_str(), k.n), k.opt_ms))
        .collect();

    writeln!(
        out,
        "{:<20} {:>4} {:>12} {:>12} {:>8}",
        "kernel", "n", "old ms", "new ms", "delta"
    )
    .map_err(|e| e.to_string())?;
    let mut compared = 0usize;
    let mut worst: Option<(f64, String)> = None;
    for k in &new {
        let Some(&old_ms) = old_by_key.get(&(k.name.as_str(), k.n)) else {
            writeln!(
                out,
                "{:<20} {:>4} {:>12} {:>12.6} {:>8}",
                k.name, k.n, "—", k.opt_ms, "new"
            )
            .map_err(|e| e.to_string())?;
            continue;
        };
        compared += 1;
        // Ratio of new to old time; guard zero/denormal baselines.
        let ratio = if old_ms > 0.0 { k.opt_ms / old_ms } else { 1.0 };
        let delta_pct = (ratio - 1.0) * 100.0;
        writeln!(
            out,
            "{:<20} {:>4} {:>12.6} {:>12.6} {:>+7.1}%",
            k.name, k.n, old_ms, k.opt_ms, delta_pct
        )
        .map_err(|e| e.to_string())?;
        if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
            worst = Some((ratio, format!("{} (n={})", k.name, k.n)));
        }
    }
    let dropped = old.len().saturating_sub(compared);
    if dropped > 0 {
        writeln!(
            out,
            "note: {dropped} kernel(s) in {old_path} have no match in {new_path}"
        )
        .map_err(|e| e.to_string())?;
    }
    if compared == 0 {
        return Err("no common kernels to compare".to_string().into());
    }
    let (worst_ratio, worst_name) = worst.expect("compared > 0 implies a worst entry");
    writeln!(
        out,
        "bench diff: {compared} kernel(s) compared, worst {:+.1}% on {worst_name} \
         (tolerance {:+.0}%)",
        (worst_ratio - 1.0) * 100.0,
        tolerance * 100.0
    )
    .map_err(|e| e.to_string())?;
    if worst_ratio > 1.0 + tolerance {
        return Err(CliError {
            code: EXIT_REGRESSION,
            message: format!(
                "kernel regression: {worst_name} slowed down {:+.1}% (> {:.0}% tolerance)",
                (worst_ratio - 1.0) * 100.0,
                tolerance * 100.0
            ),
        });
    }
    Ok(())
}

/// `parma topology`: the device's topological invariants.
pub fn topology<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let grid = grid_from(args)?;
    let report = mea_complex::analyze_mea(grid.rows(), grid.cols());
    let complex = mea_complex::mea_to_complex(grid.rows(), grid.cols());
    let basis = fundamental_cycles(&complex);
    writeln!(
        out,
        "{}×{} MEA: {} joints, {} edges ({} resistors + {} wire segments)",
        grid.rows(),
        grid.cols(),
        report.joints,
        report.edges,
        grid.crossings(),
        report.edges - grid.crossings()
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "β₀ = {} (connected components)", report.betti0).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "β₁ = {} independent Kirchhoff cycles = (rows−1)(cols−1) — the intrinsic parallelism",
        report.betti1
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "fundamental cycle basis: {} cycles over a {}-edge spanning tree",
        basis.rank(),
        basis.tree_edges.len()
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "joint-constraint system: {} equations over {} unknowns",
        grid.equations(),
        grid.unknowns()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `parma equations`: form and export the joint-constraint system.
pub fn equations<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let grid = grid_from(args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let path = args.require("out")?;
    let (truth, _) = AnomalyConfig::default().generate(grid, seed);
    let z = ForwardSolver::new(&truth)
        .map_err(|e| format!("forward solve failed: {e}"))?
        .solve_all();
    let eqs = form_all_equations(&z, 5.0);
    let census = FormationCensus::of(&eqs);
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    let bytes = write_system(&eqs, grid, std::io::BufWriter::new(file))
        .map_err(|e| format!("write failed: {e}"))?;
    writeln!(
        out,
        "wrote {path}: {} equations ({} terms, {} bytes) across {} pairs \
         [source {}, destination {}, Ua {}, Ub {}]",
        census.equations,
        census.terms,
        bytes,
        grid.pairs(),
        census.per_category[0],
        census.per_category[1],
        census.per_category[2],
        census.per_category[3]
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `parma verify`: parse an equation file back and check its census
/// against the grid — the downstream-solver ingestion path.
pub fn verify<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let grid = grid_from(args)?;
    let path = args.require("input")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let eqs = read_system(grid, file).map_err(|e| format!("parse failed: {e}"))?;
    let census = FormationCensus::of(&eqs);
    let expected = FormationCensus::expected(grid);
    writeln!(
        out,
        "{path}: parsed {} equations ({} terms) for a {}×{} grid",
        census.equations,
        census.terms,
        grid.rows(),
        grid.cols()
    )
    .map_err(|e| e.to_string())?;
    if census == expected {
        writeln!(out, "census matches the §IV-A formulas — file is complete")
            .map_err(|e| e.to_string())?;
        Ok(())
    } else {
        Err(format!(
            "census mismatch: found {:?} equations per category, expected {:?}",
            census.per_category, expected.per_category
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn grid_from_square_and_rectangular() {
        let g = grid_from(&args(&["--n", "7"])).unwrap();
        assert_eq!((g.rows(), g.cols()), (7, 7));
        let g = grid_from(&args(&["--rows", "2", "--cols", "5"])).unwrap();
        assert_eq!((g.rows(), g.cols()), (2, 5));
        assert!(grid_from(&args(&["--rows", "2"])).is_err());
        assert!(grid_from(&args(&["--n", "0"])).is_err());
        assert!(grid_from(&args(&[])).is_err());
    }

    #[test]
    fn topology_command_output() {
        let mut out = Vec::new();
        topology(&args(&["--rows", "3", "--cols", "4"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("β₁ = 6"));
        assert!(text.contains("24 joints"));
    }
}
