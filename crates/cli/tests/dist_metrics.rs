//! Fleet observability under fire: a sharded batch is scraped
//! continuously while a chaos plan SIGKILLs a worker mid-solve. The
//! contract under test:
//!
//! * `/metrics` answers promptly throughout — the fleet store has its own
//!   lock, so a scrape never queues behind the coordinator's decide path;
//! * per-worker labeled series appear while workers live, and the
//!   victim's labels drop cleanly once its death is detected;
//! * the victim's retained flight-recorder tail survives into the
//!   coordinator's stderr forensics report;
//! * the journal's trace sidecar lines reconstruct, via
//!   `parma obs timeline`, into a causally ordered cross-process timeline
//!   that names the lost dispatch and its redispatch lineage.

mod common;

use common::{fresh_dir, generate, parma, wait_for_addr};
use std::process::Stdio;
use std::time::{Duration, Instant};

#[test]
fn concurrent_scrapes_survive_a_worker_kill_and_the_timeline_reconstructs() {
    let dir = fresh_dir("dist-metrics");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    // n = 16 keeps each solve tens of milliseconds, so the run outlives
    // several heartbeat rounds and the mid-solve killer lands inside a
    // solve.
    for k in 0..4 {
        generate(&data, &format!("s{k}.txt"), 16, 0xD15 + k);
    }
    let journal = dir.join("run.jsonl");
    let addr_file = dir.join("metrics.addr");
    let stderr_file = dir.join("batch.stderr");

    let mut child = parma()
        .args([
            "batch",
            data.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--workers",
            "3",
            "--heartbeat-ms",
            "25",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-addr-file",
            addr_file.to_str().unwrap(),
            "--metrics-linger",
            "2",
        ])
        .env("PARMA_DIST_CHAOS", "mid-solve:*:w1")
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&stderr_file).unwrap())
        .spawn()
        .expect("spawn parma batch");

    let addr = wait_for_addr(&addr_file, Duration::from_secs(30));

    // Scrape as fast as the listener answers until the process exits.
    // Every successful scrape must be prompt; the interesting bodies are
    // classified on the fly because the fleet view keeps evolving
    // (workers join, the victim dies, shutdown reaps the rest).
    let mut saw_worker_series = false; // any per-worker labeled series
    let mut saw_shipped_counter = false; // a beat-shipped counter series
    let mut saw_victim_dropped = false; // live workers present, w1 absent
    let mut saw_role = false; // /snapshot meta names the process
    let mut scrapes = 0u32;
    while child.try_wait().expect("poll child").is_none() {
        let t0 = Instant::now();
        if let Ok((status, body)) = mea_obs::serve::http_get(addr, "/metrics") {
            assert!(status.contains("200"), "scrape failed ({status}): {body}");
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "scrape {scrapes} took {:?} — the exposition blocked",
                t0.elapsed()
            );
            scrapes += 1;
            if body.contains("parma_worker_up{worker=") {
                saw_worker_series = true;
            }
            if body.contains("parma_worker_dist_worker_assignments{worker=") {
                saw_shipped_counter = true;
            }
            if body.contains("parma_worker_up{worker=\"w") && !body.contains("worker=\"w1\"") {
                saw_victim_dropped = true;
            }
        }
        if !saw_role {
            if let Ok((_, snap)) = mea_obs::serve::http_get(addr, "/snapshot") {
                saw_role = snap.contains("\"role\":\"coordinator\"");
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = child.wait().expect("reap child");
    assert!(status.success(), "batch exited {status:?}");
    assert!(scrapes > 10, "only {scrapes} scrapes landed during the run");
    assert!(saw_worker_series, "no per-worker series ever appeared");
    assert!(
        saw_shipped_counter,
        "no beat-shipped counter series ever appeared"
    );
    assert!(
        saw_victim_dropped,
        "the killed worker's labels never dropped from the exposition"
    );
    assert!(saw_role, "/snapshot never carried role=coordinator");

    // The victim's retained flight-recorder tail made it into the
    // coordinator's forensics report.
    let stderr = std::fs::read_to_string(&stderr_file).expect("read stderr");
    assert!(
        stderr.contains("retained flight-recorder tail"),
        "no forensics block in stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("worker w1"),
        "forensics block does not name the victim:\n{stderr}"
    );

    // The journal's sidecar lines reconstruct into an ordered timeline
    // (exit status gates on causal order) with the lost dispatch and its
    // redispatch chained by parent span.
    let out = parma()
        .args(["obs", "timeline", journal.to_str().unwrap()])
        .output()
        .expect("spawn parma obs timeline");
    assert!(
        out.status.success(),
        "obs timeline exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = String::from_utf8(out.stdout).expect("timeline is UTF-8");
    assert!(
        jsonl
            .lines()
            .all(|l| l.starts_with("{\"schema\":\"parma-timeline/v1\"")),
        "stdout is not pure parma-timeline/v1 JSONL:\n{jsonl}"
    );
    assert!(
        jsonl.contains("\"phase\":\"lost\""),
        "the killed dispatch left no lost edge:\n{jsonl}"
    );
    assert!(
        jsonl.contains("\"phase\":\"ack\""),
        "no acked dispatch in the timeline:\n{jsonl}"
    );
    // The redispatch after the kill chains to the lost attempt's span.
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains("\"attempt\":1") && l.contains("\"parent_span\":\"")),
        "no redispatch lineage in the timeline:\n{jsonl}"
    );
    let report = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        report.contains("fleet median"),
        "no straggler report on stderr:\n{report}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A worker keeps one plan cache for its whole life: given several
/// same-geometry shards it analyzes the geometry once and hits for every
/// later shard. The proof rides the counters the worker ships on
/// heartbeats, as the coordinator's `/metrics` exposes them.
#[test]
fn one_worker_analyzes_each_geometry_once() {
    let dir = fresh_dir("dist-plan-cache");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    // Eight n = 16 shards keep the run alive for several heartbeat rounds
    // after the first hit, so a beat carrying it reaches /metrics.
    for k in 0..8 {
        generate(&data, &format!("s{k}.txt"), 16, 0xCAC + k);
    }
    let addr_file = dir.join("metrics.addr");
    let mut child = parma()
        .args([
            "batch",
            data.to_str().unwrap(),
            "--workers",
            "1",
            "--heartbeat-ms",
            "25",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-addr-file",
            addr_file.to_str().unwrap(),
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parma batch");
    let addr = wait_for_addr(&addr_file, Duration::from_secs(30));

    let shipped = |body: &str, counter: &str| -> Option<u64> {
        let prefix = format!("parma_worker_plan_cache_{counter}{{worker=\"w0\"}} ");
        body.lines()
            .find_map(|l| l.strip_prefix(prefix.as_str())?.trim().parse().ok())
    };
    let (mut misses, mut hits) = (0u64, 0u64);
    while child.try_wait().expect("poll child").is_none() {
        if let Ok((_, body)) = mea_obs::serve::http_get(addr, "/metrics") {
            misses = misses.max(shipped(&body, "misses").unwrap_or(0));
            hits = hits.max(shipped(&body, "hits").unwrap_or(0));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = child.wait().expect("reap child");
    assert!(status.success(), "batch exited {status:?}");
    assert_eq!(misses, 1, "the worker must analyze the one geometry once");
    assert!(hits >= 1, "later same-geometry shards must hit the cache");
    std::fs::remove_dir_all(&dir).ok();
}

/// When every worker dies, the in-process fallback keeps the batch's
/// `--threads`: the coordinator runs no pool before the fallback, so the
/// pool-width gauge on its `/metrics` is the fallback's own.
#[test]
fn fallback_after_losing_every_worker_keeps_the_thread_budget() {
    let dir = fresh_dir("dist-fallback-threads");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    for k in 0..4 {
        generate(&data, &format!("s{k}.txt"), 8, 0xFA11 + k);
    }
    let addr_file = dir.join("metrics.addr");
    let mut child = parma()
        .args([
            "batch",
            data.to_str().unwrap(),
            "--workers",
            "1",
            "--threads",
            "2",
            "--heartbeat-ms",
            "25",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-addr-file",
            addr_file.to_str().unwrap(),
            "--metrics-linger",
            "30",
            "--quiet",
        ])
        // The only worker dies on its first assignment.
        .env("PARMA_DIST_CHAOS", "dispatch:*:w0")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parma batch");
    let addr = wait_for_addr(&addr_file, Duration::from_secs(30));
    let deadline = Instant::now() + Duration::from_secs(60);
    let width = loop {
        let gauge = mea_obs::serve::http_get(addr, "/metrics")
            .ok()
            .and_then(|(_, body)| {
                body.lines().find_map(|l| {
                    l.strip_prefix("parallel_pool_threads ")?
                        .parse::<f64>()
                        .ok()
                })
            });
        if gauge.is_some() || Instant::now() >= deadline {
            break gauge;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    child.kill().ok();
    child.wait().ok();
    assert_eq!(width, Some(2.0), "the fallback must solve on --threads 2");
    std::fs::remove_dir_all(&dir).ok();
}
