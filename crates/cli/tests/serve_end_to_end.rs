//! End-to-end contract of `parma serve`: a real daemon on an ephemeral
//! port, exercised over real sockets through the full job lifecycle —
//! submit, poll, fetch — proving the two service guarantees:
//!
//! 1. session warm-starts solve the 0/6/12/24 h drift series in strictly
//!    fewer iterations than cold solves of the same measurements,
//! 2. a solve is bitwise repeatable across requests — the result
//!    documents pin `residual_bits` and a resistor-map hash per time
//!    point, and two identical submissions return identical documents.
//!
//! Spawns the real binary (`CARGO_BIN_EXE_parma`): live telemetry is
//! process-global, and the point is to test the daemon over TCP.

mod common;

use common::{get, submit_job, wait_for_job, ServeDaemon};
use std::time::Duration;

/// Splits a `parma-dataset v1` session file into one singleton dataset
/// per measurement, preserving the exact text (header + one block), so
/// each HTTP submission carries a single time point.
fn split_measurements(session_text: &str) -> Vec<String> {
    let lines: Vec<&str> = session_text.lines().collect();
    assert!(lines[0].starts_with("# parma-dataset"), "{}", lines[0]);
    let header = &lines[..3];
    let mut singles = Vec::new();
    let mut block: Vec<&str> = Vec::new();
    for line in &lines[3..] {
        if line.starts_with("measurement") && !block.is_empty() {
            singles.push([header, &block[..]].concat().join("\n") + "\n");
            block.clear();
        }
        block.push(line);
    }
    singles.push([header, &block[..]].concat().join("\n") + "\n");
    singles
}

/// The `"time_points":[…]` array of a result document — the part that is
/// bitwise-pinned (hours, iterations, residual_bits, resistors_fnv1a).
fn time_points(result_body: &str) -> &str {
    let start = result_body
        .find("\"time_points\":")
        .expect("result carries time_points");
    &result_body[start..]
}

fn fetch_result(daemon: &ServeDaemon, id: u64) -> String {
    let status = wait_for_job(daemon.addr, id, Duration::from_secs(120));
    assert_eq!(status, "done", "job {id} failed");
    let reply = get(daemon.addr, &format!("/jobs/{id}/result"));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        reply.body.contains("\"schema\":\"parma-serve-result/v1\""),
        "{}",
        reply.body
    );
    reply.body
}

#[test]
fn full_lifecycle_warm_sessions_and_bitwise_results() {
    let daemon = ServeDaemon::spawn("serve-e2e", &["--threads", "2"]);

    // The 4-measurement drift fixture (0/6/12/24 h), built through the
    // real generator and split into one dataset per time point.
    let fixture = daemon.dir.join("session.txt");
    common::generate(&daemon.dir, "session.txt", 8, 55);
    let session_text = std::fs::read_to_string(&fixture).unwrap();
    let singles = split_measurements(&session_text);
    assert_eq!(singles.len(), 4, "generator writes 0/6/12/24 h");

    // Health first: the daemon answers before any job exists.
    let health = get(daemon.addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

    // --- Cold pass: each measurement as its own sessionless job. -------
    let mut cold_results = Vec::new();
    for body in &singles {
        let id = submit_job(daemon.addr, "/jobs", body.as_bytes());
        cold_results.push(fetch_result(&daemon, id));
    }
    let cold_iterations: Vec<u64> = cold_results
        .iter()
        .map(|r| common::sum_u64(time_points(r), "\"iterations\":"))
        .collect();

    // --- Warm pass: same measurements, one device session. Sequential
    // submits so each job's solution is committed before the next. ------
    let mut warm_results = Vec::new();
    for body in &singles {
        let id = submit_job(daemon.addr, "/jobs?session=chip-07", body.as_bytes());
        warm_results.push(fetch_result(&daemon, id));
    }
    for r in &warm_results {
        assert!(r.contains("\"session\":\"chip-07\""), "{r}");
    }

    // Guarantee 1: across the drift series, the ratio-extrapolated warm
    // starts converge in strictly fewer total iterations than cold starts
    // of the identical measurements. (Per-measurement savings can vary —
    // a large 24 h drift occasionally extrapolates past the answer — but
    // the session as a whole must win.)
    let warm_iterations: Vec<u64> = warm_results
        .iter()
        .map(|r| common::sum_u64(time_points(r), "\"iterations\":"))
        .collect();
    let cold_total: u64 = cold_iterations.iter().sum();
    let warm_total: u64 = warm_iterations.iter().sum();
    assert!(
        warm_total < cold_total,
        "session warm start must save iterations: {warm_iterations:?} vs {cold_iterations:?}"
    );
    assert!(common::scrape_counter(daemon.addr, "parma_serve_session_warm_total") >= 3);

    // Guarantee 2: two identical submissions, after every earlier job,
    // return bit-identical documents: same residual bits, same resistor
    // hashes, per hour.
    let id_a = submit_job(daemon.addr, "/jobs", session_text.as_bytes());
    let result_a = fetch_result(&daemon, id_a);
    let id_b = submit_job(daemon.addr, "/jobs", session_text.as_bytes());
    let result_b = fetch_result(&daemon, id_b);
    assert_eq!(
        time_points(&result_a),
        time_points(&result_b),
        "a repeated solve is not bitwise identical to the earlier solve"
    );
    assert!(result_a.contains("\"residual_bits\":\""), "{result_a}");
    assert!(result_a.contains("\"resistors_fnv1a\":\""), "{result_a}");

    // Status endpoint agrees after the fact.
    let status = get(daemon.addr, &format!("/jobs/{id_b}"));
    assert!(
        status.body.contains("\"status\":\"done\""),
        "{}",
        status.body
    );

    // Telemetry built-ins stay live on the same listener as the job API.
    let metrics = get(daemon.addr, "/metrics");
    assert!(
        mea_obs::expo::looks_like_valid_exposition(&metrics.body),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("parma_serve_completed_total 10"),
        "{}",
        metrics.body
    );
    let snap = get(daemon.addr, "/snapshot");
    assert!(
        snap.body.starts_with("{\"schema\":\"parma-snapshot/v1\""),
        "{}",
        &snap.body[..snap.body.len().min(120)]
    );

    let dir = daemon.shutdown_gracefully();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn journal_records_every_decided_job_and_survives_graceful_drain() {
    let daemon = ServeDaemon::spawn_with("serve-journal", &["--threads", "1"], |dir| {
        vec![
            "--journal".into(),
            dir.join("journal.jsonl").display().to_string(),
        ]
    });
    common::generate(&daemon.dir, "session.txt", 5, 99);
    let body = std::fs::read(daemon.dir.join("session.txt")).unwrap();

    let ids: Vec<u64> = (0..3)
        .map(|_| submit_job(daemon.addr, "/jobs", &body))
        .collect();
    for &id in &ids {
        assert_eq!(
            wait_for_job(daemon.addr, id, Duration::from_secs(120)),
            "done"
        );
    }
    let dir = daemon.shutdown_gracefully();
    let journal_path = dir.join("journal.jsonl");

    // After a clean drain the journal is complete and untorn: a header
    // line plus exactly one `ok` entry per decided job, each a complete
    // JSON object keyed by its job id.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"schema\":\"parma-journal-header/v1\""),
        "{}",
        lines[0]
    );
    assert_eq!(lines.len(), 1 + ids.len(), "{text}");
    for &id in &ids {
        let entry = lines
            .iter()
            .find(|l| l.contains(&format!("\"path\":\"job-{id}\"")))
            .unwrap_or_else(|| panic!("job {id} missing from journal:\n{text}"));
        assert!(
            entry.starts_with('{') && entry.ends_with('}'),
            "torn: {entry}"
        );
        assert!(entry.contains("\"status\":\"ok\""), "{entry}");
        assert!(entry.contains("\"residual_bits\":\""), "{entry}");
    }
    std::fs::remove_dir_all(dir).ok();
}
