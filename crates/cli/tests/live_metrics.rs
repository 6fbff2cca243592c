//! End-to-end contract of `parma batch --metrics-addr`: the live listener
//! serves well-formed Prometheus text with solve-latency data, /snapshot
//! carries the provenance meta, and quarantined items embed their recent
//! flight-recorder events in the journaled failure report.
//!
//! These tests spawn the real binary (`CARGO_BIN_EXE_parma`) because live
//! telemetry is process-global state: running it in-process would race
//! with every other trace-producing test.

mod common;

use common::{fresh_dir, generate, parma, wait_for_addr};
use std::process::Stdio;
use std::time::{Duration, Instant};

#[test]
fn batch_metrics_endpoint_serves_exposition_and_snapshot() {
    let dir = fresh_dir("live-metrics");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    for k in 0..3u64 {
        generate(&data, &format!("m{k}.txt"), 6, 500 + k);
    }
    let addr_file = dir.join("addr.txt");

    // Linger keeps the listener up after the run so the scrape below sees
    // the final counters regardless of how fast the solves finish.
    let mut child = parma()
        .args([
            "batch",
            data.to_str().unwrap(),
            "--threads",
            "2",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-addr-file",
            addr_file.to_str().unwrap(),
            "--metrics-linger",
            "20",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn batch");
    let addr = wait_for_addr(&addr_file, Duration::from_secs(60));

    // Scrape until the run's counters show up (the listener is live from
    // before the first solve, so early scrapes may legitimately be empty).
    // Each time point's detection is recorded after its solve is counted,
    // so the last detection marks a finished run.
    let deadline = Instant::now() + Duration::from_secs(60);
    let text = loop {
        let (status, body) = mea_obs::serve::http_get(addr, "/metrics").expect("scrape /metrics");
        assert!(status.contains("200"), "{status}");
        if body.contains("parma_solver_solves_total 12")
            && body.contains("parma_detect_ms_count 12")
        {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "solve counters never appeared:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        mea_obs::expo::looks_like_valid_exposition(&text),
        "malformed exposition:\n{text}"
    );
    // Solve-latency histogram with quantile data.
    assert!(text.contains("# TYPE parma_solve_ms histogram"), "{text}");
    assert!(
        text.contains("parma_solve_ms_bucket{le=\"+Inf\"} 12"),
        "{text}"
    );
    assert!(text.contains("parma_solve_ms_count 12"), "{text}");
    assert!(text.contains("parma_solve_ms_p50 "), "{text}");
    assert!(text.contains("parma_solve_ms_p99 "), "{text}");
    // Detection, a stage of every time point, is live too.
    assert!(text.contains("# TYPE parma_detect_ms histogram"), "{text}");
    // Batch bookkeeping counters.
    assert!(text.contains("parma_batch_items_total 3"), "{text}");

    // /snapshot leads with the provenance meta and includes histograms.
    let (status, snap) = mea_obs::serve::http_get(addr, "/snapshot").expect("scrape /snapshot");
    assert!(status.contains("200"), "{status}");
    assert!(
        snap.starts_with("{\"schema\":\"parma-snapshot/v1\",\"version\":\""),
        "snapshot prefix drifted: {}",
        &snap[..snap.len().min(120)]
    );
    assert!(snap.contains("\"config_hash\":\""), "{snap}");
    assert!(snap.contains("\"histograms\":{"), "{snap}");
    assert!(snap.contains("\"parma.solve_ms\":{\"count\":12,"), "{snap}");

    // /events serves the flight-recorder ring as schema-stamped JSONL.
    let (status, events) = mea_obs::serve::http_get(addr, "/events").expect("scrape /events");
    assert!(status.contains("200"), "{status}");
    let first = events.lines().next().expect("at least one event");
    assert!(
        first.starts_with("{\"schema\":\"parma-events/v1\",\"seq\":"),
        "event line drifted: {first}"
    );
    assert!(events.contains("\"kind\":\"solve_ok\""), "{events}");

    // Unknown paths 404 without killing the listener.
    let (status, _) = mea_obs::serve::http_get(addr, "/nope").expect("scrape /nope");
    assert!(status.contains("404"), "{status}");

    child.kill().ok();
    child.wait().expect("reap batch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_failure_report_embeds_flight_recorder_events() {
    let dir = fresh_dir("live-quarantine");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    generate(&data, "slow.txt", 6, 901);
    let journal = dir.join("journal.jsonl");
    let addr_file = dir.join("addr.txt");

    // A 1 µs solve deadline fails every attempt deterministically; with
    // live telemetry on, the quarantine report must carry the item's
    // recent events (at minimum its own quarantine marker).
    let out = parma()
        .args([
            "batch",
            data.to_str().unwrap(),
            "--threads",
            "1",
            "--max-retries",
            "1",
            "--backoff-ms",
            "1",
            "--solve-deadline",
            "0.000001",
            "--journal",
            journal.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-addr-file",
            addr_file.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("spawn batch");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jtext = std::fs::read_to_string(&journal).unwrap();
    let failed = jtext
        .lines()
        .find(|l| l.contains("\"status\":\"failed\""))
        .unwrap_or_else(|| panic!("no failed journal entry:\n{jtext}"));
    // The report's events array is non-empty and carries the quarantine
    // marker for this item (item index 0).
    assert!(
        failed.contains("\"events\":[{\"seq\":"),
        "no embedded events: {failed}"
    );
    assert!(
        failed.contains("\"kind\":\"quarantine\""),
        "quarantine event missing: {failed}"
    );
    assert!(failed.contains("\"version\":\""), "{failed}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flags_require_an_address() {
    let dir = fresh_dir("metrics-flag-validation");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    generate(&data, "a.txt", 4, 7);
    let out = parma()
        .args(["batch", data.to_str().unwrap(), "--metrics-linger", "5"])
        .output()
        .expect("spawn batch");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--metrics-addr"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
