//! Robustness contract of `parma serve`: concurrent clients, hostile
//! inputs, backpressure, and graceful drain. Every scenario runs against
//! a real daemon on an ephemeral port; the daemon must survive all of it
//! — a panic or wedged listener fails the guard's exit assertions.

mod common;

use common::{get, post, submit_job, wait_for_job, ServeDaemon};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn parallel_clients_all_get_identical_bitwise_results() {
    let daemon = ServeDaemon::spawn("serve-parallel", &["--threads", "2"]);
    common::generate(&daemon.dir, "session.txt", 5, 31);
    let body = std::fs::read(daemon.dir.join("session.txt")).unwrap();

    // Eight clients hammer the same dataset concurrently over real
    // sockets; every admitted job must decide, and — the determinism
    // guarantee under concurrency — every result document must be identical.
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = &body;
                let addr = daemon.addr;
                scope.spawn(move || submit_job(addr, "/jobs", body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Concurrent admission never hands out duplicate ids.
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate job ids: {ids:?}");

    let mut documents = Vec::new();
    for &id in &ids {
        assert_eq!(
            wait_for_job(daemon.addr, id, Duration::from_secs(120)),
            "done",
            "job {id} failed"
        );
        let reply = get(daemon.addr, &format!("/jobs/{id}/result"));
        assert_eq!(reply.status, 200);
        let start = reply.body.find("\"time_points\":").expect("time_points");
        documents.push(reply.body[start..].to_string());
    }
    for d in &documents[1..] {
        assert_eq!(&documents[0], d, "results diverged across parallel clients");
    }

    let dir = daemon.shutdown_gracefully();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn malformed_and_truncated_uploads_get_typed_errors_not_panics() {
    let daemon = ServeDaemon::spawn("serve-hostile", &[]);

    // Garbage body: typed 400 from the failure taxonomy, not a panic.
    let reply = post(daemon.addr, "/jobs", b"this is not a dataset");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"schema\":\"parma-serve-error/v1\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("\"kind\":\""), "{}", reply.body);

    // A dataset that parses but is physically impossible (negative
    // impedance) is rejected the same way.
    let bad = "# parma-dataset v1\nrows 2\ncols 2\nmeasurement 0 5\n-1.0\t1.0\n1.0\t1.0\n";
    let reply = post(daemon.addr, "/jobs", bad.as_bytes());
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"schema\":\"parma-serve-error/v1\""),
        "{}",
        reply.body
    );

    // A 65-byte body whose header declares a 10⁶×10⁶ matrix: the reader
    // reserves nothing the body has not supplied, so this is a typed 400,
    // not an 8 TB allocation that aborts the daemon.
    let forged = b"# parma-dataset v1\nrows 1000000\ncols 1000000\nmeasurement 0 5\n1.0\n";
    let reply = post(daemon.addr, "/jobs", forged);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"schema\":\"parma-serve-error/v1\""),
        "{}",
        reply.body
    );

    // Truncated upload: Content-Length promises more than arrives. The
    // daemon answers a typed 400 instead of hanging or dying.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\nonly this much")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("truncated_body"), "{response}");

    // Unparseable and unknown job ids are typed, too.
    let reply = get(daemon.addr, "/jobs/banana");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("bad_job_id"), "{}", reply.body);
    let reply = get(daemon.addr, "/jobs/999999");
    assert_eq!(reply.status, 404, "{}", reply.body);
    assert!(reply.body.contains("unknown_job"), "{}", reply.body);

    // After all that abuse the daemon still solves real work.
    common::generate(&daemon.dir, "ok.txt", 4, 17);
    let body = std::fs::read(daemon.dir.join("ok.txt")).unwrap();
    let id = submit_job(daemon.addr, "/jobs", &body);
    assert_eq!(
        wait_for_job(daemon.addr, id, Duration::from_secs(120)),
        "done"
    );

    let dir = daemon.shutdown_gracefully();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn binary_uploads_solve_and_corrupt_binary_gets_typed_errors() {
    let daemon = ServeDaemon::spawn("serve-binary", &[]);
    common::generate(&daemon.dir, "session.txt", 4, 77);
    let ds = mea_model::WetLabDataset::load(daemon.dir.join("session.txt")).unwrap();
    let mut bin = Vec::new();
    ds.write_binary(&mut bin).unwrap();

    // A parma-bin/v1 POST body is sniffed and solves end-to-end…
    let id = submit_job(daemon.addr, "/jobs", &bin);
    assert_eq!(
        wait_for_job(daemon.addr, id, Duration::from_secs(120)),
        "done"
    );
    // …to the same result document as the text body of the same session.
    let text_body = std::fs::read(daemon.dir.join("session.txt")).unwrap();
    let id2 = submit_job(daemon.addr, "/jobs", &text_body);
    assert_eq!(
        wait_for_job(daemon.addr, id2, Duration::from_secs(120)),
        "done"
    );
    let tail = |body: &str| body[body.find("\"time_points\":").unwrap()..].to_string();
    let a = get(daemon.addr, &format!("/jobs/{id}/result"));
    let b = get(daemon.addr, &format!("/jobs/{id2}/result"));
    assert_eq!(a.status, 200);
    assert_eq!(
        tail(&a.body),
        tail(&b.body),
        "binary and text bodies must solve identically"
    );

    // A flipped payload byte fails the integrity pass: typed 400 from the
    // failure taxonomy, never a wrong-value solve or a panic.
    let mut corrupt = bin.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x80;
    let reply = post(daemon.addr, "/jobs", &corrupt);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"schema\":\"parma-serve-error/v1\""),
        "{}",
        reply.body
    );
    assert!(
        reply.body.contains("\"kind\":\"non_finite_input\""),
        "{}",
        reply.body
    );

    // So does a truncated binary body.
    let reply = post(daemon.addr, "/jobs", &bin[..bin.len() / 3]);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"schema\":\"parma-serve-error/v1\""),
        "{}",
        reply.body
    );

    let dir = daemon.shutdown_gracefully();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn full_queue_answers_429_with_retry_after_and_unfinished_results_409() {
    // One worker, a one-slot queue, and a 300 ms artificial hold per job:
    // a burst must overflow into 429s while the daemon stays healthy.
    let daemon = ServeDaemon::spawn(
        "serve-backpressure",
        &["--threads", "1", "--queue", "1", "--hold-ms", "300"],
    );
    common::generate(&daemon.dir, "session.txt", 4, 71);
    let body = std::fs::read(daemon.dir.join("session.txt")).unwrap();

    let mut admitted = Vec::new();
    let mut saw_backpressure = false;
    for _ in 0..8 {
        let reply = post(daemon.addr, "/jobs", &body);
        match reply.status {
            202 => admitted.push(common::extract_u64(&reply.body, "\"job\":").unwrap()),
            429 => {
                saw_backpressure = true;
                assert!(
                    reply.body.contains("\"kind\":\"queue_full\""),
                    "{}",
                    reply.body
                );
                assert!(reply.body.contains("retryable"), "{}", reply.body);
                // The backpressure contract: a machine-readable retry hint.
                assert_eq!(reply.header("Retry-After"), Some("1"), "{}", reply.head);
            }
            other => panic!("unexpected status {other}: {}", reply.body),
        }
    }
    assert!(
        saw_backpressure,
        "8 instant submits never overflowed a 1-slot queue"
    );
    assert!(!admitted.is_empty(), "backpressure rejected every submit");

    // A held (running) job's result is a 409, typed.
    let first = admitted[0];
    let reply = get(daemon.addr, &format!("/jobs/{first}/result"));
    if reply.status != 200 {
        assert_eq!(reply.status, 409, "{}", reply.body);
        assert!(reply.body.contains("not_done"), "{}", reply.body);
    }

    // Backpressure is transient: every admitted job still decides.
    for &id in &admitted {
        assert_eq!(
            wait_for_job(daemon.addr, id, Duration::from_secs(120)),
            "done",
            "admitted job {id} failed"
        );
    }

    let dir = daemon.shutdown_gracefully();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn draining_daemon_rejects_new_work_with_503_and_finishes_queued_jobs() {
    let daemon = ServeDaemon::spawn_with(
        "serve-drain",
        &["--threads", "1", "--hold-ms", "400"],
        |dir| {
            vec![
                "--journal".into(),
                dir.join("journal.jsonl").display().to_string(),
            ]
        },
    );
    common::generate(&daemon.dir, "session.txt", 4, 53);
    let body = std::fs::read(daemon.dir.join("session.txt")).unwrap();

    // Three queued jobs (each held ≥ 400 ms) guarantee the drain is still
    // in progress when we probe for the shutting-down rejection.
    let ids: Vec<u64> = (0..3)
        .map(|_| submit_job(daemon.addr, "/jobs", &body))
        .collect();
    let reply = post(daemon.addr, "/shutdown", b"");
    assert_eq!(reply.status, 200, "{}", reply.body);

    // While draining, the listener still answers — new work is refused
    // with a terminal 503, never silently dropped or connection-reset.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match mea_obs::serve::http_request(daemon.addr, "POST", "/jobs", &body) {
            Ok(reply) if reply.status == 503 => {
                assert!(
                    reply.body.contains("\"kind\":\"shutting_down\""),
                    "{}",
                    reply.body
                );
                assert!(reply.body.contains("terminal"), "{}", reply.body);
                break;
            }
            // The drain flag propagates through the main thread; a submit
            // racing ahead of it may still be admitted (and will drain).
            Ok(reply) if reply.status == 202 || reply.status == 429 => {}
            Ok(reply) => panic!("unexpected status {}: {}", reply.status, reply.body),
            Err(e) => panic!("listener died while draining: {e}"),
        }
        assert!(
            Instant::now() < deadline,
            "503 never surfaced while draining"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The daemon exits 0 once drained; the journal then holds a decided
    // entry for every job admitted *before* the shutdown — drain means
    // finish, not abandon — and every line is a complete JSON object.
    let mut daemon = daemon;
    let mut child = daemon.take_child();
    let status = child.wait().expect("wait on draining serve");
    assert!(status.success(), "drain exited {status:?}");
    let text = std::fs::read_to_string(daemon.dir.join("journal.jsonl")).unwrap();
    for &id in &ids {
        assert!(
            text.contains(&format!("\"path\":\"job-{id}\"")),
            "queued job {id} was abandoned by the drain:\n{text}"
        );
    }
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "torn journal line after drain: {line}"
        );
    }
}

#[test]
fn shutdown_flips_the_admit_gate_before_answering_200() {
    // The /shutdown handler must close admission *before* replying, so a
    // client that serializes "200 received, then submit" can never be
    // admitted — no 202-after-shutdown race, not even a benign one. One
    // held job keeps the drain (and therefore the listener) alive while
    // the post-shutdown submits probe the gate.
    let daemon = ServeDaemon::spawn_with(
        "serve-admit-gate",
        &["--threads", "1", "--hold-ms", "800"],
        |dir| {
            vec![
                "--journal".into(),
                dir.join("journal.jsonl").display().to_string(),
            ]
        },
    );
    common::generate(&daemon.dir, "session.txt", 4, 77);
    let body = std::fs::read(daemon.dir.join("session.txt")).unwrap();
    let held = submit_job(daemon.addr, "/jobs", &body);

    let reply = post(daemon.addr, "/shutdown", b"");
    assert_eq!(reply.status, 200, "{}", reply.body);
    for attempt in 0..5 {
        let reply = post(daemon.addr, "/jobs", &body);
        assert_eq!(
            reply.status, 503,
            "submit #{attempt} was admitted after /shutdown answered: {}",
            reply.body
        );
        assert!(
            reply.body.contains("\"kind\":\"shutting_down\""),
            "{}",
            reply.body
        );
    }

    let mut daemon = daemon;
    let mut child = daemon.take_child();
    let status = child.wait().expect("wait on draining serve");
    assert!(status.success(), "drain exited {status:?}");
    let text = std::fs::read_to_string(daemon.dir.join("journal.jsonl")).unwrap();
    assert!(
        text.contains(&format!("\"path\":\"job-{held}\"")),
        "the pre-shutdown job was abandoned:\n{text}"
    );
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"schema\":\"parma-journal/v1\""))
            .count(),
        1,
        "exactly the one admitted job may be journaled:\n{text}"
    );
}
