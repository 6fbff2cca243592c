//! `parma batch` parses every dataset file itself, before any solve,
//! whichever path then solves the sessions. A directory holding one good
//! session, a text file with a NaN measurement, a damaged `parma-bin/v1`
//! file and a 65-byte text file whose header declares a 10⁶×10⁶ matrix
//! must therefore journal the same `failed` lines, and exit with the
//! quarantine status, in-process and at one worker. Entry lines are
//! compared with the `worker` provenance field stripped and the dispatch
//! sidecar lines dropped, as `resharding.rs` does.

mod common;

use common::{canonical_lines, fresh_dir, generate, parma};
use std::path::Path;
use std::process::Stdio;

/// A text dataset whose header declares 10¹² values and whose body holds
/// one. The reader reserves nothing the body has not supplied, so this is
/// a parse error, not an 8 TB allocation that aborts the process.
const FORGED: &str = "# parma-dataset v1\nrows 1000000\ncols 1000000\nmeasurement 0 5\n1.0\n";

fn run_batch(data: &Path, journal: &Path, workers: usize) {
    let mut cmd = parma();
    cmd.args([
        "batch",
        data.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--quiet",
    ]);
    if workers > 0 {
        cmd.args(["--workers", &workers.to_string(), "--heartbeat-ms", "25"]);
    }
    let out = cmd
        .env_remove("PARMA_DIST_CHAOS")
        .stdout(Stdio::null())
        .output()
        .expect("spawn parma batch");
    assert_eq!(
        out.status.code(),
        Some(3),
        "batch (workers={workers}) must exit with the quarantine status: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unloadable_files_journal_identically_in_process_and_at_one_worker() {
    let dir = fresh_dir("unloadable-files");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    generate(&data, "good.txt", 4, 77);
    std::fs::write(
        data.join("nan.txt"),
        "# parma-dataset v1\nrows 1\ncols 2\nmeasurement 0 5\nNaN\t1.0\n",
    )
    .unwrap();
    assert_eq!(FORGED.len(), 65);
    std::fs::write(data.join("forged.txt"), FORGED).unwrap();
    // A payload byte flipped in a converted session: the checksum rejects it.
    generate(&dir, "damaged.txt", 4, 78);
    let damaged = data.join("damaged.pbin");
    let status = parma()
        .args([
            "convert",
            dir.join("damaged.txt").to_str().unwrap(),
            damaged.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .status()
        .expect("spawn parma convert");
    assert!(status.success(), "convert failed");
    let mut bytes = std::fs::read(&damaged).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    std::fs::write(&damaged, &bytes).unwrap();

    let in_process = dir.join("w0.jsonl");
    run_batch(&data, &in_process, 0);
    let want = canonical_lines(&in_process);
    let failed: Vec<&String> = want
        .iter()
        .filter(|l| l.contains("\"status\":\"failed\""))
        .collect();
    assert_eq!(failed.len(), 3, "all three bad files quarantine: {want:?}");
    for line in &failed {
        assert!(line.contains("cannot load dataset:"), "{line}");
    }
    assert!(
        want.iter()
            .any(|l| l.contains("\"path\":\"good.txt\"") && l.contains("\"status\":\"ok\"")),
        "{want:?}"
    );

    let one_worker = dir.join("w1.jsonl");
    run_batch(&data, &one_worker, 1);
    assert_eq!(
        canonical_lines(&one_worker),
        want,
        "journal at one worker diverged from the in-process run"
    );

    // `parma solve` rejects the forged file as a usage-level parse error.
    let out = parma()
        .args([
            "solve",
            "--input",
            data.join("forged.txt").to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .output()
        .expect("spawn parma solve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("dataset parse error"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
