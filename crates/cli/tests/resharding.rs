//! Resharding stability (the PR's determinism contract): the same batch
//! solved in-process, at one worker, at two, and at four must journal
//! byte-identical entries once the trailing `,"worker":N` provenance
//! field is stripped. Shard placement follows the same deterministic
//! `block_range` partition `mpi_sim` ranks use, but the *results* may
//! not depend on the layout at all — the remote path runs the exact
//! in-process solver on whole arrays, so any divergence is a bug, not
//! noise.
//!
//! A fifth run at four workers with one chaos-killed mid-solve checks
//! the contract survives reassignment too (`dist_chaos.rs` covers the
//! full kill matrix).

mod common;

use common::{canonical_lines, fresh_dir, generate, parma};
use std::path::Path;
use std::process::Stdio;

fn run_batch(data: &Path, journal: &Path, workers: usize, chaos: Option<&str>) {
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
    match chaos {
        Some(plan) => cmd.env("PARMA_DIST_CHAOS", plan),
        None => cmd.env_remove("PARMA_DIST_CHAOS"),
    };
    let out = cmd
        .stdout(Stdio::null())
        .output()
        .expect("spawn parma batch");
    assert!(
        out.status.success(),
        "batch (workers={workers}) exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn journals_are_identical_across_worker_counts_and_one_death() {
    let dir = fresh_dir("resharding");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    // n = 16 so the chaos-killed run's mid-solve abort lands inside the
    // solve (see dist_chaos.rs) rather than after the ack.
    for k in 0..4 {
        generate(&data, &format!("s{k}.txt"), 16, 0xD15C ^ k);
    }

    let reference = dir.join("w0.jsonl");
    run_batch(&data, &reference, 0, None);
    let want = canonical_lines(&reference);
    assert_eq!(want.len(), 4, "reference run decided all four datasets");

    for workers in [1usize, 2, 4] {
        let journal = dir.join(format!("w{workers}.jsonl"));
        run_batch(&data, &journal, workers, None);
        assert_eq!(
            canonical_lines(&journal),
            want,
            "journal at {workers} worker(s) diverged from the in-process run"
        );
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            text.matches(",\"worker\":").count(),
            4,
            "all four shards must be solved remotely at {workers} worker(s):\n{text}"
        );
    }

    let journal = dir.join("w4-killed.jsonl");
    run_batch(&data, &journal, 4, Some("mid-solve:*:w2"));
    assert_eq!(
        canonical_lines(&journal),
        want,
        "journal after a mid-solve worker death diverged from the in-process run"
    );

    std::fs::remove_dir_all(&dir).ok();
}
