//! The task and failure decoders read bytes from another process, so any
//! input must yield a value or a typed `DecodeError`, never a panic. Every
//! truncation of a valid blob is `Truncated`; every single-byte mutation
//! and random byte strings decode or fail cleanly, and whatever decodes
//! re-encodes to the bytes it was read from.

use mea_obs::events::{Event, EventKind};
use mea_parallel::dist::DecodeError;
use parma::dist::codec::{
    decode_failure, encode_failure, SolveTask, TAG_SOLVE_FAILED, TAG_SOLVE_TASK,
};
use parma::supervisor::{AttemptFailure, FailureKind, FailureReport};
use proptest::prelude::*;

fn task() -> Vec<u8> {
    SolveTask {
        name: "s0.pbin".into(),
        dataset: (0..64).collect(),
        tol: 1e-10,
        detect: 1.5,
        max_retries: 2,
        solve_deadline_ms: 250,
        backoff_ms: 25,
    }
    .encode()
}

fn failure() -> Vec<u8> {
    encode_failure(&FailureReport {
        item: 3,
        kind: FailureKind::Divergence,
        detail: "no convergence".into(),
        attempts: vec![
            AttemptFailure {
                attempt: 0,
                kind: FailureKind::Divergence,
                detail: "stalled".into(),
            },
            AttemptFailure {
                attempt: 1,
                kind: FailureKind::Timeout,
                detail: "took too long".into(),
            },
        ],
        events: vec![
            Event {
                seq: 7,
                t_us: 1_000,
                kind: EventKind::SolveFailed,
                item: 3,
                info: 0,
                value: 1e-3,
            },
            Event {
                seq: 9,
                t_us: 2_500,
                kind: EventKind::Retry,
                item: 3,
                info: 1,
                value: 25.0,
            },
        ],
    })
}

/// Decodes `bytes` as a task; whatever decodes re-encodes to a prefix of
/// `bytes` (the decoder ignores trailing bytes).
fn check_task(bytes: &[u8]) -> Result<(), DecodeError> {
    let task = SolveTask::decode(bytes)?;
    assert!(bytes.starts_with(&task.encode()), "{task:?}");
    Ok(())
}

/// Decodes `bytes` as a failure report, with the same re-encoding check.
fn check_failure(bytes: &[u8]) -> Result<(), DecodeError> {
    let report = decode_failure(bytes)?;
    assert!(bytes.starts_with(&encode_failure(&report)), "{report:?}");
    Ok(())
}

#[test]
fn valid_blobs_decode_and_every_truncation_is_typed() {
    for (name, bytes, check) in [
        (
            "task",
            task(),
            check_task as fn(&[u8]) -> Result<(), DecodeError>,
        ),
        ("failure", failure(), check_failure),
    ] {
        check(&bytes).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for len in 0..bytes.len() {
            assert_eq!(
                check(&bytes[..len]),
                Err(DecodeError::Truncated),
                "{name} cut to {len} bytes"
            );
        }
    }
}

#[test]
fn every_single_byte_mutation_decodes_or_fails_typed() {
    for (bytes, check) in [
        (task(), check_task as fn(&[u8]) -> Result<(), DecodeError>),
        (failure(), check_failure),
    ] {
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[i] ^= mask;
                // A panic fails the test; any typed result passes.
                let _ = check(&mutated);
            }
        }
    }
}

proptest! {
    #[test]
    fn random_bytes_decode_or_fail_typed(body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = check_task(&body);
        let _ = check_failure(&body);
        // Behind the right tag, the decoders read past the first byte.
        for tag in [TAG_SOLVE_TASK, TAG_SOLVE_FAILED] {
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&body);
            let _ = check_task(&tagged);
            let _ = check_failure(&tagged);
        }
    }
}
