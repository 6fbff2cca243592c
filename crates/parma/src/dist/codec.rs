//! Payload codecs for the distributed solve protocol: the byte layouts
//! carried *inside* `parma-wire` frames (`mea_parallel::dist`).
//!
//! Everything numeric travels as IEEE-754 bit patterns (`PayloadWriter::
//! put_f64` writes `to_bits`), so a result decoded on the coordinator is
//! **bitwise identical** to the solve the worker ran — the property the
//! resharding tests pin. The coordinator core treats task and result
//! payloads as opaque blobs; these codecs are the `parma`-level meaning
//! of those blobs for whole-dataset solve tasks. (The bench harness
//! defines its own pair-range blob with the same primitives.)
//!
//! Every blob leads with a tag byte so a worker handed a payload it does
//! not understand fails with a typed [`DecodeError::BadTag`] instead of
//! misreading bytes.

use crate::pipeline::TimePointResult;
use crate::solver::{ParmaSolution, RecoveryAction, RecoveryEvent};
use crate::supervisor::{AttemptFailure, FailureKind, FailureReport};
use crate::DetectionReport;
use mea_model::{CrossingMatrix, MeaGrid};
use mea_parallel::dist::{DecodeError, PayloadReader, PayloadWriter};

/// Tag byte of a whole-dataset solve task blob.
pub const TAG_SOLVE_TASK: u8 = 1;
/// Tag byte of a solved time-point-series result blob.
pub const TAG_SOLVE_OK: u8 = 2;
/// Tag byte of a quarantine (failure report) result blob.
pub const TAG_SOLVE_FAILED: u8 = 3;

/// Fewest bytes one encoded time point occupies (a 1×1 map with empty
/// history, recovery log and anomaly list).
const MIN_TIME_POINT_BYTES: usize = 85;

/// One whole-array solve shipped to a worker: the dataset itself (as
/// `parma-bin/v1` bytes — checksummed end to end) plus every knob that
/// shapes the numeric output, so the worker reproduces the coordinator's
/// in-process solve bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveTask {
    /// Dataset file name (the journal key).
    pub name: String,
    /// The dataset, encoded as `parma-bin/v1`.
    pub dataset: Vec<u8>,
    /// Solver tolerance.
    pub tol: f64,
    /// Detection threshold factor.
    pub detect: f64,
    /// Supervisor retry budget.
    pub max_retries: u64,
    /// Per-solve deadline in milliseconds; 0 = none.
    pub solve_deadline_ms: u64,
    /// Supervisor backoff base in milliseconds.
    pub backoff_ms: u64,
}

impl SolveTask {
    /// Serializes the task blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u8(TAG_SOLVE_TASK);
        w.put_str(&self.name);
        w.put_bytes(&self.dataset);
        w.put_f64(self.tol);
        w.put_f64(self.detect);
        w.put_u64(self.max_retries);
        w.put_u64(self.solve_deadline_ms);
        w.put_u64(self.backoff_ms);
        w.into_bytes()
    }

    /// Deserializes a task blob.
    pub fn decode(bytes: &[u8]) -> Result<SolveTask, DecodeError> {
        let mut r = PayloadReader::new(bytes);
        let tag = r.take_u8()?;
        if tag != TAG_SOLVE_TASK {
            return Err(DecodeError::BadTag(tag));
        }
        Ok(SolveTask {
            name: r.take_str()?.to_string(),
            dataset: r.take_bytes()?.to_vec(),
            tol: r.take_f64()?,
            detect: r.take_f64()?,
            max_retries: r.take_u64()?,
            solve_deadline_ms: r.take_u64()?,
            backoff_ms: r.take_u64()?,
        })
    }
}

/// Serializes a successful solve: the full time-point series, every field
/// bit-exact, so the coordinator can journal it (or serve it over HTTP)
/// exactly as if it had solved in-process.
pub fn encode_time_points(tps: &[TimePointResult]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u8(TAG_SOLVE_OK);
    w.put_u64(tps.len() as u64);
    for tp in tps {
        w.put_u32(tp.hours);
        let grid = tp.solution.resistors.grid();
        w.put_u32(grid.rows() as u32);
        w.put_u32(grid.cols() as u32);
        w.put_u64(tp.solution.resistors.as_slice().len() as u64);
        for &v in tp.solution.resistors.as_slice() {
            w.put_f64(v);
        }
        w.put_u64(tp.solution.iterations as u64);
        w.put_f64(tp.solution.residual);
        w.put_u64(tp.solution.history.len() as u64);
        for &v in &tp.solution.history {
            w.put_f64(v);
        }
        w.put_u64(tp.solution.recovery.len() as u64);
        for ev in &tp.solution.recovery {
            w.put_u8(recovery_action_code(ev.action));
            w.put_u64(ev.at_iteration as u64);
            w.put_f64(ev.residual);
        }
        w.put_f64(tp.detection.baseline);
        w.put_f64(tp.detection.threshold);
        w.put_u64(tp.detection.anomalies.len() as u64);
        for &(i, j) in &tp.detection.anomalies {
            w.put_u64(i as u64);
            w.put_u64(j as u64);
        }
        match tp.ground_truth_error {
            Some(e) => {
                w.put_u8(1);
                w.put_f64(e);
            }
            None => w.put_u8(0),
        }
    }
    w.into_bytes()
}

/// Reads an element count and checks that the rest of the payload can
/// hold that many elements of at least `min_bytes` each, so a forged
/// count can never make the decoder reserve more than the payload holds.
fn take_count(r: &mut PayloadReader<'_>, min_bytes: usize) -> Result<usize, DecodeError> {
    let count = r.take_u64()?;
    if count > (r.remaining() / min_bytes) as u64 {
        return Err(DecodeError::Truncated);
    }
    Ok(count as usize)
}

/// Deserializes a successful solve result blob. Dimensions and counts come
/// from another process, so a zero grid dimension is
/// [`DecodeError::OutOfRange`] and every count is checked against the
/// bytes left before anything is reserved for it.
pub fn decode_time_points(bytes: &[u8]) -> Result<Vec<TimePointResult>, DecodeError> {
    let mut r = PayloadReader::new(bytes);
    let tag = r.take_u8()?;
    if tag != TAG_SOLVE_OK {
        return Err(DecodeError::BadTag(tag));
    }
    let count = take_count(&mut r, MIN_TIME_POINT_BYTES)?;
    let mut tps = Vec::with_capacity(count);
    for _ in 0..count {
        let hours = r.take_u32()?;
        let rows = r.take_u32()? as usize;
        let cols = r.take_u32()? as usize;
        if rows == 0 || cols == 0 {
            return Err(DecodeError::OutOfRange);
        }
        let grid = MeaGrid::new(rows, cols);
        let n = take_count(&mut r, 8)?;
        if n != grid.crossings() {
            return Err(DecodeError::Truncated);
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(r.take_f64()?);
        }
        let resistors = CrossingMatrix::from_vec(grid, values);
        let iterations = r.take_u64()? as usize;
        let residual = r.take_f64()?;
        let h = take_count(&mut r, 8)?;
        let mut history = Vec::with_capacity(h);
        for _ in 0..h {
            history.push(r.take_f64()?);
        }
        let rc = take_count(&mut r, 17)?;
        let mut recovery = Vec::with_capacity(rc);
        for _ in 0..rc {
            recovery.push(RecoveryEvent {
                action: recovery_action_from(r.take_u8()?)?,
                at_iteration: r.take_u64()? as usize,
                residual: r.take_f64()?,
            });
        }
        let baseline = r.take_f64()?;
        let threshold = r.take_f64()?;
        let ac = take_count(&mut r, 16)?;
        let mut anomalies = Vec::with_capacity(ac);
        for _ in 0..ac {
            let i = r.take_u64()? as usize;
            let j = r.take_u64()? as usize;
            anomalies.push((i, j));
        }
        let ground_truth_error = match r.take_u8()? {
            0 => None,
            _ => Some(r.take_f64()?),
        };
        tps.push(TimePointResult {
            hours,
            solution: ParmaSolution {
                resistors,
                iterations,
                residual,
                history,
                recovery,
            },
            detection: DetectionReport {
                baseline,
                threshold,
                anomalies,
            },
            ground_truth_error,
        });
    }
    Ok(tps)
}

/// Serializes a quarantine, including the embedded flight-recorder tail —
/// the worker-side forensics that would otherwise die with the worker's
/// process. (Before `parma-wire/v2` the tail was dropped on the grounds
/// that it described the worker's process; with trace-scoped events it
/// describes the dispatch, so it ships.)
pub fn encode_failure(report: &FailureReport) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u8(TAG_SOLVE_FAILED);
    w.put_u64(report.item as u64);
    w.put_u8(failure_kind_code(report.kind));
    w.put_str(&report.detail);
    w.put_u64(report.attempts.len() as u64);
    for a in &report.attempts {
        w.put_u64(a.attempt as u64);
        w.put_u8(failure_kind_code(a.kind));
        w.put_str(&a.detail);
    }
    // The event tail, which the decoder requires.
    w.put_u64(report.events.len() as u64);
    for e in &report.events {
        w.put_u64(e.seq);
        w.put_u64(e.t_us);
        w.put_u8(e.kind.code());
        w.put_u64(e.item);
        w.put_u64(e.info);
        w.put_f64(e.value);
    }
    w.into_bytes()
}

/// Deserializes a quarantine result blob, event tail included (a blob
/// cut short before it is [`DecodeError::Truncated`]). Like
/// [`decode_time_points`], every count is checked against the bytes left
/// before anything is reserved for it.
pub fn decode_failure(bytes: &[u8]) -> Result<FailureReport, DecodeError> {
    let mut r = PayloadReader::new(bytes);
    let tag = r.take_u8()?;
    if tag != TAG_SOLVE_FAILED {
        return Err(DecodeError::BadTag(tag));
    }
    let item = r.take_u64()? as usize;
    let kind = failure_kind_from(r.take_u8()?)?;
    let detail = r.take_str()?.to_string();
    // An attempt is at least its number, kind and detail length.
    let count = take_count(&mut r, 17)?;
    let mut attempts = Vec::with_capacity(count);
    for _ in 0..count {
        attempts.push(AttemptFailure {
            attempt: r.take_u64()? as usize,
            kind: failure_kind_from(r.take_u8()?)?,
            detail: r.take_str()?.to_string(),
        });
    }
    let ec = take_count(&mut r, 41)?;
    let mut events = Vec::with_capacity(ec);
    for _ in 0..ec {
        let seq = r.take_u64()?;
        let t_us = r.take_u64()?;
        let code = r.take_u8()?;
        let ekind = mea_obs::events::EventKind::from_code(code).ok_or(DecodeError::BadTag(code))?;
        events.push(mea_obs::events::Event {
            seq,
            t_us,
            kind: ekind,
            item: r.take_u64()?,
            info: r.take_u64()?,
            value: r.take_f64()?,
        });
    }
    Ok(FailureReport {
        item,
        kind,
        detail,
        attempts,
        events,
    })
}

fn failure_kind_code(kind: FailureKind) -> u8 {
    match kind {
        FailureKind::Panic => 1,
        FailureKind::Timeout => 2,
        FailureKind::Cancelled => 3,
        FailureKind::Divergence => 4,
        FailureKind::NonFiniteInput => 5,
        FailureKind::Internal => 6,
    }
}

fn failure_kind_from(code: u8) -> Result<FailureKind, DecodeError> {
    Ok(match code {
        1 => FailureKind::Panic,
        2 => FailureKind::Timeout,
        3 => FailureKind::Cancelled,
        4 => FailureKind::Divergence,
        5 => FailureKind::NonFiniteInput,
        6 => FailureKind::Internal,
        other => return Err(DecodeError::BadTag(other)),
    })
}

fn recovery_action_code(action: RecoveryAction) -> u8 {
    match action {
        RecoveryAction::Extrapolate => 1,
        RecoveryAction::ReduceDamping => 2,
        RecoveryAction::Regularize => 3,
        RecoveryAction::ColdRestart => 4,
    }
}

fn recovery_action_from(code: u8) -> Result<RecoveryAction, DecodeError> {
    Ok(match code {
        1 => RecoveryAction::Extrapolate,
        2 => RecoveryAction::ReduceDamping,
        3 => RecoveryAction::Regularize,
        4 => RecoveryAction::ColdRestart,
        other => return Err(DecodeError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParmaConfig;
    use crate::pipeline::Pipeline;
    use mea_model::{AnomalyConfig, WetLabDataset};

    #[test]
    fn solve_task_round_trips() {
        let task = SolveTask {
            name: "s0.pbin".into(),
            dataset: vec![7, 8, 9, 0, 255],
            tol: 1e-10,
            detect: 1.5,
            max_retries: 2,
            solve_deadline_ms: 0,
            backoff_ms: 25,
        };
        let back = SolveTask::decode(&task.encode()).unwrap();
        assert_eq!(back, task);
    }

    #[test]
    fn wrong_tags_are_typed_errors() {
        let task = SolveTask {
            name: "x".into(),
            dataset: Vec::new(),
            tol: 1e-10,
            detect: 1.5,
            max_retries: 0,
            solve_deadline_ms: 0,
            backoff_ms: 0,
        };
        let bytes = task.encode();
        assert!(matches!(
            decode_time_points(&bytes),
            Err(DecodeError::BadTag(TAG_SOLVE_TASK))
        ));
        assert!(matches!(
            decode_failure(&bytes),
            Err(DecodeError::BadTag(TAG_SOLVE_TASK))
        ));
    }

    #[test]
    fn time_points_round_trip_bitwise() {
        let ds =
            WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 17).unwrap();
        let tps = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&ds)
            .unwrap();
        let back = decode_time_points(&encode_time_points(&tps)).unwrap();
        assert_eq!(back.len(), tps.len());
        for (a, b) in tps.iter().zip(&back) {
            assert_eq!(a.hours, b.hours);
            assert_eq!(a.solution.iterations, b.solution.iterations);
            assert_eq!(a.solution.residual.to_bits(), b.solution.residual.to_bits());
            assert_eq!(a.solution.history.len(), b.solution.history.len());
            for (x, y) in a
                .solution
                .resistors
                .as_slice()
                .iter()
                .zip(b.solution.resistors.as_slice())
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.detection.anomalies, b.detection.anomalies);
            assert_eq!(
                a.detection.baseline.to_bits(),
                b.detection.baseline.to_bits()
            );
            assert_eq!(
                a.ground_truth_error.map(f64::to_bits),
                b.ground_truth_error.map(f64::to_bits)
            );
        }
        // The journal line — the resharding comparison key — is identical
        // whether the solve stayed local or round-tripped the wire.
        assert_eq!(tps[0].solution.recovery, back[0].solution.recovery);
    }

    #[test]
    fn failure_report_round_trips_with_the_event_tail() {
        let report = FailureReport {
            item: 4,
            kind: FailureKind::Timeout,
            detail: "took too long".into(),
            attempts: vec![
                AttemptFailure {
                    attempt: 0,
                    kind: FailureKind::Divergence,
                    detail: "diverged".into(),
                },
                AttemptFailure {
                    attempt: 1,
                    kind: FailureKind::Timeout,
                    detail: "took too long".into(),
                },
            ],
            events: vec![mea_obs::events::Event {
                seq: 41,
                t_us: 1_234,
                kind: mea_obs::events::EventKind::SolveFailed,
                item: mea_obs::events::job_key(4),
                info: 1,
                value: 250.0,
            }],
        };
        let bytes = encode_failure(&report);
        let back = decode_failure(&bytes).unwrap();
        assert_eq!(back.item, report.item);
        assert_eq!(back.kind, report.kind);
        assert_eq!(back.detail, report.detail);
        assert_eq!(back.attempts.len(), 2);
        assert_eq!(back.attempts[0].kind, FailureKind::Divergence);
        assert_eq!(back.attempts[1].attempt, 1);
        assert_eq!(back.events.len(), 1, "the flight-recorder tail ships");
        assert_eq!(back.events[0].seq, 41);
        assert_eq!(back.events[0].item, mea_obs::events::job_key(4));

        // A blob that ends right after the attempts (no event tail) is
        // truncated, not a report with an empty tail.
        let tail_len = 8 + report.events.len() * (8 + 8 + 1 + 8 + 8 + 8);
        let short = &bytes[..bytes.len() - tail_len];
        assert!(matches!(decode_failure(short), Err(DecodeError::Truncated)));
    }

    #[test]
    fn truncated_blobs_never_panic() {
        let ds = WetLabDataset::generate(MeaGrid::square(3), &AnomalyConfig::default(), 3).unwrap();
        let tps = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&ds)
            .unwrap();
        let bytes = encode_time_points(&tps);
        for len in 0..bytes.len().min(200) {
            assert!(decode_time_points(&bytes[..len]).is_err());
        }
        // And from the tail end, where the per-tp loop is mid-record.
        for cut in 1..50 {
            assert!(decode_time_points(&bytes[..bytes.len() - cut]).is_err());
        }
        // A first time point declaring 0 rows (bytes 13..17: after the
        // tag, the count and the hours).
        let mut zero_rows = bytes.clone();
        zero_rows[13..17].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_time_points(&zero_rows).is_err());
    }
}
