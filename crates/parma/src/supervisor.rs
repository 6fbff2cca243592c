//! Supervised batch execution: retry with backoff, escalating recovery,
//! quarantine, and a structured failure taxonomy.
//!
//! The batch engine (`crate::batch`) gives throughput; this module gives
//! it *survivability*. Items that panic, time out, diverge, or carry
//! non-finite inputs no longer take the batch down — they are retried up
//! to [`SupervisorConfig::max_retries`] times (with exponential backoff
//! and an escalating recovery configuration reusing the PR 1 ladder) and
//! then quarantined with a classified [`FailureReport`] while every
//! healthy item completes.
//!
//! # Determinism contract (DESIGN.md §13)
//!
//! A clean first attempt — no panic, no timeout, no divergence — performs
//! exactly the work of the unsupervised path: supervision acts only
//! *between* attempts, never inside the floating-point loop, so a run
//! with retries disabled is bitwise equal to today's sequential output.
//! Retries after a *panic* rerun the same configuration (the solve is
//! deterministic, so its result keeps the clean-run bits); only
//! divergence/timeout retries escalate the configuration, and those items
//! had no clean-run result to preserve.
//!
//! # Chaos injection
//!
//! With `PARMA_CHAOS=1` in the environment, first attempts panic at
//! pseudo-random items (seed from `PARMA_CHAOS_SEED` or drawn once and
//! printed to stderr for reproduction). Because panic retries reuse the
//! base configuration, a chaos run's *results* stay bitwise identical to
//! a calm run — only the retry counters differ. CI's chaos job leans on
//! this.

use crate::config::ParmaConfig;
use crate::error::ParmaError;
use mea_obs::events::EventKind;
use mea_obs::hist::Hist;
use mea_obs::json;
use mea_parallel::CancelToken;
use std::time::Duration;

/// Attempts each item needed until its fate was decided (success or
/// quarantine).
static ITEM_ATTEMPTS: Hist = Hist::new("parma.item_attempts");

/// How many of the item's flight-recorder events a quarantine report
/// embeds.
const EMBED_EVENTS: usize = 16;

/// Retry/deadline policy for one supervised batch run.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Extra attempts per item after the first (0 disables retries).
    pub max_retries: usize,
    /// Per-item time budget, enforced at solver iteration boundaries.
    pub solve_deadline: Option<Duration>,
    /// Whole-batch time budget; items still pending when it fires are
    /// quarantined as timeouts.
    pub batch_deadline: Option<Duration>,
    /// Base backoff before retry round `k` (scaled by `2^(k-1)`).
    pub backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            solve_deadline: None,
            batch_deadline: None,
            backoff: Duration::from_millis(25),
        }
    }
}

/// The failure taxonomy of supervised execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The item's job panicked (caught by the pool; the batch survived).
    Panic,
    /// A solve or batch deadline fired.
    Timeout,
    /// The run was cancelled.
    Cancelled,
    /// The solver exhausted its budget without converging.
    Divergence,
    /// The input carried non-finite or non-physical values.
    NonFiniteInput,
    /// The numeric substrate failed (factorization breakdown etc.).
    Internal,
}

impl FailureKind {
    /// The stable machine-readable label (the JSON schema's `kind`).
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Cancelled => "cancelled",
            FailureKind::Divergence => "divergence",
            FailureKind::NonFiniteInput => "non_finite_input",
            FailureKind::Internal => "internal",
        }
    }

    /// Whether a retry can plausibly help. Bad inputs stay bad and a
    /// cancelled batch stays cancelled; everything else gets its retries.
    pub fn retryable(self) -> bool {
        !matches!(self, FailureKind::NonFiniteInput | FailureKind::Cancelled)
    }
}

/// One failed attempt at one item.
#[derive(Clone, Debug)]
pub struct AttemptFailure {
    /// 0-based attempt number.
    pub attempt: usize,
    /// Classified failure.
    pub kind: FailureKind,
    /// Human-readable detail (error display or panic message).
    pub detail: String,
}

/// The quarantine record of one item that exhausted its retries.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Batch index of the item.
    pub item: usize,
    /// The *final* attempt's classification (what quarantined it).
    pub kind: FailureKind,
    /// The final attempt's detail.
    pub detail: String,
    /// Every failed attempt, in order (the last one equals
    /// `kind`/`detail`).
    pub attempts: Vec<AttemptFailure>,
    /// The item's last flight-recorder events at quarantine time (its own
    /// solve/retry history, not other workers'), oldest first. Empty when
    /// telemetry was off.
    pub events: Vec<mea_obs::events::Event>,
}

impl FailureReport {
    /// Serializes to the stable `parma-failure/v1` JSON schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let mut obj = json::Object::begin(&mut out);
        obj.field_str("schema", "parma-failure/v1");
        obj.field_u64("item", self.item as u64);
        obj.field_str("kind", self.kind.label());
        obj.field_str("detail", &self.detail);
        let mut attempts = String::from("[");
        for (k, a) in self.attempts.iter().enumerate() {
            if k > 0 {
                attempts.push(',');
            }
            let mut rec = json::Object::begin(&mut attempts);
            rec.field_u64("attempt", a.attempt as u64);
            rec.field_str("kind", a.kind.label());
            rec.field_str("detail", &a.detail);
            rec.end();
        }
        attempts.push(']');
        obj.field_raw("attempts", &attempts);
        // Build provenance and flight-recorder context ride at the tail so
        // the schema's pinned key-order prefix stays untouched.
        obj.field_str("version", env!("CARGO_PKG_VERSION"));
        obj.field_raw("events", &mea_obs::events::events_json_array(&self.events));
        obj.end();
        out
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {} quarantined as {} after {} attempt(s): {}",
            self.item,
            self.kind.label(),
            self.attempts.len(),
            self.detail
        )
    }
}

/// Classifies a solver error into the supervision taxonomy.
pub fn classify(err: &ParmaError) -> FailureKind {
    match err {
        ParmaError::Timeout { .. } => FailureKind::Timeout,
        ParmaError::Cancelled { .. } => FailureKind::Cancelled,
        ParmaError::NoConvergence { .. } => FailureKind::Divergence,
        ParmaError::InvalidMeasurement(_) | ParmaError::InvalidConfig(_) => {
            FailureKind::NonFiniteInput
        }
        ParmaError::Dataset(_) => FailureKind::NonFiniteInput,
        ParmaError::Linalg(_) => FailureKind::Internal,
    }
}

/// The escalating recovery configuration for retry level `escalation`
/// (0 = the base config untouched — the bitwise-clean first attempt).
/// Each level turns the PR 1 recovery ladder on, doubles the iteration
/// budget and halves the damping: slower, but with the full ladder armed.
pub fn escalated(base: &ParmaConfig, escalation: usize) -> ParmaConfig {
    if escalation == 0 {
        return *base;
    }
    let shift = escalation.min(4) as u32;
    ParmaConfig {
        recovery: true,
        // Doubling per level, from a floor of 50: a pathologically tight
        // base budget (max_iter = 1) must still reach a workable budget
        // within the escalation cap.
        max_iter: base.max_iter.max(50).saturating_mul(1usize << shift),
        // Halve damping at most twice: deeper cuts slow convergence more
        // than they stabilize it (the armed ladder handles the rest).
        damping: base.damping * 0.5f64.powi(shift.min(2) as i32),
        ..*base
    }
}

/// Chaos injection: with `PARMA_CHAOS=1`, pseudo-randomly selects first
/// attempts to panic. The seed comes from `PARMA_CHAOS_SEED` when set,
/// otherwise it is drawn once per process and printed to stderr so a CI
/// failure reproduces locally.
pub mod chaos {
    use std::sync::OnceLock;

    fn seed() -> Option<u64> {
        static SEED: OnceLock<Option<u64>> = OnceLock::new();
        *SEED.get_or_init(|| {
            if std::env::var("PARMA_CHAOS").map(|v| v == "1") != Ok(true) {
                return None;
            }
            let seed = match std::env::var("PARMA_CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
            {
                Some(s) => s,
                None => {
                    // One arbitrary draw per process: hash a fresh
                    // RandomState (std's per-process entropy) — no external
                    // RNG crate needed.
                    use std::hash::{BuildHasher, Hasher};
                    let h = std::collections::hash_map::RandomState::new().build_hasher();
                    h.finish()
                }
            };
            eprintln!("PARMA_CHAOS active: seed {seed} (set PARMA_CHAOS_SEED={seed} to reproduce)");
            Some(seed)
        })
    }

    /// Whether chaos is armed for this process.
    pub fn active() -> bool {
        seed().is_some()
    }

    /// Decides (deterministically per seed) whether first-attempt `item`
    /// should be sabotaged; roughly a quarter of items are hit.
    pub fn should_panic(item: usize) -> bool {
        let Some(seed) = seed() else {
            return false;
        };
        // SplitMix64 over seed ⊕ item: cheap, seed-stable, well mixed.
        let mut x = seed ^ (item as u64).wrapping_mul(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        x & 3 == 0
    }

    /// Panics iff chaos selects this first attempt. Call at the top of an
    /// attempt-0 job; retries (attempt > 0) must not call this, so a
    /// sabotaged item's retry succeeds with the base configuration and the
    /// run's results keep their calm-run bits.
    pub fn maybe_panic(item: usize, attempt: usize) {
        if attempt == 0 && should_panic(item) {
            panic!("chaos injection: item {item}");
        }
    }
}

/// Drives pending items through attempt rounds: run every pending item in
/// the pool, classify failures, retry the retryable ones (with backoff)
/// until `max_retries` is exhausted, quarantine the rest.
///
/// Item `k` is known to the outside world as `ids[k]`: chaos draws,
/// flight-recorder events and [`FailureReport::item`] use the id.
/// `attempt_fn(k, escalation, token)` performs one attempt; `escalation`
/// counts prior divergence/timeout failures of that item (panic retries
/// keep it at 0 so their bits match a clean run). `on_done(k, outcome)`
/// fires exactly once per item — success or quarantine — as soon as its
/// fate is decided, which is what lets the CLI journal (and fsync)
/// incrementally.
#[allow(clippy::type_complexity)]
pub(crate) fn supervise<T: Send>(
    pool: &mea_parallel::WorkStealingPool,
    ids: &[usize],
    sup: &SupervisorConfig,
    attempt_fn: &(dyn Fn(usize, usize, &CancelToken) -> Result<T, ParmaError> + Sync),
    on_done: &(dyn Fn(usize, &Result<T, FailureReport>) + Sync),
) -> Vec<Result<T, FailureReport>> {
    let n = ids.len();
    let batch_token = match sup.batch_deadline {
        Some(budget) => CancelToken::with_deadline(budget),
        None => CancelToken::unbounded(),
    };
    let mut out: Vec<Option<Result<T, FailureReport>>> = (0..n).map(|_| None).collect();
    // (item, escalation level) still in flight.
    let mut pending: Vec<(usize, usize)> = (0..n).map(|i| (i, 0)).collect();
    let mut attempt_log: Vec<Vec<AttemptFailure>> = vec![Vec::new(); n];
    for attempt in 0..=sup.max_retries {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            // Incremental so a live scrape sees retries as they happen.
            mea_obs::counter_add("parma.batch.retries", pending.len() as u64);
            let backoff = sup
                .backoff
                .saturating_mul(1u32 << (attempt as u32 - 1).min(16));
            if !backoff.is_zero() && batch_token.check().is_none() {
                mea_obs::events::emit(
                    EventKind::Backoff,
                    attempt as u64,
                    backoff.min(Duration::from_secs(5)).as_secs_f64() * 1e3,
                );
                std::thread::sleep(backoff.min(Duration::from_secs(5)));
            }
        }
        let round = std::mem::take(&mut pending);
        let outcome = pool.run(round.len(), |k| {
            let (item, escalation) = round[k];
            let _item_scope = mea_obs::events::item_scope(ids[item] as u64);
            chaos::maybe_panic(ids[item], attempt);
            attempt_fn(item, escalation, &batch_token.child(sup.solve_deadline))
        });
        let mut panics = outcome.panics.into_iter().peekable();
        for (k, slot) in outcome.results.into_iter().enumerate() {
            let (item, escalation) = round[k];
            let id = ids[item] as u64;
            let failure: (FailureKind, String) = match slot {
                Some(Ok(value)) => {
                    ITEM_ATTEMPTS.record((attempt_log[item].len() + 1) as f64);
                    let done = Ok(value);
                    on_done(item, &done);
                    out[item] = Some(done);
                    continue;
                }
                Some(Err(err)) => (classify(&err), err.to_string()),
                None => {
                    let p = panics
                        .next_if(|p| p.index == k)
                        .expect("a poisoned slot has its panic record");
                    mea_obs::events::emit_for(EventKind::Panic, id, attempt as u64, 0.0);
                    (FailureKind::Panic, p.message)
                }
            };
            let (kind, detail) = failure;
            attempt_log[item].push(AttemptFailure {
                attempt,
                kind,
                detail: detail.clone(),
            });
            if kind.retryable() && attempt < sup.max_retries {
                // Panics retry at the same escalation (deterministic rerun
                // keeps clean bits); divergence/timeout escalate.
                let next = if kind == FailureKind::Panic {
                    escalation
                } else {
                    escalation + 1
                };
                mea_obs::events::emit_for(EventKind::Retry, id, attempt as u64 + 1, 0.0);
                pending.push((item, next));
            } else {
                let attempts = std::mem::take(&mut attempt_log[item]);
                ITEM_ATTEMPTS.record(attempts.len() as f64);
                mea_obs::counter_add("parma.batch.quarantined", 1);
                mea_obs::events::emit_for(EventKind::Quarantine, id, attempts.len() as u64, 0.0);
                let report = FailureReport {
                    item: ids[item],
                    kind,
                    detail,
                    attempts,
                    events: mea_obs::events::recent_events_for_item(id, EMBED_EVENTS),
                };
                let done = Err(report);
                on_done(item, &done);
                out[item] = Some(done);
            }
        }
    }
    out.into_iter()
        .map(|r| r.expect("every item was decided: success, quarantine, or last-round fallthrough"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_parallel::WorkStealingPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn no_op<T>(_: usize, _: &Result<T, FailureReport>) {}

    #[test]
    fn clean_items_pass_through_untouched() {
        let pool = WorkStealingPool::new(2);
        let out = supervise(
            &pool,
            &[0, 1, 2, 3, 4],
            &SupervisorConfig::default(),
            &|item, esc, _token| {
                assert_eq!(esc, 0, "clean items never escalate");
                Ok(item * 2)
            },
            &no_op,
        );
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn divergence_escalates_then_quarantines() {
        let pool = WorkStealingPool::new(2);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let sup = SupervisorConfig {
            max_retries: 2,
            backoff: Duration::ZERO,
            ..Default::default()
        };
        let out: Vec<Result<usize, FailureReport>> = supervise(
            &pool,
            &[0],
            &sup,
            &|_item, esc, _token| -> Result<usize, ParmaError> {
                seen.lock().unwrap().push(esc);
                Err(ParmaError::NoConvergence {
                    iterations: 1,
                    residual: 1.0,
                    partial: mea_model::CrossingMatrix::filled(mea_model::MeaGrid::square(2), 1.0),
                })
            },
            &no_op,
        );
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2], "escalation ladder");
        let report = out[0].as_ref().unwrap_err();
        assert_eq!(report.kind, FailureKind::Divergence);
        assert_eq!(report.attempts.len(), 3);
        assert_eq!(report.attempts[0].attempt, 0);
        assert_eq!(report.attempts[2].attempt, 2);
    }

    #[test]
    fn panics_are_retried_without_escalation() {
        let pool = WorkStealingPool::new(2);
        let calls = AtomicUsize::new(0);
        let sup = SupervisorConfig {
            max_retries: 1,
            backoff: Duration::ZERO,
            ..Default::default()
        };
        let out = supervise(
            &pool,
            &[0],
            &sup,
            &|item, esc, _token| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt sabotaged");
                }
                assert_eq!(esc, 0, "panic retries keep the base config");
                Ok(item + 100)
            },
            &no_op,
        );
        assert_eq!(*out[0].as_ref().unwrap(), 100);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn non_finite_input_is_not_retried() {
        let pool = WorkStealingPool::new(2);
        let calls = AtomicUsize::new(0);
        let out: Vec<Result<(), FailureReport>> = supervise(
            &pool,
            &[0],
            &SupervisorConfig {
                max_retries: 5,
                backoff: Duration::ZERO,
                ..Default::default()
            },
            &|_, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(ParmaError::InvalidMeasurement("NaN in row 3".into()))
            },
            &no_op,
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "bad input: one attempt");
        let report = out[0].as_ref().unwrap_err();
        assert_eq!(report.kind, FailureKind::NonFiniteInput);
        assert_eq!(report.attempts.len(), 1);
    }

    #[test]
    fn on_done_fires_exactly_once_per_item() {
        let pool = WorkStealingPool::new(3);
        let fired: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        let _ = supervise(
            &pool,
            &[0, 1, 2, 3, 4, 5],
            &SupervisorConfig {
                max_retries: 1,
                backoff: Duration::ZERO,
                ..Default::default()
            },
            &|item, _, _| {
                if item % 2 == 0 {
                    Ok(item)
                } else {
                    Err(ParmaError::InvalidMeasurement("bad".into()))
                }
            },
            &|item, result| fired.lock().unwrap().push((item, result.is_ok())),
        );
        let mut log = fired.into_inner().unwrap();
        log.sort();
        assert_eq!(
            log,
            vec![
                (0, true),
                (1, false),
                (2, true),
                (3, false),
                (4, true),
                (5, false)
            ]
        );
    }

    #[test]
    fn batch_deadline_quarantines_stragglers_as_timeouts() {
        let pool = WorkStealingPool::new(2);
        let sup = SupervisorConfig {
            max_retries: 0,
            batch_deadline: Some(Duration::ZERO),
            backoff: Duration::ZERO,
            ..Default::default()
        };
        let out: Vec<Result<usize, FailureReport>> = supervise(
            &pool,
            &[0, 1, 2],
            &sup,
            &|item, _, token| match token.check() {
                Some(mea_parallel::Interrupt::TimedOut) => Err(ParmaError::Timeout {
                    iterations: 0,
                    partial: None,
                }),
                Some(mea_parallel::Interrupt::Cancelled) => {
                    Err(ParmaError::Cancelled { iterations: 0 })
                }
                None => Ok(item),
            },
            &no_op,
        );
        for r in &out {
            assert_eq!(r.as_ref().unwrap_err().kind, FailureKind::Timeout);
        }
    }

    #[test]
    fn failure_report_json_schema() {
        let report = FailureReport {
            item: 7,
            kind: FailureKind::Timeout,
            detail: "solve deadline exceeded after 12 iterations".into(),
            attempts: vec![
                AttemptFailure {
                    attempt: 0,
                    kind: FailureKind::Panic,
                    detail: "chaos injection: item 7".into(),
                },
                AttemptFailure {
                    attempt: 1,
                    kind: FailureKind::Timeout,
                    detail: "solve deadline exceeded after 12 iterations".into(),
                },
            ],
            events: vec![mea_obs::events::Event {
                seq: 41,
                t_us: 12500,
                kind: EventKind::SolveFailed,
                item: 7,
                info: 1,
                value: 0.5,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"parma-failure/v1\""), "{json}");
        assert!(json.contains("\"item\":7"), "{json}");
        assert!(json.contains("\"kind\":\"timeout\""), "{json}");
        assert!(json.contains("\"attempts\":[{"), "{json}");
        assert!(json.contains("\"kind\":\"panic\""), "{json}");
        assert!(
            json.contains(concat!("\"version\":\"", env!("CARGO_PKG_VERSION"), "\"")),
            "{json}"
        );
        assert!(
            json.contains("\"events\":[{\"seq\":41,\"t_us\":12500,\"kind\":\"solve_failed\",\"item\":7,\"info\":1,\"value\":0.5}]"),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn escalation_arms_recovery_and_widens_budget() {
        let base = ParmaConfig {
            recovery: false,
            max_iter: 100,
            damping: 1.0,
            ..Default::default()
        };
        assert_eq!(escalated(&base, 0).max_iter, 100);
        assert!(!escalated(&base, 0).recovery);
        let one = escalated(&base, 1);
        assert!(one.recovery);
        assert_eq!(one.max_iter, 200);
        assert!((one.damping - 0.5).abs() < 1e-12);
        let deep = escalated(&base, 10);
        assert_eq!(deep.max_iter, 1600, "escalation is capped");
    }

    #[test]
    fn classification_covers_the_taxonomy() {
        assert_eq!(
            classify(&ParmaError::Timeout {
                iterations: 1,
                partial: None
            }),
            FailureKind::Timeout
        );
        assert_eq!(
            classify(&ParmaError::Cancelled { iterations: 1 }),
            FailureKind::Cancelled
        );
        assert_eq!(
            classify(&ParmaError::InvalidMeasurement("x".into())),
            FailureKind::NonFiniteInput
        );
        assert!(!FailureKind::NonFiniteInput.retryable());
        assert!(!FailureKind::Cancelled.retryable());
        assert!(FailureKind::Panic.retryable());
        assert!(FailureKind::Divergence.retryable());
        for kind in [
            FailureKind::Panic,
            FailureKind::Timeout,
            FailureKind::Cancelled,
            FailureKind::Divergence,
            FailureKind::NonFiniteInput,
            FailureKind::Internal,
        ] {
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn chaos_is_off_without_the_env_gate() {
        // The test harness never sets PARMA_CHAOS in this process, so the
        // injector must be inert.
        if std::env::var("PARMA_CHAOS").map(|v| v == "1") == Ok(true) {
            return; // chaos CI job: skip the inertness check
        }
        assert!(!chaos::active());
        for item in 0..64 {
            assert!(!chaos::should_panic(item));
            chaos::maybe_panic(item, 0);
        }
    }
}
