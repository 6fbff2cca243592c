//! A work-stealing scheduler built on std primitives only.
//!
//! This is the crate's own fine-grained engine (the PyMP-k role): a fixed
//! set of workers, a global injector seeded with index *ranges* (chunks),
//! per-worker LIFO deques and round-robin victim stealing. Because the
//! task set is closed (tasks never spawn tasks), termination is a simple
//! completed-items counter.
//!
//! Mutex-guarded `VecDeque`s stand in for lock-free deques; chunking keeps
//! queue traffic far off the hot path (one lock round-trip per chunk, not
//! per item), so the scheduler stays competitive while the workspace stays
//! dependency-free.
//!
//! # Panic isolation
//!
//! Every job runs under `catch_unwind`: a panicking job poisons only its
//! own result slot, never the worker, the pool, or the other jobs. Results
//! are written into pre-allocated slots through a `Sync` unsafe cell, and
//! each slot carries an atomic written flag — `Slots::into_options` reads
//! a slot only when its flag is set, so a poisoned (never-written) slot
//! yields `None` instead of uninitialized memory. [`WorkStealingPool::run`]
//! surfaces the per-slot outcomes plus a [`JobPanic`] record per poisoned
//! slot; [`WorkStealingPool::map_indexed`] keeps the infallible signature
//! and re-raises an aggregate panic when any job failed.
//!
//! Every run also records [`PoolStats`] — per-worker busy time, item,
//! steal and panic counts, and the chunk layout — which the observability
//! layer (`mea-obs`, wired in by `parma`) surfaces in machine-readable
//! traces.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Write-once result slots shared across workers, with per-slot completion
/// tracking.
///
/// # Safety contract
/// Each index is *written* at most once, by the single worker that claimed
/// it from the scheduler. A slot whose job panicked is simply never
/// written: its flag stays `false` and it is **poisoned**, not
/// uninitialized-but-readable. Reading back through [`Self::into_options`]
/// consults the flags, so the read side is safe by construction — there is
/// no code path that `assume_init`s an unwritten slot.
pub(crate) struct Slots<T> {
    data: Vec<UnsafeCell<MaybeUninit<T>>>,
    written: Vec<AtomicBool>,
}

// SAFETY: concurrent access is to *disjoint* indices (exactly-once
// dispatch), so sharing the container across threads is sound for any
// Send payload.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    pub(crate) fn new(n: usize) -> Self {
        Slots {
            data: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            written: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// # Safety
    /// `i` must be claimed exactly once across all workers.
    pub(crate) unsafe fn write(&self, i: usize, value: T) {
        (*self.data[i].get()).write(value);
        // Release pairs with the exclusive &mut access in `into_options`
        // (established by thread join) and marks the slot readable.
        self.written[i].store(true, Ordering::Release);
    }

    /// Moves every *written* slot out; poisoned slots come back as `None`.
    /// Safe for any flag state — requires only that all workers have
    /// stopped touching the slots (guaranteed by `thread::scope` join
    /// before the pool calls this).
    pub(crate) fn into_options(mut self) -> Vec<Option<T>> {
        let data = std::mem::take(&mut self.data);
        let written = std::mem::take(&mut self.written);
        data.into_iter()
            .zip(written)
            .map(|(cell, flag)| {
                if flag.into_inner() {
                    // SAFETY: the flag was set by the unique writer *after*
                    // initializing the cell, and all writers have joined.
                    Some(unsafe { cell.into_inner().assume_init() })
                } else {
                    None
                }
            })
            .collect()
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        // Normally empty (into_options took the vectors); on an abandoned
        // container, drop exactly the initialized slots.
        for (cell, flag) in self.data.iter_mut().zip(self.written.iter_mut()) {
            if *flag.get_mut() {
                // SAFETY: the flag marks this slot initialized and we hold
                // exclusive access.
                unsafe { cell.get_mut().assume_init_drop() };
            }
        }
    }
}

/// One job that panicked during a pool run.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// The index the job was computing.
    pub index: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub message: String,
}

/// Aggregate failure of a pool run: at least one job panicked.
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Every panicking job, in index order.
    pub panics: Vec<JobPanic>,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self
            .panics
            .first()
            .map(|p| format!(" (first: index {}: {})", p.index, p.message))
            .unwrap_or_default();
        write!(f, "{} job(s) panicked{first}", self.panics.len())
    }
}

impl std::error::Error for JobFailure {}

/// Outcome of one [`WorkStealingPool::run`]: per-index results with
/// poisoned slots explicit, plus the panic records.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// `results[i]` is `Some` iff job `i` completed; `None` means its job
    /// panicked (a matching entry exists in [`Self::panics`]).
    pub results: Vec<Option<T>>,
    /// Every panicking job, in index order.
    pub panics: Vec<JobPanic>,
}

impl<T> RunOutcome<T> {
    /// All-or-nothing view: the full result vector, or the failure record.
    pub fn into_result(self) -> Result<Vec<T>, JobFailure> {
        if self.panics.is_empty() {
            Ok(self
                .results
                .into_iter()
                .map(|r| r.expect("no panics recorded, so every slot was written"))
                .collect())
        } else {
            Err(JobFailure {
                panics: self.panics,
            })
        }
    }
}

/// Stringifies a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker activity of one scheduler run.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Wall time the worker spent inside the run (spawn to exit).
    pub busy: Duration,
    /// Items this worker executed (including ones that panicked).
    pub items: usize,
    /// Chunks this worker obtained by raiding a peer's deque.
    pub steals: usize,
    /// Items whose job panicked on this worker.
    pub panics: usize,
}

/// Scheduler-level telemetry of one `map_indexed`/`run` call.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// One entry per worker.
    pub workers: Vec<WorkerStats>,
    /// Number of chunks the index space was split into.
    pub chunks: usize,
    /// Items per chunk (the last chunk may be smaller).
    pub chunk_size: usize,
    /// Total items mapped.
    pub items: usize,
    /// Items whose job panicked (their slots are poisoned).
    pub panics: usize,
}

impl PoolStats {
    /// Total successful steals across workers.
    pub fn total_steals(&self) -> usize {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

/// A fixed-width work-stealing pool for index-space maps.
pub struct WorkStealingPool {
    threads: usize,
    last_busy: Mutex<Vec<Duration>>,
    last_stats: Mutex<PoolStats>,
}

impl WorkStealingPool {
    /// A pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        WorkStealingPool {
            threads: threads.max(1),
            last_busy: Mutex::new(Vec::new()),
            last_stats: Mutex::new(PoolStats::default()),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Per-worker busy durations of the most recent run.
    pub fn last_busy_times(&self) -> Vec<Duration> {
        self.last_busy.lock().expect("pool mutex poisoned").clone()
    }

    /// Full scheduler telemetry of the most recent run.
    pub fn last_stats(&self) -> PoolStats {
        self.last_stats.lock().expect("pool mutex poisoned").clone()
    }

    /// Computes `f(i)` for every `i in 0..n` with dynamic load balancing;
    /// results are returned in index order.
    ///
    /// Infallible signature for closed workloads: if any job panics, the
    /// panic is re-raised here as one aggregate panic *after* every other
    /// job has finished — the pool itself never propagates the unwind
    /// through a worker, so no slot is ever read uninitialized. Callers
    /// that want panics as data use [`Self::run`].
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, f)
            .into_result()
            .unwrap_or_else(|failure| panic!("work-stealing pool: {failure}"))
    }

    /// Like [`Self::map_indexed`], but panic-isolating: every job runs
    /// under `catch_unwind`, poisoned slots come back as `None`, and the
    /// outcome carries one [`JobPanic`] per failed job. The healthy jobs
    /// always complete regardless of how many of their neighbors panic.
    pub fn run<T, F>(&self, n: usize, f: F) -> RunOutcome<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            *self.last_busy.lock().expect("pool mutex poisoned") =
                vec![Duration::ZERO; self.threads];
            *self.last_stats.lock().expect("pool mutex poisoned") = PoolStats {
                workers: vec![WorkerStats::default(); self.threads],
                ..PoolStats::default()
            };
            return RunOutcome {
                results: Vec::new(),
                panics: Vec::new(),
            };
        }
        let slots = Slots::new(n);
        let panics: Mutex<Vec<JobPanic>> = Mutex::new(Vec::new());
        // Chunk the index space: big enough to amortize queue traffic,
        // small enough that stealing can still balance (≥ 8 chunks per
        // worker when possible).
        let chunk = (n / (self.threads * 8)).max(1);
        let mut injector: VecDeque<(usize, usize)> = VecDeque::new();
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            injector.push_back((start, end));
            start = end;
        }
        let chunks = injector.len();
        let injector = Mutex::new(injector);
        let deques: Vec<Mutex<VecDeque<(usize, usize)>>> = (0..self.threads)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let completed = AtomicUsize::new(0);
        let mut stats = vec![WorkerStats::default(); self.threads];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|me| {
                    let injector = &injector;
                    let deques = &deques;
                    let completed = &completed;
                    let slots = &slots;
                    let panics = &panics;
                    let f = &f;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let mut local = WorkerStats::default();
                        loop {
                            let task = pop_local(&deques[me])
                                .or_else(|| refill_from_injector(injector, &deques[me]))
                                .or_else(|| {
                                    steal_from_peers(deques, me).inspect(|_| {
                                        local.steals += 1;
                                        mea_obs::events::emit_for(
                                            mea_obs::events::EventKind::Steal,
                                            mea_obs::events::NO_ITEM,
                                            me as u64,
                                            0.0,
                                        );
                                    })
                                });
                            match task {
                                Some((lo, hi)) => {
                                    for i in lo..hi {
                                        // AssertUnwindSafe: on unwind the
                                        // slot is simply never written
                                        // (stays poisoned) and `f`'s
                                        // captures are only re-observed by
                                        // jobs the caller already expects
                                        // to share state with f.
                                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                                            Ok(value) => {
                                                // SAFETY: index i belongs to
                                                // a chunk claimed exactly
                                                // once from the scheduler.
                                                unsafe { slots.write(i, value) };
                                            }
                                            Err(payload) => {
                                                local.panics += 1;
                                                panics.lock().expect("panic log poisoned").push(
                                                    JobPanic {
                                                        index: i,
                                                        message: panic_message(payload),
                                                    },
                                                );
                                            }
                                        }
                                    }
                                    local.items += hi - lo;
                                    completed.fetch_add(hi - lo, Ordering::Release);
                                }
                                None => {
                                    if completed.load(Ordering::Acquire) >= n {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        local.busy = t0.elapsed();
                        local
                    })
                })
                .collect();
            for (w, h) in handles.into_iter().enumerate() {
                stats[w] = h.join().expect("work-stealing worker panicked");
            }
        });
        debug_assert_eq!(completed.load(Ordering::Acquire), n);
        let mut panics = panics.into_inner().expect("panic log poisoned");
        panics.sort_by_key(|p| p.index);
        *self.last_busy.lock().expect("pool mutex poisoned") =
            stats.iter().map(|s| s.busy).collect();
        *self.last_stats.lock().expect("pool mutex poisoned") = PoolStats {
            workers: stats,
            chunks,
            chunk_size: chunk,
            items: n,
            panics: panics.len(),
        };
        if mea_obs::is_active() {
            let last = self.last_stats.lock().expect("pool mutex poisoned");
            mea_obs::gauge_set("parallel.pool.threads", self.threads as f64);
            mea_obs::gauge_set("parallel.pool.last_items", last.items as f64);
            mea_obs::gauge_set("parallel.pool.last_chunks", last.chunks as f64);
            mea_obs::gauge_set("parallel.pool.last_steals", last.total_steals() as f64);
            mea_obs::counter_add("parallel.pool.runs", 1);
            mea_obs::counter_add("parallel.pool.items", last.items as u64);
            mea_obs::counter_add("parallel.pool.steals", last.total_steals() as u64);
            mea_obs::counter_add("parallel.pool.panics", last.panics as u64);
        }
        // Safe by construction: poisoned slots surface as None.
        RunOutcome {
            results: slots.into_options(),
            panics,
        }
    }
}

/// LIFO pop from the worker's own deque (depth-first on its own work).
fn pop_local(deque: &Mutex<VecDeque<(usize, usize)>>) -> Option<(usize, usize)> {
    deque.lock().expect("worker deque poisoned").pop_back()
}

/// Moves a batch of chunks from the injector into the local deque and
/// returns the first.
fn refill_from_injector(
    injector: &Mutex<VecDeque<(usize, usize)>>,
    local: &Mutex<VecDeque<(usize, usize)>>,
) -> Option<(usize, usize)> {
    let mut inj = injector.lock().expect("injector poisoned");
    let first = inj.pop_front()?;
    // Take up to three more in one lock round-trip; the batch keeps the
    // injector from becoming a convoy under many workers.
    let extra: Vec<_> = (0..3).filter_map(|_| inj.pop_front()).collect();
    drop(inj);
    if !extra.is_empty() {
        local.lock().expect("worker deque poisoned").extend(extra);
    }
    Some(first)
}

/// FIFO-steals one chunk from the first non-empty peer after `me`.
fn steal_from_peers(
    deques: &[Mutex<VecDeque<(usize, usize)>>],
    me: usize,
) -> Option<(usize, usize)> {
    let k = deques.len();
    for off in 1..k {
        let victim = (me + off) % k;
        if let Some(task) = deques[victim]
            .lock()
            .expect("worker deque poisoned")
            .pop_front()
        {
            return Some(task);
        }
    }
    None
}

/// Dynamic self-scheduling map over `0..n` on `threads` workers: each
/// worker claims the next chunk from a shared atomic cursor (the classic
/// PyMP/OpenMP `schedule(dynamic)` loop). Returns results in index order
/// plus per-worker activity. Jobs run under the same `catch_unwind`
/// isolation as the work-stealing engine (no slot is ever read
/// uninitialized); a job panic is re-raised as one aggregate panic after
/// the sweep drains.
pub(crate) fn self_scheduling_map<T, F>(
    threads: usize,
    n: usize,
    f: F,
) -> (Vec<T>, Vec<WorkerStats>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    if n == 0 {
        return (Vec::new(), vec![WorkerStats::default(); threads]);
    }
    let chunk = (n / (threads * 8)).max(1);
    let slots = Slots::new(n);
    let panics: Mutex<Vec<JobPanic>> = Mutex::new(Vec::new());
    let cursor = AtomicUsize::new(0);
    let mut stats = vec![WorkerStats::default(); threads];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let slots = &slots;
                let panics = &panics;
                let f = &f;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let mut local = WorkerStats::default();
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        for i in lo..hi {
                            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                                Ok(value) => {
                                    // SAFETY: the atomic cursor hands out
                                    // each index exactly once.
                                    unsafe { slots.write(i, value) };
                                }
                                Err(payload) => {
                                    local.panics += 1;
                                    panics.lock().expect("panic log poisoned").push(JobPanic {
                                        index: i,
                                        message: panic_message(payload),
                                    });
                                }
                            }
                        }
                        local.items += hi - lo;
                    }
                    local.busy = t0.elapsed();
                    local
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            stats[w] = h.join().expect("self-scheduling worker panicked");
        }
    });
    let mut panics = panics.into_inner().expect("panic log poisoned");
    if !panics.is_empty() {
        panics.sort_by_key(|p| p.index);
        let failure = JobFailure { panics };
        panic!("self-scheduling map: {failure}");
    }
    let out = slots
        .into_options()
        .into_iter()
        .map(|v| v.expect("no panics recorded, so every slot was written"))
        .collect();
    (out, stats)
}

/// The pool as a `mea-linalg` intra-solve executor: the structured
/// factorization stages hand their fixed row-chunk partitions here. The
/// kernels' partition is thread-count-independent and their outputs are
/// disjoint, so stealing order cannot change bits — only wall time.
impl mea_linalg::Parallelism for WorkStealingPool {
    fn threads(&self) -> usize {
        self.threads
    }

    fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.threads == 1 {
            for t in 0..tasks {
                f(t);
            }
            return;
        }
        let _: Vec<()> = self.map_indexed(tasks, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Silences the default panic-hook stderr spam for tests that inject
    /// panics on purpose; restores the previous hook on drop. Tests using
    /// it serialize on a lock so a concurrent test's real panic message is
    /// never swallowed.
    struct QuietPanics(Option<std::sync::MutexGuard<'static, ()>>);

    impl QuietPanics {
        fn new() -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            std::panic::set_hook(Box::new(|_| {}));
            QuietPanics(Some(guard))
        }
    }

    impl Drop for QuietPanics {
        fn drop(&mut self) {
            let _ = std::panic::take_hook();
            self.0.take();
        }
    }

    #[test]
    fn maps_in_index_order() {
        let pool = WorkStealingPool::new(4);
        let out = pool.map_indexed(1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkStealingPool::new(3);
        let hits: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
        let _ = pool.map_indexed(512, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn empty_and_tiny_workloads() {
        let pool = WorkStealingPool::new(8);
        let empty: Vec<usize> = pool.map_indexed(0, |i| i);
        assert!(empty.is_empty());
        let one = pool.map_indexed(1, |i| i + 41);
        assert_eq!(one, vec![41]);
        assert_eq!(pool.last_busy_times().len(), 8);
    }

    #[test]
    fn more_threads_than_items() {
        let pool = WorkStealingPool::new(16);
        let out = pool.map_indexed(5, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unbalanced_items_all_complete() {
        // Skewed costs: item 0 is 1000× heavier; stealing must still finish
        // everything.
        let pool = WorkStealingPool::new(2);
        let out = pool.map_indexed(64, |i| {
            let reps = if i == 0 { 100_000 } else { 100 };
            let mut acc = 0u64;
            for k in 0..reps {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn zero_thread_request_becomes_one() {
        let pool = WorkStealingPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool.map_indexed(10, |i| i);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn non_copy_payloads_survive() {
        let pool = WorkStealingPool::new(4);
        let out = pool.map_indexed(100, |i| format!("value-{i}"));
        assert_eq!(out[99], "value-99");
        assert_eq!(out[0], "value-0");
    }

    #[test]
    fn busy_times_reported_per_worker() {
        let pool = WorkStealingPool::new(3);
        let _ = pool.map_indexed(300, |i| {
            std::hint::black_box((0..200).fold(i as u64, |a, b| a.wrapping_add(b)))
        });
        let busy = pool.last_busy_times();
        assert_eq!(busy.len(), 3);
    }

    #[test]
    fn stats_account_for_every_item() {
        let pool = WorkStealingPool::new(4);
        let _ = pool.map_indexed(777, |i| i);
        let stats = pool.last_stats();
        assert_eq!(stats.items, 777);
        assert_eq!(stats.workers.len(), 4);
        assert_eq!(stats.panics, 0);
        let executed: usize = stats.workers.iter().map(|w| w.items).sum();
        assert_eq!(
            executed, 777,
            "per-worker item counts must sum to the total"
        );
        assert!(stats.chunks >= 1 && stats.chunk_size >= 1);
        assert!(stats.chunks >= stats.items / stats.chunk_size);
    }

    #[test]
    fn empty_run_resets_stats() {
        let pool = WorkStealingPool::new(2);
        let _ = pool.map_indexed(100, |i| i);
        let _: Vec<usize> = pool.map_indexed(0, |i| i);
        let stats = pool.last_stats();
        assert_eq!(stats.items, 0);
        assert_eq!(stats.workers.len(), 2);
    }

    #[test]
    fn self_scheduling_maps_in_order() {
        let (out, stats) = self_scheduling_map(3, 500, |i| i * 2);
        assert_eq!(out.len(), 500);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.items).sum::<usize>(), 500);
    }

    #[test]
    fn self_scheduling_handles_empty_and_single() {
        let (out, stats) = self_scheduling_map(4, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.len(), 4);
        let (one, _) = self_scheduling_map(4, 1, |i| i + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn panic_at_every_position_poisons_exactly_that_slot() {
        // The acceptance-criterion test: inject a panic at every possible
        // chunk position in turn; the poisoned slot must come back None,
        // every other slot Some, and the panic must be recorded — never an
        // uninitialized read, never a lost healthy result.
        let _quiet = QuietPanics::new();
        let n = 24;
        for threads in [1usize, 3] {
            let pool = WorkStealingPool::new(threads);
            for bad in 0..n {
                let outcome = pool.run(n, |i| {
                    if i == bad {
                        panic!("injected at {i}");
                    }
                    i * 10
                });
                assert_eq!(outcome.results.len(), n);
                for (i, r) in outcome.results.iter().enumerate() {
                    if i == bad {
                        assert!(r.is_none(), "slot {i} must be poisoned");
                    } else {
                        assert_eq!(*r, Some(i * 10), "slot {i} must survive");
                    }
                }
                assert_eq!(outcome.panics.len(), 1);
                assert_eq!(outcome.panics[0].index, bad);
                assert!(outcome.panics[0].message.contains("injected"));
                assert_eq!(pool.last_stats().panics, 1);
            }
        }
    }

    #[test]
    fn stress_many_threads_many_chunks_injected_panics() {
        // Std-only loom stand-in: hammer the scheduler across thread
        // counts, sizes and panic densities, with a drop-counting payload
        // proving every written slot is dropped exactly once and no
        // poisoned slot is ever materialized (no double drop, no leak, no
        // uninitialized read).
        let _quiet = QuietPanics::new();
        static LIVE: AtomicUsize = AtomicUsize::new(0);

        struct Counted(usize);
        impl Counted {
            fn new(i: usize) -> Self {
                LIVE.fetch_add(1, Ordering::Relaxed);
                Counted(i)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }

        for threads in [1usize, 2, 4, 8] {
            for n in [1usize, 7, 64, 301] {
                for stride in [2usize, 3, 7] {
                    let pool = WorkStealingPool::new(threads);
                    let outcome = pool.run(n, |i| {
                        let v = Counted::new(i);
                        if i % stride == 0 {
                            // Unwinds with a live local: its drop must run
                            // during the unwind, not leak.
                            panic!("chaos {i}");
                        }
                        v
                    });
                    let expect_poisoned = n.div_ceil(stride);
                    let poisoned = outcome.results.iter().filter(|r| r.is_none()).count();
                    assert_eq!(
                        poisoned, expect_poisoned,
                        "threads {threads}, n {n}, stride {stride}"
                    );
                    assert_eq!(outcome.panics.len(), expect_poisoned);
                    for (k, p) in outcome.panics.iter().enumerate() {
                        assert_eq!(p.index, k * stride, "panics sorted by index");
                    }
                    for (i, r) in outcome.results.iter().enumerate() {
                        match r {
                            Some(c) => assert_eq!(c.0, i),
                            None => assert_eq!(i % stride, 0),
                        }
                    }
                    let stats = pool.last_stats();
                    assert_eq!(stats.panics, expect_poisoned);
                    assert_eq!(
                        stats.workers.iter().map(|w| w.panics).sum::<usize>(),
                        expect_poisoned
                    );
                    drop(outcome);
                    assert_eq!(
                        LIVE.load(Ordering::Relaxed),
                        0,
                        "every payload dropped exactly once"
                    );
                }
            }
        }
    }

    #[test]
    fn map_indexed_reraises_job_panics_in_aggregate() {
        let _quiet = QuietPanics::new();
        let pool = WorkStealingPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(10, |i| {
                if i == 4 {
                    panic!("boom");
                }
                i
            })
        }))
        .expect_err("the aggregate panic must surface");
        let msg = panic_message(err);
        assert!(msg.contains("1 job(s) panicked"), "{msg}");
        assert!(msg.contains("index 4"), "{msg}");
    }

    #[test]
    fn abandoned_slots_drop_only_written_entries() {
        // Dropping Slots without consuming it must free written entries
        // and skip poisoned ones.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::Relaxed);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let slots: Slots<Counted> = Slots::new(4);
        unsafe {
            slots.write(0, Counted::new());
            slots.write(2, Counted::new());
        }
        assert_eq!(LIVE.load(Ordering::Relaxed), 2);
        drop(slots);
        assert_eq!(LIVE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_outcome_into_result_roundtrips() {
        let pool = WorkStealingPool::new(2);
        let ok = pool.run(5, |i| i + 1).into_result().unwrap();
        assert_eq!(ok, vec![1, 2, 3, 4, 5]);
    }
}
