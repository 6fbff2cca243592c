//! The strategy taxonomy and the order-preserving executor.

use crate::balanced::partition_lpt;
use crate::metrics::ExecutionReport;
use crate::pool::{self, PoolStats, WorkStealingPool};
use std::time::{Duration, Instant};

/// Number of §IV-A constraint categories.
pub const CATEGORY_COUNT: usize = 4;

/// One schedulable unit of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Dense identifier; results are returned in `id` order.
    pub id: usize,
    /// Constraint category (0..[`CATEGORY_COUNT`]); only *Parallel* cares.
    pub category: usize,
    /// Relative cost estimate (e.g. expected term count); only *Balanced
    /// Parallel* cares.
    pub cost: u64,
}

/// A parallel execution strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The serialized baseline of ref \[15\].
    SingleThread,
    /// One dedicated thread per constraint category (§IV-A). The paper
    /// notes this cannot use more than four threads and saturates early.
    Parallel4,
    /// Deterministic static balancing over `threads` workers via a
    /// longest-processing-time partition of the cost estimates (§IV-C.1).
    BalancedParallel {
        /// Worker count.
        threads: usize,
    },
    /// Fine-grained dynamic work sharing via a self-scheduling chunk
    /// cursor — the PyMP-k analogue (§IV-C.2).
    FineGrained {
        /// Worker count (the paper's `k`).
        threads: usize,
    },
    /// Fine-grained dynamic scheduling on this crate's own
    /// work-stealing pool.
    WorkStealing {
        /// Worker count.
        threads: usize,
    },
}

impl Strategy {
    /// Human-readable label used by the figure harness (matches the
    /// paper's legend names).
    pub fn label(&self) -> String {
        match self {
            Strategy::SingleThread => "Single-thread".into(),
            Strategy::Parallel4 => "Parallel".into(),
            Strategy::BalancedParallel { threads } => format!("Balanced Parallel ({threads})"),
            Strategy::FineGrained { threads } => format!("PyMP-{threads}"),
            Strategy::WorkStealing { threads } => format!("WorkSteal-{threads}"),
        }
    }

    /// The worker count this strategy will use.
    pub fn threads(&self) -> usize {
        match self {
            Strategy::SingleThread => 1,
            Strategy::Parallel4 => CATEGORY_COUNT,
            Strategy::BalancedParallel { threads }
            | Strategy::FineGrained { threads }
            | Strategy::WorkStealing { threads } => (*threads).max(1),
        }
    }
}

/// Maps `f` over `items` under a strategy; results return in `id` order.
///
/// `f` must be safe to call from multiple threads. Item `id`s must be the
/// dense range `0..items.len()` (checked).
pub fn execute<T, F>(strategy: Strategy, items: &[WorkItem], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&WorkItem) -> T + Sync,
{
    execute_with_report(strategy, items, f).0
}

/// Like [`execute`], also returning wall-clock, per-worker busy time and
/// (for dynamic strategies) full scheduler telemetry.
pub fn execute_with_report<T, F>(
    strategy: Strategy,
    items: &[WorkItem],
    f: F,
) -> (Vec<T>, ExecutionReport)
where
    T: Send,
    F: Fn(&WorkItem) -> T + Sync,
{
    debug_assert!(
        items.iter().enumerate().all(|(i, w)| w.id == i),
        "WorkItem ids must be dense and in order"
    );
    let start = Instant::now();
    let mut scheduler: Option<PoolStats> = None;
    let (results, busy, per_items) = match strategy {
        Strategy::SingleThread => {
            let t0 = Instant::now();
            let out: Vec<T> = items.iter().map(&f).collect();
            (out, vec![t0.elapsed()], vec![items.len()])
        }
        Strategy::Parallel4 => {
            let groups: Vec<Vec<usize>> = (0..CATEGORY_COUNT)
                .map(|c| {
                    items
                        .iter()
                        .filter(|w| w.category % CATEGORY_COUNT == c)
                        .map(|w| w.id)
                        .collect()
                })
                .collect();
            run_partitioned(items, &groups, &f)
        }
        Strategy::BalancedParallel { threads } => {
            let costs: Vec<u64> = items.iter().map(|w| w.cost).collect();
            let groups = partition_lpt(&costs, threads.max(1));
            run_partitioned(items, &groups, &f)
        }
        Strategy::FineGrained { threads } => {
            let (out, workers) =
                pool::self_scheduling_map(threads.max(1), items.len(), |i| f(&items[i]));
            let busy: Vec<Duration> = workers.iter().map(|w| w.busy).collect();
            let per_items: Vec<usize> = workers.iter().map(|w| w.items).collect();
            (out, busy, per_items)
        }
        Strategy::WorkStealing { threads } => {
            let pool = WorkStealingPool::new(threads.max(1));
            let out = pool.map_indexed(items.len(), |i| f(&items[i]));
            let stats = pool.last_stats();
            let busy: Vec<Duration> = stats.workers.iter().map(|w| w.busy).collect();
            let per_items: Vec<usize> = stats.workers.iter().map(|w| w.items).collect();
            scheduler = Some(stats);
            (out, busy, per_items)
        }
    };
    let report = ExecutionReport {
        strategy_label: strategy.label(),
        wall: start.elapsed(),
        per_worker_busy: busy,
        per_worker_items: per_items,
        items: items.len(),
        scheduler,
    };
    record_report(&report);
    (results, report)
}

/// Feeds an execution's telemetry into the process-global observability
/// registry (no-op when collection is off — trace *or* live mode records
/// it, since counters are bounded). Per-worker figures go into
/// per-worker counters so repeated executions — e.g. one sweep per solver
/// iteration — aggregate instead of growing the trace unboundedly.
fn record_report(report: &ExecutionReport) {
    if !mea_obs::is_active() {
        return;
    }
    mea_obs::counter_add("parallel.executions", 1);
    mea_obs::counter_add("parallel.items", report.items as u64);
    for (w, busy) in report.per_worker_busy.iter().enumerate() {
        mea_obs::counter_add(
            &format!("parallel.worker.{w}.busy_us"),
            busy.as_micros() as u64,
        );
    }
    for (w, items) in report.per_worker_items.iter().enumerate() {
        mea_obs::counter_add(&format!("parallel.worker.{w}.items"), *items as u64);
    }
    if let Some(stats) = &report.scheduler {
        mea_obs::counter_add("parallel.chunks", stats.chunks as u64);
        mea_obs::counter_add("parallel.steals", stats.total_steals() as u64);
        for (w, ws) in stats.workers.iter().enumerate() {
            mea_obs::counter_add(&format!("parallel.worker.{w}.steals"), ws.steals as u64);
        }
    }
}

/// Runs explicit index groups on scoped threads, one thread per group, and
/// reassembles results in id order.
fn run_partitioned<T, F>(
    items: &[WorkItem],
    groups: &[Vec<usize>],
    f: &F,
) -> (Vec<T>, Vec<Duration>, Vec<usize>)
where
    T: Send,
    F: Fn(&WorkItem) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    let mut busy = vec![Duration::ZERO; groups.len()];
    let per_items: Vec<usize> = groups.iter().map(Vec::len).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .map(|group| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let produced: Vec<(usize, T)> =
                        group.iter().map(|&id| (id, f(&items[id]))).collect();
                    (produced, t0.elapsed())
                })
            })
            .collect();
        for (g, h) in handles.into_iter().enumerate() {
            let (produced, elapsed) = h.join().expect("partition worker panicked");
            busy[g] = elapsed;
            for (id, value) in produced {
                debug_assert!(slots[id].is_none(), "duplicate work item {id}");
                slots[id] = Some(value);
            }
        }
    });
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(id, s)| s.unwrap_or_else(|| panic!("work item {id} was never scheduled")))
        .collect();
    (results, busy, per_items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn items(n: usize) -> Vec<WorkItem> {
        (0..n)
            .map(|id| WorkItem {
                id,
                category: id % CATEGORY_COUNT,
                cost: (id as u64 % 7) + 1,
            })
            .collect()
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::SingleThread,
            Strategy::Parallel4,
            Strategy::BalancedParallel { threads: 3 },
            Strategy::FineGrained { threads: 2 },
            Strategy::WorkStealing { threads: 2 },
        ]
    }

    #[test]
    fn all_strategies_preserve_order_and_results() {
        let work = items(101);
        let expected: Vec<usize> = work.iter().map(|w| w.id * 3 + 1).collect();
        for s in all_strategies() {
            let got = execute(s, &work, |w| w.id * 3 + 1);
            assert_eq!(
                got, expected,
                "strategy {s:?} must match the sequential result"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for s in all_strategies() {
            let counter = AtomicUsize::new(0);
            let work = items(64);
            let _ = execute(s, &work, |_| counter.fetch_add(1, Ordering::Relaxed));
            assert_eq!(counter.load(Ordering::Relaxed), 64, "{s:?}");
        }
    }

    #[test]
    fn empty_workload_is_fine() {
        for s in all_strategies() {
            let out: Vec<usize> = execute(s, &[], |w| w.id);
            assert!(out.is_empty(), "{s:?}");
        }
    }

    #[test]
    fn single_item_workload() {
        for s in all_strategies() {
            let work = items(1);
            let out = execute(s, &work, |w| w.cost);
            assert_eq!(out, vec![1], "{s:?}");
        }
    }

    #[test]
    fn report_carries_label_and_counts() {
        let work = items(16);
        let (_, report) =
            execute_with_report(Strategy::BalancedParallel { threads: 2 }, &work, |w| w.id);
        assert_eq!(report.items, 16);
        assert!(report.strategy_label.starts_with("Balanced"));
        assert_eq!(report.per_worker_busy.len(), 2);
        assert_eq!(report.per_worker_items.iter().sum::<usize>(), 16);
        assert!(report.wall >= Duration::ZERO);
    }

    #[test]
    fn parallel4_uses_four_workers() {
        let work = items(32);
        let (_, report) = execute_with_report(Strategy::Parallel4, &work, |w| w.id);
        assert_eq!(report.per_worker_busy.len(), CATEGORY_COUNT);
        assert_eq!(report.per_worker_items.iter().sum::<usize>(), 32);
        assert!(
            report.scheduler.is_none(),
            "static strategy has no pool stats"
        );
    }

    #[test]
    fn dynamic_strategies_attribute_every_item() {
        for s in [
            Strategy::FineGrained { threads: 3 },
            Strategy::WorkStealing { threads: 3 },
        ] {
            let work = items(200);
            let (_, report) = execute_with_report(s, &work, |w| w.id);
            assert_eq!(report.per_worker_busy.len(), 3, "{s:?}");
            assert_eq!(report.per_worker_items.len(), 3, "{s:?}");
            assert_eq!(report.per_worker_items.iter().sum::<usize>(), 200, "{s:?}");
        }
    }

    #[test]
    fn work_stealing_report_carries_pool_stats() {
        let work = items(128);
        let (_, report) =
            execute_with_report(Strategy::WorkStealing { threads: 2 }, &work, |w| w.id);
        let stats = report
            .scheduler
            .expect("work stealing must expose pool stats");
        assert_eq!(stats.items, 128);
        assert!(stats.chunks >= 1);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Strategy::SingleThread.label(), "Single-thread");
        assert_eq!(Strategy::Parallel4.label(), "Parallel");
        assert_eq!(Strategy::FineGrained { threads: 8 }.label(), "PyMP-8");
        assert_eq!(Strategy::Parallel4.threads(), 4);
        assert_eq!(Strategy::BalancedParallel { threads: 0 }.threads(), 1);
    }

    #[test]
    fn category_out_of_range_is_folded() {
        // Items with category ≥ 4 still get scheduled under Parallel4.
        let work: Vec<WorkItem> = (0..10)
            .map(|id| WorkItem {
                id,
                category: id,
                cost: 1,
            })
            .collect();
        let out = execute(Strategy::Parallel4, &work, |w| w.id);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}
