//! Topology-keyed caching of [`SolvePlan`]s.
//!
//! A plan's symbolic structure — the work-item schedule and κ — depends
//! only on the device *geometry*, never on measured data. Every
//! long-lived role therefore keeps one [`PlanCache`] for its lifetime
//! (a batch run, a serve daemon, a worker process), analyzes each
//! geometry once and reuses the plan for every later job of that shape.
//!
//! # Key invariants (DESIGN.md §16)
//!
//! * The key is the exact `(rows, cols)` pair. Topologies that are equal
//!   up to relabeling — a 3×4 and a 4×3 device share every topological
//!   invariant — still have distinct row/column structure in the solve,
//!   so they must **not** collide; keying on derived invariants (joint
//!   count, β₁) would alias them.
//! * A cached plan is shared immutably ([`Arc`]); plans carry no
//!   data-dependent state, so a cache hit is *bitwise* equivalent to a
//!   fresh analysis (pinned by `plan_cache_properties` and the serve
//!   end-to-end harness).
//! * Hit/miss counts are observable both per cache ([`PlanCache::stats`])
//!   and on the process-global registry as `parma.plan_cache.hits` /
//!   `parma.plan_cache.misses`, which is how the end-to-end tests prove a
//!   second same-geometry job skipped symbolic analysis.

use crate::solver::SolvePlan;
use mea_model::MeaGrid;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache entries: the exact `(rows, cols)` key and the shared plan.
type Entries = Vec<((usize, usize), Arc<SolvePlan>)>;

/// A geometry-keyed cache of immutable [`SolvePlan`]s — "analyze once,
/// solve every array of that geometry".
#[derive(Default)]
pub struct PlanCache {
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared plan for `grid`'s geometry, analyzed on first request.
    /// The analysis runs outside the cache lock — it can take
    /// milliseconds and must not block concurrent lookups of other
    /// geometries — so two racing first requests may both build; the
    /// first to insert wins and both get the winning [`Arc`] (the loser's
    /// build is dropped, keeping "one shared plan per geometry").
    pub fn get_or_analyze(&self, grid: MeaGrid) -> Arc<SolvePlan> {
        let key = (grid.rows(), grid.cols());
        if let Some(found) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mea_obs::counter_add("parma.plan_cache.hits", 1);
            return found;
        }
        let built = Arc::new(SolvePlan::new(grid));
        let mut entries = self.entries.lock().expect("plan cache lock");
        let value = match entries.iter().find(|(k, _)| *k == key) {
            Some((_, existing)) => Arc::clone(existing),
            None => {
                entries.push((key, Arc::clone(&built)));
                built
            }
        };
        drop(entries);
        self.misses.fetch_add(1, Ordering::Relaxed);
        mea_obs::counter_add("parma.plan_cache.misses", 1);
        value
    }

    fn lookup(&self, key: (usize, usize)) -> Option<Arc<SolvePlan>> {
        self.entries
            .lock()
            .expect("plan cache lock")
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| Arc::clone(v))
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct geometries currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache lock").len()
    }

    /// Whether the cache has seen no geometry yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted_per_geometry() {
        let cache = PlanCache::new();
        let a = cache.get_or_analyze(MeaGrid::square(4));
        let b = cache.get_or_analyze(MeaGrid::square(4));
        let c = cache.get_or_analyze(MeaGrid::square(5));
        assert!(Arc::ptr_eq(&a, &b), "same geometry shares one plan");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn relabeling_equal_geometries_do_not_collide() {
        let cache = PlanCache::new();
        let a = cache.get_or_analyze(MeaGrid::new(3, 4));
        let b = cache.get_or_analyze(MeaGrid::new(4, 3));
        assert!(!Arc::ptr_eq(&a, &b), "3×4 and 4×3 must cache separately");
        assert_eq!(a.grid().rows(), 3);
        assert_eq!(b.grid().rows(), 4);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn cached_plan_is_the_fresh_plan() {
        let cache = PlanCache::new();
        let grid = MeaGrid::square(6);
        let cached = cache.get_or_analyze(grid);
        let fresh = SolvePlan::new(grid);
        assert_eq!(cached.grid(), fresh.grid());
        assert_eq!(cached.kappa().to_bits(), fresh.kappa().to_bits());
    }
}
