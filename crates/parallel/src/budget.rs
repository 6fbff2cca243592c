//! Splitting a thread budget between the batch and intra-solve axes.
//!
//! Pinning every inner solve to a single thread and spending the whole
//! budget on the batch axis is optimal when items outnumber threads, but
//! at paper scale (n = 64–100) a batch of a handful of large solves
//! leaves most threads idle. [`ThreadBudget`]
//! makes the trade explicit: the outer (batch) axis gets
//! `min(total, items)` workers and the inner (intra-solve) axis divides
//! the remainder, capped by the solve's own parallel width — the Betti
//! bound β₁ of its device graph (the paper's §III decomposition, computed
//! by `parma::betti` / partitioned by `mea_topology::partition`).
//!
//! The split is arithmetic on sizes only, so a given (budget, batch,
//! bound) triple always produces the same shape — scheduling never feeds
//! back into it.

/// A thread budget split between batch-level and intra-solve parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Total threads available.
    pub total: usize,
    /// Workers on the batch (outer) axis.
    pub outer: usize,
    /// Threads per solve (inner axis) before any per-item cap.
    pub inner: usize,
}

impl ThreadBudget {
    /// Splits `total` threads over a batch of `items` solves: the outer
    /// axis is saturated first (`min(total, items)` — batch parallelism
    /// has no synchronization inside items), and whatever divides out
    /// evenly goes to the inner axis. Both axes are always ≥ 1.
    pub fn split(total: usize, items: usize) -> ThreadBudget {
        let total = total.max(1);
        let outer = total.min(items.max(1));
        let inner = (total / outer).max(1);
        ThreadBudget {
            total,
            outer,
            inner,
        }
    }

    /// The inner width after capping by a solve's own parallel bound
    /// (β₁ of its device graph). Always ≥ 1: a solve with no independent
    /// cycles still runs, sequentially.
    pub fn inner_capped(&self, bound: usize) -> usize {
        self.inner.min(bound.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkStealingPool;
    use mea_linalg::{
        BipartiteFactor, BipartiteSystem, DenseMatrix, InverseScope, Parallelism, Sequential,
    };

    #[test]
    fn outer_axis_saturates_first() {
        // Many items: the historical shape — all threads on the batch.
        assert_eq!(
            ThreadBudget::split(4, 100),
            ThreadBudget {
                total: 4,
                outer: 4,
                inner: 1
            }
        );
        // Few large items: the remainder moves inside the solves.
        assert_eq!(
            ThreadBudget::split(8, 2),
            ThreadBudget {
                total: 8,
                outer: 2,
                inner: 4
            }
        );
        // Uneven division rounds the inner axis down.
        assert_eq!(
            ThreadBudget::split(7, 3),
            ThreadBudget {
                total: 7,
                outer: 3,
                inner: 2
            }
        );
        // Degenerate inputs clamp to one.
        assert_eq!(
            ThreadBudget::split(0, 0),
            ThreadBudget {
                total: 1,
                outer: 1,
                inner: 1
            }
        );
    }

    #[test]
    fn inner_width_is_capped_by_the_betti_bound() {
        let b = ThreadBudget::split(8, 2); // inner = 4
        assert_eq!(b.inner_capped(100), 4);
        assert_eq!(b.inner_capped(3), 3);
        assert_eq!(b.inner_capped(0), 1);
    }

    /// The intra-solve satellite's core contract: running the structured
    /// factorization over real work-stealing pools of 1/2/4 threads is
    /// bitwise identical to the sequential executor.
    #[test]
    fn pool_factorization_is_bitwise_identical_across_thread_counts() {
        let (m, n) = (24, 21);
        let mut sys = BipartiteSystem::new();
        sys.reset(m, n - 1);
        for i in 0..m {
            for j in 0..n {
                let g = 0.3 + ((i * 31 + j * 7) % 17) as f64 / 5.0;
                if j + 1 == n {
                    sys.add_ground(i, g);
                } else {
                    sys.add_cross(i, j, g);
                }
            }
        }
        let dim = sys.dim();
        let invert = |par: &dyn Parallelism| -> Vec<u64> {
            let mut out = DenseMatrix::zeros(dim, dim);
            BipartiteFactor::new()
                .factor_invert_into(&sys, &mut out, InverseScope::Full, par, None)
                .expect("SPD system must factor");
            out.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let reference = invert(&Sequential);
        for threads in [1usize, 2, 4] {
            let pool = WorkStealingPool::new(threads);
            assert_eq!(
                invert(&pool),
                reference,
                "{threads}-thread pool must match Sequential bitwise"
            );
        }
    }
}
