//! Lock-free log-linear histograms for latency/iteration distributions.
//!
//! The bucket layout is HDR-style log-linear: each power-of-two octave is
//! split into 4 linear sub-buckets, so relative quantile error is bounded
//! by one sub-bucket width (≤ 25 % of the value, typically far less after
//! clamping to the observed min/max). The covered range is
//! 2^-64 … 2^64 — wide enough for residuals (~1e-12) on one end and
//! iteration counts or millisecond latencies on the other — with explicit
//! under/overflow buckets at the edges.
//!
//! Recording is wait-free: one `fetch_add` on the bucket plus CAS loops
//! for the running sum/min/max. No mutex is touched, so histograms are
//! safe to record from inside work-stealing workers. Named histograms are
//! interned once into a process-global table and leaked, so a
//! [`Hist`] callsite handle resolves its `&'static Histogram` once and
//! then records with zero lookups.
//!
//! A timed stage is a histogram whose name ends in `_ms`, recorded by the
//! [`Hist::time`] drop guard; the trace document lists each one as a span
//! (see [`crate::Snapshot::to_json`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sub-buckets per power-of-two octave (must be a power of two).
const SUBS: usize = 4;
/// Smallest represented exponent: values below 2^EXP_MIN underflow.
const EXP_MIN: i64 = -64;
/// Largest represented exponent: values at/above 2^(EXP_MAX+1) overflow.
const EXP_MAX: i64 = 63;
const OCTAVES: usize = (EXP_MAX - EXP_MIN + 1) as usize;
/// Bucket 0 holds non-positive values and underflow; the last bucket
/// holds overflow (including +inf). Everything between is log-linear.
pub const BUCKETS: usize = OCTAVES * SUBS + 2;

/// Maps a value to its bucket index. NaN and non-positive values land in
/// bucket 0 — a histogram of residuals treats "exactly zero" and
/// "denormally small" alike as "below resolution".
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    // Subnormals decode as exp == -1023 and fall through to underflow.
    if exp < EXP_MIN {
        return 0;
    }
    if exp > EXP_MAX {
        return BUCKETS - 1;
    }
    let sub = ((bits >> 50) & (SUBS as u64 - 1)) as i64;
    (1 + (exp - EXP_MIN) * SUBS as i64 + sub) as usize
}

/// Exclusive upper bound of bucket `idx` (the Prometheus `le` boundary).
/// Bucket 0's bound is the smallest representable histogram value; the
/// overflow bucket's bound is `+inf`.
pub fn bucket_upper(idx: usize) -> f64 {
    if idx == 0 {
        return exp2(EXP_MIN);
    }
    if idx >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let k = idx - 1;
    let exp = EXP_MIN + (k / SUBS) as i64;
    let sub = (k % SUBS) as f64;
    exp2(exp) * (1.0 + (sub + 1.0) / SUBS as f64)
}

/// Inclusive lower bound of bucket `idx`.
pub fn bucket_lower(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    if idx >= BUCKETS - 1 {
        return exp2(EXP_MAX + 1);
    }
    let k = idx - 1;
    let exp = EXP_MIN + (k / SUBS) as i64;
    let sub = (k % SUBS) as f64;
    exp2(exp) * (1.0 + sub / SUBS as f64)
}

fn exp2(e: i64) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// A fixed-bucket concurrent histogram. All operations are lock-free.
pub struct Histogram {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_nan() {
            return;
        }
        cas_f64(&self.sum_bits, |cur| cur + v);
        cas_f64(&self.min_bits, |cur| cur.min(v));
        cas_f64(&self.max_bits, |cur| cur.max(v));
    }

    /// Zeroes the histogram in place (handles stay valid).
    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }

    /// Copies the current state. Concurrent recording may make the copy
    /// off by in-flight observations; that skew is bounded and acceptable
    /// for telemetry.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A mergeable point-in-time copy of one histogram. Buckets are stored
/// sparsely as `(index, count)` pairs sorted by index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all finite observations.
    pub sum: f64,
    /// Smallest finite observation (`+inf` when empty).
    pub min: f64,
    /// Largest finite observation (`-inf` when empty).
    pub max: f64,
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// Builds a snapshot directly from a value slice — the deterministic
    /// constructor golden and property tests use, no global state touched.
    pub fn from_values(values: &[f64]) -> HistSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of finite observations, NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (q in [0, 1]) estimated from bucket midpoints and
    /// clamped to the observed `[min, max]`. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 && self.min.is_finite() {
            return self.min;
        }
        if q == 1.0 && self.max.is_finite() {
            return self.max;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                let mid = 0.5 * (bucket_lower(idx) + bucket_upper_finite(idx, self.max));
                return clamp_observed(mid, self.min, self.max);
            }
        }
        clamp_observed(bucket_lower(BUCKETS - 1), self.min, self.max)
    }

    /// Bucket-wise merge: counts add, extrema combine. The result is what
    /// one histogram would have seen had it received both streams.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut buckets: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *buckets.entry(idx).or_insert(0) += n;
        }
        HistSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            buckets: buckets.into_iter().collect(),
        }
    }

    /// Serializes to a JSON object with cumulative-friendly sparse
    /// buckets: `{"count":n,"sum":x,"min":a,"max":b,"buckets":[[le,n],…]}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut obj = crate::json::Object::begin(&mut out);
        obj.field_u64("count", self.count);
        obj.field_f64("sum", self.sum);
        obj.field_f64("min", self.min);
        obj.field_f64("max", self.max);
        let mut arr = String::from("[");
        for (i, &(idx, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            arr.push('[');
            crate::json::number(&mut arr, bucket_upper(idx));
            let _ = write!(arr, ",{n}]");
        }
        arr.push(']');
        obj.field_raw("buckets", &arr);
        obj.end();
        out
    }
}

/// Overflow has no finite upper bound; substitute the observed max so
/// quantiles stay finite.
fn bucket_upper_finite(idx: usize, observed_max: f64) -> f64 {
    let upper = bucket_upper(idx);
    if upper.is_finite() {
        upper
    } else {
        observed_max
    }
}

fn clamp_observed(v: f64, min: f64, max: f64) -> f64 {
    if min.is_finite() && max.is_finite() && min <= max {
        v.clamp(min, max)
    } else {
        v
    }
}

/// The process-global name → histogram table. Entries are leaked so that
/// recording handles are `&'static` and never touch the lock again.
static TABLE: Mutex<BTreeMap<&'static str, &'static Histogram>> = Mutex::new(BTreeMap::new());

/// Interns (or looks up) the named histogram.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut table = TABLE.lock().unwrap();
    if let Some(h) = table.get(name) {
        return h;
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    table.insert(leaked_name, leaked);
    leaked
}

/// Zeroes every registered histogram in place. Called by [`crate::reset`].
pub(crate) fn reset_all() {
    for h in TABLE.lock().unwrap().values() {
        h.reset();
    }
}

/// Snapshots every registered, non-empty histogram, sorted by name.
pub fn snapshot_all() -> Vec<(String, HistSnapshot)> {
    TABLE
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(name, h)| {
            let snap = h.snapshot();
            (!snap.is_empty()).then(|| (name.to_string(), snap))
        })
        .collect()
}

/// A callsite handle: resolves the named histogram once, then records
/// lock-free. Declare as `static H: Hist = Hist::new("parma.solve_ms")`;
/// a stage's name ends in `_ms` and its trace path is the name without
/// `_ms`, dots as slashes (`parma.solve_ms` is `parma/solve`).
pub struct Hist {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl Hist {
    /// A handle for the named histogram (resolved lazily on first record).
    pub const fn new(name: &'static str) -> Self {
        Hist {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation; no-op (one atomic load) when collection
    /// is off.
    pub fn record(&self, v: f64) {
        if !crate::is_active() {
            return;
        }
        self.cell.get_or_init(|| histogram(self.name)).record(v);
    }

    /// Times a stage: the returned guard records the milliseconds from
    /// now until it drops, on every exit path. Started while collection
    /// is off, it stays inert (one atomic load).
    pub fn time(&self) -> Timer<'_> {
        Timer {
            hist: self,
            start: crate::is_active().then(Instant::now),
        }
    }
}

/// The guard [`Hist::time`] returns: records the elapsed milliseconds
/// into its histogram when dropped.
#[must_use = "a timer measures until dropped; binding it to _ records zero"]
pub struct Timer<'a> {
    hist: &'a Hist,
    start: Option<Instant>,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.hist.record(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_the_positive_axis() {
        for &v in &[1.0, 1.24, 1.25, 1.5, 2.0, 3.0, 0.5, 1e-12, 1e12, 1000.0] {
            let idx = bucket_index(v);
            assert!(bucket_lower(idx) <= v, "{v} below bucket {idx} lower");
            assert!(v < bucket_upper(idx), "{v} not below bucket {idx} upper");
        }
    }

    #[test]
    fn edge_values_land_in_edge_buckets() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.5), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0, "subnormal");
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_a_known_distribution() {
        let h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        let p50 = s.quantile(0.5);
        // One log-linear sub-bucket of slack around the exact median.
        assert!((37.5..=62.5).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!(p99 >= s.quantile(0.9), "quantiles must be monotone");
        assert!(p99 <= 100.0);
        assert_eq!(s.quantile(0.0), 1.0, "p0 clamps to min");
        assert_eq!(s.quantile(1.0), 100.0, "p100 clamps to max");
    }

    #[test]
    fn merge_is_count_conserving() {
        let a = Histogram::new();
        let b = Histogram::new();
        for i in 0..10 {
            a.record(1.5 * i as f64);
            b.record(100.0 + i as f64);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 20);
        assert_eq!(m.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 20);
        assert_eq!(m.min, 0.0);
        assert_eq!(m.max, 109.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Interned histograms are zeroed by `crate::reset`, so serialize
        // with the tests that call it.
        let _g = crate::test_guard();
        let h = histogram("hist.test.concurrent");
        h.reset();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 + 0.5);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);
        h.reset();
    }

    #[test]
    fn handle_is_inert_when_disabled_and_live_otherwise() {
        let _g = crate::test_guard();
        static H: Hist = Hist::new("hist.test.handle");
        crate::set_live(false);
        crate::set_enabled(false);
        H.record(1.0);
        assert!(histogram("hist.test.handle").snapshot().is_empty());
        crate::set_live(true);
        H.record(2.0);
        crate::set_live(false);
        let s = histogram("hist.test.handle").snapshot();
        assert_eq!(s.count, 1);
        histogram("hist.test.handle").reset();
    }
}
