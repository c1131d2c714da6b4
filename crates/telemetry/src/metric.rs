//! The three metric primitives: counters, gauges, and log-bucketed
//! histograms. All are `Arc`-shared handles over atomics; cloning a
//! handle aliases the same metric.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `2^63..=u64::MAX`.
pub const BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-point scale for real-valued gauges: [`Gauge::set_scaled`]
/// stores `value × 10⁴` rounded, which keeps four decimal places
/// through the integer metric model (snapshots, JSONL export, drift
/// comparisons).
pub const GAUGE_SCALE: f64 = 1e4;

/// A signed instantaneous level (queue depth, in-flight requests).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, delta: i64) {
        self.0.fetch_sub(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Stores a real value as ×10⁴ fixed point (see [`GAUGE_SCALE`]) —
    /// the convention summary and residency gauges use so fractional
    /// results survive the integer metric model losslessly enough for
    /// drift checks.
    #[inline]
    pub fn set_scaled(&self, v: f64) {
        self.set((v * GAUGE_SCALE).round() as i64);
    }

    /// Reads back a value stored by [`Gauge::set_scaled`].
    #[inline]
    pub fn get_scaled(&self) -> f64 {
        self.get() as f64 / GAUGE_SCALE
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed distribution of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i > 0` holds
/// `2^(i-1) ..= 2^i - 1`. Recording is two relaxed `fetch_add`s
/// (bucket and sum — the total count is derived from the buckets at
/// read time) plus min/max maintenance that is load-only once the
/// extremes are established, with no allocation.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

/// The bucket index a value lands in — public so hot loops can
/// pre-aggregate samples into a plain `[u64; BUCKETS]` array and
/// bulk-publish via [`Histogram::merge_parts`] instead of paying an
/// atomic RMW per sample.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value range of bucket `idx`.
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    match idx {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        // Guarded RMWs: once the extremes are established the common
        // case is a relaxed load and a branch. The inner fetch_min /
        // fetch_max keeps racing updates correct (idempotent).
        if value < inner.min.load(Ordering::Relaxed) {
            inner.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > inner.max.load(Ordering::Relaxed) {
            inner.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.0.min.load(Ordering::Relaxed))
        }
    }

    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.0.max.load(Ordering::Relaxed))
        }
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// A log₂-resolution quantile estimate (see
    /// [`HistogramSnapshot::approx_quantile`]).
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().approx_quantile(q)
    }

    /// Fold a snapshot's contents back into this live histogram —
    /// the inverse of [`snapshot`](Self::snapshot). Replaying a
    /// snapshot into a fresh histogram then snapshotting again yields
    /// the original snapshot.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        let inner = &*self.0;
        for &(lo, _hi, n) in &snap.buckets {
            inner.buckets[bucket_index(lo)].fetch_add(n, Ordering::Relaxed);
        }
        inner.sum.fetch_add(snap.sum, Ordering::Relaxed);
        inner.min.fetch_min(snap.min, Ordering::Relaxed);
        inner.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// Bulk-publish locally pre-aggregated samples: `buckets[i]` holds
    /// the count of samples whose [`bucket_index`] is `i` (shorter
    /// slices cover a prefix), `sum` their total, and `min`/`max` the
    /// extremes (`min == u64::MAX` means "no samples", matching the
    /// unrecorded sentinel). One call replaces thousands of per-sample
    /// [`record`](Self::record)s — the batched simulation loops accrue
    /// into plain arrays and flush here at window boundaries.
    pub fn merge_parts(&self, buckets: &[u64], sum: u64, min: u64, max: u64) {
        let inner = &*self.0;
        let mut any = false;
        for (mine, &n) in inner.buckets.iter().zip(buckets.iter()) {
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
                any = true;
            }
        }
        if any {
            inner.sum.fetch_add(sum, Ordering::Relaxed);
            inner.min.fetch_min(min, Ordering::Relaxed);
            inner.max.fetch_max(max, Ordering::Relaxed);
        }
    }

    /// Fold another histogram's contents into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let count = other.count();
        if count > 0 {
            self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
            self.0
                .min
                .fetch_min(other.0.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.0
                .max
                .fetch_max(other.0.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        let mut count = 0u64;
        let buckets: Vec<(u64, u64, u64)> = inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let n = b.load(Ordering::Relaxed);
                count += n;
                if n == 0 {
                    None
                } else {
                    let (lo, hi) = bucket_bounds(idx);
                    Some((lo, hi, n))
                }
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                inner.min.load(Ordering::Relaxed)
            },
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`], and the rollup of one
/// series window: only non-empty buckets are materialized, as
/// `(lo, hi, count)` with inclusive bounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Folds one sample in.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        let (lo, hi) = bucket_bounds(bucket_index(value));
        match self.buckets.binary_search_by_key(&lo, |&(l, _, _)| l) {
            Ok(idx) => self.buckets[idx].2 += 1,
            Err(idx) => self.buckets.insert(idx, (lo, hi, 1)),
        }
    }

    /// Folds another snapshot in, exactly: the sorted bucket
    /// lists merge-join, counts and sums add, the min/max envelope
    /// widens.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while let (Some(&&(alo, ahi, an)), Some(&&(blo, bhi, bn))) = (a.peek(), b.peek()) {
            if alo == blo {
                merged.push((alo, ahi, an + bn));
                a.next();
                b.next();
            } else if alo < blo {
                merged.push((alo, ahi, an));
                a.next();
            } else {
                merged.push((blo, bhi, bn));
                b.next();
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket at which the cumulative count first
    /// reaches `q` (0.0..=1.0) of the total — a log₂-resolution
    /// quantile estimate.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for &(_lo, hi, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return Some(hi);
            }
        }
        Some(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            assert!(lo <= hi);
        }
    }

    #[test]
    fn histogram_zero_and_max() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), 2);
        assert_eq!(snap.buckets[0], (0, 0, 1));
        assert_eq!(snap.buckets[1], (1u64 << 63, u64::MAX, 1));
    }

    #[test]
    fn histogram_boundaries_land_in_their_bucket() {
        let h = Histogram::new();
        for shift in 0..64 {
            h.record(1u64 << shift);
        }
        let snap = h.snapshot();
        // 1 lands in bucket 1, every other power of two opens its own.
        assert_eq!(snap.count, 64);
        for (lo, _hi, n) in &snap.buckets {
            assert_eq!(*n, 1, "bucket starting at {lo} should hold one sample");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let aliased = c.clone();
        aliased.inc();
        assert_eq!(c.get(), 43);

        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn scaled_gauge_round_trips_four_decimals() {
        let g = Gauge::new();
        g.set_scaled(1.2345);
        assert_eq!(g.get(), 12345);
        assert!((g.get_scaled() - 1.2345).abs() < 1e-12);
        g.set_scaled(-0.94);
        assert_eq!(g.get(), -9400);
        // Sub-scale digits round rather than truncate.
        g.set_scaled(0.00004);
        assert_eq!(g.get(), 0);
        g.set_scaled(0.00006);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn concurrent_counter_increments() {
        let c = Counter::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_records() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t * 5_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 20_000);
        let expected_sum: u64 = (0..20_000).sum();
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(19_999));
    }

    #[test]
    fn merge_snapshot_round_trips() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 300, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        let replay = Histogram::new();
        replay.merge_snapshot(&snap);
        assert_eq!(replay.snapshot(), snap);
        // Merging an empty snapshot is a no-op (min stays untouched).
        replay.merge_snapshot(&Histogram::new().snapshot());
        assert_eq!(replay.snapshot(), snap);
    }

    #[test]
    fn merge_and_quantiles() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), 310);
        assert_eq!(a.max(), Some(200));
        // Median falls in the low buckets, p99 in the 128..=255 one.
        assert!(a.approx_quantile(0.5).unwrap() <= 7);
        assert_eq!(a.approx_quantile(1.0), Some(255));
        assert_eq!(Histogram::new().approx_quantile(0.5), None);
    }

    #[test]
    fn snapshot_quantiles_match_the_live_histogram() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 200, 5_000, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.approx_quantile(q), h.approx_quantile(q), "q={q}");
        }
        assert_eq!(HistogramSnapshot::default().approx_quantile(0.5), None);
    }
}
