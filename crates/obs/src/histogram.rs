//! Lock-free log2-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] is a fixed array of 64 `AtomicU64` bucket counters
//! indexed by the bit length of the observed duration in microseconds:
//! bucket 0 holds exact zeros, bucket `i` (for `i >= 1`) holds observations
//! in `[2^(i-1), 2^i - 1]` µs.  Recording is three relaxed atomic adds (bucket,
//! sum, max) — no locks, no allocation — so it is safe on the reactor and
//! worker hot paths.  Readers take a [`HistogramSnapshot`] (a plain copy of
//! the counters) and derive quantiles from the cumulative bucket counts; the
//! derived quantile is the *upper bound* of the bucket holding the rank, so it
//! always brackets the true value from above within a factor of two.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: one per possible bit length of a `u64` microsecond
/// count, plus bucket 0 for exact zeros.
pub const BUCKET_COUNT: usize = 64;

/// A mergeable, lock-free latency histogram with log2 bucket boundaries.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.  `const` so histograms can live in
    /// `static`s without lazy initialization.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; BUCKET_COUNT],
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// The bucket index for an observation of `micros` microseconds: its bit
    /// length, clamped to the last bucket.
    #[must_use]
    pub fn bucket_index(micros: u64) -> usize {
        ((u64::BITS - micros.leading_zeros()) as usize).min(BUCKET_COUNT - 1)
    }

    /// The inclusive upper bound (in µs) of bucket `index`.
    ///
    /// Bucket 0 holds only zeros; the final bucket is unbounded and reports
    /// `u64::MAX`.
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= BUCKET_COUNT - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        self.record_micros(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one observation expressed in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    ///
    /// Buckets are loaded individually (relaxed), so a snapshot taken during
    /// concurrent recording may split a logically-single observation across
    /// reads — but every individual counter is monotone, so two successive
    /// snapshots never show a decrease.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`LatencyHistogram`]'s counters, safe to merge and to
/// derive quantiles from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; BUCKET_COUNT],
    /// Sum of all recorded microsecond values.
    pub sum_micros: u64,
    /// Largest recorded microsecond value.
    pub max_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (zero observations).
    #[must_use]
    pub const fn empty() -> Self {
        Self {
            buckets: [0; BUCKET_COUNT],
            sum_micros: 0,
            max_micros: 0,
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().copied().fold(0u64, u64::saturating_add)
    }

    /// Mean observation in microseconds (0 when empty).
    #[must_use]
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in microseconds: the upper bound of
    /// the bucket containing the `ceil(q · count)`-th smallest observation.
    ///
    /// Returns 0 for an empty snapshot.  The result always brackets the true
    /// order statistic: `true <= quantile(q) < 2 · true` (exact for zeros and
    /// for the unbounded last bucket, which reports the recorded max).
    #[must_use]
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        // ceil(q * count), clamped into 1..=count.
        let rank = ((clamped * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket);
            if cumulative >= rank {
                if index == BUCKET_COUNT - 1 {
                    // The last bucket is unbounded; the max is the tightest
                    // upper bound we know.
                    return self.max_micros;
                }
                return Self::upper_bound(index);
            }
        }
        self.max_micros
    }

    /// Median (p50) in microseconds.
    #[must_use]
    pub fn p50_micros(&self) -> u64 {
        self.quantile_micros(0.50)
    }

    /// 99th percentile in microseconds.
    #[must_use]
    pub fn p99_micros(&self) -> u64 {
        self.quantile_micros(0.99)
    }

    /// The inclusive upper bound (in µs) of bucket `index` (see
    /// [`LatencyHistogram::bucket_upper_bound`]).
    #[must_use]
    pub fn upper_bound(index: usize) -> u64 {
        LatencyHistogram::bucket_upper_bound(index)
    }

    /// Merges two snapshots: bucket-wise sums, summed totals, max of maxes.
    /// Equivalent to having recorded the union of both observation sets into
    /// one histogram.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (index, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[index].saturating_add(other.buckets[index]);
        }
        Self {
            buckets,
            sum_micros: self.sum_micros.saturating_add(other.sum_micros),
            max_micros: self.max_micros.max(other.max_micros),
        }
    }

    /// Subtracts an earlier snapshot of the *same* histogram, yielding the
    /// observations recorded in between.  Buckets saturate at zero, so a
    /// mismatched pair degrades to an undercount instead of wrapping.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (index, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[index].saturating_sub(earlier.buckets[index]);
        }
        Self {
            buckets,
            sum_micros: self.sum_micros.saturating_sub(earlier.sum_micros),
            max_micros: self.max_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn upper_bounds_cover_their_buckets() {
        for micros in [0u64, 1, 2, 3, 7, 8, 100, 1 << 20, u64::MAX / 2] {
            let index = LatencyHistogram::bucket_index(micros);
            assert!(micros <= LatencyHistogram::bucket_upper_bound(index));
            if index > 0 {
                assert!(micros > LatencyHistogram::bucket_upper_bound(index - 1));
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let hist = LatencyHistogram::new();
        for micros in [10u64, 20, 30, 40, 1000] {
            hist.record_micros(micros);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum_micros, 1100);
        assert_eq!(snap.max_micros, 1000);
        assert_eq!(snap.mean_micros(), 220);
        // p50 rank is 3 → value 30 → bucket [16,31] → upper bound 31.
        assert_eq!(snap.p50_micros(), 31);
        // p99 rank is 5 → value 1000 → bucket [512,1023] → upper bound 1023.
        assert_eq!(snap.p99_micros(), 1023);
        assert!(snap.p50_micros() <= snap.p99_micros());
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean_micros(), 0);
        assert_eq!(snap.quantile_micros(0.5), 0);
        assert_eq!(snap, HistogramSnapshot::empty());
    }

    #[test]
    fn merge_matches_union_recording() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        for micros in [1u64, 5, 9, 120] {
            a.record_micros(micros);
            union.record_micros(micros);
        }
        for micros in [0u64, 7, 7, 4096] {
            b.record_micros(micros);
            union.record_micros(micros);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), union.snapshot());
    }

    #[test]
    fn since_recovers_interval_counts() {
        let hist = LatencyHistogram::new();
        hist.record_micros(10);
        let before = hist.snapshot();
        hist.record_micros(100);
        hist.record_micros(200);
        let delta = hist.snapshot().since(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum_micros, 300);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hist = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        hist.record_micros(t * 1000 + i);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("recorder thread");
        }
        assert_eq!(hist.snapshot().count(), 4000);
    }
}
