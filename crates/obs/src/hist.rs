//! The shared octave-bucket histogram.
//!
//! Extracted from `man-serve`'s per-model latency metrics (DESIGN.md
//! §7) so the serving tier, the per-stage tracing plane, and the
//! Prometheus exporter all agree on one bucket layout. Samples land in
//! power-of-two buckets, so reported quantiles are exact to within one
//! octave — plenty for capacity planning, and free of locks: every
//! write is a relaxed atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`. With microsecond samples, 40 buckets cover about
/// 12.7 days — beyond any sane request timeout.
pub const OCTAVE_BUCKETS: usize = 40;

/// Lock-free octave histogram over `u64` samples (microseconds by
/// convention everywhere in this workspace).
#[derive(Debug)]
pub struct OctaveHistogram {
    buckets: [AtomicU64; OCTAVE_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl OctaveHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    ///
    /// ORDERING: monotonic statistics counters; readers tolerate torn
    /// cross-counter views (see `snapshot`), so Relaxed is sufficient.
    pub(crate) fn record(&self, value: u64) {
        let bucket = (value.max(1).ilog2() as usize).min(OCTAVE_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records one duration as microseconds.
    pub fn observe(&self, latency: Duration) {
        self.record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// A consistent-enough copy of the counters.
    ///
    /// ORDERING: reporting-only reads of monotonic counters; a slightly
    /// stale or mutually-inconsistent view is acceptable by contract,
    /// so no acquire ordering is needed.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for OctaveHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of an [`OctaveHistogram`]'s counters.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-octave sample counts (`buckets[i]` covers `[2^i, 2^(i+1))`).
    pub(crate) buckets: [u64; OCTAVE_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Whether any sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimates the `q`-quantile (0..=1): the geometric midpoint of
    /// the first bucket whose cumulative count reaches the rank.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Midpoint of [2^i, 2^(i+1)): 1.5 * 2^i.
                return (1u64 << i) + (1u64 << i) / 2;
            }
        }
        1u64 << (OCTAVE_BUCKETS - 1)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_bucket_order() {
        let h = OctaveHistogram::new();
        for _ in 0..90 {
            h.observe(Duration::from_micros(100)); // bucket 6 ([64, 128))
        }
        for _ in 0..10 {
            h.observe(Duration::from_micros(10_000)); // bucket 13
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!(
            (64..128).contains(&p50),
            "p50 {p50} should sit in the 100us octave"
        );
        assert!(
            (8_192..16_384).contains(&p99),
            "p99 {p99} should sit in the 10ms octave"
        );
        assert!(p50 < p99);
    }

    #[test]
    fn sum_and_count_are_exact() {
        let h = OctaveHistogram::new();
        h.record(3);
        h.record(5);
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 3 + 5 + (1 << 20));
        assert!((s.mean() - (s.sum as f64 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_sample_lands_in_first_bucket() {
        let h = OctaveHistogram::new();
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.quantile(0.5), 1);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = OctaveHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
