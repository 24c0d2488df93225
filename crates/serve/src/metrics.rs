//! Per-model serving metrics: request counters, octave-bucket latency
//! and queue-wait histograms, and the micro-batch size distribution.
//!
//! Everything on the hot path is an atomic increment; aggregation into
//! the serializable [`ModelStats`] snapshot happens only when a `stats`
//! request asks for it. Latencies land in the shared `man-obs`
//! power-of-two-microsecond buckets, so the reported percentiles are
//! exact to within one octave — plenty for capacity planning, and free
//! of locks.
//!
//! The request-outcome counters (`accepted`/`completed`/`rejected`/
//! `timed_out`) are `SeqCst` and each request lands in *disjoint*
//! buckets: `accepted` is counted before the queue handoff and every
//! outcome is counted by the *submitter* before its call returns
//! (exactly one branch per accepted request). A racing snapshot that
//! reads the outcome counters first and `accepted` last can therefore
//! assert `accepted >= completed + rejected + timed_out` at any
//! instant — the consistency contract the `metrics_consistency` test
//! hammers — and a client that got its reply always sees it counted
//! in its very next `stats` call.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

pub use man_obs::OctaveHistogram as LatencyHistogram;

use man_par::ShardPlan;
use serde::Serialize;

/// Live counters for one hosted model. Shared (`Arc`) between the
/// submit path, the batch-leading callers, and the stats endpoint.
#[derive(Debug)]
pub struct ModelMetrics {
    /// Requests admitted past shape validation and offered to the
    /// queue — including ones the full queue then rejected. Incremented
    /// *before* the queue handoff, so at every instant
    /// `accepted >= completed + rejected + timed_out`.
    pub(crate) accepted: AtomicU64,
    /// Requests whose prediction came back to the submitter in time.
    pub(crate) completed: AtomicU64,
    /// Requests rejected at submit (queue full).
    pub(crate) rejected: AtomicU64,
    /// Requests whose submitter gave up after the scheduler's fixed 30 s
    /// request timeout (the batch still runs; the late reply goes
    /// nowhere).
    pub(crate) timed_out: AtomicU64,
    /// Requests answered with an error: shape mismatches at submit,
    /// plus inference failures delivered back in time.
    pub(crate) errors: AtomicU64,
    /// `infer_batch` calls issued by the scheduler.
    pub(crate) batches: AtomicU64,
    /// One counter per batch size `1..=max_batch` (index `size - 1`).
    batch_sizes: Vec<AtomicU64>,
    /// End-to-end latency (enqueue to reply) of delivered replies.
    pub(crate) latency: LatencyHistogram,
    /// Time each request sat queued before a batch leader drained it —
    /// the backpressure-onset signal the end-to-end percentiles hide.
    pub(crate) queue_wait: LatencyHistogram,
    /// Requests currently queued (approximate).
    pub(crate) queue_depth: AtomicUsize,
    /// The sharding plan the most recent dispatch resolved to, kept in
    /// its cheap `Copy` form (one store per batch) and rendered only by
    /// `stats`.
    plan: Mutex<Option<ShardPlan>>,
}

impl ModelMetrics {
    /// Fresh counters for a scheduler with the given `max_batch`.
    pub(crate) fn new(max_batch: usize) -> Self {
        Self {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_sizes: (0..max_batch.max(1)).map(|_| AtomicU64::new(0)).collect(),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            queue_depth: AtomicUsize::new(0),
            plan: Mutex::new(None),
        }
    }

    /// Records one dispatched batch of `size` requests.
    ///
    /// ORDERING: monotonic statistics counters read only for reporting;
    /// Relaxed suffices (no memory is published through them).
    pub(crate) fn observe_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if size >= 1 {
            let idx = (size - 1).min(self.batch_sizes.len() - 1);
            self.batch_sizes[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the plan a dispatch resolved to — one `Copy` store under
    /// a short lock, cheap enough for every batch, so operators always
    /// see what the tuner actually chose last.
    pub(crate) fn observe_plan(&self, plan: ShardPlan) {
        *self
            .plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
    }

    /// The most recent resolved plan, rendered (`None` before the first
    /// dispatch) — what the Prometheus exporter labels
    /// `man_serve_model_info` with.
    pub(crate) fn resolved_plan(&self) -> Option<String> {
        self.plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map(ShardPlan::label)
    }

    /// Aggregates the counters into a serializable snapshot.
    ///
    /// The outcome counters are read in a deliberate order — the
    /// disjoint outcomes (`completed`, `errors`, `timed_out`,
    /// `rejected`) first, `accepted` *last*, all `SeqCst`: every
    /// outcome increment follows its own request's `accepted`
    /// increment in the total order, so the snapshot can never show
    /// more outcomes than admissions. The remaining counters are
    /// advisory Relaxed reads.
    ///
    /// ORDERING: the Relaxed loads here read independent monotonic
    /// statistics counters (histograms, batch sizes, queue depth); no
    /// cross-counter consistency is promised for them.
    pub(crate) fn snapshot(&self, model: &str) -> ModelStats {
        let latency = self.latency.snapshot();
        let queue_wait = self.queue_wait.snapshot();
        let batch_histogram: Vec<u64> = self
            .batch_sizes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let batches = self.batches.load(Ordering::Relaxed);
        let dispatched: u64 = batch_histogram
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        // Disjoint outcomes first, accepted last — see the doc above.
        let completed = self.completed.load(Ordering::SeqCst);
        let errors = self.errors.load(Ordering::SeqCst);
        let timed_out = self.timed_out.load(Ordering::SeqCst);
        let rejected = self.rejected.load(Ordering::SeqCst);
        let accepted = self.accepted.load(Ordering::SeqCst);
        ModelStats {
            model: model.to_owned(),
            accepted,
            completed,
            rejected,
            timed_out,
            errors,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                dispatched as f64 / batches as f64
            },
            batch_histogram,
            queue_depth: self.queue_depth.load(Ordering::Relaxed) as u64,
            mean_latency_us: latency.mean(),
            p50_us: latency.quantile(0.50),
            p95_us: latency.quantile(0.95),
            p99_us: latency.quantile(0.99),
            mean_queue_us: queue_wait.mean(),
            queue_p50_us: queue_wait.quantile(0.50),
            queue_p95_us: queue_wait.quantile(0.95),
            queue_p99_us: queue_wait.quantile(0.99),
            plan: self
                .resolved_plan()
                .unwrap_or_else(|| "unresolved".to_owned()),
        }
    }
}

/// A point-in-time stats snapshot for one model — the payload of the
/// protocol's `stats` response.
#[derive(Clone, Debug, Serialize)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// Requests admitted past shape validation and offered to the
    /// queue (includes later-rejected ones); at every instant
    /// `accepted >= completed + rejected + timed_out`.
    pub accepted: u64,
    /// Requests whose prediction came back in time.
    pub completed: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
    /// Requests whose submitter gave up after the fixed 30 s request
    /// timeout.
    pub timed_out: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Scheduler `infer_batch` calls.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Batches of size `i + 1` (the micro-batch size distribution).
    pub batch_histogram: Vec<u64>,
    /// Requests queued at snapshot time (approximate).
    pub queue_depth: u64,
    /// Mean end-to-end latency.
    pub(crate) mean_latency_us: f64,
    /// Median end-to-end latency (octave-bucket estimate).
    pub p50_us: u64,
    /// 95th-percentile latency (octave-bucket estimate).
    pub(crate) p95_us: u64,
    /// 99th-percentile latency (octave-bucket estimate).
    pub p99_us: u64,
    /// Mean time a request sat queued before a scheduler drained it.
    pub(crate) mean_queue_us: f64,
    /// Median queue wait (octave-bucket estimate).
    pub(crate) queue_p50_us: u64,
    /// 95th-percentile queue wait (octave-bucket estimate).
    pub(crate) queue_p95_us: u64,
    /// 99th-percentile queue wait (octave-bucket estimate) — rising
    /// queue percentiles with flat execution percentiles is the
    /// backpressure-onset signature.
    pub(crate) queue_p99_us: u64,
    /// The sharding plan the most recent dispatch resolved to (e.g.
    /// `"rows(4)"`); `"unresolved"` before the first batch.
    pub plan: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentiles_track_bucket_order() {
        let h = LatencyHistogram::new();
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
    fn batch_histogram_counts_sizes() {
        let m = ModelMetrics::new(4);
        m.observe_batch(1);
        m.observe_batch(4);
        m.observe_batch(4);
        m.observe_batch(9); // clamped into the last bucket
        let s = m.snapshot("m");
        assert_eq!(s.batch_histogram, vec![1, 0, 0, 3]);
        assert_eq!(s.batches, 4);
        assert!(s.mean_batch > 1.0);
    }

    #[test]
    fn empty_metrics_snapshot_is_zeroed() {
        let s = ModelMetrics::new(8).snapshot("idle");
        assert_eq!(s.completed, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.queue_p99_us, 0);
        assert_eq!(s.mean_batch, 0.0);
    }

    #[test]
    fn queue_wait_is_separate_from_latency() {
        let m = ModelMetrics::new(8);
        m.queue_wait.observe(Duration::from_micros(100));
        m.latency.observe(Duration::from_micros(10_000));
        let s = m.snapshot("m");
        assert!((64..128).contains(&s.queue_p50_us), "{}", s.queue_p50_us);
        assert!((8_192..16_384).contains(&s.p50_us), "{}", s.p50_us);
    }
}
