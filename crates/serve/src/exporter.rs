//! The unified telemetry export plane (DESIGN.md §12): one Prometheus
//! text page covering the whole stack — per-model request counters and
//! raw latency/queue-wait histograms, the resolved plan info
//! series, `man-par` pool utilization, and the process-wide per-stage
//! span histograms `man-obs` collects.
//!
//! The page is served on demand through the `metrics` protocol verb
//! ([`prometheus_page`]) and, optionally, pushed on a schedule by the
//! [`MetricsExporter`] thread — a textfile-collector-style sink for
//! hosts without a scraper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use man_obs::export::PromText;

use crate::registry::ModelRegistry;

/// Renders the full Prometheus text page (exposition format 0.0.4) for
/// a registry: model series first (name order), then pool utilization,
/// then the per-stage span histograms.
pub fn prometheus_page(registry: &ModelRegistry) -> String {
    let mut page = PromText::new();

    let handles = registry.metrics_handles();
    page.header(
        "man_serve_requests_total",
        "counter",
        "Requests by model and outcome (accepted admits past shape validation).",
    );
    for (name, m) in &handles {
        // The same read discipline as ModelMetrics::snapshot — disjoint
        // outcomes first, accepted last — keeps the page's counters
        // consistent with the invariant.
        let completed = m.completed.load(Ordering::SeqCst);
        let errors = m.errors.load(Ordering::SeqCst);
        let timed_out = m.timed_out.load(Ordering::SeqCst);
        let rejected = m.rejected.load(Ordering::SeqCst);
        let accepted = m.accepted.load(Ordering::SeqCst);
        for (outcome, value) in [
            ("accepted", accepted),
            ("completed", completed),
            ("rejected", rejected),
            ("timed_out", timed_out),
            ("error", errors),
        ] {
            page.sample_u64(
                "man_serve_requests_total",
                &[("model", name), ("outcome", outcome)],
                value,
            );
        }
    }

    page.header(
        "man_serve_batches_total",
        "counter",
        "Coalesced infer_batch calls issued by the scheduler.",
    );
    for (name, m) in &handles {
        // ORDERING: monotone statistics counter; reporting only.
        let batches = m.batches.load(Ordering::Relaxed);
        page.sample_u64("man_serve_batches_total", &[("model", name)], batches);
    }

    page.header(
        "man_serve_queue_depth",
        "gauge",
        "Requests currently queued (approximate).",
    );
    for (name, m) in &handles {
        // ORDERING: advisory gauge; reporting only.
        let depth = m.queue_depth.load(Ordering::Relaxed) as u64;
        page.sample_u64("man_serve_queue_depth", &[("model", name)], depth);
    }

    page.header(
        "man_serve_model_info",
        "gauge",
        "Resolved plan label of the most recent dispatch (value is always 1).",
    );
    for (name, m) in &handles {
        if let Some(plan) = m.resolved_plan() {
            page.sample_u64(
                "man_serve_model_info",
                &[("model", name), ("plan", plan.as_str())],
                1,
            );
        }
    }

    page.header(
        "man_serve_request_latency_seconds",
        "histogram",
        "End-to-end request latency (enqueue to reply).",
    );
    for (name, m) in &handles {
        page.histogram_us(
            "man_serve_request_latency_seconds",
            &[("model", name)],
            &m.latency.snapshot(),
        );
    }

    page.header(
        "man_serve_queue_wait_seconds",
        "histogram",
        "Time requests sat queued before a scheduler drained them.",
    );
    for (name, m) in &handles {
        page.histogram_us(
            "man_serve_queue_wait_seconds",
            &[("model", name)],
            &m.queue_wait.snapshot(),
        );
    }

    let pool = man_par::pool_stats().snapshot();
    page.header(
        "man_pool_events_total",
        "counter",
        "Worker-pool activity: parks, chunk completions, submitter steal-backs, executed slots.",
    );
    for (kind, value) in [
        ("park", pool.parks),
        ("chunk", pool.chunks),
        ("steal", pool.steals),
        ("worker_slot", pool.worker_slots),
        ("inline_slot", pool.inline_slots),
    ] {
        page.sample_u64("man_pool_events_total", &[("kind", kind)], value);
    }
    page.header(
        "man_pool_time_seconds_total",
        "counter",
        "Cumulative pool worker time by state (busy executing slots vs parked idle).",
    );
    page.sample_f64(
        "man_pool_time_seconds_total",
        &[("state", "busy")],
        pool.busy_ns as f64 / 1e9,
    );
    page.sample_f64(
        "man_pool_time_seconds_total",
        &[("state", "parked")],
        pool.park_ns as f64 / 1e9,
    );

    page.header(
        "man_stage_seconds",
        "histogram",
        "Per-stage span latency across the serving lifecycle (accept through encode, plus pool stages).",
    );
    for (stage, snap) in man_obs::stage_snapshot() {
        if snap.is_empty() {
            continue;
        }
        page.histogram_us("man_stage_seconds", &[("stage", stage.label())], &snap);
    }

    page.header(
        "man_obs_level",
        "gauge",
        "Active observability level (value is always 1 on the active label).",
    );
    page.sample_u64("man_obs_level", &[("level", man_obs::level().label())], 1);

    page.finish()
}

/// A periodic export thread: renders [`prometheus_page`] every
/// `interval` and hands the text to `sink` (write it to a node-exporter
/// textfile, push it, log it — the exporter does not care). The sink
/// also runs once immediately at start, so a short-lived process still
/// exports at least one page.
pub struct MetricsExporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Starts the export loop.
    pub fn start(
        registry: Arc<ModelRegistry>,
        interval: Duration,
        mut sink: impl FnMut(String) + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("man-serve/exporter".into())
            .spawn(move || {
                // Tick in short slices so stop() is observed promptly
                // even with a long interval.
                let tick = interval
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(1));
                loop {
                    sink(prometheus_page(&registry));
                    let mut waited = Duration::ZERO;
                    while waited < interval {
                        if thread_stop.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(tick);
                        waited += tick;
                    }
                    if thread_stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
            })
            .expect("spawning the metrics exporter thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops and joins the export thread. Idempotent; also run by drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchConfig;
    use std::sync::Mutex;

    #[test]
    fn empty_registry_page_still_renders_pool_and_level() {
        let registry = ModelRegistry::new(BatchConfig::default());
        let page = prometheus_page(&registry);
        assert!(
            page.contains("# TYPE man_pool_events_total counter"),
            "{page}"
        );
        assert!(
            page.contains("man_pool_time_seconds_total{state=\"busy\"}"),
            "{page}"
        );
        assert!(page.contains("# TYPE man_obs_level gauge"), "{page}");
    }

    #[test]
    fn periodic_exporter_delivers_pages_and_stops() {
        let registry = ModelRegistry::new(BatchConfig::default());
        let pages: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_pages = Arc::clone(&pages);
        let mut exporter =
            MetricsExporter::start(registry, Duration::from_millis(5), move |page| {
                sink_pages.lock().expect("sink lock").push(page)
            });
        // The first page is exported immediately; wait for at least one
        // more tick, then stop.
        std::thread::sleep(Duration::from_millis(30));
        exporter.stop();
        let exported = pages.lock().expect("sink lock");
        assert!(
            exported.len() >= 2,
            "expected >=2 pages, got {}",
            exported.len()
        );
        assert!(exported[0].contains("man_obs_level"));
    }
}
