//! The unified telemetry export plane (DESIGN.md §12): one Prometheus
//! text page covering the whole stack — per-model request counters and
//! raw latency/queue-wait histograms, the resolved plan info
//! series, `man-par` pool utilization, and the process-wide per-stage
//! span histograms `man-obs` collects.
//!
//! The page is served on demand through the `metrics` protocol verb
//! ([`prometheus_page`]).

use std::sync::atomic::Ordering;

use man_obs::export::PromText;

use crate::registry::ModelRegistry;

/// Renders the full Prometheus text page (exposition format 0.0.4) for
/// a registry: model series first (name order), then pool utilization,
/// then the per-stage span histograms.
pub(crate) fn prometheus_page(registry: &ModelRegistry) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchConfig;

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
}
