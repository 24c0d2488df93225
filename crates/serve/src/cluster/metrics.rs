//! Router-side observability: retry/failover counters and the cluster
//! Prometheus page.
//!
//! The page rides the existing export plane (`man_obs::export` — the
//! same `PromText` builder the single-process [`crate::exporter`]
//! uses) and answers the standard `metrics` verb, so a scrape config
//! pointed at a router needs nothing cluster-specific. Metric names
//! are namespaced `man_cluster_*`; per-backend series carry a `node`
//! label.

use std::sync::atomic::{AtomicU64, Ordering};

use man_obs::export::PromText;

use super::router::Router;

/// Lifetime routing counters (all advisory — they report, they never
/// synchronize data).
#[derive(Default)]
pub(crate) struct RouterCounters {
    /// Route attempts beyond the first.
    retries: AtomicU64,
    /// Predicts answered by a non-preferred replica.
    failovers: AtomicU64,
    /// Predicts that burned the whole retry budget.
    no_backend: AtomicU64,
}

impl RouterCounters {
    pub(crate) fn record_retry(&self) {
        // ORDERING: advisory statistics counter.
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failover(&self) {
        // ORDERING: advisory statistics counter.
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_no_backend(&self) {
        // ORDERING: advisory statistics counter.
        self.no_backend.fetch_add(1, Ordering::Relaxed);
    }

    /// `(retries, failovers, no_backend)` at this instant.
    // ORDERING: advisory snapshot of statistics counters.
    pub(crate) fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.retries.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.no_backend.load(Ordering::Relaxed),
        )
    }
}

/// Renders the router's Prometheus text page: routing counters,
/// per-backend health/traffic/latency, and placement gauges.
pub(crate) fn cluster_prometheus_page(router: &Router) -> String {
    let stats = router.stats();
    let mut page = PromText::new();

    page.header(
        "man_cluster_nodes",
        "gauge",
        "Worker nodes in the routing table.",
    );
    page.sample_u64("man_cluster_nodes", &[], stats.nodes.len() as u64);

    page.header(
        "man_cluster_models",
        "gauge",
        "Models placed on the cluster.",
    );
    page.sample_u64("man_cluster_models", &[], stats.models.len() as u64);

    page.header(
        "man_cluster_retries_total",
        "counter",
        "Route attempts beyond the first.",
    );
    let (retries, failovers, no_backend) = router.counters().snapshot();
    page.sample_u64("man_cluster_retries_total", &[], retries);

    page.header(
        "man_cluster_failovers_total",
        "counter",
        "Predicts answered by a non-preferred replica.",
    );
    page.sample_u64("man_cluster_failovers_total", &[], failovers);

    page.header(
        "man_cluster_no_backend_total",
        "counter",
        "Predicts that exhausted the retry budget.",
    );
    page.sample_u64("man_cluster_no_backend_total", &[], no_backend);

    page.header(
        "man_cluster_backend_up",
        "gauge",
        "Whether the router considers this backend healthy.",
    );
    for node in &stats.nodes {
        page.sample_u64(
            "man_cluster_backend_up",
            &[("node", &node.node)],
            u64::from(node.healthy),
        );
    }

    page.header(
        "man_cluster_backend_requests_total",
        "counter",
        "Requests the router sent this backend.",
    );
    for node in &stats.nodes {
        page.sample_u64(
            "man_cluster_backend_requests_total",
            &[("node", &node.node)],
            node.requests,
        );
    }

    page.header(
        "man_cluster_backend_failures_total",
        "counter",
        "Transport failures observed against this backend.",
    );
    for node in &stats.nodes {
        page.sample_u64(
            "man_cluster_backend_failures_total",
            &[("node", &node.node)],
            node.failures,
        );
    }

    page.header(
        "man_cluster_backend_latency_us",
        "histogram",
        "Router-to-worker round-trip latency (microseconds).",
    );
    for backend in router.backends() {
        page.histogram_us(
            "man_cluster_backend_latency_us",
            &[("node", backend.addr())],
            &backend.latency_snapshot(),
        );
    }

    page.header(
        "man_cluster_model_replicas",
        "gauge",
        "Replica count per placed model.",
    );
    for placement in &stats.models {
        page.sample_u64(
            "man_cluster_model_replicas",
            &[("model", &placement.model)],
            placement.replicas.len() as u64,
        );
    }

    page.finish()
}
