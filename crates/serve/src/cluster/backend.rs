//! One worker node as the router sees it: a connection pool over the
//! binary framing, health state, and per-backend metrics.
//!
//! The router speaks MANB to its workers — the same length-prefixed
//! binary framing clients may use, reused as the inter-node transport
//! (`PROTOCOL.md` §binary). Every verb the router relays travels as
//! JSON-in-a-frame; `predict` uses the compact fixed-layout encoding,
//! so the router hop adds no JSON to the hot path.
//!
//! Error discrimination is the heart of failover: a *transport*
//! failure (`io`, `bad_response`) means the connection — and possibly
//! the worker — is gone, so the connection is dropped, the failure
//! counter bumps, and the caller may retry another replica. A
//! *server-reported* error (`overloaded`, `shape_mismatch`, ...) means
//! the worker is alive and answering; the connection goes back to the
//! pool and the error passes through to the client verbatim.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use man_obs::OctaveHistogram;
use man_repro::Prediction;

use crate::server::{BinaryClient, WireError};

/// Idle MANB connections pooled per backend; extra connections returned
/// at checkin are closed.
const POOL_PER_BACKEND: usize = 4;
/// Consecutive transport failures before a backend is demoted.
const UNHEALTHY_AFTER: u32 = 1;

/// Wire-error codes that indicate the *transport* (or the peer
/// process) failed, as opposed to the worker answering with an error.
fn is_transport(code: &str) -> bool {
    code == "io" || code == "bad_response"
}

/// A worker node: address, pooled MANB connections, health state and
/// router-side metrics. Shared (`Arc`) between the routing table, the
/// health checker and every in-flight request.
pub(crate) struct Backend {
    /// The worker's `host:port` name — the ring identity.
    addr: String,
    /// The resolved socket address connections dial.
    resolved: SocketAddr,
    /// Idle pooled connections (LIFO: the most recently used
    /// connection is the most likely to still be alive).
    pool: Mutex<Vec<BinaryClient>>,
    /// Whether routing should prefer this backend. Flipped by the
    /// failure accounting below and by the health checker.
    healthy: AtomicBool,
    /// Transport failures since the last success.
    consecutive_failures: AtomicU32,
    /// Requests the router sent this backend (predict + relayed verbs).
    requests: AtomicU64,
    /// Transport failures observed against this backend.
    failures: AtomicU64,
    /// Per-request round-trip latency (µs) through this backend.
    latency: OctaveHistogram,
}

/// A point-in-time view of one backend, for `health` responses, the
/// cluster Prometheus page and the bench reports.
#[derive(Clone, Debug)]
pub struct BackendStats {
    /// The worker's `host:port` name.
    pub node: String,
    /// Whether routing currently prefers this backend.
    pub healthy: bool,
    /// Requests the router sent this backend.
    pub requests: u64,
    /// Transport failures observed against this backend.
    pub failures: u64,
    /// Router→worker round-trip p50, µs.
    pub p50_us: u64,
    /// Router→worker round-trip p99, µs.
    pub p99_us: u64,
}

impl Backend {
    /// Resolves `addr` and builds an (initially healthy, unconnected)
    /// backend. Connections are dialed lazily per request and pooled.
    ///
    /// # Errors
    ///
    /// `io` when the address does not resolve.
    pub(crate) fn new(addr: &str) -> Result<Self, WireError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| WireError {
                code: "io".into(),
                message: format!("cannot resolve `{addr}`: {e}"),
            })?
            .next()
            .ok_or_else(|| WireError {
                code: "io".into(),
                message: format!("`{addr}` resolves to no address"),
            })?;
        Ok(Self {
            addr: addr.to_owned(),
            resolved,
            pool: Mutex::new(Vec::new()),
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            latency: OctaveHistogram::new(),
        })
    }

    /// The worker's `host:port` name.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether routing currently prefers this backend.
    pub(crate) fn is_healthy(&self) -> bool {
        // ORDERING: advisory routing hint — a stale read costs at most
        // one extra failover attempt; the retry loop is the mechanism.
        self.healthy.load(Ordering::Relaxed)
    }

    /// Records a successful round trip: resets the failure streak and
    /// restores the healthy flag (failover recovery).
    fn mark_success(&self) {
        // ORDERING: advisory health state — routing re-reads it every
        // attempt and tolerates staleness by retrying.
        self.consecutive_failures.store(0, Ordering::Relaxed);
        // ORDERING: advisory routing hint (see is_healthy).
        self.healthy.store(true, Ordering::Relaxed);
    }

    /// Records a transport failure; past the threshold the backend
    /// drops out of routing preference until a round trip succeeds.
    fn mark_failure(&self) {
        // ORDERING: advisory statistics counter.
        self.failures.fetch_add(1, Ordering::Relaxed);
        // ORDERING: advisory health state; the exact streak count only
        // gates how fast the flag flips, never data visibility.
        let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= UNHEALTHY_AFTER {
            // ORDERING: advisory routing hint (see is_healthy).
            self.healthy.store(false, Ordering::Relaxed);
        }
    }

    /// Takes a pooled connection or dials a new one.
    fn checkout(&self, timeout: Duration) -> Result<BinaryClient, WireError> {
        let pooled = {
            let mut pool = self.pool.lock().expect("backend pool lock poisoned");
            pool.pop()
        };
        match pooled {
            Some(conn) => Ok(conn),
            None => BinaryClient::connect_timeout(&self.resolved, timeout),
        }
    }

    /// Returns a connection to the pool (dropped when at capacity).
    fn checkin(&self, conn: BinaryClient) {
        let mut pool = self.pool.lock().expect("backend pool lock poisoned");
        if pool.len() < POOL_PER_BACKEND {
            pool.push(conn);
        }
    }

    /// Closes every idle pooled connection (drain on `leave`).
    pub(crate) fn drain_pool(&self) {
        let mut pool = self.pool.lock().expect("backend pool lock poisoned");
        pool.clear();
    }

    /// Runs one round trip on a pooled connection, with the transport
    /// vs server-error discrimination and all the health/metrics
    /// accounting.
    fn round_trip<T>(
        &self,
        timeout: Duration,
        op: impl FnOnce(&mut BinaryClient) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        // ORDERING: advisory statistics counter.
        self.requests.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let mut conn = match self.checkout(timeout) {
            Ok(conn) => conn,
            Err(e) => {
                self.mark_failure();
                return Err(e);
            }
        };
        match op(&mut conn) {
            Ok(value) => {
                self.latency.observe(start.elapsed());
                self.mark_success();
                self.checkin(conn);
                Ok(value)
            }
            Err(e) if is_transport(&e.code) => {
                // The connection is in an unknown framing state: drop
                // it (close the socket) rather than pool it.
                self.mark_failure();
                Err(e)
            }
            Err(e) => {
                // The worker answered (with an error): it is alive.
                self.latency.observe(start.elapsed());
                self.mark_success();
                self.checkin(conn);
                Err(e)
            }
        }
    }

    /// One compact binary `predict` through this backend.
    ///
    /// # Errors
    ///
    /// Transport errors (connection dropped, failure recorded) or the
    /// worker's own error verbatim.
    pub(crate) fn predict(
        &self,
        model: &str,
        input: &[f32],
        timeout: Duration,
    ) -> Result<Prediction, WireError> {
        let (class, scores) = self.round_trip(timeout, |conn| conn.predict(model, input))?;
        Ok(Prediction { class, scores })
    }

    /// One JSON verb through this backend, `ok` envelope unwrapped.
    ///
    /// # Errors
    ///
    /// As [`Backend::predict`].
    pub(crate) fn request_ok(
        &self,
        line: &str,
        timeout: Duration,
    ) -> Result<serde::Value, WireError> {
        self.round_trip(timeout, |conn| conn.request_ok(line))
    }

    /// One health probe (the `stats` verb, as the cheapest
    /// full-round-trip request a worker serves). Success restores the
    /// healthy flag; failure feeds the same accounting as real traffic.
    pub(crate) fn probe(&self, timeout: Duration) -> bool {
        self.round_trip(timeout, |conn| conn.request_ok(r#"{"op":"stats"}"#))
            .is_ok()
    }

    /// A point-in-time stats snapshot.
    pub(crate) fn stats(&self) -> BackendStats {
        let snap = self.latency.snapshot();
        BackendStats {
            node: self.addr.clone(),
            healthy: self.is_healthy(),
            // ORDERING: advisory snapshot of statistics counters.
            requests: self.requests.load(Ordering::Relaxed),
            // ORDERING: advisory snapshot of statistics counters.
            failures: self.failures.load(Ordering::Relaxed),
            p50_us: snap.quantile(0.50),
            p99_us: snap.quantile(0.99),
        }
    }

    /// The latency histogram snapshot (for the Prometheus page).
    pub(crate) fn latency_snapshot(&self) -> man_obs::HistogramSnapshot {
        self.latency.snapshot()
    }
}
