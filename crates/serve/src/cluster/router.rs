//! The cluster router: shards models across worker processes and
//! serves clients through the same front-end engines a plain server
//! uses.
//!
//! A [`Router`] implements [`RequestHandler`], so
//! [`crate::Server::bind_handler`] gives it both wire modes (NDJSON +
//! MANB binary), the reactor slab, and every backpressure valve for
//! free — the router *is* a server whose "registry" happens to live in
//! other processes. Worker-facing traffic always travels MANB
//! ([`super::backend`]).
//!
//! ## Routing
//!
//! Model names shard over a consistent-hash [`HashRing`] of 64 virtual
//! nodes per worker; each model is served by its first [`REPLICAS`]
//! distinct ring successors. `predict` tries replicas in ring
//! preference order, healthy first, with a budget of three attempts;
//! transport failures fail over to the next replica, worker-answered
//! errors pass through verbatim (`ServeError::Upstream` keeps the
//! worker's stable code). When the budget burns out: `no_backend`.
//!
//! ## Health and failover
//!
//! A checker thread probes every backend each
//! [`RouterConfig::health_interval`] with the `stats` verb. A transport
//! failure (from a probe *or* real traffic) marks a backend unhealthy,
//! which demotes it in routing preference; the next successful round trip —
//! usually a probe after the worker returns — restores it. Because
//! every replica answers bit-identically (the workspace invariant),
//! failover is invisible to clients beyond latency.
//!
//! ## Rebalance (drain-then-join)
//!
//! `join`/`leave`/`load`/`unload` serialize on an admin lock and never
//! mutate the routing table until the *next* placement is already
//! serviceable: models are loaded onto newly-responsible nodes first,
//! the table swaps second, and only then are moved models unloaded
//! from nodes that shed them. In-flight requests route on whichever
//! table they read — both sides can answer during the handoff.
//!
//! LOCK-ORDER: `admin` → `table` → (backend) `pool`; the predict path
//! takes `table` alone and drops it before any backend I/O.

use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;

use man_repro::{ManError, Prediction, ServeError};

use super::backend::{Backend, BackendStats};
use super::metrics::{cluster_prometheus_page, RouterCounters};
use super::ring::HashRing;
use crate::protocol::{error_response, metrics_response, render, unload_response, Request};
use crate::reactor::serve_request;
use crate::server::{RequestHandler, WireError};

/// Replica-set size: every model is served by this many distinct
/// workers (fewer while the cluster has fewer nodes).
pub const REPLICAS: usize = 2;
/// Virtual nodes per worker on the hash ring.
const VNODES: usize = 64;
/// Total route attempts per predict before `no_backend`.
const MAX_ATTEMPTS: usize = 3;

/// The router's timings: the two settings the cluster drill and tests
/// tune. Placement, retry and pooling are fixed constants (DESIGN.md
/// §14).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Connect + read + write deadline for one worker round trip.
    pub request_timeout: Duration,
    /// How often the health checker probes every backend.
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(2),
            health_interval: Duration::from_millis(250),
        }
    }
}

/// The routing table: swapped atomically (under the write lock) so the
/// predict path sees either the old placement or the new, never a mix.
struct RouteTable {
    ring: HashRing,
    nodes: std::collections::BTreeMap<String, Arc<Backend>>,
    /// Each model's artifact path, which workers load it from (re-sent
    /// on rebalance).
    models: std::collections::BTreeMap<String, String>,
}

impl RouteTable {
    /// The backends serving `model`, in ring preference order, or
    /// `None` when the router never loaded it.
    fn replica_backends(&self, model: &str) -> Option<Vec<Arc<Backend>>> {
        self.models.contains_key(model).then(|| {
            self.ring
                .replicas(model, REPLICAS)
                .into_iter()
                .filter_map(|a| self.nodes.get(a).map(Arc::clone))
                .collect()
        })
    }
}

/// Where a model lives: its name and replica addresses in ring order.
#[derive(Clone, Debug)]
pub struct ModelPlacement {
    /// Registry name.
    pub model: String,
    /// Replica node addresses, ring preference order.
    pub replicas: Vec<String>,
}

/// A point-in-time view of the whole router, for `health` responses,
/// the Prometheus page and the bench reports.
#[derive(Clone, Debug)]
pub struct RouterStats {
    /// Every backend's state.
    pub nodes: Vec<BackendStats>,
    /// Every model's placement.
    pub models: Vec<ModelPlacement>,
    /// Route attempts beyond the first, lifetime.
    pub retries: u64,
    /// Predicts answered by a replica other than the ring-preferred
    /// one, lifetime.
    pub failovers: u64,
    /// Predicts that burned the whole retry budget, lifetime.
    pub no_backend: u64,
}

/// Signals the health-checker thread to exit promptly.
struct CheckerGate {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// The cluster router. Construct with [`Router::new`], register
/// workers with [`Router::join_node`], then hand it to
/// [`crate::Server::bind_handler`] to serve clients.
pub struct Router {
    config: RouterConfig,
    table: RwLock<RouteTable>,
    /// Serializes admin operations (load/unload/join/leave) so
    /// rebalances never interleave. LOCK-ORDER: `admin` → `table`.
    admin: Mutex<()>,
    counters: RouterCounters,
    gate: Arc<CheckerGate>,
    checker: Mutex<Option<JoinHandle<()>>>,
}

/// Lifts a worker-side wire error into the unified error type,
/// preserving the worker's stable code for the client.
fn upstream(e: WireError) -> ManError {
    ServeError::Upstream {
        code: e.code,
        message: e.message,
    }
    .into()
}

/// Wire-error codes worth a failover retry: the transport died, the
/// worker is shutting down, or (mid-rebalance) it no longer hosts the
/// model. Everything else is a real answer and passes through.
fn retryable(code: &str) -> bool {
    matches!(
        code,
        "io" | "bad_response" | "unavailable" | "unknown_model"
    )
}

impl Router {
    /// Builds an empty router and starts its health-checker thread.
    /// The checker holds only a `Weak` reference — dropping the last
    /// `Arc<Router>` lets it exit on its next tick; call
    /// [`Router::shutdown`] for a prompt, joined stop.
    pub fn new(config: RouterConfig) -> Arc<Self> {
        let router = Arc::new(Self {
            table: RwLock::new(RouteTable {
                ring: HashRing::new(VNODES),
                nodes: std::collections::BTreeMap::new(),
                models: std::collections::BTreeMap::new(),
            }),
            admin: Mutex::new(()),
            counters: RouterCounters::default(),
            gate: Arc::new(CheckerGate {
                stop: Mutex::new(false),
                cv: Condvar::new(),
            }),
            checker: Mutex::new(None),
            config,
        });
        let weak = Arc::downgrade(&router);
        let gate = Arc::clone(&router.gate);
        let interval = router.config.health_interval;
        let handle = std::thread::Builder::new()
            .name("man-cluster/health".into())
            .spawn(move || health_loop(&weak, &gate, interval))
            .expect("spawning the health-checker thread");
        *router.checker.lock().expect("router checker lock poisoned") = Some(handle);
        router
    }

    /// Stops the health checker and joins it. Idempotent; called by
    /// `Drop` too, but an explicit call gives a prompt, deterministic
    /// stop.
    pub fn shutdown(&self) {
        {
            let mut stop = self.gate.stop.lock().expect("checker gate lock poisoned");
            *stop = true;
        }
        self.gate.cv.notify_all();
        let handle = {
            let mut checker = self.checker.lock().expect("router checker lock poisoned");
            checker.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    // -- admin plane ---------------------------------------------------

    /// Registers a worker node and rebalances: every model whose new
    /// replica set includes the node is loaded onto it *before* the
    /// routing table swaps, then unloaded (best-effort) from nodes the
    /// move displaced. Returns how many models moved.
    ///
    /// # Errors
    ///
    /// `bad_request` when already joined; the probe/load failure
    /// otherwise (table untouched).
    pub fn join_node(&self, node: &str) -> Result<usize, ManError> {
        let _admin = self.admin.lock().expect("router admin lock poisoned");
        let backend = Arc::new(Backend::new(node).map_err(upstream)?);
        if !backend.probe(self.config.request_timeout) {
            return Err(ServeError::Upstream {
                code: "io".into(),
                message: format!("node `{node}` did not answer the stats probe"),
            }
            .into());
        }
        let (next_ring, loads, drops) = {
            let table = self.table.read().expect("router table lock poisoned");
            if table.nodes.contains_key(node) {
                return Err(ServeError::Protocol(format!("node `{node}` already joined")).into());
            }
            let mut next_ring = table.ring.clone();
            next_ring.add(node);
            let mut loads: Vec<(String, String)> = Vec::new();
            let mut drops: Vec<(String, Arc<Backend>)> = Vec::new();
            for (model, path) in &table.models {
                let old: Vec<String> = table
                    .ring
                    .replicas(model, REPLICAS)
                    .into_iter()
                    .map(str::to_owned)
                    .collect();
                let new: Vec<String> = next_ring
                    .replicas(model, REPLICAS)
                    .into_iter()
                    .map(str::to_owned)
                    .collect();
                if new.iter().any(|a| a == node) {
                    loads.push((model.clone(), path.clone()));
                }
                for shed in old.iter().filter(|a| !new.contains(a)) {
                    if let Some(b) = table.nodes.get(shed) {
                        drops.push((model.clone(), Arc::clone(b)));
                    }
                }
            }
            (next_ring, loads, drops)
        };
        // Drain-then-join: the node must be able to answer for every
        // model it will own before any client request can reach it.
        for (model, path) in &loads {
            backend
                .request_ok(&load_line(model, path), self.config.request_timeout)
                .map_err(upstream)?;
        }
        {
            let mut table = self.table.write().expect("router table lock poisoned");
            table.ring = next_ring;
            table.nodes.insert(node.to_owned(), backend);
        }
        // Only after the swap do displaced nodes shed their copies —
        // requests routed on the old table still find them until here.
        for (model, shed) in &drops {
            let _ = shed.request_ok(&unload_line(model), self.config.request_timeout);
        }
        Ok(loads.len())
    }

    /// Deregisters a worker node with drain semantics: models it
    /// hosted are loaded onto their new replicas first, the table
    /// swaps, then the departing node is (best-effort) unloaded and
    /// its connection pool closed. Returns how many models moved.
    ///
    /// # Errors
    ///
    /// `bad_request` for an unknown node; a load failure on a gaining
    /// replica aborts the rebalance (table untouched).
    pub fn leave_node(&self, node: &str) -> Result<usize, ManError> {
        let _admin = self.admin.lock().expect("router admin lock poisoned");
        let (leaving, next_ring, loads, hosted) = {
            let table = self.table.read().expect("router table lock poisoned");
            let Some(leaving) = table.nodes.get(node).map(Arc::clone) else {
                return Err(ServeError::Protocol(format!("unknown node `{node}`")).into());
            };
            let mut next_ring = table.ring.clone();
            next_ring.remove(node);
            let mut loads: Vec<(String, String, Arc<Backend>)> = Vec::new();
            let mut hosted: Vec<String> = Vec::new();
            for (model, path) in &table.models {
                let old: Vec<String> = table
                    .ring
                    .replicas(model, REPLICAS)
                    .into_iter()
                    .map(str::to_owned)
                    .collect();
                if old.iter().any(|a| a == node) {
                    hosted.push(model.clone());
                }
                for gained in next_ring
                    .replicas(model, REPLICAS)
                    .iter()
                    .filter(|a| !old.iter().any(|o| o == *a))
                {
                    if let Some(b) = table.nodes.get(*gained) {
                        loads.push((model.clone(), path.clone(), Arc::clone(b)));
                    }
                }
            }
            (leaving, next_ring, loads, hosted)
        };
        // Gaining replicas come up before the leaving node goes away.
        for (model, path, gaining) in &loads {
            gaining
                .request_ok(&load_line(model, path), self.config.request_timeout)
                .map_err(upstream)?;
        }
        {
            let mut table = self.table.write().expect("router table lock poisoned");
            table.ring = next_ring;
            table.nodes.remove(node);
        }
        // Drain the departing worker: evict its models (it may already
        // be gone — that is exactly the failover case) and close the
        // idle connections.
        for model in &hosted {
            let _ = leaving.request_ok(&unload_line(model), self.config.request_timeout);
        }
        leaving.drain_pool();
        Ok(loads.len())
    }

    /// Loads a model onto its replica set (by artifact path visible to
    /// the workers) and installs it in the routing table. On a partial
    /// failure the already-loaded replicas are (best-effort) rolled
    /// back and the table is untouched.
    ///
    /// # Errors
    ///
    /// `no_backend` on an empty cluster; the first worker's load
    /// failure verbatim otherwise.
    pub fn load_model(&self, model: &str, path: &str) -> Result<Value, ManError> {
        let _admin = self.admin.lock().expect("router admin lock poisoned");
        let targets = {
            let table = self.table.read().expect("router table lock poisoned");
            let reps = table.ring.replicas(model, REPLICAS);
            if reps.is_empty() {
                return Err(ServeError::NoBackend {
                    model: model.to_owned(),
                    attempts: 0,
                }
                .into());
            }
            reps.into_iter()
                .map(|a| Arc::clone(&table.nodes[a]))
                .collect::<Vec<_>>()
        };
        let line = load_line(model, path);
        let mut first: Option<Value> = None;
        for (i, backend) in targets.iter().enumerate() {
            match backend.request_ok(&line, self.config.request_timeout) {
                Ok(v) => {
                    if first.is_none() {
                        first = Some(v);
                    }
                }
                Err(e) => {
                    for done in &targets[..i] {
                        let _ = done.request_ok(&unload_line(model), self.config.request_timeout);
                    }
                    return Err(upstream(e));
                }
            }
        }
        {
            let mut table = self.table.write().expect("router table lock poisoned");
            table.models.insert(model.to_owned(), path.to_owned());
        }
        // Relay the first worker's response, with the replica count
        // appended (append-only: existing fields stay verbatim).
        let mut response = first.expect("targets is non-empty");
        if let Value::Object(pairs) = &mut response {
            pairs.push(("replicas".into(), Value::U64(targets.len() as u64)));
        }
        Ok(response)
    }

    /// Unloads a model from every replica (best-effort — a dead
    /// replica has nothing to unload) and removes it from the table.
    ///
    /// # Errors
    ///
    /// `unknown_model` when the router never loaded it.
    pub(crate) fn unload_model(&self, model: &str) -> Result<(), ManError> {
        let _admin = self.admin.lock().expect("router admin lock poisoned");
        let targets = self
            .table
            .read()
            .expect("router table lock poisoned")
            .replica_backends(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()))?;
        for backend in &targets {
            let _ = backend.request_ok(&unload_line(model), self.config.request_timeout);
        }
        let mut table = self.table.write().expect("router table lock poisoned");
        table.models.remove(model);
        Ok(())
    }

    // -- data plane ----------------------------------------------------

    /// Routes one predict to the model's replica set: ring preference
    /// order, healthy backends first, bounded retries, transport
    /// failures failing over and worker answers passing through.
    ///
    /// # Errors
    ///
    /// `unknown_model` for a model the router never loaded,
    /// `no_backend` when the retry budget burns out, or the worker's
    /// own error verbatim.
    pub fn route_predict(&self, model: &str, input: &[f32]) -> Result<Prediction, ManError> {
        let targets = self
            .table
            .read()
            .expect("router table lock poisoned")
            .replica_backends(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()))?;
        if targets.is_empty() {
            self.counters.record_no_backend();
            return Err(ServeError::NoBackend {
                model: model.to_owned(),
                attempts: 0,
            }
            .into());
        }
        // Healthy replicas first, ring order preserved within each
        // class (stable sort); unhealthy ones stay reachable as a last
        // resort — the health flag is advisory, the retry loop decides.
        let mut ordered: Vec<(usize, Arc<Backend>)> = targets.into_iter().enumerate().collect();
        ordered.sort_by_key(|(_, b)| !b.is_healthy());
        let mut attempts = 0usize;
        let mut last_retryable: Option<WireError> = None;
        for (preference, backend) in ordered.iter().cycle().take(MAX_ATTEMPTS) {
            attempts += 1;
            if attempts > 1 {
                self.counters.record_retry();
            }
            match backend.predict(model, input, self.config.request_timeout) {
                Ok(p) => {
                    if *preference != 0 {
                        self.counters.record_failover();
                    }
                    return Ok(p);
                }
                Err(e) if retryable(&e.code) => last_retryable = Some(e),
                Err(e) => return Err(upstream(e)),
            }
        }
        self.counters.record_no_backend();
        let _ = last_retryable; // detail already counted per backend
        Err(ServeError::NoBackend {
            model: model.to_owned(),
            attempts,
        }
        .into())
    }

    /// A point-in-time snapshot of every backend, placement and
    /// router counter.
    pub fn stats(&self) -> RouterStats {
        let table = self.table.read().expect("router table lock poisoned");
        let nodes = table.nodes.values().map(|b| b.stats()).collect();
        let models = table
            .models
            .keys()
            .map(|model| ModelPlacement {
                model: model.clone(),
                replicas: table
                    .ring
                    .replicas(model, REPLICAS)
                    .into_iter()
                    .map(str::to_owned)
                    .collect(),
            })
            .collect();
        let (retries, failovers, no_backend) = self.counters.snapshot();
        RouterStats {
            nodes,
            models,
            retries,
            failovers,
            no_backend,
        }
    }

    /// Every backend (for the health checker and the metrics page).
    pub(crate) fn backends(&self) -> Vec<Arc<Backend>> {
        let table = self.table.read().expect("router table lock poisoned");
        table.nodes.values().map(Arc::clone).collect()
    }

    /// The router's counters (for the metrics page).
    pub(crate) fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    // -- wire rendering ------------------------------------------------

    /// The router's `health` response: `role:"router"` plus per-node
    /// health and per-model placements.
    fn health_line(&self) -> String {
        let stats = self.stats();
        let nodes = stats
            .nodes
            .iter()
            .map(|n| {
                Value::Object(vec![
                    ("node".into(), Value::Str(n.node.clone())),
                    ("healthy".into(), Value::Bool(n.healthy)),
                    ("requests".into(), Value::U64(n.requests)),
                    ("failures".into(), Value::U64(n.failures)),
                ])
            })
            .collect();
        let models = stats
            .models
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("model".into(), Value::Str(p.model.clone())),
                    (
                        "replicas".into(),
                        Value::Array(p.replicas.iter().map(|a| Value::Str(a.clone())).collect()),
                    ),
                ])
            })
            .collect();
        render(&Value::Object(vec![
            ("ok".into(), Value::Bool(true)),
            ("role".into(), Value::Str("router".into())),
            ("nodes".into(), Value::Array(nodes)),
            ("models".into(), Value::Array(models)),
        ]))
    }

    /// Fans `stats` out to the relevant workers and merges the
    /// `models` arrays, tagging each row with its `node` (append-only:
    /// worker rows keep their fields verbatim). Unreachable workers
    /// are skipped — stats reports what answers.
    fn stats_line(&self, model: Option<&str>) -> String {
        let targets: Vec<Arc<Backend>> = match model {
            None => self.backends(),
            Some(m) => {
                let table = self.table.read().expect("router table lock poisoned");
                match table.replica_backends(m) {
                    Some(targets) => targets,
                    None => return error_response(&ServeError::UnknownModel(m.to_owned()).into()),
                }
            }
        };
        let line = match model {
            None => r#"{"op":"stats"}"#.to_owned(),
            Some(m) => render(&Value::Object(vec![
                ("op".into(), Value::Str("stats".into())),
                ("model".into(), Value::Str(m.into())),
            ])),
        };
        let mut merged: Vec<Value> = Vec::new();
        for backend in &targets {
            let Ok(response) = backend.request_ok(&line, self.config.request_timeout) else {
                continue;
            };
            let Value::Object(pairs) = response else {
                continue;
            };
            for (key, value) in pairs {
                if key != "models" {
                    continue;
                }
                let Value::Array(rows) = value else { continue };
                for row in rows {
                    if let Value::Object(mut fields) = row {
                        fields.push(("node".into(), Value::Str(backend.addr().to_owned())));
                        merged.push(Value::Object(fields));
                    }
                }
            }
        }
        render(&Value::Object(vec![
            ("ok".into(), Value::Bool(true)),
            ("models".into(), Value::Array(merged)),
        ]))
    }
}

impl RequestHandler for Router {
    fn handle(&self, request: Request) -> String {
        let moved_reply = |node: String, moved: usize| {
            render(&Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("node".into(), Value::Str(node)),
                ("moved".into(), Value::U64(moved as u64)),
            ]))
        };
        let reply = match request {
            Request::Load { model, path } => self.load_model(&model, &path).map(|v| render(&v)),
            Request::Unload { model } => {
                self.unload_model(&model).map(|()| unload_response(&model))
            }
            Request::Stats { model } => Ok(self.stats_line(model.as_deref())),
            Request::Metrics => Ok(metrics_response(&cluster_prometheus_page(self))),
            Request::Health => Ok(self.health_line()),
            Request::Join { node } => self.join_node(&node).map(|n| moved_reply(node, n)),
            Request::Leave { node } => self.leave_node(&node).map(|n| moved_reply(node, n)),
            request @ (Request::Predict { .. } | Request::DumpTrace) => {
                Ok(serve_request(self, request))
            }
        };
        reply.unwrap_or_else(|e| error_response(&e))
    }

    fn handle_predict(&self, model: &str, input: Vec<f32>) -> Result<Prediction, ManError> {
        self.route_predict(model, &input)
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn load_line(model: &str, path: &str) -> String {
    render(&Value::Object(vec![
        ("op".into(), Value::Str("load".into())),
        ("model".into(), Value::Str(model.into())),
        ("path".into(), Value::Str(path.into())),
    ]))
}

fn unload_line(model: &str) -> String {
    render(&Value::Object(vec![
        ("op".into(), Value::Str("unload".into())),
        ("model".into(), Value::Str(model.into())),
    ]))
}

/// The health-checker loop: probe every backend, then wait out the
/// interval on the gate (so shutdown interrupts the wait promptly).
/// Holds only a `Weak<Router>` — the router's lifetime is owned by its
/// users, never by its own checker.
fn health_loop(router: &Weak<Router>, gate: &CheckerGate, interval: Duration) {
    loop {
        {
            let stop = gate.stop.lock().expect("checker gate lock poisoned");
            if *stop {
                return;
            }
        }
        let Some(router) = router.upgrade() else {
            return;
        };
        let timeout = router.config.request_timeout;
        let backends = router.backends();
        drop(router); // do not pin the router's lifetime across probes
        for backend in backends {
            backend.probe(timeout);
        }
        let stop = gate.stop.lock().expect("checker gate lock poisoned");
        let (stop, _) = gate
            .cv
            .wait_timeout(stop, interval)
            .expect("checker gate lock poisoned");
        if *stop {
            return;
        }
    }
}
