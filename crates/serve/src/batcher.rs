//! The dynamic micro-batching scheduler: one bounded queue and a pool of
//! worker threads per hosted model.
//!
//! Callers submit single requests; workers coalesce whatever is queued —
//! up to [`BatchConfig::max_batch`] requests, waiting at most
//! [`BatchConfig::max_wait`] after the first — into one `infer_batch`
//! call. Replies travel back over per-request oneshot channels. When the
//! queue is full, submission fails *immediately* with
//! [`man_repro::ServeError::Overloaded`] — explicit backpressure beats
//! unbounded latency.
//!
//! The whole lifecycle is traced through `man-obs` (DESIGN.md §12):
//! submit records an `accept` span and tags the job with a request id,
//! the drain loop records `queue_wait` (per request) and `coalesce`
//! (per batch), dispatch records `dispatch` (with the resolved plan
//! label) and `kernel` (with the same label) — and the
//! incident paths (`Overloaded`, request timeout, contained panic)
//! anchor a flight-recorder dump to the failing request.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use man_obs::{flight, Span, Stage};
use man_par::ShardPlan;
use man_repro::{CompiledModel, InferenceSession, ManError, Parallelism, Prediction, ServeError};

use crate::metrics::ModelMetrics;

/// Scheduler tuning for one hosted model.
///
/// # Example
///
/// Struct-update over [`BatchConfig::default`] is the intended idiom —
/// override what matters, keep the production defaults for the rest:
///
/// ```
/// use std::time::Duration;
/// use man_serve::BatchConfig;
///
/// let config = BatchConfig {
///     max_batch: 8,
///     max_wait: Duration::from_micros(200),
///     ..BatchConfig::default()
/// };
/// assert_eq!(config.workers, 1);
/// assert_eq!(config.request_timeout, Duration::from_secs(30));
/// ```
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Most requests coalesced into one `infer_batch` call.
    pub max_batch: usize,
    /// Longest a worker waits for more requests after the first one of a
    /// batch arrives. Zero — the default — means "drain whatever is
    /// already queued and go": batches then form naturally while the
    /// previous batch computes (continuous batching), which wastes no
    /// worker time. A positive wait trades first-request latency for
    /// fuller batches under sparse open-loop traffic.
    pub max_wait: Duration,
    /// Bounded queue size; a full queue rejects with `Overloaded`.
    pub queue_capacity: usize,
    /// Worker threads, each with its own session, opened once and kept
    /// for every request the worker serves.
    pub workers: usize,
    /// Intra-batch parallelism: each scheduler worker's session shards
    /// one coalesced micro-batch across this many cores (row-sharded;
    /// bit-identical to sequential). [`Parallelism::Sequential`] — the
    /// default — keeps one core per micro-batch, which is right when
    /// `workers` already covers the machine; raise it instead of
    /// `workers` when per-request latency matters more than stream
    /// throughput. [`Parallelism::Auto`] hands the choice to the
    /// `man-par` tuner, which folds in the model's MACs per row and the
    /// coalesced batch size.
    pub parallelism: Parallelism,
    /// How long a submitter waits for its reply before giving up.
    pub request_timeout: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            workers: 1,
            parallelism: Parallelism::Sequential,
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// One queued request: the input plus the oneshot reply slot.
struct Job {
    input: Vec<f32>,
    reply: SyncSender<Result<Prediction, ManError>>,
    enqueued: Instant,
    /// Tracing request id (`man_obs::next_request_id`; 0 when the
    /// observability plane is off).
    req: u64,
    /// Enqueue timestamp on the obs monotonic clock (0 when off).
    enqueued_ns: u64,
}

/// A model plus its scheduler: queue, worker pool, metrics.
///
/// Dropping (or `ModelHost::stop`-ping) the host closes the queue;
/// workers then drain every already-queued request before exiting, so
/// shutdown never silently drops accepted work.
pub struct ModelHost {
    name: String,
    config: BatchConfig,
    input_len: usize,
    metrics: Arc<ModelMetrics>,
    /// `None` once stopped; taking it drops the sender and closes the
    /// queue.
    queue: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ModelHost {
    /// Starts a scheduler for `model`.
    pub(crate) fn start(
        name: impl Into<String>,
        model: CompiledModel,
        config: BatchConfig,
    ) -> Arc<Self> {
        let name = name.into();
        let model = Arc::new(model);
        let metrics = Arc::new(ModelMetrics::new(config.max_batch));
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::new();
        for w in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let model = Arc::clone(&model);
            let metrics = Arc::clone(&metrics);
            let cfg = config.clone();
            let thread_name = format!("man-serve/{name}/{w}");
            handles.push(
                std::thread::Builder::new()
                    .name(thread_name)
                    .spawn(move || worker_loop(&rx, &model, &cfg, &metrics))
                    .expect("spawning a scheduler worker thread"),
            );
        }
        Arc::new(Self {
            name,
            input_len: model.fixed().input_len(),
            config,
            metrics,
            queue: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
        })
    }

    /// The model name this host serves.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Live metrics handle.
    pub(crate) fn metrics(&self) -> &Arc<ModelMetrics> {
        &self.metrics
    }

    /// Submits one request and blocks until its reply (or timeout).
    ///
    /// # Errors
    ///
    /// [`ManError::Shape`] for a wrong-length input (checked before
    /// queueing), [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::Unavailable`] when the host is stopping, and
    /// [`ServeError::Timeout`] when no reply arrives in
    /// [`BatchConfig::request_timeout`].
    ///
    /// `accepted` is counted (SeqCst) *before* the queue handoff and
    /// never rolled back, so it means "admitted past shape validation"
    /// and dominates the disjoint outcome counters at every instant —
    /// see [`ModelMetrics`]. `queue_depth` stays a Relaxed advisory
    /// gauge: it is pre-incremented before `try_send` (and decremented
    /// on rejection) so it never under-reports the backlog the workers
    /// are about to see.
    pub(crate) fn submit(&self, input: Vec<f32>) -> Result<Prediction, ManError> {
        if input.len() != self.input_len {
            // ORDERING: monotonic statistics counter; reporting only.
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ManError::Shape {
                expected: self.input_len,
                got: input.len(),
            });
        }
        let obs_on = man_obs::counters_enabled();
        let req = if obs_on {
            man_obs::next_request_id()
        } else {
            0
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let enqueued = Instant::now();
        let job = Job {
            input,
            reply: reply_tx,
            enqueued,
            req,
            enqueued_ns: if obs_on { man_obs::now_ns() } else { 0 },
        };
        {
            let accept_span = Span::enter_for(Stage::Accept, req);
            let queue = self.queue.lock().expect("queue lock poisoned");
            let Some(tx) = queue.as_ref() else {
                return Err(ServeError::Unavailable(self.name.clone()).into());
            };
            // Count the admission before handing the job over: a worker
            // may dequeue the instant try_send returns.
            // ORDERING: advisory depth gauge; never synchronizes data.
            self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            self.metrics.accepted.fetch_add(1, Ordering::SeqCst);
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    // ORDERING: advisory depth gauge; never synchronizes data.
                    self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    self.metrics.rejected.fetch_add(1, Ordering::SeqCst);
                    drop(accept_span);
                    // Anchor a flight-recorder dump to the rejected
                    // request: flush this thread's span buffer first so
                    // the dump sees the freshest events.
                    man_obs::incident(Stage::Overloaded, req);
                    man_obs::flush();
                    flight::trigger_dump("overloaded", req);
                    return Err(ServeError::Overloaded {
                        model: self.name.clone(),
                        capacity: self.config.queue_capacity,
                    }
                    .into());
                }
                Err(TrySendError::Disconnected(_)) => {
                    // ORDERING: advisory depth gauge; never synchronizes data.
                    self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServeError::Unavailable(self.name.clone()).into());
                }
            }
        }
        // Outcome accounting happens here, on the submitter, *before*
        // the call returns: exactly one of `completed`/`errors`/
        // `timed_out` per accepted request, so a client that got its
        // reply is guaranteed to see it in the very next `stats` call,
        // and the disjoint-outcome invariant holds at every instant.
        match reply_rx.recv_timeout(self.config.request_timeout) {
            Ok(result) => {
                self.metrics.latency.observe(enqueued.elapsed());
                match &result {
                    Ok(_) => self.metrics.completed.fetch_add(1, Ordering::SeqCst),
                    Err(_) => self.metrics.errors.fetch_add(1, Ordering::SeqCst),
                };
                result
            }
            Err(RecvTimeoutError::Timeout) => {
                self.metrics.timed_out.fetch_add(1, Ordering::SeqCst);
                man_obs::incident(Stage::Timeout, req);
                man_obs::flush();
                flight::trigger_dump("timeout", req);
                Err(ServeError::Timeout(self.name.clone()).into())
            }
            // The host is stopping and this job's reply slot was dropped
            // unanswered; `accepted` dominates the outcome counters, so
            // leaving it outcome-less keeps the invariant sound.
            Err(RecvTimeoutError::Disconnected) => {
                Err(ServeError::Unavailable(self.name.clone()).into())
            }
        }
    }

    /// Graceful shutdown: closes the queue, lets the workers drain every
    /// already-accepted request, and joins them. Idempotent.
    pub(crate) fn stop(&self) {
        drop(self.queue.lock().expect("queue lock poisoned").take());
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("workers lock poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ModelHost {
    fn drop(&mut self) {
        self.stop();
    }
}

/// ORDERING: `queue_depth` is an advisory backlog gauge — the
/// `fetch_sub` after draining is `Relaxed` because the channel recv that
/// delivered the jobs already ordered them.
fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    model: &CompiledModel,
    cfg: &BatchConfig,
    metrics: &ModelMetrics,
) {
    let session = model.session().with_parallelism(cfg.parallelism);
    loop {
        // Hold the receiver lock across the blocking wait *and* the batch
        // drain: idle co-workers queue behind it and take over the moment
        // this worker moves on to inference.
        let mut batch = Vec::new();
        let mut coalesce_start = 0u64;
        {
            let rx = rx.lock().expect("receiver lock poisoned");
            match rx.recv() {
                Ok(job) => {
                    // Coalescing starts when the batch's first request
                    // is in hand — the blocking wait above was idle
                    // time, not batching time.
                    if man_obs::counters_enabled() {
                        coalesce_start = man_obs::now_ns().max(1);
                    }
                    batch.push(job);
                }
                Err(_) => return, // queue closed and fully drained
            }
            let deadline = (!cfg.max_wait.is_zero()).then(|| Instant::now() + cfg.max_wait);
            while batch.len() < cfg.max_batch {
                let wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                match wait {
                    // Drain-only (or deadline passed): take what is
                    // already queued, never idle.
                    None | Some(Duration::ZERO) => match rx.try_recv() {
                        Ok(job) => batch.push(job),
                        Err(_) => break,
                    },
                    Some(wait) => match rx.recv_timeout(wait) {
                        Ok(job) => batch.push(job),
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => break,
                    },
                }
            }
        }
        metrics
            .queue_depth
            .fetch_sub(batch.len(), Ordering::Relaxed);
        metrics.observe_batch(batch.len());
        observe_drain(&batch, coalesce_start, metrics);
        dispatch(batch, &session, metrics);
        // Lifecycle flush point: the batch's span events reach the
        // flight-recorder ring before the next blocking wait, so a dump
        // triggered by anyone sees complete request lifecycles.
        man_obs::flush();
    }
}

/// Records queue-wait (per request) and coalesce (per batch) for one
/// drained batch. Queue wait always feeds the model's `stats`
/// histogram; the obs plane additionally gets per-request span events
/// when enabled.
fn observe_drain(batch: &[Job], coalesce_start: u64, metrics: &ModelMetrics) {
    let drained = Instant::now();
    for job in batch {
        metrics
            .queue_wait
            .observe(drained.saturating_duration_since(job.enqueued));
    }
    if coalesce_start == 0 {
        return; // obs plane off at drain start
    }
    let now = man_obs::now_ns();
    let coalesce_ns = now.saturating_sub(coalesce_start);
    for (i, job) in batch.iter().enumerate() {
        if job.enqueued_ns > 0 {
            man_obs::record(
                Stage::QueueWait,
                job.req,
                job.enqueued_ns,
                now.saturating_sub(job.enqueued_ns),
                "",
                0,
            );
        }
        if i == 0 {
            // Histogram truth once per batch; arg = batch size.
            man_obs::record(
                Stage::Coalesce,
                job.req,
                coalesce_start,
                coalesce_ns,
                "",
                batch.len() as u64,
            );
        } else {
            // Sibling requests share the batch's coalesce window.
            man_obs::record_event(
                Stage::Coalesce,
                job.req,
                coalesce_start,
                coalesce_ns,
                "",
                batch.len() as u64,
            );
        }
    }
}

/// Runs one coalesced batch and distributes the replies. Per-request
/// outcome counters live with the submitter (see [`ModelHost::submit`]);
/// reply delivery itself synchronizes through each job's reply channel.
fn dispatch(batch: Vec<Job>, session: &InferenceSession, metrics: &ModelMetrics) {
    let (inputs, replies): (Vec<Vec<f32>>, Vec<_>) = batch
        .into_iter()
        .map(|j| (j.input, (j.reply, j.req)))
        .unzip();
    let dispatch_start = if man_obs::counters_enabled() {
        man_obs::now_ns().max(1)
    } else {
        0
    };
    // What the dispatch resolved to, captured for span labels (the
    // closure also records it into the model metrics).
    let mut resolved: Option<ShardPlan> = None;
    // The kernel-execution window inside the dispatch, on the obs
    // clock (start, duration); left (0, 0) when the plane is off.
    let mut kernel_window = (0u64, 0u64);
    // A panicking inference must not kill the worker thread: with the
    // default single worker, a dead worker would silently turn the host
    // into a black hole (requests accepted, never answered). Contain the
    // panic, answer the batch with a typed error, keep serving.
    let outcome = {
        let resolved = &mut resolved;
        let kernel_window = &mut kernel_window;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let kernel_start = if dispatch_start > 0 {
                man_obs::now_ns().max(1)
            } else {
                0
            };
            let result = session.infer_batch(&inputs);
            if kernel_start > 0 {
                *kernel_window = (kernel_start, man_obs::now_ns().saturating_sub(kernel_start));
            }
            // What this batch actually resolved to — one Copy store,
            // cheap enough for every dispatch.
            if let Some(plan) = session.last_plan() {
                metrics.observe_plan(plan);
                *resolved = Some(plan);
            }
            result
        }))
    }
    .unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        // Anchor a post-mortem to the batch's first request.
        let first_req = replies.first().map(|(_, req)| *req).unwrap_or(0);
        man_obs::incident(Stage::Panic, first_req);
        man_obs::flush();
        flight::trigger_dump("panic", first_req);
        Err(ServeError::Internal(format!("inference panicked: {what}")).into())
    });
    if dispatch_start > 0 {
        let dispatch_ns = man_obs::now_ns().saturating_sub(dispatch_start);
        let (plan_label, plan_workers) = match resolved {
            Some(plan) => (plan.stage_label(), plan.workers() as u64),
            None => ("", 0),
        };
        let (kernel_start, kernel_ns) = kernel_window;
        for (i, (_, req)) in replies.iter().enumerate() {
            if i == 0 {
                // Histogram truth once per batch (the per-request rows
                // are annotations of the same shared window).
                man_obs::record(
                    Stage::Dispatch,
                    *req,
                    dispatch_start,
                    dispatch_ns,
                    plan_label,
                    plan_workers,
                );
            } else {
                man_obs::record_event(
                    Stage::Dispatch,
                    *req,
                    dispatch_start,
                    dispatch_ns,
                    plan_label,
                    plan_workers,
                );
            }
            if kernel_start > 0 {
                // The per-batch kernel histogram is recorded by the
                // session itself (core stage hook); these per-request
                // events only annotate the shared window.
                man_obs::record_event(
                    Stage::Kernel,
                    *req,
                    kernel_start,
                    kernel_ns,
                    plan_label,
                    replies.len() as u64,
                );
            }
        }
    }
    // Delivery only: the submitter does all per-request outcome
    // accounting (completed/errors/timed_out and the latency
    // histogram) when it picks the reply up, so a client never races
    // its own request's counters. A submitter that timed out dropped
    // its receiver; the failed send needs no bookkeeping here — the
    // submitter already counted `timed_out`.
    match outcome {
        Ok(predictions) => {
            for ((reply, _req), prediction) in replies.into_iter().zip(predictions) {
                let _ = reply.send(Ok(prediction));
            }
        }
        Err(e) => {
            // Shapes are validated at submit time, so this is a genuine
            // worker-side failure; stringify it once per job.
            let msg = e.to_string();
            for (reply, _req) in replies {
                let _ = reply.send(Err(ServeError::Internal(msg.clone()).into()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = BatchConfig::default();
        assert!(cfg.max_batch >= 8);
        assert!(cfg.queue_capacity >= cfg.max_batch);
    }
}
