//! The dynamic micro-batching scheduler: one bounded queue per hosted
//! model, and no threads of its own (leader/follower). A submitter that
//! finds no batch of its model running *leads*: it drains up to
//! [`BatchConfig::max_batch`] queued requests into one `infer_batch`
//! call on its own thread. The others *follow*: they wait until their
//! reply arrives or the batch ends and one of them may lead, so what
//! queues while a batch computes forms the next one. A full queue fails
//! submission *immediately* with [`man_repro::ServeError::Overloaded`]
//! — explicit backpressure beats unbounded latency.
//!
//! The whole lifecycle is traced through `man-obs` (DESIGN.md §12):
//! submit records an `accept` span and tags the job with a request id,
//! the leader records `queue_wait` (per request) and `coalesce` (per
//! batch), dispatch records `dispatch` (with the resolved plan label)
//! and `kernel` (with the same label) — and the incident paths
//! (`Overloaded`, request timeout, contained panic) anchor a
//! flight-recorder dump to the failing request.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use man_obs::{flight, Span, Stage};
use man_par::ShardPlan;
use man_repro::{CompiledModel, InferenceSession, ManError, Parallelism, Prediction, ServeError};

use crate::metrics::ModelMetrics;

/// How long a follower waits for its reply before giving up with
/// [`ServeError::Timeout`].
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Scheduler tuning for one hosted model.
///
/// # Example
///
/// Struct-update over [`BatchConfig::default`] is the intended idiom —
/// override what matters, keep the production defaults for the rest:
///
/// ```
/// use man_serve::{BatchConfig, Parallelism};
///
/// let config = BatchConfig {
///     max_batch: 8,
///     ..BatchConfig::default()
/// };
/// assert_eq!(config.queue_capacity, 256);
/// assert_eq!(config.parallelism, Parallelism::Sequential);
/// ```
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Most requests coalesced into one `infer_batch` call.
    pub max_batch: usize,
    /// Bounded queue size; a full queue rejects with `Overloaded`.
    pub queue_capacity: usize,
    /// Intra-batch parallelism: the model's session shards one
    /// coalesced micro-batch across this many cores (row-sharded;
    /// bit-identical to sequential). It is the one way to give a model
    /// more cores: a host never runs two batches at once.
    /// [`Parallelism::Sequential`] — the default — runs each batch on
    /// the leading caller's core alone. [`Parallelism::Auto`] hands the
    /// choice to the `man-par` tuner, which folds in the model's MACs
    /// per row and the coalesced batch size.
    pub parallelism: Parallelism,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            queue_capacity: 256,
            parallelism: Parallelism::Sequential,
        }
    }
}

type Reply = Result<Prediction, ManError>;

/// One queued request: the input plus the oneshot reply slot.
struct Job {
    input: Vec<f32>,
    reply: SyncSender<Reply>,
    enqueued: Instant,
    /// Tracing request id (`man_obs::next_request_id`; 0 when the
    /// observability plane is off).
    req: u64,
    /// Enqueue timestamp on the obs monotonic clock (0 when off).
    enqueued_ns: u64,
}

/// What a host's one lock guards. A job leaves `jobs` only into the
/// running batch, whose replies are all delivered before `leading`
/// clears; `closed` ends intake.
struct Queue {
    jobs: VecDeque<Job>,
    leading: bool,
    closed: bool,
}

/// A model plus its scheduler: queue, session, metrics.
///
/// Stopping it (on reload and `unload`) closes intake and runs every
/// already-queued request before returning, so shutdown never silently
/// drops accepted work.
pub struct ModelHost {
    name: String,
    max_batch: usize,
    queue_capacity: usize,
    input_len: usize,
    metrics: Arc<ModelMetrics>,
    queue: Mutex<Queue>,
    /// Notified when a batch ends: its replies are out; a waiter may lead.
    batch_done: Condvar,
    session: InferenceSession,
}

/// Ends a batch — clears `leading`, wakes every waiter — on unwinding
/// too, so a panic outside `dispatch`'s containment cannot wedge a host.
struct Leading<'a>(&'a ModelHost);

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        self.0.lock().leading = false;
        self.0.batch_done.notify_all();
    }
}

impl ModelHost {
    /// A scheduler for `model`; it spawns nothing.
    pub(crate) fn new(
        name: impl Into<String>,
        model: &CompiledModel,
        config: &BatchConfig,
    ) -> Self {
        let max_batch = config.max_batch.max(1);
        Self {
            name: name.into(),
            max_batch,
            queue_capacity: config.queue_capacity.max(1),
            input_len: model.fixed().input_len(),
            metrics: Arc::new(ModelMetrics::new(max_batch)),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                leading: false,
                closed: false,
            }),
            batch_done: Condvar::new(),
            session: model.session().with_parallelism(config.parallelism),
        }
    }

    /// The model name this host serves.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Live metrics handle.
    pub(crate) fn metrics(&self) -> &Arc<ModelMetrics> {
        &self.metrics
    }

    /// The lock is never held across inference, so a poisoned one still
    /// guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submits one request and blocks until its reply (or timeout),
    /// leading batches on this thread whenever none is running.
    ///
    /// # Errors
    ///
    /// [`ManError::Shape`] for a wrong-length input (checked before
    /// queueing), [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::Unavailable`] when the host is stopping, and
    /// [`ServeError::Timeout`] when no reply arrives within 30 s.
    ///
    /// `accepted` is counted (SeqCst) *before* the enqueue and never
    /// rolled back, so it means "admitted past shape validation" and
    /// dominates the disjoint outcome counters at every instant — see
    /// [`ModelMetrics`]. `queue_depth` stays a Relaxed advisory gauge.
    pub(crate) fn submit(&self, input: Vec<f32>) -> Reply {
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
        let accept_span = Span::enter_for(Stage::Accept, req);
        let mut queue = self.lock();
        if queue.closed {
            return Err(ServeError::Unavailable(self.name.clone()).into());
        }
        self.metrics.accepted.fetch_add(1, Ordering::SeqCst);
        if queue.jobs.len() >= self.queue_capacity {
            drop(queue);
            self.metrics.rejected.fetch_add(1, Ordering::SeqCst);
            drop(accept_span);
            // Anchor a flight-recorder dump to the rejected request:
            // flush this thread's span buffer first so the dump sees
            // the freshest events.
            man_obs::incident(Stage::Overloaded, req);
            man_obs::flush();
            flight::trigger_dump("overloaded", req);
            return Err(ServeError::Overloaded {
                model: self.name.clone(),
                capacity: self.queue_capacity,
            }
            .into());
        }
        // ORDERING: advisory depth gauge; never synchronizes data.
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        queue.jobs.push_back(job);
        drop(accept_span);
        // Outcome accounting happens here, on the submitter, *before*
        // the call returns: exactly one of `completed`/`errors`/
        // `timed_out` per accepted request, so a client that got its
        // reply is guaranteed to see it in the very next `stats` call,
        // and the disjoint-outcome invariant holds at every instant.
        match self.await_reply(queue, &reply_rx, enqueued + REQUEST_TIMEOUT) {
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
            // The batch holding this job unwound past `dispatch`'s
            // containment; leaving it outcome-less keeps the invariant.
            Err(RecvTimeoutError::Disconnected) => {
                Err(ServeError::Unavailable(self.name.clone()).into())
            }
        }
    }

    /// Waits for `reply` until `deadline`, leading a batch whenever none
    /// is running: then a missing reply means the job is still queued.
    fn await_reply<'a>(
        &'a self,
        mut queue: MutexGuard<'a, Queue>,
        reply: &Receiver<Reply>,
        deadline: Instant,
    ) -> Result<Reply, RecvTimeoutError> {
        loop {
            match reply.try_recv() {
                Ok(result) => return Ok(result),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            if !queue.leading {
                queue = self.lead(queue);
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            queue = self
                .batch_done
                .wait_timeout(queue, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Drains up to `max_batch` queued jobs and runs and answers them on
    /// this thread, unlocked; returns relocked after `leading` clears.
    ///
    /// ORDERING: `queue_depth` is an advisory backlog gauge; the lock
    /// that handed over the jobs already ordered them.
    fn lead<'a>(&'a self, mut queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        let coalesce_start = if man_obs::counters_enabled() {
            man_obs::now_ns().max(1)
        } else {
            0
        };
        let take = queue.jobs.len().min(self.max_batch);
        let batch: Vec<Job> = queue.jobs.drain(..take).collect();
        queue.leading = true;
        drop(queue);
        let leading = Leading(self);
        let m = &self.metrics;
        m.queue_depth.fetch_sub(batch.len(), Ordering::Relaxed);
        m.observe_batch(batch.len());
        observe_drain(&batch, coalesce_start, m);
        dispatch(batch, &self.session, m);
        // Lifecycle flush point: a dump triggered by anyone sees this
        // batch's complete request lifecycles.
        man_obs::flush();
        drop(leading);
        self.lock()
    }

    /// Graceful shutdown: closes intake, waits out a running batch and
    /// runs every batch still queued on the calling thread, so every
    /// accepted request is answered before it returns. Idempotent.
    pub(crate) fn stop(&self) {
        let mut queue = self.lock();
        queue.closed = true;
        while queue.leading || !queue.jobs.is_empty() {
            queue = if queue.leading {
                let waited = self.batch_done.wait(queue);
                waited.unwrap_or_else(PoisonError::into_inner)
            } else {
                self.lead(queue)
            };
        }
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
    // A panicking inference must not unwind into the leading caller:
    // its followers would wait out the timeout for replies that never
    // come. Contain the panic, answer the batch with a typed error,
    // keep serving.
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
            // inference failure; stringify it once per job.
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
