//! **man-par** — the deterministic parallel execution layer.
//!
//! Everything above this crate (the fixed-point engine, the facade
//! sessions, the serving scheduler, the experiment binaries) parallelizes
//! through one primitive: [`run_chunked`], a chunked work queue drained
//! by a **persistent** [`WorkerPool`] of parked workers. The contract is
//! deliberately narrow so that callers can argue determinism *by
//! construction*:
//!
//! * work is split into contiguous index chunks and results are
//!   reassembled in item order — output never depends on scheduling;
//! * each worker owns a private mutable context (an accumulator, …);
//!   nothing is shared mutably between workers;
//! * a panic inside one chunk never deadlocks or leaks threads: the
//!   remaining workers finish their current chunk, stop pulling new
//!   ones, and the panic resumes on the caller once every worker slot
//!   has been accounted for — mirroring the containment discipline of
//!   the serving scheduler's `dispatch`.
//!
//! The pool is std-only (`Mutex` + `Condvar`, no rayon, no global
//! executor crate). Worker threads are spawned **once** — by
//! [`WorkerPool::new`] or lazily by [`global_pool`] — and parked on a
//! condvar between jobs, so the serving hot path no longer pays the
//! ~tens-of-µs thread-spawn cost once per large layer. Borrowed engines
//! and input slices still flow straight into workers: a job blocks its
//! submitter until every worker slot has completed, which is what makes
//! the (single, encapsulated) lifetime erasure in [`WorkerPool::run_chunked`]
//! sound.
//!
//! This crate also hosts the one place a batch's sharding is decided:
//! [`Parallelism::plan`] turns a setting plus the batch's MACs per row
//! and size into a [`ShardPlan`]: either `Sequential` or `Rows`, by one
//! unit-tested rule.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// How much parallelism a caller wants.
///
/// The unit of "worker" is one OS thread. `Sequential` is the identity
/// configuration: code paths taking a `Parallelism` must produce
/// bit-identical results for every variant, differing only in wall-clock
/// time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker, no threads engaged — the reference path.
    #[default]
    Sequential,
    /// Exactly `n` workers (clamped to at least 1).
    Threads(usize),
    /// Let the tuner decide: the worker *budget* is one per available
    /// hardware thread ([`std::thread::available_parallelism`]), and
    /// [`Parallelism::plan`] resolves the shard plan and worker count per
    /// batch.
    Auto,
}

impl Parallelism {
    /// The worker *budget* this configuration resolves to (always ≥ 1).
    /// For [`Parallelism::Auto`] this is the upper bound the tuner works
    /// under — the per-batch resolved count can be lower (see
    /// [`Parallelism::plan`]).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => available_cores(),
        }
    }

    /// A short human-readable label (`"sequential"`, `"threads(4)"`,
    /// `"auto(8)"`) for logs and bench reports.
    pub fn label(self) -> String {
        match self {
            Parallelism::Sequential => "sequential".to_owned(),
            Parallelism::Threads(n) => format!("threads({})", n.max(1)),
            Parallelism::Auto => format!("auto({})", available_cores()),
        }
    }

    /// Resolves how a batch of `batch` rows, each costing
    /// `macs_per_row` multiply-accumulates, shards under this setting.
    /// This is the one place a [`ShardPlan`] is decided, and it is one
    /// rule: compute a worker budget, then return
    /// `Rows(min(budget, batch))` when the budget and the batch are both
    /// ≥ 2, otherwise `Sequential`. A lone row always runs on the caller.
    ///
    /// The budget is 1 for `Sequential` and `n` for `Threads(n)`, which
    /// ignore `macs_per_row`. Under `Auto` it is `cores`, or 1 when
    /// `macs_per_row × batch` is below 50 000 (the handoff would cost
    /// more than the work), so `Auto` resolves by this table:
    ///
    /// | # | condition                                   | plan |
    /// |---|---------------------------------------------|------|
    /// | 1 | `cores` < 2, or batch < 2                   | `Sequential` |
    /// | 2 | `macs_per_row × batch` < 50 000             | `Sequential` |
    /// | 3 | otherwise                                   | `Rows(min(cores, batch))` |
    ///
    /// Every plan is bit-identical to `Sequential`; the plan only moves
    /// wall-clock time around.
    pub fn plan(self, macs_per_row: u64, batch: usize) -> ShardPlan {
        let budget = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n,
            Parallelism::Auto => auto_budget(macs_per_row, batch, available_cores()),
        };
        rows_or_sequential(budget, batch)
    }
}

/// The host's available hardware threads (≥ 1; 1 when detection fails),
/// detected once per process: [`Parallelism::plan`] consults it for
/// every `Auto` batch, and detection reads cgroup files.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Splits one worker budget across two nested parallel stages: the
/// outer stage fans `outer_items` tasks across the budget, and each
/// task gets `budget / outer_items` workers for its own inner
/// parallelism — so nesting never oversubscribes the machine with
/// `workers × workers` threads. Returns `(outer, inner)`; both resolve
/// to at least one worker, and results must be (and everywhere in this
/// workspace are) identical for every split.
pub fn split_budget(parallelism: Parallelism, outer_items: usize) -> (Parallelism, Parallelism) {
    let inner = (parallelism.workers() / outer_items.max(1)).max(1);
    (parallelism, Parallelism::Threads(inner))
}

/// A chunk size that gives each worker a few chunks to pull, so a slow
/// chunk does not leave the other workers idle (work stealing via the
/// shared queue), while keeping per-chunk overhead negligible.
fn default_chunk_size(items: usize, workers: usize) -> usize {
    (items / (workers.max(1) * 4)).max(1)
}

// ---------------------------------------------------------------------------
// The one resolve point
// ---------------------------------------------------------------------------

/// Below this many MACs in the *whole* batch, parallel dispatch
/// overhead (queue handoff, condvar wake) outweighs the work.
const MIN_TOTAL_MACS: u64 = 50_000;

/// How a batch resolved: the shard plan and worker count
/// [`Parallelism::plan`] picked. Every variant is bit-identical to
/// `Sequential`; the plan only moves wall-clock time around.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardPlan {
    /// Run on the caller thread — the reference path.
    Sequential,
    /// Shard batch rows across `workers` pool slots (each row's whole
    /// forward pass on one thread).
    Rows {
        /// Resolved worker count (≥ 2).
        workers: usize,
    },
}

impl ShardPlan {
    /// The resolved worker count (1 for `Sequential`).
    pub fn workers(self) -> usize {
        match self {
            ShardPlan::Sequential => 1,
            ShardPlan::Rows { workers } => workers,
        }
    }

    /// A short label (`"sequential"`, `"rows(4)"`) for logs and bench
    /// reports.
    pub fn label(self) -> String {
        match self {
            ShardPlan::Sequential => "sequential".to_owned(),
            ShardPlan::Rows { workers } => format!("rows({workers})"),
        }
    }

    /// The allocation-free variant label (`"sequential"` / `"rows"`) —
    /// what tracing spans carry (worker count travels as the span's
    /// numeric argument), and what the telemetry exporter uses as the
    /// `plan` label.
    pub fn stage_label(self) -> &'static str {
        match self {
            ShardPlan::Sequential => "sequential",
            ShardPlan::Rows { .. } => "rows",
        }
    }
}

/// The [`Parallelism::Auto`] worker budget documented on
/// [`Parallelism::plan`]: `cores`, or 1 when the whole batch is too
/// little work to pay for a handoff.
fn auto_budget(macs_per_row: u64, batch: usize, cores: usize) -> usize {
    if macs_per_row.saturating_mul(batch as u64) < MIN_TOTAL_MACS {
        return 1;
    }
    cores
}

/// The single plan rule: `Rows(min(budget, batch))` when the budget
/// and the batch are both ≥ 2, otherwise `Sequential`.
fn rows_or_sequential(budget: usize, batch: usize) -> ShardPlan {
    if budget >= 2 && batch >= 2 {
        ShardPlan::Rows {
            workers: budget.min(batch),
        }
    } else {
        ShardPlan::Sequential
    }
}

// ---------------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------------

/// A queued unit of work: one worker slot of one job, with every borrow
/// lifetime erased (see the safety argument in
/// [`WorkerPool::run_chunked`]). Tagged with the job id so a submitter
/// can steal its own unstarted slots back.
type ErasedSlot = Box<dyn FnOnce() + Send + 'static>;

/// Cumulative activity counters for every pool in the process — the
/// `man-obs` export plane's view of worker utilization. All counters
/// are monotone; utilization is `busy_ns / (busy_ns + park_ns)`.
///
/// Time accounting (`busy_ns`/`park_ns`, plus the `park`/`chunk`/
/// `steal` span stages) is gated on the runtime
/// [`man_obs::ObsLevel`] — at `Off` the pool only pays untimed relaxed
/// increments.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Times a worker parked on the condvar with nothing to do.
    pub(crate) parks: AtomicU64,
    /// Worker slots executed by pool worker threads.
    pub(crate) worker_slots: AtomicU64,
    /// Worker slots the submitter ran inline (its reserved slot).
    pub(crate) inline_slots: AtomicU64,
    /// Still-queued slots a submitter stole back from the pool.
    pub(crate) steals: AtomicU64,
    /// Chunks handed out and completed across all jobs.
    pub(crate) chunks: AtomicU64,
    /// Nanoseconds pool workers spent executing slots.
    pub(crate) busy_ns: AtomicU64,
    /// Nanoseconds pool workers spent parked waiting for work.
    pub(crate) park_ns: AtomicU64,
}

/// A plain copy of [`PoolStats`] at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolSnapshot {
    /// Times a worker parked on the condvar with nothing to do.
    pub parks: u64,
    /// Worker slots executed by pool worker threads.
    pub worker_slots: u64,
    /// Worker slots the submitter ran inline (its reserved slot).
    pub inline_slots: u64,
    /// Still-queued slots a submitter stole back from the pool.
    pub steals: u64,
    /// Chunks handed out and completed across all jobs.
    pub chunks: u64,
    /// Nanoseconds pool workers spent executing slots.
    pub busy_ns: u64,
    /// Nanoseconds pool workers spent parked waiting for work.
    pub park_ns: u64,
}

impl PoolStats {
    /// Reads every counter.
    ///
    /// ORDERING: independent monotone statistics counters, read only
    /// for reporting; no cross-counter consistency is promised.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            parks: self.parks.load(Ordering::Relaxed),
            worker_slots: self.worker_slots.load(Ordering::Relaxed),
            inline_slots: self.inline_slots.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            park_ns: self.park_ns.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide [`PoolStats`] instance (covers the global pool and
/// any private pools alike).
pub fn pool_stats() -> &'static PoolStats {
    static STATS: OnceLock<PoolStats> = OnceLock::new();
    STATS.get_or_init(PoolStats::default)
}

struct PoolQueue {
    tasks: VecDeque<(u64, ErasedSlot)>,
    /// Set once by [`WorkerPool::shutdown`]; workers drain the queue
    /// and then exit.
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Workers park here between jobs.
    work_ready: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolQueue> {
        // A worker can only hold this lock around queue pops, which do
        // not panic; recover rather than poison-cascade regardless.
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Counts outstanding worker slots of one job; the submitter blocks on
/// it until every slot has run (which is what keeps the erased borrows
/// alive long enough — see [`WorkerPool::run_chunked`]).
struct JobLatch {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl JobLatch {
    fn new(slots: usize) -> Self {
        Self {
            remaining: Mutex::new(slots),
            all_done: Condvar::new(),
        }
    }

    fn complete_one(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *remaining > 0 {
            remaining = self
                .all_done
                .wait(remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A long-lived pool of parked worker threads.
///
/// Threads are spawned once, at construction, and parked on a condvar
/// between jobs — [`WorkerPool::run_chunked`] hands them work without
/// spawning anything, which removes the per-call thread-spawn cost
/// (~tens of µs per worker) the old scoped pool paid on every
/// large-layer forward pass of the serving hot path.
///
/// # Lifecycle
///
/// * The submitting thread always **participates**: it runs one worker
///   slot inline and then steals back any of its own slots still queued,
///   so a job completes even on a zero-thread (or already shut down)
///   pool, and a nested `run_chunked` from inside a pool worker can
///   never deadlock — every slot is either running somewhere or
///   stealable by its submitter.
/// * [`WorkerPool::shutdown`] (also run by `Drop`) is an idempotent
///   drain-then-join: the queue is closed, workers finish every
///   already-queued slot (abandoning one would deadlock its submitter),
///   then exit and are joined. After shutdown the pool still *works* —
///   jobs simply run entirely on their submitting thread.
///
/// Most code should use the process-wide [`global_pool`] (which the
/// free-function [`run_chunked`] / [`parallel_map`] route through) so
/// facade sessions, the serve scheduler, training evaluations and the
/// bench binaries all share one set of workers; private pools exist for
/// lifecycle tests and isolation experiments.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

/// Monotonic job ids, process-wide (the tag steal-back filters on).
static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

impl WorkerPool {
    /// Spawns a pool of `threads` parked workers (0 is allowed: every
    /// job then runs inline on its submitter, which is also the natural
    /// configuration for a 1-core host).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("man-par/worker-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawning a man-par pool worker")
            })
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
            threads,
        }
    }

    /// The number of worker threads the pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Idempotent drain-then-join shutdown: closes the queue, lets the
    /// workers finish every already-queued slot, joins them. Called by
    /// `Drop`; safe to call any number of times. A pool that has been
    /// shut down still completes jobs — inline on the submitter.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.lock();
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = {
            let mut handles = self
                .handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            handles.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    fn submit(&self, tasks: Vec<(u64, ErasedSlot)>) {
        if tasks.is_empty() {
            return;
        }
        let woken = tasks.len();
        {
            let mut queue = self.shared.lock();
            queue.tasks.extend(tasks);
        }
        // Wake one parked worker per slot; extras fall back asleep.
        for _ in 0..woken {
            self.shared.work_ready.notify_one();
        }
    }

    /// Removes one still-queued slot of `job`, if any — the submitter's
    /// steal-back path.
    fn steal(&self, job: u64) -> Option<ErasedSlot> {
        let mut queue = self.shared.lock();
        let pos = queue.tasks.iter().position(|(id, _)| *id == job)?;
        queue.tasks.remove(pos).map(|(_, slot)| slot)
    }

    /// Runs `work` over the index range `0..items`, split into
    /// contiguous chunks of `chunk_size`, on one worker slot per element
    /// of `contexts` — the pool-method form of the crate-level
    /// [`run_chunked`] (same contract, same panics, same bit-exact
    /// output assembly).
    pub fn run_chunked<C, R, F>(
        &self,
        contexts: &mut [C],
        items: usize,
        chunk_size: usize,
        work: F,
    ) -> Vec<R>
    where
        C: Send,
        R: Send,
        F: Fn(&mut C, Range<usize>) -> Vec<R> + Sync,
    {
        assert!(
            !contexts.is_empty(),
            "run_chunked needs at least one worker context"
        );
        assert!(chunk_size > 0, "chunk size must be positive");
        let chunks = items.div_ceil(chunk_size);

        if contexts.len() == 1 || chunks <= 1 {
            // Inline fast path: the reference sequential loop.
            return drain_sequential(&mut contexts[0], items, chunks, chunk_size, &work);
        }

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let slots = contexts.len();
        let mut outcomes: Vec<WorkerOutcome<R>> = (0..slots).map(|_| (Vec::new(), None)).collect();
        // ORDERING: job ids only need uniqueness, which fetch_add gives
        // at any ordering; nothing synchronizes through the counter.
        let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
        let latch = Arc::new(JobLatch::new(slots));

        {
            let work = &work;
            let next = &next;
            let abort = &abort;
            // One closure per worker slot. Each owns disjoint `&mut`s
            // (its context, its outcome cell) plus shared `&`s (the
            // work function, the chunk counter, the abort flag) and an
            // owned Arc on the latch.
            let mut pending: Vec<(u64, ErasedSlot)> = contexts
                .iter_mut()
                .zip(outcomes.iter_mut())
                .map(|(ctx, out)| {
                    let latch = Arc::clone(&latch);
                    let slot: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        // One span per slot drain (not per chunk — the
                        // handout loop is the hot path); the span's arg
                        // is the number of chunks this slot completed.
                        // DETERMINISM: observability timing only.
                        let drain_from = if man_obs::counters_enabled() {
                            man_obs::now_ns().max(1)
                        } else {
                            0
                        };
                        // Nothing may unwind out of a slot: an escaped
                        // panic would kill a pool thread and strand the
                        // submitter on the latch. `drain_chunks` contains
                        // per-chunk panics itself; this outer catch is the
                        // belt for anything outside that loop.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            drain_chunks(ctx, items, chunks, chunk_size, work, next, abort)
                        }));
                        if let Ok((done, _)) = &outcome {
                            let stats = pool_stats();
                            // ORDERING: monotone statistics counter.
                            stats.chunks.fetch_add(done.len() as u64, Ordering::Relaxed);
                            if drain_from > 0 {
                                man_obs::record(
                                    man_obs::Stage::Chunk,
                                    0,
                                    drain_from,
                                    man_obs::now_ns().saturating_sub(drain_from),
                                    "",
                                    done.len() as u64,
                                );
                            }
                        }
                        *out = match outcome {
                            Ok(o) => o,
                            Err(payload) => {
                                // ORDERING: best-effort abort hint; the
                                // latch's mutex provides the real
                                // happens-before for the outcome itself.
                                abort.store(true, Ordering::Relaxed);
                                (Vec::new(), Some((usize::MAX, payload)))
                            }
                        };
                        // Last touch of any borrow: after this the slot
                        // only drops plain references (no-op) and its
                        // owned latch Arc.
                        latch.complete_one();
                    });
                    (job, erase_slot(slot))
                })
                .collect();

            // The submitter keeps one slot for itself (guaranteed
            // progress even on a busy/zero-thread pool) and queues the
            // rest for the parked workers.
            let inline = pending.pop();
            self.submit(pending);
            if let Some((_, slot)) = inline {
                // ORDERING: monotone statistics counter.
                pool_stats().inline_slots.fetch_add(1, Ordering::Relaxed);
                slot();
            }
            // Steal back any of this job's slots the pool has not
            // started yet, then wait for the in-flight ones. Every slot
            // is thereby either run here or run by a pool worker — the
            // latch cannot be left hanging.
            while let Some(slot) = self.steal(job) {
                // ORDERING: monotone statistics counter.
                pool_stats().steals.fetch_add(1, Ordering::Relaxed);
                man_obs::record_event(man_obs::Stage::Steal, 0, man_obs::now_ns(), 0, "", job);
                slot();
            }
            latch.wait();
        }

        assemble(outcomes, items)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Erases the borrow lifetimes of one worker slot so it can sit in the
/// persistent pool's queue.
///
/// # Safety argument
///
/// This is the single `unsafe` expression in the workspace, and the
/// only thing it does is extend a closure's lifetime parameter; the
/// pointee, layout and vtable are untouched (`Box<dyn FnOnce + Send>`
/// with two different lifetime bounds is the same fat pointer).
/// Soundness rests on three invariants local to
/// [`WorkerPool::run_chunked`]:
///
/// 1. **The submitter outlives the slot.** `run_chunked` blocks on a
///    [`JobLatch`] that counts every slot of the job and is only
///    released by the slot's final statement, *after* its last use of
///    any borrow. The borrows all live in `run_chunked`'s frame (or its
///    caller's), which cannot unwind past `latch.wait()`.
/// 2. **Every slot runs exactly once.** A slot is either executed
///    inline by the submitter, stolen back from the queue by the
///    submitter, executed by a pool worker, or — during shutdown —
///    drained by an exiting worker. The queue never drops a slot on the
///    floor (dropping one would strand its submitter on the latch, so
///    shutdown drains instead of discarding).
/// 3. **Nothing escapes the slot.** The closure's captures are disjoint
///    `&mut`s, shared `&`s of `Sync` values, and an owned latch `Arc`;
///    after the latch is signalled the remaining drop glue touches only
///    that `Arc`.
#[allow(unsafe_code)]
fn erase_slot(slot: Box<dyn FnOnce() + Send + '_>) -> ErasedSlot {
    // SAFETY: see above — the submitter blocks until the slot has run,
    // so every erased borrow strictly outlives every use.
    unsafe {
        std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
            slot,
        )
    }
}

/// ORDERING: every `PoolStats` update below is a monotone statistics
/// counter read only by the export plane; `Relaxed` suffices (the
/// queue mutex orders the work itself).
fn worker_main(shared: &PoolShared) {
    let stats = pool_stats();
    loop {
        // Accumulated park time for this wait (0 when the obs plane is
        // off, or when work was already queued).
        let mut park_from = 0u64;
        let mut parked_ns = 0u64;
        let slot = {
            let mut queue = shared.lock();
            loop {
                if let Some((_, slot)) = queue.tasks.pop_front() {
                    break slot;
                }
                if queue.shutdown {
                    return;
                }
                stats.parks.fetch_add(1, Ordering::Relaxed);
                // DETERMINISM: the monotonic clock feeds only the
                // observability plane (park-time accounting); it never
                // influences which work runs or what it computes.
                let start = if man_obs::counters_enabled() {
                    man_obs::now_ns().max(1)
                } else {
                    0
                };
                if park_from == 0 {
                    park_from = start;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if start > 0 {
                    parked_ns += man_obs::now_ns().saturating_sub(start);
                }
            }
        };
        // Record outside the queue lock: the span collector may flush
        // into the flight-recorder ring (its own lock) when full.
        if parked_ns > 0 {
            stats.park_ns.fetch_add(parked_ns, Ordering::Relaxed);
            man_obs::record(man_obs::Stage::Park, 0, park_from, parked_ns, "", 0);
        }
        // DETERMINISM: busy-time accounting only (see above).
        let busy_from = if man_obs::counters_enabled() {
            man_obs::now_ns()
        } else {
            0
        };
        // Slots never unwind (outer catch_unwind inside the slot).
        slot();
        stats.worker_slots.fetch_add(1, Ordering::Relaxed);
        if busy_from > 0 {
            let busy = man_obs::now_ns().saturating_sub(busy_from);
            stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
        }
    }
}

/// The chunks one worker slot completed plus, possibly, the chunk index
/// at which it panicked (with the payload). `usize::MAX` marks a panic
/// outside the per-chunk containment (e.g. the result-length assert).
type ChunkResults<R> = Vec<(usize, Vec<R>)>;
type WorkerOutcome<R> = (
    ChunkResults<R>,
    Option<(usize, Box<dyn std::any::Any + Send>)>,
);

fn range_of(c: usize, chunk_size: usize, items: usize) -> Range<usize> {
    (c * chunk_size)..((c + 1) * chunk_size).min(items)
}

fn drain_sequential<C, R, F>(
    ctx: &mut C,
    items: usize,
    chunks: usize,
    chunk_size: usize,
    work: &F,
) -> Vec<R>
where
    F: Fn(&mut C, Range<usize>) -> Vec<R>,
{
    let mut out = Vec::with_capacity(items);
    for c in 0..chunks {
        let range = range_of(c, chunk_size, items);
        let produced = work(ctx, range.clone());
        assert_eq!(
            produced.len(),
            range.len(),
            "work must yield one result per item"
        );
        out.extend(produced);
    }
    out
}

/// One worker slot's loop: pull the next unclaimed chunk off the shared
/// atomic counter, run it under per-chunk panic containment, repeat
/// until the chunks run out or a co-worker aborts.
fn drain_chunks<C, R, F>(
    ctx: &mut C,
    items: usize,
    chunks: usize,
    chunk_size: usize,
    work: &F,
    next: &AtomicUsize,
    abort: &AtomicBool,
) -> WorkerOutcome<R>
where
    F: Fn(&mut C, Range<usize>) -> Vec<R>,
{
    let mut done: ChunkResults<R> = Vec::new();
    loop {
        // ORDERING: the abort flag is a shutdown hint — observing it late
        // only costs extra (correct, discarded) work; the handout cursor
        // needs uniqueness only. All result visibility is ordered by the
        // job latch's mutex, not by these atomics.
        if abort.load(Ordering::Relaxed) {
            return (done, None);
        }
        // ORDERING: handout cursor — uniqueness only (see above).
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            return (done, None);
        }
        let range = range_of(c, chunk_size, items);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let produced = work(ctx, range.clone());
            assert_eq!(
                produced.len(),
                range.len(),
                "work must yield one result per item"
            );
            produced
        }));
        match attempt {
            Ok(produced) => done.push((c, produced)),
            Err(payload) => {
                // ORDERING: abort hint only; panic payload delivery is
                // ordered by the latch mutex (see above).
                abort.store(true, Ordering::Relaxed);
                return (done, Some((c, payload)));
            }
        }
    }
}

/// Reassembles per-slot outcomes in item order, resuming the earliest
/// panic (by chunk index) if any slot contained one.
fn assemble<R>(outcomes: Vec<WorkerOutcome<R>>, items: usize) -> Vec<R> {
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
    let mut completed: ChunkResults<R> = Vec::new();
    for (done, panic) in outcomes {
        completed.extend(done);
        if let Some(p) = panic {
            panics.push(p);
        }
    }
    if !panics.is_empty() {
        panics.sort_by_key(|(c, _)| *c);
        resume_unwind(panics.remove(0).1);
    }
    completed.sort_by_key(|(c, _)| *c);
    let mut out = Vec::with_capacity(items);
    for (_, produced) in completed {
        out.extend(produced);
    }
    assert_eq!(
        out.len(),
        items,
        "every chunk must have been processed exactly once"
    );
    out
}

/// The process-wide shared pool: one parked worker per available
/// hardware thread, spawned lazily on first parallel call and kept for
/// the process lifetime. Facade sessions, the serve scheduler, the
/// training pipeline's parallel evaluations and the bench binaries all
/// draw from this one pool (submitters additionally run one slot
/// inline, so an N-core host keeps N+1 runnable threads at peak — the
/// submitter's slot drains the queue rather than idling).
pub fn global_pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(available_cores()))
}

/// Runs `work` over the index range `0..items`, split into contiguous
/// chunks of `chunk_size`, on one worker slot per element of `contexts`,
/// drawn from the [`global_pool`].
///
/// Each worker slot repeatedly pulls the next unclaimed chunk off a
/// shared atomic queue and maps it through `work(&mut context, range)`;
/// the per-chunk result vectors are reassembled in item order, so the
/// output is exactly what the single-context sequential loop would
/// produce (provided `work` is a pure function of `(range, context-local
/// memoization)` — which is what every caller in this workspace
/// guarantees).
///
/// With a single context (or a single chunk) no pool interaction happens
/// and `work` runs inline on the caller.
///
/// # Panics
///
/// Panics if `contexts` is empty, if `chunk_size` is zero, or if `work`
/// returns a vector whose length differs from its range. If `work`
/// itself panics, the panic is *contained*: remaining workers finish
/// their current chunk and stop, every worker slot is accounted for,
/// and then the first panic (by chunk order) resumes on the caller.
pub fn run_chunked<C, R, F>(contexts: &mut [C], items: usize, chunk_size: usize, work: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(&mut C, Range<usize>) -> Vec<R> + Sync,
{
    global_pool().run_chunked(contexts, items, chunk_size, work)
}

/// Maps `0..items` through `f` with `parallelism`, stateless-worker
/// convenience over [`run_chunked`]. Output index `i` holds `f(i)`.
pub fn parallel_map<R, F>(parallelism: Parallelism, items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = parallelism.workers().min(items.max(1));
    let mut contexts = vec![(); workers];
    let chunk = default_chunk_size(items, workers);
    run_chunked(&mut contexts, items, chunk, |(), range| {
        range.map(&f).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallelism_resolves_to_at_least_one_worker() {
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::Threads(3).label(), "threads(3)");
    }

    #[test]
    fn chunked_map_preserves_item_order() {
        for workers in [1usize, 2, 3, 8] {
            for items in [0usize, 1, 7, 64, 97] {
                let mut contexts = vec![0u64; workers];
                let out = run_chunked(&mut contexts, items, 5, |ctx, range| {
                    *ctx += range.len() as u64;
                    range.map(|i| i * i).collect()
                });
                let expected: Vec<usize> = (0..items).map(|i| i * i).collect();
                assert_eq!(out, expected, "workers={workers} items={items}");
                // Every item was processed exactly once, across whichever
                // workers pulled chunks.
                assert_eq!(contexts.iter().sum::<u64>(), items as u64);
            }
        }
    }

    #[test]
    fn worker_contexts_persist_across_chunks() {
        // One worker, many chunks: the context accumulates.
        let mut contexts = vec![Vec::<usize>::new()];
        let out = run_chunked(&mut contexts, 10, 3, |seen, range| {
            seen.extend(range.clone());
            range.map(|i| i + 1).collect()
        });
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(contexts[0], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_one_chunk_is_contained_and_resumed() {
        let attempted = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut contexts = vec![(); 4];
            run_chunked(&mut contexts, 32, 1, |(), range| {
                attempted.fetch_add(1, Ordering::Relaxed);
                if range.start == 7 {
                    panic!("chunk 7 exploded");
                }
                range.collect::<Vec<_>>()
            })
        }));
        // Containment: the panic surfaced on the caller (no deadlock, no
        // stranded worker — every slot was accounted for by the latch),
        // with the original payload intact. How many chunks the *other*
        // workers completed before seeing the abort flag is
        // scheduling-dependent, so it is deliberately not asserted.
        let payload = result.expect_err("the worker panic must surface to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(msg, "chunk 7 exploded");
        assert!(
            attempted.load(Ordering::Relaxed) >= 8,
            "chunk 7 was reached"
        );

        // The pool survives: the very next call works normally.
        let mut contexts = vec![(); 4];
        let ok = run_chunked(&mut contexts, 8, 2, |(), range| range.collect::<Vec<_>>());
        assert_eq!(ok, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_sequential_map() {
        let seq: Vec<u64> = (0..100).map(|i| (i as u64) * 3 + 1).collect();
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            assert_eq!(parallel_map(p, 100, |i| (i as u64) * 3 + 1), seq);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(parallel_map::<u64, _>(Parallelism::Threads(4), 0, |_| unreachable!()).is_empty());
    }

    #[test]
    fn private_pool_runs_jobs_and_shuts_down_idempotently() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let mut contexts = vec![0u64; 4];
        let out = pool.run_chunked(&mut contexts, 50, 3, |ctx, range| {
            *ctx += 1;
            range.map(|i| i * 2).collect()
        });
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        pool.shutdown();
        pool.shutdown(); // idempotent

        // A shut-down pool still completes jobs (inline on the caller).
        let mut contexts = vec![0u64; 4];
        let out = pool.run_chunked(&mut contexts, 10, 2, |_, range| range.collect());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        // Only the caller's slot plus its steal-backs could have run.
        assert_eq!(contexts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn zero_thread_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let mut contexts = vec![(); 4];
        let out = pool.run_chunked(&mut contexts, 20, 2, |(), range| {
            range.map(|i| i + 100).collect()
        });
        assert_eq!(out, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn nested_run_chunked_on_the_global_pool_does_not_deadlock() {
        // Outer fan-out over the pool; each outer slot runs an inner
        // run_chunked on the SAME pool. Steal-back guarantees progress.
        let out = parallel_map(Parallelism::Threads(4), 8, |i| {
            parallel_map(Parallelism::Threads(3), 16, move |j| (i * 16 + j) as u64)
                .iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8)
            .map(|i| (0..16).map(|j| (i * 16 + j) as u64).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn pool_reuse_across_many_jobs_is_stable() {
        let pool = WorkerPool::new(2);
        for round in 0..64u64 {
            let mut contexts = vec![0u64; 3];
            let out = pool.run_chunked(&mut contexts, 31, 4, move |ctx, range| {
                *ctx += range.len() as u64;
                range.map(|i| i as u64 + round).collect()
            });
            assert_eq!(out, (0..31).map(|i| i + round).collect::<Vec<_>>());
            assert_eq!(contexts.iter().sum::<u64>(), 31);
        }
    }

    // -- The resolve point ---------------------------------------------

    /// [`Parallelism::plan`]'s `Auto` arm on a host of `cores` cores.
    fn auto_plan(macs_per_row: u64, batch: usize, cores: usize) -> ShardPlan {
        rows_or_sequential(auto_budget(macs_per_row, batch, cores), batch)
    }

    #[test]
    fn threads_plan_is_static() {
        let plan = |p: Parallelism, batch| p.plan(1_000_000, batch);
        assert_eq!(plan(Parallelism::Threads(1), 64), ShardPlan::Sequential);
        assert_eq!(plan(Parallelism::Threads(4), 0), ShardPlan::Sequential);
        assert_eq!(plan(Parallelism::Threads(4), 1), ShardPlan::Sequential);
        assert_eq!(
            plan(Parallelism::Threads(4), 2),
            ShardPlan::Rows { workers: 2 }
        );
        assert_eq!(
            plan(Parallelism::Threads(4), 64),
            ShardPlan::Rows { workers: 4 }
        );
        assert_eq!(plan(Parallelism::Sequential, 64), ShardPlan::Sequential);
        // Tiny work does not change a static request either.
        assert_eq!(
            Parallelism::Threads(3).plan(1, 5),
            ShardPlan::Rows { workers: 3 }
        );
    }

    #[test]
    fn tuner_stays_sequential_on_one_core_or_tiny_work() {
        // Row 1: no budget.
        assert_eq!(auto_plan(1_000_000, 64, 1), ShardPlan::Sequential);
        // Row 1: an empty batch, and a lone row however large.
        assert_eq!(auto_plan(1_000_000, 0, 8), ShardPlan::Sequential);
        assert_eq!(auto_plan(400_000, 1, 8), ShardPlan::Sequential);
        // Row 2: total work below the floor.
        assert_eq!(auto_plan(100, 64, 8), ShardPlan::Sequential);
    }

    #[test]
    fn tuner_row_shards_plentiful_batches() {
        // Row 3: 64 rows, 8 cores -> rows across all 8.
        assert_eq!(auto_plan(100_000, 64, 8), ShardPlan::Rows { workers: 8 });
        // Workers never exceed rows, however wide the budget.
        assert_eq!(auto_plan(100_000, 5, 8), ShardPlan::Rows { workers: 5 });
        assert_eq!(auto_plan(400_000, 2, 8), ShardPlan::Rows { workers: 2 });
        assert_eq!(auto_plan(400_000, 2, 4), ShardPlan::Rows { workers: 2 });
        // A few cheap rows above the total floor still row-shard.
        assert_eq!(auto_plan(15_000, 4, 16), ShardPlan::Rows { workers: 4 });
    }

    #[test]
    fn shard_plan_reports_workers_and_labels() {
        assert_eq!(ShardPlan::Rows { workers: 2 }.workers(), 2);
        assert_eq!(ShardPlan::Rows { workers: 8 }.label(), "rows(8)");
        assert_eq!(ShardPlan::Sequential.workers(), 1);
    }
}
