//! **man-par** — the deterministic parallel execution layer.
//!
//! Everything above this crate (the fixed-point engine, the facade
//! sessions, the float accuracy sweep, the Algorithm-2 candidate
//! fan-out, the experiment binaries) parallelizes through one
//! primitive: [`parallel_map`], a chunked work queue drained by one
//! process-lifetime pool of parked workers. The contract is
//! deliberately narrow so that callers can argue determinism *by
//! construction*:
//!
//! * work is split into contiguous index chunks and results are
//!   reassembled in item order — output never depends on scheduling;
//! * the map function is shared (`Fn + Sync`); nothing is shared
//!   mutably between workers;
//! * a panic inside one chunk never deadlocks or leaks threads: the
//!   remaining workers finish their current chunk, stop pulling new
//!   ones, and the panic resumes on the caller once every worker slot
//!   has been accounted for — mirroring the containment discipline of
//!   the serving scheduler's `dispatch`.
//!
//! The pool is std-only (`Mutex` + `Condvar`, no rayon, no global
//! executor crate). Its workers, one per available hardware thread,
//! are spawned on the first parallel call and parked on a condvar
//! between jobs, so no call pays a thread spawn. Borrowed engines and
//! input slices still flow straight into workers: a job blocks its
//! submitter until every worker slot has completed, which is what makes
//! the single, encapsulated lifetime erasure behind [`parallel_map`]
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};

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

/// A chunk size that gives each worker a few chunks to pull, so a slow
/// chunk does not leave the other workers idle (work stealing via the
/// shared queue), while keeping per-chunk overhead negligible.
fn default_chunk_size(items: usize, workers: usize) -> usize {
    (items / (workers * 4)).max(1)
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
    /// Split the batch into `workers` contiguous row ranges, one per
    /// pool slot; each range runs its whole forward pass on one thread.
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
// The process-lifetime worker pool
// ---------------------------------------------------------------------------

/// A queued unit of work: one worker slot of one job, with every borrow
/// lifetime erased (see the safety argument on [`erase_slot`]). Tagged
/// with the job id so a submitter can steal its own unstarted slots
/// back.
type ErasedSlot = Box<dyn FnOnce() + Send + 'static>;

/// Cumulative activity counters for the process's worker pool — the
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

/// The process-wide [`PoolStats`] instance.
pub fn pool_stats() -> &'static PoolStats {
    static STATS: OnceLock<PoolStats> = OnceLock::new();
    STATS.get_or_init(PoolStats::default)
}

/// The shared job queue: parked workers pop slots off its front, and
/// submitters steal their own unstarted slots back out of it.
struct Pool {
    tasks: Mutex<VecDeque<(u64, ErasedSlot)>>,
    /// Workers park here between jobs.
    work_ready: Condvar,
}

/// The one pool: one parked worker per available hardware thread,
/// spawned on the first parallel call and kept for the process
/// lifetime. It is never shut down, so a queued slot is always run by
/// a worker or stolen back by its submitter.
static POOL: Pool = Pool {
    tasks: Mutex::new(VecDeque::new()),
    work_ready: Condvar::new(),
};

/// Monotonic job ids, process-wide (the tag steal-back filters on).
static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

impl Pool {
    /// The pool, its workers spawned on first use.
    fn get() -> &'static Pool {
        static SPAWN: Once = Once::new();
        SPAWN.call_once(|| {
            for i in 0..available_cores() {
                std::thread::Builder::new()
                    .name(format!("man-par/worker-{i}"))
                    .spawn(|| worker_main(&POOL))
                    .expect("spawning a man-par pool worker");
            }
        });
        &POOL
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(u64, ErasedSlot)>> {
        // A worker can only hold this lock around queue pops, which do
        // not panic; recover rather than poison-cascade regardless.
        self.tasks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn submit(&self, tasks: Vec<(u64, ErasedSlot)>) {
        let woken = tasks.len();
        self.lock().extend(tasks);
        // Wake one parked worker per slot; extras fall back asleep.
        for _ in 0..woken {
            self.work_ready.notify_one();
        }
    }

    /// Removes one still-queued slot of `job`, if any — the submitter's
    /// steal-back path.
    fn steal(&self, job: u64) -> Option<ErasedSlot> {
        let mut tasks = self.lock();
        let pos = tasks.iter().position(|(id, _)| *id == job)?;
        tasks.remove(pos).map(|(_, slot)| slot)
    }
}

/// Counts outstanding worker slots of one job; the submitter blocks on
/// it until every slot has run (which is what keeps the erased borrows
/// alive long enough — see [`erase_slot`]).
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

/// Erases the borrow lifetimes of one worker slot so it can sit in the
/// process-lifetime pool's queue.
///
/// # Safety argument
///
/// This is the only `unsafe` expression in `man-par` (the workspace's
/// other audited site is the reactor's `poll(2)` call in `man-serve`),
/// and the only thing it does is extend a closure's lifetime parameter;
/// the pointee, layout and vtable are untouched (`Box<dyn FnOnce +
/// Send>` with two different lifetime bounds is the same fat pointer).
/// Soundness rests on three invariants local to [`pooled_map`]:
///
/// 1. **The submitter outlives the slot.** `pooled_map` blocks on a
///    [`JobLatch`] that counts every slot of the job and is only
///    released by the slot's final statement, *after* its last use of
///    any borrow. The borrows all live in `pooled_map`'s frame (or its
///    caller's), which cannot unwind past `latch.wait()`.
/// 2. **Every slot runs exactly once.** A slot is either executed
///    inline by the submitter, stolen back from the queue by the
///    submitter, or executed by a pool worker. The pool is never shut
///    down and its queue never drops a slot, so no slot can strand its
///    submitter on the latch.
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
fn worker_main(pool: &Pool) {
    let stats = pool_stats();
    loop {
        // Accumulated park time for this wait (0 when the obs plane is
        // off, or when work was already queued).
        let mut park_from = 0u64;
        let mut parked_ns = 0u64;
        let slot = {
            let mut tasks = pool.lock();
            loop {
                if let Some((_, slot)) = tasks.pop_front() {
                    break slot;
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
                tasks = pool
                    .work_ready
                    .wait(tasks)
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
/// outside the per-chunk containment.
type ChunkResults<R> = Vec<(usize, Vec<R>)>;
type WorkerOutcome<R> = (
    ChunkResults<R>,
    Option<(usize, Box<dyn std::any::Any + Send>)>,
);

/// Maps `0..items` through `f` on `workers` (≥ 2) slots of the pool:
/// the submitter runs one slot itself and queues the rest, each slot
/// drains chunks of [`default_chunk_size`] items off a shared atomic
/// cursor, and the chunks are reassembled in item order.
fn pooled_map<R, F>(workers: usize, items: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk_size = default_chunk_size(items, workers);
    let chunks = items.div_ceil(chunk_size);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut outcomes: Vec<WorkerOutcome<R>> = (0..workers).map(|_| (Vec::new(), None)).collect();
    // ORDERING: job ids only need uniqueness, which fetch_add gives
    // at any ordering; nothing synchronizes through the counter.
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    let latch = Arc::new(JobLatch::new(workers));
    let pool = Pool::get();

    {
        let next = &next;
        let abort = &abort;
        // One closure per worker slot. Each owns a disjoint `&mut` (its
        // outcome cell) plus shared `&`s (the map function, the chunk
        // cursor, the abort flag) and an owned Arc on the latch.
        let mut pending: Vec<(u64, ErasedSlot)> = outcomes
            .iter_mut()
            .map(|out| {
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
                        drain_chunks(items, chunks, chunk_size, f, next, abort)
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

        // The submitter keeps one slot for itself (guaranteed progress
        // even when every worker is busy) and queues the rest for the
        // parked workers.
        let inline = pending.pop();
        pool.submit(pending);
        if let Some((_, slot)) = inline {
            // ORDERING: monotone statistics counter.
            pool_stats().inline_slots.fetch_add(1, Ordering::Relaxed);
            slot();
        }
        // Steal back any of this job's slots the pool has not started
        // yet, then wait for the in-flight ones. Every slot is thereby
        // either run here or run by a pool worker — the latch cannot be
        // left hanging, and a nested map from inside a pool worker
        // cannot deadlock.
        while let Some(slot) = pool.steal(job) {
            // ORDERING: monotone statistics counter.
            pool_stats().steals.fetch_add(1, Ordering::Relaxed);
            man_obs::record_event(man_obs::Stage::Steal, 0, man_obs::now_ns(), 0, "", job);
            slot();
        }
        latch.wait();
    }

    assemble(outcomes, items)
}

/// One worker slot's loop: pull the next unclaimed chunk off the shared
/// atomic cursor, map it under per-chunk panic containment, repeat
/// until the chunks run out or a co-worker aborts.
fn drain_chunks<R, F>(
    items: usize,
    chunks: usize,
    chunk_size: usize,
    f: &F,
    next: &AtomicUsize,
    abort: &AtomicBool,
) -> WorkerOutcome<R>
where
    F: Fn(usize) -> R,
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
        let range = (c * chunk_size)..((c + 1) * chunk_size).min(items);
        match catch_unwind(AssertUnwindSafe(|| range.map(f).collect())) {
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

/// Maps `0..items` through `f` with `parallelism`; output index `i`
/// holds `f(i)`.
///
/// With one worker (`Sequential`, `Threads(1)`, or fewer than two
/// items) this is a plain `map` on the caller. Otherwise the items are
/// split into contiguous chunks that `min(workers, items)` slots of the
/// process-lifetime pool pull off a shared atomic cursor, and the
/// results are reassembled in item order — so the output is exactly
/// the sequential map's, provided `f` is a pure function of its index
/// (which every caller in this workspace guarantees). The calling
/// thread runs one slot itself and steals back any still queued, so a
/// nested `parallel_map` inside `f` cannot deadlock, and the pool's
/// fixed size, not the requested worker count, bounds the OS threads.
///
/// # Panics
///
/// If `f` panics, the panic is *contained*: the other slots finish
/// their current chunk and stop, every slot is accounted for, and then
/// the earliest panic (by chunk order) resumes on the caller. The pool
/// stays usable.
pub fn parallel_map<R, F>(parallelism: Parallelism, items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = parallelism.workers().min(items);
    if workers <= 1 {
        return (0..items).map(f).collect();
    }
    pooled_map(workers, items, &f)
}

#[cfg(test)]
mod tests {
    use super::*;

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
                let calls = AtomicUsize::new(0);
                let out = parallel_map(Parallelism::Threads(workers), items, |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    // Slow enough that parked workers wake and take
                    // chunks before the submitter drains them all.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    i * i
                });
                let expected: Vec<usize> = (0..items).map(|i| i * i).collect();
                assert_eq!(out, expected, "workers={workers} items={items}");
                // Every item was processed exactly once, across whichever
                // workers pulled its chunk.
                assert_eq!(calls.load(Ordering::Relaxed), items);
            }
        }
    }

    #[test]
    fn panic_in_one_chunk_is_contained_and_resumed() {
        let attempted = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(Parallelism::Threads(4), 32, |i| {
                attempted.fetch_add(1, Ordering::Relaxed);
                if i >= 7 {
                    panic!("item {i} exploded");
                }
                i
            })
        }));
        // Containment: the panic surfaced on the caller (no deadlock, no
        // stranded worker — every slot was accounted for by the latch).
        // Chunks are handed out in order and a handed-out chunk always
        // runs, so item 7's chunk ran whichever later chunks also
        // panicked, and its payload is the earliest. How many chunks the
        // *other* workers completed before seeing the abort flag is
        // scheduling-dependent, so it is deliberately not asserted.
        let payload = result.expect_err("the worker panic must surface to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map_or("non-String payload", String::as_str);
        assert_eq!(msg, "item 7 exploded");
        assert!(attempted.load(Ordering::Relaxed) >= 8, "item 7 was reached");

        // The pool survives: the very next call works normally.
        let ok = parallel_map(Parallelism::Threads(4), 8, |i| i);
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
    fn nested_parallel_map_does_not_deadlock() {
        // Outer fan-out over the pool; each outer slot runs an inner
        // parallel_map on the SAME pool. Steal-back guarantees progress.
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
        for round in 0..64u64 {
            let calls = AtomicUsize::new(0);
            let out = parallel_map(Parallelism::Threads(3), 31, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i as u64 + round
            });
            assert_eq!(out, (0..31).map(|i| i + round).collect::<Vec<_>>());
            assert_eq!(calls.load(Ordering::Relaxed), 31);
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
