//! `man-obs`: the std-only observability plane (DESIGN.md §12).
//!
//! Three layers, each cheap enough to leave on in production:
//!
//! 1. **Tracing spans** — [`Span::enter`] RAII guards record
//!    `(stage, request, start, duration)` tuples against monotonic
//!    clocks only. The hot path writes into a fixed-size thread-local
//!    buffer (no allocation, no locks); full buffers drain into the
//!    process-wide flight-recorder ring ([`flight`]).
//! 2. **Flight recorder** — a bounded ring of recent [`SpanEvent`]s
//!    with triggered JSON dumps on incidents (overload, timeout,
//!    worker panic). See [`flight`].
//! 3. **Export plane** — per-stage octave histograms (`hist`)
//!    rendered as Prometheus text exposition ([`export`]).
//!
//! Everything is gated by a runtime [`ObsLevel`]: `Off` is a single
//! relaxed load and a branch, `Counters` adds per-stage histogram
//! increments, `Spans` additionally records events for the flight
//! recorder. The <2% overhead contract between `Off` and `Spans` is
//! measured and enforced by the `obs` bench bin, which exits non-zero
//! when the contract breaks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
mod hist;

pub use hist::{HistogramSnapshot, OctaveHistogram, OCTAVE_BUCKETS};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
// DETERMINISM: the one sanctioned time source of the observability
// plane — Instants feed histograms and span events only, never any
// numeric result (§8 bit-identity is untouched by this crate).
use std::time::Instant;

/// How much the observability plane records at runtime.
///
/// The ordering is meaningful: each level is a superset of the one
/// below it.
///
/// # Example
///
/// ```
/// use man_obs::ObsLevel;
///
/// // Each level is a superset of the one below it.
/// assert!(ObsLevel::Spans > ObsLevel::Counters);
/// assert!(ObsLevel::Counters > ObsLevel::Off);
/// assert_eq!(ObsLevel::parse("spans"), Some(ObsLevel::Spans));
///
/// // The process-wide level gates every instrumentation site.
/// man_obs::set_level(ObsLevel::Spans);
/// assert_eq!(man_obs::level(), ObsLevel::Spans);
/// assert_eq!(man_obs::level().label(), "spans");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Record nothing; every instrumentation site is one relaxed
    /// atomic load and an untaken branch.
    Off = 0,
    /// Per-stage octave histograms (and pool utilization counters),
    /// no span events.
    Counters = 1,
    /// Histograms plus span events into the flight-recorder ring.
    Spans = 2,
}

impl ObsLevel {
    /// Stable lower-case label (`"off"` / `"counters"` / `"spans"`).
    pub fn label(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Spans => "spans",
        }
    }

    /// Parses a level label (as accepted in `MAN_OBS`).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ObsLevel::Off),
            "counters" | "1" => Some(ObsLevel::Counters),
            "spans" | "2" | "full" => Some(ObsLevel::Spans),
            _ => None,
        }
    }
}

/// Sentinel meaning "not initialised yet — consult `MAN_OBS`".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// Reads `MAN_OBS` once to seed the level; unset or unparseable means
/// [`ObsLevel::Counters`] — histograms are cheap enough to be the
/// default, span recording is opt-in.
fn level_from_env() -> ObsLevel {
    std::env::var("MAN_OBS")
        .ok()
        .and_then(|v| ObsLevel::parse(&v))
        .unwrap_or(ObsLevel::Counters)
}

/// The current recording level.
///
/// ORDERING: the level is an advisory gate, not a synchronisation
/// point — a racing `set_level` may be observed a beat late, which
/// only means a few events more or fewer get recorded.
pub fn level() -> ObsLevel {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != LEVEL_UNSET {
        // ORDERING: see `level` doc — advisory gate only.
        return match raw {
            0 => ObsLevel::Off,
            1 => ObsLevel::Counters,
            _ => ObsLevel::Spans,
        };
    }
    let seeded = level_from_env();
    // ORDERING: first-call initialisation race is benign — every
    // contender computes the same env-derived value.
    LEVEL.store(seeded as u8, Ordering::Relaxed);
    seeded
}

/// Sets the recording level process-wide (overrides `MAN_OBS`).
pub fn set_level(level: ObsLevel) {
    // ORDERING: advisory gate; see `level`.
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether per-stage histograms (and pool counters) are recorded.
#[inline]
pub fn counters_enabled() -> bool {
    level() >= ObsLevel::Counters
}

/// Whether span events are recorded for the flight recorder.
#[inline]
pub(crate) fn spans_enabled() -> bool {
    level() == ObsLevel::Spans
}

/// The instrumented lifecycle stages (DESIGN.md §12 span taxonomy).
///
/// The first seven are the serving request pipeline in order; `Park`,
/// `Chunk` and `Steal` are `man-par` worker-pool internals; the last
/// three are incident markers recorded at the moment something goes
/// wrong (their duration is 0, their purpose is to anchor a
/// flight-recorder dump to the failing request).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// `submit` admitting one request into a model's queue.
    Accept = 0,
    /// Protocol line parse (NDJSON → `Request`).
    Decode = 1,
    /// Enqueue → scheduler drain, per request.
    QueueWait = 2,
    /// Scheduler drain loop forming one micro-batch.
    Coalesce = 3,
    /// One batch dispatch end-to-end (plan resolution + inference +
    /// replies); the event label carries the resolved shard plan.
    Dispatch = 4,
    /// Kernel execution of one batch inside the session; the event
    /// label carries the resolved shard plan.
    Kernel = 5,
    /// Response render + socket write.
    Encode = 6,
    /// A pool worker parked on the condvar (duration = idle wait).
    Park = 7,
    /// One chunk handed out and executed by a pool worker.
    Chunk = 8,
    /// The submitter stealing back an unstarted slot.
    Steal = 9,
    /// Incident: a request rejected with `Overloaded`.
    Overloaded = 10,
    /// Incident: a submitter gave up waiting (the scheduler's 30 s
    /// request timeout).
    Timeout = 11,
    /// Incident: a worker panic was contained.
    Panic = 12,
}

/// Number of [`Stage`] variants.
pub(crate) const STAGE_COUNT: usize = 13;

impl Stage {
    /// Every stage, in pipeline order.
    pub(crate) const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accept,
        Stage::Decode,
        Stage::QueueWait,
        Stage::Coalesce,
        Stage::Dispatch,
        Stage::Kernel,
        Stage::Encode,
        Stage::Park,
        Stage::Chunk,
        Stage::Steal,
        Stage::Overloaded,
        Stage::Timeout,
        Stage::Panic,
    ];

    /// Stable snake_case label (used in dumps and Prometheus labels).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::Coalesce => "coalesce",
            Stage::Dispatch => "dispatch",
            Stage::Kernel => "kernel",
            Stage::Encode => "encode",
            Stage::Park => "park",
            Stage::Chunk => "chunk",
            Stage::Steal => "steal",
            Stage::Overloaded => "overloaded",
            Stage::Timeout => "timeout",
            Stage::Panic => "panic",
        }
    }
}

/// One recorded span: a stage, the request it served (0 when the work
/// is not request-scoped), where it sat on the process-monotonic
/// clock, and an optional static label + numeric argument (e.g. shard
/// plan + worker count).
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Which lifecycle stage this span covers.
    pub stage: Stage,
    /// Request id ([`next_request_id`]); 0 for non-request work.
    pub req: u64,
    /// Start, in nanoseconds on the process-monotonic clock.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for incident markers).
    pub dur_ns: u64,
    /// Static annotation (e.g. the shard-plan label); `""` when unused.
    pub(crate) label: &'static str,
    /// Numeric annotation (worker count, batch size, ...); 0 unused.
    pub(crate) arg: u64,
    /// Recording thread (process-unique small integer).
    pub(crate) thread: u32,
}

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// into the observability plane).
pub fn now_ns() -> u64 {
    // DETERMINISM: monotonic observability clock; never feeds results.
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // DETERMINISM: epoch-relative monotonic read; never feeds results.
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(0);

/// Allocates a process-unique request id (starting at 1; 0 means
/// "no request" in [`SpanEvent::req`]).
pub fn next_request_id() -> u64 {
    // ORDERING: a pure id dispenser — uniqueness is all that is
    // promised, and fetch_add is atomic at every ordering.
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed) + 1
}

fn stage_hists() -> &'static [OctaveHistogram; STAGE_COUNT] {
    static HISTS: OnceLock<[OctaveHistogram; STAGE_COUNT]> = OnceLock::new();
    HISTS.get_or_init(|| std::array::from_fn(|_| OctaveHistogram::new()))
}

/// Snapshots every per-stage latency histogram (microsecond samples),
/// in `Stage::ALL` order.
pub fn stage_snapshot() -> Vec<(Stage, HistogramSnapshot)> {
    Stage::ALL
        .iter()
        .map(|&s| (s, stage_hists()[s as usize].snapshot()))
        .collect()
}

/// Capacity of each thread-local event buffer. A full buffer drains
/// into the flight-recorder ring; the constant trades drain frequency
/// (one ring-mutex acquisition per `THREAD_BUFFER_EVENTS` events)
/// against how much history a quiet thread can sit on before a
/// lifecycle flush pushes it out.
pub(crate) const THREAD_BUFFER_EVENTS: usize = 256;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// The per-thread collector buffer: a preallocated `Vec` that never
/// reallocates (push is append-into-capacity), drained into
/// [`flight`] when full, at explicit [`flush`] points, and on thread
/// exit (`Drop`).
struct ThreadBuffer {
    thread: u32,
    events: Vec<SpanEvent>,
}

impl ThreadBuffer {
    fn new() -> Self {
        Self {
            // ORDERING: a pure id dispenser, as `next_request_id`.
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed) + 1,
            events: Vec::with_capacity(THREAD_BUFFER_EVENTS),
        }
    }

    fn push(&mut self, mut event: SpanEvent) {
        event.thread = self.thread;
        if self.events.len() == THREAD_BUFFER_EVENTS {
            flight::extend(&self.events);
            self.events.clear();
        }
        self.events.push(event);
    }

    fn drain(&mut self) {
        if !self.events.is_empty() {
            flight::extend(&self.events);
            self.events.clear();
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.drain();
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

fn push_event(event: SpanEvent) {
    // try_with + try_borrow_mut: recording must never panic, not even
    // during thread teardown or from a re-entrant drop.
    let _ = BUFFER.try_with(|b| {
        if let Ok(mut b) = b.try_borrow_mut() {
            b.push(event);
        }
    });
}

/// Drains the calling thread's event buffer into the flight-recorder
/// ring. The serving scheduler calls this after each batch and the
/// protocol layer after each incident, so dumps see complete request
/// lifecycles without waiting for a buffer to fill.
pub fn flush() {
    let _ = BUFFER.try_with(|b| {
        if let Ok(mut b) = b.try_borrow_mut() {
            b.drain();
        }
    });
}

/// Records one finished span: feeds the per-stage histogram at
/// [`ObsLevel::Counters`] and above, and the flight-recorder event
/// stream at [`ObsLevel::Spans`].
pub fn record(stage: Stage, req: u64, start_ns: u64, dur_ns: u64, label: &'static str, arg: u64) {
    let level = level();
    if level < ObsLevel::Counters {
        return;
    }
    stage_hists()[stage as usize].record(dur_ns / 1_000);
    if level == ObsLevel::Spans {
        push_event(SpanEvent {
            stage,
            req,
            start_ns,
            dur_ns,
            label,
            arg,
            thread: 0,
        });
    }
}

/// Records an event without touching the stage histogram — for
/// per-request annotations of work whose histogram truth is recorded
/// once per batch (e.g. each request's share of a batch dispatch).
/// No-op below [`ObsLevel::Spans`].
pub fn record_event(
    stage: Stage,
    req: u64,
    start_ns: u64,
    dur_ns: u64,
    label: &'static str,
    arg: u64,
) {
    if !spans_enabled() {
        return;
    }
    push_event(SpanEvent {
        stage,
        req,
        start_ns,
        dur_ns,
        label,
        arg,
        thread: 0,
    });
}

/// Records an incident marker (zero-duration event at "now") — the
/// anchor a flight-recorder dump is built around.
pub fn incident(stage: Stage, req: u64) {
    let level = level();
    if level < ObsLevel::Counters {
        return;
    }
    stage_hists()[stage as usize].record(0);
    if level == ObsLevel::Spans {
        push_event(SpanEvent {
            stage,
            req,
            start_ns: now_ns(),
            dur_ns: 0,
            label: "",
            arg: 0,
            thread: 0,
        });
    }
}

/// An RAII span: construction timestamps the start, drop records the
/// stage duration. Below [`ObsLevel::Counters`] construction reads no
/// clock and drop is a no-op (`start_ns == 0` disarms it).
#[derive(Debug)]
pub struct Span {
    stage: Stage,
    req: u64,
    label: &'static str,
    arg: u64,
    start_ns: u64,
}

impl Span {
    /// Enters a stage for non-request-scoped work.
    pub fn enter(stage: Stage) -> Span {
        Span::labeled(stage, 0, "", 0)
    }

    /// Enters a stage on behalf of one request.
    pub fn enter_for(stage: Stage, req: u64) -> Span {
        Span::labeled(stage, req, "", 0)
    }

    /// Enters a stage with a static label and numeric argument (e.g.
    /// the resolved plan label and worker count).
    pub fn labeled(stage: Stage, req: u64, label: &'static str, arg: u64) -> Span {
        let start_ns = if counters_enabled() {
            now_ns().max(1)
        } else {
            0
        };
        Span {
            stage,
            req,
            label,
            arg,
            start_ns,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.start_ns == 0 {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        record(
            self.stage,
            self.req,
            self.start_ns,
            dur_ns,
            self.label,
            self.arg,
        );
    }
}

/// Serialises tests that mutate the process-wide level (unit tests in
/// this binary run concurrently; the level is a global).
#[cfg(test)]
pub(crate) fn test_level_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_round_trips() {
        for l in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Spans] {
            assert_eq!(ObsLevel::parse(l.label()), Some(l));
        }
        assert_eq!(ObsLevel::parse("bogus"), None);
        assert!(ObsLevel::Off < ObsLevel::Counters);
        assert!(ObsLevel::Counters < ObsLevel::Spans);
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn stage_labels_are_unique() {
        let mut labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), STAGE_COUNT);
    }

    #[test]
    fn span_records_into_stage_histogram_and_ring() {
        let _guard = test_level_lock();
        set_level(ObsLevel::Spans);
        let before = stage_hists()[Stage::Decode as usize].snapshot().count;
        drop(Span::labeled(Stage::Decode, 42, "test", 7));
        flush();
        let after = stage_hists()[Stage::Decode as usize].snapshot().count;
        assert_eq!(after, before + 1);
        let events = flight::snapshot_recent(u64::MAX);
        assert!(events
            .iter()
            .any(|e| e.req == 42 && e.stage == Stage::Decode && e.arg == 7));
        set_level(ObsLevel::Counters);
    }

    #[test]
    fn off_level_disarms_spans() {
        let _guard = test_level_lock();
        set_level(ObsLevel::Off);
        let before = stage_hists()[Stage::Encode as usize].snapshot().count;
        drop(Span::enter(Stage::Encode));
        let after = stage_hists()[Stage::Encode as usize].snapshot().count;
        assert_eq!(after, before);
        set_level(ObsLevel::Counters);
    }
}
