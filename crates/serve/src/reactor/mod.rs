//! The nonblocking poll reactor front-end (DESIGN.md §13).
//!
//! A thread-per-connection front-end would spend one OS thread per
//! client; ten thousand mostly-idle clients would cost ten thousand
//! stacks doing nothing but blocking in `read`. The reactor inverts
//! that: a handful of threads own *all* the sockets and wait on
//! readiness — `poll(2)` through the one audited shim in [`poll`] — so
//! an idle connection costs one slab slot and eight bytes in the poll
//! set, and the scheduler/registry/metrics stack underneath is reused
//! **unchanged** (the reactor owns socket I/O and framing, nothing
//! else).
//!
//! Three moving parts:
//!
//! * **Reactor threads** (usually one) — each owns a slab of
//!   per-connection state machines and loops poll → accept → read →
//!   parse → hand off → write. Reactor 0 owns the listener and deals
//!   new connections round-robin. Each connection walks
//!   reading → dispatched → writing with explicit partial-read and
//!   partial-write buffers, and *writable backpressure*: a connection
//!   whose outbound buffer passes the high-water mark stops being
//!   polled for readability until the client drains it.
//! * **Dispatch workers** — a small pool that takes parsed requests off
//!   a bounded queue, runs them against the blocking
//!   [`ModelRegistry`](crate::ModelRegistry)/scheduler stack (where the `decode`/`accept`/
//!   `queue_wait`/… span taxonomy of DESIGN.md §12 is recorded exactly
//!   as before), and posts the rendered response back to the owning
//!   reactor's completion queue. A full dispatch queue answers
//!   `overloaded` immediately — backpressure, not unbounded latency.
//! * **Wakers** — one loopback socket pair per reactor; a one-byte
//!   write makes `poll` return so completions and injected connections
//!   are picked up promptly even on an otherwise idle reactor.
//!
//! Both wire modes of `PROTOCOL.md` are served on one port: the first
//! byte of a connection selects NDJSON (anything but `b'M'`) or the
//! length-prefixed binary framing (`"MANB"` handshake, [`crate::framing`]).
//!
//! Every request is parsed in one place, `serve_job`: it opens the
//! `decode`/`encode` spans, answers parse errors, `predict` and
//! `dump_trace` itself, and hands every other verb to the
//! [`RequestHandler`] — the [`ModelRegistry`](crate::ModelRegistry) in
//! production, a fake in the tests that drive the front-end's failure
//! paths.
//!
//! Only the thread counts are configurable ([`ReactorConfig`]); the
//! caps, high-water marks and timings are constants (DESIGN.md §13).
//!
//! Shutdown preserves the drain-then-join contract: reactors stop
//! accepting and reading, wait (bounded by a 5 s grace period) for
//! in-flight dispatches to come back and outbound buffers to flush,
//! then close every socket; the dispatch workers drain the queue and
//! exit when the last reactor drops its sender.

pub(crate) mod poll;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use man_obs::{flight, Span, Stage};

use crate::framing::{self, FrameStatus, HANDSHAKE_LEN, TAG_REQ_JSON, TAG_REQ_PREDICT};
use crate::protocol::{
    dump_trace_response, error_response, parse_request, predict_response, raw_error_response,
    Request,
};
use crate::server::RequestHandler;

/// The reactor front-end's thread counts. The defaults serve tens of
/// thousands of mostly-idle connections on three threads (one reactor,
/// two dispatch workers).
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Event-loop threads. Connections are dealt round-robin across
    /// them at accept time; one is enough for 10k+ mostly-idle
    /// connections (the `conn` bench pins this).
    pub reactor_threads: usize,
    /// Workers calling the blocking scheduler on parsed requests. This
    /// bounds front-end request concurrency; a worker whose predict
    /// finds no batch of its model running runs that batch itself.
    pub dispatch_threads: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            reactor_threads: 1,
            dispatch_threads: 2,
        }
    }
}

/// Connection-slab capacity across all reactors; connections beyond it
/// are accepted and immediately closed (counted in
/// [`FrontendStats::rejected_conns`]).
const MAX_CONNECTIONS: usize = 65_536;
/// Pending parsed requests awaiting a dispatch worker; a full queue
/// answers `overloaded` without blocking the event loop.
const DISPATCH_QUEUE: usize = 1024;
/// Stop polling a connection for readability while its outbound buffer
/// holds at least this many unflushed bytes — the writable backpressure
/// that protects the server from clients that send but never read.
const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Stop polling for readability while this many inbound bytes sit
/// unparsed (a pipelining client that outruns dispatch buffers at most
/// this much per connection).
const READ_HIGH_WATER: usize = 1024 * 1024;
/// Longest NDJSON request line — the binary frame cap; a longer one
/// without a newline is a protocol violation (`bad_request`) and closes
/// the connection.
const MAX_LINE_LEN: usize = framing::MAX_FRAME_LEN as usize;
/// Poll timeout: the upper bound on how stale a shutdown flag or
/// cross-thread wake can go unnoticed.
const POLL_TICK: Duration = Duration::from_millis(50);
/// How long a connection stays in the *hot* poll set after its last
/// event. `poll(2)` costs one kernel visit per entry per call, so the
/// reactor polls only hot connections on the fast path and sweeps the
/// full slab every [`COLD_SCAN_INTERVAL`] — that keeps active-request
/// latency independent of how many idle connections the slab holds
/// (the two-tier scheme of DESIGN.md §13).
const HOT_WINDOW: Duration = Duration::from_millis(100);
/// How often the full slab (cold connections included) joins the poll
/// set. Bounds how long a long-idle connection's new request (or
/// hangup) can sit unnoticed; the cost is one full O(slab) scan per
/// interval, only while hot traffic exists — a fully idle reactor
/// blocks on the full set and pays nothing.
const COLD_SCAN_INTERVAL: Duration = Duration::from_millis(10);
/// How long shutdown waits for in-flight requests to answer and
/// outbound buffers to drain before closing sockets anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// A point-in-time view of the front-end — what the serving example and
/// CI smoke print, and what the `conn` bench records next to its latency
/// numbers.
#[derive(Clone, Debug)]
pub struct FrontendStats {
    /// The front-end engine's name: always `"reactor"`.
    pub mode: &'static str,
    /// Event-loop threads.
    pub reactor_threads: usize,
    /// Dispatch workers.
    pub dispatch_threads: usize,
    /// Connections accepted over the server's lifetime.
    pub accepted_conns: u64,
    /// Connections currently open.
    pub open_conns: usize,
    /// Most connections ever simultaneously open — the slab high-water
    /// mark.
    pub slab_high_water: usize,
    /// Connections dropped because the slab was at capacity.
    pub rejected_conns: u64,
    /// Connections that resolved to the NDJSON wire mode.
    pub ndjson_conns: u64,
    /// Connections that completed the binary-framing handshake.
    pub binary_conns: u64,
}

/// Process-shared front-end counters (all advisory: they report, they
/// never synchronize data).
#[derive(Default)]
struct FrontendCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) open: AtomicUsize,
    pub(crate) high_water: AtomicUsize,
    pub(crate) rejected: AtomicU64,
    pub(crate) ndjson: AtomicU64,
    pub(crate) binary: AtomicU64,
}

impl FrontendCounters {
    /// Records one installed connection and updates the high-water mark.
    fn connection_opened(&self) {
        // ORDERING: advisory statistics counters; reporting only.
        self.accepted.fetch_add(1, Ordering::Relaxed);
        // ORDERING: advisory gauge + monotonic max; reporting only.
        let now_open = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        // ORDERING: monotonic max of an advisory gauge; reporting only.
        self.high_water.fetch_max(now_open, Ordering::Relaxed);
    }

    /// Records one closed connection.
    fn connection_closed(&self) {
        // ORDERING: advisory gauge; reporting only.
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    // ORDERING: advisory snapshot of statistics counters; the loads
    // report, they never synchronize data.
    fn stats(&self, reactor_threads: usize, dispatch_threads: usize) -> FrontendStats {
        FrontendStats {
            mode: "reactor",
            reactor_threads,
            dispatch_threads,
            accepted_conns: self.accepted.load(Ordering::Relaxed),
            open_conns: self.open.load(Ordering::Relaxed),
            slab_high_water: self.high_water.load(Ordering::Relaxed),
            rejected_conns: self.rejected.load(Ordering::Relaxed),
            ndjson_conns: self.ndjson.load(Ordering::Relaxed),
            binary_conns: self.binary.load(Ordering::Relaxed),
        }
    }
}

/// One rendered response headed back to a reactor: the slab slot, the
/// generation that guards against slot reuse, and the wire bytes.
struct Completion {
    slot: usize,
    gen: u64,
    bytes: Vec<u8>,
}

/// What a dispatch worker received to serve.
enum JobKind {
    /// One NDJSON request line (newline stripped).
    Line(String),
    /// One binary frame payload (tag byte included).
    Frame(Vec<u8>),
}

struct DispatchJob {
    reactor: usize,
    slot: usize,
    gen: u64,
    kind: JobKind,
}

/// The cross-thread mailbox of one reactor: connections dealt to it by
/// the acceptor, responses posted by dispatch workers, and the waker
/// that makes its `poll` return to notice either.
struct ReactorShared {
    injected: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker_tx: Mutex<TcpStream>,
}

impl ReactorShared {
    /// Makes the owning reactor's `poll` return. Best-effort: a full
    /// socket buffer or a torn-down reactor both mean "it will wake up
    /// anyway" (pending bytes, or never — it exited).
    fn wake(&self) {
        if let Ok(mut tx) = self.waker_tx.lock() {
            let _ = tx.write(&[1u8]);
        }
    }
}

/// A loopback socket pair standing in for `pipe(2)` — std has no pipe,
/// but a connected TCP pair over 127.0.0.1 delivers the same "one byte
/// written here wakes a poll there" with nothing but std. The accept
/// is verified against the connecting end's address so a stranger
/// racing the ephemeral port cannot slip in.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    for _ in 0..16 {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            tx.set_nonblocking(true)?;
            tx.set_nodelay(true)?;
            rx.set_nonblocking(true)?;
            return Ok((tx, rx));
        }
        // A foreign connection to our ephemeral waker port: drop it and
        // accept again (ours is already queued or about to be).
    }
    Err(io::Error::other(
        "waker pair: could not match the loopback connection",
    ))
}

/// Where a connection sits in its protocol lifecycle.
enum Wire {
    /// No bytes seen yet: the first byte selects the wire mode.
    Sniff,
    /// First byte was `b'M'`: collecting the 8-byte binary handshake.
    Handshake,
    /// Newline-delimited JSON.
    Ndjson,
    /// Length-prefixed binary frames (handshake done).
    Binary,
}

/// One slab entry: a connection's socket plus its state machine.
struct Conn {
    stream: TcpStream,
    /// Guards completions against slot reuse: a response for an earlier
    /// tenant of this slot carries a stale generation and is dropped.
    gen: u64,
    wire: Wire,
    /// A parsed request is with the dispatch workers; reading pauses
    /// (requests queue in `rbuf`) until its completion comes back.
    inflight: bool,
    /// Inbound bytes not yet parsed into a request.
    rbuf: Vec<u8>,
    /// Length of the `rbuf` prefix known to hold no newline (NDJSON
    /// only): newline searches resume here, so a long line arriving in
    /// many reads is scanned once, not once per read.
    line_scan: usize,
    /// Outbound bytes; `wpos..` is unwritten.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Peer sent EOF; serve what is buffered, then close.
    read_closed: bool,
    /// Protocol violation: close as soon as `wbuf` drains.
    kill: bool,
    /// In the hot poll set until this instant (bumped on every event);
    /// cold connections are only swept on the full-scan interval.
    hot_until: Instant,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            wire: Wire::Sniff,
            inflight: false,
            rbuf: Vec::new(),
            line_scan: 0,
            wbuf: Vec::new(),
            wpos: 0,
            read_closed: false,
            kill: false,
            hot_until: Instant::now() + HOT_WINDOW,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The index of the first buffered newline, searching only past
    /// `line_scan` and advancing it over the newline-free prefix.
    fn find_newline(&mut self) -> Option<usize> {
        let unscanned = &self.rbuf[self.line_scan..];
        // `contains` on bytes is a memchr, and most searches of a long
        // line find nothing; `position` then only walks up to the
        // newline it is known to find.
        if !unscanned.contains(&b'\n') {
            self.line_scan = self.rbuf.len();
            return None;
        }
        self.line_scan += unscanned.iter().position(|&b| b == b'\n')?;
        Some(self.line_scan)
    }

    /// Removes the first `n` inbound bytes (a parsed request or the
    /// handshake); the rest has not been searched for a newline yet.
    fn consume(&mut self, n: usize) {
        self.rbuf.drain(..n);
        self.line_scan = 0;
    }

    /// Whether this connection must be in the fast-path poll set: any
    /// pending state (a request in flight, unflushed bytes either way)
    /// or a recent event.
    fn hot(&self, now: Instant) -> bool {
        self.inflight || self.pending_write() > 0 || !self.rbuf.is_empty() || now < self.hot_until
    }
}

/// Sentinel slot values for the two non-connection poll entries.
const SLOT_WAKER: usize = usize::MAX;
const SLOT_LISTENER: usize = usize::MAX - 1;

/// Whether the reactor should keep reading this connection.
///
/// Below [`READ_HIGH_WATER`]: always. At or above it: only while the
/// buffered bytes are a single *incomplete* request. Read backpressure
/// throttles pipelined complete-but-unparsed requests; it must never
/// park a legal large request mid-arrival, or a frame/line bigger than
/// the high-water mark (but within its protocol cap) would wedge the
/// connection forever — unparseable, unanswerable, never closed. The
/// in-progress request is instead bounded by its own cap
/// ([`MAX_LINE_LEN`] / [`framing::MAX_FRAME_LEN`]), whose violations
/// `advance` answers with their stable codes.
fn wants_read(conn: &mut Conn) -> bool {
    if conn.inflight || conn.read_closed || conn.kill || conn.pending_write() >= WRITE_HIGH_WATER {
        return false;
    }
    if conn.rbuf.len() < READ_HIGH_WATER {
        return true;
    }
    match conn.wire {
        // No newline buffered = one incomplete line: read on until the
        // line completes, or one byte past `MAX_LINE_LEN` lets `advance`
        // fire the documented `bad_request` violation.
        Wire::Ndjson => conn.find_newline().is_none() && conn.rbuf.len() <= MAX_LINE_LEN,
        // An incomplete frame is bounded by its own length prefix
        // (≤ MAX_FRAME_LEN — anything larger is a violation `advance`
        // already answered); a complete frame waiting on dispatch is
        // the pipelined case backpressure exists for.
        Wire::Binary => matches!(framing::split_frame(&conn.rbuf), FrameStatus::Incomplete),
        // The wire mode is not known yet (`advance` has not looked at
        // this burst), so no per-request cap applies — hold at the
        // high-water mark; the sniff resolves before the next read.
        Wire::Sniff | Wire::Handshake => false,
    }
}

/// One event-loop thread's state.
struct ReactorThread {
    id: usize,
    shutdown: Arc<AtomicBool>,
    shared: Arc<ReactorShared>,
    /// Every reactor's mailbox (for round-robin dealing); `peers[id]`
    /// is this reactor's own `shared`.
    peers: Vec<Arc<ReactorShared>>,
    counters: Arc<FrontendCounters>,
    waker_rx: TcpStream,
    /// Reactor 0 owns the listener.
    listener: Option<TcpListener>,
    dispatch_tx: SyncSender<DispatchJob>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u64,
    next_deal: usize,
}

impl ReactorThread {
    fn run(mut self) {
        let mut pollfds: Vec<poll::PollFd> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        let mut next_full_scan = Instant::now();
        let tick = POLL_TICK.as_millis() as i32;
        loop {
            let now = Instant::now();
            let shutting = self.shutdown.load(Ordering::SeqCst);
            if shutting && drain_deadline.is_none() {
                drain_deadline = Some(now + SHUTDOWN_GRACE);
            }
            pollfds.clear();
            slots.clear();
            pollfds.push(poll::PollFd::new(self.waker_rx.as_raw_fd(), poll::POLLIN));
            slots.push(SLOT_WAKER);
            if !shutting {
                if let Some(listener) = &self.listener {
                    pollfds.push(poll::PollFd::new(listener.as_raw_fd(), poll::POLLIN));
                    slots.push(SLOT_LISTENER);
                }
            }
            // Two-tier poll set: the fast path polls only *hot*
            // connections, so active-request latency does not pay one
            // kernel fd-visit per idle connection per round trip; the
            // full slab (cold connections included) is swept on the
            // cold-scan interval to pick up long-idle wakeups and
            // hangups. During shutdown every pass is a full sweep.
            let full_scan = shutting || now >= next_full_scan;
            let before_conns = pollfds.len();
            for (i, conn) in self.slab.iter_mut().enumerate() {
                let Some(conn) = conn else { continue };
                if !full_scan && !conn.hot(now) {
                    continue;
                }
                let mut events = 0i16;
                if !shutting && wants_read(conn) {
                    events |= poll::POLLIN;
                }
                if conn.pending_write() > 0 {
                    events |= poll::POLLOUT;
                }
                if events != 0 {
                    pollfds.push(poll::PollFd::new(conn.stream.as_raw_fd(), events));
                    slots.push(i);
                }
            }
            let timeout = if full_scan || pollfds.len() == before_conns {
                // A full sweep — or an empty hot set, in which case the
                // cheapest thing is one *more* full sweep: re-run the
                // loop over every connection and block on the whole
                // slab (a blocked poll costs nothing until an event).
                if !full_scan {
                    for (i, conn) in self.slab.iter_mut().enumerate() {
                        let Some(conn) = conn else { continue };
                        if conn.hot(now) {
                            continue; // already included above
                        }
                        if wants_read(conn) {
                            pollfds.push(poll::PollFd::new(conn.stream.as_raw_fd(), poll::POLLIN));
                            slots.push(i);
                        }
                    }
                }
                next_full_scan = now + COLD_SCAN_INTERVAL;
                tick
            } else {
                // Hot-only set: wake no later than the next full sweep.
                let until_sweep = next_full_scan.saturating_duration_since(now);
                (until_sweep.as_millis().clamp(1, tick as u128)) as i32
            };
            if poll::poll_fds(&mut pollfds, timeout).is_err() {
                // EINVAL and friends: unrecoverable for an event loop;
                // a tick's sleep stops a hot spin while shutdown is
                // still observable.
                std::thread::sleep(POLL_TICK);
            }
            self.drain_waker();
            self.install_injected();
            if !shutting {
                self.accept_batch();
            }
            self.apply_completions();
            let bump = Instant::now() + HOT_WINDOW;
            for (fd, &slot) in pollfds.iter().zip(slots.iter()) {
                if slot == SLOT_WAKER || slot == SLOT_LISTENER || fd.revents == 0 {
                    continue;
                }
                if let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) {
                    conn.hot_until = bump; // an event keeps a connection hot
                }
                if fd.ready(poll::POLLIN) {
                    self.readable(slot);
                }
                if fd.ready(poll::POLLOUT) {
                    self.writable(slot);
                }
            }
            if shutting {
                let busy = self
                    .slab
                    .iter()
                    .flatten()
                    .any(|c| c.inflight || c.pending_write() > 0);
                let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
                if !busy || expired {
                    break;
                }
            }
        }
        // Close every socket (Drop) and account for the closures.
        for slot in 0..self.slab.len() {
            if self.slab[slot].is_some() {
                self.close(slot);
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.waker_rx.read(&mut buf) {
                Ok(0) => return, // all write halves gone; nothing to drain
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn install_injected(&mut self) {
        let streams: Vec<TcpStream> = {
            let mut injected = self
                .shared
                .injected
                .lock()
                .expect("reactor inject lock poisoned");
            std::mem::take(&mut *injected)
        };
        for stream in streams {
            self.install(stream);
        }
    }

    fn accept_batch(&mut self) {
        // Bound the batch so one connect storm cannot starve the
        // already-connected sockets of this loop iteration. Peers are
        // woken once per batch, not once per dealt connection.
        let mut dealt = vec![false; self.peers.len()];
        for _ in 0..512 {
            let Some(listener) = &self.listener else {
                break;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let target = self.next_deal % self.peers.len();
                    self.next_deal = self.next_deal.wrapping_add(1);
                    if target == self.id {
                        self.install(stream);
                    } else {
                        self.peers[target]
                            .injected
                            .lock()
                            .expect("reactor inject lock poisoned")
                            .push(stream);
                        dealt[target] = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE or a torn-down listener: back off until
                // the next tick instead of spinning.
                Err(_) => break,
            }
        }
        for (target, hit) in dealt.into_iter().enumerate() {
            if hit {
                self.peers[target].wake();
            }
        }
    }

    fn install(&mut self, stream: TcpStream) {
        if self.open >= MAX_CONNECTIONS.div_ceil(self.peers.len())
            || stream.set_nonblocking(true).is_err()
        {
            // At capacity (this reactor's share of the slab) or a
            // socket already dead: drop it. Accept-then-close beats
            // leaving the client in the backlog forever.
            // ORDERING: advisory statistics counter; reporting only.
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        self.next_gen += 1;
        let conn = Conn::new(stream, self.next_gen);
        match self.free.pop() {
            Some(slot) => self.slab[slot] = Some(conn),
            None => self.slab.push(Some(conn)),
        }
        self.open += 1;
        self.counters.connection_opened();
    }

    fn close(&mut self, slot: usize) {
        if self.slab[slot].take().is_some() {
            self.free.push(slot);
            self.open -= 1;
            self.counters.connection_closed();
        }
    }

    fn apply_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut completions = self
                .shared
                .completions
                .lock()
                .expect("reactor completion lock poisoned");
            std::mem::take(&mut *completions)
        };
        for completion in done {
            let Some(conn) = self.slab.get_mut(completion.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue; // the slot was recycled; stale response
            }
            conn.inflight = false;
            conn.wbuf.extend_from_slice(&completion.bytes);
            // The client likely answers a response with its next
            // request: keep the connection on the fast path.
            conn.hot_until = Instant::now() + HOT_WINDOW;
            // The reply may unblock the next pipelined request sitting
            // in `rbuf`; `advance` parses it and flushes the socket.
            self.advance(completion.slot);
        }
    }

    fn readable(&mut self, slot: usize) {
        let mut buf = [0u8; 16 * 1024];
        {
            let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            loop {
                if !wants_read(conn) {
                    break; // backpressure: parse before reading more
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(slot);
                        return;
                    }
                }
            }
        }
        self.advance(slot);
    }

    fn writable(&mut self, slot: usize) {
        self.flush(slot);
    }

    /// Parses as much of `rbuf` as the one-request-in-flight discipline
    /// allows — wire-mode sniffing, the binary handshake, then at most
    /// one request dispatch — and flushes whatever is writable.
    fn advance(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.inflight || conn.kill {
                break;
            }
            match conn.wire {
                Wire::Sniff => {
                    match conn.rbuf.first() {
                        None => break,
                        Some(&b'M') => conn.wire = Wire::Handshake,
                        Some(_) => {
                            conn.wire = Wire::Ndjson;
                            // ORDERING: advisory statistics counter.
                            self.counters.ndjson.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Wire::Handshake => {
                    if conn.rbuf.len() < HANDSHAKE_LEN {
                        break;
                    }
                    let mut hello = [0u8; HANDSHAKE_LEN];
                    hello.copy_from_slice(&conn.rbuf[..HANDSHAKE_LEN]);
                    conn.consume(HANDSHAKE_LEN);
                    match framing::negotiate(&hello) {
                        Some(version) => {
                            conn.wbuf.extend_from_slice(&framing::handshake(version));
                            conn.wire = Wire::Binary;
                            // ORDERING: advisory statistics counter.
                            self.counters.binary.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // No agreed framing exists to carry an
                            // error; closing is the specified response.
                            self.close(slot);
                            return;
                        }
                    }
                }
                Wire::Ndjson => match conn.find_newline() {
                    Some(pos) => {
                        let line =
                            std::str::from_utf8(&conn.rbuf[..pos]).map(|l| l.trim().to_owned());
                        conn.consume(pos + 1);
                        let Ok(line) = line else {
                            // A stable `bad_request`, then close — never
                            // a lossy decode that parses mangled bytes.
                            let mut reply = raw_error_response(
                                "bad_request",
                                "request line is not valid UTF-8",
                            )
                            .into_bytes();
                            reply.push(b'\n');
                            conn.wbuf.extend_from_slice(&reply);
                            conn.kill = true;
                            break;
                        };
                        if line.is_empty() {
                            continue; // blank keep-alive line
                        }
                        self.submit(slot, JobKind::Line(line));
                    }
                    None => {
                        if conn.rbuf.len() > MAX_LINE_LEN {
                            let mut reply = raw_error_response(
                                "bad_request",
                                &format!(
                                    "request line exceeds {MAX_LINE_LEN} bytes without a newline"
                                ),
                            )
                            .into_bytes();
                            reply.push(b'\n');
                            conn.wbuf.extend_from_slice(&reply);
                            conn.kill = true;
                        }
                        break;
                    }
                },
                Wire::Binary => match framing::split_frame(&conn.rbuf) {
                    FrameStatus::Incomplete => break,
                    FrameStatus::Complete(payload) => {
                        conn.consume(4 + payload.len());
                        self.submit(slot, JobKind::Frame(payload));
                    }
                    FrameStatus::Violation(why) => {
                        // The byte stream cannot be re-synchronized
                        // after a bad length prefix: answer with the
                        // stable code, then close once it flushes.
                        conn.wbuf.extend_from_slice(&framing::frame_json_response(
                            &raw_error_response("frame_too_large", &why),
                        ));
                        conn.kill = true;
                        break;
                    }
                },
            }
        }
        self.flush(slot);
    }

    /// Hands one parsed request to the dispatch pool, or answers the
    /// overload/unavailable condition inline when the pool cannot take
    /// it (the event loop itself never blocks).
    fn submit(&mut self, slot: usize, kind: JobKind) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let binary = matches!(kind, JobKind::Frame(_));
        let job = DispatchJob {
            reactor: self.id,
            slot,
            gen: conn.gen,
            kind,
        };
        match self.dispatch_tx.try_send(job) {
            Ok(()) => conn.inflight = true,
            Err(e) => {
                let (code, message) = match e {
                    TrySendError::Full(_) => (
                        "overloaded",
                        "front-end dispatch queue is full; retry with backoff",
                    ),
                    TrySendError::Disconnected(_) => ("unavailable", "server is shutting down"),
                };
                let json = raw_error_response(code, message);
                if binary {
                    conn.wbuf
                        .extend_from_slice(&framing::frame_json_response(&json));
                } else {
                    conn.wbuf.extend_from_slice(json.as_bytes());
                    conn.wbuf.push(b'\n');
                }
                if matches!(code, "unavailable") {
                    conn.kill = true;
                }
            }
        }
    }

    /// Writes as much of `wbuf` as the socket takes, then applies the
    /// close conditions (violation flush-out, peer EOF with nothing
    /// left to serve).
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut dead = false;
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() && !conn.wbuf.is_empty() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        let drained = conn.pending_write() == 0;
        if dead || (drained && conn.kill) || (drained && conn.read_closed && !conn.inflight) {
            self.close(slot);
        }
    }
}

/// Serves one JSON request line (the NDJSON grammar, also carried inside
/// binary `TAG_REQ_JSON` frames) and renders the response line, without
/// a trailing newline.
///
/// Tracing: the `decode` span covers request parsing and the `encode`
/// span only the rendering of a predict or error response, so neither
/// overlaps queue-wait, dispatch or the kernel (request ids are assigned
/// deeper, by `ModelHost::submit`, so both carry request id 0).
fn serve_line(handler: &dyn RequestHandler, line: &str) -> String {
    let parsed = {
        let _decode = Span::enter(Stage::Decode);
        parse_request(line)
    };
    match parsed {
        Ok(request) => serve_request(handler, request),
        Err(e) => encode(|| error_response(&e)),
    }
}

/// Runs one response renderer inside the `encode` span.
fn encode<T>(render: impl FnOnce() -> T) -> T {
    let _encode = Span::enter(Stage::Encode);
    render()
}

/// Renders the answer to one parsed request: `predict` and `dump_trace`
/// are answered here, the same way for every handler; every other verb
/// goes to [`RequestHandler::handle`].
pub(crate) fn serve_request(handler: &dyn RequestHandler, request: Request) -> String {
    match request {
        Request::Predict { model, input } => match handler.handle_predict(&model, input) {
            Ok(prediction) => encode(|| predict_response(&model, &prediction)),
            Err(e) => encode(|| error_response(&e)),
        },
        Request::DumpTrace => dump_trace_response(flight::last_dump().as_deref()),
        other => handler.handle(other),
    }
}

/// Serves one dispatch job against the handler and renders the wire
/// bytes for its connection's mode. JSON requests (both wire modes) go
/// through [`serve_line`], so the decode/encode span taxonomy and every
/// error code are identical across framings; the compact predict path
/// mirrors the same spans around its binary codec.
fn serve_job(handler: &dyn RequestHandler, kind: &JobKind) -> Vec<u8> {
    match kind {
        JobKind::Line(line) => {
            let mut bytes = serve_line(handler, line).into_bytes();
            bytes.push(b'\n');
            bytes
        }
        JobKind::Frame(payload) => match payload.first() {
            Some(&TAG_REQ_JSON) => match std::str::from_utf8(&payload[1..]) {
                Ok(line) => framing::frame_json_response(&serve_line(handler, line)),
                // Frame boundaries stay synchronized, so (unlike a
                // mangled NDJSON line) the connection can live on.
                Err(_) => framing::frame_json_response(&raw_error_response(
                    "bad_request",
                    "JSON frame payload is not valid UTF-8",
                )),
            },
            Some(&TAG_REQ_PREDICT) => {
                let decoded = {
                    let _decode = Span::enter(Stage::Decode);
                    framing::decode_predict_request(&payload[1..])
                };
                match decoded {
                    Ok(request) => match handler.handle_predict(&request.model, request.input) {
                        Ok(prediction) => encode(|| framing::frame_predict_response(&prediction)),
                        Err(e) => encode(|| framing::frame_json_response(&error_response(&e))),
                    },
                    Err(why) => framing::frame_json_response(&raw_error_response(
                        "bad_request",
                        &format!("malformed predict frame: {why}"),
                    )),
                }
            }
            _ => framing::frame_json_response(&raw_error_response(
                "bad_request",
                "unknown binary request tag",
            )),
        },
    }
}

fn dispatch_worker(
    rx: &Mutex<Receiver<DispatchJob>>,
    handler: &dyn RequestHandler,
    reactors: &[Arc<ReactorShared>],
) {
    loop {
        // Lock only around the blocking recv; siblings take over the
        // moment this worker moves on to serving.
        let job = match rx.lock().expect("dispatch receiver lock poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // every reactor exited; queue fully drained
        };
        // A panicking handler must not take this thread with it: its
        // client would wait forever and the pool would shrink by one.
        let bytes = catch_unwind(AssertUnwindSafe(|| serve_job(handler, &job.kind)))
            .unwrap_or_else(|_| {
                let json = raw_error_response("internal", "request handler panicked");
                match job.kind {
                    JobKind::Line(_) => {
                        let mut bytes = json.into_bytes();
                        bytes.push(b'\n');
                        bytes
                    }
                    JobKind::Frame(_) => framing::frame_json_response(&json),
                }
            });
        man_obs::flush();
        let reactor = &reactors[job.reactor];
        reactor
            .completions
            .lock()
            .expect("reactor completion lock poisoned")
            .push(Completion {
                slot: job.slot,
                gen: job.gen,
                bytes,
            });
        reactor.wake();
    }
}

/// A running reactor front-end: the event-loop threads, the dispatch
/// pool, and the shared counters.
pub(crate) struct ReactorFrontend {
    shutdown: Arc<AtomicBool>,
    reactors: Vec<Arc<ReactorShared>>,
    reactor_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    counters: Arc<FrontendCounters>,
    reactor_threads: usize,
    dispatch_threads: usize,
}

impl ReactorFrontend {
    /// Spawns the event-loop threads and dispatch pool over an
    /// already-bound listener.
    pub(crate) fn spawn(
        listener: TcpListener,
        handler: Arc<dyn RequestHandler>,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let reactor_threads = config.reactor_threads.max(1);
        let dispatch_threads = config.dispatch_threads.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(FrontendCounters::default());
        let (dispatch_tx, dispatch_rx) = mpsc::sync_channel(DISPATCH_QUEUE);
        let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));

        let mut shareds = Vec::with_capacity(reactor_threads);
        let mut waker_rxs = Vec::with_capacity(reactor_threads);
        for _ in 0..reactor_threads {
            let (tx, rx) = waker_pair()?;
            shareds.push(Arc::new(ReactorShared {
                injected: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                waker_tx: Mutex::new(tx),
            }));
            waker_rxs.push(rx);
        }

        let mut reactor_handles = Vec::with_capacity(reactor_threads);
        let mut worker_handles = Vec::with_capacity(dispatch_threads);
        let mut spawn_err: Option<io::Error> = None;
        let mut listener = Some(listener);
        for (id, waker_rx) in waker_rxs.into_iter().enumerate() {
            let thread = ReactorThread {
                id,
                shutdown: Arc::clone(&shutdown),
                shared: Arc::clone(&shareds[id]),
                peers: shareds.clone(),
                counters: Arc::clone(&counters),
                waker_rx,
                listener: listener.take(), // reactor 0 owns it
                dispatch_tx: dispatch_tx.clone(),
                slab: Vec::new(),
                free: Vec::new(),
                open: 0,
                next_gen: 0,
                next_deal: 0,
            };
            match std::thread::Builder::new()
                .name(format!("man-serve/reactor/{id}"))
                .spawn(move || thread.run())
            {
                Ok(handle) => reactor_handles.push(handle),
                Err(e) => {
                    spawn_err = Some(e);
                    break;
                }
            }
        }
        // The reactor threads hold the only senders now; when the last
        // exits, the workers drain the queue and see Disconnected.
        drop(dispatch_tx);

        if spawn_err.is_none() {
            for w in 0..dispatch_threads {
                let rx = Arc::clone(&dispatch_rx);
                let handler = Arc::clone(&handler);
                let reactors = shareds.clone();
                match std::thread::Builder::new()
                    .name(format!("man-serve/dispatch/{w}"))
                    .spawn(move || dispatch_worker(&rx, handler.as_ref(), &reactors))
                {
                    Ok(handle) => worker_handles.push(handle),
                    Err(e) => {
                        spawn_err = Some(e);
                        break;
                    }
                }
            }
        }

        if let Some(e) = spawn_err {
            // A half-built front-end must not leak live threads (or the
            // listener reactor 0 is holding): run the normal shutdown
            // over whatever was spawned before propagating the error.
            shutdown.store(true, Ordering::SeqCst);
            for shared in &shareds {
                shared.wake();
            }
            for handle in reactor_handles {
                let _ = handle.join();
            }
            // Reactors gone -> all senders dropped -> workers drain
            // whatever was queued, see Disconnected, and exit.
            for handle in worker_handles {
                let _ = handle.join();
            }
            return Err(e);
        }

        Ok(Self {
            shutdown,
            reactors: shareds,
            reactor_handles,
            worker_handles,
            counters,
            reactor_threads,
            dispatch_threads,
        })
    }

    pub(crate) fn stats(&self) -> FrontendStats {
        self.counters
            .stats(self.reactor_threads, self.dispatch_threads)
    }

    /// Drain-then-join shutdown: stop accepting, let in-flight requests
    /// answer (bounded by the grace period), close every socket, join
    /// everything. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for reactor in &self.reactors {
            reactor.wake();
        }
        for handle in self.reactor_handles.drain(..) {
            let _ = handle.join();
        }
        // Reactors gone -> all dispatch senders dropped -> workers
        // drain whatever was queued and exit.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}
