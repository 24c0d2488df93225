//! The flight recorder: a process-wide bounded ring of recent span
//! events, and triggered JSON dumps for post-mortems.
//!
//! Thread-local collector buffers ([`crate::flush`] / full-buffer
//! drains) land here. The ring holds the last `RING_CAPACITY`
//! events and overwrites the oldest on overflow — recording never
//! blocks on a reader and never grows without bound. When something
//! goes wrong (`Overloaded`, a request timeout, a contained worker
//! panic) the serving tier calls [`trigger_dump`], which freezes the
//! last `DUMP_WINDOW_MS` of events into a JSON document retrievable
//! over the wire via the `dump_trace` protocol verb.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::Value;

use crate::{now_ns, spans_enabled, SpanEvent};

/// Capacity of the event ring. At serving rates of ~10k spans/s this
/// is roughly the last second of activity — sized to comfortably
/// cover [`DUMP_WINDOW_MS`].
pub(crate) const RING_CAPACITY: usize = 8192;

/// How far back a triggered dump reaches, in milliseconds.
pub(crate) const DUMP_WINDOW_MS: u64 = 1000;

/// Minimum spacing between two triggered dumps, in nanoseconds: an
/// overload storm rejects thousands of requests per second, and one
/// post-mortem per 100ms is plenty.
const TRIGGER_INTERVAL_NS: u64 = 100_000_000;

fn ring() -> &'static Mutex<VecDeque<SpanEvent>> {
    static RING: OnceLock<Mutex<VecDeque<SpanEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

fn last_dump_slot() -> &'static Mutex<Option<String>> {
    static LAST: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(None))
}

/// Appends a drained collector batch to the ring, evicting the oldest
/// events past [`RING_CAPACITY`] (the overwrite semantics of §12).
pub(crate) fn extend(events: &[SpanEvent]) {
    if events.is_empty() {
        return;
    }
    let mut ring = ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for &e in events {
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(e);
    }
}

/// Copies out every ring event that started within the last
/// `window_ns` nanoseconds (pass `u64::MAX` for everything held).
pub fn snapshot_recent(window_ns: u64) -> Vec<SpanEvent> {
    let cutoff = now_ns().saturating_sub(window_ns);
    let ring = ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ring.iter()
        .filter(|e| e.start_ns >= cutoff)
        .copied()
        .collect()
}

/// Empties the ring and forgets the last triggered dump (tests and
/// the bench bin use this to isolate scenarios).
pub fn clear() {
    ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    *last_dump_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    // ORDERING: monotonic rate-limiter reset; advisory only.
    LAST_TRIGGER_NS.store(u64::MAX, Ordering::Relaxed);
}

/// Renders a dump document for the last `window_ns` of events.
///
/// The format is stable: `reason`, `req` (the anchoring request, 0 if
/// none), `at_us` (process-monotonic trigger time), `window_ms`, and
/// an `events` array of `{stage, req, start_us, dur_us, label, arg,
/// thread}` objects in ring (arrival) order.
pub(crate) fn render_dump(reason: &str, req: u64, window_ns: u64) -> String {
    let events = snapshot_recent(window_ns);
    let rows: Vec<Value> = events
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("stage".to_owned(), Value::Str(e.stage.label().to_owned())),
                ("req".to_owned(), Value::U64(e.req)),
                ("start_us".to_owned(), Value::U64(e.start_ns / 1_000)),
                ("dur_us".to_owned(), Value::U64(e.dur_ns / 1_000)),
                ("label".to_owned(), Value::Str(e.label.to_owned())),
                ("arg".to_owned(), Value::U64(e.arg)),
                ("thread".to_owned(), Value::U64(u64::from(e.thread))),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("reason".to_owned(), Value::Str(reason.to_owned())),
        ("req".to_owned(), Value::U64(req)),
        ("at_us".to_owned(), Value::U64(now_ns() / 1_000)),
        ("window_ms".to_owned(), Value::U64(window_ns / 1_000_000)),
        ("events".to_owned(), Value::Array(rows)),
    ]);
    serde_json::to_string(&doc).expect("dump document serialises")
}

static LAST_TRIGGER_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Freezes the last `DUMP_WINDOW_MS` of events into the retained
/// dump, anchored to `reason` and `req`. Rate-limited (at most one
/// dump per 100ms) and a no-op below [`crate::ObsLevel::Spans`] —
/// there are no events to dump. Returns whether a dump was taken.
pub fn trigger_dump(reason: &str, req: u64) -> bool {
    if !spans_enabled() {
        return false;
    }
    let now = now_ns();
    // ORDERING: the rate limiter is advisory — losing a race only
    // means one extra (or one fewer) dump in a 100ms window; the dump
    // slot itself is guarded by its mutex.
    let last = LAST_TRIGGER_NS.load(Ordering::Relaxed);
    if last != u64::MAX && now.saturating_sub(last) < TRIGGER_INTERVAL_NS {
        return false;
    }
    // ORDERING: see above — advisory rate limiter.
    LAST_TRIGGER_NS.store(now, Ordering::Relaxed);
    let doc = render_dump(reason, req, DUMP_WINDOW_MS * 1_000_000);
    *last_dump_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(doc);
    true
}

/// The most recent triggered dump, if any (a JSON document from
/// `render_dump`).
pub fn last_dump() -> Option<String> {
    last_dump_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_level_lock, ObsLevel, Stage};

    fn event(stage: Stage, req: u64, start_ns: u64) -> SpanEvent {
        SpanEvent {
            stage,
            req,
            start_ns,
            dur_ns: 5_000,
            label: "plan",
            arg: 4,
            thread: 1,
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _guard = test_level_lock();
        set_level(ObsLevel::Spans);
        clear();
        let now = now_ns();
        let batch: Vec<SpanEvent> = (0..RING_CAPACITY + 10)
            .map(|i| event(Stage::Chunk, i as u64 + 1, now))
            .collect();
        extend(&batch);
        let held = snapshot_recent(u64::MAX);
        assert_eq!(held.len(), RING_CAPACITY);
        // The 10 oldest were evicted.
        assert_eq!(held.first().map(|e| e.req), Some(11));
        clear();
        set_level(ObsLevel::Counters);
    }

    #[test]
    fn dump_round_trips_through_json() {
        let _guard = test_level_lock();
        set_level(ObsLevel::Spans);
        clear();
        extend(&[event(Stage::Dispatch, 7, now_ns())]);
        assert!(trigger_dump("overloaded", 9));
        let dump = last_dump().expect("dump retained");
        let parsed: Value = serde_json::from_str(&dump).expect("dump parses");
        let obj = parsed.as_object().expect("dump is an object");
        let reason = obj.iter().find(|(k, _)| k == "reason").map(|(_, v)| v);
        assert!(matches!(reason, Some(Value::Str(s)) if s == "overloaded"));
        let events = obj.iter().find(|(k, _)| k == "events").map(|(_, v)| v);
        match events {
            Some(Value::Array(rows)) => assert!(!rows.is_empty()),
            other => panic!("events array missing: {other:?}"),
        }
        clear();
        set_level(ObsLevel::Counters);
    }

    #[test]
    fn triggers_are_rate_limited_and_gated() {
        let _guard = test_level_lock();
        set_level(ObsLevel::Spans);
        clear();
        assert!(trigger_dump("first", 1));
        assert!(!trigger_dump("second", 2), "within the 100ms window");
        set_level(ObsLevel::Counters);
        clear();
        assert!(!trigger_dump("gated", 3), "no dump below Spans");
        assert!(last_dump().is_none());
    }

    #[test]
    fn snapshot_window_filters_old_events() {
        let _guard = test_level_lock();
        set_level(ObsLevel::Spans);
        clear();
        extend(&[event(Stage::Kernel, 1, now_ns())]);
        std::thread::sleep(std::time::Duration::from_millis(40));
        extend(&[event(Stage::Kernel, 2, now_ns())]);
        let recent = snapshot_recent(10_000_000);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].req, 2);
        clear();
        set_level(ObsLevel::Counters);
    }
}
