//! Flight-recorder smoke: force an `Overloaded` rejection with full
//! span tracing on and assert the triggered dump parses, anchors the
//! rejecting request, and covers the whole request lifecycle —
//! queue-wait, coalesce, dispatch and kernel (both with the resolved
//! shard-plan label) — for a single request id. Also round-trips the `dump_trace` and `metrics`
//! protocol verbs over loopback TCP, and checks that a served predict's
//! `encode` span starts only after its kernel has finished.
//!
//! The obs level and the flight-recorder ring are process-global state,
//! so each `#[test]` holds [`OBS`] for its whole run — parallel test
//! threads must not flip the level or clear the ring under each other.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline, ServeError};
use man_serve::obs::{self, flight, ObsLevel, Stage};
use man_serve::{BatchConfig, BinaryClient, ModelRegistry, Server, TcpClient};
use serde::Value;

const IN_DIM: usize = 24;

static OBS: Mutex<()> = Mutex::new(());

fn compiled_model(seed: u64, hidden: usize) -> CompiledModel {
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(seed)
    };
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, hidden, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(hidden, 4, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn probe_input(i: usize) -> Vec<f32> {
    (0..IN_DIM)
        .map(|j| ((i * 7 + j * 3) % 13) as f32 / 13.0)
        .collect()
}

fn field<'v>(obj: &'v [(String, Value)], key: &str) -> &'v Value {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("dump object is missing field `{key}`"))
}

fn str_field(obj: &[(String, Value)], key: &str) -> String {
    match field(obj, key) {
        Value::Str(s) => s.clone(),
        other => panic!("field `{key}` is not a string: {other:?}"),
    }
}

fn u64_field(obj: &[(String, Value)], key: &str) -> u64 {
    match field(obj, key) {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        other => panic!("field `{key}` is not an integer: {other:?}"),
    }
}

#[test]
fn forced_overload_dumps_a_full_request_lifecycle() {
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    obs::set_level(ObsLevel::Spans);
    flight::clear();

    // A scheduler that can be both productive and overwhelmed: one
    // batch at a time, a 2-slot queue, and a model wide enough (24 →
    // 8192 → 4) that one batch outlasts several submissions. Completed
    // requests populate the ring with lifecycle spans; the hammering
    // phase then trips `Overloaded`, which triggers the dump.
    let registry = ModelRegistry::new(BatchConfig {
        max_batch: 4,
        queue_capacity: 2,
        ..BatchConfig::default()
    });
    registry.install("m", compiled_model(3, 8192));

    // Phase A: uncontended predicts, so complete request lifecycles sit
    // in the ring when the dump freezes its 1s window.
    for i in 0..32 {
        registry
            .predict("m", probe_input(i))
            .expect("uncontended predicts succeed");
    }

    // Phase B: saturate until at least one submission is rejected.
    let saw_overload = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..12)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let saw_overload = Arc::clone(&saw_overload);
            std::thread::spawn(move || {
                for i in 0..40 {
                    match registry.predict("m", probe_input(t * 40 + i)) {
                        Ok(_) => {}
                        Err(ManError::Serve(ServeError::Overloaded { .. })) => {
                            saw_overload.store(true, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error under load: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("load thread panicked");
    }
    assert!(
        saw_overload.load(Ordering::Relaxed),
        "a 2-slot queue under 12 hammering threads must overflow"
    );

    // The dump: valid JSON, anchored to the rejecting request.
    let dump_text = flight::last_dump().expect("an Overloaded rejection triggers a dump");
    let dump: Value = serde_json::from_str(&dump_text).expect("the dump is valid JSON");
    let dump = dump.as_object().expect("the dump is a JSON object");
    assert_eq!(str_field(dump, "reason"), "overloaded");
    let trigger_req = u64_field(dump, "req");
    assert_ne!(trigger_req, 0, "the dump anchors the rejecting request");

    let events = match field(dump, "events") {
        Value::Array(rows) => rows,
        other => panic!("`events` is not an array: {other:?}"),
    };
    assert!(!events.is_empty());

    // Index the events: stages seen per request id, and the labels the
    // dispatch/kernel stages carried.
    let mut stages_by_req: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    let mut dispatch_labels: BTreeSet<String> = BTreeSet::new();
    let mut kernel_labels: BTreeSet<String> = BTreeSet::new();
    for event in events {
        let event = event.as_object().expect("events are objects");
        let stage = str_field(event, "stage");
        let req = u64_field(event, "req");
        match stage.as_str() {
            "dispatch" => {
                dispatch_labels.insert(str_field(event, "label"));
            }
            "kernel" => {
                kernel_labels.insert(str_field(event, "label"));
            }
            _ => {}
        }
        stages_by_req.entry(req).or_default().insert(stage);
    }

    // The rejecting request's own trace reached the ring before the
    // dump froze (incident + flush precede the trigger).
    let trigger_stages = stages_by_req
        .get(&trigger_req)
        .unwrap_or_else(|| panic!("no events for the rejecting request {trigger_req}"));
    assert!(
        trigger_stages.contains("overloaded"),
        "rejecting request {trigger_req} lacks its overloaded incident: {trigger_stages:?}"
    );

    // Some single request id covers the full lifecycle.
    let lifecycle = ["queue_wait", "coalesce", "dispatch", "kernel"];
    let covered = stages_by_req
        .iter()
        .find(|(req, stages)| **req != 0 && lifecycle.iter().all(|s| stages.contains(*s)));
    assert!(
        covered.is_some(),
        "no request id covers {lifecycle:?}; saw {stages_by_req:?}"
    );

    // Dispatch and kernel events carry the resolved shard-plan label.
    let stats = registry.stats(Some("m")).expect("stats").remove(0);
    for label in dispatch_labels.iter().chain(&kernel_labels) {
        assert!(
            ["sequential", "rows"].contains(&label.as_str()),
            "unexpected shard-plan label {label:?}"
        );
    }
    assert!(
        kernel_labels
            .iter()
            .any(|label| stats.plan.starts_with(label.as_str())),
        "kernel events {kernel_labels:?} lack the resolved plan {:?}",
        stats.plan
    );

    // The protocol verbs see the same state over loopback TCP: the
    // flight ring and last dump are process-global, so a server over
    // any registry serves them.
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&registry)).expect("loopback bind");
    let mut tcp = TcpClient::connect(server.local_addr()).expect("loopback connect");
    let wire_dump = tcp
        .dump_trace()
        .expect("dump_trace round-trips")
        .expect("a dump exists");
    let wire_dump = wire_dump.as_object().expect("wire dump is an object");
    assert_eq!(str_field(wire_dump, "reason"), "overloaded");
    assert_eq!(u64_field(wire_dump, "req"), trigger_req);
    let page = tcp.metrics_page().expect("metrics round-trips");
    assert!(page.contains("man_serve_requests_total"), "{page}");
    assert!(
        page.contains(r#"man_stage_seconds_bucket{stage="kernel""#),
        "the export plane must carry the per-stage histograms: {page}"
    );
    server.shutdown();
    registry.shutdown();
}

#[test]
fn encode_span_starts_after_the_kernel_ends() {
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    obs::set_level(ObsLevel::Spans);
    flight::clear();

    let registry = ModelRegistry::new(BatchConfig::default());
    registry.install("m", compiled_model(5, 12));
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&registry)).expect("loopback bind");
    let mut ndjson = TcpClient::connect(server.local_addr()).expect("loopback connect");
    ndjson
        .predict("m", &probe_input(1))
        .expect("NDJSON predict");
    let mut manb = BinaryClient::connect(server.local_addr()).expect("MANB handshake");
    manb.predict("m", &probe_input(2)).expect("MANB predict");
    obs::flush();

    // One predict in flight at a time: the i-th encode span belongs to
    // the i-th request's kernel. The scheduler flushes a batch's events
    // after it delivers the replies, so wait for both kernels to land.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (kernels, encodes) = loop {
        let events = flight::snapshot_recent(u64::MAX);
        let of = |stage: Stage| {
            let mut v: Vec<_> = events
                .iter()
                .filter(|e| e.stage == stage && (stage != Stage::Kernel || e.req != 0))
                .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
                .collect();
            v.sort_unstable();
            v
        };
        let (kernels, encodes) = (of(Stage::Kernel), of(Stage::Encode));
        if kernels.len() >= 2 || Instant::now() > deadline {
            break (kernels, encodes);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    server.shutdown();
    registry.shutdown();
    obs::set_level(ObsLevel::Off);

    assert_eq!(
        kernels.len(),
        2,
        "one kernel event per predict: {kernels:?}"
    );
    assert_eq!(encodes.len(), 2, "one encode span per predict: {encodes:?}");
    for (wire, (kernel, encode)) in ["NDJSON", "MANB"].iter().zip(kernels.iter().zip(&encodes)) {
        assert!(
            encode.0 >= kernel.1,
            "{wire} encode span starts at {} ns, before its kernel ends at {} ns",
            encode.0,
            kernel.1
        );
    }
}
