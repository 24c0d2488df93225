//! End-to-end tests of the serving runtime: concurrency determinism,
//! backpressure, hot reload under load, graceful drain, and the TCP
//! front-end's full round-trip.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline, ServeError};
use man_serve::{BatchConfig, ModelRegistry, Parallelism, Server, TcpClient};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const IN_DIM: usize = 24;

fn compiled_model(seed: u64, set: AlphabetSet) -> CompiledModel {
    model_with_hidden(seed, 12, set)
}

fn model_with_hidden(seed: u64, hidden: usize, set: AlphabetSet) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, hidden, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(hidden, 4, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![set])
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

fn quick_config() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        queue_capacity: 64,
        ..BatchConfig::default()
    }
}

#[test]
fn hammering_clients_get_bit_identical_predictions() {
    let model = compiled_model(1, AlphabetSet::a2());
    // Sequential reference through a plain session.
    let reference = model.session();
    let expected: Vec<Vec<i64>> = (0..48)
        .map(|i| reference.infer(&probe_input(i)).expect("shape ok").scores)
        .collect();

    let registry = ModelRegistry::new(quick_config());
    registry.install("m", model);

    let threads: Vec<_> = (0..6)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let expected = expected.clone();
            std::thread::spawn(move || {
                // Each thread replays every probe several times, out of
                // phase with the others, so batches mix inputs freely.
                for round in 0..4 {
                    for i in 0..expected.len() {
                        let i = (i + t * 11 + round * 17) % expected.len();
                        let p = registry
                            .predict("m", probe_input(i))
                            .expect("serving must not fail under load");
                        assert_eq!(
                            p.scores, expected[i],
                            "thread {t} probe {i}: scheduler must be bit-identical"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }

    let stats = registry.stats(Some("m")).expect("stats");
    assert_eq!(stats.len(), 1);
    let s = &stats[0];
    assert_eq!(s.completed, 6 * 4 * 48);
    assert_eq!(s.errors, 0);
    assert_eq!(s.rejected, 0);
    assert!(s.batches > 0 && s.mean_batch >= 1.0);
    assert!(s.p50_us > 0, "latency histogram must have filled");
}

#[test]
fn shape_mismatch_is_rejected_before_queueing() {
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", compiled_model(2, AlphabetSet::a1()));
    match registry.predict("m", vec![0.5; IN_DIM + 3]) {
        Err(ManError::Shape { expected, got }) => {
            assert_eq!((expected, got), (IN_DIM, IN_DIM + 3));
        }
        other => panic!("expected ManError::Shape, got {other:?}"),
    }
    let stats = registry.stats(Some("m")).expect("stats");
    assert_eq!(stats[0].errors, 1);
    assert_eq!(stats[0].accepted, 0, "bad shapes never enter the queue");
}

#[test]
fn unknown_model_is_a_typed_error() {
    let registry = ModelRegistry::with_defaults();
    match registry.predict("ghost", vec![0.0; 4]) {
        Err(ManError::Serve(ServeError::UnknownModel(name))) => assert_eq!(name, "ghost"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match registry.unload("ghost") {
        Err(ManError::Serve(ServeError::UnknownModel(_))) => {}
        other => panic!("expected UnknownModel, got {other:?}"),
    }
}

#[test]
fn full_queue_rejects_with_overloaded() {
    // A tiny queue and a scheduler that cannot drain: the submitting
    // side must see explicit Overloaded errors, not unbounded latency.
    // The batch runs on a waiting caller with no hand-off, so the model
    // is wide enough (24 → 8192 → 4) that one batch outlasts several
    // submissions; a 24 → 12 → 4 batch ends before three callers queue.
    let registry = ModelRegistry::new(BatchConfig {
        max_batch: 1,
        queue_capacity: 2,
        ..BatchConfig::default()
    });
    registry.install("m", model_with_hidden(3, 8192, AlphabetSet::a1()));

    // Saturate from many threads; with 12 concurrent submitters and a
    // 2-slot queue, at least a few must hit the Overloaded path.
    let saw_overload = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..12)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let saw_overload = Arc::clone(&saw_overload);
            std::thread::spawn(move || {
                for i in 0..40 {
                    match registry.predict("m", probe_input(t * 40 + i)) {
                        Ok(_) => {}
                        Err(ManError::Serve(ServeError::Overloaded { capacity, .. })) => {
                            assert_eq!(capacity, 2);
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
    let stats = registry.stats(Some("m")).expect("stats");
    assert_eq!(stats[0].completed + stats[0].rejected, 12 * 40);
    assert!(
        saw_overload.load(Ordering::Relaxed),
        "a 2-slot queue under 12 hammering threads must overflow at least once \
         (completed {}, rejected {})",
        stats[0].completed,
        stats[0].rejected
    );
}

#[test]
fn reload_under_load_never_drops_or_corrupts_requests() {
    // Two different-alphabet compilations of different networks: their
    // predictions differ, but each request must be answered by a
    // complete, uncorrupted model — either generation, never a mix, and
    // transient Unavailable (caught mid-swap) is the only legal error.
    let before = compiled_model(10, AlphabetSet::a4());
    let after = compiled_model(11, AlphabetSet::a1());
    let probes: Vec<Vec<f32>> = (0..16).map(probe_input).collect();
    let expect_before: Vec<Vec<i64>> = {
        let s = before.session();
        probes
            .iter()
            .map(|x| s.infer(x).expect("shape ok").scores)
            .collect()
    };
    let expect_after: Vec<Vec<i64>> = {
        let s = after.session();
        probes
            .iter()
            .map(|x| s.infer(x).expect("shape ok").scores)
            .collect()
    };

    let registry = ModelRegistry::new(quick_config());
    registry.install("m", before.clone());
    let stop = Arc::new(AtomicBool::new(false));

    let hammers: Vec<_> = (0..4)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let probes = probes.clone();
            let expect_before = expect_before.clone();
            let expect_after = expect_after.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    i = (i + 1) % probes.len();
                    match registry.predict("m", probes[i].clone()) {
                        Ok(p) => {
                            assert!(
                                p.scores == expect_before[i] || p.scores == expect_after[i],
                                "probe {i} answered by neither generation: {:?}",
                                p.scores
                            );
                            served += 1;
                        }
                        Err(ManError::Serve(ServeError::Unavailable(_))) => {}
                        Err(other) => panic!("unexpected error during reload: {other:?}"),
                    }
                }
                served
            })
        })
        .collect();

    // Hot-swap back and forth while the hammers run.
    for gen in 0..6 {
        std::thread::sleep(Duration::from_millis(20));
        let model = if gen % 2 == 0 {
            after.clone()
        } else {
            before.clone()
        };
        registry.install("m", model);
    }
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let served: u64 = hammers
        .into_iter()
        .map(|t| t.join().expect("hammer thread panicked"))
        .sum();
    assert!(served > 0, "hammers must have been served through reloads");
}

#[test]
fn unload_drains_accepted_requests() {
    // Requests already queued when unload starts still get answers.
    let registry = ModelRegistry::new(BatchConfig {
        max_batch: 4,
        queue_capacity: 256,
        ..BatchConfig::default()
    });
    registry.install("m", compiled_model(5, AlphabetSet::a2()));
    let submitters: Vec<_> = (0..32)
        .map(|i| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.predict("m", probe_input(i)))
        })
        .collect();
    // Unload once the queue holds work: a request counted `accepted`
    // was handed to the queue under the same lock `unload` takes to
    // close it, so at least one request is queued when unload starts.
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.stats(Some("m")).expect("model is loaded")[0].accepted == 0 {
        assert!(
            Instant::now() < deadline,
            "no submitter reached the queue in 10 s"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    registry.unload("m").expect("model is loaded");
    let mut answered = 0;
    for s in submitters {
        match s.join().expect("submitter panicked") {
            Ok(_) => answered += 1,
            // Submitted after the queue closed: a typed rejection.
            Err(ManError::Serve(ServeError::Unavailable(_))) => {}
            // Looked the model up after the unload: it is gone.
            Err(ManError::Serve(ServeError::UnknownModel(_))) => {}
            Err(other) => panic!("unexpected drain error: {other:?}"),
        }
    }
    assert!(answered > 0, "queued requests must drain through unload");
    assert!(registry.names().is_empty());
}

#[test]
fn tcp_roundtrip_load_predict_stats_unload() {
    // The artifact on disk, loaded over the wire.
    let model = compiled_model(6, AlphabetSet::a2());
    let expected = {
        let s = model.session();
        s.infer(&probe_input(0)).expect("shape ok")
    };
    let path = std::env::temp_dir().join("man_serve_tcp_roundtrip.man.json");
    model.save(&path).expect("artifact saves");

    let registry = ModelRegistry::new(quick_config());
    let mut server = Server::bind("127.0.0.1:0", registry).expect("loopback bind");
    let mut client = TcpClient::connect(server.local_addr()).expect("loopback connect");

    // load
    let info = client
        .load("digits", path.to_str().expect("utf-8 temp path"))
        .expect("load over the wire");
    let obj = info.as_object().expect("load response is an object");
    let input_len = obj
        .iter()
        .find(|(k, _)| k == "input_len")
        .and_then(|(_, v)| <usize as serde::Deserialize>::from_value(v).ok())
        .expect("load response carries input_len");
    assert_eq!(input_len, IN_DIM);

    // predict — bit-identical to the in-process session.
    let (class, scores) = client
        .predict("digits", &probe_input(0))
        .expect("predict over the wire");
    assert_eq!(class, expected.class);
    assert_eq!(scores, expected.scores);

    // bad requests keep the connection alive and carry stable codes.
    let err = client
        .predict("digits", &probe_input(0)[..4])
        .expect_err("short input must fail");
    assert_eq!(err.code, "shape_mismatch");
    let err = client.predict("ghost", &probe_input(0)).unwrap_err();
    assert_eq!(err.code, "unknown_model");
    let garbage = client.request("{ not json").expect("server replies");
    let obj = garbage.as_object().expect("error response is an object");
    assert!(obj
        .iter()
        .any(|(k, v)| k == "error" && matches!(v, serde::Value::Str(s) if s == "bad_request")));

    // stats
    let stats = client.stats(Some("digits")).expect("stats over the wire");
    let text = serde_json::to_string(&stats).expect("stats reserialize");
    assert!(text.contains("\"completed\":1"), "{text}");
    assert!(text.contains("\"p50_us\""), "{text}");

    // unload, then the model is gone.
    client.unload("digits").expect("unload over the wire");
    let err = client.predict("digits", &probe_input(0)).unwrap_err();
    assert_eq!(err.code, "unknown_model");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn host_sessions_match_the_asm_oracle() {
    let model = compiled_model(7, AlphabetSet::a4());
    let expected: Vec<Vec<i64>> = (0..12)
        .map(|i| model.fixed().infer_raw(&probe_input(i)))
        .collect();
    let registry = ModelRegistry::new(quick_config());
    registry.install("m", model);
    for (i, want) in expected.iter().enumerate() {
        let p = registry.predict("m", probe_input(i)).expect("serving ok");
        assert_eq!(&p.scores, want, "probe {i}");
    }
}

#[test]
fn intra_batch_parallelism_is_bit_identical_and_exposed_in_config() {
    let model = compiled_model(8, AlphabetSet::a2());
    let reference = model.session();
    let expected: Vec<Vec<i64>> = (0..24)
        .map(|i| reference.infer(&probe_input(i)).expect("shape ok").scores)
        .collect();
    for parallelism in [Parallelism::Threads(3), Parallelism::Auto] {
        let registry = ModelRegistry::new(BatchConfig {
            parallelism,
            ..quick_config()
        });
        assert_eq!(registry.config().parallelism, parallelism);
        registry.install("m", model.clone());
        // Hammer from several threads so micro-batches actually form and
        // get row-sharded inside the host's session.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let registry = &registry;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..3 {
                        for i in 0..expected.len() {
                            let i = (i + t * 5 + round * 7) % expected.len();
                            let p = registry.predict("m", probe_input(i)).expect("serving ok");
                            assert_eq!(
                                p.scores,
                                expected[i],
                                "{} probe {i}: sharded batch must be bit-identical",
                                parallelism.label()
                            );
                        }
                    }
                });
            }
        });
        registry.shutdown();
    }
}

#[test]
fn stats_snapshot_is_consistent_with_routing() {
    // `stats` takes its snapshot under the registry lock, so it can
    // never describe a model that a completed unload already evicted —
    // and a sequenced unload -> stats must report UnknownModel.
    let registry = ModelRegistry::new(quick_config());
    registry.install("stable", compiled_model(20, AlphabetSet::a1()));
    registry.install("flapper", compiled_model(21, AlphabetSet::a1()));

    let stop = Arc::new(AtomicBool::new(false));
    let flapper_model = compiled_model(21, AlphabetSet::a1());
    let flap = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                registry.unload("flapper").expect("flapper was installed");
                registry.install("flapper", flapper_model.clone());
            }
        })
    };
    for _ in 0..200 {
        // Every snapshot set is a consistent routing snapshot: "stable"
        // is always present, nothing else but "flapper" ever appears.
        let stats = registry.stats(None).expect("stats never fails");
        let names: Vec<&str> = stats.iter().map(|s| s.model.as_str()).collect();
        assert!(names.contains(&"stable"), "names = {names:?}");
        assert!(
            names.iter().all(|n| *n == "stable" || *n == "flapper"),
            "names = {names:?}"
        );
        // Per-model stats under churn either succeed or report
        // UnknownModel; no panic, no stale-host snapshot.
        match registry.stats(Some("flapper")) {
            Ok(s) => assert_eq!(s[0].model, "flapper"),
            Err(ManError::Serve(ServeError::UnknownModel(n))) => assert_eq!(n, "flapper"),
            Err(other) => panic!("unexpected stats error: {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    flap.join().expect("flapper thread panicked");

    // Sequenced happens-before: once unload returns, stats must not know
    // the model any more.
    registry.unload("flapper").expect("final unload");
    match registry.stats(Some("flapper")) {
        Err(ManError::Serve(ServeError::UnknownModel(_))) => {}
        other => panic!("stats after unload must be UnknownModel, got {other:?}"),
    }
    let names: Vec<String> = registry
        .stats(None)
        .expect("stats")
        .into_iter()
        .map(|s| s.model)
        .collect();
    assert_eq!(names, vec!["stable".to_owned()]);
}
