//! Cluster-tier tests: the consistent-hash invariant, through-router
//! bit-equality against single-process serving, worker-kill failover
//! and drain-then-join rebalance — all in-process (worker `Server`s on
//! loopback ports), so they run everywhere `cargo test` does. The
//! true multi-*process* drill (spawned workers, `kill -9`) lives in
//! the `cluster` bench bin and CI job.

use std::sync::Arc;
use std::time::Duration;

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, Pipeline};
use man_serve::{
    BatchConfig, BinaryClient, HashRing, ModelRegistry, RequestHandler, Router, RouterConfig,
    Server, TcpClient,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;

const IN_DIM: usize = 24;
const CLASSES: usize = 4;

fn compiled_model(seed: u64) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, 12, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(12, CLASSES, &mut rng)),
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

/// One in-process worker: its server handle, registry and address.
type Worker = (Server, Arc<ModelRegistry>, String);

/// One in-process worker: a stock registry + server on an ephemeral
/// loopback port.
fn spawn_worker() -> Worker {
    let registry = ModelRegistry::new(BatchConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry)).expect("worker binds");
    let addr = server.local_addr().to_string();
    (server, registry, addr)
}

/// A router over `n` fresh workers, with fast failover tuning.
fn spawn_cluster(n: usize, config: RouterConfig) -> (Vec<Worker>, Arc<Router>) {
    let workers: Vec<_> = (0..n).map(|_| spawn_worker()).collect();
    let router = Router::new(config);
    for (_, _, addr) in &workers {
        router.join_node(addr).expect("worker joins");
    }
    (workers, router)
}

fn fast_config() -> RouterConfig {
    RouterConfig {
        request_timeout: Duration::from_millis(1500),
        health_interval: Duration::from_millis(100),
    }
}

fn field<'v>(obj: &'v [(String, Value)], key: &str) -> &'v Value {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("response is missing field `{key}`"))
}

/// The reference answers the cluster must reproduce byte-for-byte: the
/// same artifact served by one in-process session.
fn reference_answers(model: &CompiledModel, count: usize) -> Vec<(usize, Vec<i64>)> {
    let batch: Vec<Vec<f32>> = (0..count).map(probe_input).collect();
    model
        .session()
        .infer_batch(&batch)
        .expect("shapes match")
        .into_iter()
        .map(|p| (p.class, p.scores))
        .collect()
}

fn save_artifact(model: &CompiledModel, name: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "man_cluster_{name}_{}.man.json",
        std::process::id()
    ));
    model.save(&path).expect("artifact saves");
    path.to_str().expect("utf-8 temp path").to_owned()
}

// ---------------------------------------------------------------------
// Consistent-hash invariant.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Removing (or re-adding) a node only remaps models whose replica
    /// set touched that node; every other model keeps its exact
    /// replica list, and survivors keep their relative order. This is
    /// the property that makes rebalance proportional to the moved
    /// node's data instead of a full reshuffle.
    #[test]
    fn ring_remaps_only_touched_models(
        node_count in 2usize..7,
        vnodes in prop_oneof![Just(16usize), Just(64usize)],
        replicas in 1usize..4,
        victim in 0usize..7,
        model_count in 1usize..60,
    ) {
        let victim = victim % node_count;
        let mut full = HashRing::new(vnodes);
        for i in 0..node_count {
            full.add(&format!("10.0.0.{i}:9000"));
        }
        let victim_name = format!("10.0.0.{victim}:9000");
        let mut less = full.clone();
        less.remove(&victim_name);
        for m in 0..model_count {
            let key = format!("model-{m}");
            let before: Vec<&str> = full.replicas(&key, replicas);
            let after: Vec<&str> = less.replicas(&key, replicas);
            if before.contains(&victim_name.as_str()) {
                let kept: Vec<&str> = before
                    .iter()
                    .copied()
                    .filter(|&n| n != victim_name)
                    .collect();
                let still: Vec<&str> = after
                    .iter()
                    .copied()
                    .filter(|n| kept.contains(n))
                    .collect();
                prop_assert_eq!(kept, still, "survivors reorder for {}", key);
            } else {
                prop_assert_eq!(&before, &after, "untouched {} re-sharded", key);
            }
        }
        // Adding the node back restores the original placement exactly
        // (the ring is a pure function of its node set).
        less.add(&victim_name);
        prop_assert_eq!(less, full);
    }
}

// ---------------------------------------------------------------------
// Through-router serving.
// ---------------------------------------------------------------------

/// Both wire modes through the router answer bit-identically to a
/// single-process session, under concurrent clients spread across 2
/// replicas.
#[test]
fn router_traffic_is_bit_identical_to_single_process() {
    let model = compiled_model(7);
    let path = save_artifact(&model, "bitident");
    let reference = Arc::new(reference_answers(&model, 16));
    let (workers, router) = spawn_cluster(3, fast_config());
    let front = Server::bind_handler(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn RequestHandler>,
        Default::default(),
    )
    .expect("router front-end binds");
    let front_addr = front.local_addr();

    let mut admin = TcpClient::connect(front_addr).expect("admin connects");
    let loaded = admin.load("digits", &path).expect("load fans out");
    let obj = loaded.as_object().expect("load response is an object");
    let replicas = <u64 as serde::Deserialize>::from_value(field(obj, "replicas"))
        .expect("load response carries a numeric `replicas`");
    assert_eq!(replicas, 2, "default replica set");

    let mut handles = Vec::new();
    for t in 0..6 {
        let reference = Arc::clone(&reference);
        handles.push(std::thread::spawn(move || {
            // Even threads speak NDJSON, odd threads binary MANB —
            // both through the same router port.
            if t % 2 == 0 {
                let mut client = TcpClient::connect(front_addr).expect("ndjson connects");
                for i in 0..24 {
                    let k = (t * 24 + i) % reference.len();
                    let got = client.predict("digits", &probe_input(k)).expect("predicts");
                    assert_eq!(got, reference[k], "ndjson answer diverged at {k}");
                }
            } else {
                let mut client = BinaryClient::connect(front_addr).expect("manb connects");
                for i in 0..24 {
                    let k = (t * 24 + i) % reference.len();
                    let got = client.predict("digits", &probe_input(k)).expect("predicts");
                    assert_eq!(got, reference[k], "binary answer diverged at {k}");
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread panicked");
    }

    // The model landed on exactly 2 of the 3 workers.
    let hosting = workers
        .iter()
        .filter(|(_, registry, _)| registry.names().contains(&"digits".to_owned()))
        .count();
    assert_eq!(hosting, 2, "replica fan-out");

    // The router's health verb reports its role and the placement.
    let health = admin.request(r#"{"op":"health"}"#).expect("health answers");
    let obj = health.as_object().expect("health is an object");
    assert_eq!(field(obj, "role"), &Value::Str("router".into()));
    let Value::Array(nodes) = field(obj, "nodes") else {
        panic!("health `nodes` is not an array");
    };
    assert_eq!(nodes.len(), 3);

    // Stats fan-out tags every row with its node.
    let stats = admin.stats(Some("digits")).expect("stats fans out");
    let obj = stats.as_object().expect("stats is an object");
    let Value::Array(rows) = field(obj, "models") else {
        panic!("stats `models` is not an array");
    };
    assert_eq!(rows.len(), 2, "one row per replica");
    for row in rows {
        let row = row.as_object().expect("stats row is an object");
        assert!(matches!(field(row, "node"), Value::Str(_)));
    }

    // The cluster metrics page rides the standard verb.
    let page = admin.metrics_page().expect("metrics answers");
    assert!(
        page.contains("man_cluster_backend_up"),
        "cluster metrics exported"
    );
    router.shutdown();
}

/// Killing a worker mid-load is invisible to clients: every request
/// still answers, bit-identically, and the router records failovers.
#[test]
fn worker_kill_failover_is_bit_identical_with_zero_errors() {
    let model = compiled_model(11);
    let path = save_artifact(&model, "failover");
    let reference = reference_answers(&model, 16);
    let config = RouterConfig {
        request_timeout: Duration::from_millis(800),
        health_interval: Duration::from_millis(100),
    };
    let (mut workers, router) = spawn_cluster(3, config);
    router.load_model("digits", &path).expect("load fans out");

    // Kill the *preferred* replica so the very next predict must fail
    // over: shut its server down and drop its registry.
    let preferred = router.stats().models[0].replicas[0].clone();
    let idx = workers
        .iter()
        .position(|(_, _, addr)| *addr == preferred)
        .expect("preferred replica is a worker");
    let (mut server, registry, _) = workers.remove(idx);
    server.shutdown();
    registry.shutdown();

    for (k, expected) in reference.iter().enumerate() {
        let p = router
            .route_predict("digits", &probe_input(k))
            .expect("failover answers");
        assert_eq!(
            &(p.class, p.scores),
            expected,
            "failover answer diverged at {k}"
        );
    }
    let stats = router.stats();
    assert!(stats.failovers > 0, "failovers were recorded");
    assert_eq!(stats.no_backend, 0, "no request burned the whole budget");
    let dead = stats
        .nodes
        .iter()
        .find(|n| n.node == preferred)
        .expect("dead node still tabled");
    assert!(!dead.healthy, "health checker demoted the dead worker");

    // Removing the dead node rebalances onto the survivors and serving
    // continues uninterrupted.
    router.leave_node(&preferred).expect("dead node leaves");
    for (k, expected) in reference.iter().enumerate() {
        let p = router
            .route_predict("digits", &probe_input(k))
            .expect("post-leave answers");
        assert_eq!(&(p.class, p.scores), expected);
    }
    router.shutdown();
}

/// Drain-then-join rebalance: a joining node is loaded before it takes
/// traffic, a leaving node's models move before it goes, and untouched
/// models keep their placement.
#[test]
fn join_and_leave_rebalance_with_drain() {
    let model = compiled_model(23);
    let path = save_artifact(&model, "rebalance");
    let reference = reference_answers(&model, 8);
    let (workers, router) = spawn_cluster(3, fast_config());
    let names: Vec<String> = (0..5).map(|i| format!("m{i}")).collect();
    for name in &names {
        router.load_model(name, &path).expect("load fans out");
    }
    let before: Vec<_> = router.stats().models;

    // Join a fourth worker: models it now owns must be loaded on it
    // (drain-then-join), everything else must not move.
    let (_w4_server, w4_registry, w4_addr) = spawn_worker();
    let moved = router.join_node(&w4_addr).expect("worker joins");
    let after: Vec<_> = router.stats().models;
    let mut touched = 0;
    for (b, a) in before.iter().zip(after.iter()) {
        assert_eq!(b.model, a.model);
        if a.replicas.contains(&w4_addr) {
            touched += 1;
            assert!(
                w4_registry.names().contains(&b.model),
                "joining node was not pre-loaded with {}",
                b.model
            );
        } else {
            assert_eq!(b.replicas, a.replicas, "untouched model {} moved", b.model);
        }
    }
    assert_eq!(moved, touched, "join reported the moved-model count");
    for name in &names {
        for (k, expected) in reference.iter().enumerate() {
            let p = router
                .route_predict(name, &probe_input(k))
                .expect("answers");
            assert_eq!(&(p.class, p.scores), expected);
        }
    }

    // Leave one of the original workers: its models move first, the
    // drained worker ends up empty, and serving never hiccups.
    let leaving = workers[0].2.clone();
    router.leave_node(&leaving).expect("worker leaves");
    let drained = &workers[0].1;
    assert!(
        drained.names().is_empty(),
        "leaving worker still hosts {:?}",
        drained.names()
    );
    for name in &names {
        for (k, expected) in reference.iter().enumerate() {
            let p = router
                .route_predict(name, &probe_input(k))
                .expect("answers");
            assert_eq!(&(p.class, p.scores), expected);
        }
        assert!(
            !router
                .stats()
                .models
                .iter()
                .any(|pl| pl.model == *name && pl.replicas.contains(&leaving)),
            "{name} still placed on the departed node"
        );
    }
    router.shutdown();
}

/// Router admin edges: double join, unknown leave, unknown model, and
/// an unreachable node all answer their stable codes.
#[test]
fn router_admin_edges() {
    let (workers, router) = spawn_cluster(2, fast_config());
    let addr = workers[0].2.clone();
    let err = router.join_node(&addr).expect_err("double join rejected");
    assert_eq!(man_serve::protocol::error_code(&err), "bad_request");
    let err = router
        .leave_node("127.0.0.1:1")
        .expect_err("unknown leave rejected");
    assert_eq!(man_serve::protocol::error_code(&err), "bad_request");
    let err = router
        .route_predict("ghost", &probe_input(0))
        .expect_err("unknown model rejected");
    assert_eq!(man_serve::protocol::error_code(&err), "unknown_model");
    // Joining a dead address fails the probe and leaves the table
    // untouched.
    let err = router
        .join_node("127.0.0.1:1")
        .expect_err("dead node rejected");
    assert_eq!(man_serve::protocol::error_code(&err), "io");
    assert_eq!(router.stats().nodes.len(), 2);
    router.shutdown();
}
