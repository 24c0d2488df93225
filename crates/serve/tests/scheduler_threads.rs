//! The scheduler's thread budget, measured from outside: hosting and
//! serving models spawns no thread. A batch runs on a caller that is
//! waiting for it, so installing models, predicting on them and
//! hammering them from many callers leaves the process's thread count
//! where it started once the callers are gone.
//!
//! This file holds a single test so that nothing else in its process
//! starts threads between readings. The models use the default
//! `Sequential` parallelism, so the `man-par` pool is never spawned. It
//! reads the process's thread list from `/proc/self/task` and returns
//! early where that directory cannot be read.

use std::time::{Duration, Instant};

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, Pipeline};
use man_serve::{BatchConfig, ModelRegistry};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const IN_DIM: usize = 16;
const MODELS: usize = 4;

/// Live threads in this process: one directory entry per thread under
/// `/proc/self/task`; `None` where that cannot be read.
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

fn compiled_model(seed: u64) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(8, 4, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a2()])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn probe_input(i: usize) -> Vec<f32> {
    (0..IN_DIM)
        .map(|j| ((i * 5 + j * 3) % 11) as f32 / 11.0)
        .collect()
}

#[test]
fn hosting_and_serving_models_spawns_no_thread() {
    // Compile before the first reading: the thread budget under test is
    // the scheduler's, not the compiler's.
    let models: Vec<CompiledModel> = (0..MODELS as u64).map(compiled_model).collect();
    let expected: Vec<Vec<Vec<i64>>> = models
        .iter()
        .map(|m| {
            (0..32)
                .map(|i| m.fixed().infer_raw(&probe_input(i)))
                .collect()
        })
        .collect();
    let Some(baseline) = thread_count() else {
        return;
    };
    let read = || thread_count().expect("/proc/self/task stays readable");

    let registry = ModelRegistry::new(BatchConfig::default());
    for (k, model) in models.into_iter().enumerate() {
        registry.install(format!("m{k}"), model);
    }
    for (k, want) in expected.iter().enumerate() {
        let p = registry
            .predict(&format!("m{k}"), probe_input(0))
            .expect("serving ok");
        assert_eq!(p.scores, want[0], "model m{k}");
    }
    assert_eq!(
        read(),
        baseline,
        "installing {MODELS} models and predicting on each adds no thread"
    );

    std::thread::scope(|scope| {
        for t in 0..8 {
            let registry = &registry;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..64 {
                    let k = (t + round) % MODELS;
                    let i = (t * 7 + round) % 32;
                    let p = registry
                        .predict(&format!("m{k}"), probe_input(i))
                        .expect("serving ok");
                    assert_eq!(p.scores, expected[k][i], "model m{k} probe {i}");
                }
            });
        }
    });
    // A joined thread can stay listed for a moment while the kernel
    // reaps it; a scheduler thread would stay for good.
    let deadline = Instant::now() + Duration::from_secs(2);
    while read() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        read(),
        baseline,
        "after the 8 hammering callers joined, the count is back at its baseline"
    );

    let stats = registry.stats(None).expect("stats");
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    assert_eq!(completed, (MODELS + 8 * 64) as u64);
    for k in 0..MODELS {
        registry.unload(&format!("m{k}")).expect("model is loaded");
    }
    assert!(registry.names().is_empty());
    assert_eq!(read(), baseline, "unloading adds no thread");
}
