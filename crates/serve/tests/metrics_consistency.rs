//! Hammering test for metrics-snapshot consistency: while writer
//! threads pound the scheduler, a racing reader takes `stats`
//! snapshots and asserts the counter contract *during* the race —
//! every counter monotone, and at every instant
//! `accepted >= completed + rejected + timed_out + errors` (the
//! snapshot reads disjoint outcomes first and `accepted` last, and the
//! submitter increments `accepted` before offering the queue and
//! exactly one outcome before returning, so no interleaving can show
//! an outcome without its acceptance). At quiescence the inequalities
//! close to equalities and the batch histogram must account for every
//! delivered request.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use man::alphabet::AlphabetSet;
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_nn::network::Network;
use man_repro::{CompiledModel, ManError, Pipeline, ServeError};
use man_serve::{BatchConfig, ModelRegistry, ModelStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const IN_DIM: usize = 24;

fn compiled_model(seed: u64) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(IN_DIM, 12, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(12, 4, &mut rng)),
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

/// The instantaneous invariant plus per-counter monotonicity against
/// the previous snapshot.
fn assert_consistent(prev: &ModelStats, cur: &ModelStats) {
    for (name, p, c) in [
        ("accepted", prev.accepted, cur.accepted),
        ("completed", prev.completed, cur.completed),
        ("rejected", prev.rejected, cur.rejected),
        ("timed_out", prev.timed_out, cur.timed_out),
        ("errors", prev.errors, cur.errors),
        ("batches", prev.batches, cur.batches),
    ] {
        assert!(
            c >= p,
            "counter `{name}` went backwards under load: {p} -> {c}"
        );
    }
    assert!(
        cur.accepted >= cur.completed + cur.rejected + cur.timed_out + cur.errors,
        "outcome counted before its acceptance: accepted {} < completed {} \
         + rejected {} + timed_out {} + errors {}",
        cur.accepted,
        cur.completed,
        cur.rejected,
        cur.timed_out,
        cur.errors,
    );
}

#[test]
fn snapshots_stay_consistent_under_concurrent_hammering() {
    let registry = ModelRegistry::new(BatchConfig {
        max_batch: 8,
        // Small enough that 8 hammering writers trip Overloaded, so the
        // rejected counter participates in the race too.
        queue_capacity: 4,
        ..BatchConfig::default()
    });
    registry.install("m", compiled_model(7));

    let ok_total = Arc::new(AtomicU64::new(0));
    let rejected_total = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..8)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let ok_total = Arc::clone(&ok_total);
            let rejected_total = Arc::clone(&rejected_total);
            std::thread::spawn(move || {
                for i in 0..150 {
                    match registry.predict("m", probe_input(t * 150 + i)) {
                        Ok(_) => {
                            ok_total.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ManError::Serve(ServeError::Overloaded { .. })) => {
                            rejected_total.fetch_add(1, Ordering::Relaxed);
                            // Back off so the queue can drain and the
                            // run mixes accepts with rejections.
                            std::thread::sleep(Duration::from_micros(300));
                        }
                        Err(other) => panic!("unexpected error under load: {other:?}"),
                    }
                }
            })
        })
        .collect();

    // The racing reader: snapshot as fast as possible for the whole
    // duration of the hammering and check every pair.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut prev = registry.stats(Some("m")).expect("stats")[0].clone();
            let mut snapshots = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let cur = registry.stats(Some("m")).expect("stats")[0].clone();
                assert_consistent(&prev, &cur);
                prev = cur;
                snapshots += 1;
            }
            snapshots
        })
    };

    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().expect("reader panicked");
    assert!(
        snapshots >= 10,
        "the reader must actually race the writers (took {snapshots} snapshots)"
    );

    // Quiescence: the inequalities close into exact accounting.
    let stats = registry.stats(Some("m")).expect("stats").remove(0);
    let ok = ok_total.load(Ordering::Relaxed);
    let rejected = rejected_total.load(Ordering::Relaxed);
    assert_eq!(ok + rejected, 8 * 150, "every submission resolved");
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.timed_out, 0, "the 30 s timeout must never fire here");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.accepted, stats.completed + stats.rejected);
    assert_eq!(stats.queue_depth, 0);

    // Histogram-sum consistency: the micro-batch size distribution
    // accounts for every batch and every delivered request.
    let batch_count: u64 = stats.batch_histogram.iter().sum();
    let batched_requests: u64 = stats
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(i, n)| (i as u64 + 1) * n)
        .sum();
    assert_eq!(batch_count, stats.batches);
    assert_eq!(batched_requests, stats.completed);
    let mean = batched_requests as f64 / batch_count as f64;
    assert!(
        (stats.mean_batch - mean).abs() < 1e-9,
        "mean_batch {} inconsistent with histogram mean {mean}",
        stats.mean_batch
    );

    registry.shutdown();
}
