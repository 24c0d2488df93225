//! Serving quickstart: compile a model, save the one-file artifact, and
//! serve it under concurrent traffic with `man-serve` — first in-process
//! through the [`man_serve::ModelRegistry`], then over the TCP
//! front-end's newline-delimited JSON protocol.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::GenOptions;
use man_repro::man_par::available_cores;
use man_repro::{ManError, Parallelism, Pipeline};
use man_serve::obs::{self, ObsLevel};
use man_serve::{BatchConfig, ModelRegistry, Server, TcpClient};

fn main() -> Result<(), ManError> {
    // Full span tracing for the demo: every stage of every request
    // lands in the per-stage histograms and the flight-recorder ring
    // (DESIGN.md §12). Production default is `Counters`; `Off` reduces
    // every instrumentation site to one branch.
    obs::set_level(ObsLevel::Spans);
    // One line for the CI logs: what the scheduler can shard a
    // micro-batch across on this host.
    let parallelism = Parallelism::Auto;
    println!(
        "[man-par] host cores: {}, scheduler micro-batches run {}",
        available_cores(),
        parallelism.label()
    );

    // ---- Compile the paper's Digit-8bit MLP onto the MAN lattice and
    // persist it as a single-file artifact (see `quickstart.rs` for the
    // full train/constrain story; projection is enough to serve).
    let ds = Benchmark::DigitsMlp.dataset(&GenOptions {
        train: 1,
        test: 16,
        seed: 42,
    });
    let compiled = Pipeline::for_benchmark(Benchmark::DigitsMlp)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()?
        .compile()?;
    let artifact = std::env::temp_dir().join("man_serving_example.man.json");
    compiled.save(&artifact)?;

    // ---- A registry hosts named models behind micro-batching
    // schedulers; `load_file` hot-loads (and `unload` evicts) artifacts
    // at runtime.
    let registry = ModelRegistry::new(BatchConfig {
        parallelism,
        ..BatchConfig::default()
    });
    let info = registry.load_file("digits", &artifact)?;
    println!(
        "loaded `{}`: {}-bit, {} inputs, alphabets {}",
        info.model, info.bits, info.input_len, info.alphabets
    );

    // ---- In-process serving: many threads, one model. The scheduler
    // spawns no threads: whichever caller finds no batch running runs
    // the queued requests as one batch on its own thread, and the
    // others wait for their replies. Predictions stay bit-identical to
    // sequential inference.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let registry = &registry;
            let images = &ds.test_images;
            scope.spawn(move || {
                for (i, image) in images.iter().enumerate() {
                    let p = registry
                        .predict("digits", image.clone())
                        .expect("serving a dataset image");
                    if t == 0 && i < 3 {
                        println!("thread {t} image {i} -> class {}", p.class);
                    }
                }
            });
        }
    });
    for s in registry.stats(Some("digits"))? {
        println!(
            "stats: {} completed, {} batches (mean size {:.2}), p50 {} us, p99 {} us, plan {}",
            s.completed, s.batches, s.mean_batch, s.p50_us, s.p99_us, s.plan
        );
    }

    // ---- Where did the time go? The observability plane histograms
    // every lifecycle stage (queue wait, batch coalesce, shard
    // dispatch, kernel execute, ...) across serve, par and the engine —
    // one table instead of per-crate guesswork.
    println!("\nper-stage latency breakdown (man-obs):");
    println!(
        "  {:<12} {:>8} {:>10} {:>10} {:>10}",
        "stage", "samples", "mean us", "p50 us", "p99 us"
    );
    for (stage, snap) in obs::stage_snapshot() {
        if snap.is_empty() {
            continue;
        }
        println!(
            "  {:<12} {:>8} {:>10.1} {:>10} {:>10}",
            stage.label(),
            snap.count,
            snap.mean(),
            snap.quantile(0.50),
            snap.quantile(0.99),
        );
    }

    // ---- The same four operations over TCP (newline-delimited JSON).
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&registry)).map_err(ManError::Io)?;
    // The front-end engine and its threads — grep `[man-serve]` in CI
    // logs.
    let fe = server.frontend_stats();
    println!(
        "[man-serve] front-end: {} ({} reactor + {} dispatch threads), TCP on {}",
        fe.mode,
        fe.reactor_threads,
        fe.dispatch_threads,
        server.local_addr()
    );
    let mut tcp = TcpClient::connect(server.local_addr()).map_err(ManError::Io)?;
    let (class, scores) = tcp
        .predict("digits", &ds.test_images[0])
        .expect("predict over the wire");
    println!("TCP predict -> class {class} ({} scores)", scores.len());
    // Wrong-shaped input: a structured protocol error, connection kept.
    let err = tcp
        .predict("digits", &[0.5; 3])
        .expect_err("short input must be rejected");
    println!("TCP shape error -> [{}] {}", err.code, err.message);
    tcp.unload("digits").expect("unload over the wire");
    let fe = server.frontend_stats();
    println!(
        "[man-serve] slab high-water: {} ({} accepted, {} ndjson / {} binary)",
        fe.slab_high_water, fe.accepted_conns, fe.ndjson_conns, fe.binary_conns
    );

    server.shutdown();
    registry.shutdown();
    std::fs::remove_file(&artifact).ok();

    // Backpressure contract: a full queue rejects immediately instead
    // of queueing unboundedly — hammer a 1-slot queue and count the
    // `overloaded` answers.
    let tiny = ModelRegistry::new(BatchConfig {
        queue_capacity: 1,
        ..BatchConfig::default()
    });
    tiny.install("digits", compiled);
    let overloaded: usize = std::thread::scope(|scope| {
        (0..4)
            .map(|t| {
                let tiny = &tiny;
                let images = &ds.test_images;
                scope.spawn(move || {
                    (0..images.len())
                        .filter(|&i| {
                            tiny.predict("digits", images[(i + t) % images.len()].clone())
                                .is_err()
                        })
                        .count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("burst thread panicked"))
            .sum()
    });
    let s = tiny.stats(Some("digits"))?.remove(0);
    println!(
        "1-slot queue under a 4-thread burst: {} served, {overloaded} rejected with `overloaded`",
        s.completed
    );
    Ok(())
}
