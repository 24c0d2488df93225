//! Closed-loop load benchmark of the `man-serve` runtime on the paper's
//! Digit-8bit MLP: single-request-per-call serving vs dynamic
//! micro-batching, a queue-depth sweep, and a loopback-TCP round-trip.
//!
//! Modes (all through the full registry + scheduler stack, 8 closed-loop
//! client threads):
//!
//! * `single_request_per_call` — `max_batch = 1`, cold sessions: every
//!   dispatch opens a fresh `InferenceSession`, shares nothing. This is
//!   the naive stateless server one would write directly on the PR-1
//!   `CompiledModel::session()` API.
//! * `single_request_persistent` — `max_batch = 1` but a persistent
//!   session, isolating how much of the win is session reuse vs
//!   coalescing.
//! * `micro_batched` — the production configuration: whatever queued
//!   while the previous batch computed coalesces (up to 32) into one
//!   `infer_batch_with_load` call on a persistent session.
//!
//! Emits `BENCH_serve.json` in the working directory.
//!
//! Run with: `cargo run --release -p man-bench --bin serve [-- --full]`
#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_bench::{closed_loop, LoadReport};
use man_datasets::GenOptions;
use man_repro::{CompiledModel, Pipeline};
use man_serve::{BatchConfig, Client, ModelRegistry, ModelStats, Server, SessionMode, TcpClient};
use serde::Serialize;

const MODEL: &str = "digits";
const CLIENTS: usize = 8;

#[derive(Serialize)]
struct ModeRow {
    mode: String,
    max_batch: usize,
    session: String,
    /// Throughput of the mode's *best* measurement window.
    load: LoadReport,
    /// Scheduler metrics accumulated over the warmup plus every
    /// repetition — a cumulative profile of the mode under this load
    /// level, not a snapshot of the single window `load` reports.
    stats: ModelStats,
}

#[derive(Serialize)]
struct QueueRow {
    queue_capacity: usize,
    clients: usize,
    load: LoadReport,
    rejected: u64,
    p95_us: u64,
}

#[derive(Serialize)]
struct TcpReport {
    roundtrip_ok: bool,
    predict_rps: f64,
}

#[derive(Serialize)]
struct ServeBench {
    benchmark: String,
    bits: u32,
    alphabet: String,
    clients: usize,
    quick: bool,
    modes: Vec<ModeRow>,
    /// `micro_batched` vs `single_request_per_call` throughput — the
    /// headline number (acceptance target: >= 2x at 8 clients).
    speedup_micro_batched_vs_single_request: f64,
    queue_sweep: Vec<QueueRow>,
    tcp: TcpReport,
}

fn session_label(mode: SessionMode) -> &'static str {
    match mode {
        SessionMode::Cold => "cold (fresh per call)",
        SessionMode::Persistent => "persistent",
    }
}

/// Measures every mode in interleaved repetitions (so background noise
/// on the host hits all modes alike) and keeps each mode's best window —
/// the standard way to bench throughput on a shared machine.
fn run_modes(
    model: &CompiledModel,
    images: &[Vec<f32>],
    configs: Vec<(&'static str, BatchConfig)>,
    warmup: Duration,
    measure: Duration,
    reps: usize,
) -> Vec<ModeRow> {
    let runs: Vec<(&'static str, BatchConfig, Arc<ModelRegistry>, Client)> = configs
        .into_iter()
        .map(|(name, config)| {
            let registry = ModelRegistry::new(config.clone());
            registry.install(MODEL, model.clone());
            let client = Client::new(Arc::clone(&registry));
            (name, config, registry, client)
        })
        .collect();
    let predict = |client: &Client, c: usize, i: u64| {
        let image = &images[(c * 7 + i as usize) % images.len()];
        client.predict(MODEL, image.clone()).is_ok()
    };
    // Settle the thread pools before measuring.
    for (_, _, _, client) in &runs {
        let _ = closed_loop(CLIENTS, warmup, |c, i| predict(client, c, i));
    }
    let mut best: Vec<Option<LoadReport>> = vec![None; runs.len()];
    for _ in 0..reps {
        for (idx, (_, _, _, client)) in runs.iter().enumerate() {
            let load = closed_loop(CLIENTS, measure, |c, i| predict(client, c, i));
            if best[idx]
                .as_ref()
                .is_none_or(|b| load.throughput_rps > b.throughput_rps)
            {
                best[idx] = Some(load);
            }
        }
    }
    runs.into_iter()
        .zip(best)
        .map(|((name, config, registry, _), load)| {
            let load = load.expect("at least one rep ran");
            let stats = registry
                .stats(Some(MODEL))
                .expect("model is loaded")
                .remove(0);
            println!(
                "  {name:<26} {:>9.1} req/s   p50 {:>6} us   p99 {:>7} us   mean batch {:>5.2}   plan {}",
                load.throughput_rps, stats.p50_us, stats.p99_us, stats.mean_batch, stats.plan
            );
            ModeRow {
                mode: name.to_owned(),
                max_batch: config.max_batch,
                session: session_label(config.session_mode).to_owned(),
                load,
                stats,
            }
        })
        .collect()
}

fn queue_sweep(model: &CompiledModel, images: &[Vec<f32>], measure: Duration) -> Vec<QueueRow> {
    // More clients than the smallest queue so backpressure actually
    // fires; rejected requests count as errors in the load report.
    let clients = 16;
    println!("\nqueue-depth sweep ({clients} clients, micro-batched):");
    [2usize, 8, 64, 256]
        .into_iter()
        .map(|cap| {
            let registry = ModelRegistry::new(BatchConfig {
                queue_capacity: cap,
                ..BatchConfig::default()
            });
            registry.install(MODEL, model.clone());
            let client = Client::new(Arc::clone(&registry));
            let load = closed_loop(clients, measure, |c, i| {
                let image = &images[(c * 5 + i as usize) % images.len()];
                let ok = client.predict(MODEL, image.clone()).is_ok();
                if !ok {
                    // A sane client backs off after an Overloaded
                    // rejection instead of spin-hammering the queue.
                    std::thread::sleep(Duration::from_micros(500));
                }
                ok
            });
            let stats = registry
                .stats(Some(MODEL))
                .expect("model is loaded")
                .remove(0);
            println!(
                "  capacity {cap:>4}: {:>9.1} req/s   rejected {:>7}   p95 {:>7} us",
                load.throughput_rps, stats.rejected, stats.p95_us
            );
            QueueRow {
                queue_capacity: cap,
                clients,
                load,
                rejected: stats.rejected,
                p95_us: stats.p95_us,
            }
        })
        .collect()
}

fn tcp_roundtrip(model: &CompiledModel, images: &[Vec<f32>], rounds: usize) -> TcpReport {
    println!("\nloopback TCP round-trip:");
    let expected = model
        .session()
        .infer(&images[0])
        .expect("image matches the input layer");
    let path = std::env::temp_dir().join("man_bench_serve_digits.man.json");
    model.save(&path).expect("artifact saves");

    let registry = ModelRegistry::with_defaults();
    let mut server = Server::bind("127.0.0.1:0", registry).expect("loopback bind");
    let mut client = TcpClient::connect(server.local_addr()).expect("loopback connect");

    // load -> predict -> stats -> unload, all over the wire.
    client
        .load(MODEL, path.to_str().expect("utf-8 temp path"))
        .expect("wire load");
    let (class, scores) = client.predict(MODEL, &images[0]).expect("wire predict");
    assert_eq!(
        (class, &scores),
        (expected.class, &expected.scores),
        "wire prediction must be bit-identical to the in-process session"
    );

    let start = std::time::Instant::now();
    let mut ok = 0usize;
    for i in 0..rounds {
        if client.predict(MODEL, &images[i % images.len()]).is_ok() {
            ok += 1;
        }
    }
    let predict_rps = ok as f64 / start.elapsed().as_secs_f64();

    client.stats(Some(MODEL)).expect("wire stats");
    client.unload(MODEL).expect("wire unload");
    let gone = client
        .predict(MODEL, &images[0])
        .expect_err("unloaded model must be gone");
    assert_eq!(gone.code, "unknown_model");

    server.shutdown();
    std::fs::remove_file(&path).ok();
    println!("  load -> predict -> stats -> unload OK   {predict_rps:>9.1} req/s over TCP");
    TcpReport {
        roundtrip_ok: true,
        predict_rps,
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (warmup, measure, reps) = if full {
        (Duration::from_secs(2), Duration::from_secs(4), 4)
    } else {
        (Duration::from_secs(1), Duration::from_secs(2), 2)
    };
    let benchmark = Benchmark::DigitsMlp;
    let bits = benchmark.default_bits();
    let set = AlphabetSet::a1();
    let ds = benchmark.dataset(&GenOptions {
        train: 1,
        test: 64,
        seed: 0x5E12,
    });
    let compiled = Pipeline::for_benchmark(benchmark)
        .with_bits(bits)
        .with_alphabets(vec![set.clone()])
        .constrain()
        .expect("projection")
        .compile()
        .expect("projected weights compile");

    println!(
        "man-serve load benchmark — {} ({bits}-bit, {}) with {CLIENTS} closed-loop clients\n",
        benchmark.name(),
        set.label()
    );
    let modes = run_modes(
        &compiled,
        &ds.test_images,
        vec![
            (
                "single_request_per_call",
                BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::ZERO,
                    session_mode: SessionMode::Cold,
                    ..BatchConfig::default()
                },
            ),
            (
                "single_request_persistent",
                BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::ZERO,
                    session_mode: SessionMode::Persistent,
                    ..BatchConfig::default()
                },
            ),
            ("micro_batched", BatchConfig::default()),
        ],
        warmup,
        measure,
        reps,
    );
    let single = modes[0].load.throughput_rps;
    let batched = modes[2].load.throughput_rps;
    let speedup = batched / single;
    println!("\nmicro-batched vs single-request-per-call: {speedup:.2}x");

    let queue = queue_sweep(
        &compiled,
        &ds.test_images,
        measure.min(Duration::from_secs(2)),
    );
    let tcp = tcp_roundtrip(&compiled, &ds.test_images, if full { 2000 } else { 400 });

    let bench = ServeBench {
        benchmark: benchmark.name().to_owned(),
        bits,
        alphabet: set.label(),
        clients: CLIENTS,
        quick: !full,
        modes,
        speedup_micro_batched_vs_single_request: speedup,
        queue_sweep: queue,
        tcp,
    };
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => match std::fs::write("BENCH_serve.json", json) {
            Ok(()) => println!("\n[saved BENCH_serve.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_serve.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize serve bench: {e}"),
    }
}
