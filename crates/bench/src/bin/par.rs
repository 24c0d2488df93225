//! Parallel batch-engine throughput: `InferenceSession::infer_batch`
//! across the zoo models at `Sequential` vs `Threads(2)` / `Threads(4)`
//! / `Auto`, with bit-equality against the ASM reference datapath
//! (`FixedNet::infer_raw`) asserted on every configuration before
//! anything is timed.
//!
//! Emits `BENCH_par.json` in the working directory. The file records the
//! host's core count (`host_cores`) next to every measurement: thread
//! scaling is only meaningful relative to the cores that were actually
//! available, and the CI regression gate compares like against like via
//! the per-thread-count `ips` metrics.
//!
//! Run with: `cargo run --release -p man-bench --bin par [-- --full]`
#![forbid(unsafe_code)]

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_bench::timed_rate;
use man_datasets::GenOptions;
use man_par::{available_cores, Parallelism};
use man_repro::Pipeline;
use serde::Serialize;

#[derive(Serialize)]
struct ThreadRow {
    /// Requested configuration: `sequential`, `threads(2)`,
    /// `threads(4)`, `auto` (normalized — `Auto` resolves per host).
    parallelism: String,
    /// The worker count the session *resolved* for this batch (for
    /// `Auto`, what the tuner actually engaged — the honest x-axis the
    /// scaling-shape gate compares across core classes).
    workers: usize,
    /// The resolved sharding plan (`sequential`, `rows(N)`,
    /// `neurons(N)`).
    plan: String,
    /// Inferences per second through `infer_batch` (best window).
    ips: f64,
    /// `ips / sequential ips` on the same host — the scaling headline.
    speedup_vs_sequential: f64,
}

#[derive(Serialize)]
struct ParBench {
    benchmark: String,
    bits: u32,
    alphabet: String,
    batch: usize,
    /// MACs per inference — the work each row represents.
    macs: u64,
    rows: Vec<ThreadRow>,
}

#[derive(Serialize)]
struct ParReport {
    /// Hardware threads available when the numbers were taken. Thread
    /// scaling on an N-core host tops out near N; a 1-core container
    /// measures ~1.0x by physics, not by regression.
    host_cores: usize,
    quick: bool,
    benchmarks: Vec<ParBench>,
}

/// One untimed warmup pass, returning the scores for the bit-equality
/// check.
fn warmup(session: &man_repro::InferenceSession, images: &[Vec<f32>]) -> Vec<Vec<i64>> {
    session
        .infer_batch(images)
        .expect("dataset images match the input layer")
        .into_iter()
        .map(|p| p.scores)
        .collect()
}

/// One timed sample: inferences per second through `infer_batch`.
fn timed_ips(session: &man_repro::InferenceSession, images: &[Vec<f32>]) -> f64 {
    timed_rate(|| {
        session
            .infer_batch(images)
            .expect("dataset images match the input layer")
            .len()
    })
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (batch, reps) = if full { (256, 4) } else { (64, 2) };
    let host_cores = available_cores();
    let configs = [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ];
    println!("Parallel batch engine — infer_batch over {batch} rows, {host_cores} host core(s)\n");
    println!(
        "{:<30} {:>4} {:<12} {:>14} {:>12} {:>12} {:>9}",
        "Benchmark", "bits", "alphabet", "parallelism", "plan", "i/s", "speedup"
    );
    let mut benchmarks = Vec::new();
    for b in Benchmark::ALL {
        let bits = b.default_bits();
        let set = AlphabetSet::a1();
        let ds = b.dataset(&GenOptions {
            train: 1,
            test: batch,
            seed: 0x9A12 + bits as u64,
        });
        let compiled = Pipeline::for_benchmark(b)
            .with_bits(bits)
            .with_alphabets(vec![set.clone()])
            .constrain()
            .expect("projection")
            .compile()
            .expect("projected weights compile");
        let macs: u64 = compiled.fixed().macs_per_layer().iter().sum();

        // Warm every configuration first (checking bit-equality against
        // the ASM reference), then interleave the timed reps so host
        // noise hits all configurations alike.
        let sessions: Vec<_> = configs
            .iter()
            .map(|&p| compiled.session_parallel(p))
            .collect();
        let reference: Vec<Vec<i64>> = ds
            .test_images
            .iter()
            .map(|x| compiled.fixed().infer_raw(x))
            .collect();
        for (p, session) in configs.iter().zip(&sessions) {
            assert_eq!(
                reference,
                warmup(session, &ds.test_images),
                "{} @ {}: batch must be bit-identical to the ASM reference",
                b.name(),
                p.label()
            );
        }
        let mut best = vec![0.0f64; configs.len()];
        for _ in 0..reps {
            for (i, session) in sessions.iter().enumerate() {
                best[i] = best[i].max(timed_ips(session, &ds.test_images));
            }
        }
        let sequential_ips = best[0];
        let mut rows: Vec<ThreadRow> = Vec::new();
        for ((p, session), ips) in configs.into_iter().zip(&sessions).zip(best) {
            let speedup = if sequential_ips > 0.0 {
                ips / sequential_ips
            } else {
                1.0
            };
            // What the session actually engaged for this batch — under
            // `Auto` the tuner's answer, not the request.
            let plan = session.plan_for_batch(ds.test_images.len());
            println!(
                "{:<30} {:>4} {:<12} {:>14} {:>12} {:>12.1} {:>8.2}x",
                b.name(),
                bits,
                set.label(),
                p.label(),
                plan.label(),
                ips,
                speedup
            );
            rows.push(ThreadRow {
                // `Auto` resolves to a host-dependent worker count;
                // normalize its label so baselines taken on different
                // machines still pair up in the regression gate.
                parallelism: match p {
                    Parallelism::Auto => "auto".to_owned(),
                    other => other.label(),
                },
                workers: plan.workers(),
                plan: plan.label(),
                ips,
                speedup_vs_sequential: speedup,
            });
        }

        benchmarks.push(ParBench {
            benchmark: b.name().to_owned(),
            bits,
            alphabet: set.label(),
            batch,
            macs,
            rows,
        });
    }
    let report = ParReport {
        host_cores,
        quick: !full,
        benchmarks,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => match std::fs::write("BENCH_par.json", json) {
            Ok(()) => println!("\n[saved BENCH_par.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_par.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize par bench: {e}"),
    }
}
