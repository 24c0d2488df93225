//! Batched-inference throughput of the `Pipeline` serving path: builds
//! each of the five Table-IV benchmark networks at the A1/A2/A4 alphabet
//! sets (projection-only — throughput does not depend on training),
//! opens an `InferenceSession`, and measures inferences/second of one
//! batched call against one fresh session per input.
//!
//! Emits `BENCH_pipeline.json` in the working directory — the seed of
//! the perf trajectory for the ROADMAP's batching/throughput work.
//!
//! Run with: `cargo run --release -p man-bench --bin pipeline [--full]`
#![forbid(unsafe_code)]

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_bench::timed_rate;
use man_datasets::GenOptions;
use man_repro::Pipeline;
use serde::Serialize;

#[derive(Serialize)]
struct ThroughputRow {
    benchmark: String,
    bits: u32,
    alphabet: String,
    batch: usize,
    /// Inferences per second through one `infer_batch` call.
    batched_ips: f64,
    /// Inferences per second with a fresh session per input.
    cold_ips: f64,
    /// batched_ips / cold_ips.
    speedup: f64,
    /// Multiply-accumulates per inference.
    macs: u64,
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let batch_size = if full { 128 } else { 24 };
    // Each sample repeats its path for at least `MIN_WINDOW`; the
    // regression gate gets best-of-N with the two paths interleaved so
    // noise hits both alike.
    let reps = if full { 5 } else { 3 };
    println!("Pipeline serving throughput (batch = {batch_size}, best of {reps})\n");
    println!(
        "{:<30} {:>4} {:<14} {:>12} {:>12} {:>8}",
        "Benchmark", "bits", "alphabet", "batched i/s", "cold i/s", "speedup"
    );
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let bits = b.default_bits();
        let ds = b.dataset(&GenOptions {
            train: 1,
            test: batch_size,
            seed: 0xBE9C + bits as u64,
        });
        for set in [AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()] {
            let compiled = Pipeline::for_benchmark(b)
                .with_bits(bits)
                .with_alphabets(vec![set.clone()])
                .constrain()
                .expect("projection")
                .compile()
                .expect("projected weights compile");
            let macs: u64 = compiled.fixed().macs_per_layer().iter().sum();

            let (mut batched_ips, mut cold_ips) = (0.0f64, 0.0f64);
            for _ in 0..reps {
                // Batched path: one session, one call per batch.
                let session = compiled.session();
                batched_ips = batched_ips.max(timed_rate(|| {
                    session
                        .infer_batch(&ds.test_images)
                        .expect("dataset images match the input layer")
                        .len()
                }));

                // Cold path: a fresh session per input.
                cold_ips = cold_ips.max(timed_rate(|| {
                    for image in &ds.test_images {
                        let fresh = compiled.session();
                        let p = fresh.infer(image).expect("dataset image matches");
                        assert!(p.class < 64);
                    }
                    batch_size
                }));
            }

            let row = ThroughputRow {
                benchmark: b.name().to_owned(),
                bits,
                alphabet: set.label(),
                batch: batch_size,
                batched_ips,
                cold_ips,
                speedup: batched_ips / cold_ips,
                macs,
            };
            println!(
                "{:<30} {:>4} {:<14} {:>12.1} {:>12.1} {:>7.2}x",
                row.benchmark, row.bits, row.alphabet, row.batched_ips, row.cold_ips, row.speedup
            );
            rows.push(row);
        }
    }
    match serde_json::to_string_pretty(&rows) {
        Ok(json) => match std::fs::write("BENCH_pipeline.json", json) {
            Ok(()) => println!("\n[saved BENCH_pipeline.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_pipeline.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize throughput rows: {e}"),
    }
}
