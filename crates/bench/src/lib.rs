//! Shared support for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (see DESIGN.md §4 for the index).
//!
//! Every binary accepts `--full` (paper-scale datasets and epochs) and
//! defaults to a `--quick` configuration that reproduces the trends in
//! seconds to minutes. Results are printed as the paper's rows and also
//! serialized to `target/experiments/<name>.json`.
#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use man::alphabet::AlphabetSet;
use man::engine::{CostModel, CostReport};
use man::fixed::LayerAlphabets;
use man::train::MethodologyConfig;
use man::zoo::Benchmark;
use man_datasets::GenOptions;
use man_par::Parallelism;
use man_repro::Pipeline;
use serde::Serialize;

pub mod paired;

/// Quick vs. full (paper-scale) execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Reduced samples/epochs; minutes for the whole suite.
    Quick,
    /// Paper-scale runs.
    Full,
}

impl RunMode {
    /// Parses `--full` / `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            RunMode::Full
        } else {
            RunMode::Quick
        }
    }

    /// Dataset sizing for this mode.
    pub fn gen_options(self, seed: u64) -> GenOptions {
        match self {
            RunMode::Quick => GenOptions {
                train: 1500,
                test: 400,
                seed,
            },
            RunMode::Full => GenOptions {
                train: 6000,
                test: 1500,
                seed,
            },
        }
    }
}

/// Parses the shared `--threads N` / `--threads=N` flag: `Threads(N)`
/// when given, `Parallelism::Auto` (every available core) otherwise —
/// so the experiment binaries use the whole machine by default and CI
/// can pin an exact worker count for reproducible timing. A malformed
/// value aborts loudly (exit 2) instead of silently falling back to
/// `Auto`: a run that *believes* it pinned its worker count but did not
/// would poison any timing comparison built on it.
pub fn parallelism_from_args() -> Parallelism {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        let value = if a == "--threads" {
            Some(args.next().unwrap_or_default())
        } else {
            a.strip_prefix("--threads=").map(str::to_owned)
        };
        if let Some(value) = value {
            match value.parse::<usize>() {
                Ok(n) if n >= 1 => return Parallelism::Threads(n),
                _ => {
                    eprintln!("--threads expects a worker count >= 1, got `{value}`");
                    std::process::exit(2);
                }
            }
        }
    }
    Parallelism::Auto
}

/// The alphabet sweep of the paper's tables, largest first (as Tables II
/// and III list them): `{1,3,5,7}`, `{1,3}`, `{1}`.
pub(crate) fn table_alphabets() -> Vec<AlphabetSet> {
    vec![AlphabetSet::a4(), AlphabetSet::a2(), AlphabetSet::a1()]
}

/// Applies a [`RunMode`]'s epoch budget for `benchmark` — the closure
/// the experiment pipelines register with `configure`. Since pipeline
/// overrides run *after* benchmark tuning, the tune pass is re-applied
/// so Quick mode cannot drop below a tuned floor (the CNN's 12-epoch
/// minimum).
pub fn apply_mode(cfg: &mut MethodologyConfig, mode: RunMode, benchmark: Benchmark) {
    if mode == RunMode::Quick {
        cfg.initial_epochs = 8;
        cfg.retrain_epochs = 4;
    }
    benchmark.tune(cfg);
}

/// One accuracy row: configuration label, accuracy %, loss vs conventional
/// in percentage points.
#[derive(Clone, Debug, Serialize)]
pub struct AccuracyRow {
    /// Configuration (e.g. "conventional NN" or "2 {1,3}").
    pub(crate) config: String,
    /// Test accuracy in percent.
    pub accuracy_pct: f64,
    /// Accuracy loss vs. the conventional NN, percentage points.
    pub(crate) loss_pct: f64,
}

/// A full accuracy experiment on one benchmark at one word length.
#[derive(Clone, Debug, Serialize)]
pub struct AccuracyExperiment {
    /// Benchmark name.
    pub benchmark: String,
    /// Word length.
    pub(crate) bits: u32,
    /// Float accuracy after unconstrained training (for reference).
    pub(crate) float_pct: f64,
    /// Rows: conventional first, then each alphabet set.
    pub rows: Vec<AccuracyRow>,
}

/// Trains the benchmark once (pipeline baseline stage), measures the
/// conventional fixed-point accuracy `J`, then constrained-retrains and
/// measures each alphabet set in `table_alphabets` order — the
/// procedure behind Tables II/III and Fig. 7.
///
/// The alphabet-set retrains are independent restarts from the same
/// restore point, so with a multi-worker `parallelism` they run
/// concurrently; each set's retraining is seeded per-set and its
/// accuracy evaluation shards deterministically, so every row is
/// identical to the sequential sweep.
pub fn accuracy_experiment(
    benchmark: Benchmark,
    bits: u32,
    mode: RunMode,
    parallelism: Parallelism,
) -> AccuracyExperiment {
    let ds = benchmark.dataset(&mode.gen_options(0xDA7E + bits as u64));
    let baseline = Pipeline::for_benchmark(benchmark)
        .with_bits(bits)
        .with_data(&ds)
        .with_parallelism(parallelism)
        .configure(move |cfg| apply_mode(cfg, mode, benchmark))
        .train_baseline()
        .expect("baseline training runs");
    let layers = baseline.spec().layer_formats().len();
    let j = 100.0 * baseline.conventional_accuracy;
    let mut rows = vec![AccuracyRow {
        config: "conventional NN".into(),
        accuracy_pct: j,
        loss_pct: 0.0,
    }];
    let sets = table_alphabets();
    // Workers fan over the per-set retrains; each set's accuracy
    // evaluation nests on the same pool.
    rows.extend(man_par::parallel_map(parallelism, sets.len(), |i| {
        let alphabets = LayerAlphabets::uniform(sets[i].clone(), layers);
        let retrained = baseline
            .retrain(&alphabets)
            .expect("projected weights always compile");
        AccuracyRow {
            config: retrained.alphabets().label(),
            accuracy_pct: 100.0 * retrained.attempts[0].accuracy,
            loss_pct: retrained.attempts[0].loss_pp,
        }
    }));
    AccuracyExperiment {
        benchmark: benchmark.name().to_owned(),
        bits,
        float_pct: 100.0 * baseline.float_accuracy,
        rows,
    }
}

/// Prints an accuracy experiment in the layout of Tables II/III.
pub fn print_accuracy_table(exp: &AccuracyExperiment) {
    println!(
        "\n{} — {} bit synapses (float reference {:.2}%)",
        exp.benchmark, exp.bits, exp.float_pct
    );
    println!(
        "{:<18} {:>12} {:>18}",
        "No. of Alphabets", "Accuracy (%)", "Accuracy Loss (%)"
    );
    for row in &exp.rows {
        if row.config == "conventional NN" {
            println!("{:<18} {:>12.2} {:>18}", row.config, row.accuracy_pct, "--");
        } else {
            println!(
                "{:<18} {:>12.2} {:>18.2}",
                row.config, row.accuracy_pct, row.loss_pct
            );
        }
    }
}

/// Energy/area/cycle measurements of one benchmark across neuron kinds.
#[derive(Clone, Debug, Serialize)]
pub struct CostExperiment {
    /// Benchmark name.
    pub(crate) benchmark: String,
    /// Word length.
    pub(crate) bits: u32,
    /// Conventional first, then each alphabet set (Tables order).
    pub(crate) reports: Vec<CostReport>,
}

/// Runs the engine cost model on a benchmark: trains briefly, projects
/// onto each alphabet lattice, samples real operand traces, and measures
/// cycles / energy / area — the procedure behind Figs. 8–10.
///
/// Costs need a *constrained, compiled* network but not a fully retrained
/// one, so the (expensive) retraining step is skipped; DESIGN.md §5 notes
/// this.
pub fn cost_experiment(
    benchmark: Benchmark,
    bits: u32,
    mode: RunMode,
    model: &mut CostModel,
    parallelism: Parallelism,
) -> CostExperiment {
    let ds = benchmark.dataset(&GenOptions {
        train: 400,
        test: 64,
        seed: 0xC057 + bits as u64,
    });
    let baseline = Pipeline::for_benchmark(benchmark)
        .with_bits(bits)
        .with_data(&ds)
        .with_parallelism(parallelism)
        .configure(move |cfg| {
            apply_mode(cfg, mode, benchmark);
            cfg.initial_epochs = cfg.initial_epochs.min(4);
        })
        .train_baseline()
        .expect("brief training runs");
    model.stream_limit = trace_limit(mode);
    let mut reports = Vec::new();
    // Conventional baseline: full-alphabet weights, conventional datapath.
    let project = |set: AlphabetSet| {
        Pipeline::from_network(baseline.network().clone())
            .with_bits(bits)
            .with_alphabets(vec![set])
            .constrain()
            .expect("projection")
            .compile()
            .expect("projected weights always compile")
    };
    reports.push(
        project(AlphabetSet::a8())
            .cost_conventional(model, &ds.test_images)
            .expect("synthesis at paper clocks succeeds")
            .report,
    );
    for set in table_alphabets() {
        reports.push(
            project(set)
                .cost(model, &ds.test_images)
                .expect("synthesis at paper clocks succeeds")
                .report,
        );
    }
    CostExperiment {
        benchmark: benchmark.name().to_owned(),
        bits,
        reports,
    }
}

fn trace_limit(mode: RunMode) -> usize {
    match mode {
        RunMode::Quick => 600,
        RunMode::Full => 2000,
    }
}

/// Prints a cost experiment normalized to the conventional row.
pub fn print_cost_table(exp: &CostExperiment, metric: &str) {
    println!(
        "\n{} — {} bit ({} normalized to conventional)",
        exp.benchmark, exp.bits, metric
    );
    let base = &exp.reports[0];
    for r in &exp.reports {
        let (value, norm) = match metric {
            "energy" => (r.energy_pj, r.energy_pj / base.energy_pj),
            "power" => (r.power_mw, r.power_mw / base.power_mw),
            "area" => (r.neuron_area_um2, r.neuron_area_um2 / base.neuron_area_um2),
            _ => panic!("unknown metric {metric}"),
        };
        println!(
            "  {:<14} {:>12.2} {:>8.3}  ({:>5.1}% reduction)",
            r.label,
            value,
            norm,
            (1.0 - norm) * 100.0
        );
    }
}

/// Runs `op(client, iteration) -> ok` from `clients` threads in a
/// closed loop for `duration`: every client issues its next request the
/// moment the previous one completes, the standard way to measure a
/// serving stack's saturated throughput. Returns the successful
/// requests per second; failed ones are not fatal, just not counted.
pub fn closed_loop<F>(clients: usize, duration: std::time::Duration, op: F) -> f64
where
    F: Fn(usize, u64) -> bool + Sync,
{
    use std::time::Instant;
    let start = Instant::now();
    let completed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let op = &op;
                scope.spawn(move || {
                    let mut done = 0u64;
                    let mut i = 0u64;
                    while start.elapsed() < duration {
                        done += u64::from(op(c, i));
                        i += 1;
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .sum()
    });
    completed as f64 / start.elapsed().as_secs_f64()
}

/// Serializes an experiment result under `target/experiments/`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiments");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_mode_options_scale() {
        let q = RunMode::Quick.gen_options(1);
        let f = RunMode::Full.gen_options(1);
        assert!(f.train > q.train && f.test > q.test);
    }

    #[test]
    fn table_alphabets_are_paper_order() {
        let labels: Vec<String> = table_alphabets().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["4 {1,3,5,7}", "2 {1,3}", "1 {1}"]);
    }
}
