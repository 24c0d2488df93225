//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <zoo_batch|serve_wire|paper_repro> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload's ops run in one process from one load-generating
//! thread, on sequential engine sessions, and each op checks its own
//! output. `--trace 0` reports the end-to-end metrics with the
//! observability plane off; `--trace 1` reports the per-layer metrics
//! from spans this benchmark records around calls into each layer's
//! public functions. The last line of standard output is
//! the result object; the line before it is the host fingerprint. See
//! README.md for the workloads, metrics and measured spread.

mod host;
mod paper_repro;
mod probe;
mod serve_wire;
mod zoo_batch;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use man_serve::obs::{set_level, ObsLevel};
use serde::Value;

use crate::paper_repro::PaperRepro;
use crate::probe::{median, Probe};
use crate::serve_wire::ServeWire;
use crate::zoo_batch::ZooBatch;

const WORKLOADS: [&str; 3] = ["zoo_batch", "serve_wire", "paper_repro"];
/// Set-ups per untraced run, each in its own process; `setup_s` is
/// their median. All but the first run in child processes spread evenly
/// over the measured phase, so that a slow host period of a few seconds
/// reaches only a few of them.
const SETUPS: u32 = 9;
/// `serve_wire` ops that another workload runs after each of its own ops
/// (after one unrecorded warm-up op), so that every run reports the two
/// wire latencies, sampled across the whole measured phase.
const COMPANION_OPS: u64 = 8;
/// Length of one untraced or traced chunk of a traced pass.
const CHUNK: Duration = Duration::from_millis(250);
/// Measured time of each other workload's pass in a traced run.
const SIDE_PASS: Duration = Duration::from_secs(3);

/// One workload: deterministic set-up, then a loop of verified ops.
pub trait Workload: Sized {
    /// Builds the workload's state from `seed` and runs one warm-up op.
    /// Only deterministic work happens here: it is what `setup_s` times.
    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String>;
    /// Computes the benchmark's own reference answers (after set-up).
    fn reference(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs op `i` and checks its output.
    fn op(&mut self, i: u64, probe: &mut Probe) -> Result<(), String>;
    /// Per-layer calls a traced pass makes outside the timed ops.
    fn layer_calls(&mut self, _i: u64, _probe: &mut Probe) {}
    /// The resolved `stats().plan` label of each model the workload runs.
    fn plans(&self) -> Vec<(String, String)> {
        Vec::new()
    }
    /// Median NDJSON and MANB latencies in ms, for the wire workload.
    fn wire_ms(&self) -> Option<(f64, f64)> {
        None
    }
    /// Per-layer metrics from a traced pass.
    fn layer_metrics(&self, probe: &Probe, out: &mut Metrics);
}

/// Named metrics with their units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    /// Adds `other`'s metrics that `self` does not have yet.
    fn fill_from(&mut self, other: Metrics) {
        for (name, metric) in other.0 {
            self.0.entry(name).or_insert(metric);
        }
    }
}

/// Ops attempted and failed, with the first failure for the log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            if self.failed == 0 {
                eprintln!("perfbench: op failed: {e}");
            }
            self.failed += 1;
        }
    }
}

/// What one run measured.
struct Run {
    metrics: Metrics,
    plans: Vec<(String, String)>,
    ref_before: f64,
    ref_after: f64,
}

/// Runs op after op until `until`, at least once, recording each op's
/// seconds in `times`.
fn ops_until<W: Workload>(
    w: &mut W,
    i: &mut u64,
    until: Instant,
    probe: &mut Probe,
    times: &mut Vec<f64>,
    tally: &mut Tally,
) {
    loop {
        let start = Instant::now();
        let result = w.op(*i, probe);
        times.push(start.elapsed().as_secs_f64());
        tally.count(result);
        *i += 1;
        if Instant::now() >= until {
            break;
        }
    }
}

/// Times one more set-up of `workload` in a fresh process, from that
/// process's start: a set-up in this process would find the heap that
/// earlier set-ups left behind, and would raise `peak_rss_mb`.
fn setup_in_child(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "0",
            "--trace",
            "0",
            "--setup-only",
            "1",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

/// The untraced run: a set-up timed from process start, reference
/// answers, then ops for `seconds`, with `SETUPS - 1` more set-ups in
/// fresh processes spread over them. Time spent in those set-ups does not
/// count towards `seconds`.
fn measure<W: Workload>(
    workload: &str,
    started: Instant,
    seed: u64,
    seconds: Duration,
    tally: &mut Tally,
) -> Result<Run, String> {
    set_level(ObsLevel::Off);
    let mut w = W::setup(seed, &mut Probe::off())?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    w.reference()?;
    let mut companion = match w.wire_ms() {
        Some(_) => None,
        None => {
            let mut wire = ServeWire::setup(seed, &mut Probe::off())?;
            wire.reference()?;
            Some(wire)
        }
    };
    let ref_before = host::ref_ms();
    let mut probe = Probe::off();
    let mut op_s = Vec::new();
    let (mut i, mut j) = (1, 1);
    let gap = seconds / SETUPS;
    let mut until = Instant::now() + seconds;
    let mut next_setup = Instant::now() + gap;
    while op_s.is_empty() || Instant::now() < until {
        let start = Instant::now();
        let result = w.op(i, &mut probe);
        op_s.push(start.elapsed().as_secs_f64());
        tally.count(result);
        i += 1;
        if let Some(wire) = companion.as_mut() {
            tally.count(wire.unrecorded_op(j));
            for k in 1..=COMPANION_OPS {
                tally.count(wire.op(j + k, &mut probe));
            }
            j += COMPANION_OPS + 1;
        }
        if setup_s.len() < SETUPS as usize && Instant::now() >= next_setup {
            let paused = Instant::now();
            setup_s.push(setup_in_child(workload, seed)?);
            until += paused.elapsed();
            next_setup = Instant::now() + gap;
        }
    }
    while setup_s.len() < SETUPS as usize {
        setup_s.push(setup_in_child(workload, seed)?);
    }
    let ref_after = host::ref_ms();
    let (ndjson_ms, binary_ms) = companion
        .as_ref()
        .map_or_else(|| w.wire_ms(), Workload::wire_ms)
        .ok_or("no wire latencies")?;
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("op_ms", median(&op_s) * 1e3, "ms");
    metrics.put("peak_rss_mb", host::status_mb("VmHWM"), "MiB");
    metrics.put("ndjson_ms", ndjson_ms, "ms");
    metrics.put("binary_ms", binary_ms, "ms");
    let mut plans = w.plans();
    plans.extend(companion.iter().flat_map(Workload::plans));
    Ok(Run {
        metrics,
        plans,
        ref_before,
        ref_after,
    })
}

/// One traced pass: a set-up with its layer calls timed, then `budget`
/// of alternating untraced and traced chunks of ops. Tracing means
/// `man_obs` spans on and every wrapped layer call timed; the untraced
/// chunks give `obs.overhead_pct`.
fn trace_pass<W: Workload>(
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<(Metrics, Vec<(String, String)>), String> {
    set_level(ObsLevel::Spans);
    let mut probe = Probe::on();
    let mut w = W::setup(seed, &mut probe)?;
    w.reference()?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let until = Instant::now() + budget;
    let mut i = 1;
    while traced.is_empty() || Instant::now() < until {
        set_level(ObsLevel::Off);
        probe.set_on(false);
        ops_until(
            &mut w,
            &mut i,
            Instant::now() + CHUNK,
            &mut probe,
            &mut plain,
            tally,
        );
        set_level(ObsLevel::Spans);
        probe.set_on(true);
        probe.stage_window(|probe| {
            ops_until(
                &mut w,
                &mut i,
                Instant::now() + CHUNK,
                probe,
                &mut traced,
                tally,
            )
        });
        w.layer_calls(i, &mut probe);
    }
    let mut metrics = Metrics::default();
    w.layer_metrics(&probe, &mut metrics);
    metrics.put(
        "obs.overhead_pct",
        100.0 * (median(&traced) / median(&plain) - 1.0),
        "%",
    );
    Ok((metrics, w.plans()))
}

fn trace_pass_of(
    name: &str,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<(Metrics, Vec<(String, String)>), String> {
    match name {
        "zoo_batch" => trace_pass::<ZooBatch>(seed, budget, tally),
        "serve_wire" => trace_pass::<ServeWire>(seed, budget, tally),
        _ => trace_pass::<PaperRepro>(seed, budget, tally),
    }
}

/// The traced run: the named workload's pass for `seconds`, then a
/// shorter pass of each other workload, so that every per-layer metric
/// is reported. Where two passes report one name, the named workload's
/// value is kept.
fn trace(workload: &str, seed: u64, seconds: Duration, tally: &mut Tally) -> Result<Run, String> {
    let ref_before = host::ref_ms();
    let (mut metrics, plans) = trace_pass_of(workload, seed, seconds, tally)?;
    for other in WORKLOADS.into_iter().filter(|w| *w != workload) {
        let (side, _) = trace_pass_of(other, seed, SIDE_PASS.min(seconds), tally)?;
        metrics.fill_from(side);
    }
    let ref_after = host::ref_ms();
    metrics.put("host.ref_ms_before", ref_before, "ms");
    metrics.put("host.ref_ms_after", ref_after, "ms");
    Ok(Run {
        metrics,
        plans,
        ref_before,
        ref_after,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    /// Only set up, then print the set-up's seconds (see `setup_in_child`).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds =
                    Some(Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--setup-only" => setup_only = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn result_line(run: &Run, tally: &Tally) -> String {
    let mut finite = true;
    let metrics = run
        .metrics
        .0
        .iter()
        .map(|(name, &(value, unit))| {
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} was not measured");
                finite = false;
            }
            let value = if value.is_finite() { value } else { -1.0 };
            let metric = Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.clone(), metric)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(finite && tally.failed == 0)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("every metric value is finite")
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        set_level(ObsLevel::Off);
        let setup = match args.workload.as_str() {
            "zoo_batch" => ZooBatch::setup(args.seed, &mut Probe::off()).map(drop),
            "serve_wire" => ServeWire::setup(args.seed, &mut Probe::off()).map(drop),
            _ => PaperRepro::setup(args.seed, &mut Probe::off()).map(drop),
        };
        let elapsed = started.elapsed().as_secs_f64();
        return match setup {
            Ok(()) => {
                println!("{elapsed}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    let mut tally = Tally::default();
    let run = if args.trace {
        trace(&args.workload, args.seed, args.seconds, &mut tally)
    } else {
        match args.workload.as_str() {
            "zoo_batch" => {
                measure::<ZooBatch>(&args.workload, started, args.seed, args.seconds, &mut tally)
            }
            "serve_wire" => {
                measure::<ServeWire>(&args.workload, started, args.seed, args.seconds, &mut tally)
            }
            _ => {
                measure::<PaperRepro>(&args.workload, started, args.seed, args.seconds, &mut tally)
            }
        }
    };
    match run {
        Ok(run) => {
            println!(
                "{}",
                host::fingerprint(&run.plans, run.ref_before, run.ref_after)
            );
            println!("{}", result_line(&run, &tally));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
