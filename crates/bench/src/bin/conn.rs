//! Connection-scaling benchmark of the `man-serve` reactor front-end:
//! 10k mostly-idle TCP connections held open on a handful of reactor
//! threads while a small set of active NDJSON and binary-framing
//! clients measure request latency (p50/p99) through the loaded slab.
//!
//! Two processes, because file descriptors: the container's
//! `ulimit -n` cannot hold both halves of 10k loopback connections in
//! one process. The parent runs the server and re-execs itself with
//! `--child` for the client side; the child reports its measurements
//! as one JSON line on stdout.
//!
//! Emits `BENCH_conn.json` in the working directory. The asserts at
//! the end are the gate; the report's rates are for reading, not gated.
//!
//! Run with: `cargo run --release -p man-bench --bin conn [-- --full]`
#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_datasets::GenOptions;
use man_repro::Pipeline;
use man_serve::{BatchConfig, BinaryClient, ModelRegistry, ReactorConfig, Server, TcpClient};
use serde::{Deserialize, Serialize};

const MODEL: &str = "digits";
/// Mostly-idle connections the bench tries to hold open.
const IDLE_TARGET: usize = 10_000;
/// Active closed-loop clients per wire mode.
const ACTIVE_PER_MODE: usize = 4;
/// Descriptors reserved for everything that is not an idle connection
/// (active clients, the artifact, stdio, the waker pairs...).
const FD_HEADROOM: usize = 1_000;

/// One active wire mode's closed-loop measurement (child-side).
#[derive(Serialize, Deserialize)]
struct ActiveReport {
    mode: String,
    clients: usize,
    completed: u64,
    errored: u64,
    elapsed_s: f64,
    /// Successful predicts per second across the mode's clients —
    /// the regression-gated throughput metric.
    predict_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Everything the `--child` process measured, printed as one JSON line.
#[derive(Serialize, Deserialize)]
struct ChildReport {
    idle_target: usize,
    idle_opened: usize,
    /// Idle connections probed with a request *after* the load phase —
    /// proof the slab kept them serviceable, not merely open.
    idle_probed_ok: usize,
    connect_s: f64,
    ndjson: ActiveReport,
    binary: ActiveReport,
}

/// The checked-in report.
#[derive(Serialize)]
struct ConnBench {
    benchmark: String,
    bits: u32,
    alphabet: String,
    quick: bool,
    fd_limit: usize,
    reactor_threads: usize,
    dispatch_threads: usize,
    idle_target: usize,
    idle_opened: usize,
    idle_probed_ok: usize,
    connect_s: f64,
    /// Server-side slab high-water mark — must cover idle + active.
    slab_high_water: usize,
    accepted_conns: u64,
    active: Vec<ActiveReport>,
}

/// Soft `RLIMIT_NOFILE` from procfs (std exposes no getrlimit; the
/// reactor itself never needs it — only this bench's capacity planning).
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1_024)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn probe_input(len: usize, i: usize) -> Vec<f32> {
    (0..len)
        .map(|j| ((i * 7 + j * 3) % 13) as f32 / 13.0)
        .collect()
}

/// Closed-loop latency measurement: `clients` threads, each running
/// `op` back-to-back for `secs`, latencies merged and ranked.
fn measure<C, F>(mode: &str, clients: usize, secs: f64, connect: C, op: F) -> ActiveReport
where
    C: Fn() -> Option<Box<dyn FnMut(&[f32]) -> bool + Send>> + Sync,
    F: Fn(usize, u64) -> Vec<f32> + Sync,
{
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let connect = &connect;
                let op = &op;
                scope.spawn(move || {
                    let Some(mut predict) = connect() else {
                        return (Vec::new(), 0, 1);
                    };
                    let mut lat = Vec::with_capacity(4096);
                    let (mut done, mut err) = (0u64, 0u64);
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let input = op(c, i);
                        let t = Instant::now();
                        if predict(&input) {
                            lat.push(t.elapsed().as_micros() as u64);
                            done += 1;
                        } else {
                            err += 1;
                        }
                        i += 1;
                    }
                    (lat, done, err)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("active client panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut all: Vec<u64> = results
        .iter()
        .flat_map(|(l, _, _)| l.iter().copied())
        .collect();
    all.sort_unstable();
    let completed: u64 = results.iter().map(|(_, d, _)| d).sum();
    let errored: u64 = results.iter().map(|(_, _, e)| e).sum();
    ActiveReport {
        mode: mode.to_owned(),
        clients,
        completed,
        errored,
        elapsed_s,
        predict_rps: completed as f64 / elapsed_s,
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
    }
}

/// The client side, re-exec'd: holds the idle herd, drives the active
/// load, probes the herd, prints one JSON line.
fn run_child(addr: &str, idle_target: usize, input_len: usize, secs: f64) {
    let connect_start = Instant::now();
    let mut idle: Vec<TcpStream> = Vec::with_capacity(idle_target);
    for i in 0..idle_target {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(_) => break, // local fd exhaustion: hold what we have
        }
        // Pace the ramp: loopback connects complete in the kernel
        // without a userspace accept, so an unpaced serial loop fills
        // the fixed 128-entry listen backlog within one scheduler
        // timeslice on a small box and the next SYN eats a ~1s
        // retransmit. A breath every 64 connects lets the reactor
        // drain the backlog; this bench measures the loaded slab, not
        // SYN-flood survival.
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let connect_s = connect_start.elapsed().as_secs_f64();
    let idle_opened = idle.len();

    let ndjson = measure(
        "ndjson",
        ACTIVE_PER_MODE,
        secs,
        || {
            let mut client = TcpClient::connect(addr).ok()?;
            Some(
                Box::new(move |input: &[f32]| client.predict(MODEL, input).is_ok())
                    as Box<dyn FnMut(&[f32]) -> bool + Send>,
            )
        },
        |c, i| probe_input(input_len, c * 7 + i as usize),
    );
    let binary = measure(
        "binary",
        ACTIVE_PER_MODE,
        secs,
        || {
            let mut client = BinaryClient::connect(addr).ok()?;
            Some(
                Box::new(move |input: &[f32]| client.predict(MODEL, input).is_ok())
                    as Box<dyn FnMut(&[f32]) -> bool + Send>,
            )
        },
        |c, i| probe_input(input_len, c * 11 + i as usize),
    );

    // The herd must still be serviceable after the load phase: promote a
    // sample of idle connections to NDJSON with a `stats` request.
    let mut idle_probed_ok = 0usize;
    for stream in idle.iter_mut().step_by((idle_opened / 32).max(1)).take(32) {
        let ok = stream
            .write_all(b"{\"op\":\"stats\"}\n")
            .and_then(|()| {
                let mut line = String::new();
                BufReader::new(&mut *stream).read_line(&mut line)?;
                Ok(line.contains("\"ok\":true"))
            })
            .unwrap_or(false);
        idle_probed_ok += usize::from(ok);
    }

    let report = ChildReport {
        idle_target,
        idle_opened,
        idle_probed_ok,
        connect_s,
        ndjson,
        binary,
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("child report serializes")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--child") {
        let addr = &args[2];
        let idle: usize = args[3].parse().expect("idle count");
        let input_len: usize = args[4].parse().expect("input len");
        let secs: f64 = args[5].parse().expect("measure seconds");
        run_child(addr, idle, input_len, secs);
        return;
    }

    let full = args.iter().any(|a| a == "--full");
    let secs = if full { 4.0 } else { 2.0 };
    let limit = fd_limit();
    let idle_target = IDLE_TARGET.min(limit.saturating_sub(FD_HEADROOM));

    let benchmark = Benchmark::DigitsMlp;
    let bits = benchmark.default_bits();
    let set = AlphabetSet::a1();
    let ds = benchmark.dataset(&GenOptions {
        train: 1,
        test: 4,
        seed: 0xC0,
    });
    let input_len = ds.test_images[0].len();
    let compiled = Pipeline::for_benchmark(benchmark)
        .with_bits(bits)
        .with_alphabets(vec![set.clone()])
        .constrain()
        .expect("projection")
        .compile()
        .expect("projected weights compile");
    let registry = ModelRegistry::new(BatchConfig::default());
    registry.install(MODEL, compiled);

    // ≤ 4 front-end threads total for 10k connections — the point of
    // the reactor vs 10k threads.
    let reactor = ReactorConfig {
        reactor_threads: 2,
        dispatch_threads: 2,
    };
    let mut server = Server::bind_with("127.0.0.1:0", Arc::clone(&registry), reactor.clone())
        .expect("reactor server binds");
    println!(
        "man-serve connection-scaling benchmark — {} idle + {}x2 active clients, fd limit {limit}",
        idle_target, ACTIVE_PER_MODE
    );
    println!(
        "[man-serve] front-end: {} ({} reactor + {} dispatch threads)",
        server.frontend_stats().mode,
        reactor.reactor_threads,
        reactor.dispatch_threads
    );

    let exe = std::env::current_exe().expect("own binary path");
    let output = std::process::Command::new(exe)
        .arg("--child")
        .arg(server.local_addr().to_string())
        .arg(idle_target.to_string())
        .arg(input_len.to_string())
        .arg(secs.to_string())
        .output()
        .expect("client child process runs");
    assert!(
        output.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json_line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("child printed a JSON report");
    let child: ChildReport = serde_json::from_str(json_line).expect("child report parses");

    let fe = server.frontend_stats();
    for r in [&child.ndjson, &child.binary] {
        println!(
            "  {:<8} {} clients: {:>9.1} predict/s   p50 {:>6} us   p99 {:>7} us   ({} ok, {} err)",
            r.mode, r.clients, r.predict_rps, r.p50_us, r.p99_us, r.completed, r.errored
        );
    }
    println!(
        "  idle herd: {}/{} opened in {:.2}s, {} probed alive after load; slab high-water {}",
        child.idle_opened,
        child.idle_target,
        child.connect_s,
        child.idle_probed_ok,
        fe.slab_high_water
    );
    assert!(
        child.idle_opened >= idle_target * 9 / 10,
        "could not hold the idle herd: {}/{idle_target}",
        child.idle_opened
    );
    assert!(
        child.idle_probed_ok > 0,
        "idle connections went dead under load"
    );
    assert!(
        fe.slab_high_water >= child.idle_opened,
        "slab high-water {} below the idle herd {}",
        fe.slab_high_water,
        child.idle_opened
    );

    let bench = ConnBench {
        benchmark: benchmark.name().to_owned(),
        bits,
        alphabet: set.label(),
        quick: !full,
        fd_limit: limit,
        reactor_threads: reactor.reactor_threads,
        dispatch_threads: reactor.dispatch_threads,
        idle_target,
        idle_opened: child.idle_opened,
        idle_probed_ok: child.idle_probed_ok,
        connect_s: child.connect_s,
        slab_high_water: fe.slab_high_water,
        accepted_conns: fe.accepted_conns,
        active: vec![child.ndjson, child.binary],
    };
    server.shutdown();
    registry.shutdown();
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => match std::fs::write("BENCH_conn.json", json) {
            Ok(()) => println!("\n[saved BENCH_conn.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_conn.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize conn bench: {e}"),
    }
}
