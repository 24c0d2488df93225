//! Cluster-tier benchmark of the `man-serve` router: a router
//! front-end process fanning out to three worker processes over the
//! binary framing, measured through both wire modes in three phases —
//! steady state, a worker killed mid-load (failover), and a
//! join/leave rebalance with drain.
//!
//! Multiple processes, because that is the thing under test: the
//! cluster tier's contract is that worker *processes* can die and
//! join while clients see zero errors and bit-identical answers. The
//! parent runs the router and re-execs itself with `--worker` for
//! each worker node; a worker serves until its stdin closes, then
//! shuts down cleanly (the drain proof is its exit status).
//!
//! Every predict in every phase is checked byte-for-byte against a
//! single in-process reference session — the paper's determinism
//! contract extended to "any replica answers identically".
//!
//! Emits `BENCH_cluster.json` in the working directory. The asserts at
//! the end are the gate; the report's rates are for reading, not gated.
//!
//! Run with: `cargo run --release -p man-bench --bin cluster [-- --full]`
#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_datasets::GenOptions;
use man_repro::Pipeline;
use man_serve::cluster::REPLICAS;
use man_serve::{
    BatchConfig, BinaryClient, ModelRegistry, ReactorConfig, RequestHandler, Router, RouterConfig,
    Server, TcpClient,
};
use serde::Serialize;

const MODEL: &str = "digits";
/// Worker processes behind the router.
const WORKERS: usize = 3;
/// Closed-loop clients per wire mode (the container is small and the
/// bench runs 5 processes; the router hop, not client count, is the
/// thing measured).
const ACTIVE_PER_MODE: usize = 2;
/// Distinct probe inputs checked against the reference session.
const REF_COUNT: usize = 64;

/// One wire mode's closed-loop measurement in one phase.
#[derive(Serialize)]
struct PhaseReport {
    mode: String,
    phase: String,
    clients: usize,
    completed: u64,
    /// Client-visible failures *or* bit-mismatches vs the reference
    /// session — the failover contract demands this stays 0.
    errored: u64,
    elapsed_s: f64,
    /// Successful, bit-verified predicts per second through the router
    /// hop — the regression-gated throughput metric.
    predict_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// The failover phase's window metrics, from a dedicated sequential
/// prober running across the kill.
#[derive(Serialize)]
struct FailoverReport {
    killed_node: String,
    /// Longest single bit-verified predict observed by the prober —
    /// bounds the client-visible failover window (the request that ate
    /// the dead-replica retry).
    window_max_us: u64,
    /// Router predicts answered by a non-preferred replica (lifetime).
    failovers: u64,
    /// Predicts that burned the whole retry budget — must be 0.
    no_backend: u64,
    prober_errors: u64,
}

/// Join/leave rebalance outcome.
#[derive(Serialize)]
struct RebalanceReport {
    joined_node: String,
    moved_on_join: usize,
    left_node: String,
    moved_on_leave: usize,
    /// Models still hosted by the drained worker after `leave` — must
    /// be 0 (drain-then-leave emptied its registry).
    drained_models: usize,
    /// The drained worker's process exit reported success.
    drained_exit_ok: bool,
}

/// Per-backend router-side stats row (informational, `node`-labelled).
#[derive(Serialize)]
struct NodeReport {
    node: String,
    healthy: bool,
    requests: u64,
    failures: u64,
    p50_us: u64,
    p99_us: u64,
}

/// The checked-in report.
#[derive(Serialize)]
struct ClusterBench {
    benchmark: String,
    bits: u32,
    alphabet: String,
    quick: bool,
    workers: usize,
    replicas: usize,
    active: Vec<PhaseReport>,
    failover: FailoverReport,
    rebalance: RebalanceReport,
    nodes: Vec<NodeReport>,
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
/// `op` back-to-back for `secs`; an op returning `false` (error or
/// bit-mismatch) counts as errored.
fn measure<C>(mode: &str, phase: &str, clients: usize, secs: f64, connect: C) -> PhaseReport
where
    C: Fn() -> Option<Box<dyn FnMut(usize) -> bool + Send>> + Sync,
{
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let connect = &connect;
                scope.spawn(move || {
                    let Some(mut predict) = connect() else {
                        return (Vec::new(), 0, 1);
                    };
                    let mut lat = Vec::with_capacity(4096);
                    let (mut done, mut err) = (0u64, 0u64);
                    let mut i = c * 31;
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        if predict(i) {
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
    PhaseReport {
        mode: mode.to_owned(),
        phase: phase.to_owned(),
        clients,
        completed,
        errored,
        elapsed_s,
        predict_rps: completed as f64 / elapsed_s,
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
    }
}

/// The worker side, re-exec'd: an empty registry + binary-capable
/// server, address printed as the first stdout line, serving until
/// stdin closes — then a clean drain-and-exit (the parent asserts the
/// exit status as the drain proof).
fn run_worker() {
    let registry = ModelRegistry::new(BatchConfig::default());
    let mut server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ReactorConfig {
            reactor_threads: 1,
            dispatch_threads: 1,
        },
    )
    .expect("worker server binds");
    println!("{}", server.local_addr());
    // println! to a pipe is line-buffered per call; the addr line is
    // flushed by the newline, but be explicit for portability.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let mut sink = Vec::new();
    std::io::stdin()
        .read_to_end(&mut sink)
        .expect("worker waits on stdin");
    server.shutdown();
    registry.shutdown();
}

/// One spawned worker process and its advertised address.
struct Worker {
    child: Child,
    addr: String,
}

fn spawn_worker(exe: &std::path::Path) -> Worker {
    let mut child = Command::new(exe)
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("worker process spawns");
    let stdout = child.stdout.take().expect("worker stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut addr = String::new();
    reader
        .read_line(&mut addr)
        .expect("worker prints its address");
    // Keep the pipe's read end open for the worker's lifetime (a
    // closed pipe would SIGPIPE any later worker print).
    child.stdout = Some(reader.into_inner());
    Worker {
        child,
        addr: addr.trim().to_owned(),
    }
}

impl Worker {
    /// Closes stdin (the worker's exit signal) and reaps the process.
    fn drain_and_wait(mut self) -> bool {
        drop(self.child.stdin.take());
        self.child
            .wait()
            .map(|status| status.success())
            .unwrap_or(false)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--worker") {
        run_worker();
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let secs = if full { 3.0 } else { 1.5 };

    // The model: same artifact on every replica, saved once and loaded
    // through the router's `load` fan-out.
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
    let artifact =
        std::env::temp_dir().join(format!("man_bench_cluster_{}.man.json", std::process::id()));
    compiled.save(&artifact).expect("artifact saves");
    let artifact_path = artifact.to_str().expect("utf-8 temp path").to_owned();

    // The bit-equality reference: the same artifact in one in-process
    // session. Every routed answer must match these byte-for-byte.
    let reference: Vec<(usize, Vec<i64>)> = {
        let batch: Vec<Vec<f32>> = (0..REF_COUNT).map(|i| probe_input(input_len, i)).collect();
        compiled
            .session()
            .infer_batch(&batch)
            .expect("reference inference")
            .into_iter()
            .map(|p| (p.class, p.scores))
            .collect()
    };

    // Workers, router, front-end.
    let exe = std::env::current_exe().expect("own binary path");
    let mut workers: Vec<Worker> = (0..WORKERS).map(|_| spawn_worker(&exe)).collect();
    let router = Router::new(RouterConfig {
        request_timeout: Duration::from_millis(1_500),
        health_interval: Duration::from_millis(100),
    });
    for w in &workers {
        router.join_node(&w.addr).expect("worker joins the cluster");
    }
    let mut front = Server::bind_handler(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn RequestHandler>,
        ReactorConfig {
            reactor_threads: 1,
            dispatch_threads: 2,
        },
    )
    .expect("router front-end binds");
    let front_addr = front.local_addr().to_string();
    router
        .load_model(MODEL, &artifact_path)
        .expect("model loads on its replica set");
    println!(
        "man-serve cluster benchmark — router + {WORKERS} workers, {REPLICAS} replicas, {ACTIVE_PER_MODE}x2 clients"
    );
    println!("[man-serve] front-end: {}", front.frontend_stats().mode);

    // A verified-predict closure factory: checks every answer against
    // the reference session (bit-equality is part of "success").
    let reference = &reference;
    let verified_ndjson = |addr: String| {
        move || -> Option<Box<dyn FnMut(usize) -> bool + Send>> {
            let mut client = TcpClient::connect(&addr).ok()?;
            let reference = reference.clone();
            Some(Box::new(move |i: usize| {
                let k = i % REF_COUNT;
                match client.predict(MODEL, &probe_input(input_len, k)) {
                    Ok((class, scores)) => (class, scores) == reference[k],
                    Err(_) => false,
                }
            }))
        }
    };
    let verified_binary = |addr: String| {
        move || -> Option<Box<dyn FnMut(usize) -> bool + Send>> {
            let mut client = BinaryClient::connect(&addr).ok()?;
            let reference = reference.clone();
            Some(Box::new(move |i: usize| {
                let k = i % REF_COUNT;
                match client.predict(MODEL, &probe_input(input_len, k)) {
                    Ok((class, scores)) => (class, scores) == reference[k],
                    Err(_) => false,
                }
            }))
        }
    };

    // Phase 1: steady state, both wire modes through the router hop.
    let steady_nd = measure(
        "ndjson",
        "steady",
        ACTIVE_PER_MODE,
        secs,
        verified_ndjson(front_addr.clone()),
    );
    let steady_bin = measure(
        "binary",
        "steady",
        ACTIVE_PER_MODE,
        secs,
        verified_binary(front_addr.clone()),
    );

    // Phase 2: kill the model's preferred replica mid-load. The
    // contract: zero client-visible errors, answers still bit-identical
    // — failover is the router's problem, not the client's.
    let placement = router
        .stats()
        .models
        .first()
        .expect("model is placed")
        .replicas
        .clone();
    let victim_addr = placement.first().expect("replica set non-empty").clone();
    let victim_idx = workers
        .iter()
        .position(|w| w.addr == victim_addr)
        .expect("preferred replica is one of our workers");
    let failovers_before = router.stats().failovers;
    let mut victim = workers.remove(victim_idx);
    let stop = AtomicBool::new(false);
    let window_max = AtomicU64::new(0);
    let prober_errors = AtomicU64::new(0);
    let (failover_nd, failover_bin) = std::thread::scope(|scope| {
        // The killer: lets the load ramp, then takes the preferred
        // replica down hard (SIGKILL — no graceful drain).
        let killer = scope.spawn(|| {
            std::thread::sleep(Duration::from_secs_f64(secs * 0.25));
            victim.child.kill().expect("victim killed");
            victim.child.wait().ok();
        });
        // The window prober: one sequential binary client timing every
        // predict across the kill; its max latency bounds the
        // client-visible failover window.
        let prober = scope.spawn(|| {
            let Ok(mut client) = BinaryClient::connect(&front_addr) else {
                // ORDERING: single-writer bench counter, read after join.
                prober_errors.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let mut i = 0usize;
            // ORDERING: advisory stop flag; the scope join is the
            // synchronization point.
            while !stop.load(Ordering::Relaxed) {
                let k = i % REF_COUNT;
                let t = Instant::now();
                let ok = match client.predict(MODEL, &probe_input(input_len, k)) {
                    Ok((class, scores)) => (class, scores) == reference[k],
                    Err(_) => false,
                };
                let us = t.elapsed().as_micros() as u64;
                // ORDERING: single-writer bench maximum, read after join.
                window_max.fetch_max(us, Ordering::Relaxed);
                if !ok {
                    // ORDERING: single-writer bench counter, read after join.
                    prober_errors.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        });
        let nd = measure(
            "ndjson",
            "failover",
            ACTIVE_PER_MODE,
            secs,
            verified_ndjson(front_addr.clone()),
        );
        let bin = measure(
            "binary",
            "failover",
            ACTIVE_PER_MODE,
            secs,
            verified_binary(front_addr.clone()),
        );
        // ORDERING: advisory stop flag (see the prober's load).
        stop.store(true, Ordering::Relaxed);
        killer.join().expect("killer thread");
        prober.join().expect("prober thread");
        (nd, bin)
    });
    let stats = router.stats();
    let failover = FailoverReport {
        killed_node: victim_addr.clone(),
        // ORDERING: prober thread already joined; these are quiescent.
        window_max_us: window_max.load(Ordering::Relaxed),
        failovers: stats.failovers - failovers_before,
        no_backend: stats.no_backend,
        // ORDERING: prober thread already joined; quiescent.
        prober_errors: prober_errors.load(Ordering::Relaxed),
    };
    // Remove the corpse from the table before rebalancing.
    router
        .leave_node(&victim_addr)
        .expect("dead node leaves the table");

    // Phase 3: rebalance — a fresh worker joins (pre-loaded before the
    // table swap), then a live worker leaves with drain; traffic keeps
    // flowing bit-identically throughout.
    let joined = spawn_worker(&exe);
    let joined_addr = joined.addr.clone();
    workers.push(joined);
    let moved_on_join = router
        .join_node(&joined_addr)
        .expect("replacement worker joins");
    // Leave any live worker: `leave` pre-loads the gaining replicas
    // before the table swap, so the model never goes dark regardless
    // of which node departs.
    let leaver_addr = workers[0].addr.clone();
    let moved_on_leave = router
        .leave_node(&leaver_addr)
        .expect("live worker leaves with drain");
    let rebalance_bin = measure(
        "binary",
        "rebalance",
        ACTIVE_PER_MODE,
        secs,
        verified_binary(front_addr.clone()),
    );
    // The drained worker's registry must be empty before it exits.
    let drained_models = BinaryClient::connect(&leaver_addr)
        .and_then(|mut c| c.request_ok(r#"{"op":"stats"}"#))
        .map(|v| {
            v.as_object()
                .and_then(|o| {
                    o.iter()
                        .find(|(k, _)| k == "models")
                        .and_then(|(_, m)| m.as_array().map(|rows| rows.len()))
                })
                .unwrap_or(usize::MAX)
        })
        .unwrap_or(usize::MAX);
    let leaver_idx = workers
        .iter()
        .position(|w| w.addr == leaver_addr)
        .expect("leaver is a live worker");
    let drained_exit_ok = workers.remove(leaver_idx).drain_and_wait();

    let nodes: Vec<NodeReport> = router
        .stats()
        .nodes
        .into_iter()
        .map(|b| NodeReport {
            node: b.node,
            healthy: b.healthy,
            requests: b.requests,
            failures: b.failures,
            p50_us: b.p50_us,
            p99_us: b.p99_us,
        })
        .collect();
    let rebalance = RebalanceReport {
        joined_node: joined_addr,
        moved_on_join,
        left_node: leaver_addr,
        moved_on_leave,
        drained_models,
        drained_exit_ok,
    };

    let active = vec![
        steady_nd,
        steady_bin,
        failover_nd,
        failover_bin,
        rebalance_bin,
    ];
    for r in &active {
        println!(
            "  {:<8} {:<9} {} clients: {:>8.1} predict/s   p50 {:>6} us   p99 {:>7} us   ({} ok, {} err)",
            r.mode, r.phase, r.clients, r.predict_rps, r.p50_us, r.p99_us, r.completed, r.errored
        );
    }
    println!(
        "  failover: killed {} — window ≤ {} us, {} failovers, {} no_backend, {} prober errors",
        failover.killed_node,
        failover.window_max_us,
        failover.failovers,
        failover.no_backend,
        failover.prober_errors
    );
    println!(
        "  rebalance: +{} moved {} models, -{} moved {} (drained: {} models left, exit ok = {})",
        rebalance.joined_node,
        rebalance.moved_on_join,
        rebalance.left_node,
        rebalance.moved_on_leave,
        rebalance.drained_models,
        rebalance.drained_exit_ok
    );

    // The cluster contract, asserted hard: zero client-visible errors
    // in every phase (failover included), clean drain, bounded retry
    // never exhausted.
    for r in &active {
        assert_eq!(
            r.errored, 0,
            "phase {}/{} saw client-visible errors or bit-mismatches",
            r.mode, r.phase
        );
        assert!(r.completed > 0, "phase {}/{} did no work", r.mode, r.phase);
    }
    assert_eq!(failover.prober_errors, 0, "failover prober saw errors");
    assert!(
        failover.failovers > 0,
        "killing the preferred replica must force failovers"
    );
    assert_eq!(failover.no_backend, 0, "retry budget was exhausted");
    assert_eq!(
        rebalance.drained_models, 0,
        "leave did not drain the worker"
    );
    assert!(rebalance.drained_exit_ok, "drained worker exited uncleanly");

    let bench = ClusterBench {
        benchmark: benchmark.name().to_owned(),
        bits,
        alphabet: set.label(),
        quick: !full,
        workers: WORKERS,
        replicas: REPLICAS,
        active,
        failover,
        rebalance,
        nodes,
    };
    front.shutdown();
    router.shutdown();
    for w in workers {
        w.drain_and_wait();
    }
    std::fs::remove_file(&artifact).ok();
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => match std::fs::write("BENCH_cluster.json", json) {
            Ok(()) => println!("\n[saved BENCH_cluster.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_cluster.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize cluster bench: {e}"),
    }
}
