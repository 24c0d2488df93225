//! CI gate: the repository benchmark (`BENCHMARK.json`) run from a base
//! checkout and from this one, in alternating pairs on one host. Exits 1
//! when this checkout is worse on any workload.
//!
//! The verdict logic lives in `man_bench::paired` (unit tested); this
//! binary only reads the benchmark file, runs the pairs and prints the
//! table.
//!
//! ```text
//! paired_gate --base <dir>
//! ```
//!
//! Run it from the root of the head checkout; `<dir>` is a checkout of
//! the base commit. Each run builds the benchmark in its own checkout
//! first, so the two sides never share a build.
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use man_bench::paired::{judge, run_pairs, Spec, PAIRS};

fn parse_args() -> Result<PathBuf, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, dir] if flag == "--base" => Ok(PathBuf::from(dir)),
        _ => Err("usage: paired_gate --base <dir>".into()),
    }
}

fn main() -> ExitCode {
    let base_root = match parse_args() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("paired_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| Spec::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))
    {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("paired_gate: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "paired gate: base {} vs head ., {PAIRS} alternating pairs of {} s runs per workload",
        base_root.display(),
        spec.run_seconds
    );
    let mut failed = false;
    for workload in &spec.workloads {
        let (base, head) = run_pairs(&spec, &base_root, Path::new("."), &workload.name);
        let verdict = judge(&spec.end_to_end, &base, &head);
        println!("\n{}:", workload.name);
        if !verdict.has_baseline {
            println!("  no baseline: the base could not run this workload");
        } else {
            println!(
                "  {:<12} {:>12} {:>12} {:>8} {:>6}",
                "metric", "base", "head", "worse", "bound"
            );
            for row in &verdict.rows {
                println!(
                    "  {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}% {}",
                    row.name,
                    row.base,
                    row.head,
                    100.0 * row.worse_by,
                    100.0 * row.bound,
                    if row.passed() { "ok" } else { "FAIL" }
                );
            }
            println!(
                "  failed ops: base {:.4}%, head {:.4}%",
                100.0 * verdict.base_failed_share,
                100.0 * verdict.head_failed_share
            );
        }
        for failure in &verdict.failures {
            println!("  FAIL {failure}");
        }
        failed |= !verdict.passed();
    }
    if failed {
        println!("\nVERDICT: FAIL");
        ExitCode::FAILURE
    } else {
        println!("\nVERDICT: PASS");
        ExitCode::SUCCESS
    }
}
