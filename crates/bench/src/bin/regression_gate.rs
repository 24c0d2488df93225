//! CI gate: compares freshly measured `BENCH_*.json` files against the
//! checked-in baselines and exits non-zero on a throughput regression.
//!
//! All comparison logic lives in `man_bench::regression` (unit tested);
//! this binary only parses arguments, reads files, prints the verdict
//! and sets the exit code.
//!
//! Usage:
//!
//! ```text
//! regression_gate --baseline <dir> --current <dir> \
//!     [--tolerance 0.25] [--scaling-shape] [FILE ...]
//! ```
//!
//! `FILE`s default to the six bench reports (`BENCH_pipeline.json`,
//! `BENCH_serve.json`, `BENCH_par.json`, `BENCH_obs.json`,
//! `BENCH_conn.json`, `BENCH_cluster.json`). A file
//! with no baseline yet is reported and skipped (first run); a baseline
//! whose current counterpart is missing or unparsable fails the gate.
//!
//! Independently of the baseline comparison, any *overhead contract*
//! a current report carries (an object with `off_ips` / `spans_ips` /
//! `max_overhead`, as `BENCH_obs.json` emits) is checked intrinsically:
//! both sides were measured interleaved in the same run, so the
//! contract binds even on the first run, before a baseline exists.
//!
//! With `--scaling-shape`, a report pair whose `host_cores` fields
//! *differ* (a baseline recorded on a different core class than the CI
//! runner) is compared by thread-scaling shape — speedup at matching
//! resolved worker counts, normalized to `workers == 1` — instead of
//! absolute ips, which are meaningless across core classes. Pairs on
//! the same core class (or without `host_cores`) keep the absolute
//! comparison.
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use man_bench::regression::{check_overhead_contracts, compare_report, CompareMode, Comparison};
use serde::Value;

const DEFAULT_FILES: &[&str] = &[
    "BENCH_pipeline.json",
    "BENCH_serve.json",
    "BENCH_par.json",
    "BENCH_obs.json",
    "BENCH_conn.json",
    "BENCH_cluster.json",
];
const DEFAULT_TOLERANCE: f64 = 0.25;

struct Args {
    baseline_dir: PathBuf,
    current_dir: PathBuf,
    tolerance: f64,
    scaling_shape: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline_dir = None;
    let mut current_dir = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut scaling_shape = false;
    let mut files = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scaling-shape" => scaling_shape = true,
            "--baseline" => {
                baseline_dir = Some(PathBuf::from(
                    argv.next().ok_or("--baseline needs a directory")?,
                ));
            }
            "--current" => {
                current_dir = Some(PathBuf::from(
                    argv.next().ok_or("--current needs a directory")?,
                ));
            }
            "--tolerance" => {
                tolerance = argv
                    .next()
                    .ok_or("--tolerance needs a fraction")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad tolerance: {e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err(format!("tolerance must be in [0, 1), got {tolerance}"));
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        files = DEFAULT_FILES.iter().map(|s| (*s).to_owned()).collect();
    }
    Ok(Args {
        baseline_dir: baseline_dir.ok_or("--baseline <dir> is required")?,
        current_dir: current_dir.ok_or("--current <dir> is required")?,
        tolerance,
        scaling_shape,
        files,
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_comparison(file: &str, cmp: &Comparison, tolerance: f64, mode: CompareMode) {
    let mode = match mode {
        CompareMode::Absolute => "absolute",
        CompareMode::ScalingShape => "scaling-shape (cross-core-class)",
    };
    println!(
        "  {file} [{mode}]: {} metrics compared, {} improved, {} regressed, {} missing (tolerance -{:.0}%)",
        cmp.compared,
        cmp.improved,
        cmp.regressions.len(),
        cmp.missing.len(),
        tolerance * 100.0
    );
    for r in &cmp.regressions {
        println!(
            "    REGRESSION {:<60} {:>10.1} -> {:>10.1}  ({:.0}% of baseline)",
            r.path,
            r.baseline,
            r.current,
            r.ratio * 100.0
        );
    }
    for m in &cmp.missing {
        println!("    MISSING    {m} (present in baseline, absent in current run)");
    }
    if cmp.vacuous() {
        println!(
            "    WARNING    0 metrics were comparable — the gate passed on absence of \
             evidence, not evidence. For scaling-shape pairs this means the baseline's \
             core class shares no multi-worker points with this runner (e.g. a baseline \
             seeded on a 1-core container): re-seed {file} from a core-classed runner to \
             make this gate binding."
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("regression_gate: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bench-regression gate: baseline {} vs current {}",
        args.baseline_dir.display(),
        args.current_dir.display()
    );
    let mut failed = false;
    for file in &args.files {
        let base_path = args.baseline_dir.join(file);
        let cur_path = args.current_dir.join(file);
        // Overhead contracts bind on the current run alone — check them
        // whenever the current report parses, baseline or not. (An
        // unreadable current report is handled by the comparison path
        // below when a baseline makes it binding.)
        if let Ok(cur) = load(&cur_path) {
            for c in check_overhead_contracts(&cur) {
                let ok = c.holds();
                println!(
                    "  {file}: overhead contract {}: off {:.1} ips vs spans {:.1} ips -> {:+.2}% overhead (budget {:.1}%) {}",
                    c.path,
                    c.off_ips,
                    c.spans_ips,
                    c.overhead * 100.0,
                    c.max_overhead * 100.0,
                    if ok { "OK" } else { "VIOLATED" }
                );
                failed |= !ok;
            }
        }
        if !base_path.exists() {
            println!("  {file}: no baseline yet — skipping (check the current run in to seed it)");
            continue;
        }
        let verdict = load(&base_path).and_then(|base| {
            load(&cur_path)
                .map(|cur| compare_report(&base, &cur, args.tolerance, args.scaling_shape))
        });
        match verdict {
            Ok((cmp, mode)) => {
                print_comparison(file, &cmp, args.tolerance, mode);
                failed |= !cmp.passed();
            }
            Err(e) => {
                println!("  {file}: FAILED to load/parse: {e}");
                failed = true;
            }
        }
    }
    if failed {
        println!(
            "\nVERDICT: FAIL — throughput regressed beyond tolerance, a bench surface \
             vanished, or an overhead contract was violated"
        );
        ExitCode::FAILURE
    } else {
        println!("\nVERDICT: PASS");
        ExitCode::SUCCESS
    }
}
