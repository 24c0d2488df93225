//! The host a result was measured on: its fingerprint, the process's
//! memory as `/proc` reports it, and a fixed reference CPU loop whose
//! time shows a slow host period in the data.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use serde::Value;

use crate::probe::median;

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`, ...), or NaN
/// where `/proc` is unavailable.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Iterations of one reference-loop pass (about 10 ms on a 2.5 GHz core).
const REF_ITERS: u64 = 1 << 23;

/// Median milliseconds of five passes of a fixed integer loop owned by
/// the benchmark. Its code never changes, so a shift in it between runs
/// is the host, not the program.
pub fn ref_ms() -> f64 {
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..REF_ITERS {
                x = x.rotate_left(7) ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&passes)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == "model name").then(|| value.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The fingerprint line printed before the result: CPU model, cores,
/// AVX2, rustc, the resolved plan label of each model the workload ran,
/// and the reference-loop time before and after the measured phase.
pub fn fingerprint(plans: &[(String, String)], ref_before: f64, ref_after: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let plans = plans
        .iter()
        .map(|(model, plan)| (model.clone(), Value::Str(plan.clone())))
        .collect();
    let host = Value::Object(vec![
        ("cpu".into(), Value::Str(cpu_model())),
        ("nproc".into(), Value::I64(cores as i64)),
        ("avx2".into(), Value::Bool(avx2())),
        ("rustc".into(), Value::Str(rustc_version())),
        ("plans".into(), Value::Object(plans)),
        ("ref_ms_before".into(), Value::F64(ref_before)),
        ("ref_ms_after".into(), Value::F64(ref_after)),
    ]);
    let line = Value::Object(vec![("host".into(), host)]);
    serde_json::to_string(&line).expect("the reference-loop times are finite")
}
