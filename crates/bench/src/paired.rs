//! The paired benchmark gate: the repository benchmark
//! (`BENCHMARK.json`) run from a base checkout and from the head
//! checkout on one host, and a verdict per workload.
//!
//! Both sides run in the same minutes on the same machine, so no number
//! recorded elsewhere enters the comparison. Each workload gets
//! [`PAIRS`] pairs of runs, and the side that runs first alternates
//! from pair to pair, so slow drift of the host hits both sides alike.
//! [`judge`] fails the head on a workload when
//!
//! * a head run printed no parsable result line, or reports
//!   `correct: false`;
//! * the head's share of failed ops is above the base's;
//! * the head's median of an end-to-end metric is worse than the base's
//!   median by more than that metric's `bound`.
//!
//! A base run without a parsable result line is left out. When no base
//! run of a workload parses, the workload has no baseline: only the
//! head's own checks apply.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use serde::{Deserialize, Value};

/// Pairs of base and head runs per workload.
pub const PAIRS: usize = 3;

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Debug, Deserialize)]
pub struct Spec {
    /// The command that runs the benchmark, from a checkout's root.
    pub(crate) command: Vec<String>,
    /// Measured seconds of one run.
    pub run_seconds: f64,
    /// The workloads, in run order.
    pub workloads: Vec<WorkloadSpec>,
    /// The gated metrics.
    pub end_to_end: Vec<MetricSpec>,
}

/// One workload of the benchmark.
#[derive(Debug, Deserialize)]
pub struct WorkloadSpec {
    /// The value of the benchmark's `--workload` flag.
    pub name: String,
}

/// One gated end-to-end metric.
#[derive(Debug, Deserialize)]
pub struct MetricSpec {
    /// Metric name in the result line.
    pub(crate) name: String,
    /// `"lower"` or `"higher"`.
    pub(crate) better: String,
    /// Largest tolerated relative worsening of the median (0.1 = 10%).
    pub(crate) bound: f64,
}

impl Spec {
    /// Parses and checks the text of `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing field, an empty `command` or a `better`
    /// other than `lower`/`higher`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let spec: Spec = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if spec.command.is_empty() {
            return Err("`command` is empty".into());
        }
        if let Some(m) = spec
            .end_to_end
            .iter()
            .find(|m| m.better != "lower" && m.better != "higher")
        {
            return Err(format!(
                "metric {}: unknown `better` {:?}",
                m.name, m.better
            ));
        }
        Ok(spec)
    }

    /// The arguments appended to `command` for one untraced run.
    pub(crate) fn run_args(&self, workload: &str) -> Vec<String> {
        let seconds = self.run_seconds;
        format!("--workload {workload} --seed 1 --seconds {seconds} --trace 0")
            .split_whitespace()
            .map(str::to_owned)
            .collect()
    }
}

/// The result line one benchmark run prints last.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every op's answer checked out and every metric was measured.
    pub(crate) correct: bool,
    /// Ops attempted.
    pub(crate) attempted: u64,
    /// Ops whose answer or call failed.
    pub(crate) failed: u64,
    /// Measured metric values by name.
    pub(crate) metrics: BTreeMap<String, f64>,
}

#[derive(Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `{name: {"value": v, "unit": u}, ...}`.
    metrics: Value,
}

impl RunResult {
    /// Parses the last line of a run's standard output; `None` when it
    /// is not a result object. A negative value is the benchmark's mark
    /// for a metric it could not measure, and is left out.
    pub(crate) fn parse(stdout: &str) -> Option<RunResult> {
        let line: Line = serde_json::from_str(stdout.lines().last()?).ok()?;
        let mut metrics = BTreeMap::new();
        for (name, metric) in line.metrics.as_object()? {
            let value: f64 = serde::de::field(metric.as_object()?, "value").ok()?;
            if value >= 0.0 {
                metrics.insert(name.clone(), value);
            }
        }
        Some(RunResult {
            correct: line.correct,
            attempted: line.attempted,
            failed: line.failed,
            metrics,
        })
    }
}

/// One metric of one workload: the base's median against the head's.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRow {
    /// Metric name.
    pub name: String,
    /// Median over the base runs.
    pub base: f64,
    /// Median over the head runs.
    pub head: f64,
    /// How much worse the head is, as a fraction of the base (negative
    /// when it is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl MetricRow {
    /// `true` when the head is within the bound.
    pub fn passed(&self) -> bool {
        self.worse_by <= self.bound
    }
}

/// The gate's verdict on one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdict {
    /// `false` when no base run parsed and the comparison was skipped.
    pub has_baseline: bool,
    /// Failed ops over attempted ops, summed over the base runs.
    pub base_failed_share: f64,
    /// The same for the head runs.
    pub head_failed_share: f64,
    /// Every metric both sides measured.
    pub rows: Vec<MetricRow>,
    /// Why the head fails the workload; empty when it passes.
    pub failures: Vec<String>,
}

impl Verdict {
    /// `true` when the head passes the workload.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn failed_share(runs: &[&RunResult]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median of `metric` over the runs that measured it.
fn median(runs: &[&RunResult], metric: &str) -> Option<f64> {
    let mut values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => None,
        n if n % 2 == 1 => Some(values[mid]),
        _ => Some((values[mid - 1] + values[mid]) / 2.0),
    }
}

/// Judges one workload from its base and head runs (`None` for a run
/// without a parsable result line) against the gated `metrics`.
pub fn judge(
    metrics: &[MetricSpec],
    base: &[Option<RunResult>],
    head: &[Option<RunResult>],
) -> Verdict {
    let base_runs: Vec<&RunResult> = base.iter().flatten().collect();
    let head_runs: Vec<&RunResult> = head.iter().flatten().collect();
    let mut verdict = Verdict {
        has_baseline: !base_runs.is_empty(),
        base_failed_share: failed_share(&base_runs),
        head_failed_share: failed_share(&head_runs),
        ..Verdict::default()
    };
    for (i, run) in head.iter().enumerate() {
        let failure = match run {
            None => "printed no result line",
            Some(r) if !r.correct => "reports correct: false",
            Some(_) => continue,
        };
        verdict
            .failures
            .push(format!("head run {} {failure}", i + 1));
    }
    if base_runs.is_empty() || head_runs.is_empty() {
        return verdict;
    }
    if verdict.head_failed_share > verdict.base_failed_share {
        verdict.failures.push(format!(
            "failed-op share {:.4}% is above the base's {:.4}%",
            100.0 * verdict.head_failed_share,
            100.0 * verdict.base_failed_share
        ));
    }
    for spec in metrics {
        let Some(base) = median(&base_runs, &spec.name) else {
            continue;
        };
        let Some(head) = median(&head_runs, &spec.name) else {
            verdict.failures.push(format!(
                "{} is measured by the base but not the head",
                spec.name
            ));
            continue;
        };
        let change = if base > 0.0 {
            (head - base) / base
        } else if head > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let row = MetricRow {
            name: spec.name.clone(),
            base,
            head,
            worse_by: if spec.better == "lower" {
                change
            } else {
                -change
            },
            bound: spec.bound,
        };
        if !row.passed() {
            verdict.failures.push(format!(
                "{} is {:+.1}% worse than the base, past its bound of {:.0}%",
                row.name,
                100.0 * row.worse_by,
                100.0 * row.bound
            ));
        }
        verdict.rows.push(row);
    }
    verdict
}

/// One run of `workload` from the checkout at `root`; `None` when the
/// run exits unsuccessfully or prints no result line.
pub(crate) fn run_once(spec: &Spec, root: &Path, workload: &str) -> Option<RunResult> {
    let out = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(spec.run_args(workload))
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    RunResult::parse(&String::from_utf8_lossy(&out.stdout))
}

/// [`PAIRS`] pairs of runs of `workload`, base first in even pairs and
/// head first in odd ones. Returns the base runs and the head runs.
pub fn run_pairs(
    spec: &Spec,
    base_root: &Path,
    head_root: &Path,
    workload: &str,
) -> (Vec<Option<RunResult>>, Vec<Option<RunResult>>) {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            base.push(run_once(spec, base_root, workload));
            head.push(run_once(spec, head_root, workload));
        } else {
            head.push(run_once(spec, head_root, workload));
            base.push(run_once(spec, base_root, workload));
        }
    }
    (base, head)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gated part of the repository's `BENCHMARK.json`.
    const SPEC: &str = r#"{
        "command": ["perfbench", "--"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": "zoo_batch", "why": "engine"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}
        ],
        "per_layer": []
    }"#;

    /// A result line as the benchmark prints it, with the host line
    /// before it.
    fn stdout(correct: bool, attempted: u64, failed: u64, op_ms: f64, rss: f64) -> String {
        format!(
            "{{\"host\":{{\"nproc\":2}}}}\n\
             {{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
             \"metrics\":{{\"op_ms\":{{\"value\":{op_ms},\"unit\":\"ms\"}},\
             \"peak_rss_mb\":{{\"value\":{rss},\"unit\":\"MiB\"}},\
             \"setup_s\":{{\"value\":0.5,\"unit\":\"s\"}}}}}}\n"
        )
    }

    fn run(correct: bool, attempted: u64, failed: u64, op_ms: f64, rss: f64) -> Option<RunResult> {
        RunResult::parse(&stdout(correct, attempted, failed, op_ms, rss))
    }

    /// Three base runs with an `op_ms` median of 40 and 37 MiB.
    fn base() -> Vec<Option<RunResult>> {
        [39.0, 40.0, 41.0]
            .map(|op_ms| run(true, 700, 0, op_ms, 37.0))
            .to_vec()
    }

    fn judge_head(head: Vec<Option<RunResult>>) -> Verdict {
        judge(&Spec::parse(SPEC).unwrap().end_to_end, &base(), &head)
    }

    #[test]
    fn spec_parses_the_gated_fields_and_builds_the_run_arguments() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.command, ["perfbench", "--"]);
        assert_eq!(spec.workloads[0].name, "zoo_batch");
        assert_eq!(spec.end_to_end[2].bound, 0.1);
        assert_eq!(
            spec.run_args("zoo_batch").join(" "),
            "--workload zoo_batch --seed 1 --seconds 30 --trace 0"
        );
        assert!(Spec::parse(
            &SPEC.replace("\"lower\", \"bound\": 0.1", "\"less\", \"bound\": 0.1")
        )
        .is_err());
    }

    #[test]
    fn the_repository_benchmark_file_parses() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json is at the repository root");
        let spec = Spec::parse(&text).unwrap();
        assert!(!spec.workloads.is_empty() && !spec.end_to_end.is_empty());
    }

    #[test]
    fn result_lines_parse_and_drop_unmeasured_metrics() {
        let r = run(true, 700, 2, 40.0, 37.0).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (700, 2));
        assert_eq!(r.metrics["op_ms"], 40.0);
        let unmeasured = run(false, 700, 0, -1.0, 37.0).unwrap();
        assert!(!unmeasured.metrics.contains_key("op_ms"));
    }

    #[test]
    fn five_percent_slower_op_ms_passes() {
        let v = judge_head(
            [40.0, 42.0, 44.0]
                .map(|ms| run(true, 700, 0, ms, 37.0))
                .to_vec(),
        );
        assert!(v.passed(), "{:?}", v.failures);
        let op = v.rows.iter().find(|r| r.name == "op_ms").unwrap();
        assert!((op.worse_by - 0.05).abs() < 1e-12, "{op:?}");
    }

    #[test]
    fn thirty_percent_slower_op_ms_fails() {
        let v = judge_head(
            [52.0, 52.0, 52.0]
                .map(|ms| run(true, 700, 0, ms, 37.0))
                .to_vec(),
        );
        assert!(!v.passed());
        assert_eq!(v.failures.len(), 1);
        assert!(v.failures[0].starts_with("op_ms"), "{:?}", v.failures);
    }

    #[test]
    fn eleven_percent_more_peak_rss_fails_its_tighter_bound() {
        let rss = 37.0 * 1.11;
        let v = judge_head([40.0; 3].map(|ms| run(true, 700, 0, ms, rss)).to_vec());
        assert!(!v.passed());
        assert!(v.failures[0].starts_with("peak_rss_mb"), "{:?}", v.failures);
    }

    #[test]
    fn a_higher_failed_share_fails() {
        let mut head = base();
        head[1] = run(true, 700, 1, 40.0, 37.0);
        let v = judge_head(head);
        assert!(!v.passed());
        assert!(
            v.failures[0].starts_with("failed-op share"),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn an_incorrect_head_run_fails() {
        let mut head = base();
        head[2] = run(false, 700, 0, 40.0, 37.0);
        let v = judge_head(head);
        assert_eq!(v.failures, ["head run 3 reports correct: false"]);
    }

    #[test]
    fn unparsable_or_missing_base_runs_are_skipped() {
        let spec = Spec::parse(SPEC).unwrap();
        let mut partial = base();
        partial[0] = RunResult::parse("perfbench: zoo_batch failed\n");
        assert_eq!(partial[0], None);
        let v = judge(&spec.end_to_end, &partial, &base());
        assert!(v.passed() && v.has_baseline, "{:?}", v.failures);

        let none = judge(&spec.end_to_end, &[None, None, None], &base());
        assert!(none.passed() && !none.has_baseline && none.rows.is_empty());
        let empty = judge(&spec.end_to_end, &[], &base());
        assert!(empty.passed() && !empty.has_baseline);
    }

    #[test]
    fn an_unparsable_head_run_fails_even_without_a_baseline() {
        let spec = Spec::parse(SPEC).unwrap();
        let mut head = base();
        head[0] = RunResult::parse("");
        let v = judge(&spec.end_to_end, &base(), &head);
        assert_eq!(v.failures, ["head run 1 printed no result line"]);
        let v = judge(&spec.end_to_end, &[None, None, None], &[None, None, None]);
        assert_eq!(v.failures.len(), 3);
    }
}
