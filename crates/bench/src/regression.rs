//! The CI perf-regression comparator behind the `bench-regression` job.
//!
//! The checked-in `BENCH_*.json` files are the performance baselines of
//! record. CI re-runs the bench binaries in `--quick` mode and compares
//! every *throughput-shaped* metric of the fresh run against the
//! baseline with a relative noise tolerance; a metric that fell by more
//! than the tolerance — or disappeared entirely — fails the build.
//!
//! The comparison logic lives here (not in workflow YAML) so it is unit
//! tested like any other code; the `regression_gate` binary is a thin
//! argv/exit-code wrapper around [`compare`].
//!
//! Metrics are extracted *structurally*: any numeric field whose key is
//! in [`THROUGHPUT_KEYS`] counts, wherever it sits in the document, and
//! its identity is the path of object keys leading to it. Array elements
//! are labelled by their identifying fields (`benchmark`, `alphabet`,
//! `mode`, `threads`, …) rather than position, so reordering rows — or
//! appending new ones — never mis-pairs baseline and current values.

use serde::Value;

/// Keys whose numeric values are throughput-shaped (higher is better).
/// Latencies and counters are deliberately excluded: they need opposite
/// polarity and absolute thresholds, and the gate's job is throughput.
pub const THROUGHPUT_KEYS: &[&str] = &[
    "batched_ips",
    "cold_ips",
    "throughput_rps",
    "predict_rps",
    "ips",
];

/// Keys that identify an array element (used to label rows stably).
const ID_KEYS: &[&str] = &[
    "benchmark",
    "alphabet",
    "mode",
    "model",
    "bits",
    "threads",
    "parallelism",
    "batch",
    "queue_capacity",
    "clients",
    "phase",
    "node",
];

/// One extracted throughput metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable identity: object keys and row labels joined with `/`.
    pub path: String,
    /// The metric value (inferences/requests per second).
    pub value: f64,
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// A stable label for an array element: its identifying fields when it
/// is an object (`benchmark=Digit-8bit,alphabet=1 {1}`), else its index.
fn element_label(v: &Value, index: usize) -> String {
    if let Some(entries) = v.as_object() {
        let ids: Vec<String> = ID_KEYS
            .iter()
            .filter_map(|key| {
                entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(k, v)| match v {
                        Value::Str(s) => format!("{k}={s}"),
                        other => format!("{k}={}", numeric(other).unwrap_or(f64::NAN)),
                    })
            })
            .collect();
        if !ids.is_empty() {
            return ids.join(",");
        }
    }
    index.to_string()
}

fn walk(v: &Value, path: &str, out: &mut Vec<Metric>) {
    match v {
        Value::Object(entries) => {
            for (key, child) in entries {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}/{key}")
                };
                if THROUGHPUT_KEYS.contains(&key.as_str()) {
                    if let Some(value) = numeric(child) {
                        out.push(Metric {
                            path: child_path,
                            value,
                        });
                        continue;
                    }
                }
                walk(child, &child_path, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = element_label(item, i);
                let child_path = if path.is_empty() {
                    format!("[{label}]")
                } else {
                    format!("{path}/[{label}]")
                };
                walk(item, &child_path, out);
            }
        }
        _ => {}
    }
}

/// Extracts every throughput metric from a bench JSON document.
pub fn extract_metrics(doc: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// One metric that fell below the tolerance band.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The metric's stable path.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// `current / baseline` (< 1 means slower).
    pub ratio: f64,
}

/// Outcome of comparing one current document against its baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Metrics that regressed beyond the tolerance.
    pub regressions: Vec<Finding>,
    /// Baseline metrics absent from the current run — treated as
    /// failures, so a bench surface cannot silently rot away.
    pub missing: Vec<String>,
    /// Metrics present in both documents.
    pub compared: usize,
    /// Compared metrics that improved beyond the tolerance (informational).
    pub improved: usize,
}

impl Comparison {
    /// `true` when nothing regressed and nothing went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// `true` when the comparison passed *without comparing anything* —
    /// a pass by absence of evidence, not by evidence. In scaling-shape
    /// mode this happens when the two hosts' core classes share no
    /// multi-worker points (e.g. a baseline seeded on a 1-core
    /// container): correct by physics, but the gate is not actually
    /// guarding the metric, so callers should surface it loudly and
    /// re-seed the baseline from a core-classed runner.
    pub fn vacuous(&self) -> bool {
        self.passed() && self.compared == 0
    }
}

/// Compares `current` against `baseline` with a relative `tolerance`
/// (`0.25` = a metric may fall to 75% of its baseline before failing —
/// wide enough to absorb shared-runner noise, tight enough to catch a
/// real engine regression). Metrics new in `current` pass silently —
/// they become binding once the refreshed baseline is checked in.
///
/// # Panics
///
/// Panics if `tolerance` is not in `[0, 1)`.
pub fn compare(baseline: &Value, current: &Value, tolerance: f64) -> Comparison {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be a fraction in [0, 1)"
    );
    let base_metrics = extract_metrics(baseline);
    let cur_metrics = extract_metrics(current);
    let mut cmp = Comparison::default();
    for base in &base_metrics {
        let Some(cur) = cur_metrics.iter().find(|m| m.path == base.path) else {
            cmp.missing.push(base.path.clone());
            continue;
        };
        cmp.compared += 1;
        // A zero/negative baseline can't anchor a ratio; count it as
        // compared but never as a regression (quick-mode benches can
        // legitimately record 0.0 for an unexercised path).
        if base.value <= 0.0 {
            continue;
        }
        let ratio = cur.value / base.value;
        if ratio < 1.0 - tolerance {
            cmp.regressions.push(Finding {
                path: base.path.clone(),
                baseline: base.value,
                current: cur.value,
                ratio,
            });
        } else if ratio > 1.0 + tolerance {
            cmp.improved += 1;
        }
    }
    cmp.regressions.sort_by(|a, b| {
        a.ratio
            .partial_cmp(&b.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    cmp
}

// ---------------------------------------------------------------------------
// Scaling-shape comparison (cross-core-class baselines)
// ---------------------------------------------------------------------------

/// One benchmark's thread-scaling curve: resolved worker count → best
/// measured ips, extracted from a `BENCH_par.json`-shaped report.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingCurve {
    /// Stable identity of the benchmark block (its ID fields).
    pub key: String,
    /// `(workers, ips)` points, ascending by workers, deduplicated by
    /// best ips (the `sequential` and a 1-core-resolved `auto` row both
    /// land on `workers == 1`).
    pub points: Vec<(usize, f64)>,
}

impl ScalingCurve {
    /// Speedup at `workers`, normalized to the curve's `workers == 1`
    /// anchor. `None` when the curve lacks the anchor or the point.
    pub fn speedup(&self, workers: usize) -> Option<f64> {
        let anchor = self.anchor()?;
        let (_, ips) = self.points.iter().find(|(w, _)| *w == workers)?;
        (anchor > 0.0).then(|| ips / anchor)
    }

    fn anchor(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|(w, _)| *w == 1)
            .map(|(_, ips)| *ips)
    }
}

/// The top-level `host_cores` field of a bench report, when present.
pub fn host_cores(doc: &Value) -> Option<usize> {
    let entries = doc.as_object()?;
    entries
        .iter()
        .find(|(k, _)| k == "host_cores")
        .and_then(|(_, v)| numeric(v))
        .map(|n| n as usize)
}

/// Extracts per-benchmark scaling curves from a report shaped like
/// `BENCH_par.json`: a `benchmarks` array whose elements carry ID fields
/// plus a `rows` array of `{workers, ips}` measurements. `workers` must
/// be the *resolved* count (the par bench records what `Auto` actually
/// engaged), so curve points from different hosts pair honestly.
pub fn extract_scaling_curves(doc: &Value) -> Vec<ScalingCurve> {
    let Some(entries) = doc.as_object() else {
        return Vec::new();
    };
    let Some(benchmarks) = entries
        .iter()
        .find(|(k, _)| k == "benchmarks")
        .and_then(|(_, v)| v.as_array())
    else {
        return Vec::new();
    };
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            let key = element_label(bench, i);
            let mut points: Vec<(usize, f64)> = Vec::new();
            let rows = bench
                .as_object()
                .and_then(|fields| {
                    fields
                        .iter()
                        .find(|(k, _)| k == "rows")
                        .and_then(|(_, v)| v.as_array())
                })
                .unwrap_or(&[]);
            for row in rows {
                let Some(fields) = row.as_object() else {
                    continue;
                };
                let field = |name: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == name)
                        .and_then(|(_, v)| numeric(v))
                };
                let (Some(workers), Some(ips)) = (field("workers"), field("ips")) else {
                    continue;
                };
                let workers = workers as usize;
                match points.iter_mut().find(|(w, _)| *w == workers) {
                    // Two rows can resolve to the same worker count
                    // (`sequential` and a 1-core `auto`): keep the best.
                    Some((_, best)) => *best = best.max(ips),
                    None => points.push((workers, ips)),
                }
            }
            points.sort_by_key(|(w, _)| *w);
            ScalingCurve { key, points }
        })
        .collect()
}

/// Compares thread-scaling *shape* instead of absolute ips: for every
/// benchmark, the speedup-over-`workers == 1` curves of baseline and
/// current are compared at matching worker counts, capped at the
/// smaller of the two hosts' core counts (a worker count beyond either
/// host's cores measures oversubscription, not scaling). This is the
/// comparison that stays meaningful when the baseline was recorded on a
/// different core class than the current runner.
///
/// A baseline point inside the cap that the current run no longer
/// measures is `missing` (a bench surface must not silently rot); a
/// point whose relative speedup fell below `1 - tolerance` of the
/// baseline's is a regression. Reports without `host_cores` yield a
/// `missing` finding for that field.
///
/// # Panics
///
/// Panics if `tolerance` is not in `[0, 1)`.
pub fn compare_scaling_shape(baseline: &Value, current: &Value, tolerance: f64) -> Comparison {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be a fraction in [0, 1)"
    );
    let mut cmp = Comparison::default();
    let (Some(base_cores), Some(cur_cores)) = (host_cores(baseline), host_cores(current)) else {
        cmp.missing.push("host_cores".to_owned());
        return cmp;
    };
    let cap = base_cores.min(cur_cores);
    let cur_curves = extract_scaling_curves(current);
    for base in extract_scaling_curves(baseline) {
        let Some(cur) = cur_curves.iter().find(|c| c.key == base.key) else {
            cmp.missing.push(format!("[{}]", base.key));
            continue;
        };
        let Some(base_anchor) = base.anchor() else {
            // No workers==1 row to normalize against: nothing to compare
            // for this benchmark (quick-mode reports always record one).
            continue;
        };
        if base_anchor <= 0.0 {
            continue;
        }
        for &(workers, ips) in &base.points {
            if workers <= 1 || workers > cap {
                continue;
            }
            let base_speedup = ips / base_anchor;
            let Some(cur_speedup) = cur.speedup(workers) else {
                cmp.missing
                    .push(format!("[{}]/speedup@{workers}", base.key));
                continue;
            };
            cmp.compared += 1;
            if base_speedup <= 0.0 {
                continue;
            }
            let ratio = cur_speedup / base_speedup;
            if ratio < 1.0 - tolerance {
                cmp.regressions.push(Finding {
                    path: format!("[{}]/speedup@{workers}", base.key),
                    baseline: base_speedup,
                    current: cur_speedup,
                    ratio,
                });
            } else if ratio > 1.0 + tolerance {
                cmp.improved += 1;
            }
        }
    }
    cmp.regressions.sort_by(|a, b| {
        a.ratio
            .partial_cmp(&b.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    cmp
}

/// How [`compare_report`] compared a file (for gate logs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompareMode {
    /// Absolute throughput metrics ([`compare`]).
    Absolute,
    /// Thread-scaling shape ([`compare_scaling_shape`]).
    ScalingShape,
}

/// The gate's entry point: picks the right comparison for one report
/// pair. With `scaling_shape` enabled and both reports carrying a
/// `host_cores` field that *differs*, absolute ips are meaningless —
/// the baseline was measured on a different core class — so the
/// thread-scaling shape is compared instead; in every other case the
/// absolute comparison runs (same core class ⇒ like against like).
pub fn compare_report(
    baseline: &Value,
    current: &Value,
    tolerance: f64,
    scaling_shape: bool,
) -> (Comparison, CompareMode) {
    if scaling_shape {
        if let (Some(base_cores), Some(cur_cores)) = (host_cores(baseline), host_cores(current)) {
            if base_cores != cur_cores {
                return (
                    compare_scaling_shape(baseline, current, tolerance),
                    CompareMode::ScalingShape,
                );
            }
        }
    }
    (compare(baseline, current, tolerance), CompareMode::Absolute)
}

// ---------------------------------------------------------------------------
// Observability overhead contracts (BENCH_obs.json)
// ---------------------------------------------------------------------------

/// One tracing-overhead contract found in a bench report, with its
/// measurements.
///
/// A contract is any JSON object carrying numeric `off_ips`,
/// `spans_ips` and `max_overhead` fields: the report promises that full
/// span tracing (`ObsLevel::Spans`) costs at most `max_overhead` (a
/// fraction) of the tracing-off throughput. Unlike [`compare`], the
/// check is *intrinsic to one run* — both sides were measured
/// interleaved in the same process on the same host, so no baseline
/// pairing or cross-run noise tolerance applies; the contract's own
/// bound is the whole verdict.
#[derive(Clone, Debug)]
pub struct OverheadContract {
    /// Path of the contract object within the document.
    pub path: String,
    /// Throughput with the observability plane off.
    pub off_ips: f64,
    /// Throughput with full span tracing.
    pub spans_ips: f64,
    /// Measured overhead fraction `1 - spans_ips / off_ips` (negative
    /// when the spans window happened to measure faster — noise).
    pub overhead: f64,
    /// The promised overhead ceiling (e.g. `0.02` for the 2% budget).
    pub max_overhead: f64,
}

impl OverheadContract {
    /// `true` when the measured overhead is within the promised ceiling.
    pub fn holds(&self) -> bool {
        self.overhead <= self.max_overhead
    }
}

fn field_f64(entries: &[(String, Value)], key: &str) -> Option<f64> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| numeric(v))
}

fn walk_contracts(v: &Value, path: &str, out: &mut Vec<OverheadContract>) {
    match v {
        Value::Object(entries) => {
            if let (Some(off_ips), Some(spans_ips), Some(max_overhead)) = (
                field_f64(entries, "off_ips"),
                field_f64(entries, "spans_ips"),
                field_f64(entries, "max_overhead"),
            ) {
                // A zero/negative off throughput can't anchor a
                // fraction; such a contract records zero overhead (a
                // quick-mode report from an unexercised path must not
                // fail the gate on a division artifact).
                let overhead = if off_ips > 0.0 {
                    1.0 - spans_ips / off_ips
                } else {
                    0.0
                };
                out.push(OverheadContract {
                    path: path.to_owned(),
                    off_ips,
                    spans_ips,
                    overhead,
                    max_overhead,
                });
            }
            for (key, child) in entries {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}/{key}")
                };
                walk_contracts(child, &child_path, out);
            }
        }
        Value::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                let child_path = format!("{path}[{}]", element_label(item, index));
                walk_contracts(item, &child_path, out);
            }
        }
        _ => {}
    }
}

/// Extracts every overhead contract from a bench report (usually the
/// single `overhead_contract` object of `BENCH_obs.json`, but the scan
/// is structural like [`extract_metrics`], so reports may carry any
/// number anywhere). The gate fails when any extracted contract does
/// not [`hold`](OverheadContract::holds).
pub fn check_overhead_contracts(doc: &Value) -> Vec<OverheadContract> {
    let mut out = Vec::new();
    walk_contracts(doc, "", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    const BASELINE: &str = r#"[
        {"benchmark": "A", "alphabet": "1 {1}", "batched_ips": 1000.0, "cold_ips": 100.0, "macs": 5},
        {"benchmark": "B", "alphabet": "2 {1,3}", "batched_ips": 2000.0, "cold_ips": 150.0, "macs": 9}
    ]"#;

    #[test]
    fn extracts_throughput_keys_with_stable_row_labels() {
        let metrics = extract_metrics(&parse(BASELINE));
        let paths: Vec<&str> = metrics.iter().map(|m| m.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "[benchmark=A,alphabet=1 {1}]/batched_ips",
                "[benchmark=A,alphabet=1 {1}]/cold_ips",
                "[benchmark=B,alphabet=2 {1,3}]/batched_ips",
                "[benchmark=B,alphabet=2 {1,3}]/cold_ips",
            ]
        );
        assert_eq!(metrics[0].value, 1000.0);
        // `macs` is not throughput-shaped and must not be gated.
        assert!(!paths.iter().any(|p| p.contains("macs")));
    }

    #[test]
    fn row_reordering_does_not_mispair_metrics() {
        let reordered = r#"[
            {"benchmark": "B", "alphabet": "2 {1,3}", "batched_ips": 2000.0, "cold_ips": 150.0},
            {"benchmark": "A", "alphabet": "1 {1}", "batched_ips": 1000.0, "cold_ips": 100.0}
        ]"#;
        let cmp = compare(&parse(BASELINE), &parse(reordered), 0.25);
        assert!(cmp.passed(), "{cmp:?}");
        assert_eq!(cmp.compared, 4);
    }

    #[test]
    fn within_tolerance_noise_passes() {
        let noisy = r#"[
            {"benchmark": "A", "alphabet": "1 {1}", "batched_ips": 800.0, "cold_ips": 95.0},
            {"benchmark": "B", "alphabet": "2 {1,3}", "batched_ips": 1600.0, "cold_ips": 140.0}
        ]"#;
        let cmp = compare(&parse(BASELINE), &parse(noisy), 0.25);
        assert!(cmp.passed(), "-20% sits inside the ±25% band: {cmp:?}");
    }

    #[test]
    fn regression_beyond_tolerance_fails_and_ranks_worst_first() {
        let slow = r#"[
            {"benchmark": "A", "alphabet": "1 {1}", "batched_ips": 400.0, "cold_ips": 100.0},
            {"benchmark": "B", "alphabet": "2 {1,3}", "batched_ips": 1400.0, "cold_ips": 150.0}
        ]"#;
        let cmp = compare(&parse(BASELINE), &parse(slow), 0.25);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 2);
        // Worst ratio first: A fell to 40%, B to 70%.
        assert!(cmp.regressions[0].path.contains("benchmark=A"));
        assert!((cmp.regressions[0].ratio - 0.4).abs() < 1e-9);
        assert!(cmp.regressions[1].path.contains("benchmark=B"));
    }

    #[test]
    fn missing_metric_fails_new_metric_passes() {
        let dropped_and_added = r#"[
            {"benchmark": "A", "alphabet": "1 {1}", "batched_ips": 1000.0},
            {"benchmark": "B", "alphabet": "2 {1,3}", "batched_ips": 2000.0, "cold_ips": 150.0,
             "throughput_rps": 99.0}
        ]"#;
        let cmp = compare(&parse(BASELINE), &parse(dropped_and_added), 0.25);
        assert_eq!(
            cmp.missing,
            vec!["[benchmark=A,alphabet=1 {1}]/cold_ips".to_owned()]
        );
        assert!(!cmp.passed(), "a dropped metric must fail the gate");
    }

    #[test]
    fn zero_baseline_never_divides_or_fails() {
        let base = parse(r#"{"predict_rps": 0.0}"#);
        let cur = parse(r#"{"predict_rps": 0.0}"#);
        let cmp = compare(&base, &cur, 0.25);
        assert!(cmp.passed());
        assert_eq!(cmp.compared, 1);
    }

    #[test]
    fn nested_documents_are_walked() {
        let base = parse(r#"{"modes": [{"mode": "micro", "load": {"throughput_rps": 500.0}}]}"#);
        let cur = parse(r#"{"modes": [{"mode": "micro", "load": {"throughput_rps": 100.0}}]}"#);
        let cmp = compare(&base, &cur, 0.25);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(
            cmp.regressions[0].path,
            "modes/[mode=micro]/load/throughput_rps"
        );
    }

    #[test]
    fn cluster_rows_are_labelled_by_mode_and_phase() {
        // The BENCH_cluster.json surface: the same wire mode appears
        // once per phase, so `mode` alone would collide — `phase` must
        // join the row identity for the gate to pair rows stably.
        let base = parse(
            r#"{"active": [
                {"mode": "binary", "phase": "steady",   "predict_rps": 900.0},
                {"mode": "binary", "phase": "failover", "predict_rps": 700.0}
            ]}"#,
        );
        let metrics = extract_metrics(&base);
        let paths: Vec<&str> = metrics.iter().map(|m| m.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "active/[mode=binary,phase=steady]/predict_rps",
                "active/[mode=binary,phase=failover]/predict_rps",
            ]
        );
        // Reordering phases must not mispair: steady regressing to
        // failover's throughput is fine, failover collapsing is not.
        let cur = parse(
            r#"{"active": [
                {"mode": "binary", "phase": "failover", "predict_rps": 100.0},
                {"mode": "binary", "phase": "steady",   "predict_rps": 880.0}
            ]}"#,
        );
        let cmp = compare(&base, &cur, 0.25);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].path.contains("phase=failover"));
    }

    #[test]
    fn cluster_node_rows_are_labelled_but_not_gated() {
        // Per-backend rows are identified by `node`; their counters and
        // latencies are informational — only throughput keys gate.
        let doc = parse(
            r#"{"nodes": [
                {"node": "127.0.0.1:7001", "requests": 5000, "p99_us": 900},
                {"node": "127.0.0.1:7002", "requests": 12, "p99_us": 100}
            ]}"#,
        );
        assert!(extract_metrics(&doc).is_empty());
        assert_eq!(
            element_label(&doc.as_object().unwrap()[0].1.as_array().unwrap()[0], 0),
            "node=127.0.0.1:7001"
        );
    }

    #[test]
    fn improvements_are_counted_not_failed() {
        let cur = r#"[
            {"benchmark": "A", "alphabet": "1 {1}", "batched_ips": 5000.0, "cold_ips": 100.0},
            {"benchmark": "B", "alphabet": "2 {1,3}", "batched_ips": 2000.0, "cold_ips": 150.0}
        ]"#;
        let cmp = compare(&parse(BASELINE), &parse(cur), 0.25);
        assert!(cmp.passed());
        assert_eq!(cmp.improved, 1);
    }

    // -- scaling shape -------------------------------------------------

    /// A synthetic BENCH_par-shaped report: one benchmark, a thread
    /// sweep with the given `(workers, ips)` points.
    fn par_report(host_cores: usize, points: &[(usize, f64)]) -> Value {
        let rows: Vec<String> = points
            .iter()
            .map(|(w, ips)| {
                format!(r#"{{"parallelism": "threads({w})", "workers": {w}, "ips": {ips}}}"#)
            })
            .collect();
        parse(&format!(
            r#"{{"host_cores": {host_cores}, "quick": true, "benchmarks": [
                {{"benchmark": "Digit", "bits": 8, "alphabet": "1 {{1}}", "rows": [{}]}}
            ]}}"#,
            rows.join(",")
        ))
    }

    #[test]
    fn scaling_curves_extract_resolved_workers_and_dedupe_by_best() {
        // `sequential` and a 1-core-resolved `auto` both land on w=1.
        let doc = parse(
            r#"{"host_cores": 8, "benchmarks": [{"benchmark": "D", "bits": 8, "rows": [
                {"parallelism": "sequential", "workers": 1, "ips": 100.0},
                {"parallelism": "threads(4)", "workers": 4, "ips": 350.0},
                {"parallelism": "auto", "workers": 1, "ips": 110.0}
            ]}]}"#,
        );
        assert_eq!(host_cores(&doc), Some(8));
        let curves = extract_scaling_curves(&doc);
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].key, "benchmark=D,bits=8");
        assert_eq!(curves[0].points, vec![(1, 110.0), (4, 350.0)]);
        assert!((curves[0].speedup(4).unwrap() - 350.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn matching_shape_across_core_classes_passes() {
        // 8-core baseline, 4-core current: absolute ips differ wildly
        // (different silicon), but the speedup curve matches where the
        // worker counts overlap (cap = 4).
        let base = par_report(8, &[(1, 100.0), (2, 190.0), (4, 370.0), (8, 700.0)]);
        let cur = par_report(4, &[(1, 1000.0), (2, 1850.0), (4, 3600.0)]);
        let cmp = compare_scaling_shape(&base, &cur, 0.25);
        assert!(cmp.passed(), "{cmp:?}");
        // w=2 and w=4 compared; w=8 is beyond the current host's cores.
        assert_eq!(cmp.compared, 2);
    }

    #[test]
    fn collapsed_scaling_fails_the_shape_gate() {
        // The pool regressed: threads no longer help at all.
        let base = par_report(8, &[(1, 100.0), (2, 190.0), (4, 370.0)]);
        let cur = par_report(8, &[(1, 100.0), (2, 100.0), (4, 95.0)]);
        let cmp = compare_scaling_shape(&base, &cur, 0.25);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 2);
        // Worst ratio first: w=4 collapsed to 0.95/3.7 of baseline.
        assert!(cmp.regressions[0].path.contains("speedup@4"));
    }

    #[test]
    fn one_core_host_trivially_passes_shape() {
        // A 1-core runner cannot measure scaling; the cap leaves
        // nothing to compare and the gate must not fail on physics.
        let base = par_report(8, &[(1, 100.0), (2, 190.0), (4, 370.0)]);
        let cur = par_report(1, &[(1, 950.0)]);
        let cmp = compare_scaling_shape(&base, &cur, 0.25);
        assert!(cmp.passed(), "{cmp:?}");
        assert_eq!(cmp.compared, 0);
        // ...but the pass is flagged as vacuous, so the gate can warn
        // that the baseline needs re-seeding on a core-classed runner.
        assert!(cmp.vacuous());
        let real = par_report(4, &[(1, 1000.0), (2, 1850.0)]);
        assert!(!compare_scaling_shape(&base, &real, 0.25).vacuous());
    }

    #[test]
    fn vanished_benchmark_or_point_is_missing_in_shape_mode() {
        let base = par_report(8, &[(1, 100.0), (2, 190.0), (4, 370.0)]);
        // Current dropped the w=4 measurement entirely.
        let cur = par_report(8, &[(1, 100.0), (2, 190.0)]);
        let cmp = compare_scaling_shape(&base, &cur, 0.25);
        assert_eq!(
            cmp.missing,
            vec!["[benchmark=Digit,alphabet=1 {1},bits=8]/speedup@4".to_owned()]
        );
        assert!(!cmp.passed());
        // And a report without host_cores cannot be shape-compared.
        let anon = parse(r#"{"benchmarks": []}"#);
        assert!(!compare_scaling_shape(&anon, &cur, 0.25).passed());
    }

    #[test]
    fn compare_report_picks_shape_only_across_core_classes() {
        let base = par_report(8, &[(1, 100.0), (2, 190.0)]);
        let same_cores = par_report(8, &[(1, 100.0), (2, 190.0)]);
        let cross_cores = par_report(2, &[(1, 400.0), (2, 760.0)]);
        let (_, mode) = compare_report(&base, &same_cores, 0.25, true);
        assert_eq!(mode, CompareMode::Absolute);
        let (cmp, mode) = compare_report(&base, &cross_cores, 0.25, true);
        assert_eq!(mode, CompareMode::ScalingShape);
        assert!(cmp.passed(), "{cmp:?}");
        // The flag off keeps the absolute comparison everywhere.
        let (_, mode) = compare_report(&base, &cross_cores, 0.25, false);
        assert_eq!(mode, CompareMode::Absolute);
    }

    #[test]
    fn overhead_contract_within_budget_holds() {
        let doc = parse(
            r#"{"overhead_contract":
                {"off_ips": 1000.0, "spans_ips": 985.0, "max_overhead": 0.02}}"#,
        );
        let contracts = check_overhead_contracts(&doc);
        assert_eq!(contracts.len(), 1);
        let c = &contracts[0];
        assert_eq!(c.path, "overhead_contract");
        assert!((c.overhead - 0.015).abs() < 1e-9, "{c:?}");
        assert!(c.holds());
        // Spans measuring *faster* than off (one-sided noise) is a
        // negative overhead and trivially holds.
        let noisy = parse(
            r#"{"overhead_contract":
                {"off_ips": 1000.0, "spans_ips": 1004.0, "max_overhead": 0.02}}"#,
        );
        assert!(check_overhead_contracts(&noisy)[0].holds());
    }

    #[test]
    fn overhead_contract_beyond_budget_is_violated() {
        let doc = parse(
            r#"{"overhead_contract":
                {"off_ips": 1000.0, "spans_ips": 900.0, "max_overhead": 0.02}}"#,
        );
        let contracts = check_overhead_contracts(&doc);
        assert_eq!(contracts.len(), 1);
        assert!(!contracts[0].holds());
        assert!((contracts[0].overhead - 0.10).abs() < 1e-9);
    }

    #[test]
    fn overhead_contracts_are_found_structurally() {
        // Contracts nest anywhere — inside arrays with labelled rows —
        // and objects missing one of the three keys are not contracts.
        let doc = parse(
            r#"{"suites": [
                {"benchmark": "A",
                 "contract": {"off_ips": 10.0, "spans_ips": 9.0, "max_overhead": 0.2}},
                {"benchmark": "B", "off_ips": 10.0, "spans_ips": 1.0}
            ]}"#,
        );
        let contracts = check_overhead_contracts(&doc);
        assert_eq!(contracts.len(), 1);
        assert_eq!(contracts[0].path, "suites[benchmark=A]/contract");
        assert!(contracts[0].holds());
        // A zero off-side anchors no fraction: zero overhead, holds.
        let zero = parse(r#"{"c": {"off_ips": 0.0, "spans_ips": 0.0, "max_overhead": 0.02}}"#);
        let contracts = check_overhead_contracts(&zero);
        assert_eq!(contracts[0].overhead, 0.0);
        assert!(contracts[0].holds());
    }
}
