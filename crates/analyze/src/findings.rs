//! Findings, the JSON report, and the baseline gate.
//!
//! A checked-in `ANALYZE_BASELINE.json` pins the accepted findings (the
//! target state is an empty list). A run fails when it surfaces a
//! finding not in the baseline (**new** — fix it or justify it with an
//! annotation) and also when a baselined finding no longer reproduces
//! (**stale** — the code got fixed, so refresh the baseline with
//! `analyze --write-baseline` to ratchet the gate down). Staleness is
//! an error on purpose: a baseline that silently over-approximates
//! would let the same finding creep back unnoticed.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One finding. The tuple (lint, file, line, message) is the identity
/// used for baseline diffing, so messages must be deterministic.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Lint class: `unsafe`, `determinism`, `lock-order`, `atomics`.
    pub lint: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u64,
    /// Human-readable description, stable across runs.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(lint: &str, file: &str, line: usize, message: String) -> Self {
        Self {
            lint: lint.to_string(),
            file: file.to_string(),
            line: line as u64,
            message,
        }
    }

    fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.lint, self.file, self.line, self.message)
    }
}

/// The serialized report / baseline shape.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("findings contain no floats")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad baseline: {e}"))
    }
}

/// Outcome of diffing current findings against the baseline.
pub struct Diff {
    /// Findings present now but absent from the baseline: gate FAILS.
    pub new: Vec<Finding>,
    /// Baseline entries that no longer reproduce: gate FAILS with a
    /// refresh instruction.
    pub stale: Vec<Finding>,
    /// Findings present in both (accepted debt).
    pub accepted: usize,
}

impl Diff {
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Diffs `current` findings against `baseline` by identity key.
pub fn diff(current: &[Finding], baseline: &[Finding]) -> Diff {
    let base_keys: BTreeSet<String> = baseline.iter().map(|f| f.key()).collect();
    let cur_keys: BTreeSet<String> = current.iter().map(|f| f.key()).collect();
    Diff {
        new: current
            .iter()
            .filter(|f| !base_keys.contains(&f.key()))
            .cloned()
            .collect(),
        stale: baseline
            .iter()
            .filter(|f| !cur_keys.contains(&f.key()))
            .cloned()
            .collect(),
        accepted: current.len()
            - current
                .iter()
                .filter(|f| !base_keys.contains(&f.key()))
                .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(lint: &str, file: &str, line: usize) -> Finding {
        Finding::new(lint, file, line, format!("msg {lint} {line}"))
    }

    #[test]
    fn diff_partitions_new_accepted_stale() {
        let baseline = vec![f("atomics", "a.rs", 10), f("unsafe", "b.rs", 5)];
        let current = vec![f("atomics", "a.rs", 10), f("determinism", "c.rs", 7)];
        let d = diff(&current, &baseline);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].lint, "determinism");
        assert_eq!(d.stale.len(), 1);
        assert_eq!(d.stale[0].lint, "unsafe");
        assert_eq!(d.accepted, 1);
        assert!(!d.is_clean());
        assert!(diff(&baseline, &baseline).is_clean());
    }

    #[test]
    fn report_json_round_trips() {
        let report = Report {
            findings: vec![f("lock-order", "crates/serve/src/registry.rs", 42)],
        };
        let json = report.to_json();
        let back = Report::from_json(&json).expect("round trip");
        assert_eq!(back.findings, report.findings);
    }

    #[test]
    fn empty_baseline_parses() {
        let report = Report::from_json("{\"findings\": []}").expect("empty baseline");
        assert!(report.findings.is_empty());
    }
}
