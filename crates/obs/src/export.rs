//! Prometheus text-exposition rendering (format version 0.0.4).
//!
//! A tiny append-only builder: the serving tier composes one page per
//! scrape from `ModelStats` snapshots, pool utilization counters, and
//! the per-stage octave histograms. Octave buckets map directly onto
//! Prometheus cumulative `le` buckets (upper bound `2^(i+1)`
//! microseconds, rendered in seconds); only buckets where the
//! cumulative count changes are emitted, plus the mandatory `+Inf`.

use crate::hist::{HistogramSnapshot, OCTAVE_BUCKETS};

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// An append-only Prometheus text page.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits `# HELP` / `# TYPE` headers for a metric family.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emits one integer sample.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Emits one floating-point sample.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Emits a full histogram family from an octave snapshot of
    /// microsecond samples: cumulative `_bucket` series with `le` in
    /// seconds, then `_sum` (seconds) and `_count`.
    pub fn histogram_us(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let mut cumulative = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let le = ((1u128 << (i + 1)) as f64) / 1e6;
            let mut labels: Vec<(&str, &str)> = labels.to_vec();
            let le = format!("{le}");
            labels.push(("le", le.as_str()));
            self.sample_u64(&format!("{name}_bucket"), &labels, cumulative);
        }
        debug_assert!(snap.buckets.len() == OCTAVE_BUCKETS);
        let mut inf_labels: Vec<(&str, &str)> = labels.to_vec();
        inf_labels.push(("le", "+Inf"));
        self.sample_u64(&format!("{name}_bucket"), &inf_labels, snap.count);
        self.sample_f64(&format!("{name}_sum"), labels, snap.sum as f64 / 1e6);
        self.sample_u64(&format!("{name}_count"), labels, snap.count);
    }

    /// The rendered page.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::OctaveHistogram;

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn renders_counter_with_labels() {
        let mut page = PromText::new();
        page.header("man_requests_total", "counter", "Requests by outcome.");
        page.sample_u64(
            "man_requests_total",
            &[("model", "digits"), ("outcome", "completed")],
            17,
        );
        let text = page.finish();
        assert!(text.contains("# TYPE man_requests_total counter"));
        assert!(text.contains("man_requests_total{model=\"digits\",outcome=\"completed\"} 17"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let h = OctaveHistogram::new();
        h.record(3); // bucket 1 ([2,4)) -> le 4e-6
        h.record(3);
        h.record(100); // bucket 6 ([64,128)) -> le 128e-6
        let mut page = PromText::new();
        page.histogram_us("man_stage_seconds", &[("stage", "kernel")], &h.snapshot());
        let text = page.finish();
        assert!(
            text.contains("man_stage_seconds_bucket{stage=\"kernel\",le=\"0.000004\"} 2"),
            "first octave cumulative: {text}"
        );
        assert!(
            text.contains("man_stage_seconds_bucket{stage=\"kernel\",le=\"0.000128\"} 3"),
            "second octave cumulative: {text}"
        );
        assert!(text.contains("man_stage_seconds_bucket{stage=\"kernel\",le=\"+Inf\"} 3"));
        assert!(text.contains("man_stage_seconds_count{stage=\"kernel\"} 3"));
        assert!(text.contains("man_stage_seconds_sum{stage=\"kernel\"} 0.000106"));
    }

    #[test]
    fn empty_histogram_renders_only_inf() {
        let mut page = PromText::new();
        page.histogram_us("m", &[], &OctaveHistogram::new().snapshot());
        let text = page.finish();
        assert!(text.contains("m_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("m_count 0"));
    }
}
