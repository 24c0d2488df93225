//! The benchmark's own tracing: wall-clock spans around calls into each
//! layer's public functions, plus the server-side stage means that
//! `man_obs` accumulates while spans are on.
//!
//! A [`Probe`] that is off runs the wrapped call and records nothing, so
//! the untraced end-to-end run pays one branch per wrapped call.

use std::collections::BTreeMap;
use std::time::Instant;

use man_serve::obs::{stage_snapshot, HistogramSnapshot, Stage};

/// The server-side stages the traced run splits a served request into.
pub const STAGES: [Stage; 6] = [
    Stage::Decode,
    Stage::QueueWait,
    Stage::Coalesce,
    Stage::Dispatch,
    Stage::Kernel,
    Stage::Encode,
];

/// Per-layer samples of one traced pass.
#[derive(Default)]
pub struct Probe {
    on: bool,
    /// Seconds per wrapped call, by span name.
    spans: BTreeMap<&'static str, Vec<f64>>,
    /// `(sum_us, count)` of each of [`STAGES`] over the traced windows.
    stages: [(u64, u64); STAGES.len()],
}

impl Probe {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// A probe that records every wrapped call.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, recording its wall time under `name` when on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64());
        out
    }

    /// Records one externally timed sample (seconds) when on.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        if self.on {
            self.spans.entry(name).or_default().push(secs);
        }
    }

    /// Median of a span's samples, in seconds (NaN when never recorded).
    pub fn median(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(f64::NAN, |s| median(s))
    }

    /// Sum of a span's samples, in seconds (NaN when never recorded).
    pub fn sum(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(f64::NAN, |s| s.iter().sum())
    }

    /// A span's samples, in seconds.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// Runs `f` and adds the stage histograms' growth over it to the
    /// traced totals.
    pub fn stage_window<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let before = stage_snapshot();
        let out = f(self);
        let after = stage_snapshot();
        for (slot, stage) in self.stages.iter_mut().zip(STAGES) {
            let of = |snap: &[(Stage, HistogramSnapshot)]| {
                snap.iter()
                    .find(|(s, _)| *s == stage)
                    .map_or((0, 0), |(_, h)| (h.sum, h.count))
            };
            let (s0, c0) = of(&before);
            let (s1, c1) = of(&after);
            slot.0 += s1.saturating_sub(s0);
            slot.1 += c1.saturating_sub(c0);
        }
        out
    }

    /// Mean microseconds of each of [`STAGES`] over the traced windows,
    /// labelled as `man_obs` labels them (0 when a stage recorded nothing).
    pub fn stage_means(&self) -> Vec<(&'static str, f64)> {
        STAGES
            .iter()
            .zip(self.stages)
            .map(|(stage, (sum, count))| {
                let mean = if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                };
                (stage.label(), mean)
            })
            .collect()
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
