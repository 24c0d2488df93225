//! Iso-speed synthesis: pick the cheapest implementation of each datapath
//! block that meets the clock, pipelining feed-forward blocks when no
//! single-cycle architecture fits.
//!
//! This plays the role of Design Compiler in the paper's flow: the same RTL
//! intent (an adder, a multiplier, an ASM stage) maps to different gate
//! structures depending on the timing constraint, which is what makes
//! "iso-speed" comparisons meaningful — at 3 GHz a conventional multiplier
//! needs a fast (area- and power-hungry) architecture or extra pipeline
//! registers, while the MAN datapath closes timing in its compact form.

use std::fmt;

use crate::cell::CellLibrary;
use crate::circuit::Circuit;
use crate::components::activation::{activation_unit, PlanParams};
use crate::components::adder::{adder, AdderKind};
use crate::components::asm::asm_mult_stage;
use crate::components::mac::{
    acc_stage, acc_stage_carry_save, conventional_mult_stage, resolve_adder,
};
use crate::components::multiplier::MultiplierKind;
use crate::components::precompute::precompute_bank;

/// How the synthesized accumulator holds its running sum.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccStyle {
    /// Plain binary accumulator (carry-propagate adder in the loop).
    CarryPropagate,
    /// Redundant `(sum, carry)` pair (3:2 compressor in the loop); needs a
    /// resolve adder before the activation.
    CarrySave,
}

/// Maximum pipeline depth the synthesizer will insert into a feed-forward
/// block.
pub(crate) const MAX_PIPELINE_STAGES: u32 = 4;

/// Error returned when no architecture meets the clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingClosureError {
    /// The block that failed.
    pub block: String,
    /// The requested clock period (ps).
    pub clock_ps: f64,
    /// The best per-cycle delay any candidate achieved (ps).
    pub best_ps: f64,
}

impl fmt::Display for TimingClosureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timing closure failed for {}: best {:.0} ps exceeds clock {:.0} ps",
            self.block, self.best_ps, self.clock_ps
        )
    }
}

impl std::error::Error for TimingClosureError {}

/// Registers a feed-forward circuit into the fewest pipeline stages meeting
/// `clock_ps`, or returns the required per-cycle delay if even
/// [`MAX_PIPELINE_STAGES`] does not suffice.
fn close_timing(
    circuit: Circuit,
    lib: &CellLibrary,
    clock_ps: f64,
    allow_pipelining: bool,
) -> Result<Circuit, f64> {
    if circuit.meets_clock(lib, clock_ps) {
        return Ok(circuit);
    }
    if !allow_pipelining {
        return Err(circuit.cycle_delay_ps(lib));
    }
    let comb = circuit.comb_delay_ps(lib);
    let overhead = lib.dff_clk_q_ps + lib.dff_setup_ps;
    let budget = clock_ps - overhead;
    if budget <= 0.0 {
        return Err(comb + overhead);
    }
    let stages = (comb / budget).ceil() as u32;
    if stages > MAX_PIPELINE_STAGES {
        return Err(comb / MAX_PIPELINE_STAGES as f64 + overhead);
    }
    let cut_width = circuit
        .netlist()
        .outputs()
        .iter()
        .map(|(_, nets)| nets.len() as u32)
        .sum::<u32>()
        .max(1);
    let piped = circuit.pipelined(stages, cut_width);
    if piped.meets_clock(lib, clock_ps) {
        Ok(piped)
    } else {
        Err(piped.cycle_delay_ps(lib))
    }
}

fn pick_cheapest(
    block: &str,
    candidates: Vec<Circuit>,
    lib: &CellLibrary,
    clock_ps: f64,
    allow_pipelining: bool,
) -> Result<Circuit, TimingClosureError> {
    let mut best: Option<Circuit> = None;
    let mut best_ps = f64::INFINITY;
    for candidate in candidates {
        match close_timing(candidate, lib, clock_ps, allow_pipelining) {
            Ok(closed) => {
                let better = match &best {
                    None => true,
                    Some(b) => closed.area_um2(lib) < b.area_um2(lib),
                };
                if better {
                    best = Some(closed);
                }
            }
            Err(ps) => best_ps = best_ps.min(ps),
        }
    }
    best.ok_or_else(|| TimingClosureError {
        block: block.to_owned(),
        clock_ps,
        best_ps,
    })
}

/// Synthesizes a standalone `width`-bit adder.
///
/// # Errors
///
/// Returns [`TimingClosureError`] if no architecture meets the clock.
pub fn synthesize_adder(
    width: usize,
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<Circuit, TimingClosureError> {
    pick_cheapest(
        &format!("adder{width}"),
        AdderKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| adder(width, k))
            .collect(),
        lib,
        clock_ps,
        false,
    )
}

/// Synthesizes the conventional multiplication stage (pipelining allowed).
///
/// # Errors
///
/// Returns [`TimingClosureError`] if no architecture meets the clock.
pub(crate) fn synthesize_conventional_mult(
    bits: u32,
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<Circuit, TimingClosureError> {
    pick_cheapest(
        &format!("conventional_mult{bits}"),
        MultiplierKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| conventional_mult_stage(bits, k))
            .collect(),
        lib,
        clock_ps,
        true,
    )
}

/// Synthesizes the ASM multiplication stage (pipelining allowed).
///
/// # Errors
///
/// Returns [`TimingClosureError`] if no combine-adder choice meets the
/// clock.
pub(crate) fn synthesize_asm_mult(
    bits: u32,
    alphabets: &[u8],
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<Circuit, TimingClosureError> {
    pick_cheapest(
        &format!("asm_mult{bits}_{}a", alphabets.len()),
        AdderKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| asm_mult_stage(bits, alphabets, k))
            .collect(),
        lib,
        clock_ps,
        true,
    )
}

/// Synthesizes the accumulate stage. The accumulator loop cannot be
/// pipelined; if no carry-propagate adder closes the loop in one cycle the
/// synthesizer falls back to a carry-save accumulator (one 3:2 compressor
/// deep, doubled registers) — the standard structure for multi-GHz MACs.
///
/// # Errors
///
/// Returns [`TimingClosureError`] if even the carry-save loop misses timing.
pub(crate) fn synthesize_acc(
    bits: u32,
    acc_bits: u32,
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<(Circuit, AccStyle), TimingClosureError> {
    if let Ok(c) = pick_cheapest(
        &format!("acc{acc_bits}"),
        AdderKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| acc_stage(bits, acc_bits, k))
            .collect(),
        lib,
        clock_ps,
        false,
    ) {
        return Ok((c, AccStyle::CarryPropagate));
    }
    pick_cheapest(
        &format!("acc{acc_bits}_carry_save"),
        vec![acc_stage_carry_save(bits, acc_bits)],
        lib,
        clock_ps,
        false,
    )
    .map(|c| (c, AccStyle::CarrySave))
}

/// Synthesizes the carry-save resolve adder (feed-forward, pipelining
/// allowed).
///
/// # Errors
///
/// Returns [`TimingClosureError`] if no architecture meets the clock.
pub(crate) fn synthesize_resolver(
    acc_bits: u32,
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<Circuit, TimingClosureError> {
    pick_cheapest(
        &format!("resolve{acc_bits}"),
        AdderKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| resolve_adder(acc_bits, k))
            .collect(),
        lib,
        clock_ps,
        true,
    )
}

/// Synthesizes the pre-computer bank (pipelining allowed; for `{1}` the
/// bank is empty wiring).
///
/// # Errors
///
/// Returns [`TimingClosureError`] if no adder choice meets the clock.
pub(crate) fn synthesize_precompute(
    bits: u32,
    alphabets: &[u8],
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<Circuit, TimingClosureError> {
    pick_cheapest(
        &format!("precompute{bits}_{}a", alphabets.len()),
        AdderKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| precompute_bank(bits, alphabets, k))
            .collect(),
        lib,
        clock_ps,
        true,
    )
}

/// Synthesizes the activation unit (range compressor + PLAN sigmoid;
/// pipelining allowed, carry-chain architecture explored).
///
/// # Errors
///
/// Returns [`TimingClosureError`] if the unit cannot be pipelined into the
/// clock.
pub(crate) fn synthesize_activation(
    acc_bits: u32,
    acc_frac: u32,
    params: &PlanParams,
    lib: &CellLibrary,
    clock_ps: f64,
) -> Result<Circuit, TimingClosureError> {
    pick_cheapest(
        "activation_unit",
        AdderKind::CHEAPEST_FIRST
            .iter()
            .map(|&k| activation_unit(acc_bits, acc_frac, params, k))
            .collect(),
        lib,
        clock_ps,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_clock_selects_ripple() {
        let lib = CellLibrary::nominal_45nm();
        let c = synthesize_adder(16, &lib, 5000.0).unwrap();
        assert!(c.name().contains("Ripple"), "got {}", c.name());
    }

    #[test]
    fn fast_clock_selects_parallel_prefix() {
        let lib = CellLibrary::nominal_45nm();
        let c = synthesize_adder(24, &lib, 400.0).unwrap();
        assert!(
            c.name().contains("KoggeStone") || c.name().contains("CarrySelect"),
            "got {}",
            c.name()
        );
    }

    #[test]
    fn impossible_clock_reports_error() {
        let lib = CellLibrary::nominal_45nm();
        let err = synthesize_adder(32, &lib, 30.0).unwrap_err();
        assert!(err.best_ps > err.clock_ps);
        assert!(err.to_string().contains("timing closure failed"));
    }

    #[test]
    fn conventional_mult_pipelines_at_3ghz() {
        let lib = CellLibrary::nominal_45nm();
        let c = synthesize_conventional_mult(8, &lib, 333.0).unwrap();
        assert!(c.meets_clock(&lib, 333.0));
        assert!(
            c.pipeline_stages() >= 2 || c.comb_delay_ps(&lib) <= 333.0,
            "multiplier must either fit or be pipelined"
        );
    }

    #[test]
    fn man_mult_is_cheaper_than_conventional_at_iso_speed() {
        let lib = CellLibrary::nominal_45nm();
        let conv = synthesize_conventional_mult(8, &lib, 333.0).unwrap();
        let man = synthesize_asm_mult(8, &[1], &lib, 333.0).unwrap();
        assert!(
            man.area_um2(&lib) < conv.area_um2(&lib),
            "MAN {:.1} vs conventional {:.1}",
            man.area_um2(&lib),
            conv.area_um2(&lib)
        );
    }

    #[test]
    fn accumulator_closes_at_paper_clocks() {
        let lib = CellLibrary::nominal_45nm();
        for (bits, clock) in [(8u32, 333.0), (12, 400.0)] {
            let acc_bits = crate::components::mac::accumulator_bits(bits, 1024);
            let (c, style) = synthesize_acc(bits, acc_bits, &lib, clock).unwrap();
            assert!(c.meets_clock(&lib, clock), "bits={bits}");
            // Wide accumulators at multi-GHz clocks need the carry-save form.
            assert_eq!(style, AccStyle::CarrySave, "bits={bits}");
        }
        // At a relaxed clock the plain accumulator suffices.
        let acc_bits = crate::components::mac::accumulator_bits(8, 1024);
        let (_, style) = synthesize_acc(8, acc_bits, &lib, 3000.0).unwrap();
        assert_eq!(style, AccStyle::CarryPropagate);
    }

    #[test]
    fn carry_save_resolver_synthesizes() {
        let lib = CellLibrary::nominal_45nm();
        let acc_bits = crate::components::mac::accumulator_bits(12, 1024);
        let r = synthesize_resolver(acc_bits, &lib, 400.0).unwrap();
        assert!(r.meets_clock(&lib, 400.0));
    }
}
