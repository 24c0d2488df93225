//! Assembled neuron datapaths: the complete hardware cost model for one
//! processing-unit lane (multiplier stage + accumulator + activation) plus
//! the shared pre-computer bank of the CSHM arrangement.

use serde::{Deserialize, Serialize};

use crate::cell::CellLibrary;
use crate::circuit::Circuit;
use crate::components::activation::PlanParams;
use crate::components::mac::accumulator_bits;
use crate::synth::{
    synthesize_acc, synthesize_activation, synthesize_asm_mult, synthesize_conventional_mult,
    synthesize_precompute, synthesize_resolver, AccStyle, TimingClosureError,
};

/// Which multiplier the neuron uses.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NeuronKind {
    /// Conventional exact multiplier.
    Conventional,
    /// Alphabet-set multiplier with the given alphabet list.
    /// `Asm(vec![1])` is the Multiplier-less Artificial Neuron (MAN).
    Asm(Vec<u8>),
}

impl NeuronKind {
    /// A short label matching the paper's terminology.
    pub fn label(&self) -> String {
        match self {
            NeuronKind::Conventional => "conventional".to_owned(),
            NeuronKind::Asm(a) if a == &[1] => "MAN {1}".to_owned(),
            NeuronKind::Asm(a) => format!(
                "ASM {{{}}}",
                a.iter().map(u8::to_string).collect::<Vec<_>>().join(",")
            ),
        }
    }
}

/// Parameters of a neuron datapath build.
#[derive(Clone, Debug, PartialEq)]
pub struct NeuronSpec {
    /// Word length of inputs and weights (8 or 12 in the paper).
    pub(crate) bits: u32,
    /// Multiplier choice.
    pub(crate) kind: NeuronKind,
    /// Lanes sharing one pre-computer bank (the paper uses 4).
    pub lanes: u32,
    /// Largest layer fan-in the accumulator must absorb without overflow.
    pub(crate) max_fan_in: u32,
    /// Clock period in ps (333 for 3 GHz @ 8-bit, 400 for 2.5 GHz @ 12-bit).
    pub clock_ps: f64,
    /// Fractional bits of the accumulator word (drives the activation
    /// unit's range compressor).
    pub(crate) acc_frac: u32,
    /// Fixed-point interface of the PLAN core inside the activation unit.
    pub(crate) activation: PlanParams,
}

impl NeuronSpec {
    /// The paper's configuration for a given word length and multiplier
    /// kind: 4 lanes, 1024-input layers, 3 GHz (8-bit) / 2.5 GHz (12-bit),
    /// and an activation reading the top accumulator bits.
    pub fn paper(bits: u32, kind: NeuronKind) -> Self {
        let clock_ps = if bits <= 8 { 333.0 } else { 400.0 };
        // Representative fixed-point interface: activations are Q0.(bits-1)
        // magnitudes, weights keep (bits-2) fractional bits, so the
        // accumulator carries (bits-1) + (bits-2) fractional bits. A
        // saturating range compressor narrows the accumulator word to a
        // (bits+3)-bit window before the PLAN core (sigmoid saturates at
        // |x| ≥ 5, so ±16 of headroom is plenty). The functional engine
        // picks per-layer formats; hardware cost only needs consistent
        // widths.
        let activation = PlanParams {
            in_bits: bits + 3,
            in_frac: bits - 1,
            out_bits: bits - 1,
        };
        Self {
            bits,
            kind,
            lanes: 4,
            max_fan_in: 1024,
            clock_ps,
            acc_frac: (bits - 1) + (bits - 2),
            activation,
        }
    }

    /// Accumulator width implied by `bits` and `max_fan_in`.
    pub fn acc_bits(&self) -> u32 {
        accumulator_bits(self.bits, self.max_fan_in)
    }
}

/// A fully synthesized neuron datapath (per-lane blocks plus the shared
/// pre-computer).
#[derive(Clone, Debug)]
pub struct NeuronDatapath {
    spec: NeuronSpec,
    /// Shared alphabet bank (`None` for conventional neurons and for MAN,
    /// whose bank is empty).
    pub precompute: Option<Circuit>,
    /// Per-lane multiplication stage.
    pub mult_stage: Circuit,
    /// Per-lane accumulate stage (with accumulator register).
    pub acc_stage: Circuit,
    /// How the accumulator holds its running sum.
    pub acc_style: AccStyle,
    /// Carry-save resolve adder (present only with
    /// [`AccStyle::CarrySave`]). Like the activation it runs once per
    /// neuron output — thousands of MAC cycles apart — so one instance is
    /// shared by all lanes of the processing unit.
    pub resolver: Option<Circuit>,
    /// Activation unit, shared across the unit's lanes (neuron outputs
    /// complete once per layer pass, so a single PLAN block keeps up).
    pub activation: Circuit,
}

impl NeuronDatapath {
    /// Synthesizes every block of the datapath under the spec's clock.
    ///
    /// # Errors
    ///
    /// Returns [`TimingClosureError`] if any block cannot meet the clock.
    pub fn build(spec: NeuronSpec, lib: &CellLibrary) -> Result<Self, TimingClosureError> {
        let acc_bits = spec.acc_bits();
        let (precompute, mult_stage) = match &spec.kind {
            NeuronKind::Conventional => (
                None,
                synthesize_conventional_mult(spec.bits, lib, spec.clock_ps)?,
            ),
            NeuronKind::Asm(alphabets) => {
                let bank = synthesize_precompute(spec.bits, alphabets, lib, spec.clock_ps)?;
                let stage = synthesize_asm_mult(spec.bits, alphabets, lib, spec.clock_ps)?;
                // The MAN bank has no gates; drop it so reports show the
                // pre-computer genuinely disappearing.
                let bank = if bank.gate_count() == 0 {
                    None
                } else {
                    Some(bank)
                };
                (bank, stage)
            }
        };
        let (acc, acc_style) = synthesize_acc(spec.bits, acc_bits, lib, spec.clock_ps)?;
        let resolver = match acc_style {
            AccStyle::CarryPropagate => None,
            AccStyle::CarrySave => Some(synthesize_resolver(acc_bits, lib, spec.clock_ps)?),
        };
        let activation = synthesize_activation(
            acc_bits,
            spec.acc_frac,
            &spec.activation,
            lib,
            spec.clock_ps,
        )?;
        Ok(Self {
            spec,
            precompute,
            mult_stage,
            acc_stage: acc,
            acc_style,
            resolver,
            activation,
        })
    }

    /// The spec this datapath was built from.
    pub fn spec(&self) -> &NeuronSpec {
        &self.spec
    }

    /// Area of one processing unit: shared blocks (pre-computer bank,
    /// resolve adder, activation) plus `lanes` × (multiplier stage +
    /// accumulator), in µm².
    pub(crate) fn unit_area_um2(&self, lib: &CellLibrary) -> f64 {
        let shared = self.precompute.as_ref().map_or(0.0, |c| c.area_um2(lib))
            + self.resolver.as_ref().map_or(0.0, |c| c.area_um2(lib))
            + self.activation.area_um2(lib);
        let lane = self.mult_stage.area_um2(lib) + self.acc_stage.area_um2(lib);
        shared + self.spec.lanes as f64 * lane
    }

    /// Effective area of a single neuron: the unit area divided by the
    /// number of lanes (the pre-computer is amortized, as in CSHM).
    pub fn neuron_area_um2(&self, lib: &CellLibrary) -> f64 {
        self.unit_area_um2(lib) / self.spec.lanes as f64
    }

    /// Worst per-cycle delay across the blocks (must be ≤ the clock).
    pub fn cycle_delay_ps(&self, lib: &CellLibrary) -> f64 {
        let mut d: f64 = self.mult_stage.cycle_delay_ps(lib);
        d = d.max(self.acc_stage.cycle_delay_ps(lib));
        d = d.max(self.activation.cycle_delay_ps(lib));
        if let Some(p) = &self.precompute {
            d = d.max(p.cycle_delay_ps(lib));
        }
        if let Some(r) = &self.resolver {
            d = d.max(r.cycle_delay_ps(lib));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_close_timing() {
        let lib = CellLibrary::nominal_45nm();
        for bits in [8u32, 12] {
            for kind in [
                NeuronKind::Conventional,
                NeuronKind::Asm(vec![1, 3, 5, 7]),
                NeuronKind::Asm(vec![1, 3]),
                NeuronKind::Asm(vec![1]),
            ] {
                let spec = NeuronSpec::paper(bits, kind.clone());
                let clock = spec.clock_ps;
                let dp = NeuronDatapath::build(spec, &lib)
                    .unwrap_or_else(|e| panic!("bits={bits} {kind:?}: {e}"));
                assert!(
                    dp.cycle_delay_ps(&lib) <= clock,
                    "bits={bits} {kind:?} misses clock"
                );
            }
        }
    }

    #[test]
    fn area_ordering_matches_paper_fig10() {
        let lib = CellLibrary::nominal_45nm();
        for bits in [8u32, 12] {
            let area = |kind: NeuronKind| {
                NeuronDatapath::build(NeuronSpec::paper(bits, kind), &lib)
                    .unwrap()
                    .neuron_area_um2(&lib)
            };
            let conv = area(NeuronKind::Conventional);
            let asm4 = area(NeuronKind::Asm(vec![1, 3, 5, 7]));
            let asm2 = area(NeuronKind::Asm(vec![1, 3]));
            let man = area(NeuronKind::Asm(vec![1]));
            assert!(man < asm2, "bits={bits}: MAN {man:.0} !< ASM2 {asm2:.0}");
            assert!(asm2 < asm4, "bits={bits}: ASM2 {asm2:.0} !< ASM4 {asm4:.0}");
            // The paper itself notes the 4-alphabet ASM "may not achieve
            // significant improvement"; allow it to sit at parity with the
            // conventional neuron.
            assert!(
                asm4 < conv * 1.03,
                "bits={bits}: ASM4 {asm4:.0} !~< conv {conv:.0}"
            );
        }
    }

    #[test]
    fn man_has_no_precompute_bank() {
        let lib = CellLibrary::nominal_45nm();
        let dp =
            NeuronDatapath::build(NeuronSpec::paper(8, NeuronKind::Asm(vec![1])), &lib).unwrap();
        assert!(dp.precompute.is_none());
        let dp2 =
            NeuronDatapath::build(NeuronSpec::paper(8, NeuronKind::Asm(vec![1, 3])), &lib).unwrap();
        assert!(dp2.precompute.is_some());
    }

    #[test]
    fn kind_labels_match_paper_terms() {
        assert_eq!(NeuronKind::Conventional.label(), "conventional");
        assert_eq!(NeuronKind::Asm(vec![1]).label(), "MAN {1}");
        assert_eq!(NeuronKind::Asm(vec![1, 3]).label(), "ASM {1,3}");
    }
}
