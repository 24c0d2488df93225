//! The processing-engine cost model: cycles, switching-activity energy and
//! area for a network executing on the paper's 4-lane CSHM unit.
//!
//! For every layer, the gate-level datapath of its neuron kind is
//! synthesized at the iso-speed clock (via `man-hw`), then driven with the
//! layer's *real* operand trace (captured by
//! [`crate::fixed::FixedNet::sample_traces`]) to measure per-MAC and
//! per-neuron-output energy. Per-inference energy is
//! `Σ_layers macs·E_mac + neurons·E_neuron`; cycles assume 4 MACs per cycle
//! per unit, as in the paper's engine.

// DETERMINISM: keyed lookup cache only (see `CostModel::cache`);
// nothing ever iterates it, so hash-order randomization is inert.
use std::collections::{hash_map::Entry, HashMap};

use man_hw::cell::CellLibrary;
use man_hw::circuit::Circuit;
use man_hw::components::mac::carry_save_step;
use man_hw::components::precompute::alpha_bus;
use man_hw::neuron::{NeuronDatapath, NeuronKind, NeuronSpec};
use man_hw::power::{measure_stream_energy, EnergyBreakdown, PowerModel};
use man_hw::synth::{AccStyle, TimingClosureError};
use serde::{Deserialize, Serialize};

use crate::fixed::{FixedNet, LayerAlphabets, LayerTrace};

/// Per-layer energy figures.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerEnergy {
    /// Energy of one multiply-accumulate, pre-computer amortized (fJ).
    pub per_mac_fj: f64,
    /// Energy of one neuron output: carry-save resolve + activation (fJ).
    pub per_neuron_fj: f64,
}

/// Cost of one inference of a network on the engine.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Configuration label (alphabet assignment).
    pub label: String,
    /// Unit cycles per inference (4 MAC lanes).
    pub cycles: u64,
    /// Energy per inference in pJ.
    pub energy_pj: f64,
    /// Average unit power while streaming, in mW.
    pub power_mw: f64,
    /// Neuron-count-weighted effective neuron area in µm².
    pub neuron_area_um2: f64,
    /// Per-layer energies, for drill-down.
    pub layers: Vec<LayerEnergy>,
}

/// The cost model: a cell library, power-model knobs and a cache of
/// synthesized datapaths.
///
/// # Example
///
/// ```no_run
/// use man::engine::{kinds_from_alphabets, CostModel};
/// use man::fixed::{FixedNet, LayerAlphabets};
/// # fn get_fixed_net() -> (FixedNet, LayerAlphabets) { unimplemented!() }
///
/// let (fixed, alphabets) = get_fixed_net(); // a compiled, constrained net
/// let traces = fixed.sample_traces(&[vec![0.5; 1024]], 600);
/// let mut model = CostModel::default();
/// let report = model
///     .network_cost(&fixed, &kinds_from_alphabets(&alphabets), &traces, "MAN")?;
/// println!("{:.1} pJ / inference over {} cycles", report.energy_pj, report.cycles);
/// # Ok::<(), man_hw::synth::TimingClosureError>(())
/// ```
pub struct CostModel {
    lib: CellLibrary,
    power: PowerModel,
    /// Max MAC vectors streamed per layer when measuring energy.
    pub stream_limit: usize,
    // DETERMINISM: populated and read strictly by key; never iterated,
    // so results cannot depend on hash order.
    cache: HashMap<(u32, NeuronKind), NeuronDatapath>,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new(CellLibrary::nominal_45nm())
    }
}

impl CostModel {
    /// A cost model over the given library.
    pub(crate) fn new(lib: CellLibrary) -> Self {
        Self {
            lib,
            power: PowerModel::default(),
            stream_limit: 1500,
            // DETERMINISM: keyed-only cache, never iterated.
            cache: HashMap::new(),
        }
    }

    /// Synthesizes (or returns the cached) datapath for a word length and
    /// neuron kind at the paper's iso-speed clock.
    ///
    /// # Errors
    ///
    /// Propagates [`TimingClosureError`] from synthesis.
    pub fn datapath(
        &mut self,
        bits: u32,
        kind: &NeuronKind,
    ) -> Result<&NeuronDatapath, TimingClosureError> {
        cached_datapath(&mut self.cache, &self.lib, bits, kind)
    }

    /// Measures the per-MAC and per-neuron energy of one layer from its
    /// operand trace.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds fewer than 2 MACs.
    pub fn layer_energy(
        &mut self,
        bits: u32,
        kind: &NeuronKind,
        trace: &LayerTrace,
    ) -> Result<LayerEnergy, TimingClosureError> {
        assert!(trace.len() >= 2, "trace too short to measure energy");
        let dp = cached_datapath(&mut self.cache, &self.lib, bits, kind)?;
        let measure = |circuit: &Circuit, columns: &[(&str, &[u64])]| {
            measure_stream_energy(circuit, &self.lib, &self.power, columns, dp.spec().clock_ps)
        };
        let acc_bits = dp.spec().acc_bits();
        let mask = (1u64 << acc_bits) - 1;
        let column = |values: &[bool]| -> Vec<u64> { values.iter().map(|&v| v as u64).collect() };

        // --- multiplication stage ---
        let w_mag: Vec<u64> = trace.w_mag.iter().map(|&w| u64::from(w)).collect();
        let x_mag: Vec<u64> = trace.x_mag.iter().map(|&x| u64::from(x)).collect();
        let (w_sign, x_sign) = (column(&trace.w_neg), column(&trace.x_neg));
        // The conventional stage reads `x_mag`; the ASM stage reads every
        // alphabet's product from the pre-computer bank.
        let operands: Vec<(&str, Vec<u64>)> = match kind {
            NeuronKind::Conventional => vec![("x_mag", x_mag.clone())],
            NeuronKind::Asm(alphabets) => alphabets
                .iter()
                .map(|&a| {
                    (
                        alpha_bus(a),
                        x_mag.iter().map(|&x| u64::from(a) * x).collect(),
                    )
                })
                .collect(),
        };
        let mut mult_columns = vec![
            ("w_mag", &w_mag[..]),
            ("w_sign", &w_sign),
            ("x_sign", &x_sign),
        ];
        mult_columns.extend(operands.iter().map(|(bus, values)| (*bus, &values[..])));
        let e_mult = measure(&dp.mult_stage, &mult_columns);

        // --- accumulate stage ---
        let p_mag: Vec<u64> = trace.product.iter().map(|p| p.unsigned_abs()).collect();
        let p_sign: Vec<u64> = trace.product.iter().map(|&p| (p < 0) as u64).collect();
        let mut resolver_s = Vec::new();
        let mut resolver_c = Vec::new();
        let e_acc = match dp.acc_style {
            AccStyle::CarryPropagate => {
                let acc: Vec<u64> = trace.acc.iter().map(|&a| (a as u64) & mask).collect();
                measure(
                    &dp.acc_stage,
                    &[("p_mag", &p_mag), ("p_sign", &p_sign), ("acc", &acc)],
                )
            }
            AccStyle::CarrySave => {
                let n = trace.len();
                let (mut acc_s, mut acc_c) = (Vec::with_capacity(n), Vec::with_capacity(n));
                let (mut s, mut c) = (0u64, 0u64);
                for i in 0..n {
                    acc_s.push(s);
                    acc_c.push(c);
                    (s, c) = carry_save_step(p_mag[i], p_sign[i] == 1, s, c, acc_bits);
                    if i % 16 == 15 {
                        resolver_s.push(s);
                        resolver_c.push(c);
                    }
                }
                measure(
                    &dp.acc_stage,
                    &[
                        ("p_mag", &p_mag),
                        ("p_sign", &p_sign),
                        ("acc_s", &acc_s),
                        ("acc_c", &acc_c),
                    ],
                )
            }
        };

        // --- shared pre-computer bank, amortized over the lanes ---
        let e_pre = match &dp.precompute {
            Some(bank) => measure(bank, &[("x_mag", &x_mag)]).scaled(1.0 / dp.spec().lanes as f64),
            None => EnergyBreakdown::default(),
        };
        let per_mac_fj = e_mult.total_fj() + e_acc.total_fj() + e_pre.total_fj();

        // --- per-neuron: resolve + activation, shared across lanes ---
        let mut per_neuron_fj = 0.0;
        if let Some(resolver) = &dp.resolver {
            if resolver_s.len() >= 2 {
                per_neuron_fj +=
                    measure(resolver, &[("s", &resolver_s), ("c", &resolver_c)]).total_fj();
            }
        }
        let act_acc: Vec<u64> = trace
            .acc
            .iter()
            .step_by(8)
            .map(|&a| (a as u64) & mask)
            .collect();
        if act_acc.len() >= 2 {
            per_neuron_fj += measure(&dp.activation, &[("acc", &act_acc)]).total_fj();
        }
        Ok(LayerEnergy {
            per_mac_fj,
            per_neuron_fj,
        })
    }

    /// Evaluates the full per-inference cost of a compiled network under a
    /// per-layer neuron-kind assignment.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures.
    ///
    /// # Panics
    ///
    /// Panics if `kinds`/`traces` do not match the network's layer count.
    pub fn network_cost(
        &mut self,
        fixed: &FixedNet,
        kinds: &[NeuronKind],
        traces: &[LayerTrace],
        label: impl Into<String>,
    ) -> Result<CostReport, TimingClosureError> {
        assert_eq!(kinds.len(), fixed.layer_count(), "kind per layer required");
        assert_eq!(
            traces.len(),
            fixed.layer_count(),
            "trace per layer required"
        );
        let bits = fixed.bits();
        let macs = fixed.macs_per_layer();
        let neurons = fixed.neurons_per_layer();
        let mut energy_fj = 0.0;
        let mut cycles = 0u64;
        let mut layers = Vec::with_capacity(kinds.len());
        let mut area_weighted = 0.0;
        let mut neuron_total = 0u64;
        let mut clock_ps = 0.0;
        for i in 0..kinds.len() {
            let le = self.layer_energy(bits, &kinds[i], &traces[i])?;
            // DETERMINISM: reporting-only energy estimate, summed in a
            // fixed layer order; never feeds the bit-exact datapath.
            energy_fj += macs[i] as f64 * le.per_mac_fj + neurons[i] as f64 * le.per_neuron_fj;
            let dp = cached_datapath(&mut self.cache, &self.lib, bits, &kinds[i])?;
            clock_ps = dp.spec().clock_ps;
            cycles += macs[i].div_ceil(dp.spec().lanes as u64);
            // DETERMINISM: reporting-only area estimate in fixed layer order.
            area_weighted += dp.neuron_area_um2(&self.lib) * neurons[i] as f64;
            neuron_total += neurons[i];
            layers.push(le);
        }
        let time_ps = cycles as f64 * clock_ps;
        Ok(CostReport {
            label: label.into(),
            cycles,
            energy_pj: energy_fj / 1000.0,
            power_mw: if time_ps > 0.0 {
                energy_fj / time_ps
            } else {
                0.0
            },
            neuron_area_um2: if neuron_total > 0 {
                area_weighted / neuron_total as f64
            } else {
                0.0
            },
            layers,
        })
    }
}

/// The datapath for `(bits, kind)` from `cache`, synthesized with `lib` on
/// first use. A free function so callers can keep borrowing the model's
/// other fields alongside the returned datapath.
fn cached_datapath<'c>(
    // DETERMINISM: read and written by key only, never iterated.
    cache: &'c mut HashMap<(u32, NeuronKind), NeuronDatapath>,
    lib: &CellLibrary,
    bits: u32,
    kind: &NeuronKind,
) -> Result<&'c NeuronDatapath, TimingClosureError> {
    match cache.entry((bits, kind.clone())) {
        Entry::Occupied(entry) => Ok(entry.into_mut()),
        Entry::Vacant(entry) => {
            let dp = NeuronDatapath::build(NeuronSpec::paper(bits, kind.clone()), lib)?;
            Ok(entry.insert(dp))
        }
    }
}

/// Maps a per-layer alphabet assignment to hardware neuron kinds.
pub fn kinds_from_alphabets(alphabets: &LayerAlphabets) -> Vec<NeuronKind> {
    alphabets
        .sets()
        .iter()
        .map(|s| NeuronKind::Asm(s.members().to_vec()))
        .collect()
}

/// A uniform conventional-multiplier assignment.
pub fn kinds_conventional(layers: usize) -> Vec<NeuronKind> {
    vec![NeuronKind::Conventional; layers]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::AlphabetSet;
    use crate::constrain::{constrain_slice, WeightLattice};
    use crate::fixed::QuantSpec;
    use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
    use man_nn::network::Network;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_fixed(set: AlphabetSet) -> (FixedNet, LayerAlphabets) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(12, 6, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(6, 2, &mut rng)),
        ]);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(set.clone(), 2);
        let formats = spec.layer_formats().to_vec();
        let mut pi = 0;
        net.visit_params_mut(|_, kind, values, _| {
            if kind == man_nn::layers::ParamKind::Weights {
                let lattice = WeightLattice::new(8, &set);
                constrain_slice(formats[pi], &lattice, values);
                pi += 1;
            }
        });
        (
            FixedNet::compile(&net, &spec, &alphabets).unwrap(),
            alphabets,
        )
    }

    fn traces_for(fixed: &FixedNet) -> Vec<LayerTrace> {
        let images: Vec<Vec<f32>> = (0..8)
            .map(|i| (0..12).map(|j| ((i + j) % 9) as f32 / 9.0).collect())
            .collect();
        fixed.sample_traces(&images, 200)
    }

    #[test]
    fn man_network_costs_less_than_conventional() {
        let (fixed, alphabets) = tiny_fixed(AlphabetSet::a1());
        let traces = traces_for(&fixed);
        let mut model = CostModel::default();
        let man = model
            .network_cost(&fixed, &kinds_from_alphabets(&alphabets), &traces, "MAN")
            .unwrap();
        let conv = model
            .network_cost(&fixed, &kinds_conventional(2), &traces, "conv")
            .unwrap();
        assert!(man.energy_pj < conv.energy_pj, "{man:?} vs {conv:?}");
        assert!(man.neuron_area_um2 < conv.neuron_area_um2);
        assert_eq!(man.cycles, conv.cycles, "iso-speed: same cycle count");
    }

    #[test]
    fn cycles_follow_macs_over_lanes() {
        let (fixed, alphabets) = tiny_fixed(AlphabetSet::a2());
        let traces = traces_for(&fixed);
        let mut model = CostModel::default();
        let report = model
            .network_cost(&fixed, &kinds_from_alphabets(&alphabets), &traces, "x")
            .unwrap();
        let expected: u64 = fixed.macs_per_layer().iter().map(|m| m.div_ceil(4)).sum();
        assert_eq!(report.cycles, expected);
    }
}
