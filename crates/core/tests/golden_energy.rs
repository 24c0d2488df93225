//! Golden energy bits: a small seeded Dense → sigmoid → Dense network is
//! constrained, compiled and traced on integer-derived images, then costed
//! by the gate-level cost model under the conventional neuron, `{1}` and
//! `{1,3,5,7}` at 8 and 12 bits. Between them these configurations drive
//! the multiplier stages, the pre-computer bank, the carry-save
//! accumulator with its resolver, and the activation stage. An FNV-1a hash
//! of every report's energy, power, area and cycle bits (and of every
//! layer's per-MAC and per-neuron energy) must equal a constant recorded
//! with the scalar per-vector simulator, so any change to a toggle count
//! or to the order in which energies are summed fails here.
//!
//! The cost path calls no libm function, so the constant holds on every
//! IEEE-754 host.

use man::alphabet::AlphabetSet;
use man::constrain::{constrain_slice, WeightLattice};
use man::engine::{kinds_conventional, kinds_from_alphabets, CostModel, CostReport};
use man::fixed::{FixedNet, LayerAlphabets, QuantSpec};
use man_nn::layers::{Activation, ActivationLayer, Dense, Layer, ParamKind};
use man_nn::network::Network;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const INPUTS: usize = 24;
/// MACs sampled per layer: not a multiple of the 64-vector word.
const TRACE_LIMIT: usize = 300;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn report(&mut self, r: &CostReport) {
        self.f64(r.energy_pj);
        self.f64(r.power_mw);
        self.f64(r.neuron_area_um2);
        self.bytes(&r.cycles.to_le_bytes());
        for layer in &r.layers {
            self.f64(layer.per_mac_fj);
            self.f64(layer.per_neuron_fj);
        }
    }
}

/// The seeded network with every weight projected onto `set`'s lattice,
/// compiled at `bits`.
fn constrained(bits: u32, set: &AlphabetSet) -> (FixedNet, LayerAlphabets) {
    let mut rng = SmallRng::seed_from_u64(0xe4e7);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(INPUTS, 10, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(10, 3, &mut rng)),
    ]);
    let spec = QuantSpec::fit(&net, bits);
    let alphabets = LayerAlphabets::uniform(set.clone(), 2);
    let formats = spec.layer_formats().to_vec();
    let lattice = WeightLattice::new(bits, set);
    let mut layer = 0;
    net.visit_params_mut(|_, kind, values, _| {
        if kind == ParamKind::Weights {
            constrain_slice(formats[layer], &lattice, values);
            layer += 1;
        }
    });
    let fixed = FixedNet::compile(&net, &spec, &alphabets).expect("constrained net compiles");
    (fixed, alphabets)
}

fn images() -> Vec<Vec<f32>> {
    (0..8)
        .map(|i| {
            (0..INPUTS)
                .map(|j| ((i * 13 + j * 7 + i * j) % 17) as f32 / 17.0)
                .collect()
        })
        .collect()
}

#[test]
fn cost_reports_are_golden() {
    let mut hash = Fnv::new();
    let mut model = CostModel::default();
    for bits in [8u32, 12] {
        for set in [AlphabetSet::a1(), AlphabetSet::a4()] {
            let (fixed, alphabets) = constrained(bits, &set);
            let traces = fixed.sample_traces(&images(), TRACE_LIMIT);
            let asm = model
                .network_cost(&fixed, &kinds_from_alphabets(&alphabets), &traces, "asm")
                .expect("asm datapath closes timing");
            let conv = model
                .network_cost(&fixed, &kinds_conventional(2), &traces, "conv")
                .expect("conventional datapath closes timing");
            hash.report(&asm);
            hash.report(&conv);
        }
    }
    assert_eq!(hash.0, 14_301_925_440_648_036_514);
}
