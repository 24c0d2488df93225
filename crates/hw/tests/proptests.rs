//! Property-based tests for the gate-level substrate: arithmetic blocks
//! must agree with integer arithmetic for arbitrary operands and widths,
//! the cost model must behave monotonically, and the word-parallel toggle
//! simulator must count exactly what the scalar reference counts.

use man_hw::cell::{CellKind, CellLibrary};
use man_hw::circuit::Circuit;
use man_hw::components::activation::{plan_sigmoid_fixed, PlanParams};
use man_hw::components::adder::{adder, AdderKind};
use man_hw::components::mac::{acc_stage, carry_save_step, product_bits};
use man_hw::components::multiplier::{multiplier, MultiplierKind};
use man_hw::components::shifter::shifter;
use man_hw::eval::Evaluator;
use man_hw::netlist::{Builder, Bus, Net, Netlist, NodeOp};
use man_hw::power::{measure_stream_energy, stream_toggles, PowerModel};
use proptest::prelude::*;

fn adder_kind() -> impl Strategy<Value = AdderKind> {
    prop_oneof![
        Just(AdderKind::Ripple),
        Just(AdderKind::CarrySelect),
        Just(AdderKind::KoggeStone),
    ]
}

fn mult_kind() -> impl Strategy<Value = MultiplierKind> {
    prop_oneof![
        Just(MultiplierKind::Array),
        Just(MultiplierKind::Wallace(AdderKind::Ripple)),
        Just(MultiplierKind::Wallace(AdderKind::KoggeStone)),
    ]
}

/// One gate of a random netlist: a cell selector and three operand picks,
/// each reduced modulo the number of nets built so far.
type GateSpec = (u8, u32, u32, u32);

/// A netlist over input buses `x0, x1, …` of the given widths and both
/// constants, with one gate per spec (inverter, every 2-input cell, or a
/// mux). The builder's folding may turn a spec into an existing net. Every
/// gate's net and both constants are outputs, so nothing is pruned.
fn random_netlist(widths: &[usize], gates: &[GateSpec]) -> Netlist {
    let mut b = Builder::new("random");
    let mut nets: Vec<Net> = Vec::new();
    for (i, &w) in widths.iter().enumerate() {
        nets.extend_from_slice(b.input_bus(format!("x{i}"), w).nets());
    }
    let consts = [b.constant(false), b.constant(true)];
    nets.extend(consts);
    let first_gate = nets.len();
    for &(kind, x, y, z) in gates {
        let pick = |v: u32| nets[v as usize % nets.len()];
        let (x, y, z) = (pick(x), pick(y), pick(z));
        let net = match kind % 8 {
            0 => b.not(x),
            1 => b.and(x, y),
            2 => b.or(x, y),
            3 => b.nand(x, y),
            4 => b.nor(x, y),
            5 => b.xor(x, y),
            6 => b.xnor(x, y),
            _ => b.mux(x, y, z),
        };
        nets.push(net);
    }
    for (i, chunk) in nets[first_gate..].chunks(64).enumerate() {
        b.output_bus(format!("y{i}"), &Bus::from_nets(chunk.to_vec()));
    }
    b.output_bus("k", &Bus::from_nets(consts.to_vec()));
    b.finish()
}

/// Pseudo-random full-width values (bits above a bus's width included, so
/// the simulators must both ignore them).
fn values(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x ^ (x >> 29)
        })
        .collect()
}

/// Drives `netlist` with the column-wise stream through both simulators
/// and requires identical per-net toggle counts and, for streams of two
/// or more vectors, bit-identical combinational energy.
fn assert_matches_reference(netlist: &Netlist, columns: &[(&str, &[u64])], len: usize) {
    let mut sim = Evaluator::new(netlist);
    for i in 0..len {
        let vector: Vec<(&str, u64)> = columns.iter().map(|&(name, v)| (name, v[i])).collect();
        sim.step(&vector);
    }
    assert_eq!(
        stream_toggles(netlist, columns),
        sim.toggles(),
        "toggle counts at stream length {len}"
    );
    if !columns.is_empty() && len >= 2 {
        let lib = CellLibrary::nominal_45nm();
        let circuit = Circuit::combinational(netlist.clone());
        let e = measure_stream_energy(&circuit, &lib, &PowerModel::default(), columns, 333.0);
        let want = sim.dynamic_energy_fj(&lib) / sim.transitions() as f64;
        assert_eq!(
            e.comb_fj.to_bits(),
            want.to_bits(),
            "energy at length {len}"
        );
    }
}

/// Runs a stream of `len` vectors that drives the buses whose `driven`
/// flag is set and leaves the rest to hold their value.
fn check_stream(widths: &[usize], driven: &[bool], gates: &[GateSpec], len: usize, seed: u64) {
    let netlist = random_netlist(widths, gates);
    let names: Vec<String> = (0..widths.len()).map(|i| format!("x{i}")).collect();
    let data: Vec<Vec<u64>> = (0..widths.len())
        .map(|i| values(seed.wrapping_add(i as u64 * 0x9e37_79b9), len))
        .collect();
    let columns: Vec<(&str, &[u64])> = (0..widths.len())
        .filter(|&i| driven[i])
        .map(|i| (names[i].as_str(), &data[i][..]))
        .collect();
    assert_matches_reference(&netlist, &columns, len);
}

/// Gate specs that use every cell kind the builder emits, on operands that
/// do not fold.
const EVERY_KIND: [GateSpec; 9] = [
    (0, 0, 0, 0),
    (1, 0, 1, 0),
    (2, 1, 2, 0),
    (3, 2, 3, 0),
    (4, 3, 4, 0),
    (5, 4, 5, 0),
    (6, 5, 6, 0),
    (7, 6, 7, 8),
    (7, 9, 10, 11),
];

#[test]
fn word_parallel_toggles_match_reference_at_word_boundaries() {
    let widths = [3, 5, 2];
    let netlist = random_netlist(&widths, &EVERY_KIND);
    let kinds = netlist.cell_counts();
    for kind in [
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
    ] {
        assert!(kinds.contains_key(&kind), "{kind:?} missing from {kinds:?}");
    }
    assert!(netlist
        .nodes()
        .iter()
        .any(|op| matches!(op, NodeOp::Const(_))));
    for len in [0, 1, 2, 63, 64, 65, 128, 129] {
        check_stream(&widths, &[true, false, true], &EVERY_KIND, len, 7);
        check_stream(&widths, &[true, true, true], &EVERY_KIND, len, 8);
    }
    let c = adder(8, AdderKind::KoggeStone);
    for len in [0, 1, 2, 63, 64, 65, 128, 129] {
        let (a, b) = (values(1, len), values(2, len));
        assert_matches_reference(c.netlist(), &[("a", &a), ("b", &b)], len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The word-parallel simulator counts every net's toggles exactly as
    /// the scalar reference does, on random netlists with every cell kind,
    /// muxes and constants, streams that cross the 64-vector word
    /// boundaries, and buses left unassigned.
    #[test]
    fn word_parallel_toggles_match_reference(
        widths in prop::collection::vec(1usize..10, 1..4),
        driven in any::<u8>(),
        gates in prop::collection::vec(any::<u64>(), 1..80),
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let driven: Vec<bool> = (0..widths.len()).map(|i| driven >> i & 1 == 1).collect();
        let gates: Vec<GateSpec> = gates
            .iter()
            .map(|&g| (g as u8, (g >> 8) as u32 & 0xfff, (g >> 20) as u32 & 0xfff, (g >> 32) as u32))
            .collect();
        check_stream(&widths, &driven, &gates, len, seed);
    }

    /// Every adder architecture computes integer addition at any width.
    #[test]
    fn adders_add(kind in adder_kind(), width in 2usize..20, seed in any::<u64>()) {
        let c = adder(width, kind);
        let mut sim = Evaluator::new(c.netlist());
        let mask = (1u64 << width) - 1;
        let mut x = seed | 1;
        for _ in 0..16 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = x & mask;
            let b = (x >> 20) & mask;
            sim.step(&[("a", a), ("b", b)]);
            prop_assert_eq!(sim.output("sum"), a + b);
        }
    }

    /// Every multiplier architecture computes integer products.
    #[test]
    fn multipliers_multiply(kind in mult_kind(), w_a in 2usize..9, w_b in 2usize..9, seed in any::<u64>()) {
        let c = multiplier(w_a, w_b, kind);
        let mut sim = Evaluator::new(c.netlist());
        let mut x = seed | 1;
        for _ in 0..12 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            let a = x & ((1 << w_a) - 1);
            let b = (x >> 24) & ((1 << w_b) - 1);
            sim.step(&[("a", a), ("b", b)]);
            prop_assert_eq!(sim.output("p"), a * b);
        }
    }

    /// The barrel shifter is a left shift for every amount.
    #[test]
    fn shifter_shifts(width in 2usize..12, data in any::<u64>(), s in 0u64..4) {
        let c = shifter(width, 2);
        let mut sim = Evaluator::new(c.netlist());
        let data = data & ((1 << width) - 1);
        sim.step(&[("data", data), ("shift", s)]);
        prop_assert_eq!(sim.output("out"), data << s);
    }

    /// The carry-propagate accumulate stage integrates signed
    /// sign-magnitude products exactly (modulo the accumulator width).
    #[test]
    fn acc_stage_accumulates(products in prop::collection::vec(-16129i64..=16129, 1..12)) {
        let acc_bits = 20u32;
        let c = acc_stage(8, acc_bits, AdderKind::KoggeStone);
        let mut sim = Evaluator::new(c.netlist());
        let mask = (1u64 << acc_bits) - 1;
        let mut acc = 0i64;
        for p in products {
            sim.step(&[
                ("p_mag", p.unsigned_abs()),
                ("p_sign", (p < 0) as u64),
                ("acc", (acc as u64) & mask),
            ]);
            acc += p;
            let got = sim.output("acc_next");
            prop_assert_eq!(got, (acc as u64) & mask);
        }
    }

    /// The carry-save software twin preserves the sum invariant:
    /// s' + c' == s + c ± p (mod 2^bits).
    #[test]
    fn carry_save_invariant(p in 0u64..=16129, sign in any::<bool>(), s in any::<u64>(), c in any::<u64>()) {
        let acc_bits = 25u32;
        let mask = (1u64 << acc_bits) - 1;
        let (s, c) = (s & mask, c & mask);
        let (s2, c2) = carry_save_step(p, sign, s, c, acc_bits);
        let before = s.wrapping_add(c);
        let delta = if sign { before.wrapping_sub(p) } else { before.wrapping_add(p) };
        prop_assert_eq!((s2.wrapping_add(c2)) & mask, delta & mask);
    }

    /// PLAN is monotone non-decreasing and bounded to [0, 1).
    #[test]
    fn plan_is_monotone_and_bounded(a in -30000i64..30000, b in -30000i64..30000) {
        let p = PlanParams { in_bits: 16, in_frac: 10, out_bits: 8 };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ylo = plan_sigmoid_fixed(lo, &p);
        let yhi = plan_sigmoid_fixed(hi, &p);
        prop_assert!(ylo <= yhi, "PLAN must be monotone: f({lo})={ylo} > f({hi})={yhi}");
        prop_assert!(yhi < (1 << p.out_bits));
    }

    /// Area and leakage scale exactly linearly with a library area/energy
    /// scale, and delays with the delay scale (sanity of the cost model).
    #[test]
    fn library_scaling_is_linear(width in 3usize..12, area_k in 1.0f64..3.0, delay_k in 1.0f64..3.0) {
        let base = CellLibrary::nominal_45nm();
        let scaled = base.scaled(area_k, delay_k, 1.0);
        let c = adder(width, AdderKind::Ripple);
        prop_assert!((c.area_um2(&scaled) - area_k * c.area_um2(&base)).abs() < 1e-6);
        prop_assert!((c.comb_delay_ps(&scaled) - delay_k * c.comb_delay_ps(&base)).abs() < 1e-6);
    }

    /// Product width bookkeeping: a magnitude product always fits the
    /// declared product width.
    #[test]
    fn product_width_covers_magnitudes(bits in 3u32..13) {
        let max = (1u64 << (bits - 1)) - 1;
        prop_assert!(max * max < (1u64 << product_bits(bits)));
    }
}
