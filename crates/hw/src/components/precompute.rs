//! The ASM pre-computer bank: generates the "alphabet" products `a·x` for
//! every alphabet `a` in the set.
//!
//! Odd multiples are built from shift-add identities (`3x = x + 2x`,
//! `7x = 8x − x`, `13x = 5x + 8x`, …); structural hashing in the builder
//! shares sub-products exactly like a datapath generator would. In the CSHM
//! arrangement one bank feeds several multiplication units, so its cost is
//! amortized across lanes (the paper shares it across 4 neurons).

use crate::circuit::Circuit;
use crate::components::adder::{add_bus, sub_bus, AdderKind};
use crate::netlist::{Builder, Bus};

/// Checks an alphabet list: odd, strictly increasing, in `1..=15`,
/// starting with 1.
///
/// # Panics
///
/// Panics (with a descriptive message) if the list is not a valid alphabet
/// set.
pub(crate) fn validate_alphabets(alphabets: &[u8]) {
    assert!(!alphabets.is_empty(), "alphabet set must not be empty");
    assert!(
        alphabets.windows(2).all(|w| w[0] < w[1]),
        "alphabets must be strictly increasing"
    );
    assert!(
        alphabets.iter().all(|&a| a % 2 == 1 && a <= 15),
        "alphabets must be odd values in 1..=15"
    );
    assert_eq!(alphabets[0], 1, "alphabet set must contain 1");
}

/// The name of the bus carrying alphabet `a`'s product `a · x`: an output
/// of the pre-computer bank and an input of the ASM multiplication stage.
///
/// # Panics
///
/// Panics if `a` is not an odd value in `1..=15`.
pub fn alpha_bus(a: u8) -> &'static str {
    const NAMES: [&str; 8] = [
        "alpha1", "alpha3", "alpha5", "alpha7", "alpha9", "alpha11", "alpha13", "alpha15",
    ];
    assert!(a % 2 == 1 && a <= 15, "unsupported alphabet {a}");
    NAMES[usize::from(a / 2)]
}

/// Builds `a · x` for one odd alphabet `a` (width `x.width() + 4`).
fn alphabet_product(b: &mut Builder, x: &Bus, a: u8, kind: AdderKind) -> Bus {
    let w = x.width() + 4;
    match a {
        1 => b.resize_bus(x, w),
        3 => {
            let x2 = b.shift_left_const(x, 1, w);
            let x1 = b.resize_bus(x, w);
            let s = add_bus(b, &x1, &x2, kind);
            s.slice(0..w)
        }
        5 => {
            let x4 = b.shift_left_const(x, 2, w);
            let x1 = b.resize_bus(x, w);
            let s = add_bus(b, &x1, &x4, kind);
            s.slice(0..w)
        }
        7 => {
            let x8 = b.shift_left_const(x, 3, w);
            let x1 = b.resize_bus(x, w);
            sub_bus(b, &x8, &x1, kind)
        }
        9 => {
            let x8 = b.shift_left_const(x, 3, w);
            let x1 = b.resize_bus(x, w);
            let s = add_bus(b, &x1, &x8, kind);
            s.slice(0..w)
        }
        11 => {
            // 11x = 3x + 8x; the 3x sub-product is shared via hashing.
            let x3 = alphabet_product(b, x, 3, kind);
            let x8 = b.shift_left_const(x, 3, w);
            let s = add_bus(b, &x3, &x8, kind);
            s.slice(0..w)
        }
        13 => {
            let x5 = alphabet_product(b, x, 5, kind);
            let x8 = b.shift_left_const(x, 3, w);
            let s = add_bus(b, &x5, &x8, kind);
            s.slice(0..w)
        }
        15 => {
            let x16 = b.shift_left_const(x, 4, w);
            let x1 = b.resize_bus(x, w);
            sub_bus(b, &x16, &x1, kind)
        }
        _ => panic!("unsupported alphabet {a}"),
    }
}

/// The pre-computer bank for a `bits`-wide neuron: input `x_mag`
/// (`bits - 1` bits), one output bus `alpha{a}` (`bits + 3` bits) per
/// alphabet.
///
/// For the 1-alphabet set `{1}` the bank contains **no gates** — this is
/// exactly why the MAN neuron can delete it.
///
/// # Panics
///
/// Panics if `bits < 3` or the alphabet set is invalid (see
/// [`validate_alphabets`]).
pub(crate) fn precompute_bank(bits: u32, alphabets: &[u8], kind: AdderKind) -> Circuit {
    assert!((3..=16).contains(&bits), "neuron width must be in 3..=16");
    validate_alphabets(alphabets);
    let mut b = Builder::new(format!("precompute{bits}_{}a", alphabets.len()));
    let x = b.input_bus("x_mag", bits as usize - 1);
    for &a in alphabets {
        let p = alphabet_product(&mut b, &x, a, kind);
        b.output_bus(alpha_bus(a), &p);
    }
    Circuit::combinational(b.finish()).with_glitch_factor(1.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::eval::Evaluator;

    #[test]
    fn bank_computes_all_alphabet_products() {
        let alphabets = [1u8, 3, 5, 7, 9, 11, 13, 15];
        let c = precompute_bank(8, &alphabets, AdderKind::Ripple);
        let mut sim = Evaluator::new(c.netlist());
        for x in [0u64, 1, 17, 99, 127] {
            sim.step(&[("x_mag", x)]);
            for &a in &alphabets {
                assert_eq!(
                    sim.output(&format!("alpha{a}")),
                    a as u64 * x,
                    "alpha{a} of {x}"
                );
            }
        }
    }

    #[test]
    fn twelve_bit_bank_works() {
        let c = precompute_bank(12, &[1, 3], AdderKind::CarrySelect);
        let mut sim = Evaluator::new(c.netlist());
        sim.step(&[("x_mag", 2047)]);
        assert_eq!(sim.output("alpha1"), 2047);
        assert_eq!(sim.output("alpha3"), 3 * 2047);
    }

    #[test]
    fn one_alphabet_bank_has_no_gates() {
        let c = precompute_bank(8, &[1], AdderKind::Ripple);
        assert_eq!(c.gate_count(), 0, "MAN needs no pre-computer");
    }

    #[test]
    fn bank_cost_grows_with_alphabet_count() {
        let lib = CellLibrary::nominal_45nm();
        let a1 = precompute_bank(8, &[1], AdderKind::Ripple).area_um2(&lib);
        let a2 = precompute_bank(8, &[1, 3], AdderKind::Ripple).area_um2(&lib);
        let a4 = precompute_bank(8, &[1, 3, 5, 7], AdderKind::Ripple).area_um2(&lib);
        let a8 = precompute_bank(8, &[1, 3, 5, 7, 9, 11, 13, 15], AdderKind::Ripple).area_um2(&lib);
        assert!(a1 < a2 && a2 < a4 && a4 < a8);
    }

    #[test]
    #[should_panic(expected = "must contain 1")]
    fn alphabet_without_one_rejected() {
        let _ = precompute_bank(8, &[3, 5], AdderKind::Ripple);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_alphabet_rejected() {
        let _ = precompute_bank(8, &[1, 4], AdderKind::Ripple);
    }
}
