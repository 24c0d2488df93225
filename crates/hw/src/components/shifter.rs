//! Barrel shifter: variable left shift built from log₂(max_shift) mux
//! stages.
//!
//! The ASM "shift unit": every quartet term is an alphabet shifted by 0–3
//! positions, so a 2-stage barrel shifter suffices regardless of alphabet
//! count.

use crate::circuit::Circuit;
use crate::netlist::{Builder, Bus};

/// Shifts `data` left by the binary amount on `shift` (LSB-first), producing
/// an `out_width`-wide bus. Vacated low bits fill with zero; bits shifted
/// beyond `out_width` are dropped.
pub(crate) fn barrel_shift_left(b: &mut Builder, data: &Bus, shift: &Bus, out_width: usize) -> Bus {
    let mut current = b.resize_bus(data, out_width);
    for stage in 0..shift.width() {
        let amount = 1usize << stage;
        let shifted = b.shift_left_const(&current, amount, out_width);
        current = b.mux_bus(shift.net(stage), &current, &shifted);
    }
    current
}

/// A standalone barrel shifter circuit with inputs `data` (`width` bits),
/// `shift` (`shift_bits` bits) and output `out`
/// (`width + 2^shift_bits - 1` bits, so no data is ever lost).
///
/// # Panics
///
/// Panics if widths are zero or the output exceeds 64 bits.
pub fn shifter(width: usize, shift_bits: usize) -> Circuit {
    assert!(width >= 1 && shift_bits >= 1, "degenerate shifter");
    let out_width = width + (1 << shift_bits) - 1;
    assert!(out_width <= 64, "shifter output too wide");
    let mut b = Builder::new(format!("shl{width}_by{shift_bits}"));
    let data = b.input_bus("data", width);
    let shift = b.input_bus("shift", shift_bits);
    let out = barrel_shift_left(&mut b, &data, &shift, out_width);
    b.output_bus("out", &out);
    Circuit::combinational(b.finish()).with_glitch_factor(1.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::eval::Evaluator;

    #[test]
    fn shifts_exhaustively() {
        let c = shifter(4, 2);
        let mut sim = Evaluator::new(c.netlist());
        for data in 0..16u64 {
            for s in 0..4u64 {
                sim.step(&[("data", data), ("shift", s)]);
                assert_eq!(sim.output("out"), data << s, "{data} << {s}");
            }
        }
    }

    #[test]
    fn wide_shift_keeps_all_bits() {
        let c = shifter(11, 2);
        let mut sim = Evaluator::new(c.netlist());
        sim.step(&[("data", 0b111_1111_1111), ("shift", 3)]);
        assert_eq!(sim.output("out"), 0b111_1111_1111 << 3);
    }

    #[test]
    fn shifter_is_much_smaller_than_multiplier() {
        let lib = CellLibrary::nominal_45nm();
        let s = shifter(11, 2);
        let m = crate::components::multiplier::multiplier(
            7,
            7,
            crate::components::multiplier::MultiplierKind::Wallace(
                crate::components::adder::AdderKind::Ripple,
            ),
        );
        assert!(s.area_um2(&lib) < m.area_um2(&lib) / 3.0);
    }
}
