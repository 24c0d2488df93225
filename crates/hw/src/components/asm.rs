//! The ASM multiplication stage: control decode, alphabet select, shift and
//! combine — the structure of Fig. 2 in the paper.
//!
//! The weight magnitude is split into 4-bit quartets (the MSB group is
//! 3 bits because the sign is handled separately). Each quartet value `v`
//! must equal `a << s` for an alphabet `a` and a shift `s ≤ 3`; a small
//! decoder derives `(select, shift, nonzero)` per quartet, a mux tree picks
//! the pre-computed `a·x`, a 2-stage barrel shifter applies `s`, and an
//! adder combines the quartet terms at their 4-bit offsets. The sign is
//! re-applied with a conditional negate, exactly as in the conventional
//! datapath.

use crate::circuit::Circuit;
use crate::components::adder::{add_bus_wrap, AdderKind};
use crate::components::logic::sop_decoder;
use crate::components::mux::mux_tree;
use crate::components::precompute::{alpha_bus, validate_alphabets};
use crate::components::shifter::barrel_shift_left;
use crate::netlist::{Builder, Bus};

/// Widths of the quartet groups for a weight magnitude of `bits - 1` bits,
/// LSB group first (e.g. 8-bit weights → `[4, 3]`, 12-bit → `[4, 4, 3]`).
pub(crate) fn quartet_widths(bits: u32) -> Vec<u32> {
    assert!(bits >= 3, "need at least a sign and a 2-bit magnitude");
    let mut rem = bits - 1;
    let mut widths = Vec::new();
    while rem > 0 {
        let w = rem.min(4);
        widths.push(w);
        rem -= w;
    }
    widths
}

/// For a quartet value `v`, the `(alphabet index, shift)` pair that produces
/// it with the given alphabet set, or `None` if the value is unsupported.
/// `v = 0` is supported by every set (the term is masked to zero).
pub(crate) fn quartet_controls(alphabets: &[u8], v: u32) -> Option<(usize, u32)> {
    if v == 0 {
        return Some((0, 0));
    }
    for (idx, &a) in alphabets.iter().enumerate() {
        for s in 0..4u32 {
            if (a as u32) << s == v {
                return Some((idx, s));
            }
        }
    }
    None
}

/// Encodes the decoder truth table for one quartet: output word layout is
/// `nonzero | shift(2) | select(sel_bits)` from LSB up. Unsupported quartet
/// values are don't-cares (constrained weights never produce them); they are
/// filled with all-zero outputs, which minimizes the two-level logic.
fn decode_table(alphabets: &[u8], qwidth: u32, sel_bits: u32) -> Vec<u64> {
    let n = 1usize << qwidth;
    (0..n as u32)
        .map(|v| match quartet_controls(alphabets, v) {
            Some((sel, shift)) if v != 0 => 1u64 | ((shift as u64) << 1) | ((sel as u64) << 3),
            _ => 0,
        })
        .map(move |entry| entry & ((1u64 << (3 + sel_bits)) - 1))
        .collect()
}

/// Builds the ASM multiplication stage for a `bits`-wide neuron.
///
/// Inputs: `w_mag` (`bits-1`), one `alpha{a}` bus (`bits+3` wide) per
/// alphabet (wired from the shared pre-computer bank), `w_sign`, `x_sign`.
/// Outputs: `p_mag` (the product magnitude, `2·(bits-1)` bits) and `p_sign`
/// (1 bit). The sign is absorbed by the accumulate stage (XOR row plus a
/// carry injection) rather than by a per-product negater — the standard
/// sign-magnitude MAC arrangement, used identically by the conventional
/// stage so the comparison stays fair.
///
/// # Panics
///
/// Panics if the alphabet set is invalid or `bits` is out of `3..=16`.
pub fn asm_mult_stage(bits: u32, alphabets: &[u8], combine: AdderKind) -> Circuit {
    assert!((3..=16).contains(&bits), "neuron width must be in 3..=16");
    validate_alphabets(alphabets);
    let sel_bits = usize::BITS - (alphabets.len() - 1).leading_zeros(); // ceil(log2(len))
    let alpha_w = bits as usize + 3;
    let mut b = Builder::new(format!("asm{bits}_{}a_{combine:?}", alphabets.len()));
    let w_mag = b.input_bus("w_mag", bits as usize - 1);
    let alphas: Vec<Bus> = alphabets
        .iter()
        .map(|&a| b.input_bus(alpha_bus(a), alpha_w))
        .collect();
    let w_sign = b.input_bus("w_sign", 1);
    let x_sign = b.input_bus("x_sign", 1);

    let prod_w = 2 * (bits as usize - 1);
    let widths = quartet_widths(bits);
    let mut terms: Vec<Bus> = Vec::with_capacity(widths.len());
    let mut offset = 0usize;
    for qw in &widths {
        let quartet = w_mag.slice(offset..offset + *qw as usize);
        let table = decode_table(alphabets, *qw, sel_bits);
        let ctrl = sop_decoder(&mut b, &quartet, &table, 3 + sel_bits as usize);
        let nonzero = ctrl.net(0);
        let shift = ctrl.slice(1..3);
        let term = if sel_bits > 0 {
            let sel = ctrl.slice(3..3 + sel_bits as usize);
            mux_tree(&mut b, &sel, &alphas)
        } else {
            alphas[0].clone()
        };
        let term = barrel_shift_left(&mut b, &term, &shift, alpha_w);
        let term = b.mask_bus(&term, nonzero);
        terms.push(b.shift_left_const(&term, offset, prod_w));
        offset += *qw as usize;
    }
    // Combine the quartet terms: two terms add directly; three or more are
    // first compressed carry-save (one full-adder row) so a single
    // carry-propagate adder suffices — mirroring the Wallace structure of
    // the conventional multiplier it replaces.
    let mag = if terms.len() == 1 {
        terms.pop().expect("one term")
    } else if terms.len() == 2 {
        add_bus_wrap(&mut b, &terms[0], &terms[1], combine)
    } else {
        let mut cols: Vec<Vec<crate::netlist::Net>> = vec![Vec::new(); prod_w];
        for t in &terms {
            for (i, col) in cols.iter_mut().enumerate() {
                col.push(t.net(i));
            }
        }
        let (x, y) = crate::components::multiplier::reduce_columns(&mut b, cols);
        let x = x.slice(0..prod_w.min(x.width()));
        let y = y.slice(0..prod_w.min(y.width()));
        add_bus_wrap(&mut b, &x, &y, combine)
    };
    let sign = b.xor(w_sign.net(0), x_sign.net(0));
    b.output_bus("p_mag", &mag);
    b.output_bus("p_sign", &Bus::from_nets(vec![sign]));
    Circuit::combinational(b.finish()).with_glitch_factor(1.15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::precompute::precompute_bank;
    use crate::eval::Evaluator;

    /// Weight magnitudes whose quartets are all supported by `alphabets`.
    fn supported_magnitudes(alphabets: &[u8], bits: u32) -> Vec<u32> {
        let widths = quartet_widths(bits);
        let mut out = vec![];
        'outer: for mag in 0..(1u32 << (bits - 1)) {
            let mut rem = mag;
            for w in &widths {
                let v = rem & ((1 << w) - 1);
                if quartet_controls(alphabets, v).is_none() {
                    continue 'outer;
                }
                rem >>= w;
            }
            out.push(mag);
        }
        out
    }

    /// Drives the precompute bank functionally and checks the ASM stage
    /// against exact multiplication for every supported weight.
    fn check_asm(bits: u32, alphabets: &[u8]) {
        let stage = asm_mult_stage(bits, alphabets, AdderKind::Ripple);
        let bank = precompute_bank(bits, alphabets, AdderKind::Ripple);
        let mut bank_sim = Evaluator::new(bank.netlist());
        let mut sim = Evaluator::new(stage.netlist());
        let xs: Vec<u64> = vec![0, 1, 3, (1 << (bits - 1)) - 1, 77 % (1 << (bits - 1))];
        for &x in &xs {
            bank_sim.step(&[("x_mag", x)]);
            for w_mag in supported_magnitudes(alphabets, bits) {
                for (ws, xs_sign) in [(0u64, 0u64), (1, 0), (0, 1), (1, 1)] {
                    let mut inputs: Vec<(String, u64)> = alphabets
                        .iter()
                        .map(|a| (format!("alpha{a}"), bank_sim.output(&format!("alpha{a}"))))
                        .collect();
                    inputs.push(("w_mag".into(), w_mag as u64));
                    inputs.push(("w_sign".into(), ws));
                    inputs.push(("x_sign".into(), xs_sign));
                    let refs: Vec<(&str, u64)> =
                        inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    sim.step(&refs);
                    let got_mag = sim.output("p_mag");
                    let got_sign = sim.output("p_sign");
                    assert_eq!(
                        got_mag,
                        w_mag as u64 * x,
                        "bits={bits} A={alphabets:?} w={w_mag} x={x}"
                    );
                    assert_eq!(got_sign, ws ^ xs_sign, "sign w={w_mag} x={x}");
                }
            }
        }
    }

    #[test]
    fn man_8bit_matches_exact_multiply_on_supported_weights() {
        check_asm(8, &[1]);
    }

    #[test]
    fn asm2_8bit_matches_exact_multiply() {
        check_asm(8, &[1, 3]);
    }

    #[test]
    fn asm4_8bit_matches_exact_multiply() {
        check_asm(8, &[1, 3, 5, 7]);
    }

    #[test]
    fn full_alphabet_8bit_supports_every_weight() {
        let alphabets = [1u8, 3, 5, 7, 9, 11, 13, 15];
        let all = supported_magnitudes(&alphabets, 8);
        assert_eq!(all.len(), 128, "8 alphabets cover every 7-bit magnitude");
        check_asm(8, &alphabets);
    }

    #[test]
    fn man_12bit_matches_exact_multiply() {
        check_asm(12, &[1]);
    }

    #[test]
    fn quartet_widths_match_paper() {
        assert_eq!(quartet_widths(8), vec![4, 3]);
        assert_eq!(quartet_widths(12), vec![4, 4, 3]);
    }

    #[test]
    fn paper_example_control_decode() {
        // Paper Fig. 2: W = 0b0100_1010 -> LSB quartet 10 = 5<<1,
        // MSB quartet 4 = 1<<2.
        assert_eq!(quartet_controls(&[1, 3, 5, 7], 10), Some((2, 1)));
        assert_eq!(quartet_controls(&[1, 3, 5, 7], 4), Some((0, 2)));
        // 9 is unsupported with {1,3,5,7} (Section IV-A).
        assert_eq!(quartet_controls(&[1, 3, 5, 7], 9), None);
    }

    #[test]
    fn supported_counts_match_paper_section_iv() {
        // "if we use 4 alphabets {1,3,5,7}, we can generate 12 (including 0)
        // out of 16 possible combinations"
        let n4 = (0..16)
            .filter(|&v| quartet_controls(&[1, 3, 5, 7], v).is_some())
            .count();
        assert_eq!(n4, 12);
        // {1,3}: supported {0,1,2,3,4,6,8,12} = 8 of 16.
        let n2 = (0..16)
            .filter(|&v| quartet_controls(&[1, 3], v).is_some())
            .count();
        assert_eq!(n2, 8);
        // {1}: powers of two plus zero = 5.
        let n1 = (0..16)
            .filter(|&v| quartet_controls(&[1], v).is_some())
            .count();
        assert_eq!(n1, 5);
    }
}
