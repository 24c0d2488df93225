//! Random-logic helpers: OR/AND trees, zero detection, constant
//! comparators, and two-level sum-of-products decoders.
//!
//! The ASM "control logic" is a small decoder per quartet: the quartet value
//! maps to (alphabet select, shift amount, non-zero flag). We generate it as
//! two-level logic from a truth table; builder-level structural hashing
//! shares minterm prefixes, approximating what logic optimization would
//! produce.

use crate::netlist::{Builder, Bus, Net};

/// Balanced OR tree over arbitrarily many nets. Returns constant 0 for an
/// empty list.
pub(crate) fn or_tree(b: &mut Builder, nets: &[Net]) -> Net {
    match nets {
        [] => b.constant(false),
        [single] => *single,
        _ => {
            let mid = nets.len() / 2;
            let l = or_tree(b, &nets[..mid]);
            let r = or_tree(b, &nets[mid..]);
            b.or(l, r)
        }
    }
}

/// Balanced AND tree over arbitrarily many nets. Returns constant 1 for an
/// empty list.
pub(crate) fn and_tree(b: &mut Builder, nets: &[Net]) -> Net {
    match nets {
        [] => b.constant(true),
        [single] => *single,
        _ => {
            let mid = nets.len() / 2;
            let l = and_tree(b, &nets[..mid]);
            let r = and_tree(b, &nets[mid..]);
            b.and(l, r)
        }
    }
}

/// The minterm `bus == value` (an AND of true/complemented literals).
pub(crate) fn equals_const(b: &mut Builder, bus: &Bus, value: u64) -> Net {
    let literals: Vec<Net> = (0..bus.width())
        .map(|i| {
            if (value >> i) & 1 == 1 {
                bus.net(i)
            } else {
                b.not(bus.net(i))
            }
        })
        .collect();
    and_tree(b, &literals)
}

/// `1` when the unsigned value on `bus` is ≥ `k` (borrow-chain comparator
/// whose carry chain uses the given adder architecture).
pub(crate) fn ge_const(
    b: &mut Builder,
    bus: &Bus,
    k: u64,
    kind: crate::components::adder::AdderKind,
) -> Net {
    // bus >= k  <=>  bus + ~k + 1 produces a carry out.
    let w = bus.width();
    assert!(w <= 63 && (k >> w) == 0, "constant does not fit comparator");
    let not_k = (!k) & ((1u64 << w) - 1);
    let kb = b.const_bus(not_k, w);
    let one = b.constant(true);
    let sum = crate::components::adder::add_bus_cin(b, bus, &kb, one, kind);
    sum.net(w)
}

/// Two-level sum-of-products decoder: for an input value `v`, the output bus
/// carries `table[v]`.
///
/// # Panics
///
/// Panics if `table.len() != 2^input.width()` or any entry overflows
/// `out_width` bits.
pub(crate) fn sop_decoder(b: &mut Builder, input: &Bus, table: &[u64], out_width: usize) -> Bus {
    assert_eq!(
        table.len(),
        1usize << input.width(),
        "truth table must cover every input value"
    );
    assert!(
        table
            .iter()
            .all(|&t| out_width == 64 || t < (1u64 << out_width)),
        "table entry overflows output width"
    );
    let minterms: Vec<Net> = (0..table.len())
        .map(|v| equals_const(b, input, v as u64))
        .collect();
    let out = (0..out_width)
        .map(|bit| {
            let active: Vec<Net> = table
                .iter()
                .enumerate()
                .filter(|(_, &t)| (t >> bit) & 1 == 1)
                .map(|(v, _)| minterms[v])
                .collect();
            or_tree(b, &active)
        })
        .collect();
    Bus::from_nets(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;

    #[test]
    fn ge_const_compares() {
        let mut b = Builder::new("ge");
        let x = b.input_bus("x", 6);
        let g = ge_const(&mut b, &x, 19, crate::components::adder::AdderKind::Ripple);
        b.output_bus("g", &Bus::from_nets(vec![g]));
        let nl = b.finish();
        let mut sim = Evaluator::new(&nl);
        for v in 0..64u64 {
            sim.step(&[("x", v)]);
            assert_eq!(sim.output("g"), (v >= 19) as u64, "v={v}");
        }
    }

    #[test]
    fn decoder_reproduces_table() {
        // A 3-bit popcount decoder.
        let table: Vec<u64> = (0..8u64).map(|v| v.count_ones() as u64).collect();
        let mut b = Builder::new("pop");
        let x = b.input_bus("x", 3);
        let y = sop_decoder(&mut b, &x, &table, 2);
        b.output_bus("y", &y);
        let nl = b.finish();
        let mut sim = Evaluator::new(&nl);
        for v in 0..8u64 {
            sim.step(&[("x", v)]);
            assert_eq!(sim.output("y"), v.count_ones() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "truth table")]
    fn decoder_rejects_short_table() {
        let mut b = Builder::new("bad");
        let x = b.input_bus("x", 3);
        let _ = sop_decoder(&mut b, &x, &[0, 1], 1);
    }

    #[test]
    fn trees_handle_degenerate_inputs() {
        let mut b = Builder::new("deg");
        let x = b.input_bus("x", 1);
        assert_eq!(or_tree(&mut b, &[]), b.constant(false));
        assert_eq!(and_tree(&mut b, &[]), b.constant(true));
        assert_eq!(or_tree(&mut b, &[x.net(0)]), x.net(0));
    }
}
