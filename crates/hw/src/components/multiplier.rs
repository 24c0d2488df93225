//! Unsigned multiplier module generators: shift-add array and Wallace tree.
//!
//! These implement the *conventional* neuron's multiplier that the ASM
//! replaces. Like the ASM datapath, both operate on magnitudes.

use crate::circuit::Circuit;
use crate::components::adder::{add_bus, full_adder, AdderKind};
use crate::netlist::{Builder, Bus, Net};

/// Multiplier architecture.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MultiplierKind {
    /// Row-by-row shift-add array: compact, `O(w)` depth, heavy glitching.
    Array,
    /// Wallace-tree carry-save reduction with a selectable final adder:
    /// `O(log w)` depth.
    Wallace(AdderKind),
}

impl MultiplierKind {
    /// Search order for synthesis, cheapest first.
    pub(crate) const CHEAPEST_FIRST: [MultiplierKind; 3] = [
        MultiplierKind::Array,
        MultiplierKind::Wallace(AdderKind::Ripple),
        MultiplierKind::Wallace(AdderKind::KoggeStone),
    ];
}

/// Builds the partial-product columns of `a × b`:
/// column `k` collects `a_i · b_j` for all `i + j = k`.
fn partial_product_columns(b: &mut Builder, a: &Bus, bb: &Bus) -> Vec<Vec<Net>> {
    let mut cols = vec![Vec::new(); a.width() + bb.width()];
    for i in 0..a.width() {
        for j in 0..bb.width() {
            let pp = b.and(a.net(i), bb.net(j));
            cols[i + j].push(pp);
        }
    }
    cols
}

/// Carry-save reduction: compresses columns with full/half adders until
/// every column holds at most two nets, then returns the two addends.
/// Shared with the ASM quartet-combine stage.
pub(crate) fn reduce_columns(b: &mut Builder, mut cols: Vec<Vec<Net>>) -> (Bus, Bus) {
    loop {
        let max_height = cols.iter().map(Vec::len).max().unwrap_or(0);
        if max_height <= 2 {
            break;
        }
        let mut next = vec![Vec::new(); cols.len() + 1];
        for (k, col) in cols.iter().enumerate() {
            let mut chunk = col.chunks(3);
            for group in &mut chunk {
                match *group {
                    [x, y, z] => {
                        let (s, c) = full_adder(b, x, y, z);
                        next[k].push(s);
                        next[k + 1].push(c);
                    }
                    [x, y] => {
                        // Half adder.
                        let s = b.xor(x, y);
                        let c = b.and(x, y);
                        next[k].push(s);
                        next[k + 1].push(c);
                    }
                    [x] => next[k].push(x),
                    _ => unreachable!(),
                }
            }
        }
        while next.last().is_some_and(Vec::is_empty) {
            next.pop();
        }
        cols = next;
    }
    let zero = b.constant(false);
    let width = cols.len();
    let mut x = Vec::with_capacity(width);
    let mut y = Vec::with_capacity(width);
    for col in cols {
        let mut it = col.into_iter();
        x.push(it.next().unwrap_or(zero));
        y.push(it.next().unwrap_or(zero));
    }
    (Bus::from_nets(x), Bus::from_nets(y))
}

/// Multiplies two buses, returning a `a.width() + b.width()` wide product.
pub(crate) fn mul_bus(b: &mut Builder, a: &Bus, bb: &Bus, kind: MultiplierKind) -> Bus {
    let out_w = a.width() + bb.width();
    match kind {
        MultiplierKind::Array => {
            // Accumulate shifted partial-product rows with ripple adders —
            // the classic carry-propagate array structure.
            let mut acc = b.mask_bus(a, bb.net(0));
            for j in 1..bb.width() {
                let row = b.mask_bus(a, bb.net(j));
                let shifted = b.shift_left_const(&row, j, j + a.width());
                acc = add_bus(b, &acc, &shifted, AdderKind::Ripple);
            }
            b.resize_bus(&acc, out_w)
        }
        MultiplierKind::Wallace(final_adder) => {
            let cols = partial_product_columns(b, a, bb);
            let (x, y) = reduce_columns(b, cols);
            let sum = add_bus(b, &x, &y, final_adder);
            b.resize_bus(&sum, out_w)
        }
    }
}

/// A standalone unsigned multiplier circuit with inputs `a` (`w_a` bits),
/// `b` (`w_b` bits) and output `p` (`w_a + w_b` bits).
///
/// # Panics
///
/// Panics if either width is 0 or the product exceeds 63 bits.
pub fn multiplier(w_a: usize, w_b: usize, kind: MultiplierKind) -> Circuit {
    assert!(
        w_a >= 1 && w_b >= 1 && w_a + w_b <= 63,
        "unsupported widths"
    );
    let mut b = Builder::new(format!("mult{w_a}x{w_b}_{kind:?}"));
    let a = b.input_bus("a", w_a);
    let bb = b.input_bus("b", w_b);
    let p = mul_bus(&mut b, &a, &bb, kind);
    b.output_bus("p", &p);
    Circuit::combinational(b.finish()).with_glitch_factor(multiplier_glitch(kind, (w_a + w_b) / 2))
}

/// Glitch factor of a multiplier: spurious transitions grow with logic
/// depth, so the factor is width-dependent (array structures glitch
/// substantially more than balanced trees; see DESIGN.md §5).
pub(crate) fn multiplier_glitch(kind: MultiplierKind, avg_width: usize) -> f64 {
    match kind {
        MultiplierKind::Array => 1.2 + 0.07 * avg_width as f64,
        MultiplierKind::Wallace(_) => 1.1 + 0.03 * avg_width as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::eval::Evaluator;

    fn check_exhaustive(w_a: usize, w_b: usize, kind: MultiplierKind) {
        let c = multiplier(w_a, w_b, kind);
        let mut sim = Evaluator::new(c.netlist());
        for a in 0..(1u64 << w_a) {
            for b in 0..(1u64 << w_b) {
                sim.step(&[("a", a), ("b", b)]);
                assert_eq!(sim.output("p"), a * b, "{kind:?} {a}*{b}");
            }
        }
    }

    #[test]
    fn array_multiplies_exhaustively_4x4() {
        check_exhaustive(4, 4, MultiplierKind::Array);
    }

    #[test]
    fn wallace_multiplies_exhaustively_4x4() {
        check_exhaustive(4, 4, MultiplierKind::Wallace(AdderKind::Ripple));
        check_exhaustive(4, 4, MultiplierKind::Wallace(AdderKind::KoggeStone));
    }

    #[test]
    fn asymmetric_widths_work() {
        check_exhaustive(6, 3, MultiplierKind::Array);
        check_exhaustive(3, 6, MultiplierKind::Wallace(AdderKind::CarrySelect));
    }

    #[test]
    fn seven_bit_samples_match() {
        // 7x7 is the conventional 8-bit neuron's magnitude multiplier.
        for kind in MultiplierKind::CHEAPEST_FIRST {
            let c = multiplier(7, 7, kind);
            let mut sim = Evaluator::new(c.netlist());
            let mut x = 99u64;
            for _ in 0..300 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = x & 0x7f;
                let b = (x >> 7) & 0x7f;
                sim.step(&[("a", a), ("b", b)]);
                assert_eq!(sim.output("p"), a * b, "{kind:?}");
            }
        }
    }

    #[test]
    fn wallace_is_faster_than_array() {
        let lib = CellLibrary::nominal_45nm();
        let arr = multiplier(11, 11, MultiplierKind::Array);
        let wal = multiplier(11, 11, MultiplierKind::Wallace(AdderKind::KoggeStone));
        assert!(wal.comb_delay_ps(&lib) < arr.comb_delay_ps(&lib));
    }

    #[test]
    fn multiplier_dwarfs_adder_in_area() {
        // The paper's core premise: the multiplier dominates the neuron.
        let lib = CellLibrary::nominal_45nm();
        let mult = multiplier(7, 7, MultiplierKind::Wallace(AdderKind::Ripple));
        let add = crate::components::adder::adder(14, AdderKind::Ripple);
        assert!(mult.area_um2(&lib) > 3.0 * add.area_um2(&lib));
    }
}
