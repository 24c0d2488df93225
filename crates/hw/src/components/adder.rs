//! Adder module generators: ripple-carry, carry-select and Kogge-Stone.
//!
//! The three architectures span the area/delay trade-off a synthesis tool
//! navigates under a clock constraint: ripple-carry is smallest with an
//! `O(w)` carry chain, carry-select buys roughly half the delay for ~1.6×
//! the area, and the Kogge-Stone parallel-prefix adder reaches `O(log w)`
//! delay at the largest area. [`crate::synth`] picks the cheapest one that
//! meets timing — the iso-speed methodology of the paper.

use crate::circuit::Circuit;
use crate::netlist::{Builder, Bus, Net};

/// Adder architecture.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdderKind {
    /// Ripple-carry: minimal area, linear carry chain.
    Ripple,
    /// Carry-select with 4-bit blocks: ~half the delay, more area.
    CarrySelect,
    /// Kogge-Stone parallel prefix: logarithmic delay, most area.
    KoggeStone,
}

impl AdderKind {
    /// All kinds from cheapest to fastest (the synthesis search order).
    pub(crate) const CHEAPEST_FIRST: [AdderKind; 3] = [
        AdderKind::Ripple,
        AdderKind::CarrySelect,
        AdderKind::KoggeStone,
    ];
}

/// One full adder: returns `(sum, carry)`.
pub(crate) fn full_adder(b: &mut Builder, x: Net, y: Net, cin: Net) -> (Net, Net) {
    let t = b.xor(x, y);
    let sum = b.xor(t, cin);
    let g1 = b.and(x, y);
    let g2 = b.and(t, cin);
    let carry = b.or(g1, g2);
    (sum, carry)
}

fn ripple_with_cin(b: &mut Builder, a: &Bus, bb: &Bus, cin: Net) -> (Vec<Net>, Net) {
    debug_assert_eq!(a.width(), bb.width());
    let mut carry = cin;
    let mut sums = Vec::with_capacity(a.width());
    for i in 0..a.width() {
        let (s, c) = full_adder(b, a.net(i), bb.net(i), carry);
        sums.push(s);
        carry = c;
    }
    (sums, carry)
}

fn carry_select_with_cin(b: &mut Builder, a: &Bus, bb: &Bus, cin: Net) -> (Vec<Net>, Net) {
    const BLOCK: usize = 4;
    let w = a.width();
    let mut sums = Vec::with_capacity(w);
    let mut carry = cin;
    let mut lo = 0;
    while lo < w {
        let hi = (lo + BLOCK).min(w);
        let ab = a.slice(lo..hi);
        let bbb = bb.slice(lo..hi);
        if lo == 0 {
            let (s, c) = ripple_with_cin(b, &ab, &bbb, carry);
            sums.extend(s);
            carry = c;
        } else {
            let zero = b.constant(false);
            let one = b.constant(true);
            let (s0, c0) = ripple_with_cin(b, &ab, &bbb, zero);
            let (s1, c1) = ripple_with_cin(b, &ab, &bbb, one);
            for i in 0..s0.len() {
                sums.push(b.mux(carry, s0[i], s1[i]));
            }
            carry = b.mux(carry, c0, c1);
        }
        lo = hi;
    }
    (sums, carry)
}

fn kogge_stone_with_cin(b: &mut Builder, a: &Bus, bb: &Bus, cin: Net) -> (Vec<Net>, Net) {
    let w = a.width();
    let p0: Vec<Net> = (0..w).map(|i| b.xor(a.net(i), bb.net(i))).collect();
    let g0: Vec<Net> = (0..w).map(|i| b.and(a.net(i), bb.net(i))).collect();
    // Parallel-prefix combine: (G, P) spans grow by powers of two.
    let mut g = g0.clone();
    let mut p = p0.clone();
    let mut d = 1;
    while d < w {
        let mut g2 = g.clone();
        let mut p2 = p.clone();
        for i in d..w {
            let t = b.and(p[i], g[i - d]);
            g2[i] = b.or(g[i], t);
            p2[i] = b.and(p[i], p[i - d]);
        }
        g = g2;
        p = p2;
        d *= 2;
    }
    // Carry into bit i: span generate of [0, i-1] plus propagated cin.
    let mut carries = Vec::with_capacity(w + 1);
    carries.push(cin);
    for i in 0..w {
        let t = b.and(p[i], cin);
        carries.push(b.or(g[i], t));
    }
    let sums: Vec<Net> = (0..w).map(|i| b.xor(p0[i], carries[i])).collect();
    (sums, carries[w])
}

fn equalize(b: &mut Builder, a: &Bus, bb: &Bus) -> (Bus, Bus) {
    let w = a.width().max(bb.width());
    (b.resize_bus(a, w), b.resize_bus(bb, w))
}

/// Adds two buses (zero-extended to equal width) with an explicit carry-in;
/// the result is one bit wider than the widest operand.
pub(crate) fn add_bus_cin(b: &mut Builder, a: &Bus, bb: &Bus, cin: Net, kind: AdderKind) -> Bus {
    let (a, bb) = equalize(b, a, bb);
    let (mut sums, carry) = match kind {
        AdderKind::Ripple => ripple_with_cin(b, &a, &bb, cin),
        AdderKind::CarrySelect => carry_select_with_cin(b, &a, &bb, cin),
        AdderKind::KoggeStone => kogge_stone_with_cin(b, &a, &bb, cin),
    };
    sums.push(carry);
    Bus::from_nets(sums)
}

/// Adds two buses; result is one bit wider than the widest operand.
pub(crate) fn add_bus(b: &mut Builder, a: &Bus, bb: &Bus, kind: AdderKind) -> Bus {
    let zero = b.constant(false);
    add_bus_cin(b, a, bb, zero, kind)
}

/// Two's-complement wrapping add of equal-width views (carry-out dropped).
/// Operands are zero-extended to the widest width first, so for signed
/// arithmetic the caller must sign-extend explicitly.
pub(crate) fn add_bus_wrap(b: &mut Builder, a: &Bus, bb: &Bus, kind: AdderKind) -> Bus {
    let w = a.width().max(bb.width());
    let sum = add_bus(b, a, bb, kind);
    sum.slice(0..w)
}

/// Computes `a - b` (wrapping, same width as the widest operand) via
/// `a + !b + 1`. Callers must guarantee the true difference is
/// representable (the ASM pre-computer uses it only for `8I - I` style
/// identities where it always is).
pub(crate) fn sub_bus(b: &mut Builder, a: &Bus, bb: &Bus, kind: AdderKind) -> Bus {
    let (a, bb) = equalize(b, a, bb);
    let inv = Bus::from_nets((0..bb.width()).map(|i| b.not(bb.net(i))).collect());
    let one = b.constant(true);
    let sum = add_bus_cin(b, &a, &inv, one, kind);
    sum.slice(0..a.width())
}

/// A standalone `width`-bit adder circuit with input buses `a`, `b` and
/// output bus `sum` (`width + 1` bits).
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 63.
pub fn adder(width: usize, kind: AdderKind) -> Circuit {
    assert!((1..=63).contains(&width), "adder width must be in 1..=63");
    let mut b = Builder::new(format!("adder{width}_{kind:?}"));
    let a = b.input_bus("a", width);
    let bb = b.input_bus("b", width);
    let sum = add_bus(&mut b, &a, &bb, kind);
    b.output_bus("sum", &sum);
    Circuit::combinational(b.finish()).with_glitch_factor(match kind {
        AdderKind::Ripple => 1.25,
        AdderKind::CarrySelect => 1.2,
        AdderKind::KoggeStone => 1.15,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::eval::Evaluator;

    fn check_exhaustive(width: usize, kind: AdderKind) {
        let c = adder(width, kind);
        let mut sim = Evaluator::new(c.netlist());
        for a in 0..(1u64 << width) {
            for b in 0..(1u64 << width) {
                sim.step(&[("a", a), ("b", b)]);
                assert_eq!(sim.output("sum"), a + b, "{kind:?} {a}+{b}");
            }
        }
    }

    #[test]
    fn ripple_matches_integer_addition() {
        check_exhaustive(4, AdderKind::Ripple);
    }

    #[test]
    fn carry_select_matches_integer_addition() {
        check_exhaustive(5, AdderKind::CarrySelect);
    }

    #[test]
    fn kogge_stone_matches_integer_addition() {
        check_exhaustive(5, AdderKind::KoggeStone);
    }

    #[test]
    fn wide_adders_agree_on_samples() {
        for kind in AdderKind::CHEAPEST_FIRST {
            let c = adder(24, kind);
            let mut sim = Evaluator::new(c.netlist());
            let mut x = 0x1234_5678u64;
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(144);
                let a = x & 0xff_ffff;
                let b = (x >> 24) & 0xff_ffff;
                sim.step(&[("a", a), ("b", b)]);
                assert_eq!(sim.output("sum"), a + b, "{kind:?}");
            }
        }
    }

    #[test]
    fn sub_bus_subtracts() {
        let mut b = Builder::new("sub");
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let d = sub_bus(&mut b, &x, &y, AdderKind::Ripple);
        b.output_bus("d", &d);
        let nl = b.finish();
        let mut sim = Evaluator::new(&nl);
        for (a, c) in [(200u64, 60u64), (255, 0), (8, 1), (7, 7)] {
            sim.step(&[("x", a), ("y", c)]);
            assert_eq!(sim.output("d"), a - c);
        }
    }

    #[test]
    fn architecture_tradeoffs_hold() {
        let lib = CellLibrary::nominal_45nm();
        let rca = adder(16, AdderKind::Ripple);
        let csl = adder(16, AdderKind::CarrySelect);
        let ks = adder(16, AdderKind::KoggeStone);
        assert!(rca.area_um2(&lib) < csl.area_um2(&lib));
        assert!(csl.area_um2(&lib) < ks.area_um2(&lib));
        assert!(ks.comb_delay_ps(&lib) < csl.comb_delay_ps(&lib));
        assert!(csl.comb_delay_ps(&lib) < rca.comb_delay_ps(&lib));
    }

    #[test]
    fn kogge_stone_delay_is_logarithmic() {
        let lib = CellLibrary::nominal_45nm();
        let d8 = adder(8, AdderKind::KoggeStone).comb_delay_ps(&lib);
        let d32 = adder(32, AdderKind::KoggeStone).comb_delay_ps(&lib);
        // 4x the width should cost far less than 4x the delay.
        assert!(d32 < 2.5 * d8, "d8={d8} d32={d32}");
    }

    #[test]
    fn mixed_width_operands_zero_extend() {
        let mut b = Builder::new("mixed");
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 3);
        let s = add_bus(&mut b, &x, &y, AdderKind::Ripple);
        b.output_bus("s", &s);
        let nl = b.finish();
        let mut sim = Evaluator::new(&nl);
        sim.step(&[("x", 250), ("y", 7)]);
        assert_eq!(sim.output("s"), 257);
    }
}
