//! Multiply-accumulate stages of the digital neuron.
//!
//! The datapath is split at the natural pipeline boundary: the
//! *multiplication stage* (conventional multiplier or ASM select/shift/add)
//! is feed-forward and may be pipelined to meet the clock, while the
//! *accumulate stage* closes a single-cycle loop through the accumulator
//! register and must fit in one period as-is.
//!
//! Products travel in sign-magnitude form: the multiplication stage emits
//! `(p_mag, p_sign)` and the accumulate stage absorbs the sign with an XOR
//! row plus a carry injection (`acc − p = acc + ~p + 1`). This avoids a
//! carry-propagate negater in the product path; conventional and ASM lanes
//! use the identical arrangement, so comparisons between them stay fair.

use crate::circuit::Circuit;
use crate::components::adder::{add_bus_cin, AdderKind};
use crate::components::multiplier::{mul_bus, MultiplierKind};
use crate::netlist::{Builder, Bus, Net};

/// Product magnitude width of a `bits`-wide neuron: magnitudes are
/// `bits - 1` wide, so the product magnitude needs `2·(bits-1)` bits.
pub fn product_bits(bits: u32) -> u32 {
    2 * (bits - 1)
}

/// Accumulator width for a `bits`-wide neuron summing up to `max_fan_in`
/// products without overflow (one sign bit plus fan-in growth).
pub(crate) fn accumulator_bits(bits: u32, max_fan_in: u32) -> u32 {
    let growth = 32 - (max_fan_in - 1).leading_zeros();
    product_bits(bits) + 1 + growth
}

/// The conventional multiplication stage.
///
/// Inputs: `w_mag`, `x_mag` (`bits-1` each), `w_sign`, `x_sign` (1 each).
/// Outputs: `p_mag` (`2·(bits-1)`), `p_sign` (1).
pub(crate) fn conventional_mult_stage(bits: u32, kind: MultiplierKind) -> Circuit {
    assert!((3..=16).contains(&bits), "neuron width must be in 3..=16");
    let w = bits as usize - 1;
    let mut b = Builder::new(format!("mult_stage{bits}_{kind:?}"));
    let w_mag = b.input_bus("w_mag", w);
    let x_mag = b.input_bus("x_mag", w);
    let w_sign = b.input_bus("w_sign", 1);
    let x_sign = b.input_bus("x_sign", 1);
    let mag = mul_bus(&mut b, &w_mag, &x_mag, kind);
    let sign = b.xor(w_sign.net(0), x_sign.net(0));
    b.output_bus("p_mag", &mag);
    b.output_bus("p_sign", &Bus::from_nets(vec![sign]));
    Circuit::combinational(b.finish())
        .with_glitch_factor(crate::components::multiplier::multiplier_glitch(kind, w))
}

/// XOR-conditioned product: zero-extend `p_mag` to `acc_bits` and flip every
/// bit when `p_sign` is set; adding 1 (via a carry injection) completes the
/// two's-complement negation inside the accumulator.
fn sign_conditioned(b: &mut Builder, p_mag: &Bus, p_sign: Net, acc_bits: u32) -> Bus {
    let ext = b.resize_bus(p_mag, acc_bits as usize);
    Bus::from_nets(
        (0..acc_bits as usize)
            .map(|i| b.xor(ext.net(i), p_sign))
            .collect(),
    )
}

/// The carry-propagate accumulate stage:
/// `acc_next = acc ± p_mag` (wrapping), sign absorbed via XOR + carry-in.
///
/// Inputs: `p_mag` ([`product_bits`]), `p_sign` (1), `acc` (`acc_bits`).
/// Output: `acc_next` (`acc_bits`). Carries `acc_bits` register bits.
pub fn acc_stage(bits: u32, acc_bits: u32, kind: AdderKind) -> Circuit {
    let pw = product_bits(bits) as usize;
    assert!(acc_bits as usize > pw, "accumulator narrower than product");
    let mut b = Builder::new(format!("acc_stage{bits}_{acc_bits}_{kind:?}"));
    let p_mag = b.input_bus("p_mag", pw);
    let p_sign = b.input_bus("p_sign", 1);
    let acc = b.input_bus("acc", acc_bits as usize);
    let p_x = sign_conditioned(&mut b, &p_mag, p_sign.net(0), acc_bits);
    let next = add_bus_cin(&mut b, &acc, &p_x, p_sign.net(0), kind);
    b.output_bus("acc_next", &next.slice(0..acc_bits as usize));
    Circuit::combinational(b.finish())
        .with_regs(acc_bits)
        .with_glitch_factor(1.2)
}

/// The carry-save accumulate stage used when no carry-propagate adder can
/// close the accumulate loop in one cycle (e.g. a 25-bit accumulator at
/// 3 GHz). The running sum is held redundantly as `(sum, carry)` register
/// pairs; each cycle is a single 3:2 compressor row — one full-adder deep
/// regardless of width. The product sign's `+1` rides in the free LSB of
/// the shifted carry word. A carry-propagate [`resolve_adder`] converts the
/// redundant pair to a plain word once per neuron, before the activation.
///
/// Inputs: `p_mag`, `p_sign`, `acc_s`, `acc_c`.
/// Outputs: `acc_s_next`, `acc_c_next`. Carries `2 × acc_bits` register
/// bits.
///
/// Invariant: `acc_s_next + acc_c_next ≡ acc_s + acc_c ± p (mod 2^acc_bits)`.
pub(crate) fn acc_stage_carry_save(bits: u32, acc_bits: u32) -> Circuit {
    let pw = product_bits(bits) as usize;
    assert!(acc_bits as usize > pw, "accumulator narrower than product");
    let mut b = Builder::new(format!("acc_stage{bits}_{acc_bits}_CarrySave"));
    let p_mag = b.input_bus("p_mag", pw);
    let p_sign = b.input_bus("p_sign", 1);
    let acc_s = b.input_bus("acc_s", acc_bits as usize);
    let acc_c = b.input_bus("acc_c", acc_bits as usize);
    let p_x = sign_conditioned(&mut b, &p_mag, p_sign.net(0), acc_bits);
    let mut s_next = Vec::with_capacity(acc_bits as usize);
    let mut c_next = Vec::with_capacity(acc_bits as usize);
    c_next.push(p_sign.net(0)); // the +1 of the two's-complement negation
    for i in 0..acc_bits as usize {
        let (s, c) =
            crate::components::adder::full_adder(&mut b, p_x.net(i), acc_s.net(i), acc_c.net(i));
        s_next.push(s);
        if i + 1 < acc_bits as usize {
            c_next.push(c);
        }
    }
    b.output_bus("acc_s_next", &Bus::from_nets(s_next));
    b.output_bus("acc_c_next", &Bus::from_nets(c_next));
    Circuit::combinational(b.finish())
        .with_regs(2 * acc_bits)
        .with_glitch_factor(1.05)
}

/// Resolves a carry-save pair into a plain accumulator word:
/// `acc = s + c` (wrapping). Feed-forward, so it may be pipelined.
pub(crate) fn resolve_adder(acc_bits: u32, kind: AdderKind) -> Circuit {
    let mut b = Builder::new(format!("resolve{acc_bits}_{kind:?}"));
    let s = b.input_bus("s", acc_bits as usize);
    let c = b.input_bus("c", acc_bits as usize);
    let acc = crate::components::adder::add_bus(&mut b, &s, &c, kind);
    b.output_bus("acc", &acc.slice(0..acc_bits as usize));
    Circuit::combinational(b.finish()).with_glitch_factor(1.2)
}

/// Software twin of one carry-save accumulation step (for the functional
/// engine's operand-stream generation): returns `(s_next, c_next)` over
/// `acc_bits`-wide words, for a product in sign-magnitude form.
pub fn carry_save_step(p_mag: u64, p_sign: bool, s: u64, c: u64, acc_bits: u32) -> (u64, u64) {
    let mask = if acc_bits == 64 {
        u64::MAX
    } else {
        (1u64 << acc_bits) - 1
    };
    let p = if p_sign { !p_mag & mask } else { p_mag & mask };
    let sum = p ^ s ^ c;
    let carry = (((p & s) | (c & (p ^ s))) << 1) | p_sign as u64;
    (sum & mask, carry & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;

    fn signed_of(value: u64, bits: u32) -> i64 {
        let m = 1u64 << (bits - 1);
        (value as i64 & (m as i64 - 1)) - (value as i64 & m as i64)
    }

    #[test]
    fn conventional_stage_multiplies_signed_samples() {
        let c = conventional_mult_stage(8, MultiplierKind::Wallace(AdderKind::Ripple));
        let mut sim = Evaluator::new(c.netlist());
        let cases = [(0i64, 5i64), (127, 127), (-127, 127), (99, -3), (-1, -1)];
        for (wv, xv) in cases {
            sim.step(&[
                ("w_mag", wv.unsigned_abs()),
                ("x_mag", xv.unsigned_abs()),
                ("w_sign", (wv < 0) as u64),
                ("x_sign", (xv < 0) as u64),
            ]);
            assert_eq!(sim.output("p_mag"), (wv * xv).unsigned_abs(), "{wv}*{xv}");
            assert_eq!(sim.output("p_sign"), ((wv < 0) ^ (xv < 0)) as u64);
        }
    }

    #[test]
    fn accumulator_integrates_signed_products() {
        let acc_bits = accumulator_bits(8, 1024);
        let c = acc_stage(8, acc_bits, AdderKind::KoggeStone);
        assert_eq!(c.regs(), acc_bits);
        let mut sim = Evaluator::new(c.netlist());
        let mask = (1u64 << acc_bits) - 1;
        let mut acc = 0i64;
        for p in [100i64, -50, 16129, -16129, 7, -1] {
            sim.step(&[
                ("p_mag", p.unsigned_abs()),
                ("p_sign", (p < 0) as u64),
                ("acc", (acc as u64) & mask),
            ]);
            acc += p;
            assert_eq!(signed_of(sim.output("acc_next"), acc_bits), acc);
        }
    }

    #[test]
    fn accumulator_width_covers_worst_case() {
        // 1024 inputs of ±127·127 each must not overflow.
        let acc_bits = accumulator_bits(8, 1024);
        let worst = 1024i64 * 127 * 127;
        assert!(worst < 1i64 << (acc_bits - 1), "acc_bits={acc_bits}");
    }

    #[test]
    fn carry_save_loop_matches_plain_accumulation() {
        let acc_bits = accumulator_bits(8, 1024);
        let cs = acc_stage_carry_save(8, acc_bits);
        let resolve = resolve_adder(acc_bits, AdderKind::Ripple);
        let mut sim = Evaluator::new(cs.netlist());
        let mut rsim = Evaluator::new(resolve.netlist());
        let (mut s, mut c) = (0u64, 0u64);
        let mut expect = 0i64;
        for p in [16129i64, -16129, 1, -1, 777, -9999, 16129, 16129] {
            sim.step(&[
                ("p_mag", p.unsigned_abs()),
                ("p_sign", (p < 0) as u64),
                ("acc_s", s),
                ("acc_c", c),
            ]);
            let (s2, c2) = (sim.output("acc_s_next"), sim.output("acc_c_next"));
            // Netlist agrees with the software twin.
            assert_eq!(
                (s2, c2),
                carry_save_step(p.unsigned_abs(), p < 0, s, c, acc_bits)
            );
            s = s2;
            c = c2;
            expect += p;
            rsim.step(&[("s", s), ("c", c)]);
            assert_eq!(
                signed_of(rsim.output("acc"), acc_bits),
                expect,
                "resolved accumulator"
            );
        }
    }

    #[test]
    fn carry_save_stage_is_one_full_adder_deep() {
        let lib = crate::cell::CellLibrary::nominal_45nm();
        let acc_bits = accumulator_bits(12, 1024);
        let cs = acc_stage_carry_save(12, acc_bits);
        // Depth must not grow with width: the sign-conditioning XOR row
        // followed by one full adder (whose carry path is XOR -> AND -> OR).
        let xor = lib.params(crate::cell::CellKind::Xor2).delay_ps;
        let and = lib.params(crate::cell::CellKind::And2).delay_ps;
        let or = lib.params(crate::cell::CellKind::Or2).delay_ps;
        let fa_depth = (2.0 * xor).max(xor + and + or);
        assert!(cs.comb_delay_ps(&lib) <= xor + fa_depth + 1e-9);
    }
}
