//! PLAN piecewise-linear sigmoid (Amin, Curtis & Hayes-Gill, 1997) — the
//! activation unit of the hardware neuron.
//!
//! The approximation uses only shifts and adds, which is why it is the
//! standard choice for digital neurons:
//!
//! | region            | y               |
//! |-------------------|-----------------|
//! | 0 ≤ x < 1         | x/4 + 0.5       |
//! | 1 ≤ x < 2.375     | x/8 + 0.625     |
//! | 2.375 ≤ x < 5     | x/32 + 0.84375  |
//! | x ≥ 5             | ~1 (saturated)  |
//!
//! with `y(-x) = 1 - y(x)`. [`plan_sigmoid_fixed`] is the bit-exact
//! reference implementation shared by the functional inference engine, and
//! the PLAN logic of [`activation_unit`] is its gate-level twin (they are
//! tested exhaustively against each other).

use crate::circuit::Circuit;
use crate::components::adder::{add_bus_wrap, sub_bus, AdderKind};
use crate::components::logic::ge_const;
use crate::components::mux::mux_tree;
use crate::netlist::{Builder, Bus};

/// Fixed-point interface of the activation unit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanParams {
    /// Input (accumulator) word length, two's complement.
    pub in_bits: u32,
    /// Input fractional bits.
    pub in_frac: u32,
    /// Output word length, unsigned. The output format is `Q0.out_bits`
    /// (all bits fractional): sigmoid outputs live in `[0, 1)` and feed the
    /// next layer's input magnitude directly, with an implicit positive
    /// sign.
    pub out_bits: u32,
}

impl PlanParams {
    /// Output fractional bits (`Q0.out_bits`: the whole word is fraction).
    pub(crate) fn out_frac(&self) -> u32 {
        self.out_bits
    }

    /// Validates the parameter combination.
    ///
    /// # Panics
    ///
    /// Panics if the segment thresholds or constants are not representable:
    /// requires `5 <= out_bits <= in_frac` and `in_bits > in_frac + 3`.
    pub(crate) fn validate(&self) {
        assert!(self.out_bits >= 5, "PLAN needs at least 5 output bits");
        assert!(
            self.in_frac >= self.out_frac(),
            "accumulator fraction must cover the output fraction"
        );
        assert!(
            self.in_bits > self.in_frac + 3,
            "input must represent the saturation threshold 5.0"
        );
        assert!(self.in_bits <= 63 && self.out_bits <= 63, "word too wide");
    }

    fn thresholds(&self) -> (u64, u64, u64) {
        let t1 = 1u64 << self.in_frac;
        let t2 = 19u64 << (self.in_frac - 3); // 2.375
        let t3 = 5u64 << self.in_frac;
        (t1, t2, t3)
    }
}

/// Bit-exact reference of the PLAN unit: maps a raw accumulator word to the
/// raw activation word. Shifts truncate, exactly as the hardware does.
///
/// # Panics
///
/// Panics if `params` is invalid (see `PlanParams::validate`).
pub fn plan_sigmoid_fixed(x_raw: i64, params: &PlanParams) -> u64 {
    params.validate();
    let neg = x_raw < 0;
    let mag = x_raw.unsigned_abs();
    let (t1, t2, t3) = params.thresholds();
    let of = params.out_frac();
    let down = params.in_frac - of;
    let shr = |v: u64, k: u32| if k >= 64 { 0 } else { v >> k };
    let out_max = (1u64 << params.out_bits) - 1; // saturation: 1 - 2^-out_bits
    let y_pos = if mag < t1 {
        shr(mag, 2 + down) + (1u64 << (of - 1))
    } else if mag < t2 {
        shr(mag, 3 + down) + (5u64 << (of - 3))
    } else if mag < t3 {
        shr(mag, 5 + down) + (27u64 << (of - 5))
    } else {
        out_max
    };
    let y_pos = y_pos.min(out_max);
    if neg {
        // 1.0 - y_pos; y_pos >= 0.5 so the result fits in out_bits.
        (1u64 << of) - y_pos
    } else {
        y_pos
    }
}

/// Emits the PLAN logic for an already-available input bus and returns the
/// output bus.
fn plan_sigmoid_body(b: &mut Builder, x: &Bus, params: &PlanParams, kind: AdderKind) -> Bus {
    let sign = x.net(params.in_bits as usize - 1);
    // |x| = (x XOR sign) + sign over the full width; for the most negative
    // word the magnitude 2^(in_bits-1) still fits in in_bits unsigned.
    let full = Bus::from_nets(
        (0..params.in_bits as usize)
            .map(|i| b.xor(x.net(i), sign))
            .collect(),
    );
    let zero = b.const_bus(0, params.in_bits as usize);
    let mag = {
        let s = crate::components::adder::add_bus_cin(b, &full, &zero, sign, kind);
        s.slice(0..params.in_bits as usize)
    };

    let (t1, t2, t3) = params.thresholds();
    let ge1 = ge_const(b, &mag, t1, kind);
    let ge2 = ge_const(b, &mag, t2, kind);
    let ge3 = ge_const(b, &mag, t3, kind);
    // Segment index: 0,1,2,3 -> binary select.
    let not_ge2 = b.not(ge2);
    let seg1 = b.and(ge1, not_ge2);
    let sel0 = b.or(seg1, ge3);
    let sel = Bus::from_nets(vec![sel0, ge2]);

    let ow = params.out_bits as usize;
    let of = params.out_frac();
    let down = params.in_frac - of;
    let shr = |b: &mut Builder, bus: &Bus, k: u32, w: usize| -> Bus {
        let zero = b.constant(false);
        Bus::from_nets(
            (0..w)
                .map(|i| {
                    let src = i + k as usize;
                    if src < bus.width() {
                        bus.net(src)
                    } else {
                        zero
                    }
                })
                .collect(),
        )
    };
    let mut options = Vec::with_capacity(4);
    for (k, c) in [
        (2 + down, 1u64 << (of - 1)),
        (3 + down, 5u64 << (of - 3)),
        (5 + down, 27u64 << (of - 5)),
    ] {
        let t = shr(b, &mag, k, ow);
        let cb = b.const_bus(c, ow);
        options.push(add_bus_wrap(b, &t, &cb, AdderKind::Ripple));
    }
    let out_max = (1u64 << params.out_bits) - 1;
    options.push(b.const_bus(out_max, ow));
    let y_pos = mux_tree(b, &sel, &options);
    // Negative side: y = 1.0 - y_pos, computed one bit wider then truncated
    // (the result is <= 0.5 so it always fits).
    let one = b.const_bus(1u64 << of, ow + 1);
    let y_pos_w = b.resize_bus(&y_pos, ow + 1);
    let y_neg = sub_bus(b, &one, &y_pos_w, kind).slice(0..ow);
    b.mux_bus(sign, &y_pos, &y_neg)
}

/// Bit-exact reference of the saturating range compressor in front of the
/// PLAN unit: re-expresses a raw accumulator word (`acc_bits` wide at
/// `acc_frac`) in the PLAN input format, clamping on overflow. The sigmoid
/// saturates at |x| ≥ 5, so the compressor loses nothing.
///
/// # Panics
///
/// Panics if `acc_frac < params.in_frac` (the compressor only drops
/// precision, never manufactures it).
pub(crate) fn range_compress_fixed(acc_raw: i64, acc_frac: u32, params: &PlanParams) -> i64 {
    assert!(
        acc_frac >= params.in_frac,
        "compressor cannot add precision"
    );
    let shift = acc_frac - params.in_frac;
    let shifted = acc_raw >> shift; // truncating arithmetic shift
    let max = (1i64 << (params.in_bits - 1)) - 1;
    let min = -(1i64 << (params.in_bits - 1));
    shifted.clamp(min, max)
}

/// The full activation unit: saturating range compressor + PLAN sigmoid in
/// one netlist. Input `acc` (`acc_bits`, two's complement at `acc_frac`),
/// output `y` (`params.out_bits`, unsigned `Q0.out_bits`).
///
/// # Panics
///
/// Panics if the parameters are inconsistent (see `PlanParams::validate`
/// and `range_compress_fixed`).
pub fn activation_unit(
    acc_bits: u32,
    acc_frac: u32,
    params: &PlanParams,
    kind: AdderKind,
) -> Circuit {
    params.validate();
    assert!(
        acc_frac >= params.in_frac,
        "compressor cannot add precision"
    );
    let shift = (acc_frac - params.in_frac) as usize;
    assert!(
        acc_bits as usize > shift,
        "accumulator too narrow for the requested shift"
    );
    let mut b = Builder::new(format!(
        "activation{}q{}_to_plan{}q{}_{kind:?}",
        acc_bits, acc_frac, params.in_bits, params.in_frac
    ));
    let acc = b.input_bus("acc", acc_bits as usize);
    let sign = acc.net(acc_bits as usize - 1);
    let iw = params.in_bits as usize;
    // Truncating shift (wiring), sign-extended if the accumulator is
    // narrower than the window.
    let window = Bus::from_nets(
        (0..iw)
            .map(|i| {
                let src = i + shift;
                if src < acc_bits as usize {
                    acc.net(src)
                } else {
                    sign
                }
            })
            .collect(),
    );
    // Overflow iff any dropped high bit disagrees with the sign.
    let high: Vec<_> = ((shift + iw - 1)..acc_bits as usize)
        .map(|i| b.xor(acc.net(i), sign))
        .collect();
    let overflow = crate::components::logic::or_tree(&mut b, &high);
    let max = b.const_bus((1u64 << (params.in_bits - 1)) - 1, iw);
    let min = b.const_bus(1u64 << (params.in_bits - 1), iw);
    let clamp = b.mux_bus(sign, &max, &min);
    let x = b.mux_bus(overflow, &window, &clamp);
    // Feed the compressed word into an inlined PLAN unit by re-binding it
    // as the "x" the PLAN logic reads. The PLAN builder expects its own
    // input bus, so replicate its body here via a helper.
    let y = plan_sigmoid_body(&mut b, &x, params, kind);
    b.output_bus("y", &y);
    Circuit::combinational(b.finish()).with_glitch_factor(1.1)
}

/// Bit-exact reference of the whole activation unit.
pub fn activation_unit_fixed(acc_raw: i64, acc_frac: u32, params: &PlanParams) -> u64 {
    plan_sigmoid_fixed(range_compress_fixed(acc_raw, acc_frac, params), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;

    /// The gate-level PLAN unit: input bus `x` (`in_bits`, two's complement),
    /// output bus `y` (`out_bits`, unsigned). `kind` selects the adder
    /// architecture of the carry chains (absolute value, comparators and the
    /// negative-side subtractor) so synthesis can trade area for speed.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    fn plan_sigmoid(params: &PlanParams, kind: AdderKind) -> Circuit {
        params.validate();
        let mut b = Builder::new(format!(
            "plan_sigmoid_{}q{}_to_q{}_{kind:?}",
            params.in_bits, params.in_frac, params.out_bits
        ));
        let x = b.input_bus("x", params.in_bits as usize);
        let y = plan_sigmoid_body(&mut b, &x, params, kind);
        b.output_bus("y", &y);
        Circuit::combinational(b.finish()).with_glitch_factor(1.1)
    }

    fn params() -> PlanParams {
        PlanParams {
            in_bits: 16,
            in_frac: 10,
            out_bits: 8,
        }
    }

    #[test]
    fn reference_tracks_true_sigmoid() {
        let p = params();
        for raw in (-(1i64 << 15)..(1i64 << 15)).step_by(97) {
            let x = raw as f64 / (1u64 << p.in_frac) as f64;
            let y = plan_sigmoid_fixed(raw, &p) as f64 / (1u64 << p.out_frac()) as f64;
            let s = 1.0 / (1.0 + (-x).exp());
            assert!((y - s).abs() < 0.04, "x={x} plan={y} sigmoid={s}");
        }
    }

    #[test]
    fn netlist_matches_reference_exhaustively() {
        let p = PlanParams {
            in_bits: 12,
            in_frac: 8,
            out_bits: 8,
        };
        for kind in AdderKind::CHEAPEST_FIRST {
            let c = plan_sigmoid(&p, kind);
            let mut sim = Evaluator::new(c.netlist());
            for raw in -(1i64 << 11)..(1i64 << 11) {
                let encoded = (raw as u64) & 0xfff;
                sim.step(&[("x", encoded)]);
                assert_eq!(
                    sim.output("y"),
                    plan_sigmoid_fixed(raw, &p),
                    "raw={raw} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn symmetry_point_at_zero() {
        let p = params();
        assert_eq!(
            plan_sigmoid_fixed(0, &p),
            1u64 << (p.out_frac() - 1),
            "sigmoid(0) = 0.5"
        );
    }

    #[test]
    fn saturates_beyond_five() {
        let p = params();
        let big = 6i64 << p.in_frac;
        assert_eq!(plan_sigmoid_fixed(big, &p), (1 << p.out_bits) - 1);
        // Negative saturation: 1.0 - (1 - 2^-out) = one LSB above zero.
        assert_eq!(plan_sigmoid_fixed(-big, &p), 1);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_params_rejected() {
        let p = PlanParams {
            in_bits: 16,
            in_frac: 6,
            out_bits: 8,
        };
        p.validate();
    }
}
