//! Property-based tests for the fixed-point substrate.

use man_fixed::bits::{apply_sign, join_groups, sign_magnitude, split_groups};
use man_fixed::quantize::round_to_range;
use man_fixed::{Accum, QFormat};
use proptest::prelude::*;

/// What `round_to_range` replaces: libm rounding, then a clamp.
fn round_then_clamp(x: f64, lo: i32, hi: i32) -> i32 {
    (x.round_ties_even() as i64).clamp(lo as i64, hi as i64) as i32
}

proptest! {
    /// Quantizing any in-range value introduces at most half an LSB of error.
    #[test]
    fn quantize_error_at_most_half_lsb(x in -1.9f64..1.9, frac in 0u32..8) {
        let fmt = QFormat::new(8, frac);
        if x <= fmt.max_value() && x >= fmt.min_value() {
            let q = fmt.quantize(x);
            prop_assert!((q.to_f64() - x).abs() <= fmt.resolution() / 2.0 + 1e-12);
        }
    }

    /// Quantization always lands inside the representable range.
    #[test]
    fn quantize_is_always_in_range(x in -1e6f64..1e6, bits in 2u32..16, frac_off in 0u32..4) {
        let frac = (bits - 1).saturating_sub(frac_off);
        let fmt = QFormat::new(bits, frac);
        let q = fmt.quantize(x);
        prop_assert!(fmt.contains_raw(q.raw() as i64));
    }

    /// Sign-magnitude decomposition round-trips for all non-clamped words.
    #[test]
    fn sign_magnitude_roundtrips(raw in -2047i32..=2047) {
        let (neg, mag) = sign_magnitude(raw, 12);
        prop_assert_eq!(apply_sign(mag as u64, neg), raw as i64);
    }

    /// Bit-group splitting round-trips for the paper's 8- and 12-bit layouts.
    #[test]
    fn split_join_roundtrips_8bit(mag in 0u32..128) {
        let widths = [4u32, 3];
        prop_assert_eq!(join_groups(&split_groups(mag, &widths), &widths), mag);
    }

    #[test]
    fn split_join_roundtrips_12bit(mag in 0u32..2048) {
        let widths = [4u32, 4, 3];
        prop_assert_eq!(join_groups(&split_groups(mag, &widths), &widths), mag);
    }

    /// Aligning an accumulator up then back down is lossless.
    #[test]
    fn accum_align_up_down_is_lossless(raw in -1_000_000i64..1_000_000, frac in 0u32..16, up in 0u32..8) {
        let acc = Accum::from_raw(raw, frac);
        prop_assert_eq!(acc.align(frac + up).align(frac), acc);
    }

    /// The widened product matches integer multiplication exactly.
    #[test]
    fn wide_mul_matches_integer_product(a in -128i64..=127, b in -128i64..=127) {
        let fmt = QFormat::new(8, 6);
        let fa = fmt.from_raw(a).unwrap();
        let fb = fmt.from_raw(b).unwrap();
        let p = fa.wide_mul(fb);
        prop_assert_eq!(p.raw(), a * b);
        prop_assert_eq!(p.frac(), 12);
    }

    /// `fitting` always produces a format that can represent the value.
    #[test]
    fn fitting_always_fits(max_abs in 0.0f64..1000.0, bits in 2u32..16) {
        let fmt = QFormat::fitting(bits, max_abs);
        if max_abs <= fmt.max_value() {
            // Representable: quantization saturation cannot trigger.
            let q = fmt.quantize(max_abs);
            prop_assert!((q.to_f64() - max_abs).abs() <= fmt.resolution() / 2.0 + 1e-12);
        }
        // Even when max_abs exceeds the widest format, the fraction is valid.
        prop_assert!(fmt.frac() < bits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The add-and-subtract rounding equals `round_ties_even` followed by
    /// a clamp, for every word length, on random values, random bit
    /// patterns, exact half-way points and the special values — both into
    /// a format's signed range (`QFormat::quantize`) and into the unsigned
    /// input-activation range.
    #[test]
    fn round_to_range_is_round_ties_even_then_clamp(
        bits in 2u32..=32,
        frac_pick in any::<u32>(),
        x in -4.0f64..4.0,
        word in any::<i64>(),
        pattern in any::<u64>(),
    ) {
        let fmt = QFormat::new(bits, frac_pick % bits);
        let scale = fmt.scale();
        let (lo, hi) = (fmt.min_raw(), fmt.max_raw());
        // An integer a little beyond either end of the range.
        let span = hi as i64 - lo as i64 + 5;
        let k = (lo as i64 - 2 + word.rem_euclid(span)) as f64;
        let values = [
            x * scale,
            x,
            f64::from_bits(pattern),
            k,
            k + 0.5,
            k - 0.5,
            k + 0.25,
            hi as f64 + 0.5,
            lo as f64 - 0.5,
            0.5,
            -0.5,
            1.5,
            -1.5,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
        ];
        for v in values {
            prop_assert_eq!(round_to_range(v, lo, hi), round_then_clamp(v, lo, hi), "{} into {}", v, fmt);
            prop_assert_eq!(round_to_range(v, 0, hi), round_then_clamp(v, 0, hi), "{} into 0..={}", v, hi);
            prop_assert_eq!(fmt.quantize(v / scale).raw(), round_then_clamp(v, lo, hi), "{} in {}", v, fmt);
        }
    }
}
