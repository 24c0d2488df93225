//! Bulk quantization helpers for tensors of trained weights and activations.
//!
//! The design methodology quantizes every layer's weights into a fixed word
//! length (8 or 12 bits) with a per-layer fraction chosen so the largest
//! weight magnitude still fits ([`fit_format`]). These helpers operate on
//! plain `f32` slices so the neural-network substrate does not need to know
//! about fixed-point types.

use crate::QFormat;

/// `1.5 · 2^52`: adding it to any `|x| < 2^51` leaves a sum whose unit in
/// the last place is 1, so the addition itself rounds `x` to an integer
/// under the default round-half-to-even mode, and subtracting it back is
/// exact.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Rounds `x` half to even and clamps it into `[lo, hi]` — exactly
/// `(x.round_ties_even() as i64).clamp(lo, hi)`, with `NaN` taken as 0 and
/// infinities saturating — without the libm call `round_ties_even` is on
/// targets without SSE4.1. The value is clamped first (rounding is
/// monotone and the bounds are integers, so the order does not matter),
/// then rounded by adding and subtracting `1.5 · 2^52`.
///
/// [`QFormat::quantize`] rounds through it.
///
/// # Example
///
/// ```
/// use man_fixed::quantize::round_to_range;
///
/// assert_eq!(round_to_range(2.5, -128, 127), 2);
/// assert_eq!(round_to_range(-3.5, -128, 127), -4);
/// assert_eq!(round_to_range(1e300, -128, 127), 127);
/// assert_eq!(round_to_range(f64::NAN, 1, 127), 1);
/// ```
#[inline]
pub fn round_to_range(x: f64, lo: i32, hi: i32) -> i32 {
    debug_assert!(lo <= hi, "empty range {lo}..={hi}");
    let clamped = if x < lo as f64 {
        lo as f64
    } else if x > hi as f64 {
        hi as f64
    } else {
        x
    };
    // NaN passes both comparisons, stays NaN and casts to 0.
    let rounded = ((clamped + ROUND_MAGIC) - ROUND_MAGIC) as i32;
    rounded.clamp(lo, hi)
}

/// Largest absolute value in a slice (0.0 for an empty slice; NaNs ignored).
pub(crate) fn max_abs(values: &[f32]) -> f64 {
    values
        .iter()
        .filter(|v| !v.is_nan())
        .fold(0.0f64, |m, &v| m.max((v as f64).abs()))
}

/// Chooses the `bits`-wide format with the most fractional bits that still
/// represents every value in `values`.
///
/// # Example
///
/// ```
/// use man_fixed::quantize::fit_format;
///
/// let fmt = fit_format(8, &[0.25, -0.9, 0.1]);
/// assert_eq!(fmt.frac(), 7);
/// ```
pub fn fit_format(bits: u32, values: &[f32]) -> QFormat {
    QFormat::fitting(bits, max_abs(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_ignores_nan() {
        assert_eq!(max_abs(&[1.0, -3.0, f32::NAN]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
