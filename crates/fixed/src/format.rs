use std::fmt;

use serde::{Deserialize, Serialize};

use crate::quantize::round_to_range;
use crate::value::Fx;

/// A two's-complement fixed-point format: `bits` total word length
/// (including the sign bit) and `frac` fractional bits.
///
/// The representable raw range is `[-2^(bits-1), 2^(bits-1) - 1]` and a raw
/// word `r` denotes the real value `r / 2^frac`. The paper's neurons use
/// `QFormat::new(8, f)` and `QFormat::new(12, f)` words for both inputs and
/// synapse weights, with `f` chosen per layer so the weight range fits
/// (see [`QFormat::fitting`]).
///
/// # Example
///
/// ```
/// use man_fixed::QFormat;
///
/// let fmt = QFormat::new(8, 6);
/// assert_eq!(fmt.max_value(), 1.984375); // (2^7 - 1) / 2^6
/// assert_eq!(fmt.min_value(), -2.0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    bits: u32,
    frac: u32,
}

impl QFormat {
    /// Creates a format with `bits` total word length and `frac` fractional
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=32` or if `frac > bits - 1` (at least
    /// the sign bit must remain).
    pub const fn new(bits: u32, frac: u32) -> Self {
        assert!(bits >= 2 && bits <= 32, "word length must be in 2..=32");
        assert!(frac < bits, "fractional bits must leave a sign bit");
        Self { bits, frac }
    }

    /// Total word length in bits, including the sign bit.
    pub const fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of fractional bits.
    pub const fn frac(&self) -> u32 {
        self.frac
    }

    /// Number of integer (non-sign, non-fractional) bits.
    pub(crate) const fn int_bits(&self) -> u32 {
        self.bits - 1 - self.frac
    }

    /// The scaling factor `2^frac` mapping real values to raw words.
    pub fn scale(&self) -> f64 {
        (1u64 << self.frac) as f64
    }

    /// The value of one least-significant bit, `2^-frac`.
    pub fn resolution(&self) -> f64 {
        1.0 / self.scale()
    }

    /// Largest representable raw word, `2^(bits-1) - 1`.
    pub const fn max_raw(&self) -> i32 {
        ((1u64 << (self.bits - 1)) - 1) as i32
    }

    /// Smallest representable raw word, `-2^(bits-1)`.
    pub const fn min_raw(&self) -> i32 {
        -((1u64 << (self.bits - 1)) as i64) as i32
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 / self.scale()
    }

    /// Smallest (most negative) representable real value.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 / self.scale()
    }

    /// Returns `true` if `raw` fits in this format.
    pub fn contains_raw(&self, raw: i64) -> bool {
        raw >= self.min_raw() as i64 && raw <= self.max_raw() as i64
    }

    /// Quantizes a real value: scale by `2^frac`, round half to even, and
    /// saturate into range (see [`crate::quantize::round_to_range`]).
    ///
    /// Non-finite inputs are handled conservatively: `NaN` quantizes to zero
    /// and infinities saturate.
    #[inline]
    pub fn quantize(&self, x: f64) -> Fx {
        let raw = round_to_range(x * self.scale(), self.min_raw(), self.max_raw());
        Fx::from_parts(raw, *self)
    }

    /// Builds a value from a raw word.
    ///
    /// # Errors
    ///
    /// Returns [`RawOutOfRangeError`] if `raw` does not fit in this format.
    pub fn from_raw(&self, raw: i64) -> Result<Fx, RawOutOfRangeError> {
        if self.contains_raw(raw) {
            Ok(Fx::from_parts(raw as i32, *self))
        } else {
            Err(RawOutOfRangeError { raw, format: *self })
        }
    }

    /// Chooses the format with `bits` total bits and the largest fraction
    /// such that `max_abs` is still representable.
    ///
    /// This is the per-layer format fitter used when quantizing trained
    /// weights: the more headroom a layer's weights need, the fewer
    /// fractional bits remain.
    ///
    /// # Example
    ///
    /// ```
    /// use man_fixed::QFormat;
    ///
    /// // Weights up to ±0.9 fit in Q0.7 (8-bit).
    /// assert_eq!(QFormat::fitting(8, 0.9).frac(), 7);
    /// // Weights up to ±3.5 need two integer bits.
    /// assert_eq!(QFormat::fitting(8, 3.5).frac(), 5);
    /// ```
    pub fn fitting(bits: u32, max_abs: f64) -> QFormat {
        let max_abs = if max_abs.is_finite() && max_abs > 0.0 {
            max_abs
        } else {
            1.0
        };
        for frac in (0..bits).rev() {
            let fmt = QFormat::new(bits, frac);
            if max_abs <= fmt.max_value() {
                return fmt;
            }
        }
        QFormat::new(bits, 0)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{} ({}b)", self.int_bits(), self.frac, self.bits)
    }
}

/// Error returned by [`QFormat::from_raw`] when a raw word does not fit the
/// format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawOutOfRangeError {
    /// The offending raw word.
    pub(crate) raw: i64,
    /// The format it was checked against.
    pub(crate) format: QFormat,
}

impl fmt::Display for RawOutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "raw word {} does not fit {} (range {}..={})",
            self.raw,
            self.format,
            self.format.min_raw(),
            self.format.max_raw()
        )
    }
}

impl std::error::Error for RawOutOfRangeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_endpoints() {
        let fmt = QFormat::new(8, 6);
        assert_eq!(fmt.max_raw(), 127);
        assert_eq!(fmt.min_raw(), -128);
        assert_eq!(fmt.max_value(), 127.0 / 64.0);
        assert_eq!(fmt.min_value(), -2.0);
        assert_eq!(fmt.int_bits(), 1);
    }

    #[test]
    fn quantize_rounds_half_to_even() {
        let fmt = QFormat::new(8, 0);
        assert_eq!(fmt.quantize(0.5).raw(), 0);
        assert_eq!(fmt.quantize(1.5).raw(), 2);
        assert_eq!(fmt.quantize(2.5).raw(), 2);
        assert_eq!(fmt.quantize(-0.5).raw(), 0);
        assert_eq!(fmt.quantize(-1.5).raw(), -2);
    }

    #[test]
    fn quantize_saturates() {
        let fmt = QFormat::new(8, 6);
        assert_eq!(fmt.quantize(100.0).raw(), 127);
        assert_eq!(fmt.quantize(-100.0).raw(), -128);
        assert_eq!(fmt.quantize(f64::INFINITY).raw(), 127);
        assert_eq!(fmt.quantize(f64::NEG_INFINITY).raw(), -128);
        assert_eq!(fmt.quantize(f64::NAN).raw(), 0);
    }

    #[test]
    fn from_raw_validates() {
        let fmt = QFormat::new(8, 4);
        assert!(fmt.from_raw(127).is_ok());
        assert!(fmt.from_raw(128).is_err());
        assert!(fmt.from_raw(-128).is_ok());
        assert!(fmt.from_raw(-129).is_err());
        let err = fmt.from_raw(300).unwrap_err();
        assert!(err.to_string().contains("300"));
    }

    #[test]
    fn fitting_picks_largest_fraction() {
        assert_eq!(QFormat::fitting(8, 0.5).frac(), 7);
        assert_eq!(QFormat::fitting(8, 1.0).frac(), 6);
        assert_eq!(QFormat::fitting(12, 0.9).frac(), 11);
        // Degenerate guards.
        assert_eq!(QFormat::fitting(8, 0.0).frac(), 6);
        assert_eq!(QFormat::fitting(8, f64::NAN).frac(), 6);
    }

    #[test]
    #[should_panic(expected = "word length")]
    fn new_rejects_wide_words() {
        let _ = QFormat::new(33, 0);
    }

    #[test]
    #[should_panic(expected = "sign bit")]
    fn new_rejects_all_fraction() {
        let _ = QFormat::new(8, 8);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(QFormat::new(8, 6).to_string(), "Q1.6 (8b)");
        assert_eq!(QFormat::new(12, 8).to_string(), "Q3.8 (12b)");
    }
}
