use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::format::QFormat;

/// A scalar fixed-point value: a raw two's-complement word paired with its
/// [`QFormat`].
///
/// Arithmetic in the inference engine goes through [`Accum`], which carries
/// the widened raw product explicitly.
///
/// # Example
///
/// ```
/// use man_fixed::QFormat;
///
/// let fmt = QFormat::new(8, 6);
/// let a = fmt.quantize(0.75);
/// assert_eq!(a.raw(), 48);
/// assert_eq!(a.to_f64(), 0.75);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fx {
    raw: i32,
    format: QFormat,
}

impl Fx {
    pub(crate) fn from_parts(raw: i32, format: QFormat) -> Self {
        debug_assert!(format.contains_raw(raw as i64));
        Self { raw, format }
    }

    /// The raw two's-complement word.
    pub const fn raw(&self) -> i32 {
        self.raw
    }

    /// The real value `raw / 2^frac`.
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 / self.format.scale()
    }

    /// Full-precision product: the raw words multiply exactly into an
    /// [`Accum`] whose fraction is the sum of the operand fractions.
    pub fn wide_mul(self, rhs: Fx) -> Accum {
        Accum {
            raw: self.raw as i64 * rhs.raw as i64,
            frac: self.format.frac() + rhs.format.frac(),
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.to_f64(), self.format)
    }
}

impl PartialOrd for Fx {
    /// Values are ordered only within the same format; comparing across
    /// formats yields `None`.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.format == other.format {
            Some(self.raw.cmp(&other.raw))
        } else {
            None
        }
    }
}

/// Rounds `raw / 2^shift` to the nearest integer, ties to even.
///
/// Works for negative `raw` because the remainder after an arithmetic
/// right-shift is always non-negative.
fn shift_round_ties_even(raw: i64, shift: u32) -> i64 {
    if shift == 0 {
        return raw;
    }
    if shift >= 63 {
        // The magnitude of any i64 divided by 2^63 rounds to 0 except at the
        // very extremes, which saturate later anyway.
        return 0;
    }
    let floor = raw >> shift;
    let rem = raw - (floor << shift);
    let half = 1i64 << (shift - 1);
    match rem.cmp(&half) {
        Ordering::Less => floor,
        Ordering::Greater => floor + 1,
        Ordering::Equal => {
            if floor & 1 == 0 {
                floor
            } else {
                floor + 1
            }
        }
    }
}

/// A widened multiply-accumulate register: a 64-bit raw sum at a fixed
/// fraction.
///
/// Mirrors the accumulator in a digital neuron: products from
/// [`Fx::wide_mul`] are summed exactly.
///
/// # Example
///
/// ```
/// use man_fixed::{Accum, QFormat};
///
/// let fmt = QFormat::new(8, 6);
/// let mut acc = Accum::zero(12);
/// acc.add(fmt.quantize(0.5).wide_mul(fmt.quantize(0.5)));
/// acc.add(fmt.quantize(0.25).wide_mul(fmt.quantize(0.5)));
/// assert_eq!(acc.to_f64(), 0.375);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Accum {
    raw: i64,
    frac: u32,
}

impl Accum {
    /// A zero accumulator with `frac` fractional bits.
    pub fn zero(frac: u32) -> Self {
        Self { raw: 0, frac }
    }

    /// Builds an accumulator from raw parts.
    pub fn from_raw(raw: i64, frac: u32) -> Self {
        Self { raw, frac }
    }

    /// The raw widened word.
    pub const fn raw(&self) -> i64 {
        self.raw
    }

    /// The fraction the raw word is expressed at.
    pub const fn frac(&self) -> u32 {
        self.frac
    }

    /// Adds another accumulator value.
    ///
    /// # Panics
    ///
    /// Panics if the fractions differ (products of differently scaled layers
    /// must be aligned explicitly with [`Accum::align`]).
    pub fn add(&mut self, rhs: Accum) {
        assert_eq!(self.frac, rhs.frac, "fraction mismatch in accumulate");
        self.raw += rhs.raw;
    }

    /// Re-expresses the accumulator at another fraction, rounding half to
    /// even when precision is dropped.
    pub fn align(self, frac: u32) -> Accum {
        if frac >= self.frac {
            Accum {
                raw: self.raw << (frac - self.frac),
                frac,
            }
        } else {
            Accum {
                raw: shift_round_ties_even(self.raw, self.frac - frac),
                frac,
            }
        }
    }

    /// The real value of the accumulator.
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 / (1u64 << self.frac) as f64
    }
}

impl fmt::Display for Accum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (raw {} @ frac {})",
            self.to_f64(),
            self.raw,
            self.frac
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt8() -> QFormat {
        QFormat::new(8, 6)
    }

    #[test]
    fn wide_mul_is_exact() {
        let fmt = fmt8();
        let a = fmt.from_raw(-77).unwrap();
        let b = fmt.from_raw(113).unwrap();
        let p = a.wide_mul(b);
        assert_eq!(p.raw(), -77 * 113);
        assert_eq!(p.frac(), 12);
        assert!((p.to_f64() - a.to_f64() * b.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn align_round_trip_up_then_down() {
        let acc = Accum::from_raw(1234, 6);
        assert_eq!(acc.align(10).align(6), acc);
    }

    #[test]
    fn shift_rounding_ties_to_even() {
        // 3/2 = 1.5 -> 2, 1/2 = 0.5 -> 0, -1/2 -> 0, -3/2 -> -2.
        assert_eq!(shift_round_ties_even(3, 1), 2);
        assert_eq!(shift_round_ties_even(1, 1), 0);
        assert_eq!(shift_round_ties_even(-1, 1), 0);
        assert_eq!(shift_round_ties_even(-3, 1), -2);
        // Non-tie cases round to nearest.
        assert_eq!(shift_round_ties_even(5, 2), 1);
        assert_eq!(shift_round_ties_even(7, 2), 2);
        assert_eq!(shift_round_ties_even(-5, 2), -1);
        assert_eq!(shift_round_ties_even(-7, 2), -2);
    }

    #[test]
    fn ordering_only_within_format() {
        let a = fmt8().quantize(0.25);
        let b = fmt8().quantize(0.5);
        assert!(a < b);
        let c = QFormat::new(12, 6).quantize(0.5);
        assert_eq!(a.partial_cmp(&c), None);
    }
}
