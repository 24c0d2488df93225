//! Quartet decomposition of weight magnitudes (Fig. 4 of the paper).
//!
//! A `bits`-wide two's-complement weight has a `bits - 1`-bit magnitude
//! that splits into 4-bit groups, LSB first; the MSB group absorbs the
//! remainder (3 bits for the paper's 8- and 12-bit words, because the sign
//! is handled separately).

use man_fixed::bits::{join_groups, split_groups};
use serde::{Deserialize, Serialize};

/// The quartet layout for a given weight word length.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuartetScheme {
    bits: u32,
    widths: Vec<u32>,
}

impl QuartetScheme {
    /// The scheme for `bits`-wide weights.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `3..=16`.
    pub fn for_bits(bits: u32) -> Self {
        assert!((3..=16).contains(&bits), "weight width must be in 3..=16");
        let mut rem = bits - 1;
        let mut widths = Vec::new();
        while rem > 0 {
            let w = rem.min(4);
            widths.push(w);
            rem -= w;
        }
        Self { bits, widths }
    }

    /// Group widths, LSB first (e.g. `[4, 3]` for 8-bit weights).
    pub(crate) fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Splits a magnitude into quartet values, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `mag` does not fit in `bits - 1` bits.
    pub fn decompose(&self, mag: u32) -> Vec<u32> {
        split_groups(mag, &self.widths)
    }

    /// Reassembles quartet values into a magnitude.
    ///
    /// # Panics
    ///
    /// Panics if any quartet overflows its width.
    pub fn reconstruct(&self, quartets: &[u32]) -> u32 {
        join_groups(quartets, &self.widths)
    }

    /// Largest representable magnitude.
    pub fn max_magnitude(&self) -> u32 {
        (1u32 << (self.bits - 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layouts() {
        assert_eq!(QuartetScheme::for_bits(8).widths(), &[4, 3]);
        assert_eq!(QuartetScheme::for_bits(12).widths(), &[4, 4, 3]);
        assert_eq!(QuartetScheme::for_bits(8).max_magnitude(), 127);
        assert_eq!(QuartetScheme::for_bits(12).max_magnitude(), 2047);
    }

    #[test]
    fn table1_decompositions() {
        // Table I: W1 = 105 = 0b110_1001 -> quartets [9, 6];
        //          W2 = 66 = 0b100_0010 -> quartets [2, 4].
        let s = QuartetScheme::for_bits(8);
        assert_eq!(s.decompose(105), vec![9, 6]);
        assert_eq!(s.decompose(66), vec![2, 4]);
        assert_eq!(s.reconstruct(&[9, 6]), 105);
    }

    #[test]
    fn decompose_reconstruct_roundtrip() {
        for bits in [8u32, 12] {
            let s = QuartetScheme::for_bits(bits);
            for mag in (0..=s.max_magnitude()).step_by(7) {
                assert_eq!(s.reconstruct(&s.decompose(mag)), mag);
            }
        }
    }
}
