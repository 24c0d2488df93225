//! Weight constraining (Algorithm 1): rounding weights onto the lattice of
//! magnitudes whose quartets the alphabet set can produce.
//!
//! Two projections are provided:
//!
//! * [`WeightLattice::project_exact`] — globally nearest representable
//!   magnitude via a precomputed sorted table (ties round up, matching the
//!   paper's threshold rule);
//! * [`project_greedy`] — the paper's Algorithm 1: quartets
//!   are rounded LSB-to-MSB to the nearest supported value with carry
//!   propagation into the next quartet.
//!
//! Both always return representable magnitudes; the exact projector is
//! never farther from the input, and the two are compared in the ablation
//! bench.

use man_fixed::quantize::{f32_quantizable, quantize_f32};
use man_fixed::QFormat;
use serde::{Deserialize, Serialize};

use crate::alphabet::AlphabetSet;
use crate::quartet::QuartetScheme;

/// The set of representable weight magnitudes for one `(bits, alphabet)`
/// pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WeightLattice {
    bits: u32,
    values: Vec<u32>,
}

impl WeightLattice {
    /// Enumerates the lattice for `bits`-wide weights under `alphabet`.
    pub fn new(bits: u32, alphabet: &AlphabetSet) -> Self {
        let scheme = QuartetScheme::for_bits(bits);
        let values = (0..=scheme.max_magnitude())
            .filter(|&m| {
                scheme
                    .decompose(m)
                    .iter()
                    .zip(scheme.widths())
                    .all(|(&v, &w)| alphabet.supports(v, w))
            })
            .collect();
        Self { bits, values }
    }

    /// The representable magnitudes, ascending (always contains 0).
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Number of representable magnitudes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Never true: 0 is always representable.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `true` if `mag` is on the lattice.
    pub fn contains(&self, mag: u32) -> bool {
        self.values.binary_search(&mag).is_ok()
    }

    /// Largest gap between consecutive lattice points (worst-case rounding
    /// error bound).
    pub fn max_gap(&self) -> u32 {
        self.values
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Globally nearest representable magnitude. Midpoints round up,
    /// matching the paper's rounding-logic example ("if 10 or 11 comes up,
    /// we will convert it to 12" for neighbors 8 and 12).
    pub fn project_exact(&self, mag: u32) -> u32 {
        match self.values.binary_search(&mag) {
            Ok(_) => mag,
            Err(pos) => {
                if pos == 0 {
                    self.values[0]
                } else if pos == self.values.len() {
                    *self.values.last().expect("lattice nonempty")
                } else {
                    let lo = self.values[pos - 1];
                    let hi = self.values[pos];
                    // Threshold at the average; >= threshold rounds up.
                    if (mag - lo) < (hi - mag) {
                        lo
                    } else {
                        hi
                    }
                }
            }
        }
    }
}

/// The paper's Algorithm 1: quartet-wise rounding with carry propagation.
///
/// Each quartet (LSB first) is rounded to the nearest supported value,
/// where "one past the top" (a carry into the next quartet) counts as a
/// supported neighbor. Midpoints round up. A carry out of the MSB quartet
/// saturates to the largest representable magnitude.
pub fn project_greedy(bits: u32, alphabet: &AlphabetSet, mag: u32) -> u32 {
    let scheme = QuartetScheme::for_bits(bits);
    let mut quartets = scheme.decompose(mag);
    let widths = scheme.widths().to_vec();
    let mut carry = 0u32;
    for i in 0..quartets.len() {
        let width = widths[i];
        let limit = 1u32 << width;
        let v = quartets[i] + carry;
        carry = 0;
        if v >= limit {
            // The carry overflowed this quartet: v == limit (carry 1 onto
            // a supported-or-rounded value). Wrap to 0 and carry on.
            quartets[i] = 0;
            carry = 1;
            continue;
        }
        if alphabet.supports(v, width) {
            quartets[i] = v;
            continue;
        }
        // Nearest supported below; nearest supported above may be the
        // carry value `limit` (i.e. +1 in the next quartet).
        let below = (0..v)
            .rev()
            .find(|&c| alphabet.supports(c, width))
            .expect("0 is always supported");
        let above = ((v + 1)..limit)
            .find(|&c| alphabet.supports(c, width))
            .unwrap_or(limit);
        // Midpoint threshold, ties round up (paper's rounding logic).
        if (v - below) < (above - v) {
            quartets[i] = below;
        } else if above == limit {
            quartets[i] = 0;
            carry = 1;
        } else {
            quartets[i] = above;
        }
    }
    if carry > 0 {
        // Overflow out of the MSB quartet: saturate to the largest
        // representable magnitude (every quartet at its largest supported
        // value — no need to enumerate the lattice).
        let maxed: Vec<u32> = widths
            .iter()
            .map(|&w| {
                *alphabet
                    .supported_quartets(w)
                    .last()
                    .expect("0 is always supported")
            })
            .collect();
        return scheme.reconstruct(&maxed);
    }
    scheme.reconstruct(&quartets)
}

/// Algorithm 1 for one `(format, lattice)` pair as a lookup table: entry
/// `raw − min_raw` holds the projected `f32` of raw word `raw`, computed
/// once by sign/magnitude split, [`WeightLattice::project_exact`] on the
/// magnitude, sign reapplication and dequantization. With `bits ≤ 16` a
/// table has at most 2^16 entries (256 at 8 bits).
///
/// Projecting a weight is then one quantization
/// ([`man_fixed::quantize::quantize_f32`], the word [`QFormat::quantize`]
/// gives) and one lookup.
#[derive(Clone, Debug)]
pub(crate) struct ProjectionTable {
    format: QFormat,
    projected: Vec<f32>,
}

/// Weights [`ProjectionTable::apply`] quantizes in one vectorized pass
/// before it looks their projections up.
const PROJECT_BLOCK: usize = 256;

impl ProjectionTable {
    /// Tabulates the projection of every raw word of `format`.
    ///
    /// # Panics
    ///
    /// Panics if `format` and `lattice` differ in word length, or if
    /// `format`'s words are too wide for [`quantize_f32`].
    pub(crate) fn new(format: QFormat, lattice: &WeightLattice) -> Self {
        assert_eq!(format.bits(), lattice.bits, "format/lattice word length");
        assert!(
            f32_quantizable(format.min_raw(), format.max_raw()),
            "{}-bit words are too wide for the f32 quantizer",
            format.bits()
        );
        let projected = (format.min_raw()..=format.max_raw())
            .map(|raw| {
                let (neg, mag) = man_fixed::bits::sign_magnitude(raw, format.bits());
                let projected = lattice.project_exact(mag);
                let raw = man_fixed::bits::apply_sign(projected as u64, neg);
                (raw as f64 / format.scale()) as f32
            })
            .collect();
        Self { format, projected }
    }

    /// Projects every value of a tensor in place, a block at a time:
    /// first every value's table index, in `f32` lanes, then the lookups.
    pub(crate) fn apply(&self, values: &mut [f32]) {
        let (frac, lo, hi) = (
            self.format.frac(),
            self.format.min_raw(),
            self.format.max_raw(),
        );
        let mut index = [0u32; PROJECT_BLOCK];
        for block in values.chunks_mut(PROJECT_BLOCK) {
            for (i, &v) in index.iter_mut().zip(&*block) {
                *i = quantize_f32(v, frac, lo, hi).wrapping_sub(lo) as u32;
            }
            for (v, &i) in block.iter_mut().zip(&index) {
                *v = self.projected[i as usize];
            }
        }
    }
}

/// Projects a trained float weight tensor onto the constrained fixed-point
/// lattice: quantize into `format`, split sign/magnitude, project the
/// magnitude, and write back the dequantized value — through a
/// `ProjectionTable` built for the call.
///
/// This is the transform applied after every optimizer step during
/// constrained retraining, and to the final weights before compiling the
/// fixed-point network.
pub fn constrain_slice(format: QFormat, lattice: &WeightLattice, values: &mut [f32]) {
    ProjectionTable::new(format, lattice).apply(values);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_sizes() {
        // 8-bit {1}: 5 values per 4-bit quartet × 4 per 3-bit = 20.
        assert_eq!(WeightLattice::new(8, &AlphabetSet::a1()).len(), 20);
        // 8-bit full alphabet: everything.
        assert_eq!(WeightLattice::new(8, &AlphabetSet::a8()).len(), 128);
        // 12-bit {1,3}: 8 × 8 × 6.
        assert_eq!(WeightLattice::new(12, &AlphabetSet::a2()).len(), 8 * 8 * 6);
    }

    #[test]
    fn paper_rounding_example() {
        // Section IV-A rounding logic: neighbors 8 and 12 under {1,3};
        // 9 -> 8, 10 -> 12, 11 -> 12.
        let lattice = WeightLattice::new(8, &AlphabetSet::a2());
        assert_eq!(lattice.project_exact(9), 8);
        assert_eq!(lattice.project_exact(10), 12);
        assert_eq!(lattice.project_exact(11), 12);
        assert_eq!(project_greedy(8, &AlphabetSet::a2(), 9), 8);
        assert_eq!(project_greedy(8, &AlphabetSet::a2(), 10), 12);
        assert_eq!(project_greedy(8, &AlphabetSet::a2(), 11), 12);
    }

    #[test]
    fn projections_are_idempotent_and_representable() {
        for alphabet in [AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()] {
            let lattice = WeightLattice::new(8, &alphabet);
            for mag in 0..=127u32 {
                let e = lattice.project_exact(mag);
                let g = project_greedy(8, &alphabet, mag);
                assert!(lattice.contains(e), "{alphabet} exact({mag}) = {e}");
                assert!(lattice.contains(g), "{alphabet} greedy({mag}) = {g}");
                assert_eq!(lattice.project_exact(e), e);
                assert_eq!(project_greedy(8, &alphabet, g), g);
                // Exact is never farther than greedy.
                let de = (e as i64 - mag as i64).unsigned_abs();
                let dg = (g as i64 - mag as i64).unsigned_abs();
                assert!(de <= dg, "{alphabet} mag={mag} exact {e} greedy {g}");
            }
        }
    }

    #[test]
    fn greedy_carry_propagates() {
        // {1}: 15 (0b1111) is nearest to 16 = carry into the next quartet.
        let g = project_greedy(8, &AlphabetSet::a1(), 15);
        assert_eq!(g, 16);
        // MSB saturation: 127 = [15, 7]; both quartets round up, carrying
        // out of the top -> largest representable magnitude.
        let g = project_greedy(8, &AlphabetSet::a1(), 127);
        let lattice = WeightLattice::new(8, &AlphabetSet::a1());
        assert_eq!(g, *lattice.values().last().unwrap());
    }

    #[test]
    fn constrain_slice_lands_on_lattice() {
        let format = QFormat::new(8, 6);
        let alphabet = AlphabetSet::a2();
        let lattice = WeightLattice::new(8, &alphabet);
        let mut values = vec![0.3f32, -0.77, 1.5, -1.99, 0.0, 0.015625];
        constrain_slice(format, &lattice, &mut values);
        for &v in &values {
            let q = format.quantize(v as f64);
            assert_eq!(q.to_f64() as f32, v, "projection must be exact in Q");
            let (_, mag) = man_fixed::bits::sign_magnitude(q.raw(), 8);
            assert!(lattice.contains(mag), "value {v} -> magnitude {mag}");
        }
    }

    /// The constraint arithmetic as it was computed per weight before the
    /// table existed, `round_ties_even` quantizer included: the reference
    /// the table must reproduce.
    fn project_direct(format: QFormat, lattice: &WeightLattice, v: f32) -> f32 {
        let scaled = v as f64 * format.scale();
        let q = if scaled.is_nan() {
            0
        } else if scaled >= format.max_raw() as f64 {
            format.max_raw()
        } else if scaled <= format.min_raw() as f64 {
            format.min_raw()
        } else {
            scaled.round_ties_even() as i32
        };
        let (neg, mag) = man_fixed::bits::sign_magnitude(q, format.bits());
        let projected = lattice.project_exact(mag);
        let raw = man_fixed::bits::apply_sign(projected as u64, neg);
        (raw as f64 / format.scale()) as f32
    }

    #[test]
    fn projection_table_matches_the_direct_path_for_every_raw_word() {
        for bits in [4u32, 8, 12, 16] {
            for alphabet in [
                AlphabetSet::a1(),
                AlphabetSet::a2(),
                AlphabetSet::a4(),
                AlphabetSet::a8(),
            ] {
                let lattice = WeightLattice::new(bits, &alphabet);
                for frac in [0, bits / 2, bits - 1] {
                    let format = QFormat::new(bits, frac);
                    let table = ProjectionTable::new(format, &lattice);
                    let resolution = format.resolution();
                    // Each word, a point a quarter LSB off it and the
                    // half-way points on either side, then the non-finite
                    // and out-of-range values: more than one block of
                    // `apply` from 8 bits up.
                    let mut values: Vec<f32> = (format.min_raw()..=format.max_raw())
                        .flat_map(|raw| {
                            let r = raw as f64;
                            [r, r + 0.25, r + 0.5, r - 0.5].map(|v| (v * resolution) as f32)
                        })
                        .chain([
                            f32::NAN,
                            f32::INFINITY,
                            f32::NEG_INFINITY,
                            -0.0,
                            1e30,
                            -1e30,
                        ])
                        .collect();
                    let want: Vec<u32> = values
                        .iter()
                        .map(|&v| project_direct(format, &lattice, v).to_bits())
                        .collect();
                    let given = values.clone();
                    table.apply(&mut values);
                    for ((v, got), want) in given.iter().zip(&values).zip(want) {
                        assert_eq!(
                            got.to_bits(),
                            want,
                            "{bits}-bit Q.{frac} {alphabet} value {v:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn max_gap_shrinks_with_more_alphabets() {
        let g1 = WeightLattice::new(8, &AlphabetSet::a1()).max_gap();
        let g2 = WeightLattice::new(8, &AlphabetSet::a2()).max_gap();
        let g4 = WeightLattice::new(8, &AlphabetSet::a4()).max_gap();
        let g8 = WeightLattice::new(8, &AlphabetSet::a8()).max_gap();
        assert!(g1 >= g2 && g2 >= g4 && g4 >= g8);
        assert_eq!(g8, 1);
    }
}
