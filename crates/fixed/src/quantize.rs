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

/// `1.5 · 2^23`: adding it to an `f32` in `[-2^22, 2^22)` leaves a sum in
/// `[2^23, 2^24)`, whose unit in the last place is 1, so the addition
/// rounds to an integer, half to even, and that integer is the sum's bit
/// pattern less this constant's.
const ROUND_MAGIC_F32: f32 = 12_582_912.0;

/// `round_to_range(f64::from(x) * 2^frac, lo, hi)` for every `f32` `x`,
/// computed in `f32` lanes the compiler vectorizes: no `f64` widening and
/// no `f64 → i32` conversion per value.
///
/// Scaling by `2^frac` is exact in `f32` (it only moves the exponent) up
/// to overflow, and an overflowed `±∞` saturates just as the finite `f64`
/// product past the range does. `NaN` becomes 0 before the clamp, as
/// [`round_to_range`]'s cast makes it; the clamped value is then rounded
/// half to even by adding and subtracting `1.5 · 2^23`, which needs the
/// range inside `[-2^22, 2^22)` ([`f32_quantizable`]). Only debug
/// builds check that here, so the per-value loop carries no branch for
/// it; callers check a whole slice's range once.
///
/// # Example
///
/// ```
/// use man_fixed::quantize::{quantize_f32, round_to_range};
///
/// assert_eq!(quantize_f32(0.3, 7, -128, 127), 38);
/// assert_eq!(quantize_f32(-3.5 / 64.0, 6, -128, 127), -4);
/// assert_eq!(quantize_f32(f32::NAN, 7, -128, 127), 0);
/// assert_eq!(quantize_f32(1e30, 11, 0, 2047), round_to_range(1e30 * 2048.0, 0, 2047));
/// ```
#[inline]
pub fn quantize_f32(x: f32, frac: u32, lo: i32, hi: i32) -> i32 {
    debug_assert!(
        f32_quantizable(lo, hi),
        "range {lo}..={hi} is not inside [-2^22, 2^22)"
    );
    let scaled = x * (1u64 << frac) as f32;
    let scaled = if scaled.is_nan() { 0.0 } else { scaled };
    let (lo_f, hi_f) = (lo as f32, hi as f32);
    let clamped = if scaled > lo_f { scaled } else { lo_f };
    let clamped = if clamped < hi_f { clamped } else { hi_f };
    ((clamped + ROUND_MAGIC_F32).to_bits() as i32).wrapping_sub(ROUND_MAGIC_F32.to_bits() as i32)
}

/// Whether [`quantize_f32`] rounds exactly into `lo..=hi`: a nonempty
/// range inside `[-2^22, 2^22)`, which holds for every [`QFormat`] of at
/// most 23 bits.
///
/// # Example
///
/// ```
/// use man_fixed::quantize::f32_quantizable;
///
/// assert!(f32_quantizable(-32768, 32767));
/// assert!(!f32_quantizable(0, 1 << 22));
/// ```
pub const fn f32_quantizable(lo: i32, hi: i32) -> bool {
    -(1 << 22) <= lo && lo <= hi && hi < 1 << 22
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

    /// A range [`quantize_f32`] is used on: `(frac, lo, hi)`.
    type Range = (u32, i32, i32);

    /// The ranges of `bits`-bit words: the unsigned `Q0.(bits-1)` input
    /// word, then the signed weight word at every fraction `frac < bits`.
    fn ranges(bits: u32) -> impl Iterator<Item = Range> {
        let half = 1i32 << (bits - 1);
        std::iter::once((bits - 1, 0, half - 1)).chain((0..bits).map(move |f| (f, -half, half - 1)))
    }

    /// What [`quantize_f32`] must equal.
    fn reference(x: f32, (frac, lo, hi): Range) -> i32 {
        round_to_range(f64::from(x) * (1u64 << frac) as f64, lo, hi)
    }

    fn assert_quantizes_like_f64(patterns: impl IntoIterator<Item = u32>, ranges: &[Range]) {
        for bits in patterns {
            let x = f32::from_bits(bits);
            for &(frac, lo, hi) in ranges {
                assert_eq!(
                    quantize_f32(x, frac, lo, hi),
                    reference(x, (frac, lo, hi)),
                    "{x:e} ({bits:#010x}) at frac {frac} in {lo}..={hi}"
                );
            }
        }
    }

    /// `n` seeded random bit patterns (splitmix64).
    fn random_patterns(n: usize) -> impl Iterator<Item = u32> {
        let mut state = 0x7175_616e_7469_7a65_u64;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        })
    }

    /// The `f32` quantizer equals the `f64` one on the input and weight
    /// ranges of every word length 2..=16: on every exponent (subnormals
    /// included) crossed with the mantissa edges, ±0, ±∞, NaNs, both range
    /// ends and ties of the rounding across each range, both signs of
    /// each; on 2^20 seeded random patterns, both signs, in the input
    /// range `0..=2^f - 1` of every fraction `f` in 2..=15; and on 2^18
    /// more in the input and weight ranges of the zoo's 8- and 12-bit
    /// words.
    #[test]
    fn quantize_f32_matches_round_to_range() {
        let mantissas = [
            0,
            1,
            2,
            3,
            (1 << 22) - 1,
            1 << 22,
            (1 << 22) + 1,
            (1 << 23) - 2,
            (1 << 23) - 1,
        ];
        let exponents = (0..=255u32).flat_map(|e| mantissas.iter().map(move |m| e << 23 | m));
        let nans = [0x7fc0_0000, 0x7f80_0001, 0x7fff_ffff];
        let both_signs = |b: u32| [b & 0x7fff_ffff, b | 0x8000_0000];
        for bits in 2..=16 {
            let ranges: Vec<Range> = ranges(bits).collect();
            // Ties `(n + 1/2) / 2^f` and integers `n / 2^f`, each with its
            // neighbours, for `n` across the range and at both ends.
            let ties = ranges.iter().flat_map(|&(frac, lo, hi)| {
                let scale = (1u64 << frac) as f32;
                let step = ((hi - lo) as usize / 64).max(1);
                (lo - 1..=hi + 1)
                    .step_by(step)
                    .chain([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1])
                    .flat_map(move |n| [(n as f32 + 0.5) / scale, n as f32 / scale])
                    .map(f32::to_bits)
                    .flat_map(|b| b.saturating_sub(1)..=b.saturating_add(1))
            });
            let patterns: Vec<u32> = exponents.clone().chain(nans).chain(ties).collect();
            assert_quantizes_like_f64(patterns.into_iter().flat_map(both_signs), &ranges);
        }
        let inputs: Vec<Range> = (2..=15).map(|f| (f, 0, (1 << f) - 1)).collect();
        assert_quantizes_like_f64(random_patterns(1 << 20).flat_map(both_signs), &inputs);
        let zoo: Vec<Range> = ranges(8).chain(ranges(12)).collect();
        assert_quantizes_like_f64(random_patterns(1 << 18).flat_map(both_signs), &zoo);
        assert_eq!(quantize_f32(f32::NAN, 7, 0, 127), 0);
        assert_eq!(quantize_f32(-f32::NAN, 5, -128, 127), 0);
        assert_eq!(quantize_f32(f32::INFINITY, 7, 0, 127), 127);
        assert_eq!(quantize_f32(f32::NEG_INFINITY, 11, 0, 2047), 0);
        assert_eq!(quantize_f32(f32::NEG_INFINITY, 3, -2048, 2047), -2048);
        assert_eq!(quantize_f32(0.5 / 128.0, 7, 0, 127), 0);
        assert_eq!(quantize_f32(1.5 / 128.0, 7, 0, 127), 2);
        assert_eq!(quantize_f32(-2.5 / 64.0, 6, -128, 127), -2);
    }

    /// Every `f32` bit pattern through both quantizers in each of
    /// `ranges`, on all cores; returns the patterns that differ, with
    /// their range. Patterns go in blocks, each range over a whole block
    /// at a time, so that both quantizers run in vector lanes.
    fn sweep_every_f32(ranges: &[Range]) -> Vec<(u32, Range)> {
        const BLOCK: u64 = 1024;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let blocks = (1_u64 << 32) / BLOCK;
        let per_thread = blocks.div_ceil(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut wrong = Vec::new();
                        for block in t * per_thread..((t + 1) * per_thread).min(blocks) {
                            let first = (block * BLOCK) as u32;
                            let xs: [f32; BLOCK as usize] =
                                std::array::from_fn(|i| f32::from_bits(first + i as u32));
                            for &range @ (frac, lo, hi) in ranges {
                                let got: [i32; BLOCK as usize] =
                                    std::array::from_fn(|i| quantize_f32(xs[i], frac, lo, hi));
                                let want: [i32; BLOCK as usize] =
                                    std::array::from_fn(|i| reference(xs[i], range));
                                if got != want {
                                    wrong.extend(
                                        xs.iter()
                                            .zip(got.iter().zip(&want))
                                            .filter(|(_, (g, w))| g != w)
                                            .map(|(x, _)| (x.to_bits(), range)),
                                    );
                                }
                            }
                        }
                        wrong
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("sweep thread"))
                .collect()
        })
    }

    fn assert_sweep_clean(word_lengths: impl IntoIterator<Item = u32>) {
        let ranges: Vec<Range> = word_lengths.into_iter().flat_map(ranges).collect();
        let wrong = sweep_every_f32(&ranges);
        assert!(
            wrong.is_empty(),
            "{} differ, first {:?}",
            wrong.len(),
            &wrong[..wrong.len().min(8)]
        );
    }

    /// All 2^32 `f32` patterns in the input and weight ranges of the
    /// zoo's 8- and 12-bit words (22 ranges). Two to three minutes in
    /// release on two cores: `cargo test --release -p man-fixed --lib
    /// quantize::tests::quantize_f32_matches_round_to_range_on_every_f32_at_zoo_word_lengths
    /// -- --ignored --exact`.
    #[test]
    #[ignore = "exhaustive: 2-3 minutes in release on two cores"]
    fn quantize_f32_matches_round_to_range_on_every_f32_at_zoo_word_lengths() {
        assert_sweep_clean([8, 12]);
    }

    /// All 2^32 `f32` patterns in the input and weight ranges of every
    /// word length 2..=16 (150 ranges). About 16 minutes in release on
    /// two cores: `cargo test --release -p man-fixed --lib
    /// quantize::tests::quantize_f32_matches_round_to_range_on_every_f32_at_every_word_length
    /// -- --ignored --exact`.
    #[test]
    #[ignore = "exhaustive: about 16 minutes in release on two cores"]
    fn quantize_f32_matches_round_to_range_on_every_f32_at_every_word_length() {
        assert_sweep_clean(2..=16);
    }
}
