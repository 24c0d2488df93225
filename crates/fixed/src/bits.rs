//! Bit-field helpers shared by the quartet decomposition and the hardware
//! model.
//!
//! The ASM datapath operates on the *sign-magnitude* view of a weight: the
//! magnitude is split into little-endian bit groups ("quartets" in the
//! paper), each of which independently selects, shifts and adds an alphabet.

/// Splits a two's-complement word of `bits` total length into sign and
/// magnitude.
///
/// The most negative word (magnitude `2^(bits-1)`) is clamped to the largest
/// representable magnitude `2^(bits-1) - 1`, matching the paper's datapath
/// which multiplies only absolute values of at most `bits - 1` bits.
///
/// # Example
///
/// ```
/// use man_fixed::bits::sign_magnitude;
///
/// assert_eq!(sign_magnitude(105, 8), (false, 105));
/// assert_eq!(sign_magnitude(-66, 8), (true, 66));
/// assert_eq!(sign_magnitude(-128, 8), (true, 127)); // clamped
/// ```
///
/// # Panics
///
/// Panics if `raw` does not fit in `bits` bits (two's complement).
pub fn sign_magnitude(raw: i32, bits: u32) -> (bool, u32) {
    assert!((2..=32).contains(&bits), "word length must be in 2..=32");
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    assert!(
        (raw as i64) >= min && (raw as i64) <= max,
        "raw word {raw} does not fit in {bits} bits"
    );
    if raw >= 0 {
        (false, raw as u32)
    } else {
        let mag = (-(raw as i64)).min(max) as u32;
        (true, mag)
    }
}

/// Reapplies a sign to a magnitude.
///
/// # Example
///
/// ```
/// use man_fixed::bits::apply_sign;
///
/// assert_eq!(apply_sign(66, true), -66);
/// assert_eq!(apply_sign(66, false), 66);
/// ```
pub fn apply_sign(magnitude: u64, negative: bool) -> i64 {
    if negative {
        -(magnitude as i64)
    } else {
        magnitude as i64
    }
}

/// Splits `value` into little-endian bit groups of the given widths.
///
/// `widths[0]` is the least-significant group. The groups must cover the
/// value: any bits of `value` beyond the total width cause a panic, so the
/// decomposition is always reversible with [`join_groups`].
///
/// # Example
///
/// ```
/// use man_fixed::bits::split_groups;
///
/// // 0b110_1001 = 105 -> LSB quartet 0b1001 = 9, MSB group 0b110 = 6.
/// assert_eq!(split_groups(105, &[4, 3]), vec![9, 6]);
/// ```
///
/// # Panics
///
/// Panics if any width is zero, the total width exceeds 32, or `value` has
/// bits beyond the total width.
pub fn split_groups(value: u32, widths: &[u32]) -> Vec<u32> {
    let total: u32 = widths.iter().sum();
    assert!(
        widths.iter().all(|&w| w > 0),
        "group widths must be nonzero"
    );
    assert!(total <= 32, "total group width must be <= 32");
    assert!(
        total == 32 || value < (1u32 << total),
        "value {value} has bits beyond the total group width {total}"
    );
    let mut rest = value;
    widths
        .iter()
        .map(|&w| {
            let mask = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
            let g = rest & mask;
            rest = if w == 32 { 0 } else { rest >> w };
            g
        })
        .collect()
}

/// Reassembles little-endian bit groups produced by [`split_groups`].
///
/// # Panics
///
/// Panics if the group/width counts differ or any group overflows its width.
pub fn join_groups(groups: &[u32], widths: &[u32]) -> u32 {
    assert_eq!(groups.len(), widths.len(), "group/width count mismatch");
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (&g, &w) in groups.iter().zip(widths) {
        assert!(
            w == 32 || (g as u64) < (1u64 << w),
            "group {g} overflows {w} bits"
        );
        value |= (g as u64) << shift;
        shift += w;
    }
    assert!(shift <= 32, "total group width must be <= 32");
    value as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_magnitude_roundtrip() {
        for raw in -127i32..=127 {
            let (neg, mag) = sign_magnitude(raw, 8);
            assert_eq!(apply_sign(mag as u64, neg), raw as i64);
        }
    }

    #[test]
    fn sign_magnitude_clamps_most_negative() {
        assert_eq!(sign_magnitude(-128, 8), (true, 127));
        assert_eq!(sign_magnitude(-2048, 12), (true, 2047));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn sign_magnitude_rejects_oversized() {
        let _ = sign_magnitude(200, 8);
    }

    #[test]
    fn paper_table1_decompositions() {
        // Table I: W1 = 0b0110_1001 = 105 -> quartets (9, 6);
        //          W2 = 0b0100_0010 = 66  -> quartets (2, 4).
        assert_eq!(split_groups(105, &[4, 3]), vec![9, 6]);
        assert_eq!(split_groups(66, &[4, 3]), vec![2, 4]);
    }

    #[test]
    fn twelve_bit_three_groups() {
        // 11-bit magnitude -> R (4), Q (4), P (3).
        let mag = 0b110_1011_0101u32;
        let g = split_groups(mag, &[4, 4, 3]);
        assert_eq!(g, vec![0b0101, 0b1011, 0b110]);
        assert_eq!(join_groups(&g, &[4, 4, 3]), mag);
    }

    #[test]
    #[should_panic(expected = "beyond the total")]
    fn split_rejects_overflowing_value() {
        let _ = split_groups(1 << 8, &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn join_rejects_overflowing_group() {
        let _ = join_groups(&[16, 0], &[4, 4]);
    }
}
