//! Alphabet sets: the small collections of odd input multiples from which
//! the ASM reconstructs every product.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An alphabet set `{a₁, …}`: odd values in `1..=15`, always containing 1.
///
/// The paper's working sets are [`AlphabetSet::a1`] (`{1}`, the MAN),
/// [`AlphabetSet::a2`] (`{1,3}`), [`AlphabetSet::a4`] (`{1,3,5,7}`) and the
/// complete [`AlphabetSet::a8`] which supports every 4-bit quartet.
///
/// # Example
///
/// ```
/// use man::alphabet::AlphabetSet;
///
/// let a4 = AlphabetSet::a4();
/// // Section IV-A: {1,3,5,7} covers 12 of the 16 quartet values.
/// assert_eq!(a4.supported_quartets(4).len(), 12);
/// assert!(!a4.supports(9, 4));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AlphabetSet {
    members: Vec<u8>,
}

impl AlphabetSet {
    /// Builds a set from its members.
    ///
    /// # Errors
    ///
    /// Returns an error string if the members are not strictly increasing
    /// odd values in `1..=15` starting with 1.
    pub fn new(members: Vec<u8>) -> Result<Self, InvalidAlphabetError> {
        if members.is_empty() {
            return Err(InvalidAlphabetError("alphabet set must not be empty"));
        }
        if members[0] != 1 {
            return Err(InvalidAlphabetError("alphabet set must contain 1"));
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(InvalidAlphabetError(
                "alphabets must be strictly increasing",
            ));
        }
        if !members.iter().all(|&a| a % 2 == 1 && a <= 15) {
            return Err(InvalidAlphabetError("alphabets must be odd and <= 15"));
        }
        Ok(Self { members })
    }

    /// The 1-alphabet set `{1}` — the Multiplier-less Artificial Neuron.
    pub fn a1() -> Self {
        Self { members: vec![1] }
    }

    /// The 2-alphabet set `{1,3}`.
    pub fn a2() -> Self {
        Self {
            members: vec![1, 3],
        }
    }

    /// The 4-alphabet set `{1,3,5,7}`.
    pub fn a4() -> Self {
        Self {
            members: vec![1, 3, 5, 7],
        }
    }

    /// The complete 8-alphabet set — exact multiplication.
    pub fn a8() -> Self {
        Self {
            members: vec![1, 3, 5, 7, 9, 11, 13, 15],
        }
    }

    /// The members, ascending.
    pub fn members(&self) -> &[u8] {
        &self.members
    }

    /// Number of alphabets.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// The `(alphabet index, shift)` pair generating quartet value `v`
    /// within a `width`-bit quartet, or `None` if unsupported.
    /// `v = 0` is always supported (zero term).
    pub(crate) fn controls(&self, v: u32, width: u32) -> Option<(usize, u32)> {
        debug_assert!(width <= 4 && v < (1 << width));
        if v == 0 {
            return Some((0, 0));
        }
        for (idx, &a) in self.members.iter().enumerate() {
            for s in 0..width {
                if (a as u32) << s == v {
                    return Some((idx, s));
                }
            }
        }
        None
    }

    /// `true` if quartet value `v` (within a `width`-bit quartet) is
    /// producible.
    pub fn supports(&self, v: u32, width: u32) -> bool {
        self.controls(v, width).is_some()
    }

    /// All supported quartet values for a `width`-bit quartet, ascending.
    pub fn supported_quartets(&self, width: u32) -> Vec<u32> {
        (0..(1u32 << width))
            .filter(|&v| self.supports(v, width))
            .collect()
    }

    /// Hardware label, e.g. `"2 {1,3}"` as the paper's tables write it.
    pub fn label(&self) -> String {
        format!(
            "{} {{{}}}",
            self.members.len(),
            self.members
                .iter()
                .map(u8::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

impl fmt::Display for AlphabetSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error for malformed alphabet sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidAlphabetError(&'static str);

impl fmt::Display for InvalidAlphabetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for InvalidAlphabetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_supported_counts() {
        // Section IV-A of the paper.
        assert_eq!(AlphabetSet::a8().supported_quartets(4).len(), 16);
        assert_eq!(AlphabetSet::a4().supported_quartets(4).len(), 12);
        assert_eq!(AlphabetSet::a2().supported_quartets(4).len(), 8);
        assert_eq!(AlphabetSet::a1().supported_quartets(4).len(), 5);
        // {1,3}: unsupported 4-bit values are {5,7,9,10,11,13,14,15}.
        let unsupported: Vec<u32> = (0..16)
            .filter(|&v| !AlphabetSet::a2().supports(v, 4))
            .collect();
        assert_eq!(unsupported, vec![5, 7, 9, 10, 11, 13, 14, 15]);
        // {1,3}: unsupported 3-bit values are {5,7} (the P quartet).
        let p_unsupported: Vec<u32> = (0..8)
            .filter(|&v| !AlphabetSet::a2().supports(v, 3))
            .collect();
        assert_eq!(p_unsupported, vec![5, 7]);
    }

    #[test]
    fn controls_match_fig2_example() {
        // W = 0b0100_1010: LSB quartet 10 = 5<<1, MSB quartet 4 = 1<<2.
        assert_eq!(AlphabetSet::a4().controls(10, 4), Some((2, 1)));
        assert_eq!(AlphabetSet::a4().controls(4, 4), Some((0, 2)));
    }

    #[test]
    fn validation_rejects_bad_sets() {
        assert!(AlphabetSet::new(vec![]).is_err());
        assert!(AlphabetSet::new(vec![3]).is_err());
        assert!(AlphabetSet::new(vec![1, 1]).is_err());
        assert!(AlphabetSet::new(vec![1, 2]).is_err());
        assert!(AlphabetSet::new(vec![1, 17]).is_err());
        assert!(AlphabetSet::new(vec![1, 5, 9]).is_ok());
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(AlphabetSet::a2().label(), "2 {1,3}");
        assert_eq!(AlphabetSet::a1().label(), "1 {1}");
    }
}
