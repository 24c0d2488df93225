//! The functional (bit-exact) Alphabet Set Multiplier.
//!
//! This is the software twin of the `man-hw` datapath: a pre-computer bank
//! produces the alphabet products `a·x` once per input, then each weight
//! multiplies by selecting, shifting and adding per quartet. For any weight
//! whose quartets are all supported the result equals exact multiplication
//! — that property (tested here and against the gate-level netlist) is why
//! the paper can move all approximation error into the weight lattice.

use std::fmt;

use crate::alphabet::AlphabetSet;
use crate::quartet::QuartetScheme;

/// Error returned when a weight contains a quartet value the alphabet set
/// cannot produce (the weight was not constrained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedQuartetError {
    /// The offending quartet value.
    pub value: u32,
    /// Which quartet (0 = LSB).
    pub index: usize,
    /// The full weight magnitude.
    pub(crate) magnitude: u32,
}

impl fmt::Display for UnsupportedQuartetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quartet {} of weight magnitude {} has value {}, which the alphabet set cannot produce",
            self.index, self.magnitude, self.value
        )
    }
}

impl std::error::Error for UnsupportedQuartetError {}

/// The decoded control word of one weight: per quartet, the alphabet index
/// and shift (the output of the paper's "control logic").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmPlan {
    /// `(alphabet index, shift)` per quartet; `None` encodes a zero
    /// quartet (term masked).
    pub controls: Vec<Option<(usize, u32)>>,
}

/// A functional ASM for one word length and alphabet set.
///
/// # Example
///
/// ```
/// use man::alphabet::AlphabetSet;
/// use man::asm::AsmMultiplier;
///
/// let asm = AsmMultiplier::new(8, AlphabetSet::a4());
/// // Fig. 2's example: W = 0b0100_1010 (74), any input.
/// let bank = asm.precompute(77);
/// assert_eq!(asm.multiply(74, &bank).unwrap(), 74 * 77);
/// // 0b0110_1001 (105) has LSB quartet 9 — unsupported by {1,3,5,7}.
/// assert!(asm.multiply(105, &asm.precompute(77)).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct AsmMultiplier {
    scheme: QuartetScheme,
    alphabet: AlphabetSet,
}

impl AsmMultiplier {
    /// Builds an ASM for `bits`-wide weights.
    pub fn new(bits: u32, alphabet: AlphabetSet) -> Self {
        Self {
            scheme: QuartetScheme::for_bits(bits),
            alphabet,
        }
    }

    /// The alphabet set.
    pub fn alphabet(&self) -> &AlphabetSet {
        &self.alphabet
    }

    /// The pre-computer bank: alphabet products of one input magnitude.
    /// In the CSHM arrangement this is computed once and shared by every
    /// multiplication against the same input.
    pub fn precompute(&self, x_mag: u32) -> Vec<u64> {
        self.alphabet
            .members()
            .iter()
            .map(|&a| a as u64 * x_mag as u64)
            .collect()
    }

    /// Decodes a weight magnitude into its select/shift plan.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedQuartetError`] if any quartet value is not
    /// producible with this alphabet set.
    pub fn decode(&self, w_mag: u32) -> Result<AsmPlan, UnsupportedQuartetError> {
        let quartets = self.scheme.decompose(w_mag);
        let mut controls = Vec::with_capacity(quartets.len());
        for (index, (&v, &width)) in quartets.iter().zip(self.scheme.widths()).enumerate() {
            if v == 0 {
                controls.push(None);
                continue;
            }
            match self.alphabet.controls(v, width) {
                Some(c) => controls.push(Some(c)),
                None => {
                    return Err(UnsupportedQuartetError {
                        value: v,
                        index,
                        magnitude: w_mag,
                    })
                }
            }
        }
        Ok(AsmPlan { controls })
    }

    /// Multiplies a weight magnitude with a pre-computed bank: select,
    /// shift and add per quartet (steps ii–iv of the paper's Section III).
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedQuartetError`] for unconstrained weights.
    ///
    /// # Panics
    ///
    /// Panics if `bank` was produced by a different alphabet set size.
    pub fn multiply(&self, w_mag: u32, bank: &[u64]) -> Result<u64, UnsupportedQuartetError> {
        assert_eq!(bank.len(), self.alphabet.len(), "bank/alphabet mismatch");
        let plan = self.decode(w_mag)?;
        Ok(self.apply(&plan, bank))
    }

    /// Applies a decoded plan to a bank (the per-cycle datapath work).
    pub fn apply(&self, plan: &AsmPlan, bank: &[u64]) -> u64 {
        let mut acc = 0u64;
        let mut offset = 0u32;
        for (control, &width) in plan.controls.iter().zip(self.scheme.widths()) {
            if let Some((idx, shift)) = control {
                acc += (bank[*idx] << shift) << offset;
            }
            offset += width;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supported_mags(asm: &AsmMultiplier) -> Vec<u32> {
        (0..=asm.scheme.max_magnitude())
            .filter(|&m| asm.decode(m).is_ok())
            .collect()
    }

    #[test]
    fn exact_on_all_supported_weights_8bit() {
        for alphabet in [
            AlphabetSet::a1(),
            AlphabetSet::a2(),
            AlphabetSet::a4(),
            AlphabetSet::a8(),
        ] {
            let asm = AsmMultiplier::new(8, alphabet.clone());
            for x in [0u32, 1, 77, 127] {
                let bank = asm.precompute(x);
                for w in supported_mags(&asm) {
                    assert_eq!(
                        asm.multiply(w, &bank).unwrap(),
                        w as u64 * x as u64,
                        "{alphabet} w={w} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_alphabet_supports_everything() {
        let asm = AsmMultiplier::new(8, AlphabetSet::a8());
        assert_eq!(supported_mags(&asm).len(), 128);
        let asm12 = AsmMultiplier::new(12, AlphabetSet::a8());
        // P quartet is 3 bits: all 8 values supported; Q and R all 16.
        assert_eq!(supported_mags(&asm12).len(), 2048);
    }

    #[test]
    fn man_supported_weight_counts() {
        // {1}: each 4-bit quartet supports {0,1,2,4,8}; the 3-bit MSB
        // quartet supports {0,1,2,4}.
        let asm8 = AsmMultiplier::new(8, AlphabetSet::a1());
        assert_eq!(supported_mags(&asm8).len(), 5 * 4);
        let asm12 = AsmMultiplier::new(12, AlphabetSet::a1());
        assert_eq!(supported_mags(&asm12).len(), 5 * 5 * 4);
    }

    #[test]
    fn table1_paper_decomposition_works() {
        // W1 = 105 needs quartet 9: unsupported by {1,3,5,7}, supported by
        // the full set (9 = 9<<0).
        let asm4 = AsmMultiplier::new(8, AlphabetSet::a4());
        let err = asm4.decode(105).unwrap_err();
        assert_eq!(err.value, 9);
        assert_eq!(err.index, 0);
        let asm8 = AsmMultiplier::new(8, AlphabetSet::a8());
        let bank = asm8.precompute(33);
        assert_eq!(asm8.multiply(105, &bank).unwrap(), 105 * 33);
        // W2 = 66 works even with {1}: quartets [2, 4] are powers of two.
        let asm1 = AsmMultiplier::new(8, AlphabetSet::a1());
        let bank1 = asm1.precompute(33);
        assert_eq!(asm1.multiply(66, &bank1).unwrap(), 66 * 33);
    }

    #[test]
    fn error_message_names_the_quartet() {
        let asm = AsmMultiplier::new(12, AlphabetSet::a2());
        // magnitude with Q quartet = 5 (unsupported by {1,3}).
        let mag = 5 << 4;
        let err = asm.decode(mag).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.to_string().contains("quartet 1"));
    }
}
