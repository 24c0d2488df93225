//! **MAN** — Multiplier-less Artificial Neurons: a full reproduction of
//! Sarwar, Venkataramani, Raghunathan & Roy, *"Multiplier-less Artificial
//! Neurons Exploiting Error Resiliency for Energy-Efficient Neural
//! Computing"*, DATE 2016.
//!
//! The paper replaces the multiplier in a digital neuron with an
//! approximate **Alphabet Set Multiplier** (ASM): a pre-computer bank forms
//! a few odd multiples (*alphabets*) of the input, and each 4-bit quartet
//! of the weight selects, shifts and adds one of them. With fewer alphabets
//! some quartet values become unrepresentable, so training is modified to
//! constrain weights onto the representable lattice (Algorithm 1) and the
//! network is retrained with the constraint in place (Algorithm 2). The
//! 1-alphabet set `{1}` needs no pre-computer at all — the
//! **Multiplier-less Artificial Neuron** (MAN).
//!
//! Crate map:
//!
//! * [`alphabet`], [`quartet`], [`asm`] — the functional ASM (bit-exact
//!   twin of the `man-hw` gate-level datapath);
//! * [`constrain`] — Algorithm 1 (exact and greedy projections);
//! * [`train`] — Algorithm 2 (constrained retraining methodology);
//! * [`fixed`] — the fixed-point inference engine (compiled networks,
//!   the exact-integer MAC path, the ASM reference path, PLAN sigmoid,
//!   operand tracing);
//! * [`engine`] — the 4-lane CSHM processing-engine cost model (cycles,
//!   switching-activity energy, area at iso-speed);
//! * [`zoo`] — the five Table-IV benchmark applications.
//!
//! # Example
//!
//! ```
//! use man::alphabet::AlphabetSet;
//! use man::asm::AsmMultiplier;
//!
//! // A MAN multiplier: only shift and add, no pre-computer bank.
//! let man = AsmMultiplier::new(8, AlphabetSet::a1());
//! let bank = man.precompute(77);
//! // 66 = 0b100_0010: quartets 2 and 4, both powers of two.
//! assert_eq!(man.multiply(66, &bank).unwrap(), 66 * 77);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod asm;
pub mod constrain;
pub mod engine;
pub mod fixed;
pub mod quartet;
pub mod train;
pub mod zoo;
