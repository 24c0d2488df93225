//! Gate-level hardware modeling substrate for the MAN reproduction.
//!
//! The paper evaluates its neurons by synthesizing an RTL processing engine
//! to IBM 45 nm with Synopsys DC Ultra and reporting energy, power and area
//! under iso-speed conditions. This crate rebuilds that flow from scratch:
//!
//! * [`cell`] — a 45 nm-class standard-cell library;
//! * [`netlist`] — structural netlists with a hashing/folding builder;
//! * [`eval`] — scalar reference logic simulation counting per-gate toggles;
//! * `timing` — static timing analysis;
//! * [`power`] — switching-activity energy estimation over real operand
//!   streams, simulated 64 vectors per word;
//! * [`components`] — module generators for every datapath block of the
//!   conventional, ASM and MAN neurons;
//! * [`synth`] — iso-speed architecture selection and pipelining;
//! * [`neuron`] — assembled neuron datapaths.
//!
//! # Example
//!
//! ```
//! use man_hw::cell::CellLibrary;
//! use man_hw::neuron::{NeuronDatapath, NeuronKind, NeuronSpec};
//!
//! let lib = CellLibrary::nominal_45nm();
//! let conv = NeuronDatapath::build(NeuronSpec::paper(8, NeuronKind::Conventional), &lib)?;
//! let man = NeuronDatapath::build(NeuronSpec::paper(8, NeuronKind::Asm(vec![1])), &lib)?;
//! assert!(man.neuron_area_um2(&lib) < conv.neuron_area_um2(&lib));
//! # Ok::<(), man_hw::synth::TimingClosureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod circuit;
pub mod components;
pub mod eval;
pub mod netlist;
pub mod neuron;
pub mod power;
pub mod synth;
mod timing;
