//! Datapath module generators ("a library of RTL blocks"): adders,
//! multipliers, shifters, muxes, random logic, the ASM
//! select/shift/combine stage, the alphabet pre-computer bank, MAC stages
//! and the PLAN activation unit.

pub mod activation;
pub mod adder;
pub mod asm;
pub(crate) mod logic;
pub mod mac;
pub mod multiplier;
pub(crate) mod mux;
pub mod precompute;
pub mod shifter;
