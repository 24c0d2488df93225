//! Switching-activity power estimation.
//!
//! Per-operation energy is measured by streaming *real operand traces*
//! through a word-parallel gate-level simulator and pricing each gate
//! toggle with its library switching energy. Registers contribute clock
//! energy every cycle plus data-dependent switching; leakage contributes
//! `P_leak · T_clk` per cycle. This mirrors the methodology of a
//! gate-level power tool fed with VCD activity, which is what the paper's
//! Design Compiler flow would report.
//!
//! # The word-parallel simulator
//!
//! [`stream_toggles`] compiles the netlist once into a flat tape of gate
//! ops over `u32` net indices and resolves every named input bus to its
//! nets once. Streams arrive column-wise — one slice of per-vector values
//! per bus — and are transposed 64 vectors at a time, so bit `j` of a
//! net's word is that net's value under vector `j` of the block and every
//! gate evaluates 64 vectors with one bitwise op (a mux is
//! `(s & b) | (!s & a)`). A net's toggles over a block are
//! `popcount((w ^ (w << 1 | last)) & mask)`, where `last` carries the net's
//! value under the previous block's final vector and `mask` drops the
//! stream's first vector (the electrical baseline) and the padding past
//! its end. Constants and buses the stream leaves unassigned hold their
//! value. The counts equal the scalar reference [`crate::eval::Evaluator`]
//! net for net, and both price them with the same node-order sum, so both
//! give the same energy bits.

use crate::cell::{CellKind, CellLibrary};
use crate::circuit::Circuit;
use crate::netlist::{Net, Netlist, NodeOp};

/// Energy of one operation (one clock cycle of useful work), split by
/// source.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Combinational switching energy, glitch-adjusted (fJ/op).
    pub comb_fj: f64,
    /// Register energy: clock tree + data switching (fJ/op).
    pub(crate) reg_fj: f64,
    /// Leakage energy over one cycle (fJ/op).
    pub(crate) leakage_fj: f64,
}

impl EnergyBreakdown {
    /// Total energy per operation in fJ.
    pub fn total_fj(&self) -> f64 {
        self.comb_fj + self.reg_fj + self.leakage_fj
    }

    /// Scales the energy (e.g. to amortize a shared block over N lanes).
    pub fn scaled(self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            comb_fj: self.comb_fj * factor,
            reg_fj: self.reg_fj * factor,
            leakage_fj: self.leakage_fj * factor,
        }
    }
}

/// Power-model knobs.
#[derive(Copy, Clone, Debug)]
pub struct PowerModel {
    /// Fraction of register bits whose data input toggles per cycle
    /// (used for the data-dependent part of register energy).
    pub(crate) reg_data_activity: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            reg_data_activity: 0.25,
        }
    }
}

/// Measures the average per-operation energy of `circuit` over an operand
/// stream.
///
/// `columns` holds one `(bus, values)` pair per driven input bus, where
/// `values[i]` is the bus's value in clock cycle `i`; every column has the
/// same length. The first vector establishes the electrical baseline and
/// is not billed.
///
/// # Panics
///
/// Panics if the stream has fewer than 2 vectors, names an unknown or
/// repeated bus, or has columns of different lengths.
pub fn measure_stream_energy(
    circuit: &Circuit,
    lib: &CellLibrary,
    model: &PowerModel,
    columns: &[(&str, &[u64])],
    clock_ps: f64,
) -> EnergyBreakdown {
    let vectors = columns.first().map_or(0, |(_, values)| values.len());
    assert!(vectors >= 2, "need at least 2 vectors to measure energy");
    let netlist = circuit.netlist();
    let toggles = stream_toggles(netlist, columns);
    let ops = (vectors - 1) as f64;
    let comb_fj = dynamic_energy_fj(netlist, &toggles, lib) * circuit.glitch_factor() / ops;
    let reg_fj = register_energy_fj(circuit, lib, model);
    let leakage_fj = circuit.leakage_nw(lib) * clock_ps * 1e-6;
    EnergyBreakdown {
        comb_fj,
        reg_fj,
        leakage_fj,
    }
}

/// `Σ toggles(gate) · switch_fj(cell)`, summed in node order; the one sum
/// both simulators price their toggle counts with.
pub(crate) fn dynamic_energy_fj(netlist: &Netlist, toggles: &[u64], lib: &CellLibrary) -> f64 {
    netlist
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, op)| op.cell().map(|k| (i, k)))
        .map(|(i, kind)| toggles[i] as f64 * lib.params(kind).switch_fj)
        .sum()
}

/// One gate of the compiled tape, with its operands as net indices.
#[derive(Copy, Clone)]
enum Op {
    Inv(u32),
    Buf(u32),
    And(u32, u32),
    Or(u32, u32),
    Nand(u32, u32),
    Nor(u32, u32),
    Xor(u32, u32),
    Xnor(u32, u32),
    Mux { sel: u32, a: u32, b: u32 },
}

impl Op {
    fn compile(op: &NodeOp) -> Option<Op> {
        let n = |net: Net| net.index() as u32;
        Some(match *op {
            NodeOp::Input | NodeOp::Const(_) => return None,
            NodeOp::Unary(CellKind::Inv, a) => Op::Inv(n(a)),
            NodeOp::Unary(_, a) => Op::Buf(n(a)),
            NodeOp::Binary(kind, a, b) => {
                let (a, b) = (n(a), n(b));
                match kind {
                    CellKind::And2 => Op::And(a, b),
                    CellKind::Or2 => Op::Or(a, b),
                    CellKind::Nand2 => Op::Nand(a, b),
                    CellKind::Nor2 => Op::Nor(a, b),
                    CellKind::Xor2 => Op::Xor(a, b),
                    CellKind::Xnor2 => Op::Xnor(a, b),
                    _ => unreachable!("non-binary cell in binary node"),
                }
            }
            NodeOp::Mux { sel, a, b } => Op::Mux {
                sel: n(sel),
                a: n(a),
                b: n(b),
            },
        })
    }

    /// The gate's output word for 64 vectors at once.
    #[inline]
    fn eval(self, w: &[u64]) -> u64 {
        let v = |i: u32| w[i as usize];
        match self {
            Op::Inv(a) => !v(a),
            Op::Buf(a) => v(a),
            Op::And(a, b) => v(a) & v(b),
            Op::Or(a, b) => v(a) | v(b),
            Op::Nand(a, b) => !(v(a) & v(b)),
            Op::Nor(a, b) => !(v(a) | v(b)),
            Op::Xor(a, b) => v(a) ^ v(b),
            Op::Xnor(a, b) => !(v(a) ^ v(b)),
            Op::Mux { sel, a, b } => {
                let s = v(sel);
                (s & v(b)) | (!s & v(a))
            }
        }
    }
}

/// Per-net toggle counts of `netlist` driven by a column-wise stream.
///
/// `columns` holds one `(bus, values)` pair per driven input bus, all of
/// the same length `n`; `values[i]` is the bus's LSB-first value under
/// vector `i`, and bits above the bus width are ignored. Every net starts
/// at 0 (constants at their value), buses left out of `columns` hold 0,
/// and the first vector establishes the baseline without being counted.
/// Element `i` of the result is the number of vectors among `1..n` under
/// which net `i` differs from the vector before — for inputs and gates
/// alike, exactly the counts [`crate::eval::Evaluator::toggles`] reports
/// after `n` steps.
///
/// # Example
///
/// ```
/// use man_hw::components::adder::{adder, AdderKind};
/// use man_hw::power::stream_toggles;
///
/// let circuit = adder(8, AdderKind::Ripple);
/// let (a, b) = ([1u64, 2, 3, 4], [7u64, 7, 7, 7]);
/// let toggles = stream_toggles(circuit.netlist(), &[("a", &a), ("b", &b)]);
/// assert!(toggles.iter().sum::<u64>() > 0);
/// ```
///
/// # Panics
///
/// Panics if a bus name is unknown or repeated, or if the columns differ
/// in length.
pub fn stream_toggles(netlist: &Netlist, columns: &[(&str, &[u64])]) -> Vec<u64> {
    let vectors = columns.first().map_or(0, |(_, values)| values.len());
    let buses: Vec<(&[Net], &[u64])> = columns
        .iter()
        .enumerate()
        .map(|(i, &(name, values))| {
            assert!(
                columns[..i].iter().all(|(other, _)| *other != name),
                "input bus {name:?} assigned twice"
            );
            assert_eq!(
                values.len(),
                vectors,
                "column {name:?} differs in length from the first column"
            );
            let nets = netlist
                .input(name)
                .unwrap_or_else(|| panic!("unknown input bus {name:?}"));
            (nets, values)
        })
        .collect();
    let nodes = netlist.nodes();
    let tape: Vec<(u32, Op)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, op)| Op::compile(op).map(|op| (i as u32, op)))
        .collect();
    let mut words: Vec<u64> = nodes
        .iter()
        .map(|op| match op {
            NodeOp::Const(true) => !0,
            _ => 0,
        })
        .collect();
    let mut toggles = vec![0u64; nodes.len()];
    let mut block = [0u64; 64];
    for start in (0..vectors).step_by(64) {
        let len = (vectors - start).min(64);
        let mut mask = if len == 64 { !0 } else { (1u64 << len) - 1 };
        if start == 0 {
            mask &= !1;
        }
        for &(nets, values) in &buses {
            block[..len].copy_from_slice(&values[start..start + len]);
            block[len..].fill(0);
            transpose64(&mut block);
            for (net, &w) in nets.iter().zip(&block) {
                toggles[net.index()] += advance(&mut words[net.index()], w, mask);
            }
        }
        for &(out, op) in &tape {
            let w = op.eval(&words);
            toggles[out as usize] += advance(&mut words[out as usize], w, mask);
        }
    }
    toggles
}

/// Moves a net from its previous block's word to `w` and returns the
/// toggles `mask` bills: bit `j` toggles when it differs from bit `j - 1`,
/// and bit 0 from the previous block's bit 63.
#[inline]
fn advance(word: &mut u64, w: u64, mask: u64) -> u64 {
    let prev = (w << 1) | (*word >> 63);
    *word = w;
    u64::from(((w ^ prev) & mask).count_ones())
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `j` of `m[i]`
/// is what bit `i` of `m[j]` was.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut low: u64 = 0x0000_0000_ffff_ffff;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> width) ^ m[k + width]) & low;
            m[k] ^= t << width;
            m[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        low ^= low << width;
    }
}

/// Per-cycle register energy: every flop's clock pin toggles each cycle;
/// a `reg_data_activity` fraction of flops also switch their output.
pub(crate) fn register_energy_fj(circuit: &Circuit, lib: &CellLibrary, model: &PowerModel) -> f64 {
    let dff = lib.params(CellKind::Dff);
    circuit.regs() as f64 * (lib.dff_clock_fj + model.reg_data_activity * dff.switch_fj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::adder::{adder, AdderKind};

    #[test]
    fn random_stream_costs_more_than_constant_stream() {
        let lib = CellLibrary::nominal_45nm();
        let model = PowerModel::default();
        let c = adder(8, AdderKind::Ripple);
        let (a_const, b_const) = ([37u64; 50], [91u64; 50]);
        let a_noisy: Vec<u64> = (0..50).map(|i| (i * 37) % 256).collect();
        let b_noisy: Vec<u64> = (0..50).map(|i| (i * 91 + 13) % 256).collect();
        let constant = [("a", &a_const[..]), ("b", &b_const[..])];
        let noisy = [("a", &a_noisy[..]), ("b", &b_noisy[..])];
        let e_const = measure_stream_energy(&c, &lib, &model, &constant, 333.0);
        let e_noisy = measure_stream_energy(&c, &lib, &model, &noisy, 333.0);
        assert_eq!(e_const.comb_fj, 0.0);
        assert!(e_noisy.comb_fj > 0.0);
        assert!(e_noisy.total_fj() > e_const.total_fj());
    }

    #[test]
    fn leakage_scales_with_clock_period() {
        let lib = CellLibrary::nominal_45nm();
        let model = PowerModel::default();
        let c = adder(8, AdderKind::Ripple);
        let a: Vec<u64> = (0..10).collect();
        let b: Vec<u64> = (0..10).map(|i| i * 3).collect();
        let stream = [("a", &a[..]), ("b", &b[..])];
        let fast = measure_stream_energy(&c, &lib, &model, &stream, 333.0);
        let slow = measure_stream_energy(&c, &lib, &model, &stream, 666.0);
        assert!((slow.leakage_fj - 2.0 * fast.leakage_fj).abs() < 1e-9);
    }

    #[test]
    fn breakdown_scales() {
        let a = EnergyBreakdown {
            comb_fj: 1.0,
            reg_fj: 2.0,
            leakage_fj: 3.0,
        };
        assert_eq!(a.total_fj(), 6.0);
        assert_eq!(a.scaled(0.5).total_fj(), 3.0);
    }
}
