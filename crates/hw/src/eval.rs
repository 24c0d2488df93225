//! Scalar reference logic simulation with per-gate toggle counting.
//!
//! [`Evaluator`] drives a netlist one input vector at a time, one `bool`
//! per net, and counts every transition of every net. It is the readable
//! reference for the word-parallel simulator behind the power model
//! ([`crate::power::stream_toggles`], which must reproduce its counts
//! exactly) and the functional checker the component tests use to compare
//! a generated circuit with integer arithmetic. Dynamic energy is
//! `Σ toggles(g) · E_switch(cell(g))`. The simulation is zero-delay, so
//! glitching inside deep combinational logic is not captured directly;
//! circuit generators annotate a glitch factor instead (see
//! `crate::circuit::Circuit::glitch_factor`).

use crate::cell::CellLibrary;
use crate::netlist::{Netlist, NodeOp};

/// Simulates a netlist over a stream of input vectors, accumulating per-gate
/// toggle counts.
///
/// # Example
///
/// ```
/// use man_hw::components::adder::{adder, AdderKind};
/// use man_hw::eval::Evaluator;
///
/// let circuit = adder(8, AdderKind::Ripple);
/// let mut sim = Evaluator::new(circuit.netlist());
/// sim.step(&[("a", 100), ("b", 55)]);
/// assert_eq!(sim.output("sum"), 155);
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    toggles: Vec<u64>,
    vectors: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `netlist` with all signals initially 0.
    pub fn new(netlist: &'a Netlist) -> Self {
        let n = netlist.nodes().len();
        let mut values = vec![false; n];
        for (i, op) in netlist.nodes().iter().enumerate() {
            if let NodeOp::Const(v) = op {
                values[i] = *v;
            }
        }
        Self {
            netlist,
            values,
            toggles: vec![0; n],
            vectors: 0,
        }
    }

    /// Applies one input vector and propagates it through the netlist.
    ///
    /// Toggle counting starts from the second vector (the first establishes
    /// the baseline state). Unassigned input buses keep their previous
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if an input bus name is unknown.
    pub fn step(&mut self, inputs: &[(&str, u64)]) {
        for (name, value) in inputs {
            let nets = self
                .netlist
                .input(name)
                .unwrap_or_else(|| panic!("unknown input bus {name:?}"));
            for (bit, net) in nets.iter().enumerate() {
                let v = (value >> bit) & 1 == 1;
                let idx = net.index();
                if self.values[idx] != v {
                    self.values[idx] = v;
                    if self.vectors > 0 {
                        self.toggles[idx] += 1;
                    }
                }
            }
        }
        for i in 0..self.netlist.nodes().len() {
            let new = match self.netlist.nodes()[i] {
                NodeOp::Input | NodeOp::Const(_) => continue,
                NodeOp::Unary(kind, a) => {
                    let va = self.values[a.index()];
                    match kind {
                        crate::cell::CellKind::Inv => !va,
                        _ => va,
                    }
                }
                NodeOp::Binary(kind, a, b) => {
                    use crate::cell::CellKind::*;
                    let (va, vb) = (self.values[a.index()], self.values[b.index()]);
                    match kind {
                        And2 => va & vb,
                        Or2 => va | vb,
                        Nand2 => !(va & vb),
                        Nor2 => !(va | vb),
                        Xor2 => va ^ vb,
                        Xnor2 => !(va ^ vb),
                        _ => unreachable!("non-binary cell in binary node"),
                    }
                }
                NodeOp::Mux { sel, a, b } => {
                    if self.values[sel.index()] {
                        self.values[b.index()]
                    } else {
                        self.values[a.index()]
                    }
                }
            };
            if self.values[i] != new {
                self.values[i] = new;
                if self.vectors > 0 {
                    self.toggles[i] += 1;
                }
            }
        }
        self.vectors += 1;
    }

    /// Reads an output bus as an LSB-first integer.
    ///
    /// # Panics
    ///
    /// Panics if the output bus name is unknown.
    pub fn output(&self, name: &str) -> u64 {
        let nets = self
            .netlist
            .output(name)
            .unwrap_or_else(|| panic!("unknown output bus {name:?}"));
        nets.iter().enumerate().fold(0u64, |acc, (bit, net)| {
            acc | ((self.values[net.index()] as u64) << bit)
        })
    }

    /// Number of *transitions* observed so far (vectors beyond the first).
    pub fn transitions(&self) -> u64 {
        self.vectors.saturating_sub(1)
    }

    /// Per-net toggle counts so far, indexed like
    /// [`Netlist::nodes`](crate::netlist::Netlist::nodes) (input nets
    /// included).
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Dynamic energy in fJ accumulated over all observed transitions:
    /// `Σ toggles(gate) · switch_fj(cell)`.
    pub fn dynamic_energy_fj(&self, lib: &CellLibrary) -> f64 {
        crate::power::dynamic_energy_fj(self.netlist, &self.toggles, lib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Builder, Bus};

    /// Total toggle count across all gates.
    fn total_toggles(sim: &Evaluator) -> u64 {
        sim.netlist
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.cell().is_some())
            .map(|(i, _)| sim.toggles[i])
            .sum()
    }

    fn xor_netlist() -> Netlist {
        let mut b = Builder::new("xor");
        let x = b.input_bus("x", 2);
        let y = b.xor(x.net(0), x.net(1));
        b.output_bus("y", &Bus::from_nets(vec![y]));
        b.finish()
    }

    #[test]
    fn evaluates_truth_table() {
        let nl = xor_netlist();
        let mut sim = Evaluator::new(&nl);
        for (x, want) in [(0b00u64, 0), (0b01, 1), (0b10, 1), (0b11, 0)] {
            sim.step(&[("x", x)]);
            assert_eq!(sim.output("y"), want, "x={x:02b}");
        }
    }

    #[test]
    fn first_vector_establishes_baseline() {
        let nl = xor_netlist();
        let mut sim = Evaluator::new(&nl);
        sim.step(&[("x", 0b01)]); // baseline, no toggles counted
        assert_eq!(total_toggles(&sim), 0);
        sim.step(&[("x", 0b10)]); // output stays 1: no gate toggle
        assert_eq!(total_toggles(&sim), 0);
        sim.step(&[("x", 0b11)]); // output 1 -> 0
        assert_eq!(total_toggles(&sim), 1);
    }

    #[test]
    fn constant_inputs_cause_no_activity() {
        let nl = xor_netlist();
        let mut sim = Evaluator::new(&nl);
        for _ in 0..10 {
            sim.step(&[("x", 0b11)]);
        }
        assert_eq!(total_toggles(&sim), 0);
        assert_eq!(sim.dynamic_energy_fj(&CellLibrary::nominal_45nm()), 0.0);
    }

    #[test]
    fn random_data_consumes_energy() {
        let nl = xor_netlist();
        let mut sim = Evaluator::new(&nl);
        for i in 0..16u64 {
            sim.step(&[("x", i % 4)]);
        }
        assert!(sim.dynamic_energy_fj(&CellLibrary::nominal_45nm()) > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown input bus")]
    fn unknown_bus_panics() {
        let nl = xor_netlist();
        let mut sim = Evaluator::new(&nl);
        sim.step(&[("nope", 0)]);
    }
}
