//! Gate-level netlist representation and a structurally-hashing builder.
//!
//! Circuits are built through [`Builder`], which performs the light
//! optimizations a synthesis tool would do for free — constant folding,
//! double-inversion removal and common-subexpression (structural) hashing —
//! so that generated datapaths are not padded with dead logic that would
//! inflate area and power dishonestly. [`Builder::finish`] additionally
//! prunes every gate outside the cone of the declared outputs.
//!
//! Netlists are combinational and acyclic by construction: a gate can only
//! reference nets that already exist. Registers are accounted for at the
//! [`crate::circuit::Circuit`] level.

use std::collections::HashMap;

use crate::cell::CellKind;

/// A single-bit signal in a netlist (an index into the node table).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(u32);

impl Net {
    /// The node index this net is driven by.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A multi-bit signal, least-significant bit first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bus(Vec<Net>);

impl Bus {
    /// Builds a bus from LSB-first nets.
    pub fn from_nets(nets: Vec<Net>) -> Self {
        Self(nets)
    }

    /// Width in bits.
    pub(crate) fn width(&self) -> usize {
        self.0.len()
    }

    /// The net at bit position `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn net(&self, i: usize) -> Net {
        self.0[i]
    }

    /// All nets, LSB first.
    pub fn nets(&self) -> &[Net] {
        &self.0
    }

    /// A sub-range of the bus as a new bus.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> Bus {
        Bus(self.0[range].to_vec())
    }
}

/// The operation computed by one node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeOp {
    /// External input bit (value supplied per simulation vector).
    Input,
    /// Constant driver.
    Const(bool),
    /// Inverter or buffer.
    Unary(CellKind, Net),
    /// Two-input gate.
    Binary(CellKind, Net, Net),
    /// 2:1 mux: `sel == 0` selects `a`, `sel == 1` selects `b`.
    Mux {
        /// Select input.
        sel: Net,
        /// Data input chosen when `sel == 0`.
        a: Net,
        /// Data input chosen when `sel == 1`.
        b: Net,
    },
}

impl NodeOp {
    /// The library cell implementing this node, if it is a gate.
    pub(crate) fn cell(&self) -> Option<CellKind> {
        match self {
            NodeOp::Input | NodeOp::Const(_) => None,
            NodeOp::Unary(k, _) | NodeOp::Binary(k, _, _) => Some(*k),
            NodeOp::Mux { .. } => Some(CellKind::Mux2),
        }
    }
}

/// A finished combinational netlist with named input and output buses.
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    nodes: Vec<NodeOp>,
    inputs: Vec<(String, Vec<Net>)>,
    outputs: Vec<(String, Vec<Net>)>,
}

impl Netlist {
    /// Netlist name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Node table in topological order (operands always precede users).
    pub fn nodes(&self) -> &[NodeOp] {
        &self.nodes
    }

    /// Number of instantiated gates (inputs and constants excluded).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.cell().is_some()).count()
    }

    /// Per-cell-kind gate histogram.
    pub fn cell_counts(&self) -> std::collections::BTreeMap<CellKind, usize> {
        let mut map = std::collections::BTreeMap::new();
        for n in &self.nodes {
            if let Some(k) = n.cell() {
                *map.entry(k).or_insert(0) += 1;
            }
        }
        map
    }

    /// Named output buses.
    pub(crate) fn outputs(&self) -> &[(String, Vec<Net>)] {
        &self.outputs
    }

    /// Finds an input bus by name.
    pub(crate) fn input(&self, name: &str) -> Option<&[Net]> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nets)| nets.as_slice())
    }

    /// Finds an output bus by name.
    pub(crate) fn output(&self, name: &str) -> Option<&[Net]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nets)| nets.as_slice())
    }
}

#[derive(Debug, PartialEq, Eq, Hash)]
enum CseKey {
    Unary(CellKind, Net),
    Binary(CellKind, Net, Net),
    Mux(Net, Net, Net),
}

/// Incrementally constructs a [`Netlist`].
///
/// # Example
///
/// ```
/// use man_hw::netlist::Builder;
///
/// let mut b = Builder::new("and3");
/// let x = b.input_bus("x", 3);
/// let y = b.and(b2(&x, 0), b2(&x, 1));
/// let y = b.and(y, b2(&x, 2));
/// b.output_bus("y", &man_hw::netlist::Bus::from_nets(vec![y]));
/// let nl = b.finish();
/// assert_eq!(nl.gate_count(), 2);
///
/// fn b2(bus: &man_hw::netlist::Bus, i: usize) -> man_hw::netlist::Net {
///     bus.net(i)
/// }
/// ```
#[derive(Debug)]
pub struct Builder {
    name: String,
    nodes: Vec<NodeOp>,
    inputs: Vec<(String, Vec<Net>)>,
    outputs: Vec<(String, Vec<Net>)>,
    cse: HashMap<CseKey, Net>,
    const0: Option<Net>,
    const1: Option<Net>,
}

impl Builder {
    /// Starts a new netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            cse: HashMap::new(),
            const0: None,
            const1: None,
        }
    }

    fn push(&mut self, op: NodeOp) -> Net {
        let net = Net(self.nodes.len() as u32);
        self.nodes.push(op);
        net
    }

    fn intern(&mut self, key: CseKey, op: NodeOp) -> Net {
        if let Some(&net) = self.cse.get(&key) {
            return net;
        }
        let net = self.push(op);
        self.cse.insert(key, net);
        net
    }

    fn const_of(&self, net: Net) -> Option<bool> {
        match self.nodes[net.index()] {
            NodeOp::Const(v) => Some(v),
            _ => None,
        }
    }

    /// A constant-0 or constant-1 net (cached).
    pub fn constant(&mut self, value: bool) -> Net {
        let slot = if value {
            &mut self.const1
        } else {
            &mut self.const0
        };
        if let Some(net) = *slot {
            return net;
        }
        let net = Net(self.nodes.len() as u32);
        self.nodes.push(NodeOp::Const(value));
        if value {
            self.const1 = Some(net);
        } else {
            self.const0 = Some(net);
        }
        net
    }

    /// Declares a `width`-bit external input bus.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used or `width` is 0 or > 64.
    pub fn input_bus(&mut self, name: impl Into<String>, width: usize) -> Bus {
        let name = name.into();
        assert!(
            self.inputs.iter().all(|(n, _)| *n != name),
            "duplicate input bus {name:?}"
        );
        assert!((1..=64).contains(&width), "bus width must be in 1..=64");
        let nets: Vec<Net> = (0..width).map(|_| self.push(NodeOp::Input)).collect();
        self.inputs.push((name, nets.clone()));
        Bus(nets)
    }

    /// A bus wired to the constant `value` (LSB first).
    pub(crate) fn const_bus(&mut self, value: u64, width: usize) -> Bus {
        Bus((0..width)
            .map(|i| self.constant((value >> i) & 1 == 1))
            .collect())
    }

    /// Inverter (folds constants and double inversion).
    pub fn not(&mut self, a: Net) -> Net {
        if let Some(v) = self.const_of(a) {
            return self.constant(!v);
        }
        if let NodeOp::Unary(CellKind::Inv, inner) = self.nodes[a.index()] {
            return inner;
        }
        self.intern(
            CseKey::Unary(CellKind::Inv, a),
            NodeOp::Unary(CellKind::Inv, a),
        )
    }

    fn binary(&mut self, kind: CellKind, a: Net, b: Net) -> Net {
        // Canonical operand order keeps commutative gates hashable.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(CseKey::Binary(kind, a, b), NodeOp::Binary(kind, a, b))
    }

    /// 2-input AND with folding.
    pub fn and(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ => self.binary(CellKind::And2, a, b),
        }
    }

    /// 2-input OR with folding.
    pub fn or(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.constant(true),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ if a == b => a,
            _ => self.binary(CellKind::Or2, a, b),
        }
    }

    /// 2-input XOR with folding.
    pub fn xor(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ if a == b => self.constant(false),
            _ => self.binary(CellKind::Xor2, a, b),
        }
    }

    /// 2-input NAND with folding.
    pub fn nand(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(true),
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ if a == b => self.not(a),
            _ => self.binary(CellKind::Nand2, a, b),
        }
    }

    /// 2-input NOR with folding.
    pub fn nor(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.constant(false),
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ if a == b => self.not(a),
            _ => self.binary(CellKind::Nor2, a, b),
        }
    }

    /// 2-input XNOR with folding.
    pub fn xnor(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) => b,
            (_, Some(true)) => a,
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ if a == b => self.constant(true),
            _ => self.binary(CellKind::Xnor2, a, b),
        }
    }

    /// 2:1 mux — `sel == 0` selects `a`, `sel == 1` selects `b` — with
    /// folding of constant selects and constant data inputs.
    pub fn mux(&mut self, sel: Net, a: Net, b: Net) -> Net {
        if let Some(s) = self.const_of(sel) {
            return if s { b } else { a };
        }
        if a == b {
            return a;
        }
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => return self.and(sel, b),
            (Some(true), _) => {
                let ns = self.not(sel);
                return self.or(ns, b);
            }
            (_, Some(false)) => {
                let ns = self.not(sel);
                return self.and(ns, a);
            }
            (_, Some(true)) => return self.or(sel, a),
            _ => {}
        }
        self.intern(CseKey::Mux(sel, a, b), NodeOp::Mux { sel, a, b })
    }

    /// Bitwise mux over two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the bus widths differ.
    pub(crate) fn mux_bus(&mut self, sel: Net, a: &Bus, b: &Bus) -> Bus {
        assert_eq!(a.width(), b.width(), "mux_bus width mismatch");
        Bus((0..a.width())
            .map(|i| self.mux(sel, a.net(i), b.net(i)))
            .collect())
    }

    /// Zero-extends (or truncates) a bus to `width`.
    pub(crate) fn resize_bus(&mut self, bus: &Bus, width: usize) -> Bus {
        let zero = self.constant(false);
        Bus((0..width)
            .map(|i| if i < bus.width() { bus.net(i) } else { zero })
            .collect())
    }

    /// Shifts a bus left by a constant `k`, growing it to `width` bits
    /// (pure wiring: zero bits shift in, high bits beyond `width` drop).
    pub(crate) fn shift_left_const(&mut self, bus: &Bus, k: usize, width: usize) -> Bus {
        let zero = self.constant(false);
        Bus((0..width)
            .map(|i| {
                if i >= k && i - k < bus.width() {
                    bus.net(i - k)
                } else {
                    zero
                }
            })
            .collect())
    }

    /// Bitwise AND of a whole bus with one enable net.
    pub(crate) fn mask_bus(&mut self, bus: &Bus, enable: Net) -> Bus {
        Bus((0..bus.width())
            .map(|i| self.and(bus.net(i), enable))
            .collect())
    }

    /// Declares a named output bus.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used.
    pub fn output_bus(&mut self, name: impl Into<String>, bus: &Bus) {
        let name = name.into();
        assert!(
            self.outputs.iter().all(|(n, _)| *n != name),
            "duplicate output bus {name:?}"
        );
        self.outputs.push((name, bus.0.clone()));
    }

    /// Finishes the netlist: prunes every node outside the output cone
    /// (inputs are always retained) and compacts indices.
    pub fn finish(self) -> Netlist {
        let mut live = vec![false; self.nodes.len()];
        // Inputs stay live so simulation vectors can always be applied.
        for (_, nets) in &self.inputs {
            for n in nets {
                live[n.index()] = true;
            }
        }
        let mut stack: Vec<usize> = self
            .outputs
            .iter()
            .flat_map(|(_, nets)| nets.iter().map(|n| n.index()))
            .collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            match self.nodes[i] {
                NodeOp::Input | NodeOp::Const(_) => {}
                NodeOp::Unary(_, a) => stack.push(a.index()),
                NodeOp::Binary(_, a, b) => {
                    stack.push(a.index());
                    stack.push(b.index());
                }
                NodeOp::Mux { sel, a, b } => {
                    stack.push(sel.index());
                    stack.push(a.index());
                    stack.push(b.index());
                }
            }
        }
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (i, op) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let m = |n: Net| Net(remap[n.index()]);
            let new_op = match *op {
                NodeOp::Input => NodeOp::Input,
                NodeOp::Const(v) => NodeOp::Const(v),
                NodeOp::Unary(k, a) => NodeOp::Unary(k, m(a)),
                NodeOp::Binary(k, a, b) => NodeOp::Binary(k, m(a), m(b)),
                NodeOp::Mux { sel, a, b } => NodeOp::Mux {
                    sel: m(sel),
                    a: m(a),
                    b: m(b),
                },
            };
            remap[i] = nodes.len() as u32;
            nodes.push(new_op);
        }
        let remap_nets = |nets: &[Net]| nets.iter().map(|n| Net(remap[n.index()])).collect();
        Netlist {
            name: self.name,
            nodes,
            inputs: self
                .inputs
                .iter()
                .map(|(n, nets)| (n.clone(), remap_nets(nets)))
                .collect(),
            outputs: self
                .outputs
                .iter()
                .map(|(n, nets)| (n.clone(), remap_nets(nets)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_removes_gates() {
        let mut b = Builder::new("fold");
        let x = b.input_bus("x", 1);
        let zero = b.constant(false);
        let one = b.constant(true);
        assert_eq!(b.and(x.net(0), zero), zero);
        assert_eq!(b.and(x.net(0), one), x.net(0));
        assert_eq!(b.or(x.net(0), one), one);
        assert_eq!(b.xor(x.net(0), zero), x.net(0));
        let nx = b.not(x.net(0));
        assert_eq!(b.not(nx), x.net(0), "double inversion folds");
    }

    #[test]
    fn structural_hashing_shares_gates() {
        let mut b = Builder::new("cse");
        let x = b.input_bus("x", 2);
        let g1 = b.and(x.net(0), x.net(1));
        let g2 = b.and(x.net(1), x.net(0)); // commuted
        assert_eq!(g1, g2);
        let out = Bus::from_nets(vec![g1]);
        b.output_bus("y", &out);
        assert_eq!(b.finish().gate_count(), 1);
    }

    #[test]
    fn finish_prunes_dead_logic() {
        let mut b = Builder::new("prune");
        let x = b.input_bus("x", 2);
        let used = b.and(x.net(0), x.net(1));
        let _dead = b.xor(x.net(0), x.net(1));
        b.output_bus("y", &Bus::from_nets(vec![used]));
        let nl = b.finish();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.input("x").unwrap().len(), 2);
    }

    #[test]
    fn mux_folds_constant_data() {
        let mut b = Builder::new("muxfold");
        let x = b.input_bus("x", 2);
        let zero = b.constant(false);
        // mux(s, a, 0) = !s & a -> INV + AND, no Mux2 cell.
        let m = b.mux(x.net(0), x.net(1), zero);
        b.output_bus("y", &Bus::from_nets(vec![m]));
        let nl = b.finish();
        assert!(!nl.cell_counts().contains_key(&CellKind::Mux2));
    }

    #[test]
    #[should_panic(expected = "duplicate input")]
    fn duplicate_input_names_rejected() {
        let mut b = Builder::new("dup");
        let _ = b.input_bus("x", 1);
        let _ = b.input_bus("x", 1);
    }

    #[test]
    fn shift_left_const_is_wiring_only() {
        let mut b = Builder::new("shift");
        let x = b.input_bus("x", 4);
        let before = b.finish_probe_gate_count();
        let y = b.shift_left_const(&x, 2, 8);
        assert_eq!(b.finish_probe_gate_count(), before);
        assert_eq!(y.width(), 8);
    }

    impl Builder {
        fn finish_probe_gate_count(&self) -> usize {
            self.nodes.iter().filter(|n| n.cell().is_some()).count()
        }
    }
}
