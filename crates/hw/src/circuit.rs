//! A synthesized hardware block: a combinational netlist plus register and
//! pipelining metadata, with area/timing accessors.

use crate::cell::{CellKind, CellLibrary};
use crate::netlist::Netlist;
use crate::timing;

/// A hardware block as the cost model sees it: combinational gates, a number
/// of register bits (architectural + pipeline), a pipeline depth and a glitch
/// factor for the power model.
///
/// # Example
///
/// ```
/// use man_hw::cell::CellLibrary;
/// use man_hw::components::adder::{adder, AdderKind};
///
/// let lib = CellLibrary::nominal_45nm();
/// let rca = adder(8, AdderKind::Ripple);
/// let ks = adder(8, AdderKind::KoggeStone);
/// assert!(ks.area_um2(&lib) > rca.area_um2(&lib)); // fast adders pay area
/// assert!(ks.comb_delay_ps(&lib) < rca.comb_delay_ps(&lib));
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    netlist: Netlist,
    regs: u32,
    pipeline_stages: u32,
    glitch_factor: f64,
}

impl Circuit {
    /// Wraps a combinational netlist with no registers and unit glitch
    /// factor.
    pub fn combinational(netlist: Netlist) -> Self {
        Self {
            netlist,
            regs: 0,
            pipeline_stages: 1,
            glitch_factor: 1.0,
        }
    }

    /// Adds architectural register bits (e.g. an accumulator register).
    pub(crate) fn with_regs(mut self, regs: u32) -> Self {
        self.regs += regs;
        self
    }

    /// Sets the glitch factor applied to combinational dynamic energy.
    ///
    /// Zero-delay simulation misses glitches; deep array structures glitch
    /// substantially (literature reports 1.3–2× dynamic power in array
    /// multipliers), shallow mux/shift networks barely at all. Generators
    /// annotate the value; see DESIGN.md §5.
    ///
    /// # Panics
    ///
    /// Panics if `f < 1.0`.
    pub(crate) fn with_glitch_factor(mut self, f: f64) -> Self {
        assert!(f >= 1.0, "glitch factor must be >= 1.0");
        self.glitch_factor = f;
        self
    }

    /// Splits the block into `stages` pipeline stages, inserting register
    /// bits at the (approximately balanced) cut boundaries.
    ///
    /// `cut_width` is the bus width registered at each boundary.
    pub(crate) fn pipelined(mut self, stages: u32, cut_width: u32) -> Self {
        assert!(stages >= 1, "pipeline stages must be >= 1");
        self.pipeline_stages = stages;
        self.regs += (stages - 1) * cut_width;
        self
    }

    /// The underlying combinational netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Block name (from the netlist).
    pub fn name(&self) -> &str {
        self.netlist.name()
    }

    /// Register bit count (architectural + pipeline).
    pub(crate) fn regs(&self) -> u32 {
        self.regs
    }

    /// Pipeline depth (1 = single-cycle combinational).
    pub fn pipeline_stages(&self) -> u32 {
        self.pipeline_stages
    }

    /// Glitch factor used by the power model.
    pub(crate) fn glitch_factor(&self) -> f64 {
        self.glitch_factor
    }

    /// Total cell area in µm², including registers.
    pub fn area_um2(&self, lib: &CellLibrary) -> f64 {
        let comb: f64 = self
            .netlist
            .cell_counts()
            .iter()
            .map(|(kind, count)| lib.params(*kind).area_um2 * *count as f64)
            .sum();
        comb + self.regs as f64 * lib.params(CellKind::Dff).area_um2
    }

    /// Total leakage power in nW, including registers.
    pub(crate) fn leakage_nw(&self, lib: &CellLibrary) -> f64 {
        let comb: f64 = self
            .netlist
            .cell_counts()
            .iter()
            .map(|(kind, count)| lib.params(*kind).leakage_nw * *count as f64)
            .sum();
        comb + self.regs as f64 * lib.params(CellKind::Dff).leakage_nw
    }

    /// Combinational gate count.
    pub fn gate_count(&self) -> usize {
        self.netlist.gate_count()
    }

    /// End-to-end combinational delay (ignores pipelining).
    pub fn comb_delay_ps(&self, lib: &CellLibrary) -> f64 {
        timing::critical_path_ps(&self.netlist, lib)
    }

    /// Worst per-cycle path: combinational delay divided across pipeline
    /// stages (balanced-cut approximation), plus flop clock-to-Q and setup
    /// when the block is registered.
    pub(crate) fn cycle_delay_ps(&self, lib: &CellLibrary) -> f64 {
        let comb = self.comb_delay_ps(lib) / self.pipeline_stages as f64;
        if self.regs > 0 || self.pipeline_stages > 1 {
            comb + lib.dff_clk_q_ps + lib.dff_setup_ps
        } else {
            comb
        }
    }

    /// Whether the block meets a clock period (in ps).
    pub(crate) fn meets_clock(&self, lib: &CellLibrary, clock_ps: f64) -> bool {
        self.cycle_delay_ps(lib) <= clock_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Builder, Bus};

    fn tiny() -> Netlist {
        let mut b = Builder::new("tiny");
        let x = b.input_bus("x", 2);
        let y = b.and(x.net(0), x.net(1));
        b.output_bus("y", &Bus::from_nets(vec![y]));
        b.finish()
    }

    #[test]
    fn area_includes_registers() {
        let lib = CellLibrary::nominal_45nm();
        let c = Circuit::combinational(tiny());
        let with_regs = c.clone().with_regs(8);
        assert!(with_regs.area_um2(&lib) > c.area_um2(&lib));
        let dff = lib.params(CellKind::Dff).area_um2;
        assert!((with_regs.area_um2(&lib) - c.area_um2(&lib) - 8.0 * dff).abs() < 1e-9);
    }

    #[test]
    fn pipelining_shortens_cycle_but_adds_regs() {
        let lib = CellLibrary::nominal_45nm();
        let c = Circuit::combinational(tiny());
        let p = c.clone().pipelined(2, 4);
        assert_eq!(p.regs(), 4);
        assert!(p.cycle_delay_ps(&lib) >= c.comb_delay_ps(&lib) / 2.0);
    }

    #[test]
    #[should_panic(expected = "glitch factor")]
    fn glitch_factor_below_one_rejected() {
        let _ = Circuit::combinational(tiny()).with_glitch_factor(0.5);
    }
}
