//! Standard-cell library: the technology the netlists are "mapped" to.
//!
//! The paper synthesizes its RTL processing engine to the IBM 45 nm library
//! with Synopsys DC Ultra. That PDK is proprietary, so this module provides a
//! *45 nm-class* library: per-cell area, propagation delay, switching energy
//! and leakage with magnitudes representative of published 45 nm data
//! (gate areas of a few µm², delays of tens of ps, switching energies around
//! a femtojoule). Absolute joules will differ from the IBM library; the
//! conventional-vs-ASM *ratios* reported by the experiments come from circuit
//! structure, not from these constants (see the ablation bench that scales
//! the library).

use serde::{Deserialize, Serialize};

/// The primitive cell kinds the netlist builder can instantiate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer (`sel == 0` selects the first data input).
    Mux2,
    /// D flip-flop (used for register-bank accounting, not in the
    /// combinational graph).
    Dff,
}

/// Electrical/physical characteristics of one cell.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Worst-case propagation delay in ps (input to output).
    pub(crate) delay_ps: f64,
    /// Energy per output transition in fJ (internal + average output load).
    pub switch_fj: f64,
    /// Leakage power in nW.
    pub(crate) leakage_nw: f64,
}

/// A complete cell library.
///
/// # Example
///
/// ```
/// use man_hw::cell::{CellKind, CellLibrary};
///
/// let lib = CellLibrary::nominal_45nm();
/// assert!(lib.params(CellKind::Xor2).area_um2 > lib.params(CellKind::Inv).area_um2);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    name: String,
    cells: [CellParams; 10],
    /// Extra energy a flip-flop consumes every clock cycle from the clock
    /// pin toggling, independent of data activity (fJ/cycle).
    pub(crate) dff_clock_fj: f64,
    /// DFF setup time in ps (subtracted from the usable clock period).
    pub(crate) dff_setup_ps: f64,
    /// DFF clock-to-Q delay in ps.
    pub(crate) dff_clk_q_ps: f64,
}

impl CellLibrary {
    /// A 45 nm-class library with representative magnitudes.
    pub fn nominal_45nm() -> Self {
        use CellKind::*;
        let mut cells = [CellParams {
            area_um2: 0.0,
            delay_ps: 0.0,
            switch_fj: 0.0,
            leakage_nw: 0.0,
        }; 10];
        let set = |cells: &mut [CellParams; 10], k: CellKind, area, delay, sw, leak| {
            cells[k as usize] = CellParams {
                area_um2: area,
                delay_ps: delay,
                switch_fj: sw,
                leakage_nw: leak,
            };
        };
        set(&mut cells, Inv, 0.8, 12.0, 0.35, 6.0);
        set(&mut cells, Buf, 1.1, 22.0, 0.50, 8.0);
        set(&mut cells, And2, 1.4, 26.0, 0.75, 11.0);
        set(&mut cells, Or2, 1.4, 27.0, 0.75, 11.0);
        set(&mut cells, Nand2, 1.1, 17.0, 0.60, 9.0);
        set(&mut cells, Nor2, 1.1, 21.0, 0.60, 9.0);
        set(&mut cells, Xor2, 2.2, 36.0, 1.30, 16.0);
        set(&mut cells, Xnor2, 2.2, 36.0, 1.30, 16.0);
        set(&mut cells, Mux2, 2.3, 31.0, 1.10, 14.0);
        set(&mut cells, Dff, 4.6, 0.0, 1.60, 28.0);
        Self {
            name: "nominal-45nm".to_owned(),
            cells,
            dff_clock_fj: 0.9,
            dff_setup_ps: 28.0,
            dff_clk_q_ps: 55.0,
        }
    }

    /// Library name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Characteristics of `kind`.
    pub fn params(&self, kind: CellKind) -> CellParams {
        self.cells[kind as usize]
    }

    /// Returns a copy of the library with every delay/energy/area scaled —
    /// used by the sensitivity ablation to show result ratios are stable
    /// under library perturbation.
    pub fn scaled(&self, area: f64, delay: f64, energy: f64) -> Self {
        let mut out = self.clone();
        out.name = format!("{}-scaled", self.name);
        for c in &mut out.cells {
            c.area_um2 *= area;
            c.delay_ps *= delay;
            c.switch_fj *= energy;
            c.leakage_nw *= energy;
        }
        out.dff_clock_fj *= energy;
        out.dff_setup_ps *= delay;
        out.dff_clk_q_ps *= delay;
        out
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::nominal_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All library cells, in a stable order.
    const ALL: [CellKind; 10] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Dff,
    ];

    #[test]
    fn nominal_library_is_populated() {
        let lib = CellLibrary::nominal_45nm();
        for kind in ALL {
            let p = lib.params(kind);
            assert!(p.area_um2 > 0.0, "{kind:?} has no area");
            assert!(p.switch_fj > 0.0, "{kind:?} has no switching energy");
            assert!(p.leakage_nw > 0.0, "{kind:?} has no leakage");
        }
    }

    #[test]
    fn xor_is_costlier_than_nand() {
        let lib = CellLibrary::nominal_45nm();
        assert!(lib.params(CellKind::Xor2).switch_fj > lib.params(CellKind::Nand2).switch_fj);
        assert!(lib.params(CellKind::Xor2).delay_ps > lib.params(CellKind::Nand2).delay_ps);
    }

    #[test]
    fn scaling_applies_uniformly() {
        let lib = CellLibrary::nominal_45nm();
        let scaled = lib.scaled(2.0, 1.0, 0.5);
        let a = lib.params(CellKind::And2);
        let b = scaled.params(CellKind::And2);
        assert_eq!(b.area_um2, a.area_um2 * 2.0);
        assert_eq!(b.delay_ps, a.delay_ps);
        assert_eq!(b.switch_fj, a.switch_fj * 0.5);
    }
}
