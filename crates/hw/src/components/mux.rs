//! Wide multiplexer trees — the ASM "select" unit that routes one of the
//! pre-computed alphabet products into the shift stage.

use crate::netlist::{Builder, Bus};

/// Selects one of `options` (all equal width) by the binary index on `sel`
/// (LSB-first). Missing options (when `options.len() < 2^sel.width()`)
/// default to the last provided option, which synthesis would treat as a
/// don't-care.
///
/// # Panics
///
/// Panics if `options` is empty, the widths differ, or `sel` is too narrow
/// to address every option.
pub(crate) fn mux_tree(b: &mut Builder, sel: &Bus, options: &[Bus]) -> Bus {
    assert!(!options.is_empty(), "mux tree needs at least one option");
    let width = options[0].width();
    assert!(
        options.iter().all(|o| o.width() == width),
        "mux tree options must share a width"
    );
    assert!(
        1usize << sel.width() >= options.len(),
        "select bus too narrow for {} options",
        options.len()
    );
    let mut level: Vec<Bus> = options.to_vec();
    for stage in 0..sel.width() {
        if level.len() == 1 {
            break;
        }
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut i = 0;
        while i < level.len() {
            if i + 1 < level.len() {
                next.push(b.mux_bus(sel.net(stage), &level[i], &level[i + 1]));
            } else {
                next.push(level[i].clone());
            }
            i += 2;
        }
        level = next;
    }
    level.into_iter().next().expect("nonempty level")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::netlist::Builder;

    #[test]
    fn four_way_selects_correctly() {
        let mut b = Builder::new("mux4");
        let sel = b.input_bus("sel", 2);
        let opts: Vec<Bus> = (0..4).map(|i| b.input_bus(format!("o{i}"), 8)).collect();
        let out = mux_tree(&mut b, &sel, &opts);
        b.output_bus("out", &out);
        let nl = b.finish();
        let mut sim = Evaluator::new(&nl);
        let values = [11u64, 22, 33, 44];
        for s in 0..4u64 {
            sim.step(&[
                ("sel", s),
                ("o0", values[0]),
                ("o1", values[1]),
                ("o2", values[2]),
                ("o3", values[3]),
            ]);
            assert_eq!(sim.output("out"), values[s as usize], "sel={s}");
        }
    }

    #[test]
    fn two_way_uses_single_mux_level() {
        let mut b = Builder::new("mux2");
        let sel = b.input_bus("sel", 1);
        let o0 = b.input_bus("o0", 4);
        let o1 = b.input_bus("o1", 4);
        let out = mux_tree(&mut b, &sel, &[o0, o1]);
        b.output_bus("out", &out);
        let nl = b.finish();
        assert_eq!(nl.gate_count(), 4); // one Mux2 per bit
    }

    #[test]
    fn single_option_is_wiring() {
        let mut b = Builder::new("mux1");
        let sel = b.input_bus("sel", 1);
        let o0 = b.input_bus("o0", 4);
        let out = mux_tree(&mut b, &sel, std::slice::from_ref(&o0));
        b.output_bus("out", &out);
        assert_eq!(out.nets(), o0.nets());
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn narrow_select_rejected() {
        let mut b = Builder::new("bad");
        let sel = b.input_bus("sel", 1);
        let opts: Vec<Bus> = (0..3).map(|i| b.input_bus(format!("o{i}"), 2)).collect();
        let _ = mux_tree(&mut b, &sel, &opts);
    }
}
