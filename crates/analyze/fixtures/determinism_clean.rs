//! Clean twin for the determinism lints: ordered collections, integer
//! accumulation, and the one blessed env read site.
use std::collections::BTreeMap;

pub fn tally(keys: &[u32]) -> u64 {
    let mut seen: BTreeMap<u32, ()> = BTreeMap::new();
    for k in keys {
        seen.insert(*k, ());
    }
    let mut acc: u64 = 0;
    acc += keys.len() as u64;
    seen.len() as u64 + acc
}

pub fn level_from_env() -> Option<String> {
    std::env::var("MAN_OBS").ok()
}

// DETERMINISM: reporting-only energy estimate; never feeds the MAC
// datapath or any bit-identical artifact.
pub fn energy_estimate(ops: u64) -> f64 {
    let mut fj = 0.0f64;
    fj += ops as f64 * 0.4;
    fj
}
