use std::collections::HashMap; //~ determinism
use std::time::Instant; //~ determinism

pub fn tally(keys: &[u32]) -> u64 {
    let mut seen = HashMap::new(); //~ determinism
    for k in keys {
        seen.insert(*k, ());
    }
    let t = Instant::now(); //~ determinism
    let mut acc = 0.0f64;
    acc += keys.len() as f64; //~ determinism
    let level = std::env::var("MAN_OBS").map(|_| 0).unwrap_or(0); //~ determinism
    seen.len() as u64 + acc as u64 + t.elapsed().as_secs() + level
}

pub fn level_from_env() -> Option<String> {
    std::env::var("MAN_OBS").ok()
}

// DETERMINISM: keyed lookup only; this map is never iterated.
pub fn keyed(map: &HashMap<u32, u32>, k: u32) -> Option<u32> {
    map.get(&k).copied()
}
