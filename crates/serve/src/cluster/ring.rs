//! The consistent-hash ring that shards models across worker nodes.
//!
//! Model names hash onto a 64-bit circle; each node contributes
//! [`HashRing::vnodes`] points (virtual nodes) so load spreads evenly
//! even with three physical nodes. A model's replica set is the first
//! `n` *distinct* nodes met walking clockwise from the model's point.
//!
//! The invariant the cluster proptests pin down: adding or removing a
//! node only remaps models whose replica set *touches* that node —
//! every other model keeps its exact replica list. That is what makes
//! rebalance proportional to the data on the moved node instead of a
//! full reshuffle (the classic consistent-hashing argument).
//!
//! Everything here is pure and deterministic: FNV-1a over the bytes of
//! `node#vnode` / model names, no `std::collections::HashMap`, no
//! randomness — the same node set always yields the same ring, on
//! every replica of the router itself.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string, pushed through a 64-bit avalanche
/// finalizer (the murmur3 fmix64 constants). Raw FNV-1a has weak
/// low-byte avalanche on short, similar keys — `w1#0` … `w1#63` land
/// in one tiny arc of the circle, which defeats virtual nodes
/// entirely; the finalizer spreads them. Tiny, seedless,
/// deterministic, and good enough dispersion for placement (this is
/// sharding, not security).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// A consistent-hash ring over named nodes.
///
/// Nodes are identified by their `host:port` strings. The ring itself
/// is a value type: cluster rebalance builds the *next* ring, loads
/// models where the next ring says they belong, and only then swaps it
/// in — so this type never needs interior mutability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashRing {
    /// Virtual nodes per physical node.
    vnodes: usize,
    /// Sorted ring points: `(hash, index into nodes)`.
    points: Vec<(u64, usize)>,
    /// The node names, sorted (indices in `points` refer here).
    nodes: Vec<String>,
}

impl HashRing {
    /// An empty ring placing `vnodes` points per node (clamped to at
    /// least 1; 64 is a good default for single-digit node counts).
    pub fn new(vnodes: usize) -> Self {
        Self {
            vnodes: vnodes.max(1),
            points: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Whether `node` is on the ring.
    pub(crate) fn contains(&self, node: &str) -> bool {
        self.nodes.iter().any(|n| n == node)
    }

    /// Adds a node (idempotent) and rebuilds the ring points.
    pub fn add(&mut self, node: &str) {
        if self.contains(node) {
            return;
        }
        self.nodes.push(node.to_owned());
        self.nodes.sort();
        self.rebuild();
    }

    /// Removes a node (idempotent) and rebuilds the ring points.
    pub fn remove(&mut self, node: &str) {
        let before = self.nodes.len();
        self.nodes.retain(|n| n != node);
        if self.nodes.len() != before {
            self.rebuild();
        }
    }

    /// Recomputes every point from the node list. O(nodes · vnodes ·
    /// log) — node sets are single-digit, rebalance is rare, and a full
    /// rebuild keeps the points/nodes indices trivially consistent.
    fn rebuild(&mut self) {
        self.points.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            for v in 0..self.vnodes {
                let mut key = Vec::with_capacity(node.len() + 12);
                key.extend_from_slice(node.as_bytes());
                key.push(b'#');
                key.extend_from_slice(v.to_string().as_bytes());
                self.points.push((fnv1a64(&key), i));
            }
        }
        // Ties (astronomically unlikely under FNV-1a, but possible) are
        // broken by node index so the order stays deterministic.
        self.points.sort();
    }

    /// The first `n` *distinct* nodes clockwise from `key`'s point —
    /// the model's replica set in preference order. Returns fewer than
    /// `n` names when the ring has fewer nodes; empty on an empty ring.
    pub fn replicas(&self, key: &str, n: usize) -> Vec<&str> {
        if self.points.is_empty() || n == 0 {
            return Vec::new();
        }
        let want = n.min(self.nodes.len());
        let hash = fnv1a64(key.as_bytes());
        // First point at or after the key's hash (wrapping).
        let start = self.points.partition_point(|&(h, _)| h < hash) % self.points.len();
        let mut out: Vec<&str> = Vec::with_capacity(want);
        for step in 0..self.points.len() {
            let (_, node_idx) = self.points[(start + step) % self.points.len()];
            let name = self.nodes[node_idx].as_str();
            if !out.contains(&name) {
                out.push(name);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(nodes: &[&str]) -> HashRing {
        let mut r = HashRing::new(64);
        for n in nodes {
            r.add(n);
        }
        r
    }

    #[test]
    fn deterministic_and_idempotent() {
        let a = ring(&["w1", "w2", "w3"]);
        let mut b = ring(&["w3", "w1", "w2"]);
        b.add("w2"); // idempotent re-add
        assert_eq!(a, b);
        assert_eq!(a.replicas("digits", 2), b.replicas("digits", 2));
    }

    #[test]
    fn replica_sets_are_distinct_and_bounded() {
        let r = ring(&["w1", "w2", "w3"]);
        for key in ["a", "b", "digits", "mnist-8bit", ""] {
            let reps = r.replicas(key, 2);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            // Asking for more replicas than nodes caps at the node count.
            assert_eq!(r.replicas(key, 10).len(), 3);
        }
        assert!(HashRing::new(64).replicas("a", 2).is_empty());
    }

    #[test]
    fn removal_only_remaps_touched_keys() {
        let full = ring(&["w1", "w2", "w3", "w4"]);
        let mut less = full.clone();
        less.remove("w3");
        for i in 0..200 {
            let key = format!("model-{i}");
            let before = full.replicas(&key, 2);
            let after = less.replicas(&key, 2);
            if before.contains(&"w3") {
                // The surviving replicas keep their relative order.
                let kept: Vec<&str> = before.iter().copied().filter(|&n| n != "w3").collect();
                let still: Vec<&str> = after.iter().copied().filter(|n| kept.contains(n)).collect();
                assert_eq!(kept, still, "key {key}");
            } else {
                assert_eq!(before, after, "untouched key {key} must not move");
            }
        }
    }

    #[test]
    fn spread_is_reasonable() {
        let r = ring(&["w1", "w2", "w3"]);
        let mut counts = [0usize; 3];
        for i in 0..300 {
            let key = format!("m{i}");
            let primary = r.replicas(&key, 1)[0];
            let idx = r.nodes.iter().position(|n| n == primary).unwrap();
            counts[idx] += 1;
        }
        // With 64 vnodes each node should own a non-trivial share.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 30, "node {i} owns only {c}/300 keys");
        }
    }
}
