//! Consistent-hash ring: `sensor → worker process` routing that stays
//! mostly stable when the worker set changes.
//!
//! Every worker contributes `vnodes` points on a `u64` ring, each point
//! the shared FNV-1a-64 ([`occusense_core::hash`]) of the worker name
//! extended with the virtual-node index. A key routes to the owner of
//! the first point at or clockwise-after its own hash. Removing a
//! worker removes only that worker's points, so exactly the keys it
//! owned remap (to the next surviving point clockwise) and every other
//! key keeps its assignment — the property the fleet controller leans
//! on when a process dies mid-storm: surviving sensors stay pinned to
//! their stateful gateways while the dead worker's sensors re-route.
//!
//! Both the controller (routing) and `fleet_storm`'s verifier (replay)
//! hash with the same shared function, so placement is a pure function
//! of `(worker names, vnodes, key)` and reproducible across processes.

use occusense_core::hash::{fnv1a64, fnv1a64_extend};

/// A consistent-hash ring over named nodes with virtual points.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, node index)` pairs — the ring itself.
    points: Vec<(u64, usize)>,
    /// Node names; indices are stable for the life of the ring (a
    /// removed node leaves a hole so surviving indices never shift).
    nodes: Vec<Option<String>>,
    vnodes: usize,
}

impl HashRing {
    /// An empty ring whose nodes will each contribute `vnodes` points
    /// (clamped to at least 1).
    pub fn new(vnodes: usize) -> Self {
        Self {
            points: Vec::new(),
            nodes: Vec::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Whether the ring has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `node`; a duplicate name is a no-op returning `false`.
    pub fn insert(&mut self, node: &str) -> bool {
        if self.nodes.iter().flatten().any(|n| n == node) {
            return false;
        }
        let index = self.nodes.len();
        self.nodes.push(Some(node.to_string()));
        let base = fnv1a64(node.as_bytes());
        for v in 0..self.vnodes {
            let point = fnv1a64_extend(base, &(v as u64).to_le_bytes());
            self.points.push((point, index));
        }
        // Sort by point, breaking ties by node index so the ring order
        // is deterministic even on (astronomically unlikely) collisions.
        self.points.sort_unstable();
        true
    }

    /// Removes `node`, returning whether it was present. Surviving
    /// assignments are untouched; only keys owned by `node` remap.
    pub fn remove(&mut self, node: &str) -> bool {
        let Some(index) = self.nodes.iter().position(|n| n.as_deref() == Some(node)) else {
            return false;
        };
        self.nodes[index] = None;
        self.points.retain(|&(_, i)| i != index);
        true
    }

    /// The node owning `key`, or `None` on an empty ring.
    pub fn route(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let hash = fnv1a64(key.as_bytes());
        let at = self.points.partition_point(|&(p, _)| p < hash);
        let (_, index) = self.points[at % self.points.len()];
        self.nodes[index].as_deref()
    }

    /// Live node names in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().flatten().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ring_of(names: &[&str], vnodes: usize) -> HashRing {
        let mut ring = HashRing::new(vnodes);
        for n in names {
            assert!(ring.insert(n));
        }
        ring
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = ring_of(&["worker-0", "worker-1", "worker-2"], 64);
        for i in 0..200 {
            let key = format!("tenant-a/sensor-{i}");
            let a = ring.route(&key).unwrap().to_string();
            let b = ring.route(&key).unwrap().to_string();
            assert_eq!(a, b);
        }
        assert!(HashRing::new(64).route("anything").is_none());
    }

    #[test]
    fn duplicate_insert_is_refused() {
        let mut ring = ring_of(&["worker-0"], 8);
        assert!(!ring.insert("worker-0"));
        assert_eq!(ring.len(), 1);
        assert!(ring.remove("worker-0"));
        assert!(!ring.remove("worker-0"));
        assert!(ring.is_empty());
    }

    #[test]
    fn virtual_nodes_spread_keys_across_every_worker() {
        let ring = ring_of(&["worker-0", "worker-1", "worker-2", "worker-3"], 64);
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for i in 0..2000 {
            let owner = ring.route(&format!("sensor-{i}")).unwrap();
            *counts.entry(owner.to_string()).or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "every worker owns some keys");
        for (worker, n) in &counts {
            // 2000 keys over 4 workers: perfect balance is 500. With 64
            // vnodes the spread stays well inside a 3× band.
            assert!(
                (150..=1200).contains(n),
                "{worker} owns {n} of 2000 keys — ring is badly unbalanced"
            );
        }
    }

    proptest! {
        /// The consistent-hashing contract: removing one node remaps
        /// exactly the keys it owned, and those land on live nodes.
        #[test]
        fn removal_only_remaps_the_dead_workers_keys(
            workers in 2usize..6,
            victim in 0usize..6,
            key_bytes in prop::collection::vec(prop::collection::vec(97u8..123, 1..24), 1..80),
        ) {
            let keys: Vec<String> = key_bytes
                .iter()
                .enumerate()
                .map(|(i, b)| format!("{}/{i}", String::from_utf8_lossy(b)))
                .collect();
            let names: Vec<String> = (0..workers).map(|i| format!("worker-{i}")).collect();
            let victim = &names[victim % workers];
            let mut ring = HashRing::new(32);
            for n in &names {
                ring.insert(n);
            }
            let before: Vec<(String, String)> = keys
                .iter()
                .map(|k| (k.clone(), ring.route(k).unwrap().to_string()))
                .collect();
            ring.remove(victim);
            for (key, owner) in &before {
                let now = ring.route(key).unwrap();
                if owner == victim {
                    prop_assert_ne!(now, victim.as_str());
                } else {
                    prop_assert_eq!(now, owner.as_str(), "surviving key moved");
                }
            }
        }
    }
}
