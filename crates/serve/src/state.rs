//! The per-sensor hidden-state table for stateful temporal serving.
//!
//! Each sensor scored by a temporal snapshot carries one GRU hidden
//! row between batches. States are partitioned by worker shard —
//! a sensor's records are hash-routed to a fixed shard, so its state
//! is only ever touched by that shard's worker (during a flush) and by
//! the control plane (eviction on disconnect, census). One `Mutex` per
//! shard keeps the hot path contention-free across shards.
//!
//! The map is a `BTreeMap`, not a `HashMap`: the worker iterates it to
//! assemble the per-round GRU batch, and iteration order must be a
//! pure function of the sensor ids — never of a per-process hasher
//! seed — for runs to be reproducible. (Row independence of the GEMM
//! kernels means order cannot change any *score*; determinism here is
//! about stable batch assembly and observability.)
//!
//! Lifecycle of one entry:
//!
//! * **created** zeroed, stamped with the current snapshot version, the
//!   first time the sensor appears in a temporal flush;
//! * **reset** to zeros whenever the model version it was stamped with
//!   differs from the snapshot being scored (hot swap: old hidden
//!   activations are meaningless under new weights);
//! * **evicted** when the sensor disconnects ([`StateTable::evict`]) or
//!   the owner runtime shuts down.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One sensor's carried sequence state.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorState {
    /// The GRU hidden row (length = the serving model's hidden width).
    pub h: Vec<f64>,
    /// Version of the snapshot that produced `h`. A mismatch with the
    /// snapshot being scored forces a zero reset.
    pub model_version: u64,
}

type ShardMap = BTreeMap<Arc<str>, SensorState>;

/// Per-shard sensor-state maps; see the module docs for the lifecycle.
#[derive(Debug)]
pub struct StateTable {
    shards: Vec<Mutex<ShardMap>>,
}

impl StateTable {
    /// An empty table with one map per worker shard.
    pub fn new(n_shards: usize) -> Self {
        Self {
            shards: (0..n_shards).map(|_| Mutex::new(ShardMap::new())).collect(),
        }
    }

    /// Locks shard `shard`'s map for a flush (or control-plane op).
    ///
    /// A poisoned map means a worker panicked mid-flush and some
    /// hidden rows may be torn; the recovery that keeps serving sound
    /// is to clear the shard — every sensor restarts from zeros, which
    /// is exactly the state a fresh sensor gets. The caller's reset
    /// counter makes the wipe observable.
    pub(crate) fn lock_shard(&self, shard: usize) -> Option<(MutexGuard<'_, ShardMap>, usize)> {
        let slot = self.shards.get(shard)?;
        match slot.lock() {
            Ok(guard) => Some((guard, 0)),
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let wiped = guard.len();
                guard.clear();
                slot.clear_poison();
                Some((guard, wiped))
            }
        }
    }

    /// Drops `sensor_id`'s state on shard `shard` (disconnect path).
    /// Returns whether a state existed.
    pub fn evict(&self, shard: usize, sensor_id: &str) -> bool {
        let Some((mut guard, _)) = self.lock_shard(shard) else {
            return false;
        };
        guard.remove(sensor_id).is_some()
    }

    /// Number of sensors currently holding state, across all shards.
    pub fn active_sensors(&self) -> usize {
        self.shards
            .iter()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(version: u64) -> SensorState {
        SensorState {
            h: vec![0.0; 4],
            model_version: version,
        }
    }

    #[test]
    fn evict_removes_only_the_named_sensor() {
        let table = StateTable::new(2);
        {
            let (mut guard, wiped) = table.lock_shard(0).unwrap();
            assert_eq!(wiped, 0);
            guard.insert(Arc::from("a"), state(1));
            guard.insert(Arc::from("b"), state(1));
        }
        assert_eq!(table.active_sensors(), 2);
        assert!(table.evict(0, "a"));
        assert!(!table.evict(0, "a"));
        assert!(!table.evict(1, "b")); // wrong shard
        assert!(!table.evict(7, "b")); // out-of-range shard is a no-op
        assert_eq!(table.active_sensors(), 1);
    }

    #[test]
    fn iteration_order_is_sorted_by_sensor_id() {
        let table = StateTable::new(1);
        let (mut guard, _) = table.lock_shard(0).unwrap();
        for id in ["s-9", "s-1", "s-5"] {
            guard.insert(Arc::from(id), state(1));
        }
        let order: Vec<&str> = guard.keys().map(|k| k.as_ref()).collect();
        assert_eq!(order, ["s-1", "s-5", "s-9"]);
    }

    #[test]
    fn poisoned_shard_is_wiped_and_recovered() {
        let table = Arc::new(StateTable::new(1));
        {
            let (mut guard, _) = table.lock_shard(0).unwrap();
            guard.insert(Arc::from("a"), state(1));
        }
        let poisoner = Arc::clone(&table);
        let _ = std::thread::spawn(move || {
            let (_guard, _) = poisoner.lock_shard(0).unwrap();
            panic!("poison the shard mutex");
        })
        .join();
        let (guard, wiped) = table.lock_shard(0).unwrap();
        assert_eq!(wiped, 1, "the torn state must be wiped");
        assert!(guard.is_empty());
        drop(guard);
        // The mutex is usable again afterwards.
        assert_eq!(table.active_sensors(), 0);
    }
}
