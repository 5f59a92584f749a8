//! Deterministic sensor → shard routing.
//!
//! Each worker shard owns its model snapshot and queue outright, so no
//! lock is shared on the inference path; the only coordination point is
//! this pure hash. Routing by stable sensor id (rather than round-robin)
//! keeps each sensor's records in order on a single shard, which
//! preserves per-sensor timestamp monotonicity end to end.
//!
//! The hash is the workspace-wide shared FNV-1a-64
//! ([`occusense_core::hash`]) — the same function that seals checkpoint
//! footers and keys the fleet controller's consistent-hash ring, so a
//! sensor's placement is reproducible from any layer of the stack.

use occusense_core::hash::fnv1a64;
use std::error::Error;
use std::fmt;

/// Routing asked to place a sensor on a fleet of zero shards.
///
/// Shard counts historically were compile-time constants, but they now
/// also arrive from fleet configuration at runtime — so the zero case
/// is a typed error for config-validation paths ([`try_shard_for`])
/// rather than an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroShardsError;

impl fmt::Display for ZeroShardsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot route a sensor across zero shards")
    }
}

impl Error for ZeroShardsError {}

/// The shard a sensor's records are routed to, or [`ZeroShardsError`]
/// when `n_shards` is zero. Fleet configuration paths, whose shard
/// counts come from runtime input, validate through this form.
pub fn try_shard_for(sensor_id: &str, n_shards: usize) -> Result<usize, ZeroShardsError> {
    if n_shards == 0 {
        return Err(ZeroShardsError);
    }
    Ok((fnv1a64(sensor_id.as_bytes()) % n_shards as u64) as usize)
}

/// The shard a sensor's records are routed to.
///
/// Saturating policy for the degenerate case: with `n_shards == 0`
/// there is no shard to name, so the result is `0` — callers that must
/// distinguish that case use [`try_shard_for`]. (Serving runtimes
/// reject zero-shard configurations up front via
/// `ServeError::ZeroShards`, so on the hot path the two forms agree.)
///
/// # Example
///
/// ```
/// use occusense_serve::routing::shard_for;
///
/// let s = shard_for("room-3/esp32-a", 4);
/// assert!(s < 4);
/// // Stable: the same id always lands on the same shard.
/// assert_eq!(s, shard_for("room-3/esp32-a", 4));
/// ```
pub fn shard_for(sensor_id: &str, n_shards: usize) -> usize {
    try_shard_for(sensor_id, n_shards).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in 1..=16 {
            for i in 0..100 {
                let id = format!("sensor-{i}");
                let s = shard_for(&id, n);
                assert!(s < n);
                assert_eq!(s, shard_for(&id, n));
                assert_eq!(try_shard_for(&id, n), Ok(s));
            }
        }
    }

    #[test]
    fn routing_uses_every_shard() {
        let n = 8;
        let mut hit = vec![false; n];
        for i in 0..200 {
            hit[shard_for(&format!("sensor-{i}"), n)] = true;
        }
        assert!(hit.iter().all(|&h| h), "{hit:?}");
    }

    #[test]
    fn zero_shards_is_a_typed_error_not_a_panic() {
        assert_eq!(try_shard_for("sensor-0", 0), Err(ZeroShardsError));
        // The saturating form stays total.
        assert_eq!(shard_for("sensor-0", 0), 0);
        assert!(ZeroShardsError.to_string().contains("zero shards"));
    }

    #[test]
    fn known_fnv_vectors() {
        // Published FNV-1a test vectors pin the routing for all time:
        // renaming shards or changing the hash is a breaking change.
        // (The shared implementation lives in `occusense_core::hash`;
        // asserting the vectors *here* keeps the routing contract
        // locally witnessed even if that module evolves.)
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
