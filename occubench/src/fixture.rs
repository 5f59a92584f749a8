//! Set-up shared by the serving workloads: the bootstrap detector, the
//! replay pool with its reference scores, the serve configuration and
//! the hub ids.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_dataset::CsiRecord;
use occusense_serve::{routing::shard_for, BackpressurePolicy, ServeConfig};
use occusense_wire::GatewayConfig;
use occusense_sim::{simulate, ScenarioConfig};
use std::time::Instant;

/// Worker shards of the served runtime; each hub owns one.
pub const SHARDS: usize = 2;

/// Seconds of the simulated replay pool (2 Hz ⇒ 4096 records, half of
/// them in an empty room).
const POOL_S: f64 = 2048.0;

/// Seconds of the bootstrap training scenario.
const BOOTSTRAP_S: f64 = 1200.0;

/// Records a hub replays cyclically, restamped with fresh sequence
/// numbers and timestamps, with the detector's reference score of each.
pub struct Pool {
    records: Vec<CsiRecord>,
    expected: Vec<(u8, f64)>,
}

impl Pool {
    /// Number of distinct records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// The record replayed under sequence number `seq` at pool offset
    /// `offset`, restamped.
    pub fn record(&self, offset: usize, seq: u64) -> CsiRecord {
        let mut r = self.records[self.index(offset, seq)];
        r.timestamp_s = seq as f64 * 0.05;
        r
    }

    /// `predict_record`'s `(occupied, proba)` for that record.
    pub fn expected(&self, offset: usize, seq: u64) -> (u8, f64) {
        self.expected[self.index(offset, seq)]
    }

    /// Ground-truth occupancy label of that record.
    pub fn label(&self, offset: usize, seq: u64) -> u8 {
        self.records[self.index(offset, seq)].occupancy()
    }

    /// The distinct records, in pool order.
    pub fn records(&self) -> &[CsiRecord] {
        &self.records
    }

    fn index(&self, offset: usize, seq: u64) -> usize {
        (offset + (seq % self.records.len() as u64) as usize) % self.records.len()
    }
}

/// Everything a serving workload builds before its first timed
/// operation, apart from the transport.
pub struct Bootstrap {
    /// The served detector (online training off, so scores are pinned).
    pub detector: OccupancyDetector,
    /// The replay pool.
    pub pool: Pool,
    /// Seconds spent training the detector.
    pub train_s: f64,
    /// Simulated records per second while building the pool.
    pub sim_records_per_s: f64,
}

/// Trains the bootstrap detector and simulates the replay pool for
/// `seed`, then scores every pool record with `predict_record`.
///
/// # Errors
///
/// When a restamped record scores differently from the original: the
/// replay would then not be verifiable against the pool's references.
pub fn bootstrap(seed: u64) -> Result<Bootstrap, String> {
    let t = Instant::now();
    let train = simulate(&ScenarioConfig::quick(BOOTSTRAP_S, seed));
    let records = simulate(&ScenarioConfig::quick(POOL_S, seed.wrapping_add(1)))
        .records()
        .to_vec();
    let sim_s = t.elapsed().as_secs_f64();
    let sim_records_per_s = (train.len() + records.len()) as f64 / sim_s;

    let t = Instant::now();
    let detector = OccupancyDetector::train(
        &train,
        &DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 4,
            seed,
            ..DetectorConfig::default()
        },
    );
    let train_s = t.elapsed().as_secs_f64();

    let expected: Vec<(u8, f64)> = records.iter().map(|r| detector.predict_record(r)).collect();
    let pool = Pool { records, expected };
    for seq in 0..16u64 {
        let restamped = pool.record(0, seq + 1_000_003);
        let (occupied, proba) = detector.predict_record(&restamped);
        let (want_occupied, want_proba) = pool.expected(0, seq + 1_000_003);
        if occupied != want_occupied || proba.to_bits() != want_proba.to_bits() {
            return Err("restamping a record changed its score".into());
        }
    }
    Ok(Bootstrap {
        detector,
        pool,
        train_s,
        sim_records_per_s,
    })
}

/// The deployment configuration under test: default batching (32 /
/// 5 ms), two shards, online training off, and lossless `Block` queues.
/// The default `DropOldest` sheds records whenever the host stalls a
/// shard for about one sample period, and a shed record can never
/// verify; with `Block` a stall costs latency instead.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        n_shards: SHARDS,
        online: None,
        policy: BackpressurePolicy::Block,
        ..ServeConfig::default()
    }
}

/// The gateway configuration under test: defaults, except that the
/// outbound prediction queues block rather than drop, for the same
/// reason as [`serve_config`].
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        outbound_policy: BackpressurePolicy::Block,
        ..GatewayConfig::default()
    }
}

/// Where hub `h` starts in the pool, so the hubs replay different parts
/// of it.
pub fn pool_offset(h: usize, pool_len: usize) -> usize {
    h * pool_len / 2
}

/// Ids of the two site hubs, chosen so they hash to distinct shards.
pub fn hub_ids() -> [String; 2] {
    let pick = |shard: usize| {
        (0u32..)
            .map(|k| format!("site-hub-{k}"))
            .find(|id| shard_for(id, SHARDS) == shard)
            .expect("some id hashes to every shard")
    };
    [pick(0), pick(1)]
}

/// Runs `setup` `times` times, tearing down all but the last result,
/// and returns that result with the median set-up time in seconds.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut kept = None;
    for i in 0..times {
        let t = Instant::now();
        let value = setup()?;
        seconds.push(t.elapsed().as_secs_f64());
        if i + 1 < times {
            teardown(value);
        } else {
            kept = Some(value);
        }
    }
    let median = crate::stats::median(&seconds).ok_or("no set-up ran")?;
    Ok((kept.ok_or("no set-up ran")?, median))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_ids_land_on_distinct_shards() {
        let [a, b] = hub_ids();
        assert_eq!(shard_for(&a, SHARDS), 0);
        assert_eq!(shard_for(&b, SHARDS), 1);
    }
}
