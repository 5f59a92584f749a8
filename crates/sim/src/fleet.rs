//! Multi-tenant fleet traffic scenario: the deterministic description
//! of "N tenants × M sensors, tenant 0 saturated" that both the chaos
//! driver (`occusense-fleet`'s `fleet_storm`) and its verifier replay.
//!
//! The scenario is pure data plus arithmetic seed mixing — no hashing
//! — so a driver process and an independent verifier that hold the
//! same [`FleetScenario`] derive bit-identical per-sensor record
//! streams and per-tenant model seeds. That shared derivation is what
//! turns "the prediction that came back over the wire" into something
//! a verifier can re-score locally and compare bitwise.
//!
//! Tenant 0 is *the saturated tenant* by convention: fleet drivers
//! give it a tight SLO (small queue, reject-newest, half the sensor
//! budget) and assert it sheds while every other tenant stays within
//! latency budget.

use crate::scenario::ScenarioConfig;
use crate::stream::{fleet_stream, RecordStream};

/// Sensor index reserved for unloaded-baseline probes, far outside the
/// storm's `0..sensors_per_tenant` range so baseline streams never
/// collide with storm streams.
pub const BASELINE_SENSOR: u64 = 9999;

/// A deterministic multi-tenant fleet storm: every tenant runs the
/// same number of sensors and records, tenant 0 is the saturated one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetScenario {
    /// Master seed; tenant model and traffic seeds derive from it.
    pub base_seed: u64,
    /// Number of tenants (tenant 0 saturated).
    pub tenants: usize,
    /// Sensors attempted per tenant.
    pub sensors_per_tenant: usize,
    /// Records each storm sensor replays.
    pub records_per_sensor: usize,
}

impl FleetScenario {
    /// A storm of `tenants` × `sensors_per_tenant` × `records_per_sensor`
    /// seeded with `base_seed`.
    pub fn storm(
        tenants: usize,
        sensors_per_tenant: usize,
        records_per_sensor: usize,
        base_seed: u64,
    ) -> Self {
        Self {
            base_seed,
            tenants,
            sensors_per_tenant,
            records_per_sensor,
        }
    }

    /// The tenant fleet drivers saturate (tight queue, admission cap).
    pub fn saturated_tenant(&self) -> usize {
        0
    }

    /// Whether `tenant` is the saturated one.
    pub fn is_saturated(&self, tenant: usize) -> bool {
        tenant == self.saturated_tenant()
    }

    /// The seed a tenant's bootstrap model trains from. Distinct per
    /// tenant so cross-tenant routing cannot survive a bitwise replay:
    /// a record scored by the wrong tenant's model cannot match.
    pub fn model_seed(&self, tenant: usize) -> u64 {
        self.base_seed.wrapping_add(17 * (tenant as u64 + 1))
    }

    /// The base seed of a tenant's traffic streams. Spaced wide enough
    /// (1000 per tenant) that per-sensor offsets of neighbouring
    /// tenants never overlap.
    pub fn traffic_seed(&self, tenant: usize) -> u64 {
        self.base_seed.wrapping_add(1000 * tenant as u64)
    }

    /// Scenario duration, seconds, guaranteed to yield at least
    /// `records` samples at the shared `quick` sample rate.
    pub fn duration_s(records: usize) -> f64 {
        let rate = ScenarioConfig::quick(1.0, 0).sample_rate_hz;
        records as f64 / rate + 1.0
    }

    /// Storm sensor `sensor` of `tenant`: the stream both the driver
    /// sends and the verifier re-scores. Callers `take(records_per_sensor)`.
    pub fn sensor_stream(&self, tenant: usize, sensor: u64) -> RecordStream {
        fleet_stream(
            Self::duration_s(self.records_per_sensor),
            self.traffic_seed(tenant),
            sensor,
        )
    }

    /// An unloaded-baseline probe stream for `tenant`, `records` long,
    /// on the reserved [`BASELINE_SENSOR`] index.
    pub fn baseline_stream(&self, tenant: usize, records: usize) -> RecordStream {
        fleet_stream(
            Self::duration_s(records),
            self.traffic_seed(tenant),
            BASELINE_SENSOR,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_dataset::CsiRecord;

    fn collect(stream: RecordStream, n: usize) -> Vec<CsiRecord> {
        stream.take(n).collect()
    }

    #[test]
    fn same_scenario_derives_identical_streams() {
        let a = FleetScenario::storm(3, 6, 40, 100);
        let b = FleetScenario::storm(3, 6, 40, 100);
        let ra = collect(a.sensor_stream(1, 2), 40);
        let rb = collect(b.sensor_stream(1, 2), 40);
        assert_eq!(ra.len(), 40, "duration must cover the record budget");
        assert_eq!(ra, rb, "replay must be bit-identical across holders");
    }

    #[test]
    fn tenants_and_sensors_get_distinct_streams() {
        let s = FleetScenario::storm(3, 6, 20, 100);
        let t0 = collect(s.sensor_stream(0, 0), 20);
        let t1 = collect(s.sensor_stream(1, 0), 20);
        let t0s1 = collect(s.sensor_stream(0, 1), 20);
        assert_ne!(t0, t1, "tenant streams must differ");
        assert_ne!(t0, t0s1, "sensor streams within a tenant must differ");
    }

    #[test]
    fn model_seeds_are_distinct_per_tenant() {
        let s = FleetScenario::storm(4, 2, 10, 7);
        let seeds: Vec<u64> = (0..4).map(|t| s.model_seed(t)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn tenant_zero_is_the_saturated_one() {
        let s = FleetScenario::storm(3, 6, 40, 100);
        assert_eq!(s.saturated_tenant(), 0);
        assert!(s.is_saturated(0));
        assert!(!s.is_saturated(1));
    }

    #[test]
    fn baseline_probe_never_collides_with_storm_sensors() {
        let s = FleetScenario::storm(2, 6, 20, 100);
        assert!(BASELINE_SENSOR >= s.sensors_per_tenant as u64);
        let probe = collect(s.baseline_stream(1, 20), 20);
        let storm = collect(s.sensor_stream(1, 0), 20);
        assert_eq!(probe.len(), 20);
        assert_ne!(probe, storm);
    }
}
