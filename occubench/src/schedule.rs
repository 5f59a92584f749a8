//! The open-loop arrival schedule of one site hub: `sensors` sniffers
//! sampling at the paper's 20 Hz, each with a seeded random phase, so
//! record `i` of the hub is due at a fixed instant whatever the system
//! under test does.

/// One 20 Hz sample period, ns.
pub const SAMPLE_PERIOD_NS: u64 = 50_000_000;

/// A deterministic arrival schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Per-sensor phase offsets within one period, ascending.
    phases_ns: Vec<u64>,
}

impl Schedule {
    /// `sensors` phases drawn uniformly from one sample period by a
    /// seeded generator: the same seed always yields the same schedule.
    ///
    /// # Panics
    ///
    /// Panics if `sensors` is zero.
    pub fn new(sensors: usize, seed: u64) -> Self {
        assert!(sensors > 0, "a schedule needs at least one sensor");
        let mut state = seed;
        let mut phases_ns: Vec<u64> = (0..sensors)
            .map(|_| splitmix64(&mut state) % SAMPLE_PERIOD_NS)
            .collect();
        phases_ns.sort_unstable();
        Self { phases_ns }
    }

    /// Records offered per second.
    pub fn rate_per_s(&self) -> f64 {
        self.phases_ns.len() as f64 * 1e9 / SAMPLE_PERIOD_NS as f64
    }

    /// When record `i` is due, ns after the schedule's start.
    pub fn due_ns(&self, i: u64) -> u64 {
        let n = self.phases_ns.len() as u64;
        (i / n) * SAMPLE_PERIOD_NS + self.phases_ns[(i % n) as usize]
    }

    /// Number of records due strictly before `t_ns`.
    pub fn due_before(&self, t_ns: u64) -> u64 {
        let n = self.phases_ns.len() as u64;
        let periods = t_ns / SAMPLE_PERIOD_NS;
        let within = t_ns % SAMPLE_PERIOD_NS;
        periods * n + self.phases_ns.partition_point(|&p| p < within) as u64
    }
}

/// SplitMix64: a tiny, well-mixed seeded generator, so the schedule
/// depends on nothing but the seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_yields_the_same_schedule() {
        let a = Schedule::new(1000, 42);
        let b = Schedule::new(1000, 42);
        assert_eq!(a, b);
        let due_a: Vec<u64> = (0..5000).map(|i| a.due_ns(i)).collect();
        let due_b: Vec<u64> = (0..5000).map(|i| b.due_ns(i)).collect();
        assert_eq!(due_a, due_b);
        assert_ne!(a, Schedule::new(1000, 43), "another seed, other phases");
    }

    #[test]
    fn arrivals_are_ordered_periodic_and_at_the_stated_rate() {
        let s = Schedule::new(1000, 7);
        assert_eq!(s.rate_per_s(), 20_000.0);
        for i in 1..5000 {
            assert!(s.due_ns(i) >= s.due_ns(i - 1), "record {i} out of order");
        }
        assert_eq!(s.due_ns(1000) - s.due_ns(0), SAMPLE_PERIOD_NS);
        assert!(s.due_ns(999) < SAMPLE_PERIOD_NS);
        // One second holds exactly 20 periods of 1000 sensors.
        assert_eq!(s.due_before(1_000_000_000), 20_000);
        for i in [0u64, 1, 999, 1000, 4321] {
            assert_eq!(s.due_before(s.due_ns(i) + 1), s.due_before(s.due_ns(i)) + 1);
        }
    }
}
