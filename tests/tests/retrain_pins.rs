//! Tripwire for the benchmark's pinned `retrain` numbers: the same
//! campaign, split and detector as occubench's `retrain` workload, so a
//! numerics change that moves its held-out hit count fails `cargo test`
//! before it fails the benchmark.

use occusense_core::dataset::folds::split_by_folds;
use occusense_core::dataset::Dataset;
use occusense_core::detector::{DetectorConfig, OccupancyDetector};
use occusense_sim::{simulate, ScenarioConfig};

#[test]
fn paper_mlp_keeps_the_pinned_held_out_hits() {
    let mut cfg = ScenarioConfig::turetta2022(0);
    cfg.sample_rate_hz = 0.02;
    let dataset = simulate(&cfg);
    let (train, tests) = split_by_folds(&dataset);
    let held = Dataset::from_records(tests.iter().flat_map(|d| d.iter().copied()).collect());
    let detector = OccupancyDetector::train(
        &train,
        &DetectorConfig {
            seed: 0,
            ..DetectorConfig::default()
        },
    );
    let batched = detector.predict_proba(&held);
    let mut hits = 0;
    for (i, (record, b)) in held.iter().zip(&batched).enumerate() {
        let (label, p) = detector.predict_record(record);
        assert_eq!(
            p.to_bits(),
            b.to_bits(),
            "held-out record {i}: single and batched scores differ"
        );
        hits += usize::from(label == record.occupancy());
    }
    assert_eq!((hits, held.len()), (1695, 1727), "(hits, held out)");
}
