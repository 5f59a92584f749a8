//! `retrain`: the researcher's loop (Table IV and E20). Offline and
//! single-threaded with default `Parallelism`: a fixed `turetta2022`
//! campaign simulated at a reduced rate is the input (built during
//! set-up, like every workload's inputs); each timed iteration trains
//! the paper's MLP (10 epochs, default cap) and the E20 GRU on the
//! training fold and scores both on the held-out folds. Channel physics
//! shows in `setup_s`; backward kernels, AdamW and GRU BPTT in the
//! iterations; the wire and serve layers do no work here.
//!
//! The campaign does not depend on the workload seed: its accuracies
//! are pinned to the values measured when the benchmark was defined,
//! so any numerics change fails the run.

use crate::probes;
use crate::stats::{median, Summary};
use crate::trace::{SpanId, Tracer, NO_REQUEST};
use crate::{Args, Outcome};
use occusense_core::detector::{DetectorConfig, OccupancyDetector};
use occusense_core::temporal::{TemporalConfig, TemporalDetector};
use occusense_dataset::folds::split_by_folds;
use occusense_dataset::Dataset;
use occusense_sim::{simulate, ScenarioConfig};
use std::time::Instant;

/// Campaign sampling rate, Hz (the paper's hardware ran at 20 Hz, the
/// repro binaries default to 2 Hz).
const RATE_HZ: f64 = 0.02;

/// Campaign seed.
const CAMPAIGN_SEED: u64 = 0;

/// Held-out records each detector classifies correctly, and the
/// held-out size, as measured when the benchmark was defined.
const PINNED_MLP_HITS: u64 = 1695;
const PINNED_GRU_HITS: u64 = 1677;
const PINNED_HELD_OUT: u64 = 1727;

/// Iterations a run makes at least, so `retrain_s` is a median.
const MIN_ITERATIONS: usize = 3;

/// One full retrain.
struct Iteration {
    wall_s: f64,
    held_out: u64,
    mlp_hits: u64,
    gru_hits: u64,
    /// Per-record scoring times of the held-out split.
    rtt: Summary,
}

/// The simulated campaign split into the training fold and the
/// held-out folds.
struct Campaign {
    train: Dataset,
    held: Dataset,
    sim_records_per_s: f64,
}

fn campaign() -> Campaign {
    let mut cfg = ScenarioConfig::turetta2022(CAMPAIGN_SEED);
    cfg.sample_rate_hz = RATE_HZ;
    let t = Instant::now();
    let dataset = simulate(&cfg);
    let sim_records_per_s = dataset.len() as f64 / t.elapsed().as_secs_f64();
    let (train, tests) = split_by_folds(&dataset);
    let held = Dataset::from_records(tests.iter().flat_map(|d| d.iter().copied()).collect());
    Campaign {
        train,
        held,
        sim_records_per_s,
    }
}

/// One retrain; also returns the trained MLP.
fn iterate(
    campaign: &Campaign,
    tracer: &mut Tracer,
) -> Result<(Iteration, OccupancyDetector), String> {
    let Campaign { train, held, .. } = campaign;
    let start = Instant::now();
    let root = tracer.begin("bench.retrain", SpanId::NONE, NO_REQUEST);
    let mlp = tracer.span("nn.mlp_train", root, NO_REQUEST, || {
        OccupancyDetector::train(
            train,
            &DetectorConfig {
                seed: CAMPAIGN_SEED,
                ..DetectorConfig::default()
            },
        )
    });
    let gru = tracer.span("nn.gru_train", root, NO_REQUEST, || {
        TemporalDetector::train(
            train,
            &TemporalConfig {
                seed: CAMPAIGN_SEED,
                epochs: 10,
                ..TemporalConfig::default()
            },
        )
    });
    let (batch_proba, gru_accuracy) = tracer.span("core.evaluate", root, NO_REQUEST, || {
        (
            mlp.predict_proba(held),
            gru.evaluate(held).occupancy_accuracy,
        )
    });
    // Each held-out record scored on its own and checked bitwise against
    // the batched pass. A record's latency is the median of three
    // back-to-back scorings, so one interrupt does not set the tail.
    let mut rtts = Vec::with_capacity(held.len());
    let mut mlp_hits = 0;
    for (i, (r, batched)) in held.iter().zip(&batch_proba).enumerate() {
        let mut times = [0u64; 3];
        let mut occupied = 0;
        for t in &mut times {
            let start = Instant::now();
            let (o, proba) = tracer.span("core.predict_record", root, i as u64, || {
                mlp.predict_record(r)
            });
            *t = start.elapsed().as_nanos() as u64;
            if proba.to_bits() != batched.to_bits() {
                return Err(format!(
                    "held-out record {i}: single and batched scores differ"
                ));
            }
            occupied = o;
        }
        times.sort_unstable();
        rtts.push(times[1]);
        if occupied == r.occupancy() {
            mlp_hits += 1;
        }
    }
    tracer.end(root);
    let wall_s = start.elapsed().as_secs_f64();
    let iteration = Iteration {
        wall_s,
        held_out: held.len() as u64,
        mlp_hits,
        gru_hits: (gru_accuracy * held.len() as f64).round() as u64,
        rtt: Summary::of(&mut rtts).ok_or("empty held-out split")?,
    };
    Ok((iteration, mlp))
}

/// Retrains until `seconds` have passed (and at least
/// `MIN_ITERATIONS` times); returns the iterations and the last MLP.
fn iterations(
    campaign: &Campaign,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Vec<Iteration>, OccupancyDetector), String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let (iteration, mlp) = iterate(campaign, tracer)?;
        out.push(iteration);
        if out.len() >= MIN_ITERATIONS && start.elapsed().as_secs_f64() >= seconds {
            return Ok((out, mlp));
        }
    }
}

fn median_of(runs: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    let v: Vec<f64> = runs.iter().map(f).collect();
    median(&v).unwrap_or(0.0)
}

fn median_wall(runs: &[Iteration]) -> f64 {
    median_of(runs, |r| r.wall_s)
}

/// Runs the `retrain` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (campaign, setup_s) = crate::fixture::repeated_setup(3, || Ok(campaign()), drop)?;
    let records = (campaign.train.len() + campaign.held.len()) as f64;
    let mut out = Outcome::default();
    let (runs, mlp, tracer) = if args.trace {
        let (plain, _) = iterations(&campaign, args.seconds / 2.0, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let (traced, mlp) = iterations(&campaign, args.seconds / 2.0, &mut tracer)?;
        let plain_s = median_wall(&plain);
        out.values.insert(
            "bench.trace_overhead_pct",
            100.0 * (median_wall(&traced) - plain_s) / plain_s,
        );
        let mut runs = plain;
        runs.extend(traced);
        (runs, mlp, Some(tracer))
    } else {
        let (runs, mlp) = iterations(&campaign, args.seconds, &mut Tracer::new(false))?;
        (runs, mlp, None)
    };

    out.attempted = runs.len() as u64;
    for (i, r) in runs.iter().enumerate() {
        let pinned = (PINNED_MLP_HITS, PINNED_GRU_HITS, PINNED_HELD_OUT);
        let got = (r.mlp_hits, r.gru_hits, r.held_out);
        if got != pinned {
            out.failed += 1;
            out.failures.push(format!(
                "iteration {i}: (mlp hits, gru hits, held out) = {got:?}, pinned {pinned:?}"
            ));
        }
    }
    let first = runs.first().ok_or("no iteration ran")?;
    let held = first.held_out.max(1) as f64;
    let retrain_s = median_wall(&runs);
    out.note(format!(
        "{} iterations over {records} simulated records ({} held out) at {RATE_HZ} Hz; retrain_s median {retrain_s:.4} s (range {:.4}..{:.4}); GRU accuracy {:.2} %",
        runs.len(),
        first.held_out,
        runs.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min),
        runs.iter().map(|r| r.wall_s).fold(0.0, f64::max),
        100.0 * first.gru_hits as f64 / held
    ));

    let Some(mut tracer) = tracer else {
        let rtt = Summary {
            p50: median_of(&runs, |r| r.rtt.p50 as f64) as u64,
            p99: median_of(&runs, |r| r.rtt.p99 as f64) as u64,
            count: runs.iter().map(|r| r.rtt.count).sum(),
        };
        out.set("setup_s", setup_s);
        out.set_rtt(
            "held-out records scored one at a time; percentiles are medians over iterations",
            rtt,
        );
        out.set("goodput_rps", records / retrain_s);
        out.set("accuracy_mlp", 100.0 * first.mlp_hits as f64 / held);
        return Ok(out);
    };

    // Probe the freshly trained detector on its held-out records.
    let held_records = campaign.held.records();
    let probe_records = &held_records[..held_records.len().min(2048)];
    probes::core_scoring(&mlp, probe_records, &mut tracer)?;
    let net = mlp.mlp().ok_or("retrained detector is not an MLP")?;
    let kernels = probes::tensor_kernels(net, 200, &mut tracer);

    let v = &mut out.values;
    let times = tracer.self_times();
    let mean_s = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e9)
    };
    v.insert("sim.records_per_s", campaign.sim_records_per_s);
    v.insert("nn.mlp_train_s", mean_s("nn.mlp_train"));
    v.insert("nn.gru_train_s", mean_s("nn.gru_train"));
    v.insert("core.evaluate_s", mean_s("core.evaluate"));
    v.insert("nn.gru_accuracy_pct", 100.0 * first.gru_hits as f64 / held);
    v.insert("bench.retrain_s", retrain_s);
    crate::layer_times(&tracer, 0, &kernels, v);
    out.spans = Some(tracer);
    Ok(out)
}
