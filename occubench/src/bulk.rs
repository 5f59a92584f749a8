//! `bulk`: the capacity shape. Two connections over the in-process
//! loopback transport (no kernel socket path) stream 64-record `Batch`
//! frames in a closed loop, each keeping at most `WINDOW` records in
//! flight, through passes of a fixed record count. Byte-proportional
//! wire work (checksum, payload codec) and full-width batched forward
//! passes dominate; the batch deadline never fires.

use crate::fixture::Pool;
use crate::hub::{self, Hub, TICK};
use crate::serving::{self, Rig};
use crate::stats::{median, Summary};
use crate::trace::{SpanId, Tracer, NO_REQUEST};
use crate::{Args, Outcome};
use occusense_wire::{loopback, LoopbackConfig};
use std::time::{Duration, Instant};

/// Records per `Batch` frame.
const BATCH: usize = 64;

/// Records each connection may have in flight.
const WINDOW: u64 = 1024;

/// Records each connection sends per pass.
const PASS_RECORDS: u64 = 32_768;

/// A pass that has not finished after this long fails the run.
const PASS_LIMIT: Duration = Duration::from_secs(60);

/// Passes a run makes at least, so goodput is a median of several.
const MIN_PASSES: usize = 3;

fn rig(seed: u64) -> Result<Rig, String> {
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    serving::rig(seed, Box::new(acceptor), || connector.connect())
}

/// Figures of one pass.
struct Pass {
    rtt: Summary,
    verified: u64,
    label_hits: u64,
    frames: u64,
    records: u64,
    polls: u64,
    useful_polls: u64,
    bytes: u64,
    wall_s: f64,
}

impl Pass {
    fn goodput(&self) -> f64 {
        self.verified as f64 / self.wall_s
    }
}

/// Streams `PASS_RECORDS` records per connection and waits for every
/// prediction.
fn pass(
    hubs: &mut [Hub],
    pool: &Pool,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let before: Vec<_> = hubs.iter().map(|h| (h.stats, h.next_seq)).collect();
    let targets: Vec<u64> = hubs.iter().map(|h| h.next_seq + PASS_RECORDS).collect();
    let start = Instant::now();
    loop {
        let sweep = tracer.begin("bench.sweep", SpanId::NONE, NO_REQUEST);
        // Only writes keep the loop spinning: with the window full, the
        // generator sleeps and leaves the CPUs to the gateway.
        let mut wrote = false;
        for (hub, &target) in hubs.iter_mut().zip(&targets) {
            while hub.next_seq < target
                && hub.in_flight() + BATCH as u64 <= WINDOW
                && !hub.has_pending_output()
            {
                let n = (target - hub.next_seq).min(BATCH as u64) as usize;
                let now = epoch.elapsed().as_nanos() as u64;
                hub.queue_batch(pool, n, now, tracer, sweep);
                wrote |= hub.flush(tracer, sweep);
            }
            wrote |= hub.flush(tracer, sweep);
            hub.receive(pool, epoch, tracer, sweep);
        }
        tracer.end(sweep);
        if hubs.iter().any(|hub| hub.done) {
            return Err("a connection ended mid-pass".into());
        }
        let finished = hubs
            .iter()
            .zip(&targets)
            .all(|(hub, &t)| hub.next_seq == t && hub.in_flight() == 0);
        if finished {
            break;
        }
        if start.elapsed() > PASS_LIMIT {
            return Err(format!("a pass did not finish within {PASS_LIMIT:?}"));
        }
        if !wrote {
            std::thread::sleep(TICK);
        }
    }
    let mut rtts = Vec::new();
    let mut p = Pass {
        rtt: Summary {
            p50: 0,
            p99: 0,
            count: 0,
        },
        verified: 0,
        label_hits: 0,
        frames: 0,
        records: 0,
        polls: 0,
        useful_polls: 0,
        bytes: 0,
        wall_s: start.elapsed().as_secs_f64(),
    };
    for (hub, (stats, first)) in hubs.iter_mut().zip(before) {
        rtts.append(&mut hub.rtts);
        p.verified += hub.stats.verified - stats.verified;
        p.label_hits += hub.stats.label_hits - stats.label_hits;
        p.frames += hub.stats.frames - stats.frames;
        p.records += hub.next_seq - first;
        p.polls += hub.stats.polls - stats.polls;
        p.useful_polls += hub.stats.useful_polls - stats.useful_polls;
        p.bytes += hub.stats.bytes_written - stats.bytes_written;
    }
    p.rtt = Summary::of(&mut rtts).ok_or("a pass delivered no prediction")?;
    Ok(p)
}

/// Runs passes until `seconds` have passed (and at least `MIN_PASSES`).
fn passes(
    hubs: &mut [Hub],
    pool: &Pool,
    epoch: Instant,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        out.push(pass(hubs, pool, epoch, tracer)?);
    }
    Ok(out)
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let v: Vec<f64> = passes.iter().map(f).collect();
    median(&v).unwrap_or(0.0)
}

fn median_goodput(passes: &[Pass]) -> f64 {
    median_of(passes, Pass::goodput)
}

/// Runs the `bulk` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (rig, setup_s) = serving::setup(|| rig(args.seed))?;
    let Rig {
        boot,
        gateway,
        mut hubs,
    } = rig;
    let pool = &boot.pool;
    let epoch = Instant::now();
    let mut out = Outcome::default();

    if !args.trace {
        let runs = passes(
            &mut hubs,
            pool,
            epoch,
            args.seconds,
            &mut Tracer::new(false),
        )?;
        hub::close_all(&mut hubs, pool, epoch)?;
        let report = gateway.shutdown();
        out.absorb(serving::verdict(&hubs, &report, 0));
        let rtt = Summary {
            p50: median_of(&runs, |p| p.rtt.p50 as f64) as u64,
            p99: median_of(&runs, |p| p.rtt.p99 as f64) as u64,
            count: runs.iter().map(|p| p.rtt.count).sum(),
        };
        let verified: u64 = runs.iter().map(|p| p.verified).sum();
        let hits: u64 = runs.iter().map(|p| p.label_hits).sum();
        out.note(format!(
            "closed loop: 2 connections x {WINDOW} records in flight, {BATCH}-record frames, {} passes of {} records; goodput and rtt percentiles are medians over passes (pass goodput {:.0}..{:.0} records/s)",
            runs.len(),
            2 * PASS_RECORDS,
            runs.iter().map(Pass::goodput).fold(f64::INFINITY, f64::min),
            runs.iter().map(Pass::goodput).fold(0.0, f64::max),
        ));
        out.set("setup_s", setup_s);
        out.set_rtt("timed from each frame's encoding", rtt);
        out.set("goodput_rps", median_goodput(&runs));
        out.set("accuracy_mlp", 100.0 * hits as f64 / verified.max(1) as f64);
        return Ok(out);
    }

    let half = args.seconds / 2.0;
    let plain = passes(&mut hubs, pool, epoch, half, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let traced = passes(&mut hubs, pool, epoch, half, &mut tracer)?;
    hub::close_all(&mut hubs, pool, epoch)?;
    let report = gateway.shutdown();
    out.absorb(serving::verdict(&hubs, &report, 0));

    serving::layer_probes(&boot, &hubs, &report, &mut tracer, &mut out.values)?;
    let v = &mut out.values;
    let sum = |f: fn(&Pass) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    v.insert(
        "wire.bytes_per_record",
        sum(|p| p.bytes) / sum(|p| p.records),
    );
    v.insert(
        "wire.client_polls_per_record",
        sum(|p| p.polls) / sum(|p| p.records),
    );
    v.insert(
        "wire.client_wouldblock_ratio",
        sum(|p| p.useful_polls) / sum(|p| p.polls),
    );
    let plain_goodput = median_goodput(&plain);
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * (plain_goodput - median_goodput(&traced)) / plain_goodput,
    );
    out.note(format!(
        "passes: {} untraced, {} traced ({} frames of {BATCH} records)",
        plain.len(),
        traced.len(),
        sum(|p| p.frames)
    ));
    out.spans = Some(tracer);
    Ok(out)
}
