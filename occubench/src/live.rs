//! `live`: the deployment shape. Two site hubs, each forwarding 1,000
//! simulated sniffers at the paper's 20 Hz with seeded phases, send one
//! `Record` frame per record over TCP on 127.0.0.1 on an open-loop
//! schedule. Every record is timed from when it was due, so a stall
//! also charges the wait it imposes on the records behind it.

use crate::fixture::{self, Bootstrap, Pool};
use crate::hub::{self, Hub, TICK};
use crate::schedule::{splitmix64, Schedule};
use crate::serving::{self, Rig, RTT_LIMIT_NS};
use crate::stats::Summary;
use crate::trace::{SpanId, Tracer, NO_REQUEST};
use crate::{Args, Outcome};
use occusense_serve::{SensorClient, ServeRuntime};
use occusense_wire::{tcp_connect, tcp_listen, TcpConfig};
use std::sync::mpsc::TryRecvError;
use std::time::Instant;

/// Sniffers behind each hub.
const HUB_SENSORS: usize = 1000;

/// Longest a phase may take to collect its last predictions.
const DRAIN_LIMIT_NS: u64 = 10_000_000_000;

/// Delay between a phase's start and its first due record.
const LEAD_NS: u64 = 2_000_000;

fn rig(seed: u64) -> Result<Rig, String> {
    let (acceptor, addr) =
        tcp_listen("127.0.0.1:0", TcpConfig::default()).map_err(|e| format!("listen: {e}"))?;
    let addr = addr.to_string();
    serving::rig(seed, Box::new(acceptor), || {
        tcp_connect(&addr, TcpConfig::default())
    })
}

/// The two hubs' schedules for a workload seed.
pub fn schedules(seed: u64) -> Vec<Schedule> {
    let mut state = seed;
    (0..2)
        .map(|_| Schedule::new(HUB_SENSORS, splitmix64(&mut state)))
        .collect()
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Where each hub's schedule resumes for a phase starting at `start_ns`.
struct Clock {
    start_ns: u64,
    first: Vec<u64>,
}

impl Clock {
    fn due_abs(&self, schedules: &[Schedule], h: usize, seq: u64) -> u64 {
        self.start_ns + schedules[h].due_ns(seq) - schedules[h].due_ns(self.first[h])
    }

    /// Records of hub `h` due before absolute time `t_ns`.
    fn due_before(&self, schedules: &[Schedule], h: usize, t_ns: u64) -> u64 {
        if t_ns <= self.start_ns {
            return self.first[h];
        }
        let rel = t_ns - self.start_ns + schedules[h].due_ns(self.first[h]);
        schedules[h].due_before(rel)
    }
}

/// Figures of one measured phase.
#[derive(Default)]
struct Phase {
    rtts: Vec<u64>,
    late: Vec<u64>,
    verified: u64,
    label_hits: u64,
    records: u64,
    polls: u64,
    useful_polls: u64,
    bytes: u64,
    wall_s: f64,
}

/// Sends every hub's records as they fall due for `seconds`, then
/// collects the remaining predictions.
fn drive(
    hubs: &mut [Hub],
    schedules: &[Schedule],
    pool: &Pool,
    epoch: Instant,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let before: Vec<_> = hubs.iter().map(|h| h.stats).collect();
    let clock = Clock {
        start_ns: now_ns(epoch) + LEAD_NS,
        first: hubs.iter().map(|h| h.next_seq).collect(),
    };
    let end_ns = clock.start_ns + (seconds * 1e9) as u64;
    let limits: Vec<u64> = (0..hubs.len())
        .map(|h| clock.due_before(schedules, h, end_ns))
        .collect();
    let mut phase = Phase::default();
    loop {
        let sweep = tracer.begin("bench.sweep", SpanId::NONE, NO_REQUEST);
        let now = now_ns(epoch);
        let mut moved = false;
        for (h, hub) in hubs.iter_mut().enumerate() {
            let upto = clock.due_before(schedules, h, now + 1).min(limits[h]);
            while hub.next_seq < upto {
                let due = clock.due_abs(schedules, h, hub.next_seq);
                phase.late.push(now - due);
                hub.queue_record(pool, due, tracer, sweep);
                moved = true;
            }
            moved |= hub.flush(tracer, sweep);
            moved |= hub.receive(pool, epoch, tracer, sweep);
        }
        tracer.end(sweep);
        let sent_all = hubs.iter().zip(&limits).all(|(hub, &l)| hub.next_seq == l);
        let settled = hubs
            .iter()
            .all(|hub| hub.in_flight() == 0 && !hub.has_pending_output());
        if let Some(hub) = hubs.iter().find(|hub| hub.done) {
            return Err(format!(
                "{} ended mid-phase with {} of {} records in flight: {}",
                hub.id,
                hub.in_flight(),
                hub.next_seq,
                hub.errors.join("; ")
            ));
        }
        if sent_all && settled {
            break;
        }
        if now > end_ns + DRAIN_LIMIT_NS {
            return Err("predictions still missing 10 s after the phase ended".into());
        }
        if !moved {
            std::thread::sleep(TICK);
        }
    }
    phase.wall_s = (now_ns(epoch) - clock.start_ns) as f64 / 1e9;
    for (hub, stats) in hubs.iter_mut().zip(before) {
        phase.rtts.append(&mut hub.rtts);
        phase.verified += hub.stats.verified - stats.verified;
        phase.label_hits += hub.stats.label_hits - stats.label_hits;
        phase.records += hub.stats.frames - stats.frames;
        phase.polls += hub.stats.polls - stats.polls;
        phase.useful_polls += hub.stats.useful_polls - stats.useful_polls;
        phase.bytes += hub.stats.bytes_written - stats.bytes_written;
    }
    Ok(phase)
}

/// The stack-peel run: the same schedule submitted straight into a
/// `ServeRuntime` through `SensorClient::submit_sequenced`, with no
/// gateway, so the wire hop is a measured difference. Returns the
/// round trips (due → prediction) of verified predictions.
fn direct(
    boot: &Bootstrap,
    schedules: &[Schedule],
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Vec<u64>, String> {
    let (runtime, predictions) =
        ServeRuntime::start(boot.detector.clone(), fixture::serve_config())
            .map_err(|e| format!("direct runtime: {e}"))?;
    let ids = fixture::hub_ids();
    let mut clients: Vec<SensorClient> = ids.iter().map(|id| runtime.client(id)).collect();
    let pool = &boot.pool;
    let offsets: Vec<usize> = (0..ids.len())
        .map(|h| fixture::pool_offset(h, pool.len()))
        .collect();
    let epoch = Instant::now();
    let clock = Clock {
        start_ns: now_ns(epoch) + LEAD_NS,
        first: vec![0; ids.len()],
    };
    let end_ns = clock.start_ns + (seconds * 1e9) as u64;
    let limits: Vec<u64> = (0..ids.len())
        .map(|h| clock.due_before(schedules, h, end_ns))
        .collect();
    let mut next = vec![0u64; ids.len()];
    let mut answered: Vec<Vec<bool>> = limits.iter().map(|&l| vec![false; l as usize]).collect();
    let mut outstanding: u64 = 0;
    let mut rtts = Vec::with_capacity(limits.iter().sum::<u64>() as usize);
    let mut failures = Vec::new();
    loop {
        let sweep = tracer.begin("bench.sweep", SpanId::NONE, NO_REQUEST);
        let now = now_ns(epoch);
        let mut moved = false;
        for (h, client) in clients.iter_mut().enumerate() {
            let upto = clock.due_before(schedules, h, now + 1).min(limits[h]);
            while next[h] < upto {
                let seq = next[h];
                let record = pool.record(offsets[h], seq);
                let submitted = tracer.span("serve.submit", sweep, seq, || {
                    client.submit_sequenced(seq, record, None)
                });
                if let Err(e) = submitted {
                    failures.push(format!("{}: submit {seq}: {e:?}", ids[h]));
                }
                outstanding += 1;
                next[h] += 1;
                moved = true;
            }
        }
        loop {
            let received = tracer.span("serve.recv", sweep, NO_REQUEST, || predictions.try_recv());
            let p = match received {
                Ok(p) => p,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    failures.push("direct runtime closed its prediction channel".into());
                    break;
                }
            };
            moved = true;
            outstanding = outstanding.saturating_sub(1);
            let Some(h) = ids.iter().position(|id| **id == *p.sensor_id) else {
                failures.push(format!("prediction for unknown sensor {}", p.sensor_id));
                continue;
            };
            let slot = answered[h].get_mut(p.seq as usize);
            match slot {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    failures.push(format!("{}: duplicate or unknown seq {}", ids[h], p.seq));
                    continue;
                }
            }
            let (occupied, proba) = pool.expected(offsets[h], p.seq);
            if p.occupied != occupied || p.proba.to_bits() != proba.to_bits() {
                failures.push(format!("{}: seq {} scored differently", ids[h], p.seq));
                continue;
            }
            rtts.push(now_ns(epoch).saturating_sub(clock.due_abs(schedules, h, p.seq)));
        }
        tracer.end(sweep);
        let sent_all = next.iter().zip(&limits).all(|(n, l)| n == l);
        if (sent_all && outstanding == 0) || !failures.is_empty() {
            break;
        }
        if now > end_ns + DRAIN_LIMIT_NS {
            failures.push("direct run: predictions still missing after 10 s".into());
            break;
        }
        if !moved {
            std::thread::sleep(TICK);
        }
    }
    drop(clients);
    let report = runtime.shutdown();
    if report.unaccounted_records() != 0 {
        failures.push(format!(
            "direct run: {} records unaccounted for",
            report.unaccounted_records()
        ));
    }
    if let Some(f) = failures.first() {
        return Err(f.clone());
    }
    Ok(rtts)
}

/// Round trips over the latency limit; each counts as a failure.
fn over_limit(rtts: &[u64]) -> u64 {
    rtts.iter().filter(|&&r| r > RTT_LIMIT_NS).count() as u64
}

/// Runs the `live` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (rig, setup_s) = serving::setup(|| rig(args.seed))?;
    let Rig {
        boot,
        gateway,
        mut hubs,
    } = rig;
    let schedules = schedules(args.seed);
    let pool = &boot.pool;
    let epoch = Instant::now();
    let mut out = Outcome::default();

    if !args.trace {
        let phase = drive(
            &mut hubs,
            &schedules,
            pool,
            epoch,
            args.seconds,
            &mut Tracer::new(false),
        )?;
        hub::close_all(&mut hubs, pool, epoch)?;
        let report = gateway.shutdown();
        out.absorb(serving::verdict(&hubs, &report, over_limit(&phase.rtts)));
        let mut rtts = phase.rtts;
        let rtt = Summary::of(&mut rtts).ok_or("no prediction arrived")?;
        out.note(format!(
            "open loop: {:.0} records/s offered over {} hubs x {HUB_SENSORS} sensors, {} round trips timed from their due times",
            schedules.iter().map(Schedule::rate_per_s).sum::<f64>(),
            hubs.len(),
            rtt.count
        ));
        let mut late = phase.late;
        if let Some(l) = Summary::of(&mut late) {
            out.note(format!(
                "generator lateness p99 {:.1} us",
                l.p99 as f64 / 1e3
            ));
        }
        out.set("setup_s", setup_s);
        out.set_rtt("timed from each record's due time", rtt);
        out.set("goodput_rps", phase.verified as f64 / phase.wall_s);
        out.set(
            "accuracy_mlp",
            100.0 * phase.label_hits as f64 / phase.verified.max(1) as f64,
        );
        return Ok(out);
    }

    // Traced run: an untraced third for the overhead reference, a
    // traced third for the spans, then the stack-peel third.
    let third = args.seconds / 3.0;
    let plain = drive(
        &mut hubs,
        &schedules,
        pool,
        epoch,
        third,
        &mut Tracer::new(false),
    )?;
    let mut tracer = Tracer::new(true);
    let traced = drive(&mut hubs, &schedules, pool, epoch, third, &mut tracer)?;
    hub::close_all(&mut hubs, pool, epoch)?;
    let report = gateway.shutdown();
    let late = over_limit(&plain.rtts) + over_limit(&traced.rtts);
    out.absorb(serving::verdict(&hubs, &report, late));
    let mut direct_rtts = direct(&boot, &schedules, third, &mut tracer)?;

    serving::layer_probes(&boot, &hubs, &report, &mut tracer, &mut out.values)?;
    let v = &mut out.values;
    let mut plain_rtts = plain.rtts;
    let mut traced_rtts = traced.rtts;
    let plain_rtt = Summary::of(&mut plain_rtts).ok_or("no untraced prediction")?;
    let traced_rtt = Summary::of(&mut traced_rtts).ok_or("no traced prediction")?;
    let direct_rtt = Summary::of(&mut direct_rtts).ok_or("no direct prediction")?;
    let mut late = plain.late;
    let late = Summary::of(&mut late).ok_or("no record sent")?;
    v.insert("serve.direct_rtt_p50_us", direct_rtt.p50 as f64 / 1e3);
    v.insert("serve.direct_rtt_p99_us", direct_rtt.p99 as f64 / 1e3);
    v.insert(
        "wire.hop_rtt_p50_us",
        (plain_rtt.p50 as f64 - direct_rtt.p50 as f64) / 1e3,
    );
    v.insert(
        "wire.bytes_per_record",
        traced.bytes as f64 / traced.records as f64,
    );
    v.insert(
        "wire.client_polls_per_record",
        traced.polls as f64 / traced.records as f64,
    );
    v.insert(
        "wire.client_wouldblock_ratio",
        traced.useful_polls as f64 / traced.polls as f64,
    );
    v.insert("bench.gen_late_p99_us", late.p99 as f64 / 1e3);
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_rtt.p50 as f64 - plain_rtt.p50 as f64) / plain_rtt.p50 as f64,
    );
    out.note(format!(
        "samples: untraced {} / traced {} / direct {} round trips; over-limit ({} ms) predictions are failures",
        plain_rtt.count,
        traced_rtt.count,
        direct_rtt.count,
        RTT_LIMIT_NS / 1_000_000
    ));
    out.spans = Some(tracer);
    Ok(out)
}
