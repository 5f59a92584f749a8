//! What the serving workloads share after their runs: the per-layer
//! view of a `ServeReport` and the accounting verdict.

use crate::fixture::{self, Bootstrap};
use crate::hub::Hub;
use crate::probes;
use crate::trace::Tracer;
use occusense_serve::ServeReport;
use occusense_wire::{Acceptor, Connection, Gateway, TransportError};
use std::collections::BTreeMap;
use std::time::Duration;

/// A latency limit of one 20 Hz sample period: a prediction arriving
/// later than this misses it.
pub const RTT_LIMIT_NS: u64 = 50_000_000;

/// What both serving workloads build before their first timed
/// operation: the bootstrap detector and replay pool, a gateway on the
/// workload's transport, and two handshaken hubs on distinct shards.
pub struct Rig {
    /// Detector, pool and their set-up figures.
    pub boot: Bootstrap,
    /// The gateway under test.
    pub gateway: Gateway,
    /// The two site hubs.
    pub hubs: Vec<Hub>,
}

/// Builds a rig whose gateway accepts from `acceptor` and whose hubs
/// connect through `connect`. The load generator is the calling thread
/// and these two connections, which must not exceed `nproc`.
pub fn rig(
    seed: u64,
    acceptor: Box<dyn Acceptor>,
    connect: impl Fn() -> Result<Box<dyn Connection>, TransportError>,
) -> Result<Rig, String> {
    let boot = fixture::bootstrap(seed)?;
    let gateway = Gateway::start(
        boot.detector.clone(),
        fixture::serve_config(),
        fixture::gateway_config(),
        acceptor,
    )
    .map_err(|e| format!("gateway: {e}"))?;
    let mut hubs = Vec::new();
    for (h, id) in fixture::hub_ids().iter().enumerate() {
        let io = connect()
            .and_then(|c| c.into_poll())
            .map_err(|e| format!("{id}: connect: {e}"))?;
        let offset = fixture::pool_offset(h, boot.pool.len());
        hubs.push(Hub::handshake(io, id, offset, Duration::from_secs(5))?);
    }
    if hubs[0].shard == hubs[1].shard {
        return Err(format!("both hubs landed on shard {}", hubs[0].shard));
    }
    crate::check_generator(1, hubs.len())?;
    Ok(Rig {
        boot,
        gateway,
        hubs,
    })
}

/// Builds a rig three times, tearing the first two down, and returns
/// the last one with the median set-up time.
pub fn setup(build: impl FnMut() -> Result<Rig, String>) -> Result<(Rig, f64), String> {
    fixture::repeated_setup(3, build, |r| {
        drop(r.hubs);
        r.gateway.shutdown();
    })
}

/// The per-layer numbers both serving workloads add to a traced run:
/// the ingress replay over frames the hubs sent, scoring and kernel
/// probes on the served detector, the serve report, and span times.
pub fn layer_probes(
    boot: &Bootstrap,
    hubs: &[Hub],
    report: &ServeReport,
    tracer: &mut Tracer,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let frames: Vec<&[u8]> = hubs
        .iter()
        .flat_map(|h| h.sample_frames.iter().map(Vec::as_slice))
        .collect();
    let payload_bytes = probes::ingress_replay(&frames, tracer)?;
    let records = boot.pool.records();
    probes::core_scoring(&boot.detector, &records[..records.len().min(2048)], tracer)?;
    let mlp = boot
        .detector
        .mlp()
        .ok_or("bootstrap detector is not an MLP")?;
    let kernels = probes::tensor_kernels(mlp, 200, tracer);
    report_layers(report, v);
    v.insert("nn.bootstrap_train_s", boot.train_s);
    v.insert("sim.records_per_s", boot.sim_records_per_s);
    crate::layer_times(tracer, payload_bytes, &kernels, v);
    Ok(())
}

/// Reads one counter, or a histogram's `count`/`mean`, out of the
/// rendered metrics registry (`ServeReport::metrics_text`).
fn registry(report: &ServeReport) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in report.metrics_text.lines() {
        let mut words = line.split_whitespace();
        let (Some(kind), Some(name)) = (words.next(), words.next()) else {
            continue;
        };
        match kind {
            "counter" | "gauge" => {
                if let Some(v) = words.next().and_then(|v| v.parse().ok()) {
                    out.insert(name.to_string(), v);
                }
            }
            "histogram" => {
                for field in words {
                    if let Some((key, v)) = field.split_once('=') {
                        if let Ok(v) = v.parse() {
                            out.insert(format!("{name}.{key}"), v);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// The serve- and wire-layer numbers a `ServeReport` carries.
fn report_layers(report: &ServeReport, out: &mut BTreeMap<&'static str, f64>) {
    let reg = registry(report);
    let get = |k: &str| reg.get(k).copied().unwrap_or(0.0);
    let served = report.records_served.max(1) as f64;
    let batches = get("serve.batches").max(1.0);
    out.insert("serve.latency_p50_us", report.latency_p50_ns as f64 / 1e3);
    out.insert("serve.latency_p99_us", report.latency_p99_ns as f64 / 1e3);
    out.insert(
        "serve.batch_size_mean",
        report.records_served as f64 / batches,
    );
    out.insert(
        "serve.deadline_flush_ratio",
        get("serve.deadline_flushes") / batches,
    );
    out.insert(
        "serve.inference_ns_per_record",
        get("serve.inference_ns.mean") * get("serve.inference_ns.count") / served,
    );
    out.insert(
        "serve.queue_high_watermark",
        report
            .shard_queues
            .iter()
            .map(|q| q.high_watermark)
            .max()
            .unwrap_or(0) as f64,
    );
    let w = &report.wire;
    out.insert("wire.frames_received", w.frames_received as f64);
    out.insert("wire.records_rejected", w.records_rejected as f64);
    out.insert("wire.records_shed", w.records_shed as f64);
    out.insert("wire.malformed_frames", w.malformed_frames as f64);
}

/// Outcome counts of a gateway run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Records offered.
    pub attempted: u64,
    /// NACKed, lost, mismatched or over the latency limit.
    pub failed: u64,
    /// Reasons the run is not correct; empty when it is.
    pub failures: Vec<String>,
}

/// Checks every hub's predictions and the gateway's accounting: each
/// record sent is answered exactly once by a bitwise-verified
/// prediction, nothing is NACKed, shed or lost, and the report's
/// identity closes. `late` predictions missed the latency limit.
pub fn verdict(hubs: &[Hub], report: &ServeReport, late: u64) -> Verdict {
    let mut v = Verdict::default();
    let mut sent = 0;
    let mut verified = 0;
    for hub in hubs {
        let s = &hub.stats;
        sent += hub.next_seq;
        verified += s.verified;
        let lost = hub.in_flight();
        v.failed += s.nacks + s.mismatches + s.unexpected + lost;
        v.failures.extend(hub.errors.iter().cloned());
        for (what, n) in [
            ("mismatched", s.mismatches),
            ("unexpected", s.unexpected),
            ("NACKed", s.nacks),
            ("lost", lost),
        ] {
            if n > 0 {
                v.failures
                    .push(format!("{}: {n} predictions {what}", hub.id));
            }
        }
    }
    v.attempted = sent;
    v.failed += late;
    let unaccounted = report.unaccounted_records();
    if unaccounted != 0 {
        v.failures
            .push(format!("{unaccounted} records unaccounted for"));
    }
    if report.wire.records_decoded != sent {
        v.failures.push(format!(
            "gateway decoded {} records, clients sent {sent}",
            report.wire.records_decoded
        ));
    }
    if report.wire.predictions_sent != verified {
        v.failures.push(format!(
            "gateway sent {} predictions, clients verified {verified}",
            report.wire.predictions_sent
        ));
    }
    v
}
