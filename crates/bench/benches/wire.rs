//! Wire-layer benchmarks: codec encode/decode cost per frame, and
//! end-to-end gateway round trips (record in → prediction out) over
//! both the in-process loopback and TCP-localhost — which isolates
//! what the protocol costs (codec + checksum + framing) from what the
//! kernel's socket path costs on top.
//!
//! With `OCCUSENSE_BENCH_JSON=BENCH_wire.json cargo bench --bench
//! wire` the measurement run writes the committed baseline, median
//! and p99 per benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::CsiRecord;
use occusense_serve::{BackpressurePolicy, ServeConfig};
use occusense_wire::{
    checksum_of, decode_frame, decode_header, loopback, tcp_connect, tcp_listen, BatchFrame,
    BatchView, ClientEvent, Encoder, Frame, Gateway, GatewayConfig, LoopbackConfig, RecordFrame,
    TcpConfig, WireClient, DEFAULT_MAX_PAYLOAD, HEADER_BYTES,
};
use std::hint::black_box;
use std::time::Duration;

fn sample_record() -> CsiRecord {
    simulate(&ScenarioConfig::quick(1.0, 42))
        .records()
        .first()
        .copied()
        .expect("one record")
}

fn train_detector() -> OccupancyDetector {
    let ds = simulate(&ScenarioConfig::quick(1200.0, 99));
    OccupancyDetector::train(
        &ds,
        &DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 2,
            max_train_samples: Some(2_000),
            ..DetectorConfig::default()
        },
    )
}

fn bench_codec(c: &mut Criterion) {
    let record = sample_record();
    let single = Frame::Record(RecordFrame {
        seq: 7,
        label: Some(1),
        record,
    });
    let batch = Frame::Batch(BatchFrame {
        first_seq: 0,
        records: vec![(record, Some(1)); 64],
    });
    let mut group = c.benchmark_group("wire_codec");
    let mut encoder = Encoder::default();
    group.bench_function("encode_record", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            encoder
                .encode_into(black_box(&single), &mut out)
                .expect("encode");
            black_box(out.len())
        });
    });
    group.bench_function("encode_batch64", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            encoder
                .encode_into(black_box(&batch), &mut out)
                .expect("encode");
            black_box(out.len())
        });
    });
    let single_bytes = Encoder::default().encode(&single).expect("encode");
    let batch_bytes = Encoder::default().encode(&batch).expect("encode");
    group.bench_function("decode_record", |b| {
        b.iter(|| decode_frame(black_box(&single_bytes), DEFAULT_MAX_PAYLOAD).expect("decode"));
    });
    group.bench_function("decode_batch64", |b| {
        b.iter(|| decode_frame(black_box(&batch_bytes), DEFAULT_MAX_PAYLOAD).expect("decode"));
    });
    // The owning decode above clones 64 records into a fresh Vec; the
    // reactor's zero-copy path only validates and borrows. This one
    // times the payload parse alone, after the checksum has passed.
    let batch_payload = &batch_bytes[HEADER_BYTES..];
    group.bench_function("decode_batch64_view", |b| {
        b.iter(|| black_box(view_digest(black_box(batch_payload))));
    });
    // Exactly the reactor's per-frame ingress work: header decode,
    // checksum verification, then the zero-copy view parse.
    group.bench_function("ingress_batch64", |b| {
        b.iter(|| {
            let bytes = black_box(&batch_bytes[..]);
            let header = decode_header(bytes).expect("header");
            let payload = &bytes[HEADER_BYTES..HEADER_BYTES + header.payload_len];
            assert_eq!(checksum_of(header.frame_type, payload), header.checksum);
            black_box(view_digest(payload))
        });
    });
    group.finish();
}

/// Parses a `Batch` payload as a [`BatchView`] and touches every
/// record, as the reactor's ingest loop does.
fn view_digest(payload: &[u8]) -> u64 {
    let view = BatchView::parse(payload).expect("parse");
    let mut acc = 0u64;
    for (seq, record, _label) in view.records() {
        acc = acc.wrapping_add(seq) ^ record.timestamp_s.to_bits();
    }
    acc
}

/// One wire round trip: send a record, block until its prediction
/// comes back. The gateway and connection persist across iterations,
/// so this measures steady-state per-record latency, not setup.
fn round_trip(client: &mut WireClient, record: CsiRecord) -> u64 {
    let seq = client.send(record, None).expect("send");
    loop {
        match client.recv(Duration::from_millis(50)).expect("recv") {
            ClientEvent::Prediction(p) => {
                assert_eq!(p.seq, seq);
                return p.proba.to_bits();
            }
            ClientEvent::TimedOut => continue,
            other => panic!("unexpected event {other:?}"),
        }
    }
}

/// Latency-biased serve config: 1-record batches, online training off.
fn latency_config() -> ServeConfig {
    ServeConfig {
        n_shards: 1,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        max_batch: 1,
        online: None,
        ..ServeConfig::default()
    }
}

fn bench_loopback_round_trip(c: &mut Criterion) {
    let record = sample_record();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    let gateway = Gateway::start(
        train_detector(),
        latency_config(),
        GatewayConfig::default(),
        Box::new(acceptor),
    )
    .expect("gateway");
    let conn = connector.connect().expect("connect");
    let mut client =
        WireClient::connect(conn, "", "bench-loopback", Duration::from_secs(5)).expect("handshake");
    c.bench_function("wire_round_trip/loopback", |b| {
        b.iter(|| black_box(round_trip(&mut client, black_box(record))));
    });
    drop(client);
    let report = gateway.shutdown();
    assert_eq!(report.unaccounted_records(), 0);
}

fn bench_tcp_round_trip(c: &mut Criterion) {
    let record = sample_record();
    let (acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).expect("listen");
    let gateway = Gateway::start(
        train_detector(),
        latency_config(),
        GatewayConfig::default(),
        Box::new(acceptor),
    )
    .expect("gateway");
    let conn = tcp_connect(&addr.to_string(), TcpConfig::default()).expect("connect");
    let mut client =
        WireClient::connect(conn, "", "bench-tcp", Duration::from_secs(5)).expect("handshake");
    c.bench_function("wire_round_trip/tcp_localhost", |b| {
        b.iter(|| black_box(round_trip(&mut client, black_box(record))));
    });
    drop(client);
    let report = gateway.shutdown();
    assert_eq!(report.unaccounted_records(), 0);
}

criterion_group!(
    benches,
    bench_codec,
    bench_loopback_round_trip,
    bench_tcp_round_trip
);
criterion_main!(benches);
