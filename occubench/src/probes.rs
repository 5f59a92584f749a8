//! Layer probes run by traced runs: fixed-size calls into `wire`,
//! `core` and `tensor` on the workload's own frames, records and layer
//! shapes, each inside a span.

use crate::trace::{SpanId, Tracer, NO_REQUEST};
use occusense_core::detector::{OccupancyDetector, ScoreWorkspace};
use occusense_dataset::CsiRecord;
use occusense_nn::Mlp;
use occusense_tensor::kernels::{gemm_bias_act, gemm_tn};
use occusense_tensor::Scratch;
use occusense_wire::{checksum_of, decode_header, decode_payload, BatchView, HEADER_BYTES};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Frame type byte of `Batch` frames (see `Frame::frame_type`).
const BATCH_FRAME_TYPE: u8 = 4;

/// Replays the reactor's per-frame ingress work over frames exactly as
/// a client sent them: header decode, checksum verification and the
/// payload parse (`BatchView::parse` for batches, `decode_payload`
/// otherwise). Returns the payload bytes checked.
///
/// # Errors
///
/// When a frame fails any step, which would mean the client sent a
/// frame the gateway must refuse.
pub fn ingress_replay(frames: &[&[u8]], tracer: &mut Tracer) -> Result<u64, String> {
    let mut payload_bytes = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let ingress = tracer.begin("wire.ingress", SpanId::NONE, i as u64);
        let header = decode_header(frame).map_err(|e| format!("frame {i}: header: {e}"))?;
        let payload = frame
            .get(HEADER_BYTES..HEADER_BYTES + header.payload_len)
            .ok_or_else(|| format!("frame {i}: truncated"))?;
        let sum = tracer.span("wire.checksum", ingress, i as u64, || {
            checksum_of(header.frame_type, black_box(payload))
        });
        if sum != header.checksum {
            return Err(format!("frame {i}: checksum mismatch"));
        }
        let parse = tracer.begin("wire.payload_parse", ingress, i as u64);
        if header.frame_type == BATCH_FRAME_TYPE {
            let view = BatchView::parse(payload).map_err(|e| format!("frame {i}: batch: {e}"))?;
            black_box(view.records().count());
        } else {
            black_box(
                decode_payload(header.frame_type, payload)
                    .map_err(|e| format!("frame {i}: payload: {e}"))?,
            );
        }
        tracer.end(parse);
        tracer.end(ingress);
        payload_bytes += payload.len() as u64;
    }
    Ok(payload_bytes)
}

/// Scores `records` one at a time with `predict_record` and in batches
/// of 32 with `predict_proba_slice_into`, checking both agree bitwise.
///
/// # Errors
///
/// On any disagreement between the two paths.
pub fn core_scoring(
    detector: &OccupancyDetector,
    records: &[CsiRecord],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut single = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let (_, p) = tracer.span("core.predict_record", SpanId::NONE, i as u64, || {
            detector.predict_record(black_box(r))
        });
        single.push(p);
    }
    let mut ws = ScoreWorkspace::new();
    let mut out = Vec::with_capacity(32);
    for (c, chunk) in records.chunks_exact(32).enumerate() {
        tracer.span(
            "core.predict_batch32",
            SpanId::NONE,
            (c * 32) as u64,
            || detector.predict_proba_slice_into(black_box(chunk), &mut ws, &mut out),
        );
        for (k, p) in out.iter().enumerate() {
            if p.to_bits() != single[c * 32 + k].to_bits() {
                return Err(format!("record {}: batch-32 score differs", c * 32 + k));
            }
        }
    }
    Ok(())
}

/// Kernel work of one probe call, computed from the shapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCost {
    /// Floating-point operations (a fused multiply-add counts as two).
    pub flops: f64,
    /// Bytes the kernel must read and write at least once.
    pub bytes: f64,
    /// Kernel calls per call of the probe (one per layer).
    pub layers: usize,
}

/// Times `gemm_bias_act` over the detector's layer stack at batch 32
/// (the serving shape) and `gemm_tn` over its weight-gradient shapes at
/// batch 256 (the trainer's). One span per kernel call; a probe
/// iteration runs every layer once.
pub fn tensor_kernels(
    mlp: &Mlp,
    iterations: usize,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, KernelCost> {
    type Act = fn(f64) -> f64;
    let shapes: Vec<(usize, usize, Act)> = mlp
        .layers()
        .iter()
        .map(|l| (l.in_dim(), l.out_dim(), l.activation.scalar_fn()))
        .collect();
    let fill = |len: usize, salt: usize| -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 7 + salt) % 13) as f64 / 13.0 - 0.5)
            .collect()
    };
    let mut scratch = Scratch::new();
    let mut costs = BTreeMap::new();

    let m = 32;
    let mut cost = KernelCost {
        layers: shapes.len(),
        ..KernelCost::default()
    };
    let mut buffers: Vec<_> = shapes
        .iter()
        .map(|&(k, n, _)| {
            cost.flops += 2.0 * (m * k * n) as f64;
            cost.bytes += 8.0 * (m * k + k * n + n + 2 * m * n) as f64;
            (
                fill(m * k, 1),
                fill(k * n, 2),
                fill(n, 3),
                vec![0.0; m * n],
                vec![0.0; m * n],
            )
        })
        .collect();
    for _ in 0..iterations {
        for (&(k, n, act), (x, w, b, z, a)) in shapes.iter().zip(buffers.iter_mut()) {
            tracer.span("tensor.gemm_bias_act", SpanId::NONE, NO_REQUEST, || {
                gemm_bias_act(m, k, n, black_box(x), w, b, z, a, act, &mut scratch)
            });
            black_box(&a);
        }
    }
    costs.insert("gemm_bias_act_b32", cost);

    let m = 256;
    let mut cost = KernelCost {
        layers: shapes.len(),
        ..KernelCost::default()
    };
    let mut buffers: Vec<_> = shapes
        .iter()
        .map(|&(k, n, _)| {
            cost.flops += 2.0 * (m * k * n) as f64;
            cost.bytes += 8.0 * (m * k + m * n + k * n) as f64;
            (fill(m * k, 4), fill(m * n, 5), vec![0.0; k * n])
        })
        .collect();
    for _ in 0..iterations {
        for (&(k, n, _), (a, b, out)) in shapes.iter().zip(buffers.iter_mut()) {
            tracer.span("tensor.gemm_tn", SpanId::NONE, NO_REQUEST, || {
                gemm_tn(m, k, n, black_box(a), b, out, &mut scratch)
            });
            black_box(&out);
        }
    }
    costs.insert("gemm_tn_b256", cost);
    costs
}
