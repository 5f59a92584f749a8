//! Kernel microbenchmarks: the blocked/packed GEMM, the fused dense
//! forward pass and the transpose-free gradient products, each against
//! the naive reference they replaced. Shapes follow the paper MLP's
//! hot layers (`batch 256 × [66, 128, 256, 128, 1]`); the
//! `serving_forward` group runs the whole paper MLP stack
//! (`64 → 128 → 256 → 128 → 1`) at the serving shapes, a 32-record
//! batch and a single record: `paper_mlp_b*` through the `f64`
//! `Dense::forward_into` (the training forward), `compiled_b*` through
//! the `f32` artifact every detector score runs through (input cast,
//! four layers and the sigmoid).
//!
//! Every kernel output is asserted finite before timing starts, so
//! running this target (in bench or `--test` smoke mode) fails loudly
//! on a panic or a NaN — the CI bench-smoke gate. With
//! `OCCUSENSE_BENCH_JSON=BENCH_kernels.json` a measurement run also
//! writes the machine-readable results that `bench_gate` compares
//! against the committed baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use occusense_core::nn::{CompiledWorkspace, Mlp};
use occusense_core::tensor::kernels::{self, Epilogue, Parallelism, Scratch};
use occusense_core::tensor::Matrix;
use std::hint::black_box;

/// Deterministic, well-conditioned test matrix.
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 7) as f64 + seed as f64) * 0.61).sin()
    })
}

fn assert_finite(name: &str, values: &[f64]) {
    assert!(
        values.iter().all(|v| v.is_finite()),
        "{name}: non-finite kernel output"
    );
}

/// The paper MLP's layer shapes at training batch size, `(m, k, n)`.
const GEMM_SHAPES: [(usize, usize, usize); 4] = [
    (256, 66, 128),
    (256, 128, 256),
    (256, 256, 128),
    (256, 128, 1),
];

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for (m, k, n) in GEMM_SHAPES {
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        assert_finite("gemm", a.matmul(&b).as_slice());
        group.bench_function(format!("naive_{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(black_box(&a).matmul_naive(&b)))
        });
        let mut out = vec![0.0; m * n];
        let mut scratch = Scratch::new();
        group.bench_function(format!("blocked_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                kernels::gemm(
                    m,
                    k,
                    n,
                    black_box(a.as_slice()),
                    black_box(b.as_slice()),
                    &mut out,
                    &mut scratch,
                );
                black_box(out[0])
            })
        });
        let mut par = Scratch::with_parallelism(Parallelism::Threads(2));
        group.bench_function(format!("threads2_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                kernels::gemm(
                    m,
                    k,
                    n,
                    black_box(a.as_slice()),
                    black_box(b.as_slice()),
                    &mut out,
                    &mut par,
                );
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_fused_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_dense_forward");
    let (m, k, n) = (256, 66, 128);
    let x = mat(m, k, 3);
    let w = mat(k, n, 4);
    let bias: Vec<f64> = (0..n).map(|j| (j as f64 * 0.13).cos()).collect();
    let relu = occusense_core::tensor::vecops::relu;
    let mut z = vec![0.0; m * n];
    let mut act = vec![0.0; m * n];
    let mut scratch = Scratch::new();
    kernels::gemm_bias_act(
        m,
        k,
        n,
        x.as_slice(),
        w.as_slice(),
        &bias,
        &mut z,
        &mut act,
        Epilogue::Relu,
        &mut scratch,
    );
    assert_finite("fused_dense_forward", &act);
    group.bench_function(format!("unfused_{m}x{k}x{n}"), |bch| {
        bch.iter(|| {
            let mut zm = black_box(&x).matmul_naive(&w);
            for r in 0..m {
                for (v, bv) in zm.row_mut(r).iter_mut().zip(&bias) {
                    *v += bv;
                }
            }
            black_box(zm.as_slice().iter().map(|&v| relu(v)).sum::<f64>())
        })
    });
    group.bench_function(format!("fused_{m}x{k}x{n}"), |bch| {
        bch.iter(|| {
            kernels::gemm_bias_act(
                m,
                k,
                n,
                black_box(x.as_slice()),
                black_box(w.as_slice()),
                &bias,
                &mut z,
                &mut act,
                Epilogue::Relu,
                &mut scratch,
            );
            black_box(act[0])
        })
    });
    group.finish();
}

fn bench_gradient_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("gradient_products");
    let (m, k, n) = (256, 128, 256);
    let x = mat(m, k, 5);
    let delta = mat(m, n, 6);
    let w = mat(k, n, 7);
    assert_finite("gemm_tn", x.matmul_tn(&delta).as_slice());
    assert_finite("gemm_nt", delta.matmul_nt(&w).as_slice());
    // x^T · δ — the weight gradient with and without materialising x^T.
    group.bench_function("weight_grad_transpose_then_naive", |bch| {
        bch.iter(|| black_box(black_box(&x).transpose().matmul_naive(&delta)))
    });
    group.bench_function("weight_grad_gemm_tn", |bch| {
        bch.iter(|| black_box(black_box(&x).matmul_tn(&delta)))
    });
    // δ · W^T — the input gradient with and without materialising W^T.
    group.bench_function("input_grad_transpose_then_naive", |bch| {
        bch.iter(|| black_box(black_box(&delta).matmul_naive(&w.transpose())))
    });
    group.bench_function("input_grad_gemm_nt", |bch| {
        bch.iter(|| black_box(black_box(&delta).matmul_nt(&w)))
    });
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec");
    let a = mat(128, 66, 8);
    let v: Vec<f64> = (0..66).map(|i| (i as f64 * 0.41).sin()).collect();
    assert_finite("matvec", &a.matvec(&v));
    group.bench_function("matvec_128x66", |bch| {
        bch.iter(|| black_box(black_box(&a).matvec(black_box(&v))))
    });
    let mut out = Vec::new();
    group.bench_function("matvec_into_128x66", |bch| {
        bch.iter(|| {
            black_box(&a).matvec_into(black_box(&v), &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

/// One serving forward of the whole stack: each layer's fused
/// `forward_into` feeds the next, through per-layer buffers that stop
/// growing after the first call. Returns the first output.
fn stack_forward(
    mlp: &Mlp,
    x: &Matrix,
    bufs: &mut [(Matrix, Matrix)],
    scratch: &mut Scratch,
) -> f64 {
    for (i, layer) in mlp.layers().iter().enumerate() {
        let (done, rest) = bufs.split_at_mut(i);
        let input = done.last().map_or(x, |(_, a)| a);
        let (z, a) = &mut rest[0];
        layer.forward_into(input, z, a, scratch);
    }
    bufs.last().map_or(f64::NAN, |(_, a)| a.as_slice()[0])
}

fn bench_serving_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_forward");
    let mlp = Mlp::paper_classifier(64, 42);
    for m in [32, 1] {
        let x = mat(m, 64, 9);
        let mut bufs = vec![(Matrix::zeros(0, 0), Matrix::zeros(0, 0)); mlp.layers().len()];
        let mut scratch = Scratch::new();
        stack_forward(&mlp, &x, &mut bufs, &mut scratch);
        assert_finite("serving_forward", bufs[bufs.len() - 1].1.as_slice());
        group.bench_function(format!("paper_mlp_b{m}"), |bch| {
            bch.iter(|| black_box(stack_forward(&mlp, black_box(&x), &mut bufs, &mut scratch)))
        });
    }
    let compiled = mlp.compile();
    for m in [32, 1] {
        let x = mat(m, 64, 9);
        let mut ws = CompiledWorkspace::new();
        let mut proba = Vec::new();
        compiled.predict_proba_into(&x, &mut ws, &mut proba);
        assert_finite("serving_forward", &proba);
        group.bench_function(format!("compiled_b{m}"), |bch| {
            bch.iter(|| {
                compiled.predict_proba_into(black_box(&x), &mut ws, &mut proba);
                black_box(proba[0])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_fused_forward,
    bench_serving_forward,
    bench_gradient_products,
    bench_matvec
);
criterion_main!(benches);
