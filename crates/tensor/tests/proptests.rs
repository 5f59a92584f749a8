//! Property-based tests for the tensor kernel.

use occusense_tensor::kernels::{self, Parallelism, Scratch};
use occusense_tensor::{linalg, vecops, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with bounded shape and bounded finite values.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Strategy: two matrices of identical shape.
fn matrix_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let a = prop::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data));
        let b = prop::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data));
        (a, b)
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix_strategy(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn addition_commutes((a, b) in matrix_pair(10)) {
        let ab = a.try_add(&b).unwrap();
        let ba = b.try_add(&a).unwrap();
        prop_assert!((&ab - &ba).max_abs() < 1e-9);
    }

    #[test]
    fn subtraction_is_inverse_of_addition((a, b) in matrix_pair(10)) {
        let back = a.try_add(&b).unwrap().try_sub(&b).unwrap();
        prop_assert!((&back - &a).max_abs() < 1e-9);
    }

    #[test]
    fn scale_distributes_over_add((a, b) in matrix_pair(8), k in -10.0f64..10.0) {
        let lhs = a.try_add(&b).unwrap().scale(k);
        let rhs = a.scale(k).try_add(&b.scale(k)).unwrap();
        prop_assert!((&lhs - &rhs).max_abs() < 1e-8);
    }

    #[test]
    fn matmul_transpose_identity(m in matrix_strategy(8)) {
        // (A^T A) is symmetric.
        let ata = m.transpose().matmul(&m);
        let diff = &ata - &ata.transpose();
        prop_assert!(diff.max_abs() < 1e-9);
    }

    #[test]
    fn matvec_agrees_with_matmul(m in matrix_strategy(8)) {
        let v: Vec<f64> = (0..m.cols()).map(|i| i as f64 - 2.0).collect();
        let got = m.matvec(&v);
        let want = m.matmul(&Matrix::col_vector(&v)).col(0);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn hadamard_commutes((a, b) in matrix_pair(10)) {
        let ab = a.try_hadamard(&b).unwrap();
        let ba = b.try_hadamard(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn qr_reconstruction(m in matrix_strategy(8)) {
        // Only tall/square matrices are factorisable.
        prop_assume!(m.rows() >= m.cols());
        let f = linalg::qr(&m).unwrap();
        let back = f.q.matmul(&f.r);
        prop_assert!((&back - &m).max_abs() < 1e-8);
    }

    #[test]
    fn qr_q_orthonormal(m in matrix_strategy(8)) {
        prop_assume!(m.rows() >= m.cols());
        let f = linalg::qr(&m).unwrap();
        let qtq = f.q.transpose().matmul(&f.q);
        let diff = &qtq - &Matrix::identity(m.cols());
        prop_assert!(diff.max_abs() < 1e-8);
    }

    #[test]
    fn dot_is_symmetric(v in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let w: Vec<f64> = v.iter().rev().copied().collect();
        prop_assert!((vecops::dot(&v, &w) - vecops::dot(&w, &v)).abs() < 1e-9);
    }

    #[test]
    fn variance_is_nonnegative(v in prop::collection::vec(-1e3f64..1e3, 0..100)) {
        prop_assert!(vecops::variance(&v) >= 0.0);
        prop_assert!(vecops::sample_variance(&v) >= 0.0);
    }

    #[test]
    fn variance_shift_invariant(v in prop::collection::vec(-100.0f64..100.0, 2..50), shift in -50.0f64..50.0) {
        let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        prop_assert!((vecops::variance(&v) - vecops::variance(&shifted)).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_within_unit_interval(x in -1e6f64..1e6) {
        let s = vecops::sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn diff_length(v in prop::collection::vec(-10.0f64..10.0, 0..50)) {
        let d = vecops::diff(&v);
        prop_assert_eq!(d.len(), v.len().saturating_sub(1));
    }

    #[test]
    fn least_squares_residual_orthogonality(
        rows in 4usize..12,
        seedish in 0u64..1000,
    ) {
        // Build a well-conditioned design: intercept + ramp + alternation.
        let a = Matrix::from_fn(rows, 3, |r, c| match c {
            0 => 1.0,
            1 => r as f64,
            _ => if r % 2 == 0 { 1.0 } else { -1.0 },
        });
        let b: Vec<f64> = (0..rows)
            .map(|r| ((r as f64) * 0.7 + (seedish as f64) * 0.01).sin() * 5.0)
            .collect();
        let x = linalg::least_squares(&a, &b).unwrap();
        let pred = a.matvec(&x);
        let resid: Vec<f64> = b.iter().zip(&pred).map(|(y, p)| y - p).collect();
        let at_r = a.transpose().matvec(&resid);
        prop_assert!(vecops::norm(&at_r) < 1e-7);
    }
}

/// Strategy: a multiplicable `(m×k, k×n)` pair whose shapes span every
/// kernel path — empty (`m`, `k` or `n` zero), 1×1, tall, wide, below
/// and above the packing threshold, and non-multiples of the block
/// sizes.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..=40, 0usize..=20, 0usize..=70).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(-100.0f64..100.0, m * k)
            .prop_map(move |data| Matrix::from_vec(m, k, data));
        let b = prop::collection::vec(-100.0f64..100.0, k * n)
            .prop_map(move |data| Matrix::from_vec(k, n, data));
        (a, b)
    })
}

/// Values that stress the fused epilogue: signed zeros, NaN,
/// subnormals and magnitudes near the top of the range (kept below
/// overflow, so no infinity or operation-generated NaN arises and
/// every NaN carries the same payload).
const SPECIALS: [f64; 8] = [0.0, -0.0, f64::NAN, 5e-324, -2.5e-310, 1e150, -1e150, 1e300];

/// Strategy: one operand element — mostly uniform in ±100, one in
/// eight drawn from [`SPECIALS`] (±1e300 only where `huge` allows it:
/// in the bias, not in a product).
fn element(huge: bool) -> impl Strategy<Value = f64> {
    (0usize..64, -100.0f64..100.0).prop_map(move |(tag, v)| match SPECIALS.get(tag) {
        Some(&s) if huge || s.abs() != 1e300 => s,
        Some(_) => 1.0,
        None => v,
    })
}

/// Strategy: a fused-forward case `(x, w, bias)`. Half the cases have
/// output widths 1–7, which only the narrow edge tile serves.
fn fused_case() -> impl Strategy<Value = (Matrix, Matrix, Vec<f64>)> {
    (0usize..=40, 0usize..=20, 1usize..=7, 0usize..=70, 0u8..2).prop_flat_map(
        |(m, k, narrow, wide, pick)| {
            let n = if pick == 0 { narrow } else { wide };
            let x = prop::collection::vec(element(false), m * k)
                .prop_map(move |data| Matrix::from_vec(m, k, data));
            let w = prop::collection::vec(element(false), k * n)
                .prop_map(move |data| Matrix::from_vec(k, n, data));
            (x, w, prop::collection::vec(element(true), n))
        },
    )
}

/// Every epilogue the serving and training forwards use: the inlined
/// ReLU and identity, and sigmoid/tanh through function pointers.
fn epilogues() -> [kernels::Epilogue; 4] {
    [
        kernels::Epilogue::Identity,
        kernels::Epilogue::Relu,
        kernels::Epilogue::from(vecops::sigmoid as fn(f64) -> f64),
        kernels::Epilogue::from(f64::tanh as fn(f64) -> f64),
    ]
}

/// The bit patterns of `values`, so NaNs compare by payload.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // ---- kernel layer: tiled / fused / parallel vs the naive oracle ----

    #[test]
    fn tiled_matmul_matches_naive_reference_tightly((a, b) in matmul_pair()) {
        // The register-tiled kernel accumulates every output element in
        // ascending-k order with a single accumulator — the naive
        // triple loop's operation order — but through fused
        // multiply-adds, so the match is tight-tolerance (one rounding
        // per step, bounded by the worst-case partial sum), not
        // bitwise. The kernel itself is exactly reproducible: a repeat
        // call must match bit-for-bit.
        let got = a.matmul(&b);
        let want = a.matmul_naive(&b);
        let tol = 1e-12 * (1.0 + a.cols() as f64 * 100.0 * 100.0);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((x - y).abs() <= tol, "tiled {} vs naive {}", x, y);
        }
        prop_assert_eq!(a.matmul(&b), got);
    }

    #[test]
    fn parallel_gemm_is_bitwise_deterministic((a, b) in matmul_pair()) {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut single = vec![0.0; m * n];
        let mut scratch = Scratch::new();
        kernels::gemm(m, k, n, a.as_slice(), b.as_slice(), &mut single, &mut scratch);
        for threads in [1usize, 2, 4] {
            let mut out = vec![1.0; m * n]; // poisoned: every element must be written
            let mut scratch = Scratch::with_parallelism(Parallelism::Threads(threads));
            kernels::gemm(m, k, n, a.as_slice(), b.as_slice(), &mut out, &mut scratch);
            prop_assert_eq!(&out, &single, "thread count {} changed bits", threads);
        }
    }

    #[test]
    fn pooled_gemm_matches_inline_bitwise(
        (a, b) in matmul_pair(),
        threads in 1usize..=8,
    ) {
        // The persistent pool (Threads) and the inline kernel must
        // agree bit-for-bit on every shape and thread count — the
        // pool's core contract.
        let (m, k) = a.shape();
        let n = b.cols();
        let mut inline = vec![0.0; m * n];
        let mut scratch = Scratch::new();
        kernels::gemm(m, k, n, a.as_slice(), b.as_slice(), &mut inline, &mut scratch);
        let mut pooled = vec![1.0; m * n]; // poisoned: every element must be written
        let mut scratch = Scratch::with_parallelism(Parallelism::Threads(threads));
        // Two rounds through the same pool: the second must reuse the
        // warm workers and still reproduce the first exactly.
        for round in 0..2 {
            pooled.fill(1.0);
            kernels::gemm(m, k, n, a.as_slice(), b.as_slice(), &mut pooled, &mut scratch);
            prop_assert_eq!(
                &pooled, &inline,
                "pool changed bits at {} threads (round {})", threads, round
            );
        }
    }

    #[test]
    fn pooled_fused_forward_matches_inline_bitwise(
        (x, w, bias) in fused_case(),
        threads in 1usize..=8,
    ) {
        // The persistent pool and the inline kernel must agree
        // bit-for-bit for every epilogue, including the narrow edge
        // tile (output widths 1–7).
        let (m, k) = x.shape();
        let n = w.cols();
        for act in epilogues() {
            let run = |par: Parallelism| {
                let mut z = vec![1.0; m * n];
                let mut a = vec![1.0; m * n];
                let mut scratch = Scratch::with_parallelism(par);
                kernels::gemm_bias_act(
                    m, k, n, x.as_slice(), w.as_slice(), &bias, &mut z, &mut a, act, &mut scratch,
                );
                (bits(&z), bits(&a))
            };
            let inline = run(Parallelism::Single);
            let pooled = run(Parallelism::Threads(threads));
            prop_assert_eq!(&pooled, &inline, "{:?}: pool changed bits at {} threads", act, threads);
        }
    }

    #[test]
    fn fused_forward_matches_unfused_bitwise((x, w, bias) in fused_case()) {
        // The fused pass must be bitwise identical to matmul followed
        // by a broadcast bias add and the activation mapped over every
        // element — for each epilogue, on pre-activations that include
        // ±0.0, NaN, subnormals and ±1e300.
        let (m, k) = x.shape();
        let n = w.cols();
        let z_ref = x.matmul(&w).add_row_broadcast(&bias);
        for act in epilogues() {
            let mut z = vec![0.0; m * n];
            let mut a = vec![0.0; m * n];
            let mut scratch = Scratch::new();
            kernels::gemm_bias_act(
                m, k, n, x.as_slice(), w.as_slice(), &bias, &mut z, &mut a, act, &mut scratch,
            );
            prop_assert_eq!(bits(&z), bits(z_ref.as_slice()), "{:?}: z", act);
            let scalar: fn(f64) -> f64 = match act {
                kernels::Epilogue::Identity => |v| v,
                kernels::Epilogue::Relu => vecops::relu,
                kernels::Epilogue::Map(f) => f,
            };
            let a_ref: Vec<f64> = z_ref.as_slice().iter().map(|&v| scalar(v)).collect();
            prop_assert_eq!(bits(&a), bits(&a_ref), "{:?}: activation", act);
        }
    }

    #[test]
    fn gemm_tn_matches_materialised_transpose((a, b) in matmul_pair()) {
        // x^T · δ without materialising x^T (Dense::backward's weight
        // gradient): rank-1 FMA accumulation in ascending row order —
        // the naive transpose product's summation order with one
        // rounding per step, so tight tolerance plus exact
        // reproducibility on a repeat call.
        let got = a.matmul_tn(&a);
        let want = a.transpose().matmul_naive(&a);
        let tol = 1e-12 * (1.0 + a.rows() as f64 * 100.0 * 100.0);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((x - y).abs() <= tol, "tn {} vs naive {}", x, y);
        }
        prop_assert_eq!(a.matmul_tn(&a), got);
        let _ = b;
    }

    #[test]
    fn gemm_nt_matches_materialised_transpose((a, b) in matmul_pair()) {
        // δ · W^T without the caller materialising W^T
        // (Dense::backward's input gradient): the kernel transposes B
        // into its reusable scratch and runs the rank-1 FMA
        // micro-kernel, so the comparison against the naive product is
        // tight-tolerance (FMA rounds once per step), not bitwise.
        // Determinism of the nt path itself is still exact: a repeat
        // call must match bitwise.
        let bt = b.transpose();
        let got = a.matmul_nt(&bt);
        let want = a.matmul(&b);
        let tol = 1e-12 * (1.0 + a.cols() as f64 * 100.0 * 100.0);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((x - y).abs() <= tol, "nt {} vs naive {}", x, y);
        }
        prop_assert_eq!(a.matmul_nt(&bt), got);
    }

    #[test]
    fn matvec_matches_single_column_matmul(m in matrix_strategy(12)) {
        let v: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        // matvec runs on the unrolled dot kernel (different summation
        // order from the naive-order matmul), so tolerance here —
        // but matvec_into must be bitwise equal to matvec.
        let got = m.matvec(&v);
        let want = m.matmul(&Matrix::col_vector(&v)).col(0);
        let tol = 1e-12 * (1.0 + m.cols() as f64);
        for (x, y) in got.iter().zip(&want) {
            prop_assert!((x - y).abs() <= tol, "matvec {} vs matmul {}", x, y);
        }
        let mut out = Vec::new();
        m.matvec_into(&v, &mut out);
        prop_assert_eq!(out, got);
    }

    #[test]
    fn batch_size_never_changes_a_row((a, b) in matmul_pair()) {
        // Scoring a row alone (the serve per-record path) is bitwise
        // identical to scoring it inside any batch — every output
        // element is a pure function of its own A-row and B-column,
        // the contract the serving runtime relies on.
        prop_assume!(a.rows() > 0);
        let full = a.matmul(&b);
        let row = Matrix::row_vector(a.row(a.rows() / 2));
        prop_assert_eq!(row.matmul(&b).as_slice(), full.row(a.rows() / 2));
    }
}

/// Strategy: an `f32` dense-layer case `(m, k, n, x, w, bias)` whose
/// shapes span every tile path — `m mod 8 ≠ 0` tail rows, widths below
/// the 8-column tile (the width-1 output head among them), widths past
/// the 64-column row strip, and `k = 0`.
#[allow(clippy::type_complexity)]
fn f32_case() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>)> {
    (0usize..=40, 0usize..=20, 1usize..=7, 0usize..=70, 0u8..2).prop_flat_map(
        |(m, k, narrow, wide, pick)| {
            let n = if pick == 0 { narrow } else { wide };
            let v = |len| prop::collection::vec((-100.0f64..100.0).prop_map(|v| v as f32), len);
            (v(m * k), v(k * n), v(n)).prop_map(move |(x, w, bias)| (m, k, n, x, w, bias))
        },
    )
}

proptest! {
    #[test]
    fn f32_forward_matches_fixed_order_fma_oracle_bitwise(
        (m, k, n, x, w, bias) in f32_case()
    ) {
        // The compiled serving forward's contract: every element is an
        // fma chain from zero in ascending k, plus the bias once.
        let mut out = vec![f32::NAN; m * n];
        let mut packed = vec![0.0f32; m * k];
        kernels::gemm_bias_f32(m, k, n, &x, &w, &bias, &mut out, &mut packed);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for s in 0..k {
                    acc = x[i * k + s].mul_add(w[s * n + j], acc);
                }
                let want = acc + bias[j];
                prop_assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "({}, {})", i, j);
            }
        }
    }
}
