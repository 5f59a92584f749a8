//! Property-based tests for the neural-network crate.

use occusense_nn::activation::Activation;
use occusense_nn::gru::{Gru, GruWorkspace};
use occusense_nn::layer::Dense;
use occusense_nn::loss::{BceWithLogits, Loss, Mse};
use occusense_nn::mlp::Mlp;
use occusense_nn::serialize;
use occusense_tensor::kernels::Scratch;
use occusense_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_architecture() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..12, 2..5)
}

fn batch(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Signed zeros, NaN, subnormals and large magnitudes (kept below
/// overflow, so every NaN in play is the input's own payload).
const SPECIALS: [f64; 8] = [0.0, -0.0, f64::NAN, 5e-324, -2.5e-310, 1e150, -1e150, 1e300];

/// Strategy: mostly uniform in ±5, one element in eight from
/// [`SPECIALS`] (±1e300 only where `huge` allows it).
fn element(huge: bool) -> impl Strategy<Value = f64> {
    (0usize..64, -5.0f64..5.0).prop_map(move |(tag, v)| match SPECIALS.get(tag) {
        Some(&s) if huge || s.abs() != 1e300 => s,
        Some(_) => 1.0,
        None => v,
    })
}

/// Strategy: a dense layer's `(x, weights, bias, grad_output)`. Half
/// the cases have output widths 1–7, served only by the kernel's
/// narrow edge tile (the paper MLP's 128→1 head is one).
fn dense_case() -> impl Strategy<Value = (Matrix, Matrix, Vec<f64>, Matrix)> {
    (1usize..=40, 1usize..=24, 1usize..=7, 1usize..=40, 0u8..2).prop_flat_map(
        |(m, k, narrow, wide, pick)| {
            let n = if pick == 0 { narrow } else { wide };
            let matrix = move |rows: usize, cols: usize, huge: bool| {
                prop::collection::vec(element(huge), rows * cols)
                    .prop_map(move |data| Matrix::from_vec(rows, cols, data))
            };
            (
                matrix(m, k, false),
                matrix(k, n, false),
                prop::collection::vec(element(true), n),
                matrix(m, n, true),
            )
        },
    )
}

/// The bit patterns of `values`, so NaNs compare by payload.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn dense_fused_passes_match_the_reference_bitwise_for_every_activation(
        (x, weights, bias, grad_output) in dense_case(),
    ) {
        // forward_into (the fused kernel with the activation's
        // epilogue) against forward (matmul + add_row_broadcast +
        // Activation::apply), and backward_into's δ against the
        // per-element derivative pointer — bit for bit.
        for activation in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            let layer = Dense { weights: weights.clone(), bias: bias.clone(), activation };
            let (z_ref, a_ref) = layer.forward(&x);
            let mut scratch = Scratch::new();
            let (mut z, mut a) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            layer.forward_into(&x, &mut z, &mut a, &mut scratch);
            prop_assert_eq!(bits(z.as_slice()), bits(z_ref.as_slice()), "{:?}: z", activation);
            prop_assert_eq!(bits(a.as_slice()), bits(a_ref.as_slice()), "{:?}: a", activation);

            let (mut delta, mut grad_w) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            let mut grad_b = Vec::new();
            layer.backward_into(
                &x, &z, &grad_output, &mut delta, &mut grad_w, &mut grad_b, None, &mut scratch,
            );
            let dact = activation.scalar_derivative();
            let want: Vec<f64> = grad_output
                .as_slice()
                .iter()
                .zip(z.as_slice())
                .map(|(&g, &zz)| g * dact(zz))
                .collect();
            prop_assert_eq!(bits(delta.as_slice()), bits(&want), "{:?}: delta", activation);
        }
    }

    #[test]
    fn forward_shapes_are_consistent(sizes in small_architecture(), seed in 0u64..100) {
        let mlp = Mlp::new(&sizes, seed);
        let x = Matrix::ones(3, sizes[0]);
        let pass = mlp.forward(&x);
        prop_assert_eq!(pass.activations.len(), sizes.len());
        prop_assert_eq!(pass.output().shape(), (3, *sizes.last().unwrap()));
        for (i, z) in pass.preacts.iter().enumerate() {
            prop_assert_eq!(z.shape(), (3, sizes[i + 1]));
        }
    }

    #[test]
    fn predictions_are_finite(sizes in small_architecture(), seed in 0u64..100) {
        let mlp = Mlp::new(&sizes, seed);
        let x = Matrix::from_fn(4, sizes[0], |r, c| ((r * 7 + c * 3) as f64 * 0.21).sin() * 3.0);
        let out = mlp.predict(&x);
        prop_assert!(out.as_slice().iter().all(|v| v.is_finite()));
        for p in mlp.predict_proba(&x) {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn serialization_round_trip(sizes in small_architecture(), seed in 0u64..100) {
        let mlp = Mlp::new(&sizes, seed);
        let mut buf = Vec::new();
        serialize::save(&mut buf, &mlp).unwrap();
        let back = serialize::load(&buf[..]).unwrap();
        prop_assert_eq!(back, mlp);
    }

    #[test]
    fn bce_loss_nonnegative(
        logits in prop::collection::vec(-20.0f64..20.0, 1..20),
        flips in prop::collection::vec(0u8..2, 1..20),
    ) {
        let n = logits.len().min(flips.len());
        let z = Matrix::col_vector(&logits[..n]);
        let y = Matrix::col_vector(&flips[..n].iter().map(|&f| f as f64).collect::<Vec<_>>());
        let l = BceWithLogits.loss(&z, &y);
        prop_assert!(l >= 0.0 && l.is_finite());
    }

    #[test]
    fn mse_loss_nonnegative_and_zero_on_match(v in prop::collection::vec(-100.0f64..100.0, 1..20)) {
        let m = Matrix::col_vector(&v);
        prop_assert_eq!(Mse.loss(&m, &m), 0.0);
        let shifted = m.map(|x| x + 1.0);
        let l = Mse.loss(&shifted, &m);
        prop_assert!((l - 1.0).abs() < 1e-9);
    }

    #[test]
    fn backward_gradients_finite(seed in 0u64..50, x in batch(3, 4)) {
        let mlp = Mlp::new(&[4, 6, 2], seed);
        let pass = mlp.forward(&x);
        let grad_out = Matrix::ones(3, 2);
        let (grads, grad_x) = mlp.backward(&pass, &grad_out);
        prop_assert!(grad_x.as_slice().iter().all(|v| v.is_finite()));
        for (gw, gb) in grads {
            prop_assert!(gw.as_slice().iter().all(|v| v.is_finite()));
            prop_assert!(gb.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn relu_output_nonnegative(x in batch(2, 5)) {
        let a = Activation::Relu.apply(&x);
        prop_assert!(a.as_slice().iter().all(|&v| v >= 0.0));
        // Derivative is 0/1.
        let d = Activation::Relu.derivative(&x);
        prop_assert!(d.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn gru_backward_matches_finite_differences(seed in 0u64..20, t_len in 1usize..4) {
        // Central differences on one sampled entry per parameter tensor
        // (the exhaustive sweep lives in the unit tests; here the shapes
        // and seeds vary instead).
        let mut rng = StdRng::seed_from_u64(seed);
        let gru = Gru::new(3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..t_len)
            .map(|t| Matrix::from_fn(2, 3, |r, c| (((t * 2 + r) * 3 + c) as f64 * 0.47).sin()))
            .collect();
        let h0 = Matrix::zeros(2, 4);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &h0, &mut ws);
        gru.backward_seq(&xs, &Matrix::ones(2, 4), &mut ws);
        let sum_h = |g: &Gru| {
            let mut w = GruWorkspace::new();
            g.forward_seq(&xs, &h0, &mut w);
            w.h_last().sum()
        };
        let eps = 1e-6;
        #[allow(clippy::type_complexity)]
        let probes: [(fn(&mut Gru) -> &mut Matrix, f64); 6] = [
            (|g| &mut g.w_z, ws.grad_w_z()[(1, 2)]),
            (|g| &mut g.w_r, ws.grad_w_r()[(1, 2)]),
            (|g| &mut g.w_n, ws.grad_w_n()[(1, 2)]),
            (|g| &mut g.u_z, ws.grad_u_z()[(2, 3)]),
            (|g| &mut g.u_r, ws.grad_u_r()[(2, 3)]),
            (|g| &mut g.u_n, ws.grad_u_n()[(2, 3)]),
        ];
        for (i, (field, analytic)) in probes.into_iter().enumerate() {
            let (r, c) = if i < 3 { (1, 2) } else { (2, 3) };
            let mut gp = gru.clone();
            field(&mut gp)[(r, c)] += eps;
            let mut gm = gru.clone();
            field(&mut gm)[(r, c)] -= eps;
            let numeric = (sum_h(&gp) - sum_h(&gm)) / (2.0 * eps);
            prop_assert!((numeric - analytic).abs() < 1e-5, "tensor {}: {} vs {}", i, numeric, analytic);
        }
        #[allow(clippy::type_complexity)]
        let bias_probes: [(fn(&mut Gru) -> &mut Vec<f64>, f64); 3] = [
            (|g| &mut g.b_z, ws.grad_b_z()[1]),
            (|g| &mut g.b_r, ws.grad_b_r()[1]),
            (|g| &mut g.b_n, ws.grad_b_n()[1]),
        ];
        for (i, (field, analytic)) in bias_probes.into_iter().enumerate() {
            let mut gp = gru.clone();
            field(&mut gp)[1] += eps;
            let mut gm = gru.clone();
            field(&mut gm)[1] -= eps;
            let numeric = (sum_h(&gp) - sum_h(&gm)) / (2.0 * eps);
            prop_assert!((numeric - analytic).abs() < 1e-5, "bias {}: {} vs {}", i, numeric, analytic);
        }
    }

    #[test]
    fn gru_chunked_scoring_is_bitwise_equal(seed in 0u64..30, t_len in 2usize..9, split_frac in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gru = Gru::new(5, 7, &mut rng);
        let xs: Vec<Matrix> = (0..t_len)
            .map(|t| Matrix::from_fn(3, 5, |r, c| (((t * 3 + r) * 5 + c) as f64 * 0.23).sin()))
            .collect();
        let h0 = Matrix::zeros(3, 7);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &h0, &mut ws);
        let one_shot = ws.h_last().clone();
        // Feed in two chunks with carried state.
        let split = 1 + ((split_frac * (t_len - 1) as f64) as usize).min(t_len - 1);
        let mut ws2 = GruWorkspace::new();
        gru.forward_seq(&xs[..split], &h0, &mut ws2);
        let carried = ws2.h_last().clone();
        if split < t_len {
            gru.forward_seq(&xs[split..], &carried, &mut ws2);
        }
        prop_assert_eq!(ws2.h_last(), &one_shot);
        // And one timestep at a time through the stateful step path.
        let mut h = h0.clone();
        let mut h_next = Matrix::default();
        for x in &xs {
            gru.step(x, &h, &mut h_next, &mut ws2);
            std::mem::swap(&mut h, &mut h_next);
        }
        prop_assert_eq!(&h, &one_shot);
    }

    #[test]
    fn gru_serialization_round_trip(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gru = Gru::new(6, 9, &mut rng);
        let mut buf = Vec::new();
        serialize::save_gru(&mut buf, &gru).unwrap();
        let back = serialize::load_gru(&buf[..]).unwrap();
        prop_assert_eq!(back, gru);
    }

    #[test]
    fn gradcam_attribution_length_matches_input(seed in 0u64..50) {
        let mlp = Mlp::new(&[5, 8, 1], seed);
        let x = Matrix::from_fn(6, 5, |r, c| (r as f64 - c as f64) * 0.3);
        let attr = occusense_nn::gradcam::input_attribution(&mlp, &x, 1.0);
        prop_assert_eq!(attr.len(), 5);
        prop_assert!(attr.iter().all(|v| v.is_finite()));
        // Class flip negates the attribution.
        let neg = occusense_nn::gradcam::input_attribution(&mlp, &x, -1.0);
        for (a, b) in attr.iter().zip(&neg) {
            prop_assert!((a + b).abs() < 1e-9);
        }
    }
}
