//! The compiled serving artifact: an `f32` snapshot of a trained
//! [`Mlp`], scored through the element-generic tile kernels.
//!
//! Training, persistence, Grad-CAM and the GRU stay in `f64`; only
//! scoring runs here. [`Mlp::compile`] rounds every weight and bias to
//! the nearest `f32` once, which halves the bytes a forward pass streams
//! and doubles the lanes per SIMD register. The numerics of a compiled
//! forward are fixed:
//!
//! * the input row is cast to `f32` once, before the first layer;
//! * each output element is `fma`-accumulated from zero in ascending
//!   input order, the bias is added after the accumulation, then the
//!   activation is applied;
//! * the confidence is the `f64` sigmoid of the widened `f32` logit.
//!
//! A single row (one record, or the last `m mod 8` rows of a batch)
//! skips the input steps that are exactly zero — after a ReLU, most of
//! them — which leaves every score bitwise unchanged as long as the
//! layer's weights are finite. Each compiled layer therefore carries an
//! "all weights finite" flag, computed on the `f32` weights by
//! [`Mlp::compile`] and [`CompiledMlp::recompile`]; a layer with a NaN
//! or an infinite weight scores densely, so that weight still reaches
//! the score (see `occusense_tensor::kernels`).
//!
//! Every element depends only on its own input row, so a record's score
//! is bitwise the same alone or inside any batch — the contract that
//! lets served predictions be verified against single-record scoring.

use crate::activation::Activation;
use crate::mlp::Mlp;
use occusense_tensor::kernels::{gemm_bias_f32, F32Weights};
use occusense_tensor::vecops::sigmoid;
use occusense_tensor::Matrix;

/// One dense layer of a [`CompiledMlp`].
#[derive(Debug, Clone, PartialEq)]
struct CompiledDense {
    in_dim: usize,
    out_dim: usize,
    /// `in_dim × out_dim`, row-major (the training layout).
    weights: Vec<f32>,
    bias: Vec<f32>,
    activation: Activation,
    /// Every entry of `weights` is finite: the single-row forward may
    /// skip zero input steps.
    all_finite: bool,
}

/// An `f32` snapshot of an [`Mlp`], built by [`Mlp::compile`]: the
/// scoring form of a trained network.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMlp {
    layers: Vec<CompiledDense>,
}

/// Caller-owned `f32` buffers for repeated [`CompiledMlp`] forwards.
/// After a warm-up at the largest batch size, scoring performs no heap
/// allocations — [`CompiledWorkspace::reallocs`] stays flat.
#[derive(Debug, Clone, Default)]
pub struct CompiledWorkspace {
    /// The batch cast to `f32`.
    input: Vec<f32>,
    /// The tile kernels' pack buffer.
    packed: Vec<f32>,
    /// Layer outputs, alternating between the two.
    outputs: [Vec<f32>; 2],
    reallocs: u64,
}

impl CompiledWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer-growth events since creation; flat across
    /// batches ⇒ steady-state scoring is allocation-free.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Records a growth of a buffer the caller owns alongside this
    /// workspace (a design matrix, a score vector), so one counter
    /// covers the whole scoring path.
    pub fn note_grow(&mut self) {
        self.reallocs += 1;
    }
}

/// Borrows `len` elements of `buf`, growing it (and counting the
/// growth) only when its capacity is insufficient.
fn sized<'a>(buf: &'a mut Vec<f32>, len: usize, reallocs: &mut u64) -> &'a mut [f32] {
    if len > buf.capacity() {
        *reallocs += 1;
    }
    buf.resize(len, 0.0);
    buf.as_mut_slice()
}

impl Mlp {
    /// Compiles the network into its `f32` serving artifact (see the
    /// [module docs](crate::compiled) for the numerics).
    pub fn compile(&self) -> CompiledMlp {
        let layers = self
            .layers()
            .iter()
            .map(|l| {
                let weights: Vec<f32> = l.weights.as_slice().iter().map(|&w| w as f32).collect();
                CompiledDense {
                    in_dim: l.in_dim(),
                    out_dim: l.out_dim(),
                    all_finite: weights.iter().all(|w| w.is_finite()),
                    weights,
                    bias: l.bias.iter().map(|&b| b as f32).collect(),
                    activation: l.activation,
                }
            })
            .collect();
        CompiledMlp { layers }
    }
}

impl CompiledMlp {
    // Scoring and recompilation stay allocation-free: buffer growth
    // happens only in `sized` above, where it is counted.
    // lint:no_alloc

    /// Overwrites the artifact with `mlp`'s current weights, in place
    /// and without allocating — the continual learner's refresh after
    /// each gradient step. Equal to `*self = mlp.compile()`.
    ///
    /// # Panics
    ///
    /// Panics if `mlp`'s layer shapes differ from the compiled ones.
    pub fn recompile(&mut self, mlp: &Mlp) {
        assert_eq!(
            self.layers.len(),
            mlp.layers().len(),
            "recompile: layer count mismatch"
        );
        for (c, l) in self.layers.iter_mut().zip(mlp.layers()) {
            assert_eq!(
                (c.in_dim, c.out_dim),
                (l.in_dim(), l.out_dim()),
                "recompile: layer shape mismatch"
            );
            let mut all_finite = true;
            for (d, &w) in c.weights.iter_mut().zip(l.weights.as_slice()) {
                *d = w as f32;
                all_finite &= d.is_finite();
            }
            c.all_finite = all_finite;
            for (d, &b) in c.bias.iter_mut().zip(&l.bias) {
                *d = b as f32;
            }
            c.activation = l.activation;
        }
    }

    /// Occupancy confidences (the `f64` sigmoid of the first output
    /// column's `f32` logit) for the `f64` batch `x`, written into
    /// `out`. Allocation-free once `ws` and `out` have capacity.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not as wide as the first layer.
    pub fn predict_proba_into(&self, x: &Matrix, ws: &mut CompiledWorkspace, out: &mut Vec<f64>) {
        assert_eq!(
            x.cols(),
            self.layers[0].in_dim,
            "compiled forward: feature dimension mismatch"
        );
        let m = x.rows();
        let CompiledWorkspace {
            input,
            packed,
            outputs: [even, odd],
            reallocs,
        } = ws;
        for (d, &v) in sized(input, x.len(), reallocs).iter_mut().zip(x.as_slice()) {
            *d = v as f32;
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let (src, dst) = match i {
                0 => (&*input, &mut *even),
                _ if i % 2 == 1 => (&*even, &mut *odd),
                _ => (&*odd, &mut *even),
            };
            let (k, n) = (layer.in_dim, layer.out_dim);
            let dst = sized(dst, m * n, reallocs);
            gemm_bias_f32(
                m,
                k,
                n,
                src,
                F32Weights::with_finiteness(&layer.weights, layer.all_finite),
                &layer.bias,
                dst,
                sized(packed, m * k, reallocs),
            );
            match layer.activation {
                Activation::Identity => {}
                Activation::Relu => {
                    for v in dst.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                act => {
                    let f = act.scalar_fn();
                    for v in dst.iter_mut() {
                        *v = f(f64::from(*v)) as f32;
                    }
                }
            }
        }
        let n_out = self.layers[self.layers.len() - 1].out_dim;
        let logits = if self.layers.len() % 2 == 1 {
            even
        } else {
            odd
        };
        if out.capacity() < m {
            *reallocs += 1;
        }
        out.clear();
        // lint:allow(alloc, reason = "extend into a cleared caller-owned buffer: growth is one-time and counted above")
        out.extend(
            logits[..m * n_out]
                .chunks_exact(n_out)
                .map(|row| sigmoid(f64::from(row[0]))),
        );
    }
    // lint:end_no_alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_input(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f64 * 0.37).sin())
    }

    fn score(net: &CompiledMlp, x: &Matrix, ws: &mut CompiledWorkspace) -> Vec<f64> {
        let mut out = Vec::new();
        net.predict_proba_into(x, ws, &mut out);
        out
    }

    /// The module's numerics spelled out scalar by scalar.
    fn oracle(mlp: &Mlp, row: &[f64]) -> f64 {
        let outputs = oracle_layers(mlp, row);
        sigmoid(f64::from(outputs[outputs.len() - 1][0]))
    }

    /// Every layer's output (after its activation) on the oracle's
    /// dense path, first layer first.
    fn oracle_layers(mlp: &Mlp, row: &[f64]) -> Vec<Vec<f32>> {
        let mut a: Vec<f32> = row.iter().map(|&v| v as f32).collect();
        let mut outputs = Vec::new();
        for l in mlp.layers() {
            let (k, n) = (l.in_dim(), l.out_dim());
            let w = l.weights.as_slice();
            a = (0..n)
                .map(|j| {
                    let mut acc = 0.0f32;
                    for (s, &x) in a.iter().enumerate().take(k) {
                        acc = x.mul_add(w[s * n + j] as f32, acc);
                    }
                    let z = acc + l.bias[j] as f32;
                    match l.activation {
                        Activation::Relu => z.max(0.0),
                        Activation::Identity => z,
                        act => act.scalar_fn()(f64::from(z)) as f32,
                    }
                })
                .collect();
            outputs.push(a.clone());
        }
        outputs
    }

    #[test]
    fn matches_the_scalar_oracle_bitwise() {
        let mlp = Mlp::paper_classifier(12, 3);
        let x = toy_input(19, 12);
        let got = score(&mlp.compile(), &x, &mut CompiledWorkspace::new());
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.to_bits(), oracle(&mlp, x.row(i)).to_bits(), "row {i}");
        }
    }

    #[test]
    fn scores_are_batch_invariant() {
        let mlp = Mlp::paper_classifier(64, 5);
        let net = mlp.compile();
        let x = toy_input(33, 64);
        let mut ws = CompiledWorkspace::new();
        let single: Vec<f64> = (0..33)
            .map(|i| score(&net, &x.select_rows(&[i]), &mut ws)[0])
            .collect();
        // Every remainder of the 8-row panel (those rows run one by one
        // through the single-row kernel), and bulk-sized batches.
        for m in (1..=17).chain([27, 31, 32, 33]) {
            let rows: Vec<usize> = (0..m).collect();
            let got = score(&net, &x.select_rows(&rows), &mut ws);
            for (i, (g, s)) in got.iter().zip(&single).enumerate() {
                assert_eq!(g.to_bits(), s.to_bits(), "m = {m}, row {i}");
            }
        }
    }

    #[test]
    fn relu_sparse_scores_are_batch_invariant_and_match_the_oracle() {
        // Negative biases push most hidden units below zero, so the
        // single-row kernel skips most steps of layers 1–3; two input
        // columns are exactly zero, so layer 0 skips some too.
        let mut mlp = Mlp::paper_classifier(64, 11);
        for l in &mut mlp.layers_mut()[..3] {
            for b in &mut l.bias {
                *b -= 0.1;
            }
        }
        let mut x = toy_input(33, 64);
        for r in 0..33 {
            x[(r, 3)] = 0.0;
            x[(r, 40)] = -0.0;
        }
        let hidden: Vec<f32> = (0..33)
            .flat_map(|r| {
                let outputs = oracle_layers(&mlp, x.row(r));
                outputs[..3].concat()
            })
            .collect();
        let zeros = hidden.iter().filter(|&&v| v == 0.0).count();
        assert!(
            zeros * 2 > hidden.len(),
            "only {zeros} of {} hidden activations are zero",
            hidden.len()
        );
        let net = mlp.compile();
        let mut ws = CompiledWorkspace::new();
        for i in 0..33 {
            let single = score(&net, &x.select_rows(&[i]), &mut ws)[0];
            assert_eq!(
                single.to_bits(),
                oracle(&mlp, x.row(i)).to_bits(),
                "row {i}"
            );
        }
        for m in (1..=17).chain([27, 31, 32, 33]) {
            let rows: Vec<usize> = (0..m).collect();
            let got = score(&net, &x.select_rows(&rows), &mut ws);
            for (i, g) in got.iter().enumerate() {
                let want = oracle(&mlp, x.row(i));
                assert_eq!(g.to_bits(), want.to_bits(), "m = {m}, row {i}");
            }
        }
    }

    #[test]
    fn a_nan_weight_facing_a_zero_activation_still_reaches_the_score() {
        // Layer 1's weight (s, 0) is NaN. Where layer 0's output s is
        // zero, skipping step s would score as if that weight were 0;
        // the dense chain turns column 0 NaN, which the ReLU zeroes.
        let mut mlp = Mlp::new(&[6, 16, 8, 1], 3);
        let x = toy_input(24, 6);
        let first: Vec<Vec<f32>> = (0..24)
            .map(|r| oracle_layers(&mlp, x.row(r))[0].clone())
            .collect();
        let s = (0..16)
            .find(|&s| first.iter().any(|a| a[s] == 0.0) && first.iter().any(|a| a[s] > 0.0))
            .expect("a layer-0 unit that is zero on some rows");
        let mut as_zero = mlp.clone();
        as_zero.layers_mut()[1].weights[(s, 0)] = 0.0;
        mlp.layers_mut()[1].weights[(s, 0)] = f64::NAN;
        assert!(
            (0..24).any(|r| first[r][s] == 0.0
                && oracle(&mlp, x.row(r)).to_bits() != oracle(&as_zero, x.row(r)).to_bits()),
            "the NaN weight never changes a zero-facing row's score"
        );
        let net = mlp.compile();
        assert!(!net.layers[1].all_finite);
        let mut ws = CompiledWorkspace::new();
        for m in [1, 3, 8, 11, 24] {
            let rows: Vec<usize> = (0..m).collect();
            let got = score(&net, &x.select_rows(&rows), &mut ws);
            for (i, g) in got.iter().enumerate() {
                assert_eq!(
                    g.to_bits(),
                    oracle(&mlp, x.row(i)).to_bits(),
                    "m = {m}, row {i}"
                );
            }
        }
    }

    #[test]
    fn stays_close_to_the_f64_network() {
        let mlp = Mlp::paper_classifier(64, 7);
        let x = toy_input(40, 64);
        let got = score(&mlp.compile(), &x, &mut CompiledWorkspace::new());
        for (g, w) in got.iter().zip(mlp.predict_proba(&x)) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn recompile_equals_compile_and_keeps_buffers() {
        let a = Mlp::new(&[5, 16, 8, 1], 1);
        let b = Mlp::new(&[5, 16, 8, 1], 2);
        let mut net = a.compile();
        let capacity = net.layers[0].weights.capacity();
        net.recompile(&b);
        assert_eq!(net, b.compile());
        assert_eq!(net.layers[0].weights.capacity(), capacity);
    }

    #[test]
    fn recompile_tracks_weight_finiteness() {
        // 1e300 is finite in f64 but rounds to +inf in f32: the flag
        // follows the compiled weights, not the trained ones.
        let a = Mlp::new(&[5, 16, 8, 1], 1);
        let mut b = a.clone();
        b.layers_mut()[1].weights[(2, 3)] = 1e300;
        let mut net = a.compile();
        assert!(net.layers.iter().all(|l| l.all_finite));
        net.recompile(&b);
        assert_eq!(net, b.compile());
        let flags: Vec<bool> = net.layers.iter().map(|l| l.all_finite).collect();
        assert_eq!(flags, [true, false, true]);
        net.recompile(&a);
        assert_eq!(net, a.compile());
        assert!(net.layers.iter().all(|l| l.all_finite));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn recompile_rejects_another_architecture() {
        Mlp::new(&[5, 16, 1], 1)
            .compile()
            .recompile(&Mlp::new(&[5, 8, 1], 1));
    }

    #[test]
    fn every_activation_runs_through_the_scalar_path() {
        let mut mlp = Mlp::new(&[4, 6, 6, 1], 9);
        mlp.layers_mut()[0].activation = Activation::Tanh;
        mlp.layers_mut()[1].activation = Activation::Sigmoid;
        let x = toy_input(9, 4);
        let got = score(&mlp.compile(), &x, &mut CompiledWorkspace::new());
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.to_bits(), oracle(&mlp, x.row(i)).to_bits(), "row {i}");
        }
    }

    #[test]
    fn steady_state_scoring_does_not_reallocate() {
        let net = Mlp::paper_classifier(16, 4).compile();
        let mut ws = CompiledWorkspace::new();
        let mut out = Vec::new();
        net.predict_proba_into(&toy_input(32, 16), &mut ws, &mut out);
        let warm = ws.reallocs();
        assert!(warm > 0, "first pass grew nothing");
        for m in [1, 7, 32, 9] {
            net.predict_proba_into(&toy_input(m, 16), &mut ws, &mut out);
        }
        assert_eq!(ws.reallocs(), warm, "steady-state scoring reallocated");
        net.predict_proba_into(&toy_input(64, 16), &mut ws, &mut out);
        assert!(ws.reallocs() > warm, "a larger batch grew without counting");
    }
}
