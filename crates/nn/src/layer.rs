//! Fully connected layers with explicit forward/backward passes.

use crate::activation::Activation;
use occusense_tensor::kernels::{self, Scratch};
use occusense_tensor::{init, Matrix};
use rand::Rng;

/// A dense (fully connected) layer `a = σ(x W + b)`.
///
/// Weights are stored `in_dim × out_dim`; a batch is a `n × in_dim`
/// matrix, so the forward pass is a plain matrix product.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias vector, length `out_dim`.
    pub bias: Vec<f64>,
    /// Activation applied to the pre-activation.
    pub activation: Activation,
}

/// Gradients of one layer produced by [`Dense::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGradients {
    /// `∂L/∂W`, same shape as the weights.
    pub weights: Matrix,
    /// `∂L/∂b`, length `out_dim`.
    pub bias: Vec<f64>,
    /// `∂L/∂x`, `n × in_dim` — the signal propagated to the previous
    /// layer.
    pub input: Matrix,
}

impl Dense {
    /// Creates a layer with Kaiming-initialised weights (ReLU-appropriate)
    /// and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Self {
            weights: init::kaiming_gaussian(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters (`in·out + out`).
    pub fn n_parameters(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass: returns `(pre_activation, activation)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let z = x.matmul(&self.weights).add_row_broadcast(&self.bias);
        let a = self.activation.apply(&z);
        (z, a)
    }

    /// Fused forward pass into caller-owned buffers: `z = x W + b` and
    /// `a = σ(z)` written row block by row block through
    /// [`kernels::gemm_bias_act`] with the activation's
    /// [`epilogue`](Activation::epilogue). Bitwise identical to
    /// [`forward`](Self::forward) and allocation-free once `z`/`a` and
    /// the scratch have capacity (growth is counted on `scratch`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    // lint:no_alloc
    pub fn forward_into(&self, x: &Matrix, z: &mut Matrix, a: &mut Matrix, scratch: &mut Scratch) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "dense forward: input width {} vs in_dim {}",
            x.cols(),
            self.in_dim()
        );
        let (m, k, n) = (x.rows(), self.in_dim(), self.out_dim());
        if z.ensure_shape(m, n) {
            scratch.note_grow();
        }
        if a.ensure_shape(m, n) {
            scratch.note_grow();
        }
        kernels::gemm_bias_act(
            m,
            k,
            n,
            x.as_slice(),
            self.weights.as_slice(),
            &self.bias,
            z.as_mut_slice(),
            a.as_mut_slice(),
            self.activation.epilogue(),
            scratch,
        );
    }
    // lint:end_no_alloc

    /// Backward pass.
    ///
    /// `x` is the layer input, `z` the pre-activation from
    /// [`forward`](Self::forward), and `grad_output` is `∂L/∂a`.
    ///
    /// Both matrix products run on the implicit-transpose kernels
    /// (`x^T · δ` via [`Matrix::matmul_tn`], `δ · W^T` via
    /// [`Matrix::matmul_nt`]) — no transposed copy of `x` or of the
    /// weights is ever materialised.
    pub fn backward(&self, x: &Matrix, z: &Matrix, grad_output: &Matrix) -> DenseGradients {
        // δ = ∂L/∂z = ∂L/∂a ⊙ σ'(z)
        let delta = grad_output.hadamard(&self.activation.derivative(z));
        DenseGradients {
            weights: x.matmul_tn(&delta),
            bias: delta.col_sums(),
            input: delta.matmul_nt(&self.weights),
        }
    }

    /// Backward pass into caller-owned buffers; the workspace analogue
    /// of [`backward`](Self::backward), allocation-free once every
    /// buffer has capacity (growth is counted on `scratch`).
    ///
    /// `delta` is pure scratch (the masked gradient `∂L/∂z`); `grad_w`
    /// and `grad_b` receive the parameter gradients. `grad_input`, when
    /// provided, receives `∂L/∂x` — pass `None` for the first layer of
    /// a network during training, where nothing consumes it and the
    /// `δ · W^T` product can be skipped outright.
    // lint:no_alloc
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        x: &Matrix,
        z: &Matrix,
        grad_output: &Matrix,
        delta: &mut Matrix,
        grad_w: &mut Matrix,
        grad_b: &mut Vec<f64>,
        grad_input: Option<&mut Matrix>,
        scratch: &mut Scratch,
    ) {
        assert_eq!(z.shape(), grad_output.shape(), "dense backward: shapes");
        if delta.ensure_shape(z.rows(), z.cols()) {
            scratch.note_grow();
        }
        self.activation
            .mask_gradient(grad_output.as_slice(), z.as_slice(), delta.as_mut_slice());
        x.matmul_tn_into(delta, grad_w, scratch);
        if grad_b.capacity() < delta.cols() {
            scratch.note_grow();
        }
        delta.col_sums_into(grad_b);
        if let Some(gi) = grad_input {
            delta.matmul_nt_into(&self.weights, gi, scratch);
        }
    }
    // lint:end_no_alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(1);
        Dense::new(3, 2, Activation::Relu, &mut rng)
    }

    #[test]
    fn shapes_and_parameter_count() {
        let l = layer();
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 2);
        assert_eq!(l.n_parameters(), 8);
        let x = Matrix::ones(5, 3);
        let (z, a) = l.forward(&x);
        assert_eq!(z.shape(), (5, 2));
        assert_eq!(a.shape(), (5, 2));
    }

    #[test]
    fn forward_is_affine_before_activation() {
        let mut l = layer();
        l.activation = Activation::Identity;
        l.weights = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        l.bias = vec![10.0, 20.0];
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let (_, a) = l.forward(&x);
        assert_eq!(a.row(0), &[14.0, 25.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        // Scalar loss L = sum(a); check dL/dW, dL/db, dL/dx numerically.
        let mut rng = StdRng::seed_from_u64(2);
        let l = Dense::new(4, 3, Activation::Sigmoid, &mut rng);
        let x = init::gaussian(2, 4, 0.0, 1.0, &mut rng);
        let (z, a) = l.forward(&x);
        let grad_out = Matrix::ones(a.rows(), a.cols()); // dL/da for L = sum(a)
        let grads = l.backward(&x, &z, &grad_out);
        let eps = 1e-6;

        // Weights.
        for r in 0..4 {
            for c in 0..3 {
                let mut lp = l.clone();
                lp.weights[(r, c)] += eps;
                let mut lm = l.clone();
                lm.weights[(r, c)] -= eps;
                let numeric = (lp.forward(&x).1.sum() - lm.forward(&x).1.sum()) / (2.0 * eps);
                assert!(
                    (numeric - grads.weights[(r, c)]).abs() < 1e-5,
                    "dW[{r},{c}]: {numeric} vs {}",
                    grads.weights[(r, c)]
                );
            }
        }
        // Bias.
        for i in 0..3 {
            let mut lp = l.clone();
            lp.bias[i] += eps;
            let mut lm = l.clone();
            lm.bias[i] -= eps;
            let numeric = (lp.forward(&x).1.sum() - lm.forward(&x).1.sum()) / (2.0 * eps);
            assert!((numeric - grads.bias[i]).abs() < 1e-5);
        }
        // Input.
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let numeric = (l.forward(&xp).1.sum() - l.forward(&xm).1.sum()) / (2.0 * eps);
                assert!((numeric - grads.input[(r, c)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn relu_backward_blocks_negative_preactivations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Dense::new(1, 1, Activation::Relu, &mut rng);
        l.weights = Matrix::from_rows(&[&[1.0]]);
        l.bias = vec![-5.0]; // always-negative pre-activation for small x
        let x = Matrix::from_rows(&[&[1.0]]);
        let (z, _) = l.forward(&x);
        let grads = l.backward(&x, &z, &Matrix::ones(1, 1));
        assert_eq!(grads.weights[(0, 0)], 0.0);
        assert_eq!(grads.bias[0], 0.0);
        assert_eq!(grads.input[(0, 0)], 0.0);
    }
}
