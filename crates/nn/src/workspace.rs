//! Reusable forward/backward workspaces: the zero-allocation
//! steady-state path through the network.
//!
//! [`MlpWorkspace`] owns every intermediate tensor of a forward and
//! backward pass (activations, pre-activations, masked deltas, upstream
//! gradients, parameter gradients) plus the GEMM pack
//! [`Scratch`]. After a warm-up pass at the largest batch size, repeated
//! [`Mlp::forward_ws`]/[`Mlp::backward_ws`] calls perform **no heap
//! allocations** — verified by asserting [`MlpWorkspace::reallocs`]
//! stays flat, which the training and serving tests do.
//!
//! Results are bitwise identical to the convenience
//! [`Mlp::forward`]/[`Mlp::backward`] path (same kernels, same
//! summation order), so the workspace is purely a throughput/allocation
//! optimisation, never a numerics change.

use crate::mlp::Mlp;
use occusense_tensor::kernels::Scratch;
use occusense_tensor::Matrix;

/// Caller-owned buffers for repeated MLP forward/backward passes.
#[derive(Debug, Clone, Default)]
pub struct MlpWorkspace {
    pub(crate) scratch: Scratch,
    /// `activations[0]` is the input copy; `activations[i+1]` the
    /// output of layer `i`.
    activations: Vec<Matrix>,
    /// `preacts[i]` is the pre-activation of layer `i`.
    preacts: Vec<Matrix>,
    /// `deltas[i]` is `∂L/∂z` of layer `i` (pure scratch).
    deltas: Vec<Matrix>,
    /// `upstreams[i]` is `∂L/∂x` of layer `i`, consumed by layer `i-1`.
    /// `upstreams[0]` (the network-input gradient) is only produced by
    /// [`Mlp::backward_ws_input_grad`]; plain [`Mlp::backward_ws`]
    /// skips it.
    upstreams: Vec<Matrix>,
    grad_w: Vec<Matrix>,
    grad_b: Vec<Vec<f64>>,
}

impl MlpWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer-growth events since creation (covering every
    /// matrix in the workspace plus the GEMM pack buffer). Flat across
    /// iterations ⇒ the steady state is allocation-free.
    pub fn reallocs(&self) -> u64 {
        self.scratch.reallocs()
    }

    /// The GEMM scratch (for callers composing their own kernel calls
    /// with this workspace's buffers).
    pub fn scratch_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// The network output of the last [`Mlp::forward_ws`] call.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run yet.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("forward_ws has run")
    }

    /// The cached activation feeding layer `i` (input copy for `i = 0`).
    pub fn activation(&self, i: usize) -> &Matrix {
        &self.activations[i]
    }

    /// The cached pre-activation of layer `i`.
    pub fn preact(&self, i: usize) -> &Matrix {
        &self.preacts[i]
    }

    /// Per-layer weight gradients from the last [`Mlp::backward_ws`].
    pub fn grad_w(&self) -> &[Matrix] {
        &self.grad_w
    }

    /// Per-layer bias gradients from the last [`Mlp::backward_ws`].
    pub fn grad_b(&self) -> &[Vec<f64>] {
        &self.grad_b
    }

    /// The gradient with respect to the network input, from the last
    /// [`Mlp::backward_ws_input_grad`] call (plain
    /// [`Mlp::backward_ws`] does not produce it).
    ///
    /// # Panics
    ///
    /// Panics if no backward pass has run yet.
    pub fn grad_input(&self) -> &Matrix {
        &self.upstreams[0]
    }

    /// Sizes the per-layer buffer vectors (spine growth only happens on
    /// first use or when the network shape changes).
    fn prepare(&mut self, n_layers: usize) {
        if self.activations.capacity() < n_layers + 1 {
            self.scratch.note_grow();
        }
        self.activations.resize_with(n_layers + 1, Matrix::default);
        self.preacts.resize_with(n_layers, Matrix::default);
        self.deltas.resize_with(n_layers, Matrix::default);
        self.upstreams.resize_with(n_layers, Matrix::default);
        self.grad_w.resize_with(n_layers, Matrix::default);
        self.grad_b.resize_with(n_layers, Vec::new);
    }
}

impl Mlp {
    // The steady-state training loop lives below: no allocation once
    // the workspace has capacity (spine growth happens in `prepare`,
    // above, where it is counted by the scratch realloc counter).
    // lint:no_alloc

    /// Forward pass through caller-owned buffers — the workspace
    /// analogue of [`Mlp::forward`], bitwise identical to it and
    /// allocation-free once the workspace has capacity. Intermediates
    /// are cached in `ws` for a following [`Mlp::backward_ws`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub fn forward_ws(&self, x: &Matrix, ws: &mut MlpWorkspace) {
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "forward_ws: feature dimension mismatch"
        );
        ws.prepare(self.layers().len());
        if ws.activations[0].ensure_shape(x.rows(), x.cols()) {
            ws.scratch.note_grow();
        }
        ws.activations[0]
            .as_mut_slice()
            .copy_from_slice(x.as_slice());
        for (i, layer) in self.layers().iter().enumerate() {
            let (before, after) = ws.activations.split_at_mut(i + 1);
            layer.forward_into(
                &before[i],
                &mut ws.preacts[i],
                &mut after[0],
                &mut ws.scratch,
            );
        }
    }

    /// Backward pass through caller-owned buffers — the workspace
    /// analogue of [`Mlp::backward`]. Requires a preceding
    /// [`Mlp::forward_ws`] on the same workspace; parameter gradients
    /// land in [`MlpWorkspace::grad_w`]/[`MlpWorkspace::grad_b`].
    ///
    /// Unlike [`Mlp::backward`] this does **not** produce the gradient
    /// with respect to the network input (MLP training never consumes
    /// it), which also skips one `δ · W^T` product per step. Callers
    /// that do need it — the GRU head, Grad-CAM through a workspace —
    /// use [`Mlp::backward_ws_input_grad`].
    ///
    /// # Panics
    ///
    /// Panics if the workspace was not filled by a matching forward
    /// pass or `grad_output` has the wrong shape.
    pub fn backward_ws(&self, grad_output: &Matrix, ws: &mut MlpWorkspace) {
        self.backward_ws_impl(grad_output, ws, false);
    }

    /// [`Mlp::backward_ws`] plus the gradient with respect to the
    /// network input, retrievable via [`MlpWorkspace::grad_input`] —
    /// bitwise identical to the input gradient [`Mlp::backward`]
    /// returns. The temporal detector backpropagates this through the
    /// GRU (`∂L/∂h_last`).
    ///
    /// # Panics
    ///
    /// Panics if the workspace was not filled by a matching forward
    /// pass or `grad_output` has the wrong shape.
    pub fn backward_ws_input_grad(&self, grad_output: &Matrix, ws: &mut MlpWorkspace) {
        self.backward_ws_impl(grad_output, ws, true);
    }

    fn backward_ws_impl(&self, grad_output: &Matrix, ws: &mut MlpWorkspace, input_grad: bool) {
        let n_layers = self.layers().len();
        assert_eq!(
            ws.preacts.len(),
            n_layers,
            "backward_ws: workspace not filled by forward_ws"
        );
        for (i, layer) in self.layers().iter().enumerate().rev() {
            let (head, tail) = ws.upstreams.split_at_mut(i + 1);
            let upstream: &Matrix = if i + 1 == n_layers {
                grad_output
            } else {
                &tail[0]
            };
            layer.backward_into(
                &ws.activations[i],
                &ws.preacts[i],
                upstream,
                &mut ws.deltas[i],
                &mut ws.grad_w[i],
                &mut ws.grad_b[i],
                if i == 0 && !input_grad {
                    None
                } else {
                    Some(&mut head[i])
                },
                &mut ws.scratch,
            );
        }
    }
    // lint:end_no_alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{BceWithLogits, Loss};
    use occusense_tensor::Matrix;

    fn toy_input(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f64 * 0.37).sin())
    }

    #[test]
    fn forward_ws_is_bitwise_equal_to_forward() {
        let mlp = Mlp::new(&[5, 16, 8, 2], 3);
        let mut ws = MlpWorkspace::new();
        for rows in [1, 3, 17, 40] {
            let x = toy_input(rows, 5);
            let pass = mlp.forward(&x);
            mlp.forward_ws(&x, &mut ws);
            assert_eq!(ws.output(), pass.output(), "{rows} rows");
            for i in 0..mlp.layers().len() {
                assert_eq!(ws.preact(i), &pass.preacts[i]);
                assert_eq!(ws.activation(i), &pass.activations[i]);
            }
        }
    }

    #[test]
    fn backward_ws_matches_convenience_backward() {
        let mlp = Mlp::new(&[4, 12, 6, 1], 5);
        let x = toy_input(9, 4);
        let y = Matrix::from_fn(9, 1, |r, _| (r % 2) as f64);
        let pass = mlp.forward(&x);
        let grad_out = BceWithLogits.grad(pass.output(), &y);
        let (grads, _) = mlp.backward(&pass, &grad_out);

        let mut ws = MlpWorkspace::new();
        mlp.forward_ws(&x, &mut ws);
        mlp.backward_ws(&grad_out, &mut ws);
        for (i, (gw, gb)) in grads.iter().enumerate() {
            assert_eq!(&ws.grad_w()[i], gw, "layer {i} weights");
            assert_eq!(&ws.grad_b()[i], gb, "layer {i} bias");
        }
    }

    #[test]
    fn backward_ws_input_grad_matches_convenience_backward() {
        let mlp = Mlp::new(&[4, 12, 6, 1], 5);
        let x = toy_input(9, 4);
        let y = Matrix::from_fn(9, 1, |r, _| (r % 2) as f64);
        let pass = mlp.forward(&x);
        let grad_out = BceWithLogits.grad(pass.output(), &y);
        let (grads, grad_x) = mlp.backward(&pass, &grad_out);

        let mut ws = MlpWorkspace::new();
        mlp.forward_ws(&x, &mut ws);
        mlp.backward_ws_input_grad(&grad_out, &mut ws);
        assert_eq!(ws.grad_input(), &grad_x, "input gradient");
        for (i, (gw, gb)) in grads.iter().enumerate() {
            assert_eq!(&ws.grad_w()[i], gw, "layer {i} weights");
            assert_eq!(&ws.grad_b()[i], gb, "layer {i} bias");
        }
    }

    #[test]
    fn steady_state_passes_do_not_reallocate() {
        let mlp = Mlp::new(&[6, 10, 4, 1], 7);
        let x = toy_input(32, 6);
        let y = Matrix::from_fn(32, 1, |r, _| (r % 2) as f64);
        let mut ws = MlpWorkspace::new();
        let mut grad_out = Matrix::default();

        // Warm up at the steady-state batch size.
        mlp.forward_ws(&x, &mut ws);
        BceWithLogits.grad_into(ws.output(), &y, &mut grad_out);
        mlp.backward_ws(&grad_out, &mut ws);
        let warm = ws.reallocs();

        for _ in 0..20 {
            mlp.forward_ws(&x, &mut ws);
            BceWithLogits.grad_into(ws.output(), &y, &mut grad_out);
            mlp.backward_ws(&grad_out, &mut ws);
        }
        assert_eq!(ws.reallocs(), warm, "steady-state pass reallocated");
    }
}
