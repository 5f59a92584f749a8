//! # occusense-nn
//!
//! A from-scratch dense neural-network library — the deep-learning
//! substrate of the `occusense` workspace. The Rust DL ecosystem being
//! thin (see the reproduction notes in DESIGN.md), everything the paper's
//! model needs is implemented here directly:
//!
//! * [`activation`] — ReLU, sigmoid, tanh and identity activations.
//! * [`layer`] — fully connected layers with explicit forward/backward.
//! * [`gru`] — a gated recurrent unit with hand-derived BPTT gradients
//!   for temporal CSI-window modeling, sharing the same bitwise
//!   determinism and zero-allocation contracts as the dense path.
//! * [`mlp`] — the multilayer perceptron, including the paper's
//!   `input → 128 → 256 → 128 → 1` architecture (§IV-B).
//! * [`loss`] — binary cross-entropy with logits (Eq. 4) and mean squared
//!   error (for the §V-D humidity/temperature regression).
//! * [`optim`] — SGD (with momentum), Adam, and AdamW with *decoupled*
//!   weight decay \[23\], the paper's training strategy.
//! * [`train`] — shuffled mini-batch training loop with loss history.
//! * [`compiled`] — the `f32` serving artifact [`Mlp::compile`] builds:
//!   every detector score runs through it, allocation-free and bitwise
//!   batch-invariant.
//! * [`workspace`] — reusable forward/backward buffers so the training
//!   and serving hot paths run allocation-free on the blocked GEMM
//!   kernels (see `occusense_tensor::kernels`).
//! * [`gradcam`] — Grad-CAM \[17\] importance weights (Eq. 5–6) plus the
//!   input-feature attribution used for Figure 3.
//! * [`serialize`] — a small text format for saving and loading trained
//!   models.
//!
//! Explicit backpropagation (rather than a tape autograd) is a deliberate
//! choice: Grad-CAM needs per-layer activations and gradients, and the
//! explicit formulation exposes them naturally.
//!
//! # Example
//!
//! ```
//! use occusense_nn::mlp::Mlp;
//! use occusense_nn::loss::BceWithLogits;
//! use occusense_nn::optim::AdamW;
//! use occusense_nn::train::{Trainer, TrainConfig};
//! use occusense_tensor::Matrix;
//!
//! // Learn XOR — a minimal non-linear task.
//! let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]]);
//! let y = Matrix::col_vector(&[0., 1., 1., 0.]);
//! let mut mlp = Mlp::new(&[2, 16, 1], 7);
//! let mut optim = AdamW::new(0.02, 0.0);
//! let trainer = Trainer::new(TrainConfig {
//!     epochs: 400,
//!     batch_size: 4,
//!     shuffle_seed: 1,
//! });
//! trainer.fit(&mut mlp, &x, &y, &BceWithLogits, &mut optim);
//! let preds = mlp.predict_labels(&x);
//! assert_eq!(preds, vec![0, 1, 1, 0]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod activation;
pub mod compiled;
pub mod gradcam;
pub mod gru;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod quantize;
pub mod serialize;
pub mod train;
pub mod workspace;

pub use activation::Activation;
pub use compiled::{CompiledMlp, CompiledWorkspace};
pub use gru::{Gru, GruWorkspace};
pub use mlp::Mlp;
pub use workspace::MlpWorkspace;
