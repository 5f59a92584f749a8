//! # occusense-tensor
//!
//! A small, dependency-light dense linear-algebra kernel used by every other
//! crate in the `occusense` workspace (the Rust reproduction of *Towards Deep
//! Learning-based Occupancy Detection Via WiFi Sensing in Unconstrained
//! Environments*, DATE 2023).
//!
//! The crate deliberately implements only what the reproduction needs, but
//! implements it properly:
//!
//! * [`Matrix`] — row-major dense `f64` matrix with elementwise arithmetic,
//!   matrix multiplication, transposition and reductions.
//! * [`linalg`] — Householder QR decomposition and least-squares solving
//!   (used by the OLS baseline and the ADF test regressions).
//! * [`init`] — seeded random matrix initialisers (uniform, Gaussian,
//!   Xavier/Glorot and Kaiming/He), used for reproducible network weights.
//! * [`vecops`] — slice-level numeric helpers (dot products, norms, means,
//!   variances) shared by the statistics crate.
//! * [`kernels`] — packed, register-tiled GEMM kernels written once
//!   over `f64` and `f32`, with a reusable [`kernels::Scratch`]
//!   workspace; the engine behind [`Matrix::matmul`], the
//!   zero-allocation `*_into` entry points of the training hot path,
//!   and the `f32` serving forward ([`kernels::gemm_bias_f32`]). Every
//!   kernel runs on the calling thread.
//!
//! # Example
//!
//! ```
//! use occusense_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod matrix;

pub mod init;
pub mod kernels;
pub mod linalg;
pub mod vecops;

pub use error::ShapeError;
pub use kernels::Scratch;
pub use matrix::Matrix;
