//! Post-training int8 quantisation — the embedded-deployment extension.
//!
//! §IV-B positions the MLP for "resource-constrained devices (e.g.
//! Nucleo-L432KC)" and quotes a 15.18 KiB model. An f32 copy of the
//! paper's architecture is ~290 KiB, so a Nucleo-class deployment
//! implies aggressive weight compression; this module provides symmetric
//! per-tensor int8 quantisation (weights 1 byte each, biases kept f32)
//! and the accuracy-vs-size trade-off experiment.

use crate::activation::Activation;
use crate::mlp::Mlp;
use occusense_tensor::Matrix;

/// One quantised dense layer.
#[derive(Debug, Clone, PartialEq)]
struct QuantizedDense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major int8 weights (`in_dim × out_dim`).
    weights_q: Vec<i8>,
    /// Dequantisation scale: `w ≈ w_q · scale`.
    scale: f64,
    /// Biases kept at f32 precision (stored as f64 here, accounted as 4
    /// bytes each).
    bias: Vec<f64>,
    activation: Activation,
}

/// An int8-quantised copy of an [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedDense>,
}

impl QuantizedMlp {
    /// Quantises a trained network with symmetric per-tensor scaling
    /// (`scale = max|w| / 127`).
    ///
    /// # Example
    ///
    /// ```
    /// use occusense_nn::Mlp;
    /// use occusense_nn::quantize::QuantizedMlp;
    ///
    /// let mlp = Mlp::new(&[8, 16, 1], 3);
    /// let q = QuantizedMlp::from_mlp(&mlp);
    /// assert!(q.size_bytes() < mlp.n_parameters() * 8);
    /// ```
    pub fn from_mlp(mlp: &Mlp) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|layer| {
                let max_abs = layer.weights.max_abs().max(f64::MIN_POSITIVE);
                let scale = max_abs / 127.0;
                let weights_q = layer
                    .weights
                    .as_slice()
                    .iter()
                    .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                QuantizedDense {
                    in_dim: layer.in_dim(),
                    out_dim: layer.out_dim(),
                    weights_q,
                    scale,
                    bias: layer.bias.clone(),
                    activation: layer.activation,
                }
            })
            .collect();
        Self { layers }
    }

    /// Deployment size in bytes: one byte per weight, four bytes per bias
    /// value and per-tensor scale.
    pub fn size_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights_q.len() + 4 * l.bias.len() + 4)
            .sum()
    }

    /// Deployment size in KiB.
    pub fn size_kib(&self) -> f64 {
        self.size_bytes() as f64 / 1024.0
    }

    /// Reconstructs an f64 [`Mlp`] with the dequantised weights — the
    /// reference implementation of int8 inference (a microcontroller
    /// would run the integer arithmetic directly).
    pub fn dequantize(&self) -> Mlp {
        let layers = self
            .layers
            .iter()
            .map(|l| crate::layer::Dense {
                weights: Matrix::from_vec(
                    l.in_dim,
                    l.out_dim,
                    l.weights_q.iter().map(|&q| q as f64 * l.scale).collect(),
                ),
                bias: l.bias.clone(),
                activation: l.activation,
            })
            .collect();
        Mlp::from_layers(layers)
    }

    /// Forward pass through the dequantised network.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        self.dequantize().predict(x)
    }

    /// Sigmoid probabilities of the first output column.
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.dequantize().predict_proba(x)
    }

    /// Thresholded binary labels.
    pub fn predict_labels(&self, x: &Matrix) -> Vec<u8> {
        self.dequantize().predict_labels(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::BceWithLogits;
    use crate::optim::AdamW;
    use crate::train::{TrainConfig, Trainer};

    fn trained_xor() -> (Mlp, Matrix, Vec<u8>) {
        let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]]);
        let y = Matrix::col_vector(&[0., 1., 1., 0.]);
        let mut mlp = Mlp::new(&[2, 16, 1], 7);
        let mut optim = AdamW::new(0.02, 0.0);
        Trainer::new(TrainConfig {
            epochs: 400,
            batch_size: 4,
            shuffle_seed: 1,
        })
        .fit(&mut mlp, &x, &y, &BceWithLogits, &mut optim);
        let labels = mlp.predict_labels(&x);
        (mlp, x, labels)
    }

    #[test]
    fn quantized_network_preserves_xor() {
        let (mlp, x, labels) = trained_xor();
        let q = QuantizedMlp::from_mlp(&mlp);
        assert_eq!(q.predict_labels(&x), labels);
    }

    #[test]
    fn quantized_outputs_close_to_original() {
        let (mlp, x, _) = trained_xor();
        let q = QuantizedMlp::from_mlp(&mlp);
        let orig = mlp.predict(&x);
        let quant = q.predict(&x);
        let rel = (&orig - &quant).max_abs() / orig.max_abs().max(1e-9);
        assert!(rel < 0.25, "relative deviation {rel}");
    }

    #[test]
    fn size_accounting() {
        let mlp = Mlp::new(&[64, 128, 256, 128, 1], 1);
        let q = QuantizedMlp::from_mlp(&mlp);
        // 1 byte per weight vs 8 bytes per f64 parameter.
        assert!(q.size_bytes() < mlp.n_parameters() * 2);
        // The paper's architecture lands well under 100 KiB at int8.
        assert!(q.size_kib() < 100.0, "{} KiB", q.size_kib());
        assert!(q.size_kib() > 10.0);
    }

    #[test]
    fn quantization_is_deterministic() {
        let mlp = Mlp::new(&[4, 8, 1], 5);
        assert_eq!(QuantizedMlp::from_mlp(&mlp), QuantizedMlp::from_mlp(&mlp));
    }

    #[test]
    fn dequantized_weights_within_half_step() {
        let mlp = Mlp::new(&[6, 10, 2], 9);
        let q = QuantizedMlp::from_mlp(&mlp);
        let back = q.dequantize();
        for (orig, deq) in mlp.layers().iter().zip(back.layers()) {
            let max_abs = orig.weights.max_abs();
            let step = max_abs / 127.0;
            let err = (&orig.weights - &deq.weights).max_abs();
            assert!(err <= step / 2.0 + 1e-12, "err {err} vs step {step}");
            // Biases untouched.
            assert_eq!(orig.bias, deq.bias);
        }
    }
}
