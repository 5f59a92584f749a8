//! Pointwise activation functions.

use occusense_tensor::kernels::Epilogue;
use occusense_tensor::vecops::{relu, sigmoid};
use occusense_tensor::Matrix;

/// Pointwise activation applied by a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit `max(0, x)` — the paper's hidden activation.
    #[default]
    Relu,
    /// Logistic sigmoid `1/(1+e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent — the GRU candidate-state nonlinearity.
    Tanh,
    /// Identity (used on the output layer; the loss applies the sigmoid).
    Identity,
}

/// `σ'` of [`Activation::Relu`]: 1 above zero, else 0 (NaN included).
fn relu_derivative(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// `σ'` of [`Activation::Sigmoid`]: `s(1 − s)`.
fn sigmoid_derivative(x: f64) -> f64 {
    let s = sigmoid(x);
    s * (1.0 - s)
}

/// `σ'` of [`Activation::Tanh`]: `1 − tanh²`.
fn tanh_derivative(x: f64) -> f64 {
    let t = x.tanh();
    1.0 - t * t
}

/// `σ'` of [`Activation::Identity`].
fn identity_derivative(_: f64) -> f64 {
    1.0
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn apply(&self, z: &Matrix) -> Matrix {
        match self {
            Activation::Relu => z.map(relu),
            Activation::Sigmoid => z.map(sigmoid),
            Activation::Tanh => z.map(f64::tanh),
            Activation::Identity => z.clone(),
        }
    }

    /// Elementwise derivative evaluated at pre-activation `z`.
    pub fn derivative(&self, z: &Matrix) -> Matrix {
        match self {
            Activation::Relu => z.map(relu_derivative),
            Activation::Sigmoid => z.map(sigmoid_derivative),
            Activation::Tanh => z.map(tanh_derivative),
            Activation::Identity => Matrix::ones(z.rows(), z.cols()),
        }
    }

    /// The activation as the fused GEMM kernel's epilogue
    /// ([`occusense_tensor::kernels::gemm_bias_act`]): ReLU and identity
    /// map to the kernel's inlined forms, sigmoid and tanh ride along as
    /// function pointers. Applied elementwise it is exactly
    /// [`Activation::apply`].
    pub fn epilogue(&self) -> Epilogue {
        match self {
            Activation::Relu => Epilogue::Relu,
            Activation::Identity => Epilogue::Identity,
            Activation::Sigmoid | Activation::Tanh => Epilogue::Map(self.scalar_fn()),
        }
    }

    /// The activation as a plain scalar function pointer; applying it
    /// to each element of a matrix is exactly [`Activation::apply`].
    pub fn scalar_fn(&self) -> fn(f64) -> f64 {
        match self {
            Activation::Relu => relu,
            Activation::Sigmoid => sigmoid,
            Activation::Tanh => f64::tanh,
            Activation::Identity => |x| x,
        }
    }

    /// The derivative as a plain scalar function pointer, evaluated at
    /// the pre-activation; elementwise this is exactly
    /// [`Activation::derivative`].
    pub fn scalar_derivative(&self) -> fn(f64) -> f64 {
        match self {
            Activation::Relu => relu_derivative,
            Activation::Sigmoid => sigmoid_derivative,
            Activation::Tanh => tanh_derivative,
            Activation::Identity => identity_derivative,
        }
    }

    /// `δ = g ⊙ σ'(z)` over equal-length slices, matching the
    /// activation once so each arm is a straight loop over an inlined
    /// derivative. Elementwise exactly `g * scalar_derivative()(z)`.
    pub(crate) fn mask_gradient(&self, grad: &[f64], z: &[f64], delta: &mut [f64]) {
        fn fill(grad: &[f64], z: &[f64], delta: &mut [f64], dact: impl Fn(f64) -> f64) {
            for ((d, &g), &zz) in delta.iter_mut().zip(grad).zip(z) {
                *d = g * dact(zz);
            }
        }
        match self {
            Activation::Relu => fill(grad, z, delta, relu_derivative),
            Activation::Sigmoid => fill(grad, z, delta, sigmoid_derivative),
            Activation::Tanh => fill(grad, z, delta, tanh_derivative),
            Activation::Identity => fill(grad, z, delta, identity_derivative),
        }
    }

    /// Short name used by the serialisation format.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        }
    }

    /// Parses a [`name`](Self::name) back to an activation.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "relu" => Some(Activation::Relu),
            "sigmoid" => Some(Activation::Sigmoid),
            "tanh" => Some(Activation::Tanh),
            "identity" => Some(Activation::Identity),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let z = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(Activation::Relu.apply(&z).row(0), &[0.0, 0.0, 2.0]);
        assert_eq!(Activation::Relu.derivative(&z).row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_derivative_peak() {
        let z = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]);
        let a = Activation::Sigmoid.apply(&z);
        assert!(a[(0, 0)] < 1e-6);
        assert!((a[(0, 1)] - 0.5).abs() < 1e-12);
        assert!(a[(0, 2)] > 1.0 - 1e-6);
        let d = Activation::Sigmoid.derivative(&z);
        assert!((d[(0, 1)] - 0.25).abs() < 1e-12);
        assert!(d[(0, 0)] < 1e-6);
    }

    #[test]
    fn identity_passthrough() {
        let z = Matrix::from_rows(&[&[-3.0, 5.0]]);
        assert_eq!(Activation::Identity.apply(&z), z);
        assert_eq!(Activation::Identity.derivative(&z).row(0), &[1.0, 1.0]);
    }

    #[test]
    fn derivative_matches_finite_differences() {
        let eps = 1e-6;
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for x in [-2.0, -0.5, 0.3, 1.7] {
                let z = Matrix::from_rows(&[&[x]]);
                let zp = Matrix::from_rows(&[&[x + eps]]);
                let zm = Matrix::from_rows(&[&[x - eps]]);
                let numeric = (act.apply(&zp)[(0, 0)] - act.apply(&zm)[(0, 0)]) / (2.0 * eps);
                let analytic = act.derivative(&z)[(0, 0)];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let z = Matrix::from_rows(&[&[-100.0, -0.5, 0.0, 0.5, 100.0]]);
        let a = Activation::Tanh.apply(&z);
        assert!((a[(0, 0)] + 1.0).abs() < 1e-12);
        assert!((a[(0, 1)] + a[(0, 3)]).abs() < 1e-15);
        assert_eq!(a[(0, 2)], 0.0);
        assert!((a[(0, 4)] - 1.0).abs() < 1e-12);
        let d = Activation::Tanh.derivative(&z);
        assert!((d[(0, 2)] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn names_round_trip() {
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            assert_eq!(Activation::from_name(act.name()), Some(act));
        }
        assert_eq!(Activation::from_name("swish"), None);
    }
}
