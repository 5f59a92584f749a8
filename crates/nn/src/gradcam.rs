//! Grad-CAM explainability (Selvaraju et al. \[17\]) adapted to the MLP,
//! as in §IV-B of the paper.
//!
//! Eq. (5) computes, for a class `c` and hidden layer `k`, the importance
//! coefficient `α_k^c` as the average over hidden neurons of
//! `∂y^c/∂A^{(k)}`; Eq. (6) weights the feature map by `α_k^c` and applies
//! a ReLU. For an MLP, whose "feature maps" are plain activation vectors,
//! the per-layer map [`layer_importance`] implements Eq. (5)–(6) verbatim
//! (averaged over the evaluation batch).
//!
//! The Figure 3 plot needs one importance value per *input feature*
//! (subcarriers a0–a63, temperature, humidity). An MLP has no spatial
//! correspondence between hidden neurons and inputs, so the attribution
//! is propagated all the way to the input layer: [`input_attribution`]
//! returns the batch-averaged gradient×input score, which is signed —
//! matching the negative values visible in the paper's figure.

use crate::mlp::{ForwardPass, Mlp};
use occusense_tensor::Matrix;

/// Gradients of the summed class score with respect to every activation,
/// from the input (index 0) to the last hidden layer.
///
/// `class_sign` is `+1.0` for the positive (occupied) class and `-1.0`
/// for the negative class; for the binary head, `y^{c=0} = −y^{c=1}`.
pub fn activation_gradients(mlp: &Mlp, pass: &ForwardPass, class_sign: f64) -> Vec<Matrix> {
    let n_layers = mlp.layers().len();
    let output = pass.output();
    // ∂(Σ_batch y^c)/∂output = class_sign everywhere.
    let mut upstream = Matrix::filled(output.rows(), output.cols(), class_sign);
    // grads[i] = ∂y^c/∂activations[i]; fill from the top down.
    let mut grads: Vec<Option<Matrix>> = vec![None; n_layers];
    for (i, layer) in mlp.layers().iter().enumerate().rev() {
        let g = layer.backward(&pass.activations[i], &pass.preacts[i], &upstream);
        upstream = g.input;
        grads[i] = Some(upstream.clone());
    }
    grads.into_iter().map(|g| g.expect("filled")).collect()
}

/// Eq. (5): the hidden importance coefficient `α_k^c` of layer `k` — the
/// gradient of the class score averaged over that layer's neurons (and
/// over the evaluation batch).
///
/// # Panics
///
/// Panics if `layer_k` is not a hidden layer index
/// (`0 .. mlp.layers().len() - 1`).
pub fn alpha(mlp: &Mlp, x: &Matrix, layer_k: usize, class_sign: f64) -> f64 {
    assert!(
        layer_k + 1 < mlp.layers().len() + 1,
        "layer {layer_k} out of range"
    );
    let pass = mlp.forward(x);
    let grads = activation_gradients_at_outputs(mlp, &pass, class_sign);
    grads[layer_k].mean()
}

/// Gradients with respect to each layer's *output* activation
/// (`A^{(k)}` in the paper's notation, `k = 0` being the first hidden
/// layer). Length = number of layers; the last entry is the gradient at
/// the network output (trivially `class_sign`).
pub fn activation_gradients_at_outputs(
    mlp: &Mlp,
    pass: &ForwardPass,
    class_sign: f64,
) -> Vec<Matrix> {
    let n_layers = mlp.layers().len();
    let output = pass.output();
    let mut upstream = Matrix::filled(output.rows(), output.cols(), class_sign);
    let mut grads: Vec<Option<Matrix>> = vec![None; n_layers];
    grads[n_layers - 1] = Some(upstream.clone());
    for (i, layer) in mlp.layers().iter().enumerate().rev() {
        let g = layer.backward(&pass.activations[i], &pass.preacts[i], &upstream);
        upstream = g.input;
        if i > 0 {
            grads[i - 1] = Some(upstream.clone());
        }
    }
    grads.into_iter().map(|g| g.expect("filled")).collect()
}

/// Eq. (6) for one hidden layer: `ReLU(α_k^c · Ā^{(k)})`, the per-neuron
/// Grad-CAM map of layer `k` with the feature map averaged over the
/// batch.
///
/// # Panics
///
/// Panics if `layer_k >= mlp.layers().len() - 1` (the output layer has no
/// Grad-CAM map).
pub fn layer_importance(mlp: &Mlp, x: &Matrix, layer_k: usize, class_sign: f64) -> Vec<f64> {
    assert!(
        layer_k < mlp.layers().len() - 1,
        "layer {layer_k} is not a hidden layer"
    );
    let pass = mlp.forward(x);
    let grads = activation_gradients_at_outputs(mlp, &pass, class_sign);
    let a_k = alpha_from(&grads, layer_k);
    // Batch-mean feature map of layer k (activations[k + 1]).
    pass.activations[layer_k + 1]
        .col_means()
        .into_iter()
        .map(|a| (a_k * a).max(0.0))
        .collect()
}

fn alpha_from(grads: &[Matrix], layer_k: usize) -> f64 {
    grads[layer_k].mean()
}

/// The Figure 3 attribution: signed per-input-feature importance,
/// computed as the batch-averaged gradient×input of the class score.
///
/// Positive values mean the feature pushes towards the class; values
/// near zero mean the network ignores the feature (the paper's finding
/// for temperature and humidity).
pub fn input_attribution(mlp: &Mlp, x: &Matrix, class_sign: f64) -> Vec<f64> {
    let pass = mlp.forward(x);
    let output = pass.output();
    let upstream = Matrix::filled(output.rows(), output.cols(), class_sign);
    let (_, grad_x) = mlp.backward(&pass, &upstream);
    let gx = grad_x.hadamard(x);
    gx.col_means()
}

/// Plain input-gradient saliency (no input weighting), batch-averaged —
/// exposed for the sanity-check comparison in the test-suite (Adebayo et
/// al. \[25\]: saliency must depend on the trained weights).
pub fn input_saliency(mlp: &Mlp, x: &Matrix, class_sign: f64) -> Vec<f64> {
    let pass = mlp.forward(x);
    let output = pass.output();
    let upstream = Matrix::filled(output.rows(), output.cols(), class_sign);
    let (_, grad_x) = mlp.backward(&pass, &upstream);
    grad_x.col_means()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::BceWithLogits;
    use crate::optim::AdamW;
    use crate::train::{TrainConfig, Trainer};

    /// Train a tiny network where only feature 0 matters.
    fn single_feature_net() -> (Mlp, Matrix) {
        // y = 1 iff x0 > 0; x1 is noise.
        let n = 200;
        let x = Matrix::from_fn(n, 2, |r, c| {
            let t = r as f64 / n as f64;
            if c == 0 {
                if r % 2 == 0 {
                    0.5 + t
                } else {
                    -0.5 - t
                }
            } else {
                ((r * 37 % 101) as f64 / 101.0) - 0.5
            }
        });
        let y = Matrix::col_vector(
            &(0..n)
                .map(|r| if r % 2 == 0 { 1.0 } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        let mut mlp = Mlp::new(&[2, 8, 8, 1], 11);
        let mut optim = AdamW::new(0.02, 1e-4);
        Trainer::new(TrainConfig {
            epochs: 120,
            batch_size: 32,
            shuffle_seed: 4,
        })
        .fit(&mut mlp, &x, &y, &BceWithLogits, &mut optim);
        (mlp, x)
    }

    #[test]
    fn informative_feature_dominates_attribution() {
        let (mlp, x) = single_feature_net();
        let attr = input_attribution(&mlp, &x, 1.0);
        assert!(
            attr[0].abs() > 5.0 * attr[1].abs(),
            "attribution {attr:?} does not isolate feature 0"
        );
    }

    #[test]
    fn attribution_is_signed() {
        let (mlp, x) = single_feature_net();
        // For the positive class, gradient×input on a feature aligned with
        // the class is positive on average.
        let attr = input_attribution(&mlp, &x, 1.0);
        assert!(attr[0] > 0.0);
        // Flipping the class flips the attribution.
        let attr_neg = input_attribution(&mlp, &x, -1.0);
        assert!((attr[0] + attr_neg[0]).abs() < 1e-9);
    }

    #[test]
    fn layer_importance_is_nonnegative_and_sized() {
        let (mlp, x) = single_feature_net();
        for k in 0..mlp.layers().len() - 1 {
            let imp = layer_importance(&mlp, &x, k, 1.0);
            assert_eq!(imp.len(), mlp.layers()[k].out_dim());
            assert!(imp.iter().all(|&v| v >= 0.0), "layer {k}: {imp:?}");
        }
    }

    #[test]
    fn sanity_check_saliency_depends_on_weights() {
        // Adebayo et al.'s model-parameter randomisation test: a trained
        // and an untrained network must produce different saliency.
        let (mlp, x) = single_feature_net();
        let trained = input_saliency(&mlp, &x, 1.0);
        let untrained = input_saliency(&Mlp::new(&[2, 8, 8, 1], 999), &x, 1.0);
        let diff: f64 = trained
            .iter()
            .zip(&untrained)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "saliency insensitive to training: {diff}");
    }

    #[test]
    fn activation_gradients_shapes() {
        let mlp = Mlp::new(&[3, 5, 4, 1], 2);
        let x = Matrix::ones(7, 3);
        let pass = mlp.forward(&x);
        let grads = activation_gradients_at_outputs(&mlp, &pass, 1.0);
        assert_eq!(grads.len(), 3);
        assert_eq!(grads[0].shape(), (7, 5));
        assert_eq!(grads[1].shape(), (7, 4));
        assert_eq!(grads[2].shape(), (7, 1));
        // Output-layer gradient is the class sign itself.
        assert!(grads[2].as_slice().iter().all(|&v| v == 1.0));

        let input_grads = activation_gradients(&mlp, &pass, 1.0);
        assert_eq!(input_grads[0].shape(), (7, 3));
    }

    #[test]
    fn alpha_matches_mean_of_gradients() {
        let mlp = Mlp::new(&[3, 5, 1], 8);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1);
        let a = alpha(&mlp, &x, 0, 1.0);
        let pass = mlp.forward(&x);
        let grads = activation_gradients_at_outputs(&mlp, &pass, 1.0);
        assert!((a - grads[0].mean()).abs() < 1e-12);
    }
}
