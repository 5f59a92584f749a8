//! Slice-level numeric helpers shared across the workspace.
//!
//! These free functions operate on `&[f64]` so that callers (the statistics
//! crate, the channel model, the metrics code) do not need to wrap plain
//! buffers in [`crate::Matrix`] just to compute a mean or a dot product.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use occusense_tensor::vecops::dot;
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance (divides by `n`); `0.0` for slices shorter than 1.
pub fn variance(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Sample variance (divides by `n - 1`); `0.0` for slices shorter than 2.
pub fn sample_variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Minimum value; `f64::NAN` for an empty slice.
pub fn min(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum value; `f64::NAN` for an empty slice.
pub fn max(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::NAN, f64::max)
}

/// Covariance of two equal-length slices (population, divides by `n`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn covariance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "covariance: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    if a.is_empty() {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / a.len() as f64
}

/// In-place elementwise `a += k * b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(a: &mut [f64], k: f64, b: &[f64]) {
    assert_eq!(
        a.len(),
        b.len(),
        "axpy: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    for (x, &y) in a.iter_mut().zip(b) {
        *x += k * y;
    }
}

/// First difference `a[t] - a[t-1]`; empty for slices shorter than 2.
pub fn diff(a: &[f64]) -> Vec<f64> {
    a.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Rectified linear unit `max(x, 0)`; a NaN input maps to `0`.
#[inline]
pub fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// Numerically stable logistic sigmoid `1 / (1 + e^-x)`.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn dot_and_norm() {
        approx(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        approx(norm(&[3.0, 4.0]), 5.0);
        approx(norm(&[]), 0.0);
    }

    #[test]
    fn mean_variance_std() {
        approx(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        approx(variance(&[1.0, 2.0, 3.0, 4.0]), 1.25);
        approx(sample_variance(&[1.0, 2.0, 3.0, 4.0]), 5.0 / 3.0);
        approx(std_dev(&[2.0, 2.0]), 0.0);
        approx(mean(&[]), 0.0);
        approx(variance(&[5.0]), 0.0);
        approx(sample_variance(&[5.0]), 0.0);
    }

    #[test]
    fn min_max_values() {
        approx(min(&[3.0, -1.0, 2.0]), -1.0);
        approx(max(&[3.0, -1.0, 2.0]), 3.0);
        assert!(min(&[]).is_nan());
        assert!(max(&[]).is_nan());
    }

    #[test]
    fn covariance_known_value() {
        // cov(x, x) == var(x)
        let x = [1.0, 2.0, 3.0, 4.0];
        approx(covariance(&x, &x), variance(&x));
        // Perfectly anti-correlated.
        let y = [4.0, 3.0, 2.0, 1.0];
        approx(covariance(&x, &y), -variance(&x));
        approx(covariance(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = [1.0, 1.0];
        axpy(&mut a, 2.0, &[10.0, 20.0]);
        assert_eq!(a, [21.0, 41.0]);
    }

    #[test]
    fn diff_first_difference() {
        assert_eq!(diff(&[1.0, 4.0, 9.0]), vec![3.0, 5.0]);
        assert!(diff(&[1.0]).is_empty());
        assert!(diff(&[]).is_empty());
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        approx(sigmoid(0.0), 0.5);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        approx(sigmoid(3.0) + sigmoid(-3.0), 1.0);
    }
}
