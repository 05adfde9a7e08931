//! Softmax cross-entropy loss.

use gnn_dm_tensor::Matrix;

/// Computes mean softmax cross-entropy over rows and the gradient w.r.t.
/// the logits in one pass.
///
/// Returns `(mean_loss, d_logits)` where `d_logits = (softmax - onehot) / n`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with the gradient written into `grad` (the
/// logits' shape): every element is written once, none read. Returns the
/// mean loss.
///
/// # Panics
///
/// As [`softmax_cross_entropy`], and if `grad`'s shape differs from the
/// logits'.
#[allow(clippy::needless_range_loop, reason = "parallel-array indexing is the clear form here")]
pub(crate) fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[u32],
    grad: &mut Matrix,
) -> f32 {
    let n = logits.rows();
    assert_eq!(labels.len(), n, "one label per row");
    assert!(n > 0, "empty batch");
    assert_eq!(grad.shape(), logits.shape(), "one gradient per logit");
    let c = logits.cols();
    let mut total_loss = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for r in 0..n {
        let row = logits.row(r);
        let label = labels[r] as usize;
        assert!(label < c, "label {label} out of range for {c} classes");
        // Numerically stable log-sum-exp.
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for &x in row {
            sum += (x - max).exp();
        }
        let log_sum = sum.ln() + max;
        total_loss += (log_sum - row[label]) as f64;
        let g = grad.row_mut(r);
        for (j, o) in g.iter_mut().enumerate() {
            let p = (row[j] - log_sum).exp();
            *o = (p - if j == label { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    (total_loss / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_loss_is_log_c() {
        let logits = Matrix::zeros(4, 3);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 0]);
        assert!((loss - (3.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 3.0, -1.0]);
        let (_, g) = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn confident_correct_prediction_has_tiny_loss() {
        let logits = Matrix::from_vec(1, 2, vec![20.0, -20.0]);
        let (loss, g) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
        assert!(g.as_slice().iter().all(|x| x.abs() < 1e-6));
    }

    #[test]
    fn finite_difference_matches_gradient() {
        let base = Matrix::from_vec(2, 3, vec![0.4, -0.2, 0.9, -1.0, 0.3, 0.0]);
        let labels = [1u32, 2u32];
        let (_, g) = softmax_cross_entropy(&base, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = base.clone();
                plus.set(r, c, base.get(r, c) + eps);
                let mut minus = base.clone();
                minus.set(r, c, base.get(r, c) - eps);
                let (lp, _) = softmax_cross_entropy(&plus, &labels);
                let (lm, _) = softmax_cross_entropy(&minus, &labels);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - g.get(r, c)).abs() < 1e-3,
                    "({r},{c}): numeric {numeric} vs analytic {}",
                    g.get(r, c)
                );
            }
        }
    }

    #[test]
    fn large_logits_stay_finite() {
        let logits = Matrix::from_vec(1, 3, vec![1e4, -1e4, 5e3]);
        let (loss, g) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss.is_finite());
        assert!(g.as_slice().iter().all(|x| x.is_finite()));
    }
}
