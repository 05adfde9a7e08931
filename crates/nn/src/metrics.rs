//! Accuracy metrics, including the per-degree-class breakdown of Table 7.

use gnn_dm_graph::csr::VId;
use gnn_dm_tensor::Matrix;

/// Fraction of `subset` vertices whose argmax logit equals their label.
/// `logits` must have one row per vertex (full-graph order). Returns 0 for
/// an empty subset.
pub fn accuracy(logits: &Matrix, labels: &[u32], subset: &[VId]) -> f64 {
    accuracy_at(logits, |v| v as usize, labels, subset)
}

/// [`accuracy`] over logits whose row `row_of(v)` is vertex `v`'s: each
/// entry of `subset` counts once, a repeated vertex as often as it is
/// repeated.
pub(crate) fn accuracy_at(
    logits: &Matrix,
    row_of: impl Fn(VId) -> usize,
    labels: &[u32],
    subset: &[VId],
) -> f64 {
    if subset.is_empty() {
        return 0.0;
    }
    let pred = logits.argmax_rows();
    let correct = subset
        .iter()
        .filter(|&&v| pred[row_of(v)] == labels[v as usize] as usize)
        .count();
    correct as f64 / subset.len() as f64
}

/// Accuracy over batch-local logits: row `i` of `logits` predicts
/// `seeds[i]`.
pub fn batch_accuracy(logits: &Matrix, seed_labels: &[u32]) -> f64 {
    if seed_labels.is_empty() {
        return 0.0;
    }
    let pred = logits.argmax_rows();
    let correct =
        pred.iter().zip(seed_labels).filter(|(p, l)| **p == **l as usize).count();
    correct as f64 / seed_labels.len() as f64
}

/// Accuracy evaluated separately on low- and high-degree subsets
/// (Table 7). Returns `(low_acc, high_acc)`.
pub fn accuracy_by_degree(
    logits: &Matrix,
    labels: &[u32],
    low: &[VId],
    high: &[VId],
) -> (f64, f64) {
    (accuracy(logits, labels, low), accuracy(logits, labels, high))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        // 3 vertices, 2 classes; predictions: 1, 0, 1.
        let logits = Matrix::from_vec(3, 2, vec![0.0, 1.0, 2.0, -1.0, 0.3, 0.9]);
        let labels = vec![1, 0, 0];
        assert_eq!(accuracy(&logits, &labels, &[0, 1, 2]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &labels, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &labels, &[]), 0.0);
    }

    #[test]
    fn batch_accuracy_local_order() {
        let logits = Matrix::from_vec(2, 2, vec![5.0, 0.0, 0.0, 5.0]);
        assert_eq!(batch_accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(batch_accuracy(&logits, &[1, 0]), 0.0);
    }

    #[test]
    fn degree_split_accuracy() {
        let logits = Matrix::from_vec(4, 2, vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]);
        let labels = vec![0, 1, 1, 0];
        let (lo, hi) = accuracy_by_degree(&logits, &labels, &[0, 1], &[2, 3]);
        assert_eq!(lo, 0.5);
        assert_eq!(hi, 0.5);
    }
}
