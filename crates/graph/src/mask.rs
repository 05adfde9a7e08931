//! Train/validation/test splits.

use crate::csr::VId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which split a vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Labelled vertex used for gradient computation.
    Train,
    /// Held-out vertex used for convergence monitoring.
    Val,
    /// Held-out vertex used for final accuracy.
    Test,
}

/// Per-vertex split assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMask {
    assignment: Vec<Split>,
}

impl SplitMask {
    /// Randomly assigns `n` vertices to splits with the given ratios
    /// (the paper uses 65:10:25). Ratios must sum to a positive value; they
    /// are normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if all ratios are zero or any is negative.
    pub fn random(n: usize, train: f64, val: f64, test: f64, seed: u64) -> Self {
        assert!(train >= 0.0 && val >= 0.0 && test >= 0.0, "ratios must be non-negative");
        let total = train + val + test;
        assert!(total > 0.0, "ratios must sum to a positive value");
        let n_train = ((train / total) * n as f64).round() as usize;
        let n_val = ((val / total) * n as f64).round() as usize;
        let n_train = n_train.min(n);
        let n_val = n_val.min(n - n_train);

        let mut order: Vec<usize> = (0..n).collect();
        #[expect(clippy::disallowed_methods, reason = "a serial shuffle from the caller's seed")]
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);

        let mut assignment = vec![Split::Test; n];
        for &v in &order[..n_train] {
            assignment[v] = Split::Train;
        }
        for &v in &order[n_train..n_train + n_val] {
            assignment[v] = Split::Val;
        }
        SplitMask { assignment }
    }

    /// The paper's default 65:10:25 split.
    pub fn paper_default(n: usize, seed: u64) -> Self {
        SplitMask::random(n, 0.65, 0.10, 0.25, seed)
    }

    /// Wraps an explicit assignment.
    pub fn from_assignment(assignment: Vec<Split>) -> Self {
        SplitMask { assignment }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` if the mask covers no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Split of vertex `v`.
    #[inline]
    pub fn split_of(&self, v: VId) -> Split {
        self.assignment[v as usize]
    }

    /// All vertices in the given split, ascending.
    pub fn vertices_in(&self, split: Split) -> Vec<VId> {
        let len = self.assignment.iter().filter(|&&s| s == split).count();
        let mut out = Vec::with_capacity(len);
        out.extend(
            self.assignment.iter().enumerate().filter(|(_, &s)| s == split).map(|(v, _)| v as VId),
        );
        out
    }

    /// `(train, val, test)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for s in &self.assignment {
            match s {
                Split::Train => c.0 += 1,
                Split::Val => c.1 += 1,
                Split::Test => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_respected() {
        let m = SplitMask::paper_default(1000, 7);
        let (tr, va, te) = m.counts();
        assert_eq!(tr + va + te, 1000);
        assert!((tr as i64 - 650).abs() <= 1, "train {tr}");
        assert!((va as i64 - 100).abs() <= 1, "val {va}");
        assert!((te as i64 - 250).abs() <= 2, "test {te}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SplitMask::paper_default(100, 3);
        let b = SplitMask::paper_default(100, 3);
        let c = SplitMask::paper_default(100, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vertices_in_partitions_cover_everything() {
        let m = SplitMask::random(50, 0.5, 0.25, 0.25, 1);
        let mut all: Vec<VId> = m
            .vertices_in(Split::Train)
            .into_iter()
            .chain(m.vertices_in(Split::Val))
            .chain(m.vertices_in(Split::Test))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn all_train_when_other_ratios_zero() {
        let m = SplitMask::random(10, 1.0, 0.0, 0.0, 0);
        assert_eq!(m.counts(), (10, 0, 0));
        assert!((0..10).all(|v| m.split_of(v) == Split::Train));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratios_rejected() {
        let _ = SplitMask::random(10, 0.0, 0.0, 0.0, 0);
    }
}
