//! Hash (random) partitioning — the P3 baseline.
//!
//! Random vertex assignment balances computational and communication load by
//! construction (goals 2 and 4 of §5.1) but ignores vertex dependencies
//! entirely, so it maximizes total communication and computation (it fails
//! goals 1 and 3). It is also by far the fastest method (§5.3.3: ~0.1% of
//! total training time).

use crate::types::GnnPartitioning;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Randomly assigns each of `n` vertices to one of `k` partitions.
pub fn hash_vertices(n: usize, k: usize, seed: u64) -> GnnPartitioning {
    assert!(k >= 1, "need at least one partition");
    let mut rng = StdRng::seed_from_u64(seed);
    let assignment = (0..n).map(|_| rng.random_range(0..k) as u32).collect();
    GnnPartitioning::new(assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_balanced() {
        let p = hash_vertices(40_000, 4, 1);
        let sizes = p.sizes();
        let avg = 10_000.0;
        for s in sizes {
            assert!((s as f64 - avg).abs() / avg < 0.05, "partition size {s}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(hash_vertices(100, 4, 7).assignment, hash_vertices(100, 4, 7).assignment);
        assert_ne!(hash_vertices(100, 4, 7).assignment, hash_vertices(100, 4, 8).assignment);
    }

    #[test]
    fn single_partition_degenerate() {
        let p = hash_vertices(10, 1, 0);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }
}
