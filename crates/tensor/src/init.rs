//! Deterministic weight initializers.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Glorot/Xavier uniform: entries drawn from
/// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub fn glorot_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    #[expect(clippy::disallowed_methods, reason = "a serial root: weights from the caller's seed")]
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(fan_in, fan_out, |_, _| {
        (rng.random::<f64>() * 2.0 * limit - limit) as f32
    })
}

/// Uniform in `[-limit, limit]`.
pub fn uniform(rows: usize, cols: usize, limit: f64, seed: u64) -> Matrix {
    #[expect(clippy::disallowed_methods, reason = "a serial root: weights from the caller's seed")]
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| (rng.random::<f64>() * 2.0 * limit - limit) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_within_limit_and_deterministic() {
        let limit = (6.0f64 / (64 + 32) as f64).sqrt() as f32;
        let a = glorot_uniform(64, 32, 7);
        let b = glorot_uniform(64, 32, 7);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| x.abs() <= limit));
        // Not all zero and roughly centered.
        let mean: f32 = a.as_slice().iter().sum::<f32>() / (64.0 * 32.0);
        assert!(mean.abs() < limit / 5.0);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(glorot_uniform(8, 8, 1), glorot_uniform(8, 8, 2));
    }

    #[test]
    fn uniform_bounds() {
        let m = uniform(10, 10, 0.5, 3);
        assert!(m.as_slice().iter().all(|&x| x.abs() <= 0.5));
    }
}
