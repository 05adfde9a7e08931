//! Device memory budgeting.
//!
//! The GPU feature cache (§7.3.3) can only use what is left of device
//! memory after the model, optimizer state, and batch working buffers.
//! This module fixes that budget at the paper's T4 (16 GiB, 13 GiB left
//! for the cache) and turns it into a cache capacity in rows, the knob
//! Figure 17 sweeps as "cache ratio".

use gnn_dm_trace::convert::{usize_of_f64_model, usize_of_u64_sat};
use gnn_dm_trace::units::Bytes;

/// Total device memory of the paper's T4: 16 GiB.
pub const DEVICE_MEMORY: Bytes = Bytes(16 * (1 << 30));
/// Reserved for model parameters, gradients and optimizer state.
pub const MODEL_RESERVED: Bytes = Bytes(1 << 30);
/// Reserved for in-flight batch buffers (double-buffered when pipelining).
pub const BATCH_RESERVED: Bytes = Bytes(2 * (1 << 30));
/// Memory left for the feature cache: 13 GiB.
pub const CACHE_BUDGET: Bytes = Bytes(DEVICE_MEMORY.0 - MODEL_RESERVED.0 - BATCH_RESERVED.0);

/// How many feature rows of `row_bytes` fit in [`CACHE_BUDGET`]. A
/// zero-byte row (a zero-width feature table) fits without limit:
/// `usize::MAX`.
pub fn cache_capacity_rows(row_bytes: Bytes) -> usize {
    if row_bytes == Bytes(0) {
        return usize::MAX;
    }
    usize_of_u64_sat(CACHE_BUDGET / row_bytes)
}

/// Rows needed to cache `ratio` of an `n`-vertex feature table —
/// Figure 17's x-axis, clamped to what [`CACHE_BUDGET`] allows.
pub fn rows_for_ratio(n: usize, row_bytes: Bytes, ratio: f64) -> usize {
    assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0, 1]");
    let want = usize_of_f64_model((n as f64 * ratio).round());
    want.min(cache_capacity_rows(row_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_budget_is_13_gib() {
        assert_eq!(CACHE_BUDGET, Bytes(13 * (1 << 30)));
        assert_eq!(cache_capacity_rows(Bytes(1 << 20)), 13 * 1024, "1 MiB rows");
    }

    #[test]
    fn ratio_rounds_below_the_budget() {
        assert_eq!(rows_for_ratio(100, Bytes(10), 0.5), 50);
        assert_eq!(rows_for_ratio(3, Bytes(4096), 0.5), 2, "half away from zero");
        assert_eq!(rows_for_ratio(1000, Bytes(400), 0.0), 0);
        assert_eq!(rows_for_ratio(1000, Bytes(400), 1.0), 1000);
    }

    #[test]
    fn ratio_clamps_to_memory() {
        // 4M rows of 4 KiB = 16 GiB wanted > 13 GiB budget.
        let row = Bytes(4096);
        let fit = 13 * (1 << 30) / 4096;
        assert_eq!(rows_for_ratio(4 << 20, row, 1.0), fit, "memory-limited");
        assert_eq!(rows_for_ratio(4 << 20, row, 0.5), 2 << 20, "half fits");
    }

    #[test]
    fn zero_byte_rows_fit_without_limit() {
        assert_eq!(cache_capacity_rows(Bytes(0)), usize::MAX);
        assert_eq!(rows_for_ratio(300, Bytes(0), 0.3), 90, "only the ratio limits");
    }
}
