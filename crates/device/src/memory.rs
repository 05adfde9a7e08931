//! Device memory budgeting.
//!
//! The GPU feature cache (§7.3.3) can only use what is left of device
//! memory after the model, optimizer state, and batch working buffers.
//! This module turns a memory budget into a cache capacity in rows, the
//! knob Figure 17 sweeps as "cache ratio".

use gnn_dm_trace::convert::{usize_of_f64_model, usize_of_u64_sat};
use gnn_dm_trace::units::Bytes;

/// A device memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMemory {
    /// Total device memory (the paper's T4: 16 GB).
    pub total: Bytes,
    /// Reserved for model parameters, gradients, optimizer state.
    pub model_reserved: Bytes,
    /// Reserved for in-flight batch buffers (double-buffered when
    /// pipelining).
    pub batch_reserved: Bytes,
}

impl DeviceMemory {
    /// The paper's T4 configuration with typical reservations.
    pub fn t4() -> Self {
        DeviceMemory {
            total: Bytes(16 * (1 << 30)),
            model_reserved: Bytes(1 << 30),
            batch_reserved: Bytes(2 * (1 << 30)),
        }
    }

    /// Memory available for the feature cache (0 if over-committed).
    pub fn cache_budget(&self) -> Bytes {
        self.total.saturating_sub(self.model_reserved + self.batch_reserved)
    }

    /// How many feature rows fit in the cache budget. A zero-byte row (a
    /// zero-width feature table) fits without limit: `usize::MAX`.
    pub fn cache_capacity_rows(&self, row_bytes: Bytes) -> usize {
        if row_bytes == Bytes(0) {
            return usize::MAX;
        }
        usize_of_u64_sat(self.cache_budget() / row_bytes)
    }

    /// Rows needed to cache `ratio` of an `n`-vertex feature table —
    /// Figure 17's x-axis, clamped to what memory allows.
    pub fn rows_for_ratio(&self, n: usize, row_bytes: Bytes, ratio: f64) -> usize {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0, 1]");
        let want = usize_of_f64_model((n as f64 * ratio).round());
        want.min(self.cache_capacity_rows(row_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_budget_positive() {
        let m = DeviceMemory::t4();
        assert_eq!(m.cache_budget(), Bytes(13 * (1 << 30)));
    }

    #[test]
    fn capacity_rows() {
        let m = DeviceMemory {
            total: Bytes(1000),
            model_reserved: Bytes(100),
            batch_reserved: Bytes(100),
        };
        assert_eq!(m.cache_capacity_rows(Bytes(100)), 8);
    }

    #[test]
    fn over_committed_yields_zero() {
        let m = DeviceMemory {
            total: Bytes(100),
            model_reserved: Bytes(80),
            batch_reserved: Bytes(50),
        };
        assert_eq!(m.cache_budget(), Bytes(0));
        assert_eq!(m.cache_capacity_rows(Bytes(10)), 0);
    }

    #[test]
    fn ratio_clamps_to_memory() {
        let m = DeviceMemory { total: Bytes(1000), model_reserved: Bytes(0), batch_reserved: Bytes(0) };
        assert_eq!(m.rows_for_ratio(100, Bytes(10), 0.5), 50);
        assert_eq!(m.rows_for_ratio(1000, Bytes(10), 1.0), 100, "memory-limited");
    }

    #[test]
    fn zero_byte_rows_fit_without_limit() {
        let m = DeviceMemory::t4();
        assert_eq!(m.cache_capacity_rows(Bytes(0)), usize::MAX);
        assert_eq!(m.rows_for_ratio(300, Bytes(0), 0.3), 90, "only the ratio limits");
    }
}
