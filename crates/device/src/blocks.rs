//! 256 KB-block activity analysis (Figures 15 and 16).
//!
//! The hybrid-transfer question (§7.3.1) is decided by how *densely* the
//! vertices a batch touches are packed into fixed-size regions of the
//! feature array: blocks with many active rows favour explicit bulk
//! transfer, sparse blocks favour fine-grained zero-copy. The paper counts
//! activity in 256 KB units, following Pytorch-direct \[30\].

use gnn_dm_graph::csr::VId;
use gnn_dm_trace::convert::{usize_of_u32, usize_of_u64_sat};
use gnn_dm_trace::units::Bytes;

/// Default block size used by the paper (256 KB).
pub const PAPER_BLOCK_BYTES: Bytes = Bytes(256 * 1024);

/// Per-block active-row counts for one batch's feature accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockActivity {
    /// Feature rows that fit in one block (≥ 1).
    pub rows_per_block: usize,
    /// Number of active (accessed) rows in each block.
    pub active: Vec<u32>,
    /// Total rows in the feature array.
    pub total_rows: usize,
}

/// Computes per-block activity for the accessed row ids of one batch.
///
/// `n` is the total number of feature rows; the feature array is split into
/// blocks of `block_bytes / row_bytes` rows (at least one row per block).
/// Zero-byte rows (a zero-width feature table) all fit in one block.
///
/// # Panics
///
/// Panics if an id is out of range.
pub fn block_activity(ids: &[VId], n: usize, row_bytes: Bytes, block_bytes: Bytes) -> BlockActivity {
    let rows_per_block = if row_bytes == Bytes(0) {
        n.max(1)
    } else {
        usize_of_u64_sat(block_bytes / row_bytes).max(1)
    };
    let num_blocks = n.div_ceil(rows_per_block);
    let mut active = vec![0u32; num_blocks];
    let mut seen = vec![false; n];
    for &v in ids {
        let vi = usize_of_u32(v);
        assert!(vi < n, "row id {v} out of range for {n} rows");
        if !seen[vi] {
            seen[vi] = true;
            active[vi / rows_per_block] += 1;
        }
    }
    BlockActivity { rows_per_block, active, total_rows: n }
}

impl BlockActivity {
    /// Number of blocks covering the feature array.
    pub fn num_blocks(&self) -> usize {
        self.active.len()
    }

    /// Rows held by block `b` (the last block may be partial).
    pub fn rows_in_block(&self, b: usize) -> usize {
        if b + 1 == self.active.len() && !self.total_rows.is_multiple_of(self.rows_per_block) {
            self.total_rows % self.rows_per_block
        } else {
            self.rows_per_block
        }
    }

    /// Active fraction of block `b` (relative to the rows the block holds).
    pub fn active_fraction(&self, b: usize) -> f64 {
        self.active[b] as f64 / self.rows_in_block(b) as f64
    }

    /// Blocks containing at least one active row.
    pub fn touched_blocks(&self) -> usize {
        self.active.iter().filter(|&&a| a > 0).count()
    }

    /// Fraction of *touched* blocks whose active fraction reaches
    /// `threshold` — Figure 16's y-axis ("ratio of data blocks suitable for
    /// explicit transfer").
    pub fn explicit_ratio(&self, threshold: f64) -> f64 {
        let touched = self.touched_blocks();
        if touched == 0 {
            return 0.0;
        }
        let explicit = (0..self.active.len())
            .filter(|&b| self.active[b] > 0 && self.active_fraction(b) >= threshold)
            .count();
        explicit as f64 / touched as f64
    }

    /// Total active rows across blocks.
    pub fn total_active(&self) -> usize {
        self.active.iter().map(|&a| usize_of_u32(a)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_counts_dedup() {
        // 10 rows of 64 B, 128 B blocks → 2 rows/block, 5 blocks.
        let a = block_activity(&[0, 1, 1, 4, 9], 10, Bytes(64), Bytes(128));
        assert_eq!(a.rows_per_block, 2);
        assert_eq!(a.num_blocks(), 5);
        assert_eq!(a.active, vec![2, 0, 1, 0, 1]);
        assert_eq!(a.total_active(), 4);
    }

    #[test]
    fn fractions_and_explicit_ratio() {
        let a = block_activity(&[0, 1, 4], 10, Bytes(64), Bytes(128));
        assert_eq!(a.active_fraction(0), 1.0);
        assert_eq!(a.active_fraction(2), 0.5);
        assert_eq!(a.touched_blocks(), 2);
        assert_eq!(a.explicit_ratio(0.6), 0.5); // only block 0 reaches 60%
        assert_eq!(a.explicit_ratio(0.5), 1.0);
    }

    #[test]
    fn ratio_is_monotone_in_threshold() {
        let ids: Vec<u32> = (0..50).step_by(3).collect();
        let a = block_activity(&ids, 100, Bytes(64), Bytes(256));
        let mut prev = 1.0;
        for t in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let r = a.explicit_ratio(t);
            assert!(r <= prev + 1e-12, "ratio must fall with threshold");
            prev = r;
        }
    }

    #[test]
    fn last_partial_block_fraction() {
        // 5 rows, 2 rows/block → blocks of 2,2,1.
        let a = block_activity(&[4], 5, Bytes(64), Bytes(128));
        assert_eq!(a.active_fraction(2), 1.0, "single-row block fully active");
    }

    #[test]
    fn huge_rows_get_one_per_block() {
        // Row larger than a block still yields ≥ 1 row per block.
        let a = block_activity(&[0, 1], 3, Bytes(4096), Bytes(1024));
        assert_eq!(a.rows_per_block, 1);
        assert_eq!(a.num_blocks(), 3);
    }

    #[test]
    fn zero_byte_rows_share_one_block() {
        let a = block_activity(&[0, 2, 2], 5, Bytes(0), Bytes(128));
        assert_eq!((a.rows_per_block, a.num_blocks()), (5, 1));
        assert_eq!(a.active, vec![2]);
    }

    #[test]
    fn no_accesses_no_explicit_blocks() {
        let a = block_activity(&[], 10, Bytes(64), Bytes(128));
        assert_eq!(a.explicit_ratio(0.1), 0.0);
    }
}
