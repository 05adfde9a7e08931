//! Data-transfer methods and their cost models (§7.2–§7.3.1).
//!
//! Three methods, matching the paper's taxonomy:
//!
//! * **extract-load** (explicit) — the CPU gathers scattered feature rows
//!   into a staging buffer, then one bulk `cudaMemcpy`-style DMA moves it at
//!   full PCIe bandwidth. The gather pays for random memory access; the DMA
//!   is as fast as the bus allows.
//! * **zero-copy** (UVA implicit) — GPU threads read host memory directly;
//!   no gather, but fine-grained PCIe transactions cannot saturate the bus
//!   (modelled as a bandwidth-efficiency discount).
//! * **hybrid** (HyTGraph \[51\]) — per 256 KB block: explicit when the
//!   block's active fraction reaches a threshold (transferring the whole
//!   block), zero-copy otherwise. §7.3.1 concludes this does *not* help GNN
//!   training because sampled accesses are uniformly fragmented.

use crate::blocks::BlockActivity;
use crate::link::LinkModel;
use gnn_dm_trace::convert::{u64_of_u32, u64_of_usize};
use gnn_dm_trace::units::{Bytes, BytesPerSec, Seconds};

/// The transfer workload of one mini-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchTransfer {
    /// Feature rows that must reach the GPU (after cache filtering).
    pub rows: usize,
    /// Bytes per feature row.
    pub row_bytes: Bytes,
    /// Bytes of sampled-subgraph topology (always moved in bulk).
    pub topo_bytes: Bytes,
}

impl BatchTransfer {
    /// Total feature bytes.
    pub fn feature_bytes(&self) -> Bytes {
        self.row_bytes * u64_of_usize(self.rows)
    }
}

/// Which transfer method to price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferMethod {
    /// Gather into staging, then bulk DMA.
    ExtractLoad,
    /// UVA zero-copy direct access.
    ZeroCopy,
    /// HyTGraph-style per-block selection with the given active-fraction
    /// threshold.
    Hybrid {
        /// Minimum active fraction for a block to go explicit.
        threshold: f64,
    },
}

impl TransferMethod {
    /// Display name used in Figure 13.
    pub fn name(&self) -> &'static str {
        match self {
            TransferMethod::ExtractLoad => "extract-load",
            TransferMethod::ZeroCopy => "zero-copy",
            TransferMethod::Hybrid { .. } => "hybrid",
        }
    }
}

/// Cost breakdown of one batch transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReport {
    /// CPU time spent gathering scattered rows into staging.
    pub gather_sec: Seconds,
    /// Bus time.
    pub link_sec: Seconds,
    /// Bytes that crossed the PCIe bus.
    pub bytes: Bytes,
}

impl TransferReport {
    /// Total transfer-stage time.
    pub fn total(&self) -> Seconds {
        self.gather_sec + self.link_sec
    }
}

/// The calibrated transfer cost model.
///
/// Calibration targets the paper's measured ratios: feature extraction is
/// 31.2% and data loading 42.2% of baseline training time (Fig. 2), and
/// zero-copy yields ≈ 1.74× end-to-end over extract-load (Fig. 13).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferEngine {
    /// The CPU→GPU bus.
    pub pcie: LinkModel,
    /// Effective bandwidth of CPU random row gathering. Far below memcpy
    /// speed because every row is a cache-missing random access.
    pub gather_bandwidth: BytesPerSec,
    /// Fixed per-row gather overhead (pointer chase + bounds).
    pub gather_row_overhead: Seconds,
    /// Fraction of peak PCIe bandwidth zero-copy sustains.
    pub zero_copy_efficiency: f64,
}

impl Default for TransferEngine {
    fn default() -> Self {
        TransferEngine {
            pcie: LinkModel::pcie_gen3_x16(),
            gather_bandwidth: BytesPerSec(6.0e9),
            gather_row_overhead: Seconds(80.0e-9),
            zero_copy_efficiency: 0.70,
        }
    }
}

impl TransferEngine {
    /// The PCIe link at the zero-copy efficiency discount. An invalid
    /// configured `zero_copy_efficiency` (only reachable by mutating the
    /// public field) falls back to the full-efficiency link rather than
    /// panicking on the hot path.
    fn zero_copy_link(&self) -> LinkModel {
        self.pcie
            .with_efficiency(self.zero_copy_efficiency)
            .unwrap_or_else(|_| self.pcie.clone())
    }

    /// Prices one batch under the chosen method. `activity` is required for
    /// [`TransferMethod::Hybrid`] (per-block decisions) and ignored
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `Hybrid` is requested without block activity.
    pub fn time(
        &self,
        method: TransferMethod,
        batch: &BatchTransfer,
        activity: Option<&BlockActivity>,
    ) -> TransferReport {
        match method {
            TransferMethod::ExtractLoad => self.time_extract_load(batch),
            TransferMethod::ZeroCopy => self.time_zero_copy(batch),
            TransferMethod::Hybrid { threshold } => {
                #[expect(clippy::expect_used, reason = "documented precondition: the `# Panics` doc requires activity")]
                let activity = activity.expect("hybrid transfer needs block activity");
                self.time_hybrid(batch, activity, threshold)
            }
        }
    }

    /// Explicit gather + bulk DMA.
    pub fn time_extract_load(&self, batch: &BatchTransfer) -> TransferReport {
        let fb = batch.feature_bytes();
        let gather_sec = fb / self.gather_bandwidth + self.gather_row_overhead * batch.rows as f64;
        let bytes = fb + batch.topo_bytes;
        let link_sec = self.pcie.transfer_time(bytes);
        TransferReport { gather_sec, link_sec, bytes }
    }

    /// UVA zero-copy: no gather; features cross at reduced efficiency.
    /// Topology still moves in bulk (it is packed by construction).
    pub fn time_zero_copy(&self, batch: &BatchTransfer) -> TransferReport {
        let zc = self.zero_copy_link();
        let link_sec =
            zc.transfer_time(batch.feature_bytes()) + self.pcie.transfer_time(batch.topo_bytes);
        TransferReport {
            gather_sec: Seconds(0.0),
            link_sec,
            bytes: batch.feature_bytes() + batch.topo_bytes,
        }
    }

    /// HyTGraph-style hybrid: dense blocks go explicit (whole block moved in
    /// bulk, inactive rows included), sparse blocks go zero-copy.
    pub fn time_hybrid(
        &self,
        batch: &BatchTransfer,
        activity: &BlockActivity,
        threshold: f64,
    ) -> TransferReport {
        let mut explicit_rows_active = 0u64;
        let mut explicit_rows_total = 0u64;
        let mut zc_rows = 0u64;
        for b in 0..activity.num_blocks() {
            if activity.active[b] == 0 {
                continue;
            }
            if activity.active_fraction(b) >= threshold {
                explicit_rows_active += u64_of_u32(activity.active[b]);
                explicit_rows_total += u64_of_usize(activity.rows_in_block(b));
            } else {
                zc_rows += u64_of_u32(activity.active[b]);
            }
        }
        let gather_sec = batch.row_bytes * explicit_rows_active / self.gather_bandwidth
            + self.gather_row_overhead * explicit_rows_active as f64;
        let explicit_bytes = batch.row_bytes * explicit_rows_total;
        let zc_bytes = batch.row_bytes * zc_rows;
        let zc = self.zero_copy_link();
        let link_sec = self.pcie.transfer_time(explicit_bytes + batch.topo_bytes)
            + zc.transfer_time(zc_bytes);
        TransferReport {
            gather_sec,
            link_sec,
            bytes: explicit_bytes + zc_bytes + batch.topo_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::block_activity;

    fn batch() -> BatchTransfer {
        BatchTransfer { rows: 10_000, row_bytes: Bytes(2408), topo_bytes: Bytes(500_000) }
    }

    #[test]
    fn zero_copy_beats_extract_load_on_fragmented_batches() {
        let e = TransferEngine::default();
        let el = e.time_extract_load(&batch());
        let zc = e.time_zero_copy(&batch());
        assert!(zc.total() < el.total(), "zc {:?} vs el {:?}", zc.total(), el.total());
        assert!(zc.gather_sec.0.abs() < 1e-12, "zero-copy has no gather stage");
        assert!(el.gather_sec > Seconds(0.0));
    }

    #[test]
    fn extract_load_bus_time_is_minimal() {
        // Extract-load moves the same bytes at full efficiency, so its pure
        // link time must be below zero-copy's.
        let e = TransferEngine::default();
        let el = e.time_extract_load(&batch());
        let zc = e.time_zero_copy(&batch());
        assert!(el.link_sec < zc.link_sec);
        assert_eq!(el.bytes, zc.bytes);
    }

    #[test]
    fn hybrid_with_zero_threshold_is_all_explicit() {
        let e = TransferEngine::default();
        // All 100 rows in blocks of 10 rows, every row active.
        let ids: Vec<u32> = (0..100).collect();
        let act = block_activity(&ids, 100, Bytes(100), Bytes(1000));
        let b = BatchTransfer { rows: 100, row_bytes: Bytes(100), topo_bytes: Bytes(0) };
        let hy = e.time_hybrid(&b, &act, 0.0);
        assert!(hy.gather_sec > Seconds(0.0), "dense blocks gather");
        // Fully active blocks: explicit bytes == active bytes.
        assert_eq!(hy.bytes, Bytes(100 * 100));
    }

    #[test]
    fn hybrid_with_impossible_threshold_is_all_zero_copy() {
        let e = TransferEngine::default();
        let ids: Vec<u32> = (0..100).step_by(10).collect();
        let act = block_activity(&ids, 100, Bytes(100), Bytes(1000));
        let b = BatchTransfer { rows: 10, row_bytes: Bytes(100), topo_bytes: Bytes(0) };
        let hy = e.time_hybrid(&b, &act, 1.1);
        let zc = e.time_zero_copy(&b);
        assert!((hy.total() - zc.total()).0.abs() < 1e-12);
        assert_eq!(hy.gather_sec, Seconds(0.0));
    }

    #[test]
    fn hybrid_explicit_moves_whole_blocks() {
        let e = TransferEngine::default();
        // One row active out of 10 per block, threshold 0.05 → explicit,
        // dragging 9 inactive rows per block across the bus.
        let ids: Vec<u32> = (0..100).step_by(10).collect();
        let act = block_activity(&ids, 100, Bytes(100), Bytes(1000));
        let b = BatchTransfer { rows: 10, row_bytes: Bytes(100), topo_bytes: Bytes(0) };
        let hy = e.time_hybrid(&b, &act, 0.05);
        assert_eq!(hy.bytes, Bytes(100 * 100), "whole blocks moved");
        let zc = e.time_zero_copy(&b);
        assert!(zc.bytes < hy.bytes);
    }

    #[test]
    fn paper_calibration_end_to_end_gain_in_band() {
        // Fig. 13: zero-copy gives ≈ 1.74× end-to-end where DT was ≈ 73% of
        // the epoch (Fig. 2: 31.2% extract + 42.2% load). Reconstruct the
        // epoch from those proportions and check the modelled gain lands in
        // a plausible band around the paper's number.
        let e = TransferEngine::default();
        let el = e.time_extract_load(&batch());
        let zc = e.time_zero_copy(&batch());
        // Other (BP + NN) time scaled so DT is 73.4% of the baseline epoch.
        let other = el.total() * (1.0 - 0.734) / 0.734;
        let gain = (other + el.total()) / (other + zc.total());
        assert!((1.3..=2.3).contains(&gain), "end-to-end gain {gain}");
    }

    #[test]
    fn method_names() {
        assert_eq!(TransferMethod::ExtractLoad.name(), "extract-load");
        assert_eq!(TransferMethod::Hybrid { threshold: 0.5 }.name(), "hybrid");
    }
}
