//! Property-based tests of the device cost models.

use gnn_dm_device::blocks::block_activity;
use gnn_dm_device::cache::FeatureCache;
use gnn_dm_device::link::LinkModel;
use gnn_dm_device::memory::{rows_for_ratio, CACHE_BUDGET};
use gnn_dm_device::pipeline::{
    makespan, makespan_with_contention, BatchStageTimes, PipelineMode,
};
use gnn_dm_device::transfer::{BatchTransfer, TransferEngine, TransferMethod};
use gnn_dm_device::{Bytes, Seconds};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Link transfer time is monotone in bytes and superadditive under
    /// splitting (two transfers pay latency twice).
    #[test]
    #[expect(clippy::disallowed_methods, reason = "properties of the raw cost models price them directly")]
    fn link_monotone_and_superadditive(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let link = LinkModel::pcie_gen3_x16();
        let (a, b) = (Bytes(a), Bytes(b));
        prop_assert!(link.transfer_time(a.max(b)) >= link.transfer_time(a.min(b)));
        let together = link.transfer_time(a + b);
        let split = link.transfer_time(a) + link.transfer_time(b);
        prop_assert!(split >= together - Seconds(1e-12));
    }

    /// Extract-load vs zero-copy: extract-load always has the lower pure
    /// bus time (full efficiency), zero-copy always has zero gather.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "properties of the raw cost models price them directly")]
    fn transfer_methods_structural(
        rows in 0usize..100_000,
        row_bytes in 4u64..4096,
        topo in 0u64..10_000_000,
    ) {
        let e = TransferEngine::default();
        let bt = BatchTransfer { rows, row_bytes: Bytes(row_bytes), topo_bytes: Bytes(topo) };
        let el = e.time(TransferMethod::ExtractLoad, &bt, None);
        let zc = e.time(TransferMethod::ZeroCopy, &bt, None);
        prop_assert_eq!(zc.gather_sec, Seconds(0.0));
        prop_assert!(el.link_sec <= zc.link_sec + Seconds(1e-12));
        prop_assert_eq!(el.bytes, zc.bytes);
        prop_assert!(el.total() >= Seconds(0.0) && zc.total() >= Seconds(0.0));
    }

    /// Hybrid transfer at threshold 0 degenerates to explicit-on-touched
    /// blocks; above 1.0 it degenerates to zero-copy.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "properties of the raw cost models price them directly")]
    fn hybrid_degenerate_thresholds(
        ids_raw in proptest::collection::vec(0u32..5000, 1..200),
        row_bytes in 32u64..512,
    ) {
        let n = 5000;
        let (e, row_bytes) = (TransferEngine::default(), Bytes(row_bytes));
        let act = block_activity(&ids_raw, n, row_bytes, Bytes(256 * 1024));
        let mut distinct = ids_raw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let bt = BatchTransfer { rows: distinct.len(), row_bytes, topo_bytes: Bytes(0) };
        let all_zc = e.time(TransferMethod::Hybrid { threshold: 1.1 }, &bt, Some(&act));
        let zc = e.time(TransferMethod::ZeroCopy, &bt, None);
        prop_assert!((all_zc.total() - zc.total()).0.abs() < 1e-12);
        let all_explicit = e.time(TransferMethod::Hybrid { threshold: 0.0 }, &bt, Some(&act));
        // Whole touched blocks move: bytes ≥ the active rows' bytes.
        prop_assert!(all_explicit.bytes >= bt.feature_bytes());
    }

    /// Contention makespan interpolates between ideal and sequential.
    #[test]
    fn contention_interpolates(
        stages in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let batches: Vec<BatchStageTimes> =
            stages.iter().map(|&(bp, dt, nn)| BatchStageTimes { bp, dt, nn }).collect();
        let seq = makespan(&batches, PipelineMode::None);
        let ideal = makespan(&batches, PipelineMode::Full);
        let real = makespan_with_contention(seq, ideal);
        prop_assert!(real <= seq + 1e-9);
        prop_assert!(real >= ideal - 1e-9);
    }

    /// Cache accounting: hits + misses equals accesses; misses are exactly
    /// the non-cached ids in order.
    #[test]
    fn cache_accounting(
        capacity in 0usize..50,
        ids in proptest::collection::vec(0u32..100, 0..300),
    ) {
        let ranking: Vec<u32> = (0..100).collect();
        let mut cache = FeatureCache::from_ranking(&ranking, 100, capacity);
        let misses = cache.filter_misses(&ids);
        prop_assert_eq!(cache.hits() + cache.misses(), ids.len() as u64);
        let expected: Vec<u32> = ids.iter().copied().filter(|&v| v as usize >= capacity).collect();
        prop_assert_eq!(misses, expected);
    }

    /// Cache sizing at the T4 budget never over-allocates: it takes the
    /// rows the ratio asks for when they fit, and fills the budget to
    /// within one row when they do not (n · ratio · row_bytes > 13 GiB).
    /// A zero-byte row is drawn one time in four.
    #[test]
    fn memory_budget_safe(
        n in 0usize..50_000_000,
        row_bytes in (0u32..4, 1u64..8192).prop_map(|(z, b)| if z == 0 { 0 } else { b }),
        ratio_pct in 0u32..=100,
    ) {
        let ratio = ratio_pct as f64 / 100.0;
        let rows = rows_for_ratio(n, Bytes(row_bytes), ratio);
        let want = (n as f64 * ratio).round() as usize;
        prop_assert!(rows <= want && want <= n);
        let used = row_bytes * rows as u64;
        prop_assert!(used <= CACHE_BUDGET.0);
        if rows < want {
            prop_assert!(CACHE_BUDGET.0 - used < row_bytes, "memory-limited but not full");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The hybrid transfer report's bytes never exceed explicit whole-array
    /// movement and never undercut the zero-copy minimum.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "properties of the raw cost models price them directly")]
    fn hybrid_byte_bounds(
        ids_raw in proptest::collection::vec(0u32..2000, 1..150),
        threshold in 0.0f64..1.0,
    ) {
        let n = 2000;
        let row_bytes = Bytes(256);
        let e = TransferEngine::default();
        let act = block_activity(&ids_raw, n, row_bytes, Bytes(256 * 1024));
        let mut distinct = ids_raw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let bt = BatchTransfer { rows: distinct.len(), row_bytes, topo_bytes: Bytes(0) };
        let hy = e.time(TransferMethod::Hybrid { threshold }, &bt, Some(&act));
        prop_assert!(hy.bytes >= bt.feature_bytes(), "must move at least the active rows");
        prop_assert!(hy.bytes <= row_bytes * n as u64, "cannot exceed the whole array");
    }
}
