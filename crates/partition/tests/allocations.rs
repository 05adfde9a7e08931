//! The most heap Metis holds at once, counted by a global allocator.
//!
//! Only the thread that opts in is counted, and the run is pinned to one
//! thread, so every allocation of the partitioner is made — and counted —
//! on the calling thread, and the high-water mark is the same on every run.

use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_partition::metis::{metis_extend, MetisVariant};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;

/// Metis-VET (k = 4, seed 7) on the benchmark's `cluster_epoch` graph, a
/// 20 000-vertex Products stand-in with 623 594 adjacency entries, holds at
/// most 9 MB at once: 8 792 464 B when this was written. A hierarchy that
/// holds every level at once, with a weighted copy of the graph's rows as
/// its finest level and `f64` constraint vectors, peaked at 20 956 221 B.
#[test]
fn metis_vet_heap_high_water_mark() {
    let g = DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(20_000, 42);
    let (p, tally) =
        gnn_dm_par::with_threads(1, || counted(|| metis_extend(&g, MetisVariant::VET, 4, 7)));
    assert_eq!(p.assignment.len(), g.num_vertices());
    assert!(tally.peak_bytes <= 9_000_000, "{tally:?}");
}
