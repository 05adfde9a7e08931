//! What one warm simulated cluster epoch allocates, counted by a global
//! allocator.
//!
//! Only the thread that opts in is counted, and the epoch runs under
//! `with_threads(1, ..)`, so every worker's closure runs inline on the
//! counting thread and the count is the same on every run. The pin is
//! exact: a buffer that starts to be allocated per batch or per sampled
//! vertex in a worker's loop changes it.

use gnn_dm_cluster::ClusterSim;
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_partition::metis::{metis_extend, MetisVariant};
use gnn_dm_sampling::FanoutSampler;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;

/// Epoch 1 of four workers on a 2 000-vertex planted graph under Metis-V,
/// 32-seed batches and fanout (10, 5), after epoch 0 warmed the process.
#[test]
fn a_warm_cluster_epoch_allocation_count_is_pinned() {
    let g = planted_partition(&PplConfig { n: 2_000, avg_degree: 12.0, num_classes: 4, ..Default::default() });
    let part = metis_extend(&g, MetisVariant::V, 4, 3);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 32, seed: 5 };
    let sampler = FanoutSampler::new(vec![10, 5]);
    let (report, tally) = gnn_dm_par::with_threads(1, || {
        let _ = sim.simulate_epoch(&sampler, 0);
        counted(|| sim.simulate_epoch(&sampler, 1))
    });
    assert_eq!(report.num_batches.iter().sum::<usize>(), 42);
    assert_eq!((tally.allocs, tally.reallocs), (434, 85));
}
