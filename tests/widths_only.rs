//! The simulators price feature rows by their width and never read a value:
//! partitioning, the cluster simulator and the transfer-model trainer leave
//! a generated graph's deferred feature table unbuilt. A stray value read in
//! any of them would build the whole table — 92 MiB for the 40 000 × 600
//! LiveJournal stand-in the `hetero_transfer` benchmark prices — and fails
//! here instead.

use gnn_dm::cluster::ClusterSim;
use gnn_dm::core::trainer::{HeteroTrainer, HeteroTrainerConfig};
use gnn_dm::device::cache::CachePolicy;
use gnn_dm::device::pipeline::PipelineMode;
use gnn_dm::device::transfer::TransferMethod;
use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm::graph::Graph;
use gnn_dm::partition::{partition_graph, PartitionMethod};
use gnn_dm::sampling::FanoutSampler;

fn graph() -> Graph {
    let g = DatasetSpec::get(DatasetId::LiveJournal).generate_scaled(2_000, 3);
    assert!(!g.features.is_materialized(), "generation builds no feature table");
    assert!(g.feat_dim() > 0);
    g
}

#[test]
fn partitioners_and_the_cluster_simulator_read_widths_only() {
    let g = graph();
    let sampler = FanoutSampler::new(vec![10, 5]);
    let mut received = 0u64;
    for method in PartitionMethod::all() {
        let part = partition_graph(&g, method, 4, 1);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 2 };
        let report = sim.simulate_epoch(&sampler, 0);
        assert!(report.num_batches.iter().sum::<usize>() > 0, "{method:?} ran no batches");
        received += report.comm.bytes_received.iter().map(|b| b.0).sum::<u64>();
    }
    assert!(received > 0, "no partitioning moved a feature row");
    assert!(!g.features.is_materialized(), "a partitioner or the cluster simulator read a value");
}

#[test]
fn the_transfer_model_trainer_reads_widths_only() {
    let g = graph();
    let transfers =
        [TransferMethod::ExtractLoad, TransferMethod::ZeroCopy, TransferMethod::Hybrid { threshold: 0.5 }];
    let caches = [
        None,
        Some(CachePolicy::Degree { ratio: 0.3 }),
        Some(CachePolicy::PreSample { ratio: 0.3, epochs: 1 }),
    ];
    for transfer in transfers {
        for cache_policy in caches {
            let cfg = HeteroTrainerConfig {
                fanouts: vec![10, 5],
                transfer,
                pipeline: PipelineMode::Full,
                cache_policy,
                ..HeteroTrainerConfig::baseline(256)
            };
            let timings = HeteroTrainer::new(&g, cfg).run_epoch_model(0);
            assert!(timings.pcie_bytes > 0, "{transfer:?} {cache_policy:?} moved no features");
        }
    }
    assert!(!g.features.is_materialized(), "the transfer model read a value");
}
