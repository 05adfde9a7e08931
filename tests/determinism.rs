//! Cross-crate determinism: every stochastic component must be bit-for-bit
//! reproducible from its seed, because every experiment in EXPERIMENTS.md
//! claims reproducibility.

use gnn_dm::core::config::ModelKind;
use gnn_dm::core::convergence::train_single;
use gnn_dm::core::trainer::{HeteroTrainer, HeteroTrainerConfig};
use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::partition::{partition_graph, PartitionMethod};
use gnn_dm::sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};

fn cfg() -> PplConfig {
    PplConfig { n: 500, avg_degree: 8.0, num_classes: 4, feat_dim: 8, ..Default::default() }
}

#[test]
fn generators_are_deterministic() {
    let a = planted_partition(&cfg());
    let b = planted_partition(&cfg());
    assert_eq!(a.out, b.out);
    assert_eq!(a.features, b.features);
    assert_eq!(a.labels, b.labels);
    let d1 = DatasetSpec::get(DatasetId::Amazon).generate_scaled(300, 5);
    let d2 = DatasetSpec::get(DatasetId::Amazon).generate_scaled(300, 5);
    assert_eq!(d1.out, d2.out);
}

#[test]
fn partitioners_are_deterministic() {
    let g = planted_partition(&cfg());
    for method in PartitionMethod::all() {
        let a = partition_graph(&g, method, 4, 9);
        let b = partition_graph(&g, method, 4, 9);
        assert_eq!(a, b, "{method:?} must be deterministic");
    }
}

#[test]
fn training_is_deterministic() {
    let g = planted_partition(&cfg());
    let sampler = FanoutSampler::new(vec![5, 3]);
    let run = || {
        train_single(
            &g,
            ModelKind::Gcn,
            16,
            &sampler,
            &BatchSelection::Random,
            &BatchSizeSchedule::Fixed(64),
            0.01,
            3,
            7,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.best_acc, b.best_acc);
}

#[test]
fn hetero_epoch_model_is_deterministic() {
    let g = DatasetSpec::get(DatasetId::LiveJournal).generate_scaled(2000, 3);
    let run = || {
        let cfg = HeteroTrainerConfig::baseline(256);
        HeteroTrainer::new(&g, cfg).run_epoch_model(2)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let g1 = planted_partition(&PplConfig { seed: 1, ..cfg() });
    let g2 = planted_partition(&PplConfig { seed: 2, ..cfg() });
    assert_ne!(g1.out, g2.out);
    let p1 = partition_graph(&g1, PartitionMethod::Hash, 4, 1);
    let p2 = partition_graph(&g1, PartitionMethod::Hash, 4, 2);
    assert_ne!(p1.assignment, p2.assignment);
}
