//! Cross-crate integration tests: the full four-step training process of
//! Figure 1 (partition → batch preparation → transfer → NN computation),
//! exercised end to end.

use gnn_dm::cluster::dist::dist_train_epoch;
use gnn_dm::cluster::ClusterSim;
use gnn_dm::core::config::ModelKind;
use gnn_dm::core::convergence::{train_distributed, train_single};
use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::harness::{Registry, SystemConfig};
use gnn_dm::nn::optim::Adam;
use gnn_dm::nn::train::evaluate;
use gnn_dm::nn::{AggKind, GnnModel};
use gnn_dm::partition::{partition_graph, PartitionMethod};
use gnn_dm::sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};

fn train_graph() -> gnn_dm::graph::Graph {
    planted_partition(&PplConfig {
        n: 600,
        avg_degree: 10.0,
        num_classes: 4,
        feat_dim: 16,
        feat_noise: 0.6,
        homophily: 0.9,
        skew: 0.5,
        seed: 9,
    })
}

#[test]
fn four_step_process_single_node() {
    let g = train_graph();
    let sampler = FanoutSampler::new(vec![8, 4]);
    let r = train_single(
        &g,
        ModelKind::Gcn,
        32,
        &sampler,
        &BatchSelection::Random,
        &BatchSizeSchedule::Fixed(64),
        0.01,
        6,
        1,
    );
    assert!(r.best_acc > 0.7, "single-node GCN accuracy {}", r.best_acc);
    assert!(r.test_acc > 0.6, "test accuracy {}", r.test_acc);
    assert!(r.curve.iter().all(|p| p.sim_time.is_finite() && p.sim_time > 0.0));
}

#[test]
fn four_step_process_distributed_every_method() {
    let g = train_graph();
    let sampler = FanoutSampler::new(vec![8, 4]);
    for method in PartitionMethod::all() {
        let part = partition_graph(&g, method, 4, 2);
        let (r, epoch_s) =
            train_distributed(&g, &part, ModelKind::Gcn, 32, &sampler, 48, 0.01, 6, 1);
        assert!(r.best_acc > 0.6, "{method:?}: accuracy {}", r.best_acc);
        assert!(epoch_s > 0.0 && epoch_s.is_finite(), "{method:?}: epoch time {epoch_s}");
    }
}

#[test]
fn sage_distributed_matches_gcn_quality() {
    let g = train_graph();
    let part = partition_graph(&g, PartitionMethod::MetisVE, 4, 2);
    let sampler = FanoutSampler::new(vec![8, 4]);
    let mut model = GnnModel::new(AggKind::SageMean, &[16, 32, 4], 3);
    let mut opt = Adam::new(0.01);
    for e in 0..6 {
        dist_train_epoch(&mut model, &mut opt, &g, &part, &sampler, 48, 5, e);
    }
    let acc = evaluate(&model, &g, &g.val_vertices());
    assert!(acc > 0.6, "SAGE distributed accuracy {acc}");
}

#[test]
fn transfer_stack_improves_monotonically() {
    // §7's optimization stack must improve at every step on a
    // transfer-bound workload.
    let g = DatasetSpec::get(DatasetId::LiveJournal).generate_scaled(4000, 11);
    let reg = Registry::builtin();
    let run = |transfer: &str, cache: &str| {
        let id = format!("hash/fanout(25,10)+fixed(512)/{transfer}/{cache}/single/none/none");
        let cfg = SystemConfig::from_id(&reg, &id).expect("stack ids resolve");
        cfg.hetero_trainer(&g).run_epoch_model(0).makespan
    };
    let base = run("extract-load", "none");
    let z = run("zero-copy", "none");
    let zp = run("zero-copy+pipe(full)", "none");
    let zpc = run("zero-copy+pipe(full)", "presample(0.3,1)");
    assert!(z < base, "zero-copy {z} vs baseline {base}");
    assert!(zp < z, "pipeline {zp} vs zero-copy {z}");
    assert!(zpc < zp, "cache {zpc} vs pipeline {zp}");
}

#[test]
fn cluster_sim_conservation() {
    // Every byte received must have been sent by someone.
    let g = train_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 1);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 32, seed: 2 };
    let sampler = FanoutSampler::new(vec![6, 3]);
    let report = sim.simulate_epoch(&sampler, 0);
    let sent: u64 = (0..4).map(|w| report.comm.worker_sent(w).0).sum();
    let received: u64 = report.comm.bytes_received.iter().map(|b| b.0).sum();
    assert_eq!(sent, received);
}

#[test]
fn dataset_registry_round_trip_through_training() {
    // Every labelled dataset stand-in must be trainable out of the box.
    for spec in DatasetSpec::labelled() {
        let g = spec.generate_scaled(400, 3);
        let sampler = FanoutSampler::new(vec![5, 3]);
        let r = train_single(
            &g,
            ModelKind::Gcn,
            16,
            &sampler,
            &BatchSelection::Random,
            &BatchSizeSchedule::Fixed(64),
            0.01,
            3,
            1,
        );
        assert!(
            r.best_acc > 1.5 / g.num_classes as f64,
            "{}: accuracy {} vs chance {}",
            spec.name,
            r.best_acc,
            1.0 / g.num_classes as f64
        );
    }
}
