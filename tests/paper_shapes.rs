//! Fast assertions of the paper's headline result *shapes* — miniature
//! versions of the figures, run as tests so regressions in any substrate
//! surface as failures here.

use gnn_dm::cluster::ClusterSim;
use gnn_dm::core::breakdown::{dnn_breakdown, gnn_breakdown};
use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm::partition::{metrics, partition_graph, PartitionMethod};
use gnn_dm::sampling::FanoutSampler;

fn load_graph() -> gnn_dm::graph::Graph {
    DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(2500, 42)
}

/// Figure 2's core claim: data management dominates GNN training while NN
/// computation dominates DNN training.
#[test]
fn fig2_shape_gnn_vs_dnn() {
    let g = DatasetSpec::get(DatasetId::Reddit).generate_scaled(2500, 42);
    let gnn = gnn_breakdown(&g, 256, vec![25, 10]);
    let [_, bp, dt, nn] = gnn.fractions();
    assert!(bp + dt > 0.6, "GNN data management fraction {bp} + {dt}");
    assert!(dt > nn, "GNN transfer {dt} vs compute {nn}");
    let dnn = dnn_breakdown(&g, 256, 128);
    let [_, _, ddt, dnn_nn] = dnn.fractions();
    assert!(dnn_nn > 0.5, "DNN compute fraction {dnn_nn}");
    assert!(dnn_nn > ddt);
}

/// Figures 4/5's core orderings across partitioning methods.
#[test]
fn fig4_fig5_shape_partitioning_loads() {
    let g = load_graph();
    let sampler = FanoutSampler::new(vec![10, 5]);
    let run = |method| {
        let part = partition_graph(&g, method, 4, 7);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 128, seed: 3 };
        (sim.simulate_epoch(&sampler, 0), part)
    };
    let (hash, _) = run(PartitionMethod::Hash);
    let (metis, _) = run(PartitionMethod::MetisV);
    let (stream_v, pv) = run(PartitionMethod::StreamV);

    // Hash: balanced compute, highest comm volume.
    assert!(hash.compute.imbalance() < 1.1, "hash compute imbalance");
    assert!(hash.comm.total_volume() > metis.comm.total_volume());
    // Metis: lowest total compute (neighbor sharing).
    assert!(metis.compute.grand_total() < hash.compute.grand_total());
    // Stream-V: zero communication, replication > 1.
    assert_eq!(stream_v.comm.total_volume(), 0);
    assert!(pv.replication_factor() > 1.2);
}

/// Table 3's goal matrix, spot-checked: Metis beats Hash on locality
/// (goal 1) while Hash beats streaming on compute balance (goal 2).
#[test]
fn table3_shape_goal_matrix() {
    let g = load_graph();
    let hash = partition_graph(&g, PartitionMethod::Hash, 4, 1);
    let metis = partition_graph(&g, PartitionMethod::MetisVE, 4, 1);
    let lh = metrics::l_hop_locality(&g, &hash, 2, 100);
    let lm = metrics::l_hop_locality(&g, &metis, 2, 100);
    assert!(lm > lh, "metis locality {lm} vs hash {lh}");
    let cut_h = metrics::edge_cut(&g, &hash);
    let cut_m = metrics::edge_cut(&g, &metis);
    assert!(cut_m < cut_h, "metis cut {cut_m} vs hash {cut_h}");
}

/// §5.3.3's cost ordering: hash ≪ metis ≪ streaming partitioning time.
#[test]
fn fig6_shape_partition_cost_ordering() {
    use std::time::Instant;
    let g = load_graph();
    let time_of = |method| {
        #[expect(clippy::disallowed_methods, reason = "Figure 6 asserts a wall-clock cost *ordering*, not absolute times")]
        let start = Instant::now();
        let _ = partition_graph(&g, method, 4, 7);
        start.elapsed().as_secs_f64()
    };
    let t_hash = time_of(PartitionMethod::Hash);
    let t_metis = time_of(PartitionMethod::MetisVE);
    let t_stream = time_of(PartitionMethod::StreamV);
    assert!(t_hash < t_metis, "hash {t_hash} vs metis {t_metis}");
    assert!(t_metis < t_stream, "metis {t_metis} vs stream {t_stream}");
}

/// Figure 17's robustness claim: the pre-sampling policy never does
/// materially worse than degree-based, on either graph shape.
#[test]
fn fig17_shape_presample_robust() {
    use gnn_dm::core::trainer::{HeteroTrainer, HeteroTrainerConfig};
    use gnn_dm::device::cache::CachePolicy;
    use gnn_dm::device::transfer::TransferMethod;
    for id in [DatasetId::Amazon, DatasetId::OgbPapers] {
        let mut g = DatasetSpec::get(id).generate_scaled(4000, 42);
        g.split = gnn_dm::graph::SplitMask::random(g.num_vertices(), 0.08, 0.1, 0.82, 7);
        let hit = |policy| {
            let mut cfg = HeteroTrainerConfig::baseline(&g, 64);
            cfg.fanouts = vec![10, 5];
            cfg.transfer = TransferMethod::ZeroCopy;
            cfg.cache_policy = Some(policy);
            cfg.cache_ratio = 0.2;
            cfg.presample_epochs = 3;
            HeteroTrainer::new(&g, cfg).run_epoch_model(0).cache_hit_rate
        };
        let degree = hit(CachePolicy::Degree);
        let sample = hit(CachePolicy::PreSample);
        assert!(
            sample >= degree - 0.02,
            "{id:?}: pre-sampling {sample} should not lose to degree {degree}"
        );
    }
}
