//! Time-to-accuracy runners (§5.3.4 and all of §6's convergence
//! comparisons).
//!
//! Every convergence experiment trains a *real* model to convergence and
//! pairs each epoch with a modelled wall-clock duration, so "convergence
//! speed" means what it means in the paper: simulated seconds until the
//! validation accuracy first reaches a target.

use crate::config::ModelKind;
use gnn_dm_cluster::dist::dist_train_epoch;
use gnn_dm_cluster::sim::{ClusterSim, TimeModel};
use gnn_dm_device::compute;
use gnn_dm_device::transfer::{BatchTransfer, TransferEngine, TransferMethod};
use gnn_dm_trace::units::Bytes;
use gnn_dm_graph::Graph;
use gnn_dm_nn::optim::Adam;
use gnn_dm_nn::train::{evaluate, train_epoch};
use gnn_dm_nn::{AggKind, GnnModel};
use gnn_dm_partition::GnnPartitioning;
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::sampler::NeighborSampler;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, BYTES_PER_EDGE};

/// One epoch on a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Epoch index (0-based; the point records state *after* the epoch).
    pub epoch: usize,
    /// Cumulative simulated seconds.
    pub sim_time: f64,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Mean training loss of the epoch.
    pub train_loss: f32,
}

/// A full convergence run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceResult {
    /// Per-epoch curve.
    pub curve: Vec<CurvePoint>,
    /// Best validation accuracy seen.
    pub best_acc: f64,
    /// Final test accuracy (model at the last epoch).
    pub test_acc: f64,
}

impl ConvergenceResult {
    /// First simulated time at which validation accuracy reached `target`
    /// (`None` if never).
    pub fn time_to(&self, target: f64) -> Option<f64> {
        self.curve.iter().find(|p| p.val_acc >= target).map(|p| p.sim_time)
    }

    /// First epoch at which validation accuracy reached `target`.
    pub fn epochs_to(&self, target: f64) -> Option<usize> {
        self.curve.iter().find(|p| p.val_acc >= target).map(|p| p.epoch + 1)
    }
}

impl ModelKind {
    /// The aggregation family this model kind uses.
    pub fn agg(self) -> AggKind {
        match self {
            ModelKind::Gcn => AggKind::Gcn,
            ModelKind::Sage => AggKind::SageMean,
        }
    }
}

/// Models the wall-clock of one single-node epoch from its batch
/// statistics: CPU sampling + extract-load transfer + GPU compute, fully
/// pipelined (the bound is the slowest stage).
pub fn modeled_epoch_seconds(
    graph: &Graph,
    involved_vertices: usize,
    involved_edges: usize,
    hidden: usize,
) -> f64 {
    let bp = involved_edges as f64 * compute::SAMPLE_SECONDS_PER_EDGE
        + involved_vertices as f64 * compute::SAMPLE_SECONDS_PER_VERTEX;
    let engine = TransferEngine::default();
    let bt = BatchTransfer {
        rows: involved_vertices,
        row_bytes: Bytes(graph.features.row_bytes() as u64),
        topo_bytes: Bytes(involved_edges as u64 * BYTES_PER_EDGE),
    };
    #[expect(clippy::disallowed_methods, reason = "an analytic time-to-accuracy axis, with no timeline by design")]
    let dt = engine.time(TransferMethod::ExtractLoad, &bt, None).total().0;
    let flops = compute::aggregation_flops(involved_edges as u64, graph.feat_dim(), hidden);
    let nn = compute::gpu_seconds(flops);
    // Pipelined: bounded by the slowest stage (plus the serial remainder,
    // approximated by a 10% startup margin).
    bp.max(dt).max(nn) * 1.1
}

/// Single-node convergence run with arbitrary batch selection, schedule and
/// sampler — the engine behind Figures 9–12 and Tables 6–8.
///
/// # Panics
///
/// The model always has two layers (`feat_dim → hidden → num_classes`), so
/// `sampler` must draw exactly two hops; a sampler with any other depth
/// builds batches the model cannot consume and panics in the forward pass.
#[allow(clippy::too_many_arguments, reason = "one positional knob per paper axis; the figure drivers name each at the call site")]
pub fn train_single(
    graph: &Graph,
    kind: ModelKind,
    hidden: usize,
    sampler: &(dyn NeighborSampler + Sync),
    selection: &BatchSelection,
    schedule: &BatchSizeSchedule,
    lr: f32,
    epochs: usize,
    seed: u64,
) -> ConvergenceResult {
    let mut model = GnnModel::new(
        kind.agg(),
        &[graph.feat_dim(), hidden, graph.num_classes],
        seed,
    );
    let mut opt = Adam::new(lr);
    let train = graph.train_vertices();
    let val = graph.val_vertices();
    let plan = EpochPlan { in_csr: &graph.inn, train: &train, selection, schedule, sampler, seed };
    let mut curve = Vec::with_capacity(epochs);
    let mut best_acc = 0.0f64;
    let mut sim_time = 0.0f64;
    for epoch in 0..epochs {
        let r = train_epoch(&mut model, &mut opt, graph, &plan, epoch);
        sim_time += modeled_epoch_seconds(graph, r.involved_vertices, r.involved_edges, hidden);
        let val_acc = evaluate(&model, graph, &val);
        best_acc = best_acc.max(val_acc);
        curve.push(CurvePoint { epoch, sim_time, val_acc, train_loss: r.mean_loss });
    }
    let test_acc = evaluate(&model, graph, &graph.test_vertices());
    ConvergenceResult { curve, best_acc, test_acc }
}

/// Full-batch convergence run (§6.2's alternative training method: every
/// training vertex participates each step, parameters update once per
/// epoch). The epoch cost is a full-graph pass: GPU compute over every
/// edge plus an extract-load of the whole feature table and topology — the
/// paper's motivation for mini-batch training is precisely that full-batch
/// state does not fit device memory, so the table streams every epoch
/// (Table 1's full-batch systems all use Extract-Load).
pub fn train_full_batch(
    graph: &Graph,
    kind: ModelKind,
    hidden: usize,
    lr: f32,
    epochs: usize,
    seed: u64,
) -> ConvergenceResult {
    let mut model = GnnModel::new(
        kind.agg(),
        &[graph.feat_dim(), hidden, graph.num_classes],
        seed,
    );
    let mut opt = Adam::new(lr);
    let val = graph.val_vertices();
    let flops = compute::aggregation_flops(graph.num_edges() as u64, graph.feat_dim(), hidden);
    let engine = TransferEngine::default();
    let bt = BatchTransfer {
        rows: graph.num_vertices(),
        row_bytes: Bytes(graph.features.row_bytes() as u64),
        topo_bytes: Bytes(graph.num_edges() as u64 * BYTES_PER_EDGE),
    };
    #[expect(clippy::disallowed_methods, reason = "an analytic time-to-accuracy axis, with no timeline by design")]
    let transfer_seconds = engine.time(TransferMethod::ExtractLoad, &bt, None).total().0;
    let epoch_seconds = (compute::gpu_seconds(flops) + transfer_seconds) * 1.1;
    let mut curve = Vec::with_capacity(epochs);
    let mut best_acc = 0.0f64;
    for epoch in 0..epochs {
        let step = gnn_dm_nn::train::full_batch_step(&mut model, &mut opt, graph);
        let val_acc = evaluate(&model, graph, &val);
        best_acc = best_acc.max(val_acc);
        curve.push(CurvePoint {
            epoch,
            sim_time: epoch_seconds * (epoch + 1) as f64,
            val_acc,
            train_loss: step.loss,
        });
    }
    let test_acc = evaluate(&model, graph, &graph.test_vertices());
    ConvergenceResult { curve, best_acc, test_acc }
}

/// Distributed convergence run under a partitioning — the engine behind
/// Figure 7, Table 4 and Figure 8. Epoch durations come from the cluster
/// simulator's load-aware time model, so partitionings with more remote
/// traffic genuinely take longer per epoch.
#[allow(clippy::too_many_arguments, reason = "one positional knob per paper axis; the figure drivers name each at the call site")]
pub fn train_distributed(
    graph: &Graph,
    part: &GnnPartitioning,
    kind: ModelKind,
    hidden: usize,
    sampler: &(dyn NeighborSampler + Sync),
    batch_size: usize,
    lr: f32,
    epochs: usize,
    seed: u64,
) -> (ConvergenceResult, f64) {
    let mut model = GnnModel::new(
        kind.agg(),
        &[graph.feat_dim(), hidden, graph.num_classes],
        seed,
    );
    let param_bytes = model.param_bytes();
    let mut opt = Adam::new(lr);
    let val = graph.val_vertices();

    // Epoch duration from the load simulation (stable across epochs; use
    // epoch 0's ledgers).
    let sim = ClusterSim { graph, part, batch_size, seed };
    let report = sim.simulate_epoch(sampler, 0);
    let tm = TimeModel::paper_default(graph.feat_dim(), hidden, param_bytes);
    let epoch_seconds = sim.epoch_time(&report, &tm);

    let mut curve = Vec::with_capacity(epochs);
    let mut best_acc = 0.0f64;
    for epoch in 0..epochs {
        let r = dist_train_epoch(&mut model, &mut opt, graph, part, sampler, batch_size, seed, epoch);
        let val_acc = evaluate(&model, graph, &val);
        best_acc = best_acc.max(val_acc);
        curve.push(CurvePoint {
            epoch,
            sim_time: epoch_seconds * (epoch + 1) as f64,
            val_acc,
            train_loss: r.mean_loss,
        });
    }
    let test_acc = evaluate(&model, graph, &graph.test_vertices());
    (ConvergenceResult { curve, best_acc, test_acc }, epoch_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_partition::{partition_graph, PartitionMethod};
    use gnn_dm_sampling::FanoutSampler;

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 700,
            avg_degree: 10.0,
            num_classes: 4,
            feat_dim: 16,
            feat_noise: 0.6,
            homophily: 0.9,
            skew: 0.5,
            seed: 77,
        })
    }

    #[test]
    fn single_node_converges_and_tracks_time() {
        let g = graph();
        let sampler = FanoutSampler::new(vec![10, 5]);
        let r = train_single(
            &g,
            ModelKind::Gcn,
            32,
            &sampler,
            &BatchSelection::Random,
            &BatchSizeSchedule::Fixed(64),
            0.01,
            8,
            3,
        );
        assert_eq!(r.curve.len(), 8);
        assert!(r.best_acc > 0.65, "best acc {}", r.best_acc);
        assert!(r.curve.windows(2).all(|w| w[1].sim_time > w[0].sim_time));
        assert!(r.time_to(0.5).is_some());
        assert!(r.time_to(1.01).is_none());
    }

    #[test]
    fn distributed_converges_and_orders_epoch_time() {
        let g = graph();
        let sampler = FanoutSampler::new(vec![10, 5]);
        let hash = partition_graph(&g, PartitionMethod::Hash, 4, 1);
        let metis = partition_graph(&g, PartitionMethod::MetisV, 4, 1);
        let (rh, th) =
            train_distributed(&g, &hash, ModelKind::Gcn, 32, &sampler, 48, 0.01, 6, 3);
        let (rm, tm) =
            train_distributed(&g, &metis, ModelKind::Gcn, 32, &sampler, 48, 0.01, 6, 3);
        assert!(rh.best_acc > 0.6, "hash acc {}", rh.best_acc);
        assert!(rm.best_acc > 0.6, "metis acc {}", rm.best_acc);
        assert!(th > tm, "hash epoch {th} should exceed metis epoch {tm}");
        // Table 4: final accuracies agree within a small band.
        assert!((rh.best_acc - rm.best_acc).abs() < 0.12);
    }

    #[test]
    fn epochs_to_finds_first_crossing() {
        let r = ConvergenceResult {
            curve: vec![
                CurvePoint { epoch: 0, sim_time: 1.0, val_acc: 0.3, train_loss: 1.0 },
                CurvePoint { epoch: 1, sim_time: 2.0, val_acc: 0.6, train_loss: 0.5 },
                CurvePoint { epoch: 2, sim_time: 3.0, val_acc: 0.5, train_loss: 0.4 },
            ],
            best_acc: 0.6,
            test_acc: 0.55,
        };
        assert_eq!(r.epochs_to(0.55), Some(2));
        assert_eq!(r.time_to(0.55), Some(2.0));
    }
}
