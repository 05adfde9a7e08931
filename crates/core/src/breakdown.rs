//! The GNN-vs-DNN step-time breakdown of Figure 2.
//!
//! The paper's motivating observation: data-management steps (batch
//! preparation + data transferring) dominate GNN training, while NN
//! computation dominates DNN training. Both sides here share the same cost
//! models; the asymmetry emerges from the data dependencies — a GNN batch
//! drags in the L-hop sampled neighborhood (with duplication across
//! batches), a DNN batch moves exactly its own rows, contiguous after a
//! one-off permutation (no gather).

use crate::trainer::{HeteroTrainer, HeteroTrainerConfig};
use gnn_dm_device::compute::{gemm_flops, ComputeModel};
use gnn_dm_device::{traced, LinkModel};
use gnn_dm_graph::Graph;
use gnn_dm_trace::units::{Bytes, Seconds};
use gnn_dm_trace::{Resource, SpanKind, SpanMeta, Timeline};

/// Per-step times of one training epoch, in modelled seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// Data partitioning (amortized; one-off preprocessing).
    pub partition: f64,
    /// Batch preparation (sampling / shuffling).
    pub batch_prep: f64,
    /// Data transfer (gather + PCIe).
    pub transfer: f64,
    /// NN computation.
    pub nn: f64,
}

impl StepBreakdown {
    /// Total epoch time.
    pub fn total(&self) -> f64 {
        self.partition + self.batch_prep + self.transfer + self.nn
    }

    /// Fractions in step order (partition, batch prep, transfer, nn).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0.0 {
            return [0.0; 4];
        }
        [self.partition / t, self.batch_prep / t, self.transfer / t, self.nn / t]
    }
}

/// One GNN training epoch's breakdown under the §7 baseline configuration
/// (extract-load, sequential, no cache).
pub fn gnn_breakdown(graph: &Graph, batch_size: usize, fanouts: Vec<usize>) -> StepBreakdown {
    let mut cfg = HeteroTrainerConfig::baseline(batch_size);
    cfg.fanouts = fanouts;
    let mut trainer = HeteroTrainer::new(graph, cfg);
    let t = trainer.run_epoch_model(0);
    StepBreakdown {
        // Partitioning is a one-off preprocessing step; §1 says its runtime
        // is ignorable per epoch. Charge a vanishing amortized slice.
        partition: 0.0,
        batch_prep: t.bp,
        transfer: t.dt,
        nn: t.nn,
    }
}

/// One DNN (2-layer MLP on the same features) epoch's breakdown.
///
/// DNN samples are independent: batch preparation is an index shuffle, the
/// feature rows can be laid out contiguously once per epoch so transfer is
/// one bulk copy per batch, and the NN computation is the same dense math.
pub fn dnn_breakdown(graph: &Graph, batch_size: usize, hidden: usize) -> StepBreakdown {
    let n_train = graph.train_vertices().len();
    let feat = graph.feat_dim();
    let classes = graph.num_classes;
    let row_bytes = Bytes(graph.features.row_bytes() as u64);
    let pcie = LinkModel::pcie_gen3_x16();
    let gpu = ComputeModel::gpu_t4();
    let num_batches = n_train.div_ceil(batch_size.max(1));

    // Replay the epoch on the span timeline and read the breakdown off
    // the lanes: shuffle on the CPU-sampler lane, one bulk copy per batch
    // (rows are contiguous after the epoch-level permutation, so no
    // gather) on the PCIe lane, dense math on the GPU lane.
    let mut tl = Timeline::new();
    // Shuffle: ~20 ns per index.
    tl.schedule(
        Resource::CpuSampler,
        SpanKind::BatchPrep,
        0.0,
        Seconds(n_train as f64 * 20.0e-9),
        SpanMeta::default(),
    );
    for b in 0..num_batches {
        let rows = batch_size.min(n_train - b * batch_size);
        let batch = u32::try_from(b).ok();
        traced::link_transfer(
            &mut tl,
            Resource::PcieLink,
            SpanKind::Transfer,
            0.0,
            &pcie,
            row_bytes * rows as u64,
            SpanMeta { batch, ..SpanMeta::default() },
        );
        // Forward + backward + update ≈ 3× forward GEMMs.
        let fwd = gemm_flops(rows, feat, hidden) + gemm_flops(rows, hidden, classes);
        traced::gpu_compute(
            &mut tl,
            Resource::GpuCompute,
            0.0,
            &gpu,
            3.0 * fwd,
            SpanMeta { batch, ..SpanMeta::default() },
        );
    }
    StepBreakdown {
        partition: 0.0,
        batch_prep: tl.busy(Resource::CpuSampler),
        transfer: tl.busy(Resource::PcieLink),
        nn: tl.busy(Resource::GpuCompute),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 4000,
            avg_degree: 20.0,
            num_classes: 16,
            feat_dim: 256,
            skew: 0.8,
            ..Default::default()
        })
    }

    #[test]
    fn gnn_is_data_management_bound() {
        let g = graph();
        let b = gnn_breakdown(&g, 512, vec![25, 10]);
        let [_, bp, dt, nn] = b.fractions();
        assert!(
            bp + dt > 0.6,
            "data management should dominate GNN training: bp {bp:.2} dt {dt:.2} nn {nn:.2}"
        );
        assert!(dt > nn, "transfer {dt:.2} should exceed NN compute {nn:.2}");
    }

    #[test]
    fn dnn_is_compute_bound() {
        let g = graph();
        let b = dnn_breakdown(&g, 512, 128);
        let [_, bp, dt, nn] = b.fractions();
        assert!(nn > 0.5, "NN compute should dominate DNN training: bp {bp:.2} dt {dt:.2} nn {nn:.2}");
        assert!(nn > dt);
    }

    #[test]
    fn gnn_epoch_costs_more_than_dnn() {
        let g = graph();
        let gnn = gnn_breakdown(&g, 512, vec![25, 10]);
        let dnn = dnn_breakdown(&g, 512, 128);
        assert!(gnn.total() > 2.0 * dnn.total(), "gnn {} dnn {}", gnn.total(), dnn.total());
    }

    #[test]
    fn fractions_sum_to_one() {
        let g = graph();
        let b = gnn_breakdown(&g, 256, vec![10, 5]);
        let s: f64 = b.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
