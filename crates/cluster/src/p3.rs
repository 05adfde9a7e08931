//! P3-style hybrid (model + data) parallelism cost analysis.
//!
//! P3 \[10\] pairs hash partitioning with *intra-layer model parallelism*:
//! every machine stores a slice of the feature dimensions for **all**
//! vertices, computes a partial first-layer aggregation over its slice, and
//! all-reduces the (narrow) layer-1 activations — so raw high-dimensional
//! features never cross the network. Data-parallel training instead fetches
//! the raw features of every remote input vertex.
//!
//! The trade-off is a pure byte count: data parallelism moves
//! `remote_inputs × F` floats; P3 moves `layer1_dsts × H × 2(k-1)/k`
//! floats. P3 wins when the feature width `F` is large relative to the
//! hidden width `H` — exactly the regime (F up to 602, H = 128) the paper's
//! datasets live in.

use crate::sim::ClusterSim;
use gnn_dm_sampling::sampler::{build_minibatch, NeighborSampler};
use gnn_dm_trace::convert::{u64_of_f64_model, u64_of_u32, u64_of_usize};
use gnn_dm_trace::units::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Per-epoch communication volumes under the two parallelism strategies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct P3Comparison {
    /// Bytes moved by data parallelism (raw remote feature rows).
    pub data_parallel_bytes: Bytes,
    /// Bytes moved by P3's hybrid parallelism (layer-1 activation
    /// all-reduce).
    pub p3_bytes: Bytes,
    /// Hidden width used for the activation accounting.
    pub hidden: usize,
}

impl P3Comparison {
    /// Ratio `data_parallel / p3` (> 1 means P3 wins).
    pub fn p3_advantage(&self) -> f64 {
        if self.p3_bytes == Bytes(0) {
            return f64::INFINITY;
        }
        self.data_parallel_bytes.0 as f64 / self.p3_bytes.0 as f64
    }
}

/// Simulates one epoch under both strategies and accounts the bytes.
///
/// Uses the same partitioning/batching as [`ClusterSim`]; the `hidden`
/// width prices P3's activation exchange.
pub fn compare_epoch(
    sim: &ClusterSim<'_>,
    sampler: &(dyn NeighborSampler + Sync),
    hidden: usize,
    epoch: usize,
) -> P3Comparison {
    let k = sim.part.k;
    let feat_bytes = Bytes(u64_of_usize(sim.graph.features.row_bytes()));
    let act_bytes = u64_of_usize(hidden * std::mem::size_of::<f32>());
    let ring = 2.0 * (k as f64 - 1.0) / k as f64;

    let locality = sim.part.locality();
    let mut dp_bytes = Bytes(0);
    let mut p3_bytes = Bytes(0);
    for (w, batches) in (0u32..).zip(sim.worker_batches(epoch)) {
        if batches.is_empty() {
            continue;
        }
        #[expect(clippy::disallowed_methods, reason = "one serial stream per worker, mixed from the seed, the worker and the epoch, drawn in the serial worker loop")]
        let mut rng = StdRng::seed_from_u64(
            sim.seed ^ 0xC0FF_EE00u64 ^ (u64_of_u32(w) << 40) ^ u64_of_usize(epoch),
        );
        for seeds in batches {
            let mb = build_minibatch(&sim.graph.inn, &seeds, sampler, &mut rng);
            // Data parallel: every remote input vertex's raw features move.
            let remote_inputs =
                u64_of_usize(mb.input_ids().iter().filter(|&&v| !locality.is_local(w, v)).count());
            dp_bytes += feat_bytes * remote_inputs;
            // P3: layer-1 destinations' partial activations are
            // all-reduced across the k feature slices.
            let layer1_dsts = u64_of_usize(mb.blocks[0].num_dst());
            p3_bytes += Bytes(u64_of_f64_model(layer1_dsts as f64 * act_bytes as f64 * ring));
        }
    }
    P3Comparison { data_parallel_bytes: dp_bytes, p3_bytes, hidden }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_partition::{partition_graph, PartitionMethod};
    use gnn_dm_sampling::FanoutSampler;

    fn compare(feat_dim: usize, hidden: usize) -> P3Comparison {
        let g = planted_partition(&PplConfig {
            n: 1000,
            avg_degree: 10.0,
            num_classes: 4,
            feat_dim,
            ..Default::default()
        });
        let part = partition_graph(&g, PartitionMethod::Hash, 4, 1);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let sampler = FanoutSampler::new(vec![10, 5]);
        compare_epoch(&sim, &sampler, hidden, 0)
    }

    #[test]
    fn p3_wins_on_wide_features() {
        // F = 602, H = 128: the Reddit-class regime P3 targets.
        let c = compare(602, 128);
        assert!(
            c.p3_advantage() > 1.5,
            "P3 should clearly win at F=602, H=128 (advantage {})",
            c.p3_advantage()
        );
    }

    #[test]
    fn data_parallel_wins_on_narrow_features() {
        // F = 16 << H = 128: moving raw features is cheaper.
        let c = compare(16, 128);
        assert!(
            c.p3_advantage() < 1.0,
            "data parallel should win at F=16 (advantage {})",
            c.p3_advantage()
        );
    }

    #[test]
    fn crossover_is_monotone_in_feature_width() {
        let a = compare(32, 128).p3_advantage();
        let b = compare(128, 128).p3_advantage();
        let c = compare(512, 128).p3_advantage();
        assert!(a < b && b < c, "advantage must grow with F: {a} {b} {c}");
    }
}
