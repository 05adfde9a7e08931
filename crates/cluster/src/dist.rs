//! Synchronous distributed training with gradient averaging.
//!
//! Each worker draws mini-batches from *its own partition's* training
//! vertices (this locality is exactly what makes partitioning affect
//! convergence, §5.3.4); per round, worker gradients are averaged — the
//! simulated equivalent of the parameter all-reduce — and one optimizer
//! step is taken.

use crate::sim::ClusterSim;
use gnn_dm_graph::Graph;
use gnn_dm_nn::loss::softmax_cross_entropy;
use gnn_dm_nn::model::{GnnModel, Gradients};
use gnn_dm_nn::optim::{Optimizer, Sgd};
use gnn_dm_nn::train::{forward_batch, seed_labels, train_step};
use gnn_dm_partition::GnnPartitioning;
use gnn_dm_sampling::sampler::{build_minibatch, NeighborSampler};
use gnn_dm_tensor::ops;
use gnn_dm_trace::convert::u64_of_usize;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one synchronous distributed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DistEpochResult {
    /// Mean loss over all batches of all workers.
    pub mean_loss: f32,
    /// Synchronized optimizer steps taken (max batches over workers).
    pub rounds: usize,
    /// Total aggregation edges across workers (computational load proxy).
    pub total_edges: usize,
}

/// Accumulates `g` into `sum` (element-wise).
fn accumulate(sum: &mut Gradients, g: &Gradients) {
    for ((sw, sb), (gw, gb)) in sum.layers.iter_mut().zip(&g.layers) {
        ops::add_assign(sw, gw);
        for (x, &y) in sb.iter_mut().zip(gb) {
            *x += y;
        }
    }
}

/// Scales every gradient entry.
fn scale(grads: &mut Gradients, s: f32) {
    for (w, b) in &mut grads.layers {
        ops::scale(w, s);
        for x in b {
            *x *= s;
        }
    }
}

/// Runs one synchronous distributed epoch: workers draw batches from their
/// local training vertices; each round averages the participating workers'
/// gradients and steps the shared model.
#[allow(clippy::too_many_arguments, reason = "model, optimizer, data, partitioning and schedule are independent inputs; the drivers name each at the call site")]
pub fn dist_train_epoch(
    model: &mut GnnModel,
    opt: &mut dyn Optimizer,
    graph: &Graph,
    part: &GnnPartitioning,
    sampler: &(dyn NeighborSampler + Sync),
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> DistEpochResult {
    let schedules = ClusterSim { graph, part, batch_size, seed }.worker_batches(epoch);
    let rounds = schedules.iter().map(Vec::len).max().unwrap_or(0);
    #[expect(clippy::disallowed_methods, reason = "one serial stream per epoch, mixed from the seed and the epoch; the lock-step rounds draw from it in worker order on one thread")]
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0B41u64 ^ u64_of_usize(epoch) << 8);

    let mut total_loss = 0.0f64;
    let mut total_batches = 0usize;
    let mut total_edges = 0usize;
    for r in 0..rounds {
        let mut sum: Option<Gradients> = None;
        let mut participants = 0usize;
        for sched in &schedules {
            let Some(seeds) = sched.get(r) else { continue };
            let mb = build_minibatch(&graph.inn, seeds, sampler, &mut rng);
            total_edges += mb.involved_edges();
            let labels = seed_labels(graph, &mb);
            let (logits, cache) = forward_batch(model, graph, &mb);
            let (loss, d_logits) = softmax_cross_entropy(&logits, &labels);
            total_loss += loss as f64;
            total_batches += 1;
            let grads = model.backward_minibatch(&mb, &cache, d_logits);
            participants += 1;
            match &mut sum {
                None => sum = Some(grads),
                Some(s) => accumulate(s, &grads),
            }
        }
        if let Some(mut grads) = sum {
            scale(&mut grads, 1.0 / participants as f32);
            let gv: Vec<&[f32]> = grads.flat_views();
            opt.step(model.param_views_mut(), gv);
        }
    }
    DistEpochResult {
        mean_loss: if total_batches == 0 { 0.0 } else { (total_loss / total_batches as f64) as f32 },
        rounds,
        total_edges,
    }
}

/// Communication-avoiding local SGD (the staleness trade-off behind
/// Sancus's "communication-avoiding" training, Table 1): every worker
/// trains a private replica on its local partition and the replicas are
/// *averaged* only every `sync_every` rounds. `sync_every = 1` recovers
/// per-round synchronization; larger values trade gradient freshness for a
/// proportional cut in all-reduce traffic.
///
/// `model` enters as the shared initialization and leaves as the final
/// averaged model. Returns the mean loss and the number of parameter
/// synchronizations performed.
#[allow(clippy::too_many_arguments, reason = "model, data, partitioning and schedule are independent inputs; the drivers name each at the call site")]
pub fn local_sgd_epoch(
    model: &mut GnnModel,
    lr: f32,
    graph: &Graph,
    part: &GnnPartitioning,
    sampler: &(dyn NeighborSampler + Sync),
    batch_size: usize,
    sync_every: usize,
    seed: u64,
    epoch: usize,
) -> (f32, usize) {
    // Saturate instead of asserting (library panic-freedom):
    // `sync_every = 0` has no meaning of its own, so it behaves like the
    // densest schedule, synchronizing every round.
    let sync_every = sync_every.max(1);
    let k = part.k;
    let mut replicas: Vec<GnnModel> = (0..k).map(|_| model.clone()).collect();
    let mut opts: Vec<Sgd> = (0..k).map(|_| Sgd::new(lr)).collect();
    let schedules = ClusterSim { graph, part, batch_size, seed }.worker_batches(epoch);
    let rounds = schedules.iter().map(Vec::len).max().unwrap_or(0);
    #[expect(clippy::disallowed_methods, reason = "one serial stream per epoch, mixed from the seed and the epoch; the local-SGD rounds draw from it in worker order on one thread")]
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10CA_15D6u64 ^ u64_of_usize(epoch) << 8);
    let mut total_loss = 0.0f64;
    let mut total_batches = 0usize;
    let mut syncs = 0usize;
    for r in 0..rounds {
        for (w, sched) in schedules.iter().enumerate() {
            let Some(seeds) = sched.get(r) else { continue };
            let mb = build_minibatch(&graph.inn, seeds, sampler, &mut rng);
            total_loss += train_step(&mut replicas[w], &mut opts[w], graph, &mb).loss as f64;
            total_batches += 1;
        }
        if (r + 1) % sync_every == 0 || r + 1 == rounds {
            average_replicas(&mut replicas);
            syncs += 1;
        }
    }
    // All replicas are equal after the last average; a partitioning
    // without workers (`k == 0`) trained nothing and leaves `model` as is.
    if let Some(averaged) = replicas.into_iter().next() {
        *model = averaged;
    }
    (
        if total_batches == 0 { 0.0 } else { (total_loss / total_batches as f64) as f32 },
        syncs,
    )
}

/// Averages every replica's parameters in place (all end identical).
fn average_replicas(replicas: &mut [GnnModel]) {
    let k = replicas.len();
    if k <= 1 {
        return;
    }
    // Sum into replica 0, scale, then copy back out.
    let (first, rest) = replicas.split_at_mut(1);
    {
        let mut target = first[0].param_views_mut();
        for r in rest.iter_mut() {
            let src = r.param_views_mut();
            for (t, s) in target.iter_mut().zip(src) {
                for (x, &y) in t.iter_mut().zip(s.iter()) {
                    *x += y;
                }
            }
        }
        let inv = 1.0 / k as f32;
        for t in target.iter_mut() {
            for x in t.iter_mut() {
                *x *= inv;
            }
        }
    }
    let averaged = first[0].clone();
    for r in rest {
        *r = averaged.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_nn::train::evaluate;
    use gnn_dm_nn::{Adam, AggKind};
    use gnn_dm_partition::{partition_graph, PartitionMethod};
    use gnn_dm_sampling::FanoutSampler;

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 800,
            avg_degree: 10.0,
            num_classes: 4,
            feat_dim: 16,
            feat_noise: 0.6,
            homophily: 0.9,
            skew: 0.5,
            seed: 33,
        })
    }

    #[test]
    fn distributed_training_converges_under_every_partitioning() {
        let g = graph();
        let sampler = FanoutSampler::new(vec![10, 5]);
        for method in [PartitionMethod::Hash, PartitionMethod::MetisVE, PartitionMethod::StreamB] {
            let part = partition_graph(&g, method, 4, 2);
            let mut model = GnnModel::new(AggKind::Gcn, &[16, 32, 4], 7);
            let mut opt = Adam::new(0.01);
            let mut last = f32::INFINITY;
            for e in 0..8 {
                last =
                    dist_train_epoch(&mut model, &mut opt, &g, &part, &sampler, 48, 5, e).mean_loss;
            }
            let acc = evaluate(&model, &g, &g.val_vertices());
            assert!(acc > 0.65, "{method:?}: val accuracy {acc} (last loss {last})");
        }
    }

    #[test]
    fn rounds_match_slowest_worker() {
        let g = graph();
        let part = partition_graph(&g, PartitionMethod::Hash, 4, 2);
        let sampler = FanoutSampler::new(vec![5, 5]);
        let mut model = GnnModel::new(AggKind::Gcn, &[16, 16, 4], 1);
        let mut opt = Adam::new(0.01);
        let res = dist_train_epoch(&mut model, &mut opt, &g, &part, &sampler, 64, 5, 0);
        let max_batches = (0..4u32)
            .map(|w| {
                g.train_vertices().iter().filter(|&&v| part.part_of(v) == w).count().div_ceil(64)
            })
            .max()
            .unwrap();
        assert_eq!(res.rounds, max_batches);
    }

    #[test]
    fn local_sgd_converges_and_counts_syncs() {
        let g = graph();
        let part = partition_graph(&g, PartitionMethod::MetisVE, 4, 2);
        let sampler = FanoutSampler::new(vec![8, 4]);
        for sync_every in [1usize, 4] {
            let mut model = GnnModel::new(AggKind::Gcn, &[16, 32, 4], 7);
            let mut syncs_total = 0;
            for e in 0..10 {
                let (_, syncs) = local_sgd_epoch(
                    &mut model, 0.05, &g, &part, &sampler, 48, sync_every, 5, e,
                );
                syncs_total += syncs;
            }
            let acc = evaluate(&model, &g, &g.val_vertices());
            assert!(acc > 0.6, "sync_every={sync_every}: accuracy {acc}");
            if sync_every == 1 {
                assert!(syncs_total >= 20, "frequent sync count {syncs_total}");
            } else {
                assert!(syncs_total <= 15, "sparse sync count {syncs_total}");
            }
        }
    }

    #[test]
    fn replica_averaging_is_exact() {
        let a = GnnModel::new(AggKind::Gcn, &[4, 4, 2], 1);
        let b = GnnModel::new(AggKind::Gcn, &[4, 4, 2], 2);
        let expect: Vec<f32> = a.layers[0]
            .w
            .as_slice()
            .iter()
            .zip(b.layers[0].w.as_slice())
            .map(|(x, y)| (x + y) / 2.0)
            .collect();
        let mut replicas = vec![a, b];
        average_replicas(&mut replicas);
        assert_eq!(replicas[0].layers[0].w.as_slice(), expect.as_slice());
        assert_eq!(
            replicas[0].layers[0].w.as_slice(),
            replicas[1].layers[0].w.as_slice()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = graph();
        let part = partition_graph(&g, PartitionMethod::MetisV, 4, 2);
        let sampler = FanoutSampler::new(vec![5, 5]);
        let run = || {
            let mut model = GnnModel::new(AggKind::Gcn, &[16, 16, 4], 1);
            let mut opt = Adam::new(0.01);
            dist_train_epoch(&mut model, &mut opt, &g, &part, &sampler, 64, 5, 0).mean_loss
        };
        assert_eq!(run(), run());
    }
}
