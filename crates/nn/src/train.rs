//! Training drivers: one mini-batch step, one epoch, and full-graph
//! evaluation — the pieces every experiment harness composes.

use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use crate::metrics;
use crate::model::{ForwardCache, GnnModel, SubsetLogits};
use crate::optim::Optimizer;
use crate::workspace::Workspace;
use gnn_dm_graph::csr::VId;
use gnn_dm_graph::features::FeatureRows;
use gnn_dm_graph::Graph;
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::MiniBatch;
use gnn_dm_tensor::Matrix;

/// Outcome of a single optimization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// Global L2 gradient norm (the paper's "gradient magnitude", §6.3.1).
    pub grad_norm: f32,
    /// Training accuracy on this batch.
    pub batch_accuracy: f64,
}

/// Gathers the feature rows for a mini-batch's input vertices into a
/// contiguous matrix — the "extract" operation the transfer experiments
/// price (§7), through the one row gather [`Matrix::gather_from`].
pub fn gather_input_features(graph: &Graph, mb: &MiniBatch) -> Matrix {
    let rows = graph.features.view();
    Matrix::gather_from(rows.dim(), mb.input_ids(), |v| rows.of(v))
}

/// Labels for a batch's seeds, in batch order.
pub fn seed_labels(graph: &Graph, mb: &MiniBatch) -> Vec<u32> {
    mb.seeds.iter().map(|&s| graph.labels[s as usize]).collect()
}

/// The forward pass every trainer runs on a sampled batch: the first layer
/// aggregates straight out of the graph's feature table
/// (`rows.of(input_ids[s])`), so the gathered input matrix
/// [`gather_input_features`] builds is never materialised. Bitwise equal to
/// `model.forward_minibatch(mb, &gather_input_features(graph, mb))`.
pub fn forward_batch(model: &GnnModel, graph: &Graph, mb: &MiniBatch) -> (Matrix, ForwardCache) {
    forward_batch_in(model, graph.features.view(), mb, &mut Workspace::default())
}

/// [`forward_batch`] off the feature rows `rows`, on `ws`'s storage.
fn forward_batch_in(
    model: &GnnModel,
    rows: FeatureRows<'_>,
    mb: &MiniBatch,
    ws: &mut Workspace,
) -> (Matrix, ForwardCache) {
    assert_eq!(rows.dim(), model.dims()[0], "feature width mismatch");
    let ids = mb.input_ids();
    model.forward_minibatch_in(mb, |s| rows.of(ids[s]), ws)
}

/// Runs forward, loss, backward, and one optimizer step on a mini-batch.
pub fn train_step(
    model: &mut GnnModel,
    opt: &mut dyn Optimizer,
    graph: &Graph,
    mb: &MiniBatch,
) -> StepResult {
    step_in(model, opt, graph, graph.features.view(), mb, &mut Workspace::default(), true)
}

/// [`train_step`] off the feature rows `rows` (`graph`'s), on `ws`'s
/// storage, every matrix returned to it at the end — so the next step on
/// the same workspace allocates none. `first` marks the first step on `ws`.
fn step_in(
    model: &mut GnnModel,
    opt: &mut dyn Optimizer,
    graph: &Graph,
    rows: FeatureRows<'_>,
    mb: &MiniBatch,
    ws: &mut Workspace,
    first: bool,
) -> StepResult {
    let labels = seed_labels(graph, mb);
    let (logits, cache) = forward_batch_in(model, rows, mb, ws);
    let batch_accuracy = metrics::batch_accuracy(&logits, &labels);
    let mut d_logits = ws.take(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(&logits, &labels, &mut d_logits);
    ws.give(logits);
    let grads = model.backward_minibatch_in(mb, &cache, d_logits, ws);
    let grad_norm = grads.l2_norm();
    if first {
        // An optimizer allocates its state on its first update and keeps
        // it as long as the model. Free the step's temporaries first, so
        // the state takes the holes they leave rather than landing above
        // them and splitting the free heap for the rest of the run
        // (DESIGN §13.7: `mb_wide` peak RSS). The cache and the gradients
        // are still held.
        ws.release();
    }
    opt.step(model.param_views_mut(), grads.flat_views());
    ws.give_all(cache.aggs.into_iter().chain(cache.outs));
    ws.give_all(grads.layers.into_iter().map(|(dw, _)| dw));
    StepResult { loss, grad_norm, batch_accuracy }
}

/// Outcome of one epoch of mini-batch training.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochResult {
    /// Mean batch loss.
    pub mean_loss: f32,
    /// Mean gradient norm across batches.
    pub mean_grad_norm: f32,
    /// Number of batches (= parameter updates).
    pub num_batches: usize,
    /// Total vertices involved across batches (Table 6's "Involved #V").
    pub involved_vertices: usize,
    /// Total message edges across batches (Table 6's "Involved #E").
    pub involved_edges: usize,
}

/// Trains one epoch from an [`EpochPlan`], streamed: idle pool workers
/// sample the next few batches while this thread trains on the current one
/// ([`EpochPlan::for_each_batch`]), so the steps see the batches of
/// `plan.batches(epoch)` in the same order and the model is bit-identical.
/// The steps share one workspace: after the first, a step writes its
/// matrices into the storage of the one before. A deferred feature table
/// is built before the first batch is sampled.
pub fn train_epoch(
    model: &mut GnnModel,
    opt: &mut dyn Optimizer,
    graph: &Graph,
    plan: &EpochPlan<'_>,
    epoch: usize,
) -> EpochResult {
    let mut result = EpochResult {
        mean_loss: 0.0,
        mean_grad_norm: 0.0,
        num_batches: 0,
        involved_vertices: 0,
        involved_edges: 0,
    };
    let rows = graph.features.view();
    let mut ws = Workspace::default();
    plan.for_each_batch(epoch, |_, mb| {
        result.num_batches += 1;
        result.involved_vertices += mb.involved_vertices();
        result.involved_edges += mb.involved_edges();
        let step = step_in(model, opt, graph, rows, &mb, &mut ws, result.num_batches == 1);
        result.mean_loss += step.loss;
        result.mean_grad_norm += step.grad_norm;
    });
    if result.num_batches > 0 {
        result.mean_loss /= result.num_batches as f32;
        result.mean_grad_norm /= result.num_batches as f32;
    }
    result
}

/// One full-batch training step (§6.2: all training vertices participate,
/// parameters update once per epoch). The loss is masked to the training
/// vertices; gradients flow through the whole graph.
pub fn full_batch_step(model: &mut GnnModel, opt: &mut dyn Optimizer, graph: &Graph) -> StepResult {
    let n = graph.num_vertices();
    let (logits, cache) = model.forward_full_cached(&graph.inn, table_rows(graph));
    let train = graph.train_vertices();
    // Masked loss: evaluate cross-entropy on the training rows only, then
    // scatter the row gradients back into the full matrix.
    let train_logits = logits.gather_rows(&train);
    let labels: Vec<u32> = train.iter().map(|&v| graph.labels[v as usize]).collect();
    let batch_accuracy = metrics::batch_accuracy(&train_logits, &labels);
    let (loss, d_train) = softmax_cross_entropy(&train_logits, &labels);
    let mut d_logits = Matrix::zeros(n, logits.cols());
    gnn_dm_tensor::ops::scatter_add_rows(&mut d_logits, &d_train, &train);
    let in_degrees: Vec<usize> = (0..n).map(|v| graph.inn.degree(v as VId)).collect();
    let grads = model.backward_full(&graph.out, &in_degrees, &cache, d_logits);
    let grad_norm = grads.l2_norm();
    let gv: Vec<&[f32]> = grads.flat_views();
    opt.step(model.param_views_mut(), gv);
    StepResult { loss, grad_norm, batch_accuracy }
}

/// The graph's feature table as a full-graph row source: vertex `v`'s row,
/// read in place. The table is built here, before any kernel reads it.
fn table_rows<'g>(graph: &'g Graph) -> impl Fn(usize) -> &'g [f32] + Sync {
    assert_eq!(graph.features.num_rows(), graph.num_vertices(), "one feature row per vertex");
    let rows = graph.features.view();
    move |v| rows.of(v as VId)
}

/// Exact full-graph logits for every vertex, straight off the feature table.
pub fn full_logits(model: &GnnModel, graph: &Graph) -> Matrix {
    model.full_forward(&graph.inn, table_rows(graph))
}

/// Exact logits of the vertices in `subset`, straight off the feature
/// table, from a forward over their receptive field alone
/// ([`GnnModel::subset_forward`]): bit for bit their rows of
/// [`full_logits`].
pub fn subset_logits(model: &GnnModel, graph: &Graph, subset: &[VId]) -> SubsetLogits {
    model.subset_forward(&graph.inn, table_rows(graph), subset)
}

/// Validation/test accuracy via exact inference: `metrics::accuracy` of
/// [`full_logits`] on `subset`, bit for bit, computing only the rows the
/// subset's logits depend on ([`subset_logits`]).
pub fn evaluate(model: &GnnModel, graph: &Graph, subset: &[VId]) -> f64 {
    let sub = subset_logits(model, graph, subset);
    metrics::accuracy_at(&sub.logits, |v| sub.row_of(v), &graph.labels, subset)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests seed their fixtures directly")]
mod tests {
    use super::*;
    use crate::model::AggKind;
    use crate::optim::Adam;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};

    fn small_graph() -> Graph {
        planted_partition(&PplConfig {
            n: 500,
            avg_degree: 10.0,
            num_classes: 4,
            feat_dim: 16,
            feat_noise: 0.6,
            homophily: 0.9,
            skew: 0.5,
            seed: 21,
        })
    }

    /// End-to-end sanity: a small GCN must learn a well-separated planted
    /// partition far beyond chance within a few epochs.
    #[test]
    fn gcn_learns_planted_partition() {
        let g = small_graph();
        let mut model = GnnModel::new(AggKind::Gcn, &[16, 32, 4], 3);
        let mut opt = Adam::new(0.01);
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(64);
        let sampler = FanoutSampler::new(vec![10, 5]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 5,
        };
        let mut last = f32::INFINITY;
        for epoch in 0..8 {
            last = train_epoch(&mut model, &mut opt, &g, &plan, epoch).mean_loss;
        }
        let val = g.val_vertices();
        let acc = evaluate(&model, &g, &val);
        assert!(acc > 0.7, "val accuracy {acc} after training (loss {last})");
        assert!(last < 1.0, "final loss {last}");
    }

    #[test]
    fn sage_learns_planted_partition() {
        let g = small_graph();
        let mut model = GnnModel::new(AggKind::SageMean, &[16, 32, 4], 3);
        let mut opt = Adam::new(0.01);
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(64);
        let sampler = FanoutSampler::new(vec![10, 5]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 5,
        };
        for epoch in 0..8 {
            train_epoch(&mut model, &mut opt, &g, &plan, epoch);
        }
        let acc = evaluate(&model, &g, &g.val_vertices());
        assert!(acc > 0.7, "val accuracy {acc}");
    }

    /// The streamed epoch is the loop it replaced — materialise
    /// `plan.batches(e)`, then one `train_step` per batch — on the
    /// `EpochResult` (mean loss and gradient norm included) and on every
    /// parameter bit, for both families, whether or not helpers build ahead.
    #[test]
    fn train_epoch_is_the_materialised_loop() {
        let g = small_graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(48);
        let sampler = FanoutSampler::new(vec![6, 4]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 5,
        };
        let bits = |m: &mut GnnModel| -> Vec<Vec<u32>> {
            m.param_views_mut().into_iter().map(|p| p.iter().map(|x| x.to_bits()).collect()).collect()
        };
        for kind in [AggKind::Gcn, AggKind::SageMean] {
            for threads in [1usize, 2, 3] {
                let mut streamed = GnnModel::new(kind, &[16, 32, 4], 3);
                let mut reference = streamed.clone();
                let (mut opt_s, mut opt_r) = (Adam::new(0.01), Adam::new(0.01));
                for epoch in 0..3 {
                    let got = gnn_dm_par::with_threads(threads, || {
                        train_epoch(&mut streamed, &mut opt_s, &g, &plan, epoch)
                    });
                    let batches = plan.batches(epoch);
                    assert!(batches.len() > 4, "more batches than the look-ahead window");
                    let mut want = EpochResult {
                        mean_loss: 0.0,
                        mean_grad_norm: 0.0,
                        num_batches: batches.len(),
                        involved_vertices: 0,
                        involved_edges: 0,
                    };
                    for mb in &batches {
                        want.involved_vertices += mb.involved_vertices();
                        want.involved_edges += mb.involved_edges();
                        let step = train_step(&mut reference, &mut opt_r, &g, mb);
                        want.mean_loss += step.loss;
                        want.mean_grad_norm += step.grad_norm;
                    }
                    want.mean_loss /= batches.len() as f32;
                    want.mean_grad_norm /= batches.len() as f32;
                    assert_eq!(got.mean_loss.to_bits(), want.mean_loss.to_bits());
                    assert_eq!(got, want, "{kind:?}, threads {threads}, epoch {epoch}");
                    assert!(bits(&mut streamed) == bits(&mut reference), "{kind:?}: parameters diverged");
                }
            }
        }
    }

    /// One step from the public allocating kernels alone — every matrix a
    /// fresh zero-filled allocation, the gathered input materialised, the
    /// pre-activation copied for the ReLU adjoint — the drive the reference
    /// benchmark replays. Returns the loss and the gradient norm.
    fn fresh_allocation_step(
        model: &mut GnnModel,
        opt: &mut dyn Optimizer,
        graph: &Graph,
        mb: &MiniBatch,
    ) -> (f32, f32) {
        use crate::agg;
        use crate::model::Gradients;
        use gnn_dm_tensor::ops;
        let (kind, last) = (model.kind, model.num_layers() - 1);
        let mut h = gather_input_features(graph, mb);
        let (mut aggs, mut pres) = (Vec::new(), Vec::new());
        for (l, block) in mb.blocks.iter().enumerate() {
            let agg_out = match kind {
                AggKind::Gcn => agg::gcn_block_forward(block, &h),
                AggKind::SageMean => agg::sage_block_forward(block, &h),
            };
            h = ops::matmul(&agg_out, &model.layers[l].w);
            ops::add_bias(&mut h, &model.layers[l].b);
            if l < last {
                pres.push(ops::relu_forward(&mut h));
            }
            aggs.push(agg_out);
        }
        let (loss, mut d) = softmax_cross_entropy(&h, &seed_labels(graph, mb));
        let mut layers = Vec::new();
        for l in (0..=last).rev() {
            if l < last {
                ops::relu_backward(&mut d, &pres[l]);
            }
            layers.push((ops::matmul_tn(&aggs[l], &d), ops::column_sums(&d)));
            if l > 0 {
                let d_agg = ops::matmul_nt(&d, &model.layers[l].w);
                d = match kind {
                    AggKind::Gcn => agg::gcn_block_backward(&mb.blocks[l], &d_agg),
                    AggKind::SageMean => agg::sage_block_backward(&mb.blocks[l], &d_agg),
                };
            }
        }
        layers.reverse();
        let grads = Gradients { layers };
        let grad_norm = grads.l2_norm();
        opt.step(model.param_views_mut(), grads.flat_views());
        (loss, grad_norm)
    }

    /// The recycled workspace is invisible: in this crate's unit tests
    /// every buffer handed back to it is filled with NaN before it is taken
    /// again, so a kernel that read its output before writing it would
    /// poison the model. Three epochs of `train_epoch` must equal the
    /// fresh-allocation drive on every loss, norm and parameter bit — both
    /// families, three-layer models (so a hidden layer's ReLU output serves
    /// as a mask), 1, 2 and 3 threads.
    #[test]
    fn poisoned_workspace_is_bitwise_a_fresh_allocation_drive() {
        let g = small_graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(48);
        let sampler = FanoutSampler::new(vec![6, 4, 3]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 9,
        };
        let bits = |m: &mut GnnModel| -> Vec<Vec<u32>> {
            m.param_views_mut()
                .into_iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for kind in [AggKind::Gcn, AggKind::SageMean] {
            for threads in [1usize, 2, 3] {
                let mut recycled = GnnModel::new(kind, &[16, 24, 33, 4], 5);
                let mut fresh = recycled.clone();
                let (mut opt_r, mut opt_f) = (Adam::new(0.01), Adam::new(0.01));
                for epoch in 0..3 {
                    let got = gnn_dm_par::with_threads(threads, || {
                        train_epoch(&mut recycled, &mut opt_r, &g, &plan, epoch)
                    });
                    let batches = plan.batches(epoch);
                    let (mut loss, mut norm) = (0.0f32, 0.0f32);
                    for mb in &batches {
                        let (l, n) = gnn_dm_par::with_threads(threads, || {
                            fresh_allocation_step(&mut fresh, &mut opt_f, &g, mb)
                        });
                        loss += l;
                        norm += n;
                    }
                    let n = batches.len() as f32;
                    let what = format!("{kind:?}, {threads} threads, epoch {epoch}");
                    assert_eq!(got.mean_loss.to_bits(), (loss / n).to_bits(), "{what}: loss");
                    assert_eq!(got.mean_grad_norm.to_bits(), (norm / n).to_bits(), "{what}: norm");
                    assert!(bits(&mut recycled) == bits(&mut fresh), "{what}: parameters diverged");
                    assert!(got.mean_loss.is_finite(), "{what}: a NaN got through");
                }
            }
        }
    }

    /// §6.3.1: at the *same parameters*, smaller batches produce larger
    /// average gradient magnitudes (more sampling noise in the mean
    /// gradient).
    #[test]
    fn small_batches_have_larger_gradient_norm() {
        let g = small_graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let sampler = FanoutSampler::new(vec![10, 5]);
        let model = GnnModel::new(AggKind::Gcn, &[16, 32, 4], 3);
        // Train briefly so gradients are not dominated by the random-init
        // transient (where every batch's gradient looks alike).
        let mut warm = model.clone();
        let mut opt = Adam::new(0.01);
        let schedule = BatchSizeSchedule::Fixed(64);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 5,
        };
        for e in 0..4 {
            train_epoch(&mut warm, &mut opt, &g, &plan, e);
        }
        // Measure gradient norms at these fixed parameters.
        let norm_for = |batch: usize| {
            let schedule = BatchSizeSchedule::Fixed(batch);
            let plan = EpochPlan {
                in_csr: &g.inn,
                train: &train,
                selection: &selection,
                schedule: &schedule,
                sampler: &sampler,
                seed: 11,
            };
            let batches = plan.batches(0);
            let mut total = 0.0f32;
            for mb in &batches {
                let x = gather_input_features(&g, mb);
                let labels = seed_labels(&g, mb);
                let (logits, cache) = warm.forward_minibatch(mb, &x);
                let (_, d) = softmax_cross_entropy(&logits, &labels);
                total += warm.backward_minibatch(mb, &cache, d).l2_norm();
            }
            total / batches.len() as f32
        };
        let small = norm_for(16);
        let large = norm_for(256);
        assert!(small > large, "small-batch norm {small} <= large-batch norm {large}");
    }

    #[test]
    fn full_batch_training_converges() {
        let g = small_graph();
        let mut model = GnnModel::new(AggKind::Gcn, &[16, 32, 4], 3);
        let mut opt = Adam::new(0.01);
        let first = full_batch_step(&mut model, &mut opt, &g);
        let mut last = first;
        for _ in 0..40 {
            last = full_batch_step(&mut model, &mut opt, &g);
        }
        assert!(last.loss < first.loss * 0.3, "loss {} -> {}", first.loss, last.loss);
        let acc = evaluate(&model, &g, &g.val_vertices());
        assert!(acc > 0.7, "full-batch val accuracy {acc}");
    }

    /// Finite-difference check of the full-batch gradient path (masked
    /// loss + full-graph adjoint).
    #[test]
    fn full_batch_gradients_match_finite_differences() {
        let g = planted_partition(&PplConfig {
            n: 60,
            avg_degree: 6.0,
            num_classes: 3,
            feat_dim: 5,
            ..Default::default()
        });
        let mut model = GnnModel::new(AggKind::Gcn, &[5, 6, 3], 11);
        let n = g.num_vertices();
        let train = g.train_vertices();
        let labels: Vec<u32> = train.iter().map(|&v| g.labels[v as usize]).collect();
        let loss_of = |model: &GnnModel| {
            let logits = full_logits(model, &g);
            let (l, _) = crate::loss::softmax_cross_entropy(&logits.gather_rows(&train), &labels);
            l
        };
        // Analytic gradients.
        let (logits, cache) = model.forward_full_cached(&g.inn, table_rows(&g));
        let (_, d_train) = crate::loss::softmax_cross_entropy(&logits.gather_rows(&train), &labels);
        let mut d_logits = gnn_dm_tensor::Matrix::zeros(n, 3);
        gnn_dm_tensor::ops::scatter_add_rows(&mut d_logits, &d_train, &train);
        let in_degrees: Vec<usize> = (0..n).map(|v| g.inn.degree(v as u32)).collect();
        let grads = model.backward_full(&g.out, &in_degrees, &cache, d_logits);
        let eps = 3e-3f32;
        for l in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (2, 1)] {
                let orig = model.layers[l].w.get(r, c);
                model.layers[l].w.set(r, c, orig + eps);
                let lp = loss_of(&model);
                model.layers[l].w.set(r, c, orig - eps);
                let lm = loss_of(&model);
                model.layers[l].w.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads.layers[l].0.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2_f32.max(0.25 * analytic.abs()),
                    "layer {l} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn train_step_reduces_loss_on_same_batch() {
        let g = small_graph();
        let mut model = GnnModel::new(AggKind::Gcn, &[16, 32, 4], 3);
        let mut opt = Adam::new(0.01);
        let sampler = FanoutSampler::new(vec![10, 5]);
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let seeds: Vec<u32> = g.train_vertices().into_iter().take(64).collect();
        let mb = gnn_dm_sampling::sampler::build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        let first = train_step(&mut model, &mut opt, &g, &mb).loss;
        let mut last = first;
        for _ in 0..20 {
            last = train_step(&mut model, &mut opt, &g, &mb).loss;
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }
}
