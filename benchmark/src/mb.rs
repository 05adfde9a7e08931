//! `mb_wide` and `mb_deep`: real mini-batch training, one epoch plus a
//! validation pass plus the epoch's modelled cost per iteration.
//!
//! `mb_wide` (602-wide features, two layers) is the GEMM / gather /
//! allocation workload; `mb_deep` (32-wide, three hops) is the sampling and
//! irregular-aggregation workload. A GEMM win must show on the first and
//! not the second; a sampler or aggregation win the other way round.

use crate::spans::Recorder;
use crate::workload::{IterOut, Kind, Layer, Params, Workload};
use gnn_dm_core::config::ModelKind;
use gnn_dm_core::convergence::{modeled_epoch_seconds, train_single};
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::generate::planted_partition;
use gnn_dm_graph::{Graph, VId};
use gnn_dm_nn::loss::softmax_cross_entropy;
use gnn_dm_nn::model::Gradients;
use gnn_dm_nn::optim::Optimizer;
use gnn_dm_nn::train::{evaluate, gather_input_features, seed_labels, train_epoch};
use gnn_dm_nn::{agg, metrics, Adam, AggKind, GnnModel};
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler, MiniBatch};
use gnn_dm_tensor::{ops, Matrix};

const LEARNING_RATE: f32 = 0.01;
/// Validation accuracy that counts as "trained" (`nn.epochs_to_target`).
const TARGET_ACCURACY: f64 = 0.85;
/// Test accuracy below which the run's output is wrong. Final accuracies
/// are 0.85 to 0.94 over seeds 1 to 20, so the floor sits below all of them.
const MIN_TEST_ACCURACY: f64 = 0.80;
/// Epochs of the reference run the driven loop is compared with.
const REFERENCE_EPOCHS: usize = 2;

struct Shape {
    dataset: DatasetId,
    vertices: usize,
    feat_dim: usize,
    avg_degree: f64,
    hidden: &'static [usize],
    fanouts: &'static [usize],
    batch: usize,
    agg: AggKind,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::MbDeep => Shape {
            dataset: DatasetId::OgbProducts,
            vertices: 20_000,
            feat_dim: 32,
            avg_degree: 30.0,
            hidden: &[32, 32],
            fanouts: &[15, 10, 5],
            batch: 256,
            agg: AggKind::SageMean,
        },
        _ => Shape {
            dataset: DatasetId::Reddit,
            vertices: 5_000,
            feat_dim: 602,
            avg_degree: 15.0,
            hidden: &[128],
            fanouts: &[25, 10],
            batch: 512,
            agg: AggKind::Gcn,
        },
    }
}

/// The hard training regime (noisy features, low homophily) at the
/// workload's size, so the learning curve spans the run.
pub fn graph(p: &Params, rec: &mut Recorder) -> Graph {
    let s = shape(p.kind);
    let mut cfg = DatasetSpec::get(s.dataset).scaled_config(p.scaled(s.vertices), p.seed);
    cfg.feat_dim = s.feat_dim;
    cfg.num_classes = cfg.num_classes.min(16);
    cfg.avg_degree = s.avg_degree;
    cfg.homophily = 0.60;
    cfg.feat_noise = 10.0;
    rec.span("graph.generate", |_| planted_partition(&cfg))
}

/// A model with its optimizer and the curve it has traced so far.
struct Trainee {
    model: GnnModel,
    opt: Adam,
    sim_time: f64,
}

/// One epoch's point on the convergence curve (simulated time so far,
/// validation accuracy, mean training loss), as bit patterns.
fn curve_bits(sim_time: f64, val_acc: f64, loss: f32) -> Vec<u64> {
    vec![
        sim_time.to_bits(),
        val_acc.to_bits(),
        u64::from(loss.to_bits()),
    ]
}

#[derive(Default)]
struct Counters {
    batches: u64,
    edges_drawn: u64,
    input_vertices: u64,
    seeds: u64,
    gather_bytes: u64,
    gemm_flops: u64,
    replayed_steps: u64,
    epochs_to_target: Option<usize>,
    final_loss: f32,
}

/// What every epoch of a run reads and none writes.
struct Task<'g> {
    graph: &'g Graph,
    seed: u64,
    dims: Vec<usize>,
    agg: AggKind,
    train: Vec<VId>,
    val: Vec<VId>,
    selection: BatchSelection,
    schedule: BatchSizeSchedule,
    sampler: FanoutSampler,
}

pub struct Mb<'g> {
    task: Task<'g>,
    /// Driven through `train_epoch`, as the end-to-end run times it.
    plain: Trainee,
    /// Driven piece by piece; only the traced run builds it.
    twin: Option<Trainee>,
    /// Curve points of the plain drive, for the reference comparison.
    curve: Vec<Vec<u64>>,
    last_loss: f32,
    /// Lowest test accuracy a correct run ends with; the tenth-size smoke
    /// inputs do not get there in five epochs and are exempt.
    min_test_accuracy: Option<f64>,
    counters: Counters,
}

pub fn build<'g>(graph: &'g Graph, p: &Params, rec: &mut Recorder) -> Mb<'g> {
    let s = shape(p.kind);
    let mut dims = vec![graph.feat_dim()];
    dims.extend_from_slice(s.hidden);
    dims.push(graph.num_classes);
    let trainee = |dims: &[usize]| Trainee {
        model: GnnModel::new(s.agg, dims, p.seed),
        opt: Adam::new(LEARNING_RATE),
        sim_time: 0.0,
    };
    Mb {
        plain: rec.span("nn.model_init", |_| trainee(&dims)),
        twin: rec.enabled().then(|| trainee(&dims)),
        task: Task {
            graph,
            seed: p.seed,
            dims,
            agg: s.agg,
            train: graph.train_vertices(),
            val: graph.val_vertices(),
            selection: BatchSelection::Random,
            schedule: BatchSizeSchedule::Fixed(s.batch),
            sampler: FanoutSampler::new(s.fanouts.to_vec()),
        },
        curve: Vec::new(),
        last_loss: 0.0,
        min_test_accuracy: (!p.smoke).then_some(MIN_TEST_ACCURACY),
        counters: Counters::default(),
    }
}

impl Task<'_> {
    fn plan(&self) -> EpochPlan<'_> {
        EpochPlan {
            in_csr: &self.graph.inn,
            train: &self.train,
            selection: &self.selection,
            schedule: &self.schedule,
            sampler: &self.sampler,
            seed: self.seed,
        }
    }

    /// One epoch driven from the public pieces `train_epoch` is made of, in
    /// its order, on `t`. Returns the curve point.
    fn epoch_from_pieces(
        &self,
        t: &mut Trainee,
        e: usize,
        rec: &mut Recorder,
        replay: bool,
        counters: &mut Counters,
    ) -> (f64, f32, f64) {
        let g = self.graph;
        let batches = rec.span("sampling.batches", |_| self.plan().batches(e));
        let (mut loss_sum, mut vertices, mut edges) = (0.0f32, 0usize, 0usize);
        for mb in &batches {
            vertices += mb.involved_vertices();
            edges += mb.involved_edges();
            counters.input_vertices += mb.input_ids().len() as u64;
            counters.seeds += mb.seeds.len() as u64;
            counters.gather_bytes += (mb.input_ids().len() * g.feat_dim() * 4) as u64;
            let x = rec.span("nn.gather", |_| gather_input_features(g, mb));
            let labels = seed_labels(g, mb);
            let (logits, cache) = rec.span("nn.forward", |_| t.model.forward_minibatch(mb, &x));
            let (loss, d_logits) = rec.span("nn.loss", |_| {
                std::hint::black_box(metrics::batch_accuracy(&logits, &labels));
                softmax_cross_entropy(&logits, &labels)
            });
            let grads = rec.span("nn.backward", |_| {
                t.model.backward_minibatch(mb, &cache, d_logits)
            });
            if replay {
                rec.replay("replay", |rec| {
                    counters.replayed_steps += 1;
                    counters.gemm_flops +=
                        replay_step(&t.model, self.agg, mb, &x, &labels, &logits, &grads, rec);
                });
            }
            rec.span("nn.optim", |_| {
                std::hint::black_box(grads.l2_norm());
                t.opt.step(t.model.param_views_mut(), grads.flat_views());
            });
            loss_sum += loss;
        }
        counters.batches += batches.len() as u64;
        counters.edges_drawn += edges as u64;
        let mean_loss = if batches.is_empty() {
            0.0
        } else {
            loss_sum / batches.len() as f32
        };
        let modelled = modeled_epoch_seconds(g, vertices, edges, self.dims[1]);
        t.sim_time += modelled;
        let val_acc = rec.span("nn.eval", |_| evaluate(&t.model, g, &self.val));
        (val_acc, mean_loss, modelled)
    }
}

/// Replays one step's forward and backward from the aggregation and dense
/// kernels against the model's public weights, one span per kernel, and
/// asserts the replay reproduces the model's own logits and gradients bit
/// for bit. Returns the GEMM FLOPs of the step.
#[allow(clippy::too_many_arguments)]
fn replay_step(
    model: &GnnModel,
    kind: AggKind,
    mb: &MiniBatch,
    x: &Matrix,
    labels: &[u32],
    logits: &Matrix,
    grads: &Gradients,
    rec: &mut Recorder,
) -> u64 {
    let last = model.num_layers() - 1;
    let mut flops = 0u64;
    let mut gemm = |a: &Matrix, b_cols: usize| flops += 2 * (a.rows() * a.cols() * b_cols) as u64;
    let mut h = x.clone();
    let (mut aggs, mut pres) = (Vec::new(), Vec::new());
    for (l, block) in mb.blocks.iter().enumerate() {
        let agg_out = rec.span("nn.agg_fwd", |_| match kind {
            AggKind::Gcn => agg::gcn_block_forward(block, &h),
            AggKind::SageMean => agg::sage_block_forward(block, &h),
        });
        let w = &model.layers[l].w;
        gemm(&agg_out, w.cols());
        let mut z = rec.span("tensor.gemm_fwd", |_| ops::matmul(&agg_out, w));
        ops::add_bias(&mut z, &model.layers[l].b);
        aggs.push(agg_out);
        if l < last {
            pres.push(ops::relu_forward(&mut z));
        }
        h = z;
    }
    assert!(
        &h == logits,
        "replayed forward differs from the model's logits"
    );

    let (_, mut d) = softmax_cross_entropy(&h, labels);
    for l in (0..=last).rev() {
        if l < last {
            ops::relu_backward(&mut d, &pres[l]);
        }
        gemm(&d, aggs[l].cols());
        let dw = rec.span("tensor.gemm_bwd", |_| ops::matmul_tn(&aggs[l], &d));
        let db = ops::column_sums(&d);
        assert!(
            dw == grads.layers[l].0 && db == grads.layers[l].1,
            "replayed backward differs from the model's layer-{l} gradients"
        );
        if l > 0 {
            let w = &model.layers[l].w;
            gemm(&d, w.rows());
            let d_agg = rec.span("tensor.gemm_bwd", |_| ops::matmul_nt(&d, w));
            d = rec.span("nn.agg_bwd", |_| match kind {
                AggKind::Gcn => agg::gcn_block_backward(&mb.blocks[l], &d_agg),
                AggKind::SageMean => agg::sage_block_backward(&mb.blocks[l], &d_agg),
            });
        }
    }
    flops
}

impl Workload for Mb<'_> {
    fn iter_plain(&mut self, e: usize) -> IterOut {
        let (task, t) = (&self.task, &mut self.plain);
        let g = task.graph;
        let r = train_epoch(&mut t.model, &mut t.opt, g, &task.plan(), e);
        let val_acc = evaluate(&t.model, g, &task.val);
        let modelled =
            modeled_epoch_seconds(g, r.involved_vertices, r.involved_edges, task.dims[1]);
        self.plain.sim_time += modelled;
        self.last_loss = r.mean_loss;
        let bits = curve_bits(self.plain.sim_time, val_acc, r.mean_loss);
        if self.curve.len() < REFERENCE_EPOCHS {
            self.curve.push(bits.clone());
        }
        IterOut {
            modelled_s: modelled,
            items: self.task.train.len() as u64,
            bits,
        }
    }

    fn iter_traced(&mut self, e: usize, rec: &mut Recorder, replay: bool) -> IterOut {
        let t = self
            .twin
            .as_mut()
            .expect("the traced run builds the twin model");
        let counters = &mut self.counters;
        let (val_acc, loss, modelled_s) = self.task.epoch_from_pieces(t, e, rec, replay, counters);
        if counters.epochs_to_target.is_none() && val_acc >= TARGET_ACCURACY {
            counters.epochs_to_target = Some(e + 1);
        }
        counters.final_loss = loss;
        IterOut {
            modelled_s,
            items: self.task.train.len() as u64,
            bits: curve_bits(t.sim_time, val_acc, loss),
        }
    }

    fn check_iter(&mut self, _e: usize) -> (u64, u64) {
        (u64::from(self.last_loss.is_finite()), 1)
    }

    /// `quality` is the test accuracy of the final model. The driven loop's
    /// first two curve points must equal a reference run of the same two
    /// epochs: the piece-by-piece drive (always), and
    /// `core::convergence::train_single` where it can build the model (it
    /// only builds two-layer models, so not on `mb_deep`).
    fn finish(&mut self, _checks_passed: f64) -> (f64, Vec<String>) {
        let mut failures = Vec::new();
        let task = &self.task;
        let test_acc = evaluate(&self.plain.model, task.graph, &task.graph.test_vertices());
        if self.min_test_accuracy.is_some_and(|floor| test_acc < floor) {
            failures.push(format!(
                "test accuracy {test_acc:.4} is below {MIN_TEST_ACCURACY}"
            ));
        }
        let mut reference = Trainee {
            model: GnnModel::new(task.agg, &task.dims, task.seed),
            opt: Adam::new(LEARNING_RATE),
            sim_time: 0.0,
        };
        let mut off = Recorder::new(false);
        for (e, driven) in self.curve.iter().enumerate() {
            let (val_acc, loss, _) = task.epoch_from_pieces(
                &mut reference,
                e,
                &mut off,
                false,
                &mut Counters::default(),
            );
            if *driven != curve_bits(reference.sim_time, val_acc, loss) {
                failures.push(format!(
                    "epoch {e}: driven loop differs from the piecewise reference"
                ));
            }
        }
        if task.dims.len() == 3 {
            let kind = match task.agg {
                AggKind::Gcn => ModelKind::Gcn,
                AggKind::SageMean => ModelKind::Sage,
            };
            let r = train_single(
                task.graph,
                kind,
                task.dims[1],
                &task.sampler,
                &task.selection,
                &task.schedule,
                LEARNING_RATE,
                self.curve.len(),
                task.seed,
            );
            for (p, driven) in r.curve.iter().zip(&self.curve) {
                if *driven != curve_bits(p.sim_time, p.val_acc, p.train_loss) {
                    failures.push(format!(
                        "epoch {}: driven loop differs from train_single",
                        p.epoch
                    ));
                }
            }
        }
        (test_acc, failures)
    }

    fn layer_counters(&self, layer: &mut Layer) {
        let c = &self.counters;
        layer.insert("sampling.batches", c.batches as f64);
        layer.insert("sampling.edges_drawn", c.edges_drawn as f64);
        layer.insert("sampling.input_vertices", c.input_vertices as f64);
        layer.insert("sampling.seeds", c.seeds as f64);
        layer.insert("nn.gather_bytes", c.gather_bytes as f64);
        // One optimisation step per mini-batch.
        layer.insert("nn.steps", c.batches as f64);
        layer.insert("nn.replayed_steps", c.replayed_steps as f64);
        layer.insert(
            "nn.epochs_to_target",
            c.epochs_to_target.unwrap_or(0) as f64,
        );
        layer.insert("nn.final_loss", f64::from(c.final_loss));
        layer.insert("tensor.gemm_flops_replayed", c.gemm_flops as f64);
    }
}
