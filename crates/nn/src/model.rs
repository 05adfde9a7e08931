//! The layered GNN model with explicit forward caches and gradients.
//!
//! One forward loop and one backward loop serve every entry point
//! (mini-batch or full graph, training or inference). Both run on a
//! `Workspace`: each aggregation output, layer output, gradient and
//! adjoint product is taken from it and written exactly once by its
//! kernel, and whatever a loop is done with goes back for the next take —
//! `train_epoch` keeps one workspace across its steps, so a warm step
//! allocates no matrix storage, zero-fills nothing up front and copies no
//! activation. For backward, a hidden layer's ReLU *output* is kept (it is
//! the next layer's input anyway) and serves as the ReLU mask:
//! `ops::relu_in_place` maps `pre < 0` to +0.0 and keeps every other value,
//! so `out <= 0 ⇔ pre <= 0` and the mask is the pre-activation's, bit for
//! bit.

use crate::agg::{self, Adjacency, SourceMajor};
use crate::workspace::Workspace;
use gnn_dm_graph::csr::Csr;
use gnn_dm_sampling::MiniBatch;
use gnn_dm_tensor::{init, ops, Matrix};

/// Elements (2 MiB) of aggregation output inference produces and
/// multiplies at a time; a block is as many whole rows as fit, at least one.
const INFER_BLOCK: usize = 1 << 19;

/// Which aggregation family the model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// GCN: closed-neighborhood mean (renormalized adjacency).
    Gcn,
    /// GraphSAGE with mean aggregator and self/neighbor concatenation.
    SageMean,
}

/// One dense layer (weights + bias) applied after aggregation.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    /// Weight matrix, `agg_width x out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
}

/// A multi-layer GNN: per layer, aggregate then `ReLU(agg · W + b)`
/// (no ReLU after the last layer — its output are the logits).
#[derive(Debug, Clone)]
pub struct GnnModel {
    /// Aggregation family.
    pub kind: AggKind,
    /// Dense layers, input-most first.
    pub layers: Vec<DenseLayer>,
    dims: Vec<usize>,
}

/// Intermediate activations kept for backprop.
pub struct ForwardCache {
    /// Aggregation outputs (dense-layer inputs), one per layer.
    pub aggs: Vec<Matrix>,
    /// ReLU outputs of the layers that apply ReLU (all but the last) —
    /// each the next layer's input, and the ReLU adjoint's mask.
    pub outs: Vec<Matrix>,
}

/// Parameter gradients, one `(dW, db)` pair per layer.
pub struct Gradients {
    /// Per-layer weight/bias gradients, input-most first.
    pub layers: Vec<(Matrix, Vec<f32>)>,
}

impl Gradients {
    /// Global L2 norm over all parameters — the "gradient magnitude" the
    /// paper inspects when explaining batch-size effects (§6.3.1).
    pub fn l2_norm(&self) -> f32 {
        let mut acc = 0.0f32;
        for (w, b) in &self.layers {
            acc += w.as_slice().iter().map(|x| x * x).sum::<f32>();
            acc += b.iter().map(|x| x * x).sum::<f32>();
        }
        acc.sqrt()
    }
}

impl GnnModel {
    /// Builds a model with layer widths `dims = [feat, hidden…, classes]`
    /// and Glorot-initialized weights. `dims.len() - 1` is the layer count.
    ///
    /// ```
    /// use gnn_dm_nn::{AggKind, GnnModel};
    /// let gcn = GnnModel::new(AggKind::Gcn, &[64, 128, 10], 42);
    /// assert_eq!(gcn.num_layers(), 2);
    /// assert_eq!(gcn.num_params(), 64 * 128 + 128 + 128 * 10 + 10);
    /// // GraphSAGE concatenates self and neighbor embeddings, doubling fan-in.
    /// let sage = GnnModel::new(AggKind::SageMean, &[64, 128, 10], 42);
    /// assert!(sage.num_params() > gcn.num_params());
    /// ```
    pub fn new(kind: AggKind, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let layers = (0..dims.len() - 1)
            .map(|l| {
                let fan_in = Self::agg_width_for(kind, dims[l]);
                DenseLayer {
                    w: init::glorot_uniform(fan_in, dims[l + 1], seed.wrapping_add(l as u64)),
                    b: vec![0.0; dims[l + 1]],
                }
            })
            .collect();
        GnnModel { kind, layers, dims: dims.to_vec() }
    }

    /// The paper's default: 2 layers, hidden width 128.
    pub fn paper_default(kind: AggKind, feat_dim: usize, num_classes: usize, seed: u64) -> Self {
        GnnModel::new(kind, &[feat_dim, 128, num_classes], seed)
    }

    fn agg_width_for(kind: AggKind, in_dim: usize) -> usize {
        match kind {
            AggKind::Gcn => in_dim,
            AggKind::SageMean => 2 * in_dim,
        }
    }

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer widths `[feat, hidden…, classes]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.rows() * l.w.cols() + l.b.len()).sum()
    }

    /// Bytes of one full parameter copy (f32 weights) — the payload of a
    /// gradient all-reduce round.
    pub fn param_bytes(&self) -> u64 {
        self.num_params() as u64 * 4
    }

    /// Aggregates adjacency rows `first..first + out.rows()` of `row`'s
    /// rows into `out` with the model's family.
    fn aggregate<'a>(
        &self,
        adj: &impl Adjacency,
        first: usize,
        row: impl Fn(usize) -> &'a [f32] + Sync,
        out: &mut Matrix,
    ) {
        match self.kind {
            AggKind::Gcn => agg::gcn_forward(adj, first, row, out),
            AggKind::SageMean => agg::sage_forward(adj, first, row, out),
        }
    }

    /// Layer `l`: aggregate `row`'s rows over `adj` with the model's
    /// family, then the dense half `agg · W + b` and, on every layer but
    /// the last (whose output are the logits), ReLU in place. With `keep`
    /// the aggregation output goes to the cache. Without it (inference) it
    /// is produced and multiplied an [`INFER_BLOCK`] at a time, so no more
    /// than one such block of it ever exists: the full-graph aggregation of
    /// a wide feature table would otherwise be the largest allocation of a
    /// training run. Rows are independent in both kernels, so the blocks
    /// are bit for bit the rows of the whole.
    fn layer<'a>(
        &self,
        l: usize,
        adj: &impl Adjacency,
        row: impl Fn(usize) -> &'a [f32] + Sync,
        keep: bool,
        cache: &mut ForwardCache,
        ws: &mut Workspace,
    ) -> Matrix {
        let (rows, width) = (adj.num_rows(), Self::agg_width_for(self.kind, self.dims[l]));
        let (w, out) = (&self.layers[l].w, self.dims[l + 1]);
        let mut h = if keep {
            let mut agg_out = ws.take(rows, width);
            self.aggregate(adj, 0, row, &mut agg_out);
            let mut h = ws.take(rows, out);
            ops::matmul_into(&agg_out, w, &mut h);
            cache.aggs.push(agg_out);
            h
        } else {
            let mut h = ws.take(rows, out);
            let block = (INFER_BLOCK / width.max(1)).max(1);
            for first in (0..rows).step_by(block) {
                let n = (rows - first).min(block);
                let (mut agg_out, mut z) = (ws.take(n, width), ws.take(n, out));
                self.aggregate(adj, first, &row, &mut agg_out);
                ops::matmul_into(&agg_out, w, &mut z);
                h.as_mut_slice()[first * out..][..n * out].copy_from_slice(z.as_slice());
                ws.give_all([agg_out, z]);
            }
            h
        };
        ops::add_bias(&mut h, &self.layers[l].b);
        if l + 1 < self.num_layers() {
            ops::relu_in_place(&mut h);
        }
        h
    }

    /// The one forward loop: layer `l` aggregates over `adj_at(l)`. Layer 0
    /// reads its input rows from `row0` — a matrix, or the feature table in
    /// place — and every later layer from the previous layer's output. With
    /// `keep` the cache backward needs is filled; without it every
    /// intermediate goes back to `ws` once used.
    fn forward_layers<'a, 'g, A: Adjacency + 'g>(
        &self,
        adj_at: impl Fn(usize) -> &'g A,
        row0: impl Fn(usize) -> &'a [f32] + Sync,
        keep: bool,
        ws: &mut Workspace,
    ) -> (Matrix, ForwardCache) {
        let mut cache = ForwardCache { aggs: Vec::new(), outs: Vec::new() };
        let mut h = self.layer(0, adj_at(0), row0, keep, &mut cache, ws);
        for l in 1..self.num_layers() {
            let next = self.layer(l, adj_at(l), |s| h.row(s), keep, &mut cache, ws);
            let input = std::mem::replace(&mut h, next);
            if keep {
                cache.outs.push(input);
            } else {
                ws.give(input);
            }
        }
        (h, cache)
    }

    /// The one backward loop: per layer, ReLU adjoint, `dW = aggᵀ · d`,
    /// `db = column sums`, then `agg_back(l, d · Wᵀ, scratch, d_in)` carries
    /// the gradient through layer `l`'s aggregation into `d_in`, the
    /// gradient of layer `l`'s input rows. Consumes `d_logits`; every
    /// intermediate goes back to `ws`, the weight gradients come from it.
    fn backward_layers(
        &self,
        cache: &ForwardCache,
        d_logits: Matrix,
        ws: &mut Workspace,
        agg_back: impl Fn(usize, &Matrix, &mut SourceMajor, &mut Matrix),
    ) -> Gradients {
        let last = self.num_layers() - 1;
        let mut d = d_logits;
        let mut layers = Vec::with_capacity(self.num_layers());
        for l in (0..self.num_layers()).rev() {
            if l < last {
                ops::relu_backward(&mut d, &cache.outs[l]);
            }
            let agg_out = &cache.aggs[l];
            let mut dw = ws.take(agg_out.cols(), d.cols());
            ops::matmul_tn_into(agg_out, &d, &mut dw);
            layers.push((dw, ops::column_sums(&d)));
            if l > 0 {
                let w = &self.layers[l].w;
                let mut d_agg = ws.take(d.rows(), w.rows());
                ops::matmul_nt_into(&d, w, &mut d_agg);
                let mut d_in = ws.take(cache.outs[l - 1].rows(), self.dims[l]);
                agg_back(l, &d_agg, &mut ws.by_source, &mut d_in);
                ws.give(d_agg);
                ws.give(std::mem::replace(&mut d, d_in));
            }
        }
        ws.give(d);
        layers.reverse();
        Gradients { layers }
    }

    /// Mini-batch forward pass. `x_input` holds one feature row per entry of
    /// `mb.input_ids()`, in that order. Returns logits for `mb.seeds` plus
    /// the cache backward needs.
    ///
    /// # Panics
    ///
    /// Panics if the batch layer count differs from the model's or shapes
    /// disagree.
    pub fn forward_minibatch(&self, mb: &MiniBatch, x_input: &Matrix) -> (Matrix, ForwardCache) {
        assert_eq!(x_input.rows(), mb.input_ids().len(), "one feature row per input vertex");
        assert_eq!(x_input.cols(), self.dims[0], "feature width mismatch");
        self.forward_minibatch_rows(mb, |s| x_input.row(s))
    }

    /// [`Self::forward_minibatch`] over a row source: `row0(s)` is the
    /// feature row of `mb.input_ids()[s]`, `dims()[0]` wide, read where it
    /// lies — the first layer aggregates straight out of it, so no gathered
    /// input matrix has to exist.
    ///
    /// # Panics
    ///
    /// Panics if the batch layer count differs from the model's or a row
    /// has the wrong width.
    pub fn forward_minibatch_rows<'a>(
        &self,
        mb: &MiniBatch,
        row0: impl Fn(usize) -> &'a [f32] + Sync,
    ) -> (Matrix, ForwardCache) {
        self.forward_minibatch_in(mb, row0, &mut Workspace::default())
    }

    /// [`Self::forward_minibatch_rows`] on `ws`'s storage.
    pub(crate) fn forward_minibatch_in<'a>(
        &self,
        mb: &MiniBatch,
        row0: impl Fn(usize) -> &'a [f32] + Sync,
        ws: &mut Workspace,
    ) -> (Matrix, ForwardCache) {
        assert_eq!(mb.num_layers(), self.num_layers(), "batch/model layer mismatch");
        self.forward_layers(|l| &mb.blocks[l], row0, true, ws)
    }

    /// Mini-batch backward pass: gradients for every layer given the loss
    /// gradient w.r.t. the logits.
    pub fn backward_minibatch(
        &self,
        mb: &MiniBatch,
        cache: &ForwardCache,
        d_logits: Matrix,
    ) -> Gradients {
        self.backward_minibatch_in(mb, cache, d_logits, &mut Workspace::default())
    }

    /// [`Self::backward_minibatch`] on `ws`'s storage.
    pub(crate) fn backward_minibatch_in(
        &self,
        mb: &MiniBatch,
        cache: &ForwardCache,
        d_logits: Matrix,
        ws: &mut Workspace,
    ) -> Gradients {
        self.backward_layers(cache, d_logits, ws, |l, d_agg, by_source, d_in| match self.kind {
            AggKind::Gcn => agg::gcn_block_backward_into(&mb.blocks[l], d_agg, by_source, d_in),
            AggKind::SageMean => {
                agg::sage_block_backward_into(&mb.blocks[l], d_agg, by_source, d_in)
            }
        })
    }

    /// Exact full-graph forward pass (no sampling): logits for every vertex.
    /// Used for validation/test accuracy and as the full-batch baseline.
    /// `features(v)` is vertex `v`'s feature row, `dims()[0]` wide — a
    /// matrix's rows or the graph's feature table, read in place.
    pub fn full_forward<'a>(
        &self,
        in_csr: &Csr,
        features: impl Fn(usize) -> &'a [f32] + Sync,
    ) -> Matrix {
        self.forward_layers(|_| in_csr, features, false, &mut Workspace::default()).0
    }

    /// Full-graph forward pass that keeps the caches backward needs — the
    /// training path of the full-batch systems in Table 1 (NeuGraph, ROC,
    /// DistGNN, DGCL, Dorylus, BNS-GCN, NeutronStar, Sancus). `features` as
    /// in [`Self::full_forward`].
    pub fn forward_full_cached<'a>(
        &self,
        in_csr: &Csr,
        features: impl Fn(usize) -> &'a [f32] + Sync,
    ) -> (Matrix, ForwardCache) {
        self.forward_layers(|_| in_csr, features, true, &mut Workspace::default())
    }

    /// Full-graph backward pass matching [`Self::forward_full_cached`].
    /// `out_csr` must be the transpose of the `in_csr` used forward;
    /// `in_degrees[v] = in_csr.degree(v)`.
    pub fn backward_full(
        &self,
        out_csr: &Csr,
        in_degrees: &[usize],
        cache: &ForwardCache,
        d_logits: Matrix,
    ) -> Gradients {
        let ws = &mut Workspace::default();
        self.backward_layers(cache, d_logits, ws, |_, d_agg, _, d_in| match self.kind {
            AggKind::Gcn => agg::gcn_full_backward_into(out_csr, in_degrees, d_agg, d_in),
            AggKind::SageMean => agg::sage_full_backward_into(out_csr, in_degrees, d_agg, d_in),
        })
    }

    /// Mutable flat views of every parameter, layer-major, weights before
    /// biases — the order [`Gradients::flat_views`] mirrors.
    pub fn param_views_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for l in &mut self.layers {
            out.push(l.w.as_mut_slice());
            out.push(l.b.as_mut_slice());
        }
        out
    }
}

impl Gradients {
    /// Flat views matching [`GnnModel::param_views_mut`] order.
    pub fn flat_views(&self) -> Vec<&[f32]> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for (w, b) in &self.layers {
            out.push(w.as_slice());
            out.push(b.as_slice());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_sampling::sampler::{build_minibatch, FanoutSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: AggKind) -> (gnn_dm_graph::Graph, GnnModel, MiniBatch, Matrix, Vec<u32>) {
        let g = planted_partition(&PplConfig {
            n: 120,
            avg_degree: 8.0,
            num_classes: 3,
            feat_dim: 5,
            ..Default::default()
        });
        let model = GnnModel::new(kind, &[5, 7, 3], 11);
        let sampler = FanoutSampler::new(vec![4, 3]);
        let mut rng = StdRng::seed_from_u64(1);
        let seeds: Vec<u32> = (0..10).collect();
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        let mut x = Matrix::zeros(mb.input_ids().len(), 5);
        for (i, &v) in mb.input_ids().iter().enumerate() {
            x.row_mut(i).copy_from_slice(g.features.row(v));
        }
        let labels: Vec<u32> = mb.seeds.iter().map(|&s| g.labels[s as usize]).collect();
        (g, model, mb, x, labels)
    }

    #[test]
    fn forward_shapes() {
        for kind in [AggKind::Gcn, AggKind::SageMean] {
            let (_, model, mb, x, _) = setup(kind);
            let (logits, cache) = model.forward_minibatch(&mb, &x);
            assert_eq!(logits.rows(), mb.seeds.len());
            assert_eq!(logits.cols(), 3);
            assert_eq!(cache.aggs.len(), 2);
            assert_eq!(cache.outs.len(), 1);
        }
    }

    /// Finite-difference check of the full model backward pass on a handful
    /// of parameters of every layer.
    #[test]
    fn gradients_match_finite_differences() {
        for kind in [AggKind::Gcn, AggKind::SageMean] {
            let (_, mut model, mb, x, labels) = setup(kind);
            let (logits, cache) = model.forward_minibatch(&mb, &x);
            let (_, d_logits) = softmax_cross_entropy(&logits, &labels);
            let grads = model.backward_minibatch(&mb, &cache, d_logits);

            let eps = 3e-3f32;
            for l in 0..model.num_layers() {
                for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 1)] {
                    let orig = model.layers[l].w.get(r, c);
                    model.layers[l].w.set(r, c, orig + eps);
                    let (lp, _) = {
                        let (lg, _) = model.forward_minibatch(&mb, &x);
                        softmax_cross_entropy(&lg, &labels)
                    };
                    model.layers[l].w.set(r, c, orig - eps);
                    let (lm, _) = {
                        let (lg, _) = model.forward_minibatch(&mb, &x);
                        softmax_cross_entropy(&lg, &labels)
                    };
                    model.layers[l].w.set(r, c, orig);
                    let numeric = (lp - lm) / (2.0 * eps);
                    let analytic = grads.layers[l].0.get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 2e-2_f32.max(0.25 * analytic.abs()),
                        "{kind:?} layer {l} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
                // One bias entry per layer.
                let orig = model.layers[l].b[0];
                model.layers[l].b[0] = orig + eps;
                let (lp, _) = {
                    let (lg, _) = model.forward_minibatch(&mb, &x);
                    softmax_cross_entropy(&lg, &labels)
                };
                model.layers[l].b[0] = orig - eps;
                let (lm, _) = {
                    let (lg, _) = model.forward_minibatch(&mb, &x);
                    softmax_cross_entropy(&lg, &labels)
                };
                model.layers[l].b[0] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads.layers[l].1[0];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{kind:?} layer {l} bias: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn full_forward_shapes_and_determinism() {
        let (g, model, _, _, _) = setup(AggKind::Gcn);
        let a = model.full_forward(&g.inn, |v| g.features.row(v as u32));
        let b = model.full_forward(&g.inn, |v| g.features.row(v as u32));
        assert_eq!(a, b);
        // Recycling instead of keeping the intermediates must not move a logit.
        let (kept, _) = model.forward_full_cached(&g.inn, |v| g.features.row(v as u32));
        assert_eq!(a.as_slice(), kept.as_slice());
        assert_eq!(a.rows(), g.num_vertices());
        assert_eq!(a.cols(), 3);
    }

    /// Inference aggregates and multiplies a block of rows at a time; the
    /// blocks must be, bit for bit, the rows of the whole matrix the
    /// training forward computes, a ragged last block included.
    #[test]
    fn blocked_inference_is_the_whole_forward() {
        let feat_dim = 2000;
        let g = planted_partition(&PplConfig {
            n: 300,
            avg_degree: 6.0,
            num_classes: 3,
            feat_dim,
            ..Default::default()
        });
        let rows = |m: &GnnModel| m.full_forward(&g.inn, |v| g.features.row(v as u32));
        for kind in [AggKind::Gcn, AggKind::SageMean] {
            let block = INFER_BLOCK / GnnModel::agg_width_for(kind, feat_dim);
            let n = g.num_vertices();
            assert!(block < n && !n.is_multiple_of(block), "{kind:?}: several blocks, one ragged");
            let model = GnnModel::new(kind, &[feat_dim, 7, 3], 5);
            let (whole, _) = model.forward_full_cached(&g.inn, |v| g.features.row(v as u32));
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rows(&model)), bits(&whole), "{kind:?}");
        }
    }

    #[test]
    fn param_views_align_with_gradient_views() {
        let (_, mut model, mb, x, labels) = setup(AggKind::Gcn);
        let (logits, cache) = model.forward_minibatch(&mb, &x);
        let (_, d) = softmax_cross_entropy(&logits, &labels);
        let grads = model.backward_minibatch(&mb, &cache, d);
        let gv = grads.flat_views();
        let pv = model.param_views_mut();
        assert_eq!(gv.len(), pv.len());
        for (g, p) in gv.iter().zip(&pv) {
            assert_eq!(g.len(), p.len());
        }
    }

    #[test]
    fn num_params_counts_everything() {
        let m = GnnModel::new(AggKind::Gcn, &[5, 7, 3], 0);
        assert_eq!(m.num_params(), 5 * 7 + 7 + 7 * 3 + 3);
        let s = GnnModel::new(AggKind::SageMean, &[5, 7, 3], 0);
        assert_eq!(s.num_params(), 10 * 7 + 7 + 14 * 3 + 3);
    }
}
