//! The aggregation kernels and the fused training step against plain
//! references, bit for bit.
//!
//! The kernels walk one output row at a time, in parallel, over a
//! destination-major block; the references below are the serial per-edge
//! loops they replaced (self pass, edge pass, scale pass over a zero-filled
//! output). Every output element must accumulate the same terms in the same
//! order with the same roundings, so equality is on bit patterns — at any
//! thread count, on batches with duplicate seeds and isolated destinations,
//! at widths below, at and above every vector and chunk boundary.

use gnn_dm_graph::csr::{Csr, VId};
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_graph::Graph;
use gnn_dm_nn::loss::softmax_cross_entropy;
use gnn_dm_nn::optim::Optimizer;
use gnn_dm_nn::train::{gather_input_features, seed_labels, train_step};
use gnn_dm_nn::{agg, Adam, AggKind, GnnModel};
use gnn_dm_par::with_threads;
use gnn_dm_sampling::sampler::build_minibatch;
use gnn_dm_sampling::{Block, FanoutSampler, MiniBatch};
use gnn_dm_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generator seeded straight from `seed`: this test crate's one raw
/// seeding site.
#[expect(clippy::disallowed_methods, reason = "test fixtures seed their generator directly")]
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const WIDTHS: [usize; 5] = [1, 5, 32, 33, 602];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Mixed signs and magnitudes with exact zeros and negative zeros salted
/// in: `0.0 + -0.0` is `+0.0`, so a kernel that copies where the reference
/// adds onto a zero-filled row shows up as a sign-bit difference.
fn values(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| match (r * 31 + c * 7 + salt) % 11 {
        0 => 0.0,
        1 => -0.0,
        k => (k as f32 * 0.37 - 1.9) * 3.0f32.powi((r + c) as i32 % 5 - 2),
    })
}

/// A planted-partition in-CSR with two extra vertices no edge touches.
fn csr_with_isolated(feat_dim: usize) -> (Graph, Csr, [VId; 2]) {
    let g = planted_partition(&PplConfig {
        n: 300,
        avg_degree: 9.0,
        num_classes: 4,
        feat_dim,
        ..Default::default()
    });
    let n = g.num_vertices();
    let mut edges: Vec<(VId, VId)> = Vec::new();
    for v in 0..n as VId {
        edges.extend(g.inn.neighbors(v).iter().map(|&u| (v, u)));
    }
    let in_csr = Csr::from_edges(n + 2, &edges);
    (g, in_csr, [n as VId, n as VId + 1])
}

/// Three-layer sampled batches whose seed lists repeat vertices and name
/// the isolated ones.
fn batches(in_csr: &Csr, lone: [VId; 2]) -> Vec<MiniBatch> {
    let sampler = FanoutSampler::new(vec![5, 4, 3]);
    (0..3u64)
        .map(|k| {
            let mut seeds: Vec<VId> = (0..70).map(|i| (i * 13 + k as VId * 7) % 300).collect();
            seeds.extend([lone[0], seeds[3], lone[1], seeds[10], lone[0]]);
            let mb = build_minibatch(in_csr, &seeds, &sampler, &mut rng(k));
            assert!(mb.validate().is_ok());
            assert!(mb.seeds.len() < seeds.len(), "duplicate seeds were given");
            let out = &mb.blocks[2];
            assert!((0..out.num_dst()).any(|d| out.in_degree(d) == 0), "an isolated destination");
            mb
        })
        .collect()
}

fn in_degrees(block: &Block) -> Vec<u32> {
    let mut deg = vec![0u32; block.num_dst()];
    for (_, d) in block.edges() {
        deg[d as usize] += 1;
    }
    deg
}

fn add_row(acc: &mut [f32], scale: Option<f32>, x: &[f32]) {
    for (o, &v) in acc.iter_mut().zip(x) {
        match scale {
            None => *o += v,
            Some(a) => *o += a * v,
        }
    }
}

fn gcn_forward_ref(block: &Block, h: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(block.num_dst(), h.cols());
    for d in 0..block.num_dst() {
        out.row_mut(d).copy_from_slice(h.row(d));
    }
    for (s, d) in block.edges() {
        add_row(out.row_mut(d as usize), None, h.row(s as usize));
    }
    for (d, &deg) in in_degrees(block).iter().enumerate() {
        let inv = 1.0 / (1.0 + deg as f32);
        out.row_mut(d).iter_mut().for_each(|o| *o *= inv);
    }
    out
}

fn gcn_backward_ref(block: &Block, d_out: &Matrix) -> Matrix {
    let deg = in_degrees(block);
    let mut d_src = Matrix::zeros(block.num_src(), d_out.cols());
    for (d, &deg) in deg.iter().enumerate() {
        add_row(d_src.row_mut(d), Some(1.0 / (1.0 + deg as f32)), d_out.row(d));
    }
    for (s, d) in block.edges() {
        let inv = 1.0 / (1.0 + deg[d as usize] as f32);
        add_row(d_src.row_mut(s as usize), Some(inv), d_out.row(d as usize));
    }
    d_src
}

fn sage_forward_ref(block: &Block, h: &Matrix) -> Matrix {
    let dim = h.cols();
    let mut out = Matrix::zeros(block.num_dst(), 2 * dim);
    for d in 0..block.num_dst() {
        out.row_mut(d)[..dim].copy_from_slice(h.row(d));
    }
    for (s, d) in block.edges() {
        add_row(&mut out.row_mut(d as usize)[dim..], None, h.row(s as usize));
    }
    for (d, &deg) in in_degrees(block).iter().enumerate() {
        if deg > 0 {
            let inv = 1.0 / deg as f32;
            out.row_mut(d)[dim..].iter_mut().for_each(|o| *o *= inv);
        }
    }
    out
}

fn sage_backward_ref(block: &Block, d_out: &Matrix) -> Matrix {
    let dim = d_out.cols() / 2;
    let deg = in_degrees(block);
    let mut d_src = Matrix::zeros(block.num_src(), dim);
    for d in 0..block.num_dst() {
        add_row(d_src.row_mut(d), None, &d_out.row(d)[..dim]);
    }
    for (s, d) in block.edges() {
        let inv = 1.0 / deg[d as usize] as f32;
        add_row(d_src.row_mut(s as usize), Some(inv), &d_out.row(d as usize)[dim..]);
    }
    d_src
}

/// The whole in-CSR as one block over every vertex, so the block
/// references double as the full-graph references.
fn full_block(in_csr: &Csr) -> Block {
    let n = in_csr.num_vertices();
    let edges: Vec<(u32, u32)> =
        (0..n as VId).flat_map(|v| in_csr.neighbors(v).iter().map(move |&u| (u, v))).collect();
    Block::from_edges(n, n, &edges)
}

#[test]
fn block_kernels_equal_the_per_edge_loops_at_any_thread_count() {
    let (_, in_csr, lone) = csr_with_isolated(4);
    for mb in batches(&in_csr, lone) {
        for (l, block) in mb.blocks.iter().enumerate() {
            for width in WIDTHS {
                let h = values(block.num_src(), width, l);
                let g1 = values(block.num_dst(), width, l + 3);
                let g2 = values(block.num_dst(), 2 * width, l + 5);
                let want = [
                    bits(&gcn_forward_ref(block, &h)),
                    bits(&gcn_backward_ref(block, &g1)),
                    bits(&sage_forward_ref(block, &h)),
                    bits(&sage_backward_ref(block, &g2)),
                ];
                for threads in THREAD_COUNTS {
                    let got = with_threads(threads, || {
                        [
                            bits(&agg::gcn_block_forward(block, &h)),
                            bits(&agg::gcn_block_backward(block, &g1)),
                            bits(&agg::sage_block_forward(block, &h)),
                            bits(&agg::sage_block_backward(block, &g2)),
                        ]
                    });
                    for (k, name) in ["gcn fwd", "gcn bwd", "sage fwd", "sage bwd"].iter().enumerate() {
                        assert!(
                            got[k] == want[k],
                            "{name}: layer {l}, width {width}, {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn full_graph_kernels_equal_the_per_edge_loops_at_any_thread_count() {
    let (_, in_csr, _) = csr_with_isolated(4);
    let out_csr = in_csr.transpose();
    let n = in_csr.num_vertices();
    let degrees: Vec<usize> = (0..n).map(|v| in_csr.degree(v as VId)).collect();
    let block = full_block(&in_csr);
    for width in WIDTHS {
        let h = values(n, width, 1);
        let g1 = values(n, width, 2);
        let g2 = values(n, 2 * width, 4);
        let want = [
            bits(&gcn_forward_ref(&block, &h)),
            bits(&sage_forward_ref(&block, &h)),
            bits(&gcn_backward_ref(&block, &g1)),
            bits(&sage_backward_ref(&block, &g2)),
        ];
        for threads in THREAD_COUNTS {
            let got = with_threads(threads, || {
                [
                    bits(&agg::gcn_full_forward(&in_csr, &h)),
                    bits(&agg::sage_full_forward(&in_csr, &h)),
                    bits(&agg::gcn_full_backward(&out_csr, &degrees, &g1)),
                    bits(&agg::sage_full_backward(&out_csr, &degrees, &g2)),
                ]
            });
            assert!(got == want, "width {width}, {threads} threads");
        }
    }
}

/// `train_step` aggregates layer 0 straight off the feature table; the
/// piecewise drive materialises the gathered matrix first. Three steps of
/// each from the same initial model must agree on every loss bit and every
/// parameter bit.
#[test]
fn fused_train_step_equals_the_piecewise_drive() {
    let (g, _, _) = csr_with_isolated(19);
    let sampler = FanoutSampler::new(vec![6, 4]);
    for kind in [AggKind::Gcn, AggKind::SageMean] {
        let mut fused = GnnModel::new(kind, &[19, 33, 4], 7);
        let mut pieces = fused.clone();
        let (mut opt_f, mut opt_p) = (Adam::new(0.01), Adam::new(0.01));
        for step in 0..3u64 {
            let seeds: Vec<VId> = (0..64).map(|i| (i * 5 + step as VId * 11) % 300).collect();
            let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng(step));

            let fused_loss = train_step(&mut fused, &mut opt_f, &g, &mb).loss;

            let x = gather_input_features(&g, &mb);
            let (logits, cache) = pieces.forward_minibatch(&mb, &x);
            let (loss, d_logits) = softmax_cross_entropy(&logits, &seed_labels(&g, &mb));
            let grads = pieces.backward_minibatch(&mb, &cache, d_logits);
            opt_p.step(pieces.param_views_mut(), grads.flat_views());

            assert_eq!(fused_loss.to_bits(), loss.to_bits(), "{kind:?} step {step}: loss");
            for (a, b) in fused.layers.iter().zip(&pieces.layers) {
                assert!(bits(&a.w) == bits(&b.w), "{kind:?} step {step}: weights");
                let (ab, bb): (Vec<u32>, Vec<u32>) = (
                    a.b.iter().map(|x| x.to_bits()).collect(),
                    b.b.iter().map(|x| x.to_bits()).collect(),
                );
                assert!(ab == bb, "{kind:?} step {step}: biases");
            }
        }
    }
}
