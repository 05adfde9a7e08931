//! Evaluation computes only the rows its accuracy reads, and a dense layer
//! adds its bias and applies its ReLU as the product stores its tiles;
//! neither may move a bit. `evaluate` over a subset must equal
//! `metrics::accuracy` of the full-graph logits, and every logit row the
//! receptive-field forward computes must equal that vertex's full-graph
//! row — GCN and GraphSAGE, two and three layers, at 1/2/3/8 threads, on
//! subsets that reach part of the graph, all of it, or nothing.

use gnn_dm::graph::csr::{Csr, VId};
use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::graph::Graph;
use gnn_dm::nn::metrics;
use gnn_dm::nn::train::{evaluate, full_logits, subset_logits};
use gnn_dm::nn::{AggKind, GnnModel};
use gnn_dm::par::with_threads;
use gnn_dm::tensor::{ops, Matrix};

/// 1 is the serial reference; 3 leaves remainders on the fixed chunk
/// grids; 8 oversubscribes, so some workers go idle.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The vertex the fixture cuts off from every edge.
const ISOLATED: VId = 7;

/// A sparse planted graph (so a two-hop field is only part of it) in which
/// [`ISOLATED`] has no in- or out-edge.
fn graph() -> Graph {
    let g = planted_partition(&PplConfig {
        n: 600,
        avg_degree: 4.0,
        num_classes: 5,
        feat_dim: 37,
        seed: 29,
        ..Default::default()
    });
    let n = g.num_vertices();
    let edges: Vec<(VId, VId)> = (0..n as VId)
        .flat_map(|u| g.out.neighbors(u).iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| u != ISOLATED && v != ISOLATED)
        .collect();
    let out = Csr::from_edges(n, &edges);
    Graph { inn: out.transpose(), out, ..g }
}

/// A model whose biases are not zero, so the fused bias add has work to do.
fn model(kind: AggKind, dims: &[usize]) -> GnnModel {
    let mut model = GnnModel::new(kind, dims, 13);
    for (l, layer) in model.layers.iter_mut().enumerate() {
        for (j, b) in layer.b.iter_mut().enumerate() {
            *b = ((j * 7 + l * 3) % 11) as f32 * 0.05 - 0.25;
        }
    }
    model
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// The subsets evaluation must get right, by name.
fn subsets(g: &Graph) -> Vec<(&'static str, Vec<VId>)> {
    vec![
        ("empty", Vec::new()),
        ("one vertex", vec![311]),
        ("duplicates", vec![5, 42, 5, ISOLATED, 42, 5, 599]),
        ("isolated vertex", vec![ISOLATED]),
        ("val", g.val_vertices()),
        ("test", g.test_vertices()),
        ("all vertices", (0..g.num_vertices() as VId).collect()),
    ]
}

#[test]
fn evaluate_is_the_full_forward_accuracy_and_its_rows() {
    let g = graph();
    assert!(g.inn.neighbors(ISOLATED).is_empty() && g.out.neighbors(ISOLATED).is_empty());
    let dims: [&[usize]; 2] = [&[37, 16, 5], &[37, 24, 33, 5]];
    for kind in [AggKind::Gcn, AggKind::SageMean] {
        for dims in dims {
            let model = model(kind, dims);
            let full = with_threads(1, || full_logits(&model, &g));
            for (name, subset) in subsets(&g) {
                let mut distinct = subset.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let want = metrics::accuracy(&full, &g.labels, &subset);
                for threads in THREAD_COUNTS {
                    let what = format!("{kind:?} {dims:?}, {name}, {threads} threads");
                    let sub = with_threads(threads, || subset_logits(&model, &g, &subset));
                    assert_eq!(sub.logits.rows(), distinct.len(), "{what}: one row per vertex");
                    for &v in &distinct {
                        let got = sub.logits.row(sub.row_of(v));
                        assert_eq!(bits(got), bits(full.row(v as usize)), "{what}: vertex {v}");
                    }
                    let acc = with_threads(threads, || evaluate(&model, &g, &subset));
                    assert_eq!(acc.to_bits(), want.to_bits(), "{what}: accuracy");
                }
            }
        }
    }
}

/// An id past the last vertex but inside the field bitmap's last word
/// (600 of a 600-vertex graph; the bitmap covers 640) is refused, not read
/// as a row.
#[test]
#[should_panic(expected = "is not a vertex of a 600-vertex graph")]
fn evaluate_refuses_an_id_past_the_last_vertex() {
    let g = graph();
    assert_eq!(g.num_vertices(), 600);
    evaluate(&model(AggKind::Gcn, &[37, 16, 5]), &g, &[3, 600]);
}

/// `matmul_bias_into` against the three passes it replaces — `matmul`,
/// `add_bias`, `relu_in_place` — on shapes off every tile boundary
/// (ragged row groups, ragged column strips, `k` either side of a k-tile
/// edge, and `k = 0`), with or without the ReLU, at every thread count.
#[test]
fn fused_bias_and_relu_are_the_three_pass_reference() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (5, 3, 17),
        (97, 65, 31),
        (193, 129, 49),
        (13, 40, 1),
        (19, 7, 15),
        (29, 131, 47),
        (203, 127, 128),
        (11, 0, 33),
    ];
    for (m, k, n) in shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.37 - 2.2);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.23 - 1.1);
        let bias: Vec<f32> = (0..n).map(|j| ((j * 5) % 9) as f32 * 0.4 - 1.6).collect();
        for relu in [false, true] {
            let mut want = ops::matmul(&a, &b);
            ops::add_bias(&mut want, &bias);
            if relu {
                ops::relu_in_place(&mut want);
            }
            for threads in THREAD_COUNTS {
                let mut got = Matrix::from_vec(m, n, vec![f32::NAN; m * n]);
                with_threads(threads, || ops::matmul_bias_into(&a, &b, &bias, relu, &mut got));
                let what = format!("{m}x{k}x{n}, relu {relu}, {threads} threads");
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what}");
            }
        }
    }
}
