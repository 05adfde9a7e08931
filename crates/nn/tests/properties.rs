//! Property-based tests of the NN stack: adjoint identities and training
//! invariants over randomized graphs, batches and shapes.

use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_nn::agg;
use gnn_dm_nn::loss::softmax_cross_entropy;
use gnn_dm_nn::{AggKind, GnnModel};
use gnn_dm_sampling::sampler::{build_minibatch, FanoutSampler};
use gnn_dm_tensor::{init, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generator seeded straight from `seed`: this test crate's one raw
/// seeding site.
#[expect(clippy::disallowed_methods, reason = "test fixtures seed their generator directly")]
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn dot(a: &Matrix, b: &Matrix) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ⟨A x, y⟩ = ⟨x, Aᵀ y⟩ for the GCN and SAGE block aggregations on
    /// randomly sampled blocks of randomly generated graphs.
    #[test]
    fn block_aggregations_are_adjoint_pairs(
        n in 40usize..200,
        gseed in 0u64..20,
        fanout in 1usize..6,
        dim in 1usize..8,
    ) {
        let g = planted_partition(&PplConfig {
            n,
            avg_degree: 6.0,
            num_classes: 3,
            feat_dim: 4,
            seed: gseed,
            ..Default::default()
        });
        let sampler = FanoutSampler::new(vec![fanout]);
        let mut rng = rng(gseed ^ 77);
        let seeds: Vec<u32> = (0..(n as u32 / 5).max(1)).collect();
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        let block = &mb.blocks[0];
        let x = init::uniform(block.num_src(), dim, 1.0, gseed ^ 1);
        let y = init::uniform(block.num_dst(), dim, 1.0, gseed ^ 2);
        let lhs = dot(&agg::gcn_block_forward(block, &x), &y);
        let rhs = dot(&x, &agg::gcn_block_backward(block, &y));
        prop_assert!((lhs - rhs).abs() < 1e-3_f32.max(lhs.abs() * 1e-4), "gcn {lhs} vs {rhs}");

        let y2 = init::uniform(block.num_dst(), 2 * dim, 1.0, gseed ^ 3);
        let lhs2 = dot(&agg::sage_block_forward(block, &x), &y2);
        let rhs2 = dot(&x, &agg::sage_block_backward(block, &y2));
        prop_assert!((lhs2 - rhs2).abs() < 1e-3_f32.max(lhs2.abs() * 1e-4), "sage {lhs2} vs {rhs2}");
    }

    /// Softmax cross-entropy: loss is non-negative, gradient rows sum to
    /// zero, and the true-class gradient entry is non-positive.
    #[test]
    fn loss_gradient_structure(
        rows in 1usize..12,
        classes in 2usize..8,
        seed in 0u64..30,
    ) {
        let logits = init::uniform(rows, classes, 4.0, seed);
        let labels: Vec<u32> = (0..rows as u32).map(|r| r % classes as u32).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        prop_assert!(loss >= 0.0 && loss.is_finite());
        for (r, &label) in labels.iter().enumerate() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} sums to {s}");
            prop_assert!(grad.get(r, label as usize) <= 1e-7, "true-class grad must be ≤ 0");
        }
    }

    /// Model forward is permutation-consistent: logits for a seed don't
    /// depend on where it sits in the seed list (same sampled block).
    #[test]
    fn forward_logits_match_full_inference_without_sampling(
        n in 40usize..150,
        gseed in 0u64..10,
    ) {
        // With unbounded fanout the mini-batch forward must equal the exact
        // full-graph forward on the seed rows.
        let g = planted_partition(&PplConfig {
            n,
            avg_degree: 5.0,
            num_classes: 3,
            feat_dim: 6,
            seed: gseed,
            ..Default::default()
        });
        let model = GnnModel::new(AggKind::Gcn, &[6, 5, 3], gseed);
        let sampler = FanoutSampler::new(vec![usize::MAX, usize::MAX]);
        let mut rng = rng(1);
        let seeds: Vec<u32> = (0..8.min(n as u32)).collect();
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        let mut x = Matrix::zeros(mb.input_ids().len(), 6);
        for (i, &v) in mb.input_ids().iter().enumerate() {
            x.row_mut(i).copy_from_slice(g.features.row(v));
        }
        let (mb_logits, _) = model.forward_minibatch(&mb, &x);
        let full_logits = model.full_forward(&g.inn, |v| g.features.row(v as u32));
        for (i, &s) in seeds.iter().enumerate() {
            for c in 0..3 {
                let a = mb_logits.get(i, c);
                let b = full_logits.get(s as usize, c);
                prop_assert!(
                    (a - b).abs() < 1e-3_f32.max(b.abs() * 1e-3),
                    "seed {s} class {c}: minibatch {a} vs full {b}"
                );
            }
        }
    }
}
