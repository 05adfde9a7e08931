//! Property-based tests of the graph substrate.

use gnn_dm_graph::csr::{Csr, VId};
use gnn_dm_graph::generate::{planted_partition, zipf_weights, PplConfig, WeightedSampler};
use gnn_dm_graph::stats;
use gnn_dm_graph::traversal;
use gnn_dm_graph::SplitMask;
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = (usize, Vec<(VId, VId)>)> {
    (2usize..80).prop_flat_map(|n| {
        let edge = (0..n as VId, 0..n as VId);
        (Just(n), proptest::collection::vec(edge, 0..400))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mirrored build really is symmetric and idempotent, and equals the
    /// directed build of the list with every edge also reversed.
    #[test]
    fn undirected_build_is_symmetric((n, edges) in arb_edges()) {
        let sym = Csr::from_undirected_edges(n, &edges);
        prop_assert!(sym.is_symmetric());
        // Symmetrizing again changes nothing.
        let again: Vec<(VId, VId)> = sym.edges().collect();
        prop_assert_eq!(&Csr::from_undirected_edges(n, &again), &sym);
        let both: Vec<(VId, VId)> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        prop_assert_eq!(Csr::from_edges(n, &both), sym);
    }

    /// Degree sum equals edge count; has_edge agrees with the edge iterator.
    #[test]
    fn csr_degree_sum((n, edges) in arb_edges()) {
        let csr = Csr::from_edges(n, &edges);
        let degree_sum: usize = (0..n as VId).map(|v| csr.degree(v)).sum();
        prop_assert_eq!(degree_sum, csr.num_edges());
        for (u, v) in csr.edges() {
            prop_assert!(csr.has_edge(u, v));
        }
    }

    /// Hop levels are disjoint and their union equals the L-hop set.
    #[test]
    fn hop_levels_partition((n, edges) in arb_edges(), hops in 0usize..4) {
        let csr = Csr::from_edges(n, &edges);
        let levels = traversal::hop_levels(&csr, &[0], hops);
        let mut all: Vec<VId> = levels.iter().flatten().copied().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), before, "levels must be disjoint");
        prop_assert_eq!(all, traversal::l_hop_set(&csr, &[0], hops));
    }

    /// Splits cover every vertex exactly once for arbitrary ratios.
    #[test]
    fn split_mask_covers(n in 1usize..500, a in 0.0f64..1.0, b in 0.0f64..1.0, seed in 0u64..20) {
        let (train, val) = (a.max(0.01), b);
        let mask = SplitMask::random(n, train, val, 1.0, seed);
        let (tr, va, te) = mask.counts();
        prop_assert_eq!(tr + va + te, n);
    }

    /// Gini is scale-free and within [0, 1).
    #[test]
    fn gini_bounds((n, edges) in arb_edges()) {
        let csr = Csr::from_edges(n, &edges);
        let g = stats::degree_gini(&csr);
        prop_assert!((0.0..1.0).contains(&g), "gini {g}");
    }

    /// Weighted sampling never returns a zero-weight item when positive
    /// weights exist.
    #[test]
    fn weighted_sampler_avoids_zero_weights(
        weights in proptest::collection::vec(0.0f64..5.0, 2..30),
        seed in 0u64..20,
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let items: Vec<VId> = (0..weights.len() as VId).collect();
        let sampler = WeightedSampler::new(items, &weights);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..50 {
            let drawn = sampler.sample(&mut rng);
            prop_assert!(weights[drawn as usize] > 0.0, "drew zero-weight item {drawn}");
        }
    }

    /// Zipf weights are positive and normalizable.
    #[test]
    fn zipf_weights_positive(n in 1usize..200, alpha in 0.0f64..2.0, seed in 0u64..10) {
        let w = zipf_weights(n, alpha, seed);
        prop_assert_eq!(w.len(), n);
        prop_assert!(w.iter().all(|&x| x > 0.0 && x.is_finite()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Serialization round-trips arbitrary generated graphs.
    #[test]
    fn io_round_trip(n in 20usize..150, deg in 2.0f64..10.0, seed in 0u64..20) {
        let g = planted_partition(&PplConfig {
            n,
            avg_degree: deg,
            num_classes: 3,
            feat_dim: 4,
            seed,
            ..Default::default()
        });
        let mut buf = Vec::new();
        gnn_dm_graph::io::write_graph(&g, &mut buf).unwrap();
        let r = gnn_dm_graph::io::read_graph(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(r.out, g.out);
        prop_assert_eq!(r.features, g.features);
        prop_assert_eq!(r.labels, g.labels);
        prop_assert_eq!(r.split, g.split);
    }

    /// Relabeling by label preserves the degree multiset and split counts.
    #[test]
    fn relabel_preserves_structure(n in 20usize..150, seed in 0u64..20) {
        let g = planted_partition(&PplConfig {
            n,
            avg_degree: 5.0,
            num_classes: 4,
            feat_dim: 4,
            seed,
            ..Default::default()
        });
        let r = gnn_dm_graph::relabel::by_label(&g);
        prop_assert_eq!(r.num_edges(), g.num_edges());
        prop_assert_eq!(r.split.counts(), g.split.counts());
        let mut dg: Vec<usize> = (0..n as VId).map(|v| g.out.degree(v)).collect();
        let mut dr: Vec<usize> = (0..n as VId).map(|v| r.out.degree(v)).collect();
        dg.sort_unstable();
        dr.sort_unstable();
        prop_assert_eq!(dg, dr);
    }
}
