//! Property-based tests of the graph substrate.

use gnn_dm_graph::csr::{Csr, VId};
use gnn_dm_graph::generate::{planted_partition, zipf_weights, PplConfig, WeightedSampler};
use gnn_dm_graph::stats;
use gnn_dm_graph::traversal;
use gnn_dm_graph::SplitMask;
use proptest::prelude::*;

/// A generator seeded straight from `seed`: this test crate's one raw
/// seeding site.
#[expect(clippy::disallowed_methods, reason = "test fixtures seed their generator directly")]
fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::SeedableRng::seed_from_u64(seed)
}

fn arb_edges() -> impl Strategy<Value = (usize, Vec<(VId, VId)>)> {
    (2usize..80).prop_flat_map(|n| {
        let edge = (0..n as VId, 0..n as VId);
        (Just(n), proptest::collection::vec(edge, 0..400))
    })
}

/// A graph (edgeless in a quarter of the cases) and a seed list of up to 11
/// vertices whose second half repeats the first.
fn arb_graph_and_seeds() -> impl Strategy<Value = (Csr, Vec<VId>)> {
    arb_edges()
        .prop_flat_map(|(n, edges)| (Just(n), Just(edges), proptest::collection::vec(0..n as VId, 0..8), 0u8..4))
        .prop_map(|(n, edges, mut seeds, edgeless)| {
            let csr = if edgeless == 0 { Csr::empty(n) } else { Csr::from_edges(n, &edges) };
            seeds.extend_from_within(..seeds.len() / 2);
            (csr, seeds)
        })
}

/// The definition `traversal::l_hop_set` replaced with a bitmap read: the
/// vertices reached from `seeds` at each hop level. `levels[0]` holds the
/// deduplicated seeds and `levels[h]` the vertices first reached at hop
/// `h`, for `h <= max_hops`; edges are followed forward.
fn hop_levels(csr: &Csr, seeds: &[VId], max_hops: usize) -> Vec<Vec<VId>> {
    let n = csr.num_vertices();
    let mut seen = vec![false; n];
    let mut levels: Vec<Vec<VId>> = Vec::with_capacity(max_hops + 1);
    let mut frontier: Vec<VId> = Vec::new();
    for &s in seeds {
        if !seen[s as usize] {
            seen[s as usize] = true;
            frontier.push(s);
        }
    }
    levels.push(frontier.clone());
    for _ in 0..max_hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in csr.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            levels.push(next);
            break;
        }
        levels.push(next.clone());
        frontier = next;
    }
    while levels.len() < max_hops + 1 {
        levels.push(Vec::new());
    }
    levels
}

/// The sort-and-deduplicate union of the hop levels.
fn l_hop_oracle(csr: &Csr, seeds: &[VId], max_hops: usize) -> Vec<VId> {
    let mut all: Vec<VId> = hop_levels(csr, seeds, max_hops).into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    all
}

fn path_graph(n: usize) -> Csr {
    let edges: Vec<(VId, VId)> = (1..n as VId).map(|v| (v - 1, v)).collect();
    Csr::from_undirected_edges(n, &edges)
}

#[test]
fn hop_levels_on_path() {
    let levels = hop_levels(&path_graph(6), &[0], 3);
    assert_eq!(levels, [vec![0], vec![1], vec![2], vec![3]]);
}

#[test]
fn hop_levels_dedups_seeds() {
    let levels = hop_levels(&path_graph(4), &[1, 1, 2], 1);
    assert_eq!(levels, [vec![1, 2], vec![0, 3]]);
}

#[test]
fn hop_levels_terminates_on_exhaustion() {
    let levels = hop_levels(&path_graph(3), &[0], 10);
    assert_eq!(levels.len(), 11);
    assert!(levels[3..].iter().all(|l| l.is_empty()));
}

/// A seed that is not a vertex panics at every hop count, also at
/// `max_hops = 0` and for an id inside the bitmap's last word.
#[test]
fn l_hop_set_panics_on_an_out_of_range_seed() {
    for max_hops in [0, 1, 2] {
        for seed in [5, 63, 64, VId::MAX] {
            let caught = std::panic::catch_unwind(|| traversal::l_hop_set(&path_graph(5), &[1, seed], max_hops));
            assert!(caught.is_err(), "seed {seed} at {max_hops} hops did not panic");
        }
    }
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

    /// Hop levels are disjoint, and the L-hop set is their sorted union.
    #[test]
    fn l_hop_set_is_the_union_of_hop_levels((csr, seeds) in arb_graph_and_seeds(), hops in 0usize..5) {
        let levels: usize = hop_levels(&csr, &seeds, hops).iter().map(Vec::len).sum();
        let oracle = l_hop_oracle(&csr, &seeds, hops);
        prop_assert_eq!(oracle.len(), levels, "levels must be disjoint");
        prop_assert_eq!(traversal::l_hop_set(&csr, &seeds, hops), oracle);
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
        let mut rng = rng(seed);
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
