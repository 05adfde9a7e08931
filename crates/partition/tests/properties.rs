//! Property-based tests of the partitioners' contracts.

use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_partition::hash::hash_vertices;
use gnn_dm_partition::metis::{metis_clusters, metis_extend, MetisVariant};
use gnn_dm_partition::{metrics, partition_graph, stream, PartitionMethod};
use proptest::prelude::*;

fn graph(n: usize, seed: u64) -> gnn_dm_graph::Graph {
    planted_partition(&PplConfig {
        n,
        avg_degree: 6.0,
        num_classes: 4,
        feat_dim: 4,
        seed,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every method: valid structure, full coverage, non-empty partitions
    /// when k is sane, and a cut no worse than the number of edges.
    #[test]
    fn partition_contracts(
        n in 60usize..220,
        k in 2usize..6,
        gseed in 0u64..8,
        pseed in 0u64..8,
    ) {
        let g = graph(n, gseed);
        for method in PartitionMethod::all() {
            let part = partition_graph(&g, method, k, pseed);
            prop_assert!(part.validate().is_ok(), "{method:?}");
            prop_assert_eq!(part.k, k);
            let sizes = part.sizes();
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
            let cut = metrics::edge_cut(&g, &part);
            prop_assert!(cut <= g.num_edges());
            // Locality is a fraction.
            let loc = metrics::l_hop_locality(&g, &part, 2, 50);
            prop_assert!((0.0..=1.0).contains(&loc), "{method:?} locality {loc}");
        }
    }

    /// Metis balance guarantees: train counts within (1 + eps) of average,
    /// plus repair slack, for every variant.
    #[test]
    fn metis_balance_guarantee(
        n in 120usize..300,
        gseed in 0u64..8,
        pseed in 0u64..8,
    ) {
        let g = graph(n, gseed);
        for variant in [MetisVariant::V, MetisVariant::VE, MetisVariant::VET] {
            let part = metis_extend(&g, variant, 4, pseed);
            let counts = part.train_counts(&g);
            let total: usize = counts.iter().sum();
            // eps = 0.05 plus generous slack for small partitions.
            let cap = (total as f64 / 4.0) * 1.05 + 6.0;
            for &c in &counts {
                prop_assert!((c as f64) <= cap, "{variant:?} counts {counts:?}");
            }
        }
    }

    /// Stream-V's defining guarantee: perfect 2-hop locality, bought with
    /// replication ≥ 1.
    #[test]
    fn stream_v_locality_guarantee(n in 60usize..200, gseed in 0u64..8, k in 2usize..5) {
        let g = graph(n, gseed);
        let part = stream::stream_v(&g, k, 2);
        let loc = metrics::l_hop_locality(&g, &part, 2, 100);
        prop_assert!((loc - 1.0).abs() < 1e-12, "locality {loc}");
        prop_assert!(part.replication_factor() >= 1.0);
    }

    /// Clustering covers all vertices with ids < k.
    #[test]
    fn metis_clusters_contract(n in 60usize..200, gseed in 0u64..8, k in 2usize..12) {
        let g = graph(n, gseed);
        let clusters = metis_clusters(&g, k, gseed);
        prop_assert_eq!(clusters.len(), n);
        prop_assert!(clusters.iter().all(|&c| (c as usize) < k));
    }

    /// Hash partitioning statistics: sizes concentrate around n/k.
    #[test]
    fn hash_concentration(n in 2000usize..5000, k in 2usize..6, seed in 0u64..10) {
        let part = hash_vertices(n, k, seed);
        let avg = n as f64 / k as f64;
        for s in part.sizes() {
            prop_assert!((s as f64 - avg).abs() < 6.0 * (avg).sqrt(), "size {s} vs avg {avg}");
        }
    }
}

/// The unpacked halo membership the simulators route with is
/// `is_local`, for every (worker, vertex) pair: under Stream-V, whose
/// halos replicate most of the graph, and under Hash, which has none —
/// on graph sizes on and off a 64-vertex word boundary.
#[test]
fn locality_is_is_local_for_every_vertex() {
    for n in [128usize, 203] {
        let g = graph(n, 3);
        let stream_v = partition_graph(&g, PartitionMethod::StreamV, 4, 0);
        assert!(stream_v.halos.iter().any(|h| !h.is_empty()), "Stream-V caches a halo");
        for part in [stream_v, hash_vertices(n, 3, 7)] {
            let locality = part.locality();
            for w in 0..part.k as u32 {
                for v in 0..n as u32 {
                    assert_eq!(locality.is_local(w, v), part.is_local(w, v), "n {n}, w {w}, v {v}");
                }
            }
        }
    }
}
