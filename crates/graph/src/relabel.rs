//! Vertex relabeling.
//!
//! Real-world datasets rarely number vertices randomly: OGB citation graphs
//! order papers by submission time, crawled web/social graphs by discovery
//! order — both correlate with community structure. That id-locality is
//! what gives the feature array the *heterogeneous* per-block density the
//! hybrid-transfer analysis (Figures 15/16) observes. Synthetic graphs
//! shuffle labels across the id space, so [`by_label`] restores a
//! realistic, community-correlated ordering; [`apply_permutation`] is the
//! general mechanism.

use crate::csr::{Csr, VId};
use crate::features::FeatureTable;
use crate::mask::SplitMask;
use crate::Graph;

/// Relabels a graph with an explicit permutation: vertex `v` becomes
/// `perm[v]`. `perm` must be a bijection on `0..n`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of the vertex ids.
#[allow(clippy::needless_range_loop, reason = "parallel-array indexing is the clear form here")]
pub fn apply_permutation(graph: &Graph, perm: &[VId]) -> Graph {
    let n = graph.num_vertices();
    assert_eq!(perm.len(), n, "permutation must cover every vertex");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(!seen[p as usize], "permutation must be a bijection");
        seen[p as usize] = true;
    }

    let remap_csr = |csr: &Csr| {
        let edges: Vec<(VId, VId)> =
            csr.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])).collect();
        Csr::from_edges(n, &edges)
    };
    let out = remap_csr(&graph.out);
    let inn = remap_csr(&graph.inn);

    let dim = graph.feat_dim();
    let mut features = FeatureTable::zeros(n, dim);
    let mut labels = vec![0u32; n];
    let mut splits = vec![crate::Split::Train; n];
    for v in 0..n {
        let nv = perm[v] as usize;
        features.row_mut(nv as VId).copy_from_slice(graph.features.row(v as VId));
        labels[nv] = graph.labels[v];
        splits[nv] = graph.split.split_of(v as VId);
    }
    let g = Graph {
        out,
        inn,
        features,
        labels,
        num_classes: graph.num_classes,
        split: SplitMask::from_assignment(splits),
    };
    debug_assert!(g.validate().is_ok());
    g
}

/// Relabels vertices so same-label vertices receive contiguous ids
/// (stable within a label) — the community-correlated ordering real
/// datasets exhibit.
pub fn by_label(graph: &Graph) -> Graph {
    let n = graph.num_vertices();
    let mut order: Vec<VId> = (0..n as VId).collect();
    order.sort_by_key(|&v| (graph.labels[v as usize], v));
    let mut perm = vec![0 as VId; n];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as VId;
    }
    apply_permutation(graph, &perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 300,
            avg_degree: 8.0,
            num_classes: 5,
            feat_dim: 8,
            ..Default::default()
        })
    }

    #[test]
    fn by_label_groups_ids() {
        let g = by_label(&graph());
        assert!(g.validate().is_ok());
        // Labels must be non-decreasing in id order.
        assert!(g.labels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn relabeling_preserves_structure() {
        let g = graph();
        let r = by_label(&g);
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.num_vertices(), g.num_vertices());
        // Degree multiset is invariant.
        let mut dg: Vec<usize> = (0..g.num_vertices()).map(|v| g.out.degree(v as VId)).collect();
        let mut dr: Vec<usize> = (0..r.num_vertices()).map(|v| r.out.degree(v as VId)).collect();
        dg.sort_unstable();
        dr.sort_unstable();
        assert_eq!(dg, dr);
        // Split counts invariant.
        assert_eq!(g.split.counts(), r.split.counts());
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = graph();
        let perm: Vec<VId> = (0..g.num_vertices() as VId).collect();
        let r = apply_permutation(&g, &perm);
        assert_eq!(r.out, g.out);
        assert_eq!(r.labels, g.labels);
        assert_eq!(r.features, g.features);
    }

    #[test]
    fn features_follow_vertices() {
        let g = graph();
        let r = by_label(&g);
        // Pick a vertex, find its new id by matching the unique feature row.
        let old = 7u32;
        let row = g.features.row(old);
        let found = (0..r.num_vertices() as u32)
            .find(|&v| r.features.row(v) == row)
            .expect("row must survive");
        assert_eq!(r.labels[found as usize], g.labels[old as usize]);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn rejects_non_bijection() {
        let g = graph();
        let mut perm: Vec<VId> = (0..g.num_vertices() as VId).collect();
        perm[0] = 1;
        let _ = apply_permutation(&g, &perm);
    }
}
