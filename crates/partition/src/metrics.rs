//! Partition-quality metrics reported across §5.
//!
//! These are the *static* measures (cut, balance, locality, clustering
//! variance); dynamic per-worker computation/communication loads during
//! training are accounted by the `gnn-dm-cluster` crate.

use crate::types::GnnPartitioning;
use gnn_dm_graph::{stats, traversal, Graph};

/// Number of directed edges whose endpoints live on different home
/// partitions.
pub fn edge_cut(graph: &Graph, part: &GnnPartitioning) -> usize {
    graph
        .out
        .edges()
        .filter(|&(u, v)| part.part_of(u) != part.part_of(v))
        .count()
}

/// Max-over-average imbalance of a count vector (1.0 = perfectly balanced).
/// Returns infinity when some entries are positive but the average is 0.
pub fn imbalance(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let max = counts.iter().max().copied().unwrap_or(0) as f64;
    let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    if avg == 0.0 {
        if max == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max / avg
    }
}

/// Fraction of L-hop in-neighborhood members of training vertices that are
/// local (home or halo) to the training vertex's worker — the quantity goal
/// 1 of §5.1 maximizes. Evaluated on an evenly-strided sample of up to
/// `sample_cap` training vertices for tractability.
pub fn l_hop_locality(graph: &Graph, part: &GnnPartitioning, hops: usize, sample_cap: usize) -> f64 {
    let train = graph.train_vertices();
    if train.is_empty() {
        return 1.0;
    }
    let stride = (train.len() / sample_cap.max(1)).max(1);
    let locality = part.locality();
    let mut local = 0usize;
    let mut total = 0usize;
    for &v in train.iter().step_by(stride) {
        let w = part.part_of(v);
        for u in traversal::l_hop_set(&graph.inn, &[v], hops) {
            total += 1;
            if locality.is_local(w, u) {
                local += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        local as f64 / total as f64
    }
}

/// Average induced clustering coefficient of each partition's home
/// subgraph. §5.3.1 uses the *variance* of this vector as the partition
/// density-imbalance measure (Hash ≈ 3.6e-6; Stream-V 0.01; Stream-B 0.03).
pub fn partition_clustering(graph: &Graph, part: &GnnPartitioning, per_part_cap: usize) -> Vec<f64> {
    (0..part.k as u32)
        .map(|p| {
            let mut members = part.members(p);
            if members.len() > per_part_cap {
                let stride = members.len() / per_part_cap;
                members = members.into_iter().step_by(stride.max(1)).collect();
            }
            stats::induced_avg_clustering(&graph.out, &members)
        })
        .collect()
}

/// Variance of the per-partition clustering coefficients.
pub fn clustering_variance(graph: &Graph, part: &GnnPartitioning, per_part_cap: usize) -> f64 {
    stats::mean_var(&partition_clustering(graph, part, per_part_cap)).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_vertices;
    use crate::metis::{metis_extend, MetisVariant};
    use gnn_dm_graph::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 1000,
            avg_degree: 10.0,
            num_classes: 5,
            ..Default::default()
        })
    }

    #[test]
    fn edge_cut_zero_for_single_partition() {
        let g = graph();
        let p = GnnPartitioning::new(vec![0; g.num_vertices()], 1);
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn imbalance_basics() {
        assert_eq!(imbalance(&[10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[20, 10, 0]), 2.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn hash_cut_fraction_near_random_expectation() {
        let g = graph();
        let p = hash_vertices(g.num_vertices(), 4, 0);
        let frac = edge_cut(&g, &p) as f64 / g.num_edges() as f64;
        // Random assignment cuts ~ (k-1)/k = 0.75 of edges.
        assert!((frac - 0.75).abs() < 0.05, "cut fraction {frac}");
    }

    #[test]
    fn metis_locality_beats_hash() {
        let g = graph();
        let metis = metis_extend(&g, MetisVariant::V, 4, 1);
        let hash = hash_vertices(g.num_vertices(), 4, 1);
        let lm = l_hop_locality(&g, &metis, 2, 100);
        let lh = l_hop_locality(&g, &hash, 2, 100);
        assert!(lm > lh + 0.1, "metis locality {lm} vs hash {lh}");
    }

    #[test]
    fn hash_clustering_variance_below_stream() {
        // §5.3.1: Hash's partition clustering variance (3.6e-6 on the
        // paper's full-size graphs) is orders of magnitude below the
        // streaming methods' (0.01 / 0.03). At this scale we assert the
        // ordering rather than the absolute numbers.
        let g = planted_partition(&PplConfig {
            n: 2500,
            avg_degree: 14.0,
            num_classes: 8,
            homophily: 0.92,
            skew: 1.1,
            ..Default::default()
        });
        let hash = hash_vertices(g.num_vertices(), 4, 2);
        let stream = crate::stream::stream_b(&g, 4, crate::stream::DEFAULT_BLOCK_SIZE, 2);
        let var_hash = clustering_variance(&g, &hash, usize::MAX);
        let var_stream = clustering_variance(&g, &stream, usize::MAX);
        assert!(
            var_hash < var_stream,
            "hash variance {var_hash} should be below stream variance {var_stream}"
        );
        assert!(var_hash < 0.01, "hash variance {var_hash} should be small in absolute terms");
    }
}
