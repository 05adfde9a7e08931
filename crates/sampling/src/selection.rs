//! Batch selection: which training vertices form each batch (§6.3.2).
//!
//! *Random* selection shuffles the training vertices each epoch and chunks
//! them — unbiased, the default of PyG/DGL/SALIENT/PaGraph/GNNLab/DistDGL.
//! *Cluster-based* selection groups training vertices by a precomputed
//! clustering (Metis in the paper, any assignment here) so batch members are
//! densely connected and their sampled neighborhoods overlap — cheaper per
//! epoch but biased, which is exactly the trade-off Figure 11 / Table 6
//! measure.

use gnn_dm_graph::csr::VId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Batch-selection policy.
#[derive(Debug, Clone)]
pub enum BatchSelection {
    /// Uniformly shuffle training vertices each epoch, then chunk.
    Random,
    /// Group training vertices by `clusters[v]`, shuffle cluster order, then
    /// chunk the concatenation — consecutive batches come from the same
    /// cluster. `clusters` must cover every vertex id that can appear.
    ClusterBased {
        /// Cluster id per vertex (indexed by global vertex id).
        clusters: Vec<u32>,
    },
}

impl BatchSelection {
    /// Splits `train` into batches of `batch_size` for the given epoch.
    /// Selection is deterministic in `(seed, epoch)`.
    ///
    /// The final batch may be smaller than `batch_size`; every training
    /// vertex appears in exactly one batch.
    pub fn select(
        &self,
        train: &[VId],
        batch_size: usize,
        seed: u64,
        epoch: usize,
    ) -> Vec<Vec<VId>> {
        assert!(batch_size > 0, "batch size must be positive");
        #[expect(clippy::disallowed_methods, reason = "a serial shuffle from the seed mixed with the epoch")]
        let mut rng = StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let ordered: Vec<VId> = match self {
            BatchSelection::Random => {
                let mut v = train.to_vec();
                v.shuffle(&mut rng);
                v
            }
            BatchSelection::ClusterBased { clusters } => {
                let num_clusters = clusters.iter().copied().max().map_or(0, |m| m as usize + 1);
                let mut groups: Vec<Vec<VId>> = vec![Vec::new(); num_clusters];
                for &v in train {
                    groups[clusters[v as usize] as usize].push(v);
                }
                // Shuffle cluster visiting order and order within clusters,
                // but keep clusters contiguous: that is what concentrates a
                // batch inside one cluster.
                let mut order: Vec<usize> = (0..num_clusters).collect();
                order.shuffle(&mut rng);
                let mut out = Vec::with_capacity(train.len());
                for g in order {
                    let mut members = std::mem::take(&mut groups[g]);
                    members.shuffle(&mut rng);
                    out.extend(members);
                }
                out
            }
        };
        ordered.chunks(batch_size).map(|c| c.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_set() -> Vec<VId> {
        (0..100).collect()
    }

    #[test]
    fn random_covers_everything_once() {
        let batches = BatchSelection::Random.select(&train_set(), 32, 1, 0);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<VId> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, train_set());
    }

    #[test]
    fn random_reshuffles_across_epochs() {
        let e0 = BatchSelection::Random.select(&train_set(), 100, 1, 0);
        let e1 = BatchSelection::Random.select(&train_set(), 100, 1, 1);
        assert_ne!(e0[0], e1[0]);
    }

    #[test]
    fn random_is_deterministic_per_epoch() {
        let a = BatchSelection::Random.select(&train_set(), 10, 5, 3);
        let b = BatchSelection::Random.select(&train_set(), 10, 5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_based_keeps_clusters_contiguous() {
        // 100 vertices, 4 clusters of 25 consecutive ids.
        let clusters: Vec<u32> = (0..100u32).map(|v| v / 25).collect();
        let sel = BatchSelection::ClusterBased { clusters: clusters.clone() };
        let batches = sel.select(&train_set(), 25, 2, 0);
        assert_eq!(batches.len(), 4);
        for b in &batches {
            let c0 = clusters[b[0] as usize];
            assert!(b.iter().all(|&v| clusters[v as usize] == c0), "batch spans clusters");
        }
    }

    #[test]
    fn cluster_based_covers_everything() {
        let clusters: Vec<u32> = (0..100u32).map(|v| v % 7).collect();
        let sel = BatchSelection::ClusterBased { clusters };
        let mut all: Vec<VId> = sel.select(&train_set(), 13, 4, 2).into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, train_set());
    }

    #[test]
    fn handles_partial_last_batch() {
        let batches = BatchSelection::Random.select(&train_set(), 30, 0, 0);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 10);
    }
}
