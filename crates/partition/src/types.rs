//! Partitioning result type and method identifiers.

use gnn_dm_graph::csr::VId;
use gnn_dm_graph::{Graph, Split};

/// The six partitioning methods Table 3 evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionMethod {
    /// Random vertex assignment (P3).
    Hash,
    /// Metis extended with a training-vertex balance constraint.
    MetisV,
    /// Metis-V plus a vertex-degree (edge) balance constraint (DistDGL).
    MetisVE,
    /// Metis-VE plus validation/test balance constraints (SALIENT++).
    MetisVET,
    /// PaGraph-style streaming vertex assignment with L-hop halo caching.
    StreamV,
    /// ByteGNN-style streaming block assignment.
    StreamB,
}

impl PartitionMethod {
    /// All six methods, in Table 3 order.
    pub fn all() -> [PartitionMethod; 6] {
        [
            PartitionMethod::Hash,
            PartitionMethod::MetisV,
            PartitionMethod::MetisVE,
            PartitionMethod::MetisVET,
            PartitionMethod::StreamV,
            PartitionMethod::StreamB,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionMethod::Hash => "Hash",
            PartitionMethod::MetisV => "Metis-V",
            PartitionMethod::MetisVE => "Metis-VE",
            PartitionMethod::MetisVET => "Metis-VET",
            PartitionMethod::StreamV => "Stream-V",
            PartitionMethod::StreamB => "Stream-B",
        }
    }
}

/// A GNN-aware partitioning: a home partition per vertex plus (for
/// PaGraph-style methods) per-partition *halo* sets of additionally
/// replicated vertices whose graph data is cached locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GnnPartitioning {
    /// Home partition of each vertex.
    pub assignment: Vec<u32>,
    /// Number of partitions.
    pub k: usize,
    /// Per-partition sorted lists of replicated (cached) vertices beyond the
    /// home-assigned ones. Empty for methods without replication.
    pub halos: Vec<Vec<VId>>,
}

impl GnnPartitioning {
    /// A partitioning with no replication.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        let halos = vec![Vec::new(); k];
        GnnPartitioning { assignment, k, halos }
    }

    /// Home partition of `v`.
    #[inline]
    pub fn part_of(&self, v: VId) -> u32 {
        self.assignment[v as usize]
    }

    /// `true` if worker `w` can read `v`'s graph data without communication
    /// (home assignment or halo replica).
    pub fn is_local(&self, w: u32, v: VId) -> bool {
        self.assignment[v as usize] == w || self.halos[w as usize].binary_search(&v).is_ok()
    }

    /// [`Self::is_local`] for callers that ask it for many vertices: the
    /// halo lists unpacked into one membership bitset per partition, so a
    /// lookup is two loads instead of a binary search through a halo that
    /// can hold most of the graph (Stream-V's).
    pub fn locality(&self) -> Locality<'_> {
        let words = self.assignment.len().div_ceil(64);
        let mut halo_bits = vec![0u64; self.k * words];
        for (p, halo) in self.halos.iter().enumerate() {
            for &v in halo {
                halo_bits[p * words + v as usize / 64] |= 1 << (v % 64);
            }
        }
        Locality { assignment: &self.assignment, words, halo_bits }
    }

    /// Vertices homed on partition `p`, ascending.
    pub fn members(&self, p: u32) -> Vec<VId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == p)
            .map(|(v, _)| v as VId)
            .collect()
    }

    /// Vertex count per partition.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for &a in &self.assignment {
            s[a as usize] += 1;
        }
        s
    }

    /// Training-vertex count per partition.
    pub fn train_counts(&self, graph: &Graph) -> Vec<usize> {
        self.split_counts(graph, Split::Train)
    }

    /// Count of vertices of the given split per partition.
    pub fn split_counts(&self, graph: &Graph, split: Split) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for (v, &a) in self.assignment.iter().enumerate() {
            if graph.split.split_of(v as VId) == split {
                s[a as usize] += 1;
            }
        }
        s
    }

    /// Sets the halo list of partition `p` (stored sorted + deduplicated;
    /// home-assigned vertices are filtered out).
    pub fn set_halo(&mut self, p: u32, mut halo: Vec<VId>) {
        halo.sort_unstable();
        halo.dedup();
        halo.retain(|&v| self.assignment[v as usize] != p);
        self.halos[p as usize] = halo;
    }

    /// Replication factor: total stored vertex copies (home + halos)
    /// divided by |V|. 1.0 means no replication.
    pub fn replication_factor(&self) -> f64 {
        let n = self.assignment.len();
        if n == 0 {
            return 0.0;
        }
        let replicas: usize = self.halos.iter().map(Vec::len).sum();
        (n + replicas) as f64 / n as f64
    }

    /// Validates that assignments are in range and halos are sorted,
    /// deduplicated, and disjoint from home assignments.
    pub fn validate(&self) -> Result<(), String> {
        if self.halos.len() != self.k {
            return Err(format!("{} halo lists for k={}", self.halos.len(), self.k));
        }
        if let Some(&bad) = self.assignment.iter().find(|&&a| a as usize >= self.k) {
            return Err(format!("assignment {bad} out of range for k={}", self.k));
        }
        for (p, halo) in self.halos.iter().enumerate() {
            if !halo.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("halo of partition {p} not strictly sorted"));
            }
            if let Some(&v) = halo.iter().find(|&&v| self.assignment[v as usize] == p as u32) {
                return Err(format!("halo of partition {p} contains home vertex {v}"));
            }
        }
        Ok(())
    }
}

/// A [`GnnPartitioning`]'s locality relation, built once by
/// [`GnnPartitioning::locality`].
#[derive(Debug, Clone)]
pub struct Locality<'a> {
    assignment: &'a [u32],
    /// 64-bit words per partition in `halo_bits`.
    words: usize,
    /// Bit `v` of partition `p`'s words: `v` is in `p`'s halo.
    halo_bits: Vec<u64>,
}

impl Locality<'_> {
    /// Exactly [`GnnPartitioning::is_local`].
    #[inline]
    pub fn is_local(&self, w: u32, v: VId) -> bool {
        self.assignment[v as usize] == w
            || self.halo_bits[w as usize * self.words + v as usize / 64] >> (v % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_and_sizes() {
        let p = GnnPartitioning::new(vec![0, 1, 0, 1, 1], 2);
        assert_eq!(p.members(0), vec![0, 2]);
        assert_eq!(p.sizes(), vec![2, 3]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn halo_locality() {
        let mut p = GnnPartitioning::new(vec![0, 1, 1], 2);
        assert!(!p.is_local(0, 1));
        p.set_halo(0, vec![2, 1, 1, 0]); // dup + home vertex filtered
        assert_eq!(p.halos[0], vec![1, 2]);
        assert!(p.is_local(0, 1));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn replication_factor_counts_halos() {
        let mut p = GnnPartitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.replication_factor(), 1.0);
        p.set_halo(0, vec![2, 3]);
        assert_eq!(p.replication_factor(), 1.5);
    }

    #[test]
    fn validate_catches_out_of_range() {
        let p = GnnPartitioning::new(vec![0, 5], 2);
        assert!(p.validate().is_err());
    }

    #[test]
    fn method_names() {
        assert_eq!(PartitionMethod::all().len(), 6);
        assert_eq!(PartitionMethod::MetisVET.name(), "Metis-VET");
    }
}
