//! Message-flow-graph blocks: the sampled-subgraph representation.
//!
//! A 2-layer GNN batch is a chain of two bipartite *blocks*. Each block maps
//! a set of source vertices (whose embeddings exist) to a smaller set of
//! destination vertices (whose next-layer embeddings are being computed).
//! Sampled vertices are deduplicated within a block — the paper notes this
//! explicitly (§2: "the sampled vertices may be deduplicated").

use gnn_dm_graph::csr::VId;

/// One bipartite layer of a sampled mini-batch, stored destination-major
/// (CSR): the sources feeding destination `d` are
/// `edge_src[dst_offsets[d]..dst_offsets[d + 1]]`, in the order they were
/// drawn. Aggregation walks one destination's sources at a time and writes
/// each output row once; an in-degree is a subtraction, not a count.
///
/// Invariants (checked by [`Block::validate`]):
/// * `src_ids[..dst_ids.len()] == dst_ids` — every destination is also a
///   source (self-features are needed by GCN self-loops and GraphSAGE
///   concatenation);
/// * `src_ids` contains no duplicates;
/// * `dst_offsets` has `dst_ids.len() + 1` entries, starts at 0, never
///   decreases and ends at `edge_src.len()`;
/// * every `edge_src` entry is a valid local source index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Global ids of source vertices (deduplicated). The first
    /// `dst_ids.len()` entries are exactly `dst_ids`.
    pub src_ids: Vec<VId>,
    /// Global ids of destination vertices.
    pub dst_ids: Vec<VId>,
    /// Edge range of each destination: `dst_ids.len() + 1` ascending
    /// positions into `edge_src`.
    pub dst_offsets: Vec<u32>,
    /// Local source index of every message edge, grouped by destination;
    /// message flows src → dst.
    pub edge_src: Vec<u32>,
}

impl Block {
    /// Builds a block from `(src_local_index, dst_local_index)` pairs in any
    /// order. Edges are grouped by destination with a stable counting sort,
    /// so each destination keeps its edges in input order.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a destination index `>= dst_ids.len()`.
    pub fn from_edges(src_ids: Vec<VId>, dst_ids: Vec<VId>, edges: &[(u32, u32)]) -> Self {
        let mut dst_offsets = vec![0u32; dst_ids.len() + 1];
        for &(_, d) in edges {
            dst_offsets[d as usize + 1] += 1;
        }
        for d in 0..dst_ids.len() {
            dst_offsets[d + 1] += dst_offsets[d];
        }
        let mut next = dst_offsets.clone();
        let mut edge_src = vec![0u32; edges.len()];
        for &(s, d) in edges {
            edge_src[next[d as usize] as usize] = s;
            next[d as usize] += 1;
        }
        Block { src_ids, dst_ids, dst_offsets, edge_src }
    }

    /// Number of source vertices.
    pub fn num_src(&self) -> usize {
        self.src_ids.len()
    }

    /// Number of destination vertices.
    pub fn num_dst(&self) -> usize {
        self.dst_ids.len()
    }

    /// Number of message edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Local source indices feeding destination `d`, in edge order.
    #[inline]
    pub fn sources_of(&self, d: usize) -> &[u32] {
        &self.edge_src[self.dst_offsets[d] as usize..self.dst_offsets[d + 1] as usize]
    }

    /// In-degree of destination `d` (for mean aggregation).
    #[inline]
    pub fn in_degree(&self, d: usize) -> usize {
        (self.dst_offsets[d + 1] - self.dst_offsets[d]) as usize
    }

    /// Every edge as a `(src_local_index, dst_local_index)` pair, by
    /// ascending destination and in edge order within one.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_dst()).flat_map(move |d| self.sources_of(d).iter().map(move |&s| (s, d as u32)))
    }

    /// Checks the structural invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.src_ids.len() < self.dst_ids.len() {
            return Err("src set smaller than dst set".into());
        }
        if self.src_ids[..self.dst_ids.len()] != self.dst_ids[..] {
            return Err("src_ids must start with dst_ids".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for &s in &self.src_ids {
            if !seen.insert(s) {
                return Err(format!("duplicate source id {s}"));
            }
        }
        if self.dst_offsets.len() != self.dst_ids.len() + 1 {
            return Err(format!(
                "offset table has {} entries for {} destinations",
                self.dst_offsets.len(),
                self.dst_ids.len()
            ));
        }
        if self.dst_offsets[0] != 0 {
            return Err("offset table must start at 0".into());
        }
        if let Some(d) = self.dst_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offset table decreases at destination {d}"));
        }
        if self.dst_offsets[self.dst_ids.len()] as usize != self.edge_src.len() {
            return Err("offset table must end at the edge count".into());
        }
        if let Some(&s) = self.edge_src.iter().find(|&&s| s as usize >= self.src_ids.len()) {
            return Err(format!("edge source index {s} out of range"));
        }
        Ok(())
    }
}

/// A sampled mini-batch: blocks ordered input-most first, so a forward pass
/// consumes `blocks[0]`, then `blocks[1]`, …; `blocks.last()` produces
/// embeddings for exactly `seeds`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniBatch {
    /// Blocks from the input layer to the output layer.
    pub blocks: Vec<Block>,
    /// The training vertices this batch computes predictions for.
    pub seeds: Vec<VId>,
}

/// Bytes to encode one sampled edge on the wire or bus (two u32 vertex
/// ids) — shared by the PCIe topology-transfer and inter-worker subgraph
/// exchange models.
pub const BYTES_PER_EDGE: u64 = 8;

impl MiniBatch {
    /// Global ids whose raw features must be loaded — the sources of the
    /// input-most block.
    pub fn input_ids(&self) -> &[VId] {
        &self.blocks[0].src_ids
    }

    /// Bytes of sampled topology this batch ships ([`BYTES_PER_EDGE`] per
    /// message edge).
    pub fn topo_bytes(&self) -> u64 {
        self.involved_edges() as u64 * BYTES_PER_EDGE
    }

    /// Total distinct vertices appearing anywhere in the batch
    /// (the paper's "involved #V", Table 6).
    pub fn involved_vertices(&self) -> usize {
        // blocks[0].src_ids is a superset of every later layer's vertices by
        // construction (each layer's sources include its destinations).
        self.blocks.first().map_or(0, |b| b.num_src())
    }

    /// Total message edges across all blocks (the paper's "involved #E").
    pub fn involved_edges(&self) -> usize {
        self.blocks.iter().map(Block::num_edges).sum()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Validates every block plus the cross-block chaining invariant:
    /// `blocks[l].dst_ids == blocks[l + 1]`'s sources' prefix… i.e. each
    /// block's destinations are the next block's `dst`-extended sources.
    pub fn validate(&self) -> Result<(), String> {
        for (l, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {l}: {e}"))?;
        }
        for l in 0..self.blocks.len().saturating_sub(1) {
            if self.blocks[l].dst_ids != self.blocks[l + 1].src_ids {
                return Err(format!("block {l} destinations != block {} sources", l + 1));
            }
        }
        if let Some(last) = self.blocks.last() {
            if last.dst_ids != self.seeds {
                return Err("output block destinations != seeds".into());
            }
        }
        Ok(())
    }
}

/// Stamp-versioned dense map from global vertex id to a `u32` payload.
///
/// The batch builders look up and assign block-local indices for every
/// sampled vertex; a tree map pays an allocation per node and a pointer
/// chase per probe, every batch. This map instead keeps one flat array
/// indexed by vertex id of `(generation stamp, payload)` pairs, so a probe
/// is one compare on one cache line and "clear" is a generation bump
/// ([`DenseMap::begin`], O(1)). The array grows lazily to the largest id
/// touched and is then recycled for every subsequent batch by the scratch
/// arenas in [`crate::sampler::SampleScratch`].
///
/// Behavior is identical to a fresh map per batch: an entry is visible
/// only when its stamp equals the current generation, and the stamp space
/// is wiped on the (u32) generation wraparound.
#[derive(Debug, Default)]
pub(crate) struct DenseMap {
    slots: Vec<(u32, u32)>,
    gen: u32,
}

impl DenseMap {
    /// Starts a fresh logical map. Must be called before the first probe;
    /// `gen` starts at 0, which no stamp can match after this runs.
    pub(crate) fn begin(&mut self) {
        if self.gen == u32::MAX {
            self.slots.fill((0, 0));
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    pub(crate) fn get(&self, v: VId) -> Option<u32> {
        match self.slots.get(v as usize) {
            Some(&(stamp, x)) if stamp == self.gen => Some(x),
            _ => None,
        }
    }

    pub(crate) fn insert(&mut self, v: VId, x: u32) {
        let i = v as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, 0));
        }
        self.slots[i] = (self.gen, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_block() -> Block {
        Block::from_edges(vec![5, 9, 1, 3], vec![5, 9], &[(2, 0), (3, 0), (2, 1)])
    }

    #[test]
    fn block_accessors() {
        let b = simple_block();
        assert_eq!(b.num_src(), 4);
        assert_eq!(b.num_dst(), 2);
        assert_eq!(b.num_edges(), 3);
        assert_eq!((b.in_degree(0), b.in_degree(1)), (2, 1));
        assert_eq!(b.sources_of(0), &[2, 3]);
        assert_eq!(b.sources_of(1), &[2]);
        assert!(b.validate().is_ok());
    }

    /// `from_edges` groups by destination without reordering one
    /// destination's edges, and `edges()` reads them back in that order.
    #[test]
    fn from_edges_is_stable_by_destination() {
        let unsorted = [(3, 1), (2, 0), (1, 2), (3, 0), (0, 1), (2, 1), (3, 0)];
        let b = Block::from_edges(vec![7, 8, 9, 4], vec![7, 8, 9], &unsorted);
        assert!(b.validate().is_ok());
        assert_eq!(b.dst_offsets, vec![0, 3, 6, 7]);
        assert_eq!(b.sources_of(0), &[2, 3, 3], "parallel edges kept, in input order");
        assert_eq!(b.sources_of(1), &[3, 0, 2]);
        assert_eq!(b.sources_of(2), &[1]);
        let mut by_dst = unsorted.to_vec();
        by_dst.sort_by_key(|&(_, d)| d); // stable
        assert_eq!(b.edges().collect::<Vec<_>>(), by_dst);
        assert_eq!(Block::from_edges(b.src_ids.clone(), b.dst_ids.clone(), &by_dst), b);
    }

    #[test]
    fn block_validate_catches_bad_offset_table() {
        let mut short = simple_block();
        short.dst_offsets.pop();
        assert!(short.validate().is_err(), "one offset per destination plus one");
        let mut decreasing = simple_block();
        decreasing.dst_offsets[1] = 3;
        decreasing.dst_offsets[2] = 2;
        assert!(decreasing.validate().is_err(), "offsets must not decrease");
        let mut open_ended = simple_block();
        open_ended.dst_offsets[2] = 2;
        assert!(open_ended.validate().is_err(), "offsets must cover every edge");
        let mut shifted = simple_block();
        shifted.dst_offsets[0] = 1;
        assert!(shifted.validate().is_err(), "offsets must start at 0");
    }

    #[test]
    fn block_validate_catches_prefix_violation() {
        let mut b = simple_block();
        b.src_ids.swap(0, 1);
        assert!(b.validate().is_err());
    }

    #[test]
    fn block_validate_catches_duplicates() {
        let mut b = simple_block();
        b.src_ids[3] = 1;
        assert!(b.validate().is_err());
    }

    #[test]
    fn block_validate_catches_bad_edge() {
        let mut b = simple_block();
        b.edge_src[0] = 9;
        assert!(b.validate().is_err());
    }

    #[test]
    fn dense_map_generations_reset_in_o1() {
        let mut m = DenseMap::default();
        m.begin();
        assert_eq!(m.get(5), None);
        m.insert(5, 2);
        assert_eq!(m.get(5), Some(2));
        m.insert(5, 3);
        assert_eq!(m.get(5), Some(3));
        m.begin();
        assert_eq!(m.get(5), None, "generation bump hides old entries");
        m.insert(9, 1);
        assert_eq!(m.get(9), Some(1));
        assert_eq!(m.get(1_000), None, "out-of-range probe is a miss");
    }

    #[test]
    fn minibatch_involved_counts() {
        let b0 = Block::from_edges(vec![1, 2, 3, 4], vec![1, 2], &[(2, 0), (3, 1)]);
        let b1 = Block::from_edges(vec![1, 2], vec![1], &[(1, 0)]);
        let mb = MiniBatch { blocks: vec![b0, b1], seeds: vec![1] };
        assert!(mb.validate().is_ok());
        assert_eq!(mb.involved_vertices(), 4);
        assert_eq!(mb.involved_edges(), 3);
        assert_eq!(mb.input_ids(), &[1, 2, 3, 4]);
    }

    #[test]
    fn minibatch_validate_checks_chaining() {
        let b0 = Block::from_edges(vec![1, 2, 3], vec![1, 2], &[]);
        let b1 = Block::from_edges(vec![2, 1], vec![2], &[]);
        let mb = MiniBatch { blocks: vec![b0, b1], seeds: vec![2] };
        assert!(mb.validate().is_err());
    }
}
