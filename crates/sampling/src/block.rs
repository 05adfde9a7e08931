//! Message-flow-graph blocks: the sampled-subgraph representation.
//!
//! A 2-layer GNN batch is a chain of two bipartite *blocks*. Each block maps
//! a set of source vertices (whose embeddings exist) to a smaller set of
//! destination vertices (whose next-layer embeddings are being computed).
//! Sampled vertices are deduplicated — the paper notes this explicitly
//! (§2: "the sampled vertices may be deduplicated") — across the whole
//! batch, which stores each vertex id once.

use gnn_dm_graph::csr::VId;

/// One bipartite layer of a sampled mini-batch: its topology only. The
/// vertex ids live once, in the owning [`MiniBatch`]'s id list: a block's
/// sources are the first [`Block::num_src`] ids of that list and its
/// destinations the first [`Block::num_dst`] (every destination is also a
/// source, as GCN self-loops and GraphSAGE concatenation need), read
/// through [`MiniBatch::src_ids`] and [`MiniBatch::dst_ids`].
///
/// Edges are stored destination-major (CSR): the sources feeding
/// destination `d` are `edge_src[dst_offsets[d]..dst_offsets[d + 1]]`, in
/// the order they were drawn. Aggregation walks one destination's sources
/// at a time and writes each output row once; an in-degree is a
/// subtraction, not a count.
///
/// Invariants (checked by [`Block::validate`]):
/// * there are at least as many sources as destinations;
/// * `dst_offsets` has `num_dst() + 1` entries, starts at 0, never
///   decreases and ends at `edge_src.len()`;
/// * every `edge_src` entry is a valid local source index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Number of source vertices: a prefix of the batch's id list.
    pub(crate) num_src: usize,
    /// Edge range of each destination: `num_dst() + 1` ascending
    /// positions into `edge_src`.
    pub dst_offsets: Vec<u32>,
    /// Local source index of every message edge, grouped by destination;
    /// message flows src → dst.
    pub edge_src: Vec<u32>,
}

impl Block {
    /// Builds a block over `num_src` sources and `num_dst` destinations
    /// from `(src_local_index, dst_local_index)` pairs in any order. Edges
    /// are grouped by destination with a stable counting sort, so each
    /// destination keeps its edges in input order.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a destination index `>= num_dst`.
    pub fn from_edges(num_src: usize, num_dst: usize, edges: &[(u32, u32)]) -> Self {
        let mut dst_offsets = vec![0u32; num_dst + 1];
        for &(_, d) in edges {
            dst_offsets[d as usize + 1] += 1;
        }
        for d in 0..num_dst {
            dst_offsets[d + 1] += dst_offsets[d];
        }
        let mut next = dst_offsets.clone();
        let mut edge_src = vec![0u32; edges.len()];
        for &(s, d) in edges {
            edge_src[next[d as usize] as usize] = s;
            next[d as usize] += 1;
        }
        Block { num_src, dst_offsets, edge_src }
    }

    /// Number of source vertices.
    pub fn num_src(&self) -> usize {
        self.num_src
    }

    /// Number of destination vertices.
    pub fn num_dst(&self) -> usize {
        self.dst_offsets.len() - 1
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
        let Some((&first, &last)) = self.dst_offsets.first().zip(self.dst_offsets.last()) else {
            return Err("offset table needs one entry per destination plus one".into());
        };
        if self.num_src < self.num_dst() {
            return Err("src set smaller than dst set".into());
        }
        if first != 0 {
            return Err("offset table must start at 0".into());
        }
        if let Some(d) = self.dst_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offset table decreases at destination {d}"));
        }
        if last as usize != self.edge_src.len() {
            return Err("offset table must end at the edge count".into());
        }
        if let Some(&s) = self.edge_src.iter().find(|&&s| s as usize >= self.num_src) {
            return Err(format!("edge source index {s} out of range"));
        }
        Ok(())
    }
}

/// A sampled mini-batch: blocks ordered input-most first, so a forward pass
/// consumes `blocks[0]`, then `blocks[1]`, …; `blocks.last()` produces
/// embeddings for exactly `seeds`.
///
/// The batch stores each vertex id once: `ids` lists the input vertices in
/// first-appearance order (the deduplicated seeds, then each layer's new
/// sources), and every block's sources and destinations are prefixes of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniBatch {
    /// Blocks from the input layer to the output layer.
    pub blocks: Vec<Block>,
    /// The training vertices this batch computes predictions for: the first
    /// `blocks.last().num_dst()` ids.
    pub seeds: Vec<VId>,
    /// Every vertex of the batch, duplicate-free, in first-appearance order.
    pub(crate) ids: Vec<VId>,
}

/// Bytes to encode one sampled edge on the wire or bus (two u32 vertex
/// ids) — shared by the PCIe topology-transfer and inter-worker subgraph
/// exchange models.
pub const BYTES_PER_EDGE: u64 = 8;

impl MiniBatch {
    /// The batch over the id list `ids` and `blocks` (input-most first);
    /// the seeds are the output block's destinations, or every id when
    /// there is no block.
    pub fn new(ids: Vec<VId>, blocks: Vec<Block>) -> Self {
        let num_seeds = blocks.last().map_or(ids.len(), Block::num_dst).min(ids.len());
        MiniBatch { seeds: ids[..num_seeds].to_vec(), blocks, ids }
    }

    /// Global ids whose raw features must be loaded — the sources of the
    /// input-most block, which is every vertex of the batch.
    pub fn input_ids(&self) -> &[VId] {
        &self.ids
    }

    /// Global ids of `blocks[l]`'s sources.
    pub fn src_ids(&self, l: usize) -> &[VId] {
        &self.ids[..self.blocks[l].num_src()]
    }

    /// Global ids of `blocks[l]`'s destinations.
    pub fn dst_ids(&self, l: usize) -> &[VId] {
        &self.ids[..self.blocks[l].num_dst()]
    }

    /// Bytes of sampled topology this batch ships ([`BYTES_PER_EDGE`] per
    /// message edge).
    pub fn topo_bytes(&self) -> u64 {
        self.involved_edges() as u64 * BYTES_PER_EDGE
    }

    /// Total distinct vertices appearing anywhere in the batch
    /// (the paper's "involved #V", Table 6).
    pub fn involved_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Total message edges across all blocks (the paper's "involved #E").
    pub fn involved_edges(&self) -> usize {
        self.blocks.iter().map(Block::num_edges).sum()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Validates every block, the id list and how the blocks chain: the
    /// ids are duplicate-free, the input block's sources are every id, each
    /// block's destinations are the next block's sources, and the seeds are
    /// the output block's destinations. (Every block reads its ids as a
    /// prefix of one list, so chaining is a matter of counts.)
    pub fn validate(&self) -> Result<(), String> {
        self.validate_shape()?;
        let mut seen = std::collections::BTreeSet::new();
        if let Some(&v) = self.ids.iter().find(|&&v| !seen.insert(v)) {
            return Err(format!("duplicate vertex id {v}"));
        }
        Ok(())
    }

    /// Every check of [`MiniBatch::validate`] but the duplicate scan. It
    /// allocates nothing unless it fails, so the batch builders
    /// debug-assert it on every batch they hand out.
    pub(crate) fn validate_shape(&self) -> Result<(), String> {
        for (l, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {l}: {e}"))?;
        }
        if let Some(first) = self.blocks.first() {
            if first.num_src() != self.ids.len() {
                return Err("input block sources != the batch's ids".into());
            }
        }
        for (l, w) in self.blocks.windows(2).enumerate() {
            if w[0].num_dst() != w[1].num_src() {
                return Err(format!("block {l} destinations != block {} sources", l + 1));
            }
        }
        let num_seeds = self.blocks.last().map_or(self.ids.len(), Block::num_dst);
        if self.ids.get(..num_seeds) != Some(&self.seeds[..]) {
            return Err("output block destinations != seeds".into());
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
        Block::from_edges(4, 2, &[(2, 0), (3, 0), (2, 1)])
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
        let b = Block::from_edges(4, 3, &unsorted);
        assert!(b.validate().is_ok());
        assert_eq!(b.dst_offsets, vec![0, 3, 6, 7]);
        assert_eq!(b.sources_of(0), &[2, 3, 3], "parallel edges kept, in input order");
        assert_eq!(b.sources_of(1), &[3, 0, 2]);
        assert_eq!(b.sources_of(2), &[1]);
        let mut by_dst = unsorted.to_vec();
        by_dst.sort_by_key(|&(_, d)| d); // stable
        assert_eq!(b.edges().collect::<Vec<_>>(), by_dst);
        assert_eq!(Block::from_edges(4, 3, &by_dst), b);
    }

    #[test]
    fn block_validate_catches_bad_offset_table() {
        let mut short = simple_block();
        short.dst_offsets.clear();
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
        let too_few_sources = Block::from_edges(1, 2, &[]);
        assert!(too_few_sources.validate().is_err(), "every destination is a source");
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
    fn minibatch_reads_each_block_as_a_prefix_of_one_id_list() {
        let b0 = Block::from_edges(4, 2, &[(2, 0), (3, 1)]);
        let b1 = Block::from_edges(2, 1, &[(1, 0)]);
        let mb = MiniBatch::new(vec![1, 2, 3, 4], vec![b0, b1]);
        assert!(mb.validate().is_ok());
        assert_eq!(mb.seeds, vec![1]);
        assert_eq!(mb.involved_vertices(), 4);
        assert_eq!(mb.involved_edges(), 3);
        assert_eq!(mb.input_ids(), &[1, 2, 3, 4]);
        assert_eq!((mb.src_ids(0), mb.dst_ids(0)), (&[1, 2, 3, 4][..], &[1, 2][..]));
        assert_eq!((mb.src_ids(1), mb.dst_ids(1)), (&[1, 2][..], &[1][..]));
    }

    #[test]
    fn minibatch_validate_checks_chaining_ids_and_seeds() {
        let chain = |b1_src| {
            let b0 = Block::from_edges(3, 2, &[]);
            MiniBatch::new(vec![1, 2, 3], vec![b0, Block::from_edges(b1_src, 1, &[])])
        };
        assert!(chain(2).validate().is_ok());
        assert!(chain(3).validate().is_err(), "block 0 has 2 destinations, block 1 3 sources");
        let duplicate = MiniBatch::new(vec![1, 2, 1], vec![Block::from_edges(3, 2, &[])]);
        assert!(duplicate.validate().is_err(), "an id appears once");
        let short = MiniBatch::new(vec![1, 2], vec![Block::from_edges(3, 2, &[])]);
        assert!(short.validate().is_err(), "the input block's sources are every id");
        let mut stale_seeds = chain(2);
        stale_seeds.seeds = vec![2];
        assert!(stale_seeds.validate().is_err(), "the seeds lead the id list");
    }
}
