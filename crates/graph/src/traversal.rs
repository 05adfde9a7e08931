//! BFS and L-hop neighborhood expansion.
//!
//! GNN data partitioning reasons about the *L-hop in-neighborhood* of
//! training vertices (§5.1 of the paper): those are exactly the vertices a
//! sampler can touch when preparing a batch, so partition quality metrics,
//! PaGraph-style L-hop caching (Stream-V), and the distributed sampler all
//! need efficient multi-hop expansion.

use crate::csr::{Csr, VId};

/// A set of vertex ids held as one bit per vertex: the partitioners'
/// sorted, deduplicated vertex sets, built without a sort.
///
/// Inserting sets a bit; [`VertexBits::drain_into`] reads the ids back in
/// ascending order one 64-bit word at a time, clearing each word as it
/// reads it, so one set serves any number of successive vertex sets. A read
/// visits every word, n/64 of them for `n` vertices.
#[derive(Debug)]
pub struct VertexBits {
    words: Vec<u64>,
}

impl VertexBits {
    /// An empty set over the vertices `0..n`.
    pub fn new(n: usize) -> VertexBits {
        VertexBits { words: vec![0; n.div_ceil(64)] }
    }

    /// Adds `v`; returns whether it was absent. Ids must be vertices of the
    /// `n` given to [`VertexBits::new`].
    #[inline]
    pub fn insert(&mut self, v: VId) -> bool {
        let word = &mut self.words[(v >> 6) as usize];
        let bit = 1u64 << (v & 63);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Appends the set's ids to `out` in ascending order and empties the
    /// set.
    pub fn drain_into(&mut self, out: &mut Vec<VId>) {
        out.reserve(self.words.iter().map(|w| w.count_ones() as usize).sum());
        for (i, word) in (0u32..).zip(&mut self.words) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push((i << 6) | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// The union of all vertices within `max_hops` of `seeds` (including the
/// seeds), sorted ascending. Traverses `csr` edges forward; pass the in-CSR
/// to expand in-neighborhoods.
///
/// The set is read off a [`VertexBits`]: every hop but the last grows a
/// frontier of newly reached vertices, and the last hop only sets bits.
///
/// # Panics
///
/// Panics if a seed is not a vertex of `csr`, whatever `max_hops` is.
pub fn l_hop_set(csr: &Csr, seeds: &[VId], max_hops: usize) -> Vec<VId> {
    let n = csr.num_vertices();
    let mut set = VertexBits::new(n);
    let mut frontier = Vec::with_capacity(seeds.len());
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} is not a vertex of a {n}-vertex graph");
        if set.insert(s) {
            frontier.push(s);
        }
    }
    for _ in 1..max_hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in csr.neighbors(v) {
                if set.insert(u) {
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    if max_hops > 0 {
        for &v in &frontier {
            for &u in csr.neighbors(v) {
                set.insert(u);
            }
        }
    }
    let mut all = Vec::new();
    set.drain_into(&mut all);
    all
}

/// Grows a block of roughly `target_size` vertices around `seed` by BFS,
/// skipping vertices already claimed in `claimed` and claiming what it takes.
/// Used by the ByteGNN-style block streaming partitioner (Stream-B), which
/// partitions BFS-grown blocks instead of single vertices.
pub fn grow_block(csr: &Csr, seed: VId, target_size: usize, claimed: &mut [bool]) -> Vec<VId> {
    let mut block = Vec::with_capacity(target_size);
    if claimed[seed as usize] {
        return block;
    }
    claimed[seed as usize] = true;
    let mut queue = std::collections::VecDeque::from([seed]);
    block.push(seed);
    while let Some(v) = queue.pop_front() {
        if block.len() >= target_size {
            break;
        }
        for &u in csr.neighbors(v) {
            if block.len() >= target_size {
                break;
            }
            if !claimed[u as usize] {
                claimed[u as usize] = true;
                block.push(u);
                queue.push_back(u);
            }
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let mut edges = Vec::new();
        for v in 0..n - 1 {
            edges.push((v as VId, v as VId + 1));
            edges.push((v as VId + 1, v as VId));
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn vertex_bits_read_back_sorted_and_empty() {
        let mut set = VertexBits::new(130);
        for v in [129, 3, 64, 3, 0, 63, 129] {
            set.insert(v);
        }
        assert!(!set.insert(64), "64 is already present");
        let mut out = vec![7];
        set.drain_into(&mut out);
        assert_eq!(out, [7, 0, 3, 63, 64, 129]);
        out.clear();
        set.drain_into(&mut out);
        assert!(out.is_empty(), "a read empties the set");
    }

    #[test]
    fn l_hop_set_union() {
        let g = path_graph(6);
        assert_eq!(l_hop_set(&g, &[2], 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(l_hop_set(&g, &[0], 0), vec![0]);
    }

    #[test]
    fn grow_block_respects_claims_and_size() {
        let g = path_graph(10);
        let mut claimed = vec![false; 10];
        let b1 = grow_block(&g, 0, 4, &mut claimed);
        assert_eq!(b1.len(), 4);
        let b2 = grow_block(&g, 0, 4, &mut claimed);
        assert!(b2.is_empty(), "seed already claimed");
        let b3 = grow_block(&g, 9, 4, &mut claimed);
        assert!(!b3.is_empty());
        for v in &b3 {
            assert!(!b1.contains(v), "blocks must not overlap");
        }
    }
}
