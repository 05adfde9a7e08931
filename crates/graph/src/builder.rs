//! Incremental edge-list ingestion.

use crate::csr::{Csr, VId};

/// Accumulates edges and builds a [`Csr`], optionally symmetrizing first.
///
/// The builder is the single entry point used by the synthetic generators so
/// all graphs in the workspace share identical invariants: no self-loops, no
/// duplicate edges, sorted neighbor lists.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VId, VId)>,
}

impl GraphBuilder {
    /// A builder over `n` vertices with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Pre-reserves capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(m) }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Queues a directed edge. Out-of-range endpoints panic at build time.
    #[inline]
    pub fn add_edge(&mut self, u: VId, v: VId) {
        self.edges.push((u, v));
    }

    /// Queues both directions of an edge.
    #[inline]
    pub fn add_undirected(&mut self, u: VId, v: VId) {
        self.edges.push((u, v));
        self.edges.push((v, u));
    }

    /// Builds the directed CSR, dropping self-loops and duplicates.
    pub fn build_directed(self) -> Csr {
        Csr::from_edges(self.n, &self.edges)
    }

    /// Builds a symmetric CSR: every queued edge is mirrored first.
    pub fn build_symmetric(mut self) -> Csr {
        let m = self.edges.len();
        self.edges.reserve(m);
        for i in 0..m {
            let (u, v) = self.edges[i];
            self.edges.push((v, u));
        }
        Csr::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build_directed();
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn symmetric_build_mirrors() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build_symmetric();
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn add_undirected_equivalent_to_symmetric_build() {
        let mut a = GraphBuilder::new(4);
        a.add_undirected(0, 3);
        a.add_undirected(1, 2);
        let ga = a.build_directed();
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3);
        b.add_edge(1, 2);
        let gb = b.build_symmetric();
        assert_eq!(ga, gb);
    }

    #[test]
    fn duplicate_undirected_edges_collapse() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1);
        b.add_undirected(1, 0);
        let g = b.build_directed();
        assert_eq!(g.num_edges(), 2);
    }
}
