//! Connected components (union–find) and largest-component extraction.
//!
//! Real edge-list datasets are rarely connected; most GNN pipelines train
//! on the largest (weakly) connected component so every training vertex can
//! actually reach neighbors. This module provides the standard
//! preprocessing step.

use crate::csr::{Csr, VId};

/// Disjoint-set union with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Weakly connected component id per vertex (0-based, dense, ordered by
/// first appearance) plus the number of components.
pub fn weakly_connected_components(csr: &Csr) -> (Vec<u32>, usize) {
    let n = csr.num_vertices();
    let mut uf = UnionFind::new(n);
    for (u, v) in csr.edges() {
        uf.union(u, v);
    }
    let mut dense: Vec<u32> = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut out = vec![0u32; n];
    for v in 0..n as u32 {
        let r = uf.find(v);
        if dense[r as usize] == u32::MAX {
            dense[r as usize] = next;
            next += 1;
        }
        out[v as usize] = dense[r as usize];
    }
    (out, next as usize)
}

/// Vertices of the largest weakly connected component, ascending.
pub fn largest_component(csr: &Csr) -> Vec<VId> {
    let (comp, k) = weakly_connected_components(csr);
    if k == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let biggest = (0..k).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
    (0..csr.num_vertices() as u32).filter(|&v| comp[v as usize] == biggest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_components() {
        // 0-1-2 and 3-4.
        let csr = Csr::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]);
        let (comp, k) = weakly_connected_components(&csr);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(largest_component(&csr), vec![0, 1, 2]);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let csr = Csr::empty(4);
        let (comp, k) = weakly_connected_components(&csr);
        assert_eq!(k, 4);
        let mut sorted = comp.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_eq!(largest_component(&csr).len(), 1);
    }

    #[test]
    fn directed_edges_connect_weakly() {
        // 0 -> 1 with no reverse edge still merges weakly.
        let csr = Csr::from_edges(2, &[(0, 1)]);
        let (_, k) = weakly_connected_components(&csr);
        assert_eq!(k, 1);
    }

    #[test]
    fn union_find_merges() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        let root = uf.find(0);
        assert_eq!((uf.find(1), uf.find(2)), (root, root));
        assert_ne!(uf.find(3), root);
        assert_ne!(uf.find(4), root);
    }

    #[test]
    fn generated_graph_is_mostly_one_component() {
        let g = crate::generate::planted_partition(&crate::generate::PplConfig {
            n: 500,
            avg_degree: 8.0,
            ..Default::default()
        });
        let big = largest_component(&g.out);
        assert!(big.len() > 450, "largest component {} of 500", big.len());
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::empty(0);
        let (comp, k) = weakly_connected_components(&csr);
        assert!(comp.is_empty());
        assert_eq!(k, 0);
        assert!(largest_component(&csr).is_empty());
    }
}
