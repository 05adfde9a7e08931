//! BFS and L-hop neighborhood expansion.
//!
//! GNN data partitioning reasons about the *L-hop in-neighborhood* of
//! training vertices (§5.1 of the paper): those are exactly the vertices a
//! sampler can touch when preparing a batch, so partition quality metrics,
//! PaGraph-style L-hop caching (Stream-V), and the distributed sampler all
//! need efficient multi-hop expansion.

use crate::csr::{Csr, VId};

/// Vertices reachable from `seeds` within exactly each hop level.
///
/// Returns `levels[0] = seeds (deduplicated)`, `levels[h]` = vertices first
/// reached at hop `h`, for `h <= max_hops`. Traverses `csr` edges forward;
/// pass the in-CSR to expand in-neighborhoods.
pub fn hop_levels(csr: &Csr, seeds: &[VId], max_hops: usize) -> Vec<Vec<VId>> {
    let n = csr.num_vertices();
    let mut seen = vec![false; n];
    let mut levels: Vec<Vec<VId>> = Vec::with_capacity(max_hops + 1);
    let mut frontier: Vec<VId> = Vec::new();
    for &s in seeds {
        if !seen[s as usize] {
            seen[s as usize] = true;
            frontier.push(s);
        }
    }
    levels.push(frontier.clone());
    for _ in 0..max_hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in csr.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            levels.push(next);
            break;
        }
        levels.push(next.clone());
        frontier = next;
    }
    while levels.len() < max_hops + 1 {
        levels.push(Vec::new());
    }
    levels
}

/// The union of all vertices within `max_hops` of `seeds` (including the
/// seeds), sorted ascending.
pub fn l_hop_set(csr: &Csr, seeds: &[VId], max_hops: usize) -> Vec<VId> {
    let mut all: Vec<VId> = hop_levels(csr, seeds, max_hops).into_iter().flatten().collect();
    all.sort_unstable();
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
    fn hop_levels_on_path() {
        let g = path_graph(6);
        let levels = hop_levels(&g, &[0], 3);
        assert_eq!(levels[0], vec![0]);
        assert_eq!(levels[1], vec![1]);
        assert_eq!(levels[2], vec![2]);
        assert_eq!(levels[3], vec![3]);
    }

    #[test]
    fn hop_levels_dedups_seeds() {
        let g = path_graph(4);
        let levels = hop_levels(&g, &[1, 1, 2], 1);
        assert_eq!(levels[0], vec![1, 2]);
        assert_eq!(levels[1], vec![0, 3]);
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

    #[test]
    fn hop_levels_terminates_on_exhaustion() {
        let g = path_graph(3);
        let levels = hop_levels(&g, &[0], 10);
        assert_eq!(levels.len(), 11);
        assert!(levels[3..].iter().all(|l| l.is_empty()));
    }
}
