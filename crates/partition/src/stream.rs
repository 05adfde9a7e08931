//! Streaming partitioners: PaGraph-style Stream-V and ByteGNN-style
//! Stream-B (§5.2).
//!
//! Both assign work greedily in a single pass using set-intersection scores
//! — which is exactly why the paper measures them as the *slowest*
//! partitioners by far (§5.3.3: Stream-V ≈ 99% and Stream-B ≈ 85% of total
//! training time). The faithful variants intentionally follow the published
//! algorithms rather than optimizing them away; their cost is part of the
//! phenomenon under study.
//!
//! The sorted vertex sets they score — Stream-V's L-hop hoods
//! ([`traversal::l_hop_set`]) and Stream-B's block neighbour sets — are read
//! off a [`VertexBits`] bitmap rather than sorted, so building a set is not
//! mistaken for the algorithm's cost. What remains of the faithful cost is
//! the published part: the sorted-set intersections against each
//! partition's member list and the merges that keep those lists sorted.

use crate::types::GnnPartitioning;
use gnn_dm_graph::csr::VId;
use gnn_dm_graph::traversal::{self, VertexBits};
use gnn_dm_graph::{Graph, Split};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Default BFS block size for Stream-B.
pub const DEFAULT_BLOCK_SIZE: usize = 32;

/// PaGraph-style streaming vertex partitioning with L-hop halo caching —
/// the *published* algorithm, including its cost profile.
///
/// Each *training* vertex `v` is assigned to the partition with the largest
/// overlap between `v`'s L-hop neighborhood and the partition's current
/// vertex set, weighted by remaining training-vertex capacity (goals 1 and
/// 2). The partition then caches `v`'s entire L-hop neighborhood locally, so
/// sampling never needs remote data — the paper's explanation for Stream-V's
/// zero communication in Figure 5.
///
/// Scoring intersects the L-hop set against each partition's (growing)
/// sorted member list — the "extensive set intersection computations" the
/// paper blames for streaming's 99% partitioning-time share (§5.3.3). See
/// [`stream_v_fast`] for a bitmap-indexed variant that removes that cost,
/// used by the `ablate_stream_impl` study.
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition").
pub fn stream_v(graph: &Graph, k: usize, hops: usize) -> GnnPartitioning {
    stream_v_impl(graph, k, hops, false)
}

/// [`stream_v`] with O(1) bitmap membership tests instead of sorted-set
/// intersections — identical output, far cheaper. Demonstrates that the
/// published cost is an implementation artifact (paper lesson 5.4-(4)).
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition").
pub fn stream_v_fast(graph: &Graph, k: usize, hops: usize) -> GnnPartitioning {
    stream_v_impl(graph, k, hops, true)
}

fn stream_v_impl(graph: &Graph, k: usize, hops: usize, fast: bool) -> GnnPartitioning {
    assert!(k >= 1, "need at least one partition");
    let n = graph.num_vertices();
    let train = graph.train_vertices();
    let cap_train = (train.len() as f64 / k as f64) * 1.05 + 1.0;

    // Partition contents, in both representations. The faithful scorer only
    // reads `members` (sorted vecs); the fast scorer only reads `present`.
    let mut members: Vec<Vec<VId>> = vec![Vec::new(); k];
    let mut present: Vec<Vec<bool>> = vec![vec![false; n]; k];
    let mut train_counts = vec![0usize; k];
    let mut home = vec![u32::MAX; n];

    for &v in &train {
        let hood = traversal::l_hop_set(&graph.inn, &[v], hops);
        // Score every partition: overlap with already-present vertices,
        // scaled by remaining train capacity (PaGraph's balance factor).
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..k {
            if train_counts[p] as f64 >= cap_train {
                continue;
            }
            let overlap = if fast {
                hood.iter().filter(|&&u| present[p][u as usize]).count()
            } else {
                gnn_dm_graph::stats::sorted_intersection_count(&hood, &members[p])
            };
            let slack = 1.0 - train_counts[p] as f64 / cap_train;
            let score = (overlap as f64 + 1.0) * slack;
            if score > best_score {
                best_score = score;
                best = p;
            }
        }
        train_counts[best] += 1;
        home[v as usize] = best as u32;
        // Merge the neighborhood into the winner's member list (sorted).
        let fresh: Vec<VId> =
            hood.iter().copied().filter(|&u| !present[best][u as usize]).collect();
        for &u in &fresh {
            present[best][u as usize] = true;
        }
        if !fresh.is_empty() {
            let mut merged = Vec::with_capacity(members[best].len() + fresh.len());
            let (mut i, mut j) = (0, 0);
            let old = &members[best];
            while i < old.len() && j < fresh.len() {
                if old[i] < fresh[j] {
                    merged.push(old[i]);
                    i += 1;
                } else {
                    merged.push(fresh[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&old[i..]);
            merged.extend_from_slice(&fresh[j..]);
            members[best] = merged;
        }
    }

    // Home for non-train vertices: the first partition that cached them;
    // fall back to round-robin for untouched vertices.
    let mut rr = 0u32;
    for v in 0..n as u32 {
        if home[v as usize] != u32::MAX {
            continue;
        }
        let cacher = (0..k).find(|&p| present[p][v as usize]);
        home[v as usize] = match cacher {
            Some(p) => p as u32,
            None => {
                let p = rr;
                rr = (rr + 1) % k as u32;
                p
            }
        };
    }

    let mut part = GnnPartitioning::new(home, k);
    for (p, c) in members.into_iter().enumerate() {
        part.set_halo(p as u32, c);
    }
    debug_assert!(part.validate().is_ok());
    part
}

/// ByteGNN-style streaming *block* partitioning.
///
/// Vertices are grouped into BFS-grown blocks seeded at training vertices;
/// each block goes to the partition with the most edges connecting to it,
/// subject to balance caps on train/val/test vertex counts (goals 1 and 2 at
/// block granularity).
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition") or `block_size` is
/// 0.
pub fn stream_b(graph: &Graph, k: usize, block_size: usize, seed: u64) -> GnnPartitioning {
    stream_b_impl(graph, k, block_size, seed, false)
}

/// [`stream_b`] with O(1) assignment-array lookups instead of sorted-set
/// intersections — identical output, far cheaper (see `ablate_stream_impl`).
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition") or `block_size` is
/// 0.
pub fn stream_b_fast(graph: &Graph, k: usize, block_size: usize, seed: u64) -> GnnPartitioning {
    stream_b_impl(graph, k, block_size, seed, true)
}

fn stream_b_impl(
    graph: &Graph,
    k: usize,
    block_size: usize,
    seed: u64,
    fast: bool,
) -> GnnPartitioning {
    assert!(k >= 1, "need at least one partition");
    assert!(block_size >= 1, "block size must be positive");
    let n = graph.num_vertices();
    #[expect(clippy::disallowed_methods, reason = "a serial root: one stream from the partitioner's seed")]
    let mut rng = StdRng::seed_from_u64(seed);

    // ByteGNN generates one block per *training vertex*: a capped BFS over
    // its multi-hop neighborhood. Blocks overlap; a vertex is finally
    // assigned by the first block that wins it. Remaining untouched
    // vertices get disjoint BFS blocks afterwards.
    let mut train = graph.train_vertices();
    train.shuffle(&mut rng);
    let mut blocks: Vec<Vec<VId>> = Vec::with_capacity(train.len());
    let mut bfs_buf = std::collections::VecDeque::new();
    let mut seen = vec![false; n];
    for &s in &train {
        // Capped BFS from s (overlap with other blocks allowed).
        let mut block = Vec::with_capacity(block_size);
        bfs_buf.clear();
        bfs_buf.push_back(s);
        seen[s as usize] = true;
        block.push(s);
        while let Some(v) = bfs_buf.pop_front() {
            if block.len() >= block_size {
                break;
            }
            for &u in graph.out.neighbors(v) {
                if block.len() >= block_size {
                    break;
                }
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    block.push(u);
                    bfs_buf.push_back(u);
                }
            }
        }
        for &v in &block {
            seen[v as usize] = false; // reset for the next block
        }
        blocks.push(block);
    }
    // Disjoint blocks for vertices no training block reached.
    let mut claimed = vec![false; n];
    for b in &blocks {
        for &v in b {
            claimed[v as usize] = true;
        }
    }
    let mut claimed_rest = claimed.clone();
    for s in 0..n as VId {
        if !claimed_rest[s as usize] {
            let block = traversal::grow_block(&graph.out, s, block_size, &mut claimed_rest);
            if !block.is_empty() {
                blocks.push(block);
            }
        }
    }

    // Stream blocks to partitions.
    let totals = {
        let (tr, va, te) = graph.split.counts();
        [tr, va, te]
    };
    let caps: Vec<f64> = totals.iter().map(|&t| (t as f64 / k as f64) * 1.10 + 1.0).collect();
    let mut counts = vec![[0usize; 3]; k];
    let mut assignment = vec![0u32; n];
    let mut assigned = vec![false; n];
    // Sorted member lists per partition — what the faithful scorer
    // intersects against (ByteGNN's published cost profile, §5.3.3).
    let mut members: Vec<Vec<VId>> = vec![Vec::new(); k];
    let mut conn = vec![0usize; k];
    let mut nbr_bits = VertexBits::new(n);
    let mut nbrs: Vec<VId> = Vec::new();
    for full_block in &blocks {
        conn.iter_mut().for_each(|c| *c = 0);
        let mut block_counts = [0usize; 3];
        // Score the block as generated — a streaming partitioner has
        // already paid for the block's neighbor set before it can see how
        // much of the block is still unassigned.
        for &v in full_block {
            for &u in graph.out.neighbors(v) {
                nbr_bits.insert(u);
            }
        }
        nbrs.clear();
        nbr_bits.drain_into(&mut nbrs);
        // Blocks overlap: only vertices not yet assigned by an earlier
        // block are (re-)assigned.
        let block: Vec<VId> =
            full_block.iter().copied().filter(|&v| !assigned[v as usize]).collect();
        let block = &block;
        if fast {
            for &u in &nbrs {
                if assigned[u as usize] {
                    conn[assignment[u as usize] as usize] += 1;
                }
            }
        } else {
            // Intersect against each partition's member list — ByteGNN's
            // published cost profile.
            for (p, conn_p) in conn.iter_mut().enumerate() {
                *conn_p = gnn_dm_graph::stats::sorted_intersection_count(&nbrs, &members[p]);
            }
        }
        for &v in block {
            match graph.split.split_of(v) {
                Split::Train => block_counts[0] += 1,
                Split::Val => block_counts[1] += 1,
                Split::Test => block_counts[2] += 1,
            }
        }
        let fits = |p: usize| {
            (0..3).all(|i| counts[p][i] as f64 + block_counts[i] as f64 <= caps[i])
        };
        // Best-connected partition that fits, breaking ties (and the
        // no-connectivity cold start) toward the least-loaded partition.
        let mut best: Option<(usize, usize)> = None;
        for p in 0..k {
            if fits(p) {
                let better = match best {
                    None => true,
                    Some((bp, bc)) => {
                        conn[p] > bc || (conn[p] == bc && counts[p][0] < counts[bp][0])
                    }
                };
                if better {
                    best = Some((p, conn[p]));
                }
            }
        }
        let p = best
            .map(|(p, _)| p)
            .or_else(|| (0..k).min_by_key(|&p| counts[p][0]))
            .unwrap_or(0);
        for &v in block {
            assignment[v as usize] = p as u32;
            assigned[v as usize] = true;
        }
        if !fast {
            let mut sorted_block = block.clone();
            sorted_block.sort_unstable();
            let old = std::mem::take(&mut members[p]);
            let mut merged = Vec::with_capacity(old.len() + sorted_block.len());
            let (mut i, mut j) = (0, 0);
            while i < old.len() && j < sorted_block.len() {
                if old[i] < sorted_block[j] {
                    merged.push(old[i]);
                    i += 1;
                } else {
                    merged.push(sorted_block[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&old[i..]);
            merged.extend_from_slice(&sorted_block[j..]);
            members[p] = merged;
        }
        for i in 0..3 {
            counts[p][i] += block_counts[i];
        }
    }
    let part = GnnPartitioning::new(assignment, k);
    debug_assert!(part.validate().is_ok());
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 1200,
            avg_degree: 10.0,
            num_classes: 6,
            homophily: 0.9,
            skew: 0.7,
            ..Default::default()
        })
    }

    #[test]
    fn stream_v_has_full_l_hop_locality() {
        let g = graph();
        let p = stream_v(&g, 4, 2);
        assert!(p.validate().is_ok());
        let loc = metrics::l_hop_locality(&g, &p, 2, 200);
        assert!((loc - 1.0).abs() < 1e-9, "Stream-V locality {loc} should be exactly 1");
    }

    #[test]
    fn stream_v_balances_train_vertices() {
        let g = graph();
        let p = stream_v(&g, 4, 2);
        let counts = p.train_counts(&g);
        let total: usize = counts.iter().sum();
        let cap = (total as f64 / 4.0) * 1.10 + 1.0;
        for &c in &counts {
            assert!((c as f64) <= cap, "train counts {counts:?}");
        }
    }

    #[test]
    fn stream_v_replicates_data() {
        let g = graph();
        let p = stream_v(&g, 4, 2);
        assert!(
            p.replication_factor() > 1.2,
            "replication factor {} — caching L-hop neighborhoods must replicate",
            p.replication_factor()
        );
    }

    #[test]
    fn stream_b_covers_and_balances() {
        let g = graph();
        let p = stream_b(&g, 4, DEFAULT_BLOCK_SIZE, 3);
        assert!(p.validate().is_ok());
        assert!(p.sizes().iter().all(|&s| s > 0));
        let counts = p.train_counts(&g);
        let total: usize = counts.iter().sum();
        let cap = (total as f64 / 4.0) * 1.20 + DEFAULT_BLOCK_SIZE as f64;
        for &c in &counts {
            assert!((c as f64) <= cap, "train counts {counts:?}");
        }
    }

    #[test]
    fn stream_b_beats_hash_on_cut() {
        let g = graph();
        let pb = stream_b(&g, 4, DEFAULT_BLOCK_SIZE, 3);
        let ph = crate::hash::hash_vertices(g.num_vertices(), 4, 3);
        let cut_b = metrics::edge_cut(&g, &pb);
        let cut_h = metrics::edge_cut(&g, &ph);
        assert!(cut_b < cut_h, "stream-b cut {cut_b} vs hash {cut_h}");
    }

    #[test]
    fn stream_b_no_replication() {
        let g = graph();
        let p = stream_b(&g, 4, DEFAULT_BLOCK_SIZE, 1);
        assert_eq!(p.replication_factor(), 1.0);
    }

    #[test]
    fn fast_variants_match_faithful_outputs() {
        let g = graph();
        assert_eq!(stream_v(&g, 4, 2), stream_v_fast(&g, 4, 2));
        assert_eq!(stream_b(&g, 4, 16, 5), stream_b_fast(&g, 4, 16, 5));
    }

    #[test]
    fn single_partition_cases() {
        let g = graph();
        let pv = stream_v(&g, 1, 2);
        assert!(pv.assignment.iter().all(|&a| a == 0));
        let pb = stream_b(&g, 1, 16, 0);
        assert!(pb.assignment.iter().all(|&a| a == 0));
    }
}
