//! A from-scratch multilevel graph partitioner with multi-constraint
//! balancing — the "Metis-extend" family (§5.2).
//!
//! Pipeline (the classic Metis recipe \[19\]):
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched pairs
//!    until the graph is small;
//! 2. **Initial partitioning** — BFS region growing on the coarsest graph;
//! 3. **Uncoarsening + refinement** — the assignment is projected back level
//!    by level and improved with boundary Kernighan–Lin passes that respect
//!    every balance constraint.
//!
//! The paper's three variants differ only in the constraint set:
//! *Metis-V* balances training vertices; *Metis-VE* also balances vertex
//! degrees (≈ edges); *Metis-VET* additionally balances validation and test
//! vertices. More constraints veto more refinement moves, which is exactly
//! why the paper observes cut (and thus communication) ordered
//! Metis-V < Metis-VE < Metis-VET (§5.3.2).

use crate::types::GnnPartitioning;
use gnn_dm_graph::csr::VId;
use gnn_dm_graph::{Graph, Split};
use gnn_dm_par::{par_chunks_mut, par_map_collect, par_map_collect_init};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which constraint set to apply (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetisVariant {
    /// Balance training vertices only.
    V,
    /// Balance training vertices and vertex degrees (DistDGL).
    VE,
    /// Balance train/val/test vertices and vertex degrees (SALIENT++).
    VET,
}

/// Tunables for the multilevel partitioner.
#[derive(Debug, Clone)]
pub struct MetisConfig {
    /// Number of partitions.
    pub k: usize,
    /// Per-constraint imbalance tolerance; partition weight may reach
    /// `(1 + eps) * total / k`.
    pub eps: Vec<f64>,
    /// Stop coarsening below this many vertices.
    pub coarsen_until: usize,
    /// Boundary-refinement passes per level (ablated in
    /// `ablate_metis_refine`).
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One level of the multilevel hierarchy: a weighted symmetric graph.
struct WeightedLevel {
    /// Adjacency with merged parallel-edge weights.
    adj: Vec<Vec<(u32, f64)>>,
    /// Per-vertex constraint vectors (all the same length).
    vwgt: Vec<Vec<f64>>,
    /// Map from the *finer* level's vertices to this level's vertices
    /// (empty for the finest level).
    fine_to_coarse: Vec<u32>,
}

impl WeightedLevel {
    fn n(&self) -> usize {
        self.adj.len()
    }
}

/// Runs Metis-extend with the given variant on a graph.
pub fn metis_extend(graph: &Graph, variant: MetisVariant, k: usize, seed: u64) -> GnnPartitioning {
    let (vwgt, eps) = constraint_vectors(graph, variant);
    let cfg = MetisConfig { k, eps, coarsen_until: (8 * k).max(64), refine_passes: 4, seed };
    let assignment = multilevel_partition(&adjacency_of(graph), vwgt, &cfg);
    GnnPartitioning::new(assignment, k)
}

/// Plain Metis clustering (count balance only) — used for cluster-based
/// batch selection (§6.3.2) and as the Legion/DistDGL clustering substrate.
pub fn metis_clusters(graph: &Graph, k: usize, seed: u64) -> Vec<u32> {
    let n = graph.num_vertices();
    let vwgt: Vec<Vec<f64>> = (0..n).map(|_| vec![1.0]).collect();
    let cfg = MetisConfig {
        k,
        eps: vec![0.3],
        coarsen_until: (8 * k).max(64),
        refine_passes: 2,
        seed,
    };
    multilevel_partition(&adjacency_of(graph), vwgt, &cfg)
}

/// Builds the per-vertex constraint vectors for a variant. Returns
/// `(vwgt, eps)`; constraint 0 is always the (loosely balanced) vertex
/// count so partitions cannot degenerate.
pub fn constraint_vectors(graph: &Graph, variant: MetisVariant) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = graph.num_vertices();
    let mut vwgt = Vec::with_capacity(n);
    for v in 0..n {
        let s = graph.split.split_of(v as VId);
        let train = (s == Split::Train) as u8 as f64;
        let val = (s == Split::Val) as u8 as f64;
        let test = (s == Split::Test) as u8 as f64;
        let deg = graph.out.degree(v as VId) as f64;
        let row = match variant {
            MetisVariant::V => vec![1.0, train],
            MetisVariant::VE => vec![1.0, train, deg],
            MetisVariant::VET => vec![1.0, train, val, test, deg],
        };
        vwgt.push(row);
    }
    let eps = match variant {
        MetisVariant::V => vec![1.0, 0.05],
        MetisVariant::VE => vec![1.0, 0.05, 0.10],
        MetisVariant::VET => vec![1.0, 0.05, 0.05, 0.05, 0.10],
    };
    (vwgt, eps)
}

fn adjacency_of(graph: &Graph) -> Vec<Vec<(u32, f64)>> {
    // Pure per-vertex rows — parallel construction is trivially identical.
    let ids: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    par_map_collect(&ids, |_, &v| {
        let mut row: Vec<(u32, f64)> = Vec::new(); // lint:allow(R003) each row is the closure's return value; adjacency is built once per coarsening level, not per epoch
        for &u in graph.out.neighbors(v as VId) {
            row.push((u, 1.0));
        }
        // Make symmetric for directed graphs: also add reverse edges.
        for &u in graph.inn.neighbors(v as VId) {
            if !graph.out.has_edge(v as VId, u) {
                row.push((u, 1.0));
            }
        }
        row
    })
}

/// The full multilevel pipeline over a weighted adjacency.
#[allow(clippy::needless_range_loop, reason = "parallel-array indexing is the clear form here")]
pub fn multilevel_partition(
    adj: &[Vec<(u32, f64)>],
    vwgt: Vec<Vec<f64>>,
    cfg: &MetisConfig,
) -> Vec<u32> {
    assert!(cfg.k >= 1, "need at least one partition");
    let n = adj.len();
    if cfg.k == 1 {
        return vec![0; n];
    }
    if n <= cfg.k {
        return (0..n as u32).map(|v| v % cfg.k as u32).collect();
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- Coarsening ---
    let mut levels: Vec<WeightedLevel> = vec![WeightedLevel {
        adj: adj.to_vec(),
        vwgt,
        fine_to_coarse: Vec::new(),
    }];
    // `top` indexes the current coarsest level; levels[0] exists above, so
    // the indexing can never miss.
    let mut top = 0usize;
    while levels[top].n() > cfg.coarsen_until {
        let coarse = coarsen_once(&levels[top], &mut rng);
        let shrink = coarse.n() as f64 / levels[top].n() as f64;
        let done = coarse.n() <= cfg.coarsen_until || shrink > 0.95;
        levels.push(coarse);
        top += 1;
        if done {
            break;
        }
    }

    // --- Initial partition on the coarsest level ---
    let mut assignment = initial_region_growing(&levels[top], cfg, &mut rng);

    // --- Uncoarsen + refine ---
    let caps = capacities(&levels[0], cfg);
    for li in (0..levels.len()).rev() {
        if li + 1 < levels.len() {
            // Project from level li+1 down to li.
            let map = &levels[li + 1].fine_to_coarse;
            assignment = (0..levels[li].n()).map(|v| assignment[map[v] as usize]).collect();
        }
        refine(&levels[li], &mut assignment, cfg, &caps, &mut rng);
    }
    assignment
}

/// Per-constraint capacity limits on the finest level.
fn capacities(level: &WeightedLevel, cfg: &MetisConfig) -> Vec<f64> {
    let c = level.vwgt[0].len();
    let mut totals = vec![0.0; c];
    for w in &level.vwgt {
        for (t, &x) in totals.iter_mut().zip(w) {
            *t += x;
        }
    }
    totals
        .iter()
        .zip(&cfg.eps)
        .map(|(&t, &e)| (t / cfg.k as f64) * (1.0 + e))
        .collect()
}

/// Coarse vertices per parallel work item during contraction. Fixed (never
/// derived from the thread count) so chunk boundaries — and results — are
/// identical at any parallelism level.
const CONTRACT_CHUNK: usize = 256;

/// One round of heavy-edge matching + contraction.
///
/// Matching is two-phase: a parallel *proposal* phase computes each
/// vertex's heaviest neighbor overall (first occurrence on ties — a pure
/// per-vertex scan), then a serial commit walks the shuffled order. When a
/// vertex's proposal is still unmatched it is provably the same vertex the
/// serial "heaviest unmatched neighbor" scan would pick (every earlier
/// neighbor has strictly smaller weight), so it is committed directly; only
/// when the proposal was already taken does the commit fall back to the
/// original serial scan. The matching — and hence the whole hierarchy — is
/// therefore bitwise-identical to the serial algorithm at any thread count.
#[allow(clippy::needless_range_loop, reason = "parallel-array indexing is the clear form here")]
fn coarsen_once(level: &WeightedLevel, rng: &mut StdRng) -> WeightedLevel {
    let n = level.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    // Parallel proposal phase: heaviest neighbor ignoring matched state.
    let vertex_ids: Vec<u32> = (0..n as u32).collect();
    let proposals: Vec<u32> = par_map_collect(&vertex_ids, |_, &v| {
        let mut best: Option<(u32, f64)> = None;
        for &(u, w) in &level.adj[v as usize] {
            if u != v && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        best.map_or(u32::MAX, |(u, _)| u)
    });
    // Serial commit in shuffled order, with the original scan as fallback.
    let mut matched: Vec<u32> = vec![u32::MAX; n];
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        let prop = proposals[v as usize];
        if prop != u32::MAX && matched[prop as usize] == u32::MAX {
            matched[v as usize] = prop;
            matched[prop as usize] = v;
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, f64)> = None;
        for &(u, w) in &level.adj[v as usize] {
            if u != v && matched[u as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v as usize] = u;
                matched[u as usize] = v;
            }
            None => matched[v as usize] = v,
        }
    }
    // Assign coarse ids: pair representative = min(v, match).
    let mut coarse_of: Vec<u32> = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if coarse_of[v as usize] != u32::MAX {
            continue;
        }
        let m = matched[v as usize];
        coarse_of[v as usize] = next;
        if m != v {
            coarse_of[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;
    // Fine members of each coarse vertex (pairs or singletons), in
    // ascending fine order — the same per-coarse-vertex visit order the
    // serial `for v in 0..n` loops used, so the f64 summation order below
    // is unchanged.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); cn];
    for v in 0..n {
        members[coarse_of[v] as usize].push(v as u32);
    }
    // Contraction: each coarse vertex's weight sum and merged edge list
    // depend only on its own members, so coarse row blocks contract in
    // parallel (disjoint writes, fixed chunks).
    let c_len = level.vwgt[0].len();
    let mut vwgt = vec![vec![0.0; c_len]; cn];
    par_chunks_mut(&mut vwgt, CONTRACT_CHUNK, |ci, rows| {
        let base = ci * CONTRACT_CHUNK;
        for (j, row) in rows.iter_mut().enumerate() {
            for &v in &members[base + j] {
                for (t, &x) in row.iter_mut().zip(&level.vwgt[v as usize]) {
                    *t += x;
                }
            }
        }
    });
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); cn];
    par_chunks_mut(&mut adj, CONTRACT_CHUNK, |ci, rows| {
        // Chunk-local scratch, reset via `touched` exactly like the serial
        // merge; entry order stays first-occurrence order.
        let base = ci * CONTRACT_CHUNK;
        let mut acc: Vec<f64> = vec![0.0; cn]; // lint:allow(R003) chunk-local scratch (par_chunks_mut has no init variant), amortized over CONTRACT_CHUNK rows
        let mut touched: Vec<u32> = Vec::new();
        for (j, out) in rows.iter_mut().enumerate() {
            let cv = base + j;
            for &v in &members[cv] {
                for &(u, w) in &level.adj[v as usize] {
                    let cu = coarse_of[u as usize];
                    if cu as usize == cv {
                        continue;
                    }
                    if acc[cu as usize] == 0.0 {
                        touched.push(cu);
                    }
                    acc[cu as usize] += w;
                }
            }
            for &cu in &touched {
                out.push((cu, acc[cu as usize]));
                acc[cu as usize] = 0.0;
            }
            touched.clear();
        }
    });
    WeightedLevel { adj, vwgt, fine_to_coarse: coarse_of }
}

/// BFS region growing: fill partitions one at a time until any *tight*
/// constraint (eps ≤ 0.5) reaches its per-partition average — so a variant
/// with a degree constraint stops growing a region once its degree quota
/// fills, even if its vertex-count quota has room. This is what makes the
/// V / VE / VET variants genuinely different partitionings, not just
/// different refinement vetoes.
fn initial_region_growing(level: &WeightedLevel, cfg: &MetisConfig, rng: &mut StdRng) -> Vec<u32> {
    let n = level.n();
    let k = cfg.k;
    let c_len = level.vwgt[0].len();
    let mut totals = vec![0.0f64; c_len];
    for w in &level.vwgt {
        for (t, &x) in totals.iter_mut().zip(w) {
            *t += x;
        }
    }
    let targets: Vec<f64> = totals.iter().map(|&t| t / k as f64).collect();
    let tight: Vec<bool> = cfg.eps.iter().map(|&e| e <= 0.5).collect();

    let mut assignment = vec![u32::MAX; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut part = 0u32;
    let mut pw = vec![0.0f64; c_len];
    let mut queue = std::collections::VecDeque::new();
    let mut cursor = 0usize;
    let mut assigned = 0usize;
    while assigned < n {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // New BFS seed from the shuffled order.
                while assignment[order[cursor] as usize] != u32::MAX {
                    cursor += 1;
                }
                order[cursor]
            }
        };
        if assignment[v as usize] != u32::MAX {
            continue;
        }
        assignment[v as usize] = part;
        assigned += 1;
        for (p, &x) in pw.iter_mut().zip(&level.vwgt[v as usize]) {
            *p += x;
        }
        let quota_full = pw[0] >= targets[0]
            || (1..c_len).any(|c| tight[c] && targets[c] > 0.0 && pw[c] >= targets[c]);
        if quota_full && (part as usize) < k - 1 {
            part += 1;
            pw.iter_mut().for_each(|p| *p = 0.0);
            queue.clear();
        } else {
            for &(u, _) in &level.adj[v as usize] {
                if assignment[u as usize] == u32::MAX {
                    queue.push_back(u);
                }
            }
        }
    }
    assignment
}

/// Vertices per speculative refinement block. Fixed (never derived from
/// the thread count) so block boundaries — and the refined assignment —
/// are identical at any parallelism level.
const REFINE_BLOCK: usize = 256;

/// The boundary-KL move decision for `v` against the given assignment and
/// partition weights: connectivity per partition, then the first
/// maximum-gain target that fits every capacity. Pure — exactly the body
/// of the original serial pass — so it can run speculatively in parallel.
fn kl_best_move(
    level: &WeightedLevel,
    k: usize,
    caps: &[f64],
    assignment: &[u32],
    pw: &[Vec<f64>],
    v: u32,
    conn: &mut [f64],
) -> Option<usize> {
    let fits = |b: usize, w: &[f64]| -> bool {
        pw[b].iter().zip(w).zip(caps).all(|((&have, &add), &cap)| have + add <= cap)
    };
    let a = assignment[v as usize] as usize;
    // Connectivity to each partition.
    let mut boundary = false;
    for &(u, w) in &level.adj[v as usize] {
        let pu = assignment[u as usize] as usize;
        conn[pu] += w;
        if pu != a {
            boundary = true;
        }
    }
    let mut best: Option<(usize, f64)> = None;
    if boundary {
        for b in 0..k {
            if b == a || conn[b] == 0.0 {
                continue;
            }
            let gain = conn[b] - conn[a];
            if gain > 0.0
                && best.is_none_or(|(_, bg)| gain > bg)
                && fits(b, &level.vwgt[v as usize])
            {
                best = Some((b, gain));
            }
        }
    }
    // Reset the touched entries.
    for &(u, _) in &level.adj[v as usize] {
        conn[assignment[u as usize] as usize] = 0.0;
    }
    conn[a] = 0.0;
    best.map(|(b, _)| b)
}

/// Boundary Kernighan–Lin refinement with multi-constraint balance, plus a
/// balance-repair sweep for partitions that exceed any capacity.
///
/// Each pass walks the shuffled order in fixed [`REFINE_BLOCK`]-sized
/// blocks. A block is processed speculate-then-validate: move decisions for
/// every member are computed in parallel against the block-entry state,
/// then committed serially in order. Until the first move commits, the
/// state is exactly the block-entry state, so the speculative decisions
/// are the ones the serial pass would have made; from the first commit
/// onward the remaining members are recomputed serially (the original code
/// path). The refined assignment is therefore bitwise-identical to the
/// fully serial pass at any thread count — late passes, where moves are
/// rare, parallelize almost entirely.
#[allow(clippy::needless_range_loop, reason = "parallel-array indexing is the clear form here")]
fn refine(
    level: &WeightedLevel,
    assignment: &mut [u32],
    cfg: &MetisConfig,
    caps: &[f64],
    rng: &mut StdRng,
) {
    let n = level.n();
    let k = cfg.k;
    let c_len = caps.len();
    // Current partition weights.
    let mut pw = vec![vec![0.0f64; c_len]; k];
    for v in 0..n {
        let p = assignment[v] as usize;
        for (t, &x) in pw[p].iter_mut().zip(&level.vwgt[v]) {
            *t += x;
        }
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut conn = vec![0.0f64; k];
    for _pass in 0..cfg.refine_passes {
        order.shuffle(rng);
        let mut moved = 0usize;
        for block in order.chunks(REFINE_BLOCK) {
            // Speculative parallel scan against the block-entry state.
            // One connectivity buffer per worker, not per vertex:
            // `kl_best_move` resets the entries it touches before
            // returning, so reuse across vertices is sound and the
            // decisions (pure in their inputs) are unchanged.
            let specs: Vec<Option<usize>> = par_map_collect_init(
                block,
                || vec![0.0f64; k],
                |local_conn, _, &v| kl_best_move(level, k, caps, assignment, &pw, v, local_conn),
            );
            // Ordered commit; serial recompute once the state has changed.
            let mut committed = false;
            for (idx, &v) in block.iter().enumerate() {
                let decision = if committed {
                    kl_best_move(level, k, caps, assignment, &pw, v, &mut conn)
                } else {
                    specs[idx]
                };
                if let Some(b) = decision {
                    let a = assignment[v as usize] as usize;
                    assignment[v as usize] = b as u32;
                    for (c, &x) in level.vwgt[v as usize].iter().enumerate() {
                        pw[a][c] -= x;
                        pw[b][c] += x;
                    }
                    moved += 1;
                    committed = true;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }

    // Balance repair: push vertices out of over-capacity partitions into the
    // partition with the most headroom on the violated constraint. Receivers
    // must strictly fit the violated constraint but may overshoot *other*
    // constraints by a small margin — without this relaxation the repair
    // deadlocks whenever every candidate receiver is itself marginally over
    // some other cap (common on small graphs with chunky coarse vertices).
    const REPAIR_SLACK: f64 = 1.05;
    for _ in 0..3 {
        let mut violated: Vec<(usize, usize)> = Vec::new(); // (partition, constraint)
        for (p, w) in pw.iter().enumerate() {
            for c in 0..c_len {
                if w[c] > caps[c] {
                    violated.push((p, c));
                }
            }
        }
        if violated.is_empty() {
            break;
        }
        // Fix the worst violations first (largest relative overshoot).
        violated.sort_by(|&(pa, ca), &(pb, cb)| {
            let ra = pw[pa][ca] / caps[ca];
            let rb = pw[pb][cb] / caps[cb];
            rb.total_cmp(&ra)
        });
        for (p, c) in violated {
            // Move vertices contributing to constraint c out of p until it fits.
            let mut members: Vec<u32> = (0..n as u32)
                .filter(|&v| assignment[v as usize] == p as u32 && level.vwgt[v as usize][c] > 0.0)
                .collect();
            members.shuffle(rng);
            for v in members {
                if pw[p][c] <= caps[c] {
                    break;
                }
                let w = &level.vwgt[v as usize];
                // Receiver: max headroom on c; strict fit on c, slack fit
                // elsewhere.
                let mut best: Option<(usize, f64)> = None;
                for b in 0..k {
                    if b == p {
                        continue;
                    }
                    let strict_on_c = pw[b][c] + w[c] <= caps[c];
                    // Only constraints the move actually increases can veto
                    // the receiver (a zero-weight constraint is unaffected).
                    let slack_elsewhere = (0..c_len).all(|cc| {
                        cc == c || w[cc] == 0.0 || pw[b][cc] + w[cc] <= caps[cc] * REPAIR_SLACK
                    });
                    let headroom = caps[c] - pw[b][c];
                    if strict_on_c
                        && slack_elsewhere
                        && best.is_none_or(|(_, h)| headroom > h)
                    {
                        best = Some((b, headroom));
                    }
                }
                if let Some((b, _)) = best {
                    assignment[v as usize] = b as u32;
                    for (cc, &x) in w.iter().enumerate() {
                        pw[p][cc] -= x;
                        pw[b][cc] += x;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
    use gnn_dm_graph::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 2000,
            avg_degree: 12.0,
            num_classes: 8,
            homophily: 0.9,
            skew: 0.6,
            ..Default::default()
        })
    }

    #[test]
    fn partitions_cover_all_vertices() {
        let g = graph();
        for variant in [MetisVariant::V, MetisVariant::VE, MetisVariant::VET] {
            let p = metis_extend(&g, variant, 4, 7);
            assert!(p.validate().is_ok());
            assert_eq!(p.assignment.len(), g.num_vertices());
            let sizes = p.sizes();
            assert!(sizes.iter().all(|&s| s > 0), "{variant:?} produced empty partition: {sizes:?}");
        }
    }

    #[test]
    fn beats_hash_on_edge_cut() {
        let g = graph();
        let metis = metis_extend(&g, MetisVariant::V, 4, 7);
        let hash = crate::hash::hash_vertices(g.num_vertices(), 4, 7);
        let cut_m = metrics::edge_cut(&g, &metis);
        let cut_h = metrics::edge_cut(&g, &hash);
        assert!(
            (cut_m as f64) < 0.7 * cut_h as f64,
            "metis cut {cut_m} not clearly below hash cut {cut_h}"
        );
    }

    #[test]
    fn train_balance_holds() {
        let g = graph();
        for variant in [MetisVariant::V, MetisVariant::VE, MetisVariant::VET] {
            let p = metis_extend(&g, variant, 4, 3);
            let counts = p.train_counts(&g);
            let total: usize = counts.iter().sum();
            let cap = (total as f64 / 4.0) * 1.10; // eps 0.05 + slack
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) <= cap,
                    "{variant:?} partition {i} has {c} train vertices (cap {cap:.0}, counts {counts:?})"
                );
            }
        }
    }

    #[test]
    fn vet_balances_val_and_test_better_than_v() {
        let g = DatasetSpec::get(DatasetId::OgbArxiv).generate_scaled(3000, 5);
        let imbalance = |counts: &[usize]| {
            let max = *counts.iter().max().unwrap() as f64;
            let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            max / avg
        };
        let pv = metis_extend(&g, MetisVariant::V, 4, 5);
        let pvet = metis_extend(&g, MetisVariant::VET, 4, 5);
        let v_val = imbalance(&pv.split_counts(&g, Split::Val));
        let vet_val = imbalance(&pvet.split_counts(&g, Split::Val));
        assert!(
            vet_val <= v_val + 0.02,
            "VET val imbalance {vet_val:.3} should not exceed V {v_val:.3}"
        );
        assert!(vet_val < 1.15, "VET val imbalance {vet_val:.3} should satisfy its constraint");
    }

    #[test]
    fn more_constraints_raise_cut() {
        let g = graph();
        let cut_v = metrics::edge_cut(&g, &metis_extend(&g, MetisVariant::V, 4, 9));
        let cut_vet = metrics::edge_cut(&g, &metis_extend(&g, MetisVariant::VET, 4, 9));
        // Paper §5.3.2: Metis-V achieves the best clustering/lowest cut.
        assert!(
            cut_v as f64 <= cut_vet as f64 * 1.05,
            "cut(V) {cut_v} should be <= cut(VET) {cut_vet} (within noise)"
        );
    }

    #[test]
    fn clusters_are_connected_ish() {
        let g = graph();
        let clusters = metis_clusters(&g, 16, 1);
        assert_eq!(clusters.len(), g.num_vertices());
        let distinct: std::collections::BTreeSet<u32> = clusters.iter().copied().collect();
        assert!(distinct.len() >= 12, "only {} clusters materialized", distinct.len());
        // Cluster-internal edge fraction must beat the random baseline (1/16).
        let internal = g
            .out
            .edges()
            .filter(|&(u, v)| clusters[u as usize] == clusters[v as usize])
            .count();
        let frac = internal as f64 / g.num_edges() as f64;
        assert!(frac > 0.3, "internal edge fraction {frac}");
    }

    #[test]
    fn single_partition_is_identity() {
        let g = graph();
        let p = metis_extend(&g, MetisVariant::V, 1, 0);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn tiny_graph_does_not_panic() {
        let g = planted_partition(&PplConfig {
            n: 10,
            avg_degree: 3.0,
            num_classes: 2,
            feat_dim: 4,
            ..Default::default()
        });
        let p = metis_extend(&g, MetisVariant::VET, 4, 0);
        assert_eq!(p.assignment.len(), 10);
        assert!(p.assignment.iter().all(|&a| a < 4));
    }
}
