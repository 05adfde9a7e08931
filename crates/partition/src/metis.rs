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
use gnn_dm_par::{par_chunks_mut, par_chunks_mut_init, par_map_collect_init};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;

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
struct MetisConfig {
    /// Number of partitions.
    k: usize,
    /// Per-constraint imbalance tolerance; partition weight may reach
    /// `(1 + eps) * total / k`. Its length is the number of constraints.
    eps: Vec<f64>,
    /// Stop coarsening below this many vertices.
    coarsen_until: usize,
    /// Boundary-refinement passes per level.
    refine_passes: usize,
    /// RNG seed.
    seed: u64,
}

/// One level of the multilevel hierarchy: a weighted symmetric graph in
/// compressed rows. Row `v` is `targets[offsets[v]..offsets[v + 1]]`, and
/// `weights` holds each entry's edge weight at the same position, or is
/// `None` when every weight is 1 (the finest level).
///
/// A weight counts the unit finest-level edges merged into it, so `u32`
/// holds it exactly, and every `f64` sum of weights the algorithm forms
/// (connectivity, gains) stays below 2^53 and is exact in any order: each
/// matching, region-growing and refinement decision is the one `f64`
/// weights would give. The constraint values are counts too (1 per vertex,
/// a split flag, a degree), so the same holds for `vwgt`.
///
/// The finest level of a graph whose `inn` is its `out` borrows that
/// adjacency. A level whose adjacency was dropped ([`Level::thin`]) keeps
/// its size, constraint vectors and projection map, which is all
/// [`Level::restore`] needs to rebuild it from the finer level.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Level<'g> {
    n: usize,
    offsets: Cow<'g, [usize]>,
    targets: Cow<'g, [u32]>,
    weights: Option<Vec<u32>>,
    /// Per-vertex constraint vectors, `c_len` values each, row-major.
    vwgt: Vec<u32>,
    c_len: usize,
    /// Map from the *finer* level's vertices to this level's vertices
    /// (empty for the finest level).
    fine_to_coarse: Vec<u32>,
}

impl<'g> Level<'g> {
    /// The finest level: row `v` holds `v`'s out-neighbours, then the
    /// in-neighbours it has no out-edge to (so a directed graph becomes
    /// symmetric), each with weight 1. When `inn` is `out`, no
    /// in-neighbour is missing and the rows are `out`'s own.
    fn finest(graph: &'g Graph, vwgt: Vec<u32>, c_len: usize) -> Level<'g> {
        let n = graph.num_vertices();
        if graph.inn.shares_storage(&graph.out) {
            return Level {
                n,
                offsets: Cow::Borrowed(graph.out.offsets()),
                targets: Cow::Borrowed(graph.out.targets()),
                weights: None,
                vwgt,
                c_len,
                fine_to_coarse: Vec::new(),
            };
        }
        let (offsets, targets, weights) = build_rows(n, false, || (), |(), v, row| {
            let out = graph.out.neighbors(v as VId);
            for &u in out {
                row.push(u, 1);
            }
            // Both rows are sorted, so one merge walk finds the
            // in-neighbours missing from `out`.
            let mut i = 0;
            for &u in graph.inn.neighbors(v as VId) {
                while out.get(i).is_some_and(|&o| o < u) {
                    i += 1;
                }
                if out.get(i) != Some(&u) {
                    row.push(u, 1);
                }
            }
        });
        Level {
            n,
            offsets: offsets.into(),
            targets: targets.into(),
            weights,
            vwgt,
            c_len,
            fine_to_coarse: Vec::new(),
        }
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// `(neighbour, weight)` over row `v`.
    fn edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let row = self.offsets[v as usize]..self.offsets[v as usize + 1];
        let weights = self.weights.as_ref().map(|w| &w[row.clone()]);
        (0..).zip(&self.targets[row]).map(move |(i, &u)| (u, weights.map_or(1, |w| w[i])))
    }

    fn vwgt(&self, v: u32) -> &[u32] {
        &self.vwgt[v as usize * self.c_len..][..self.c_len]
    }

    /// Sum of every vertex's constraint vector, in vertex order.
    fn totals(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.c_len];
        for w in self.vwgt.chunks_exact(self.c_len) {
            for (t, &x) in totals.iter_mut().zip(w) {
                *t += f64::from(x);
            }
        }
        totals
    }

    /// Drops the adjacency, keeping what [`Level::restore`] needs.
    fn thin(&mut self) {
        self.offsets = Cow::Borrowed(&[]);
        self.targets = Cow::Borrowed(&[]);
        self.weights = None;
    }

    /// `true` once [`Level::thin`] has dropped the adjacency (a kept level
    /// always has `n + 1` offsets).
    fn is_thin(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Rebuilds a thinned level's adjacency by contracting `finer`, the
    /// level it was first contracted from, through the stored map.
    /// Contraction is pure, so the rows are the ones first built.
    fn restore(&mut self, finer: &Level<'_>) {
        let (offsets, targets, weights) =
            contract_rows(finer, &self.fine_to_coarse, &members(&self.fine_to_coarse));
        (self.offsets, self.targets, self.weights) = (offsets.into(), targets.into(), weights);
    }
}

/// One row's output slot while [`build_rows`] builds a level: the sizing
/// pass hands it empty slices, so `push` only counts; the filling pass
/// hands it the row's exactly-sized slices (the weight slice stays empty
/// in an unweighted build).
struct RowOut<'a> {
    len: usize,
    targets: &'a mut [u32],
    weights: &'a mut [u32],
}

impl RowOut<'_> {
    fn push(&mut self, target: u32, weight: u32) {
        if let Some(t) = self.targets.get_mut(self.len) {
            *t = target;
        }
        if let Some(w) = self.weights.get_mut(self.len) {
            *w = weight;
        }
        self.len += 1;
    }
}

/// Rows per parallel work item while a level is matched or built.
const ROW_BLOCK: usize = 256;

/// Offsets, targets and (when weighted) weights of a level's rows.
type Rows = (Vec<usize>, Vec<u32>, Option<Vec<u32>>);

/// Builds `n` compressed rows: `row(scratch, v, out)` pushes row `v`'s
/// entries, whose weights are kept only when `weighted`. It runs twice per
/// row, in parallel blocks of [`ROW_BLOCK`] rows: first to count the
/// entries (sizing `offsets` and the entry arrays exactly, so no row owns
/// a heap block and no array carries growth slack), then to write them
/// into the row's own slice. `init` builds one scratch state per worker; a
/// row must not depend on what earlier rows left in it. Each row depends
/// only on `v`, so the level is identical at any thread count.
fn build_rows<S, N, R>(n: usize, weighted: bool, init: N, row: R) -> Rows
where
    N: Fn() -> S + Sync,
    R: Fn(&mut S, usize, &mut RowOut<'_>) + Sync,
{
    let mut offsets = vec![0usize; n + 1];
    par_chunks_mut_init(&mut offsets[1..], ROW_BLOCK, &init, |s, bi, lens| {
        for (j, len) in lens.iter_mut().enumerate() {
            let mut out = RowOut { len: 0, targets: &mut [], weights: &mut [] };
            row(s, bi * ROW_BLOCK + j, &mut out);
            *len = out.len;
        }
    });
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut targets = vec![0u32; offsets[n]];
    let mut weights = vec![0u32; if weighted { offsets[n] } else { 0 }];
    // Each block of rows owns one contiguous run of the entry arrays. An
    // unweighted build's weight array is empty, so every run of it is too
    // (`len.min(ws.len())`); a weighted one always has `len` left.
    let mut blocks: Vec<(usize, &mut [u32], &mut [u32])> =
        Vec::with_capacity(n.div_ceil(ROW_BLOCK));
    let (mut ts, mut ws) = (&mut targets[..], &mut weights[..]);
    for lo in (0..n).step_by(ROW_BLOCK) {
        let len = offsets[(lo + ROW_BLOCK).min(n)] - offsets[lo];
        let (t, t_rest) = ts.split_at_mut(len);
        let (w, w_rest) = ws.split_at_mut(len.min(ws.len()));
        blocks.push((lo, t, w));
        (ts, ws) = (t_rest, w_rest);
    }
    par_chunks_mut_init(&mut blocks, 1, &init, |s, _, block| {
        for (lo, ts, ws) in block.iter_mut() {
            let (mut ts, mut ws) = (&mut **ts, &mut **ws);
            for v in *lo..(*lo + ROW_BLOCK).min(n) {
                let len = offsets[v + 1] - offsets[v];
                let w_len = len.min(ws.len());
                let (t, t_rest) = std::mem::take(&mut ts).split_at_mut(len);
                let (w, w_rest) = std::mem::take(&mut ws).split_at_mut(w_len);
                let mut out = RowOut { len: 0, targets: t, weights: w };
                row(s, v, &mut out);
                debug_assert_eq!(out.len, len, "row {v} changed length between passes");
                (ts, ws) = (t_rest, w_rest);
            }
        }
    });
    (offsets, targets, weighted.then_some(weights))
}

/// Runs Metis-extend with the given variant on a graph.
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition").
pub fn metis_extend(graph: &Graph, variant: MetisVariant, k: usize, seed: u64) -> GnnPartitioning {
    metis_extend_with(graph, variant, k, seed, 4)
}

/// [`metis_extend`] with `refine_passes` boundary-refinement passes per
/// level instead of 4 (ablated in `ablate_metis_refine`).
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition").
pub fn metis_extend_with(
    graph: &Graph,
    variant: MetisVariant,
    k: usize,
    seed: u64,
    refine_passes: usize,
) -> GnnPartitioning {
    let (vwgt, eps) = constraint_vectors(graph, variant);
    let cfg = MetisConfig { k, eps, coarsen_until: (8 * k).max(64), refine_passes, seed };
    GnnPartitioning::new(multilevel_partition(graph, vwgt, &cfg), k)
}

/// Plain Metis clustering (count balance only) — used for cluster-based
/// batch selection (§6.3.2) and as the Legion/DistDGL clustering substrate.
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition").
pub fn metis_clusters(graph: &Graph, k: usize, seed: u64) -> Vec<u32> {
    let cfg = MetisConfig {
        k,
        eps: vec![0.3],
        coarsen_until: (8 * k).max(64),
        refine_passes: 2,
        seed,
    };
    multilevel_partition(graph, vec![1; graph.num_vertices()], &cfg)
}

/// Builds the per-vertex constraint vectors for a variant, row-major.
/// Returns `(vwgt, eps)`; constraint 0 is always the (loosely balanced)
/// vertex count so partitions cannot degenerate.
fn constraint_vectors(graph: &Graph, variant: MetisVariant) -> (Vec<u32>, Vec<f64>) {
    let eps = match variant {
        MetisVariant::V => vec![1.0, 0.05],
        MetisVariant::VE => vec![1.0, 0.05, 0.10],
        MetisVariant::VET => vec![1.0, 0.05, 0.05, 0.05, 0.10],
    };
    let n = graph.num_vertices();
    let mut vwgt = Vec::with_capacity(n * eps.len());
    for v in 0..n {
        let s = graph.split.split_of(v as VId);
        let train = u32::from(s == Split::Train);
        let val = u32::from(s == Split::Val);
        let test = u32::from(s == Split::Test);
        let deg = graph.out.degree(v as VId) as u32;
        match variant {
            MetisVariant::V => vwgt.extend_from_slice(&[1, train]),
            MetisVariant::VE => vwgt.extend_from_slice(&[1, train, deg]),
            MetisVariant::VET => vwgt.extend_from_slice(&[1, train, val, test, deg]),
        }
    }
    (vwgt, eps)
}

/// The full multilevel pipeline over `graph` with row-major constraint
/// vectors `vwgt` (`cfg.eps.len()` per vertex).
fn multilevel_partition(graph: &Graph, vwgt: Vec<u32>, cfg: &MetisConfig) -> Vec<u32> {
    assert!(cfg.k >= 1, "need at least one partition");
    let n = graph.num_vertices();
    if cfg.k == 1 {
        return vec![0; n];
    }
    if n <= cfg.k {
        return (0..n as u32).map(|v| v % cfg.k as u32).collect();
    }
    #[expect(clippy::disallowed_methods, reason = "a serial root: coarsening, region growing and refinement share one stream from the config seed")]
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let finest = Level::finest(graph, vwgt, cfg.eps.len());
    let mut levels = coarsen(finest, cfg.coarsen_until, &mut rng);

    // --- Initial partition on the coarsest level ---
    let mut assignment = initial_region_growing(&levels[levels.len() - 1], cfg, &mut rng);

    // --- Uncoarsen + refine, coarsest level first ---
    let caps = capacities(&levels[0], cfg);
    while let Some(mut level) = levels.pop() {
        let finer = levels.last();
        if let Some(finer) = finer.filter(|_| level.is_thin()) {
            level.restore(finer);
        }
        refine(&level, &mut assignment, cfg, &caps, &mut rng);
        if finer.is_some() {
            // Project down to the next finer level; this one is done.
            assignment = level.fine_to_coarse.iter().map(|&c| assignment[c as usize]).collect();
        }
    }
    assignment
}

/// The hierarchy: `finest`, then one heavy-edge-matched contraction after
/// another until a level has at most `coarsen_until` vertices or a round
/// shrinks it by less than 5 %.
///
/// Every odd level is thinned once the next is contracted from it:
/// refinement rebuilds it from the even level below, which is always kept,
/// so the hierarchy never holds more than every second level's adjacency
/// (plus the coarsest), and its peak is about levels 1 and 2 together.
fn coarsen<'g>(finest: Level<'g>, coarsen_until: usize, rng: &mut StdRng) -> Vec<Level<'g>> {
    let mut levels = vec![finest];
    loop {
        let top = &levels[levels.len() - 1];
        if top.n <= coarsen_until {
            break;
        }
        let coarse = contract(top, heavy_edge_matching(top, rng));
        let stalled = coarse.n as f64 / top.n as f64 > 0.95;
        let odd = levels.len() % 2 == 0;
        if let Some(top) = levels.last_mut().filter(|_| odd) {
            top.thin();
        }
        levels.push(coarse);
        if stalled {
            break;
        }
    }
    levels
}

/// Per-constraint capacity limits on the finest level.
fn capacities(level: &Level<'_>, cfg: &MetisConfig) -> Vec<f64> {
    level
        .totals()
        .iter()
        .zip(&cfg.eps)
        .map(|(&t, &e)| (t / cfg.k as f64) * (1.0 + e))
        .collect()
}

/// Coarse vertices per parallel work item during the constraint-vector
/// contraction. Fixed (never derived from the thread count) so chunk
/// boundaries — and results — are identical at any parallelism level.
const CONTRACT_CHUNK: usize = 256;

/// One round of heavy-edge matching: the only part of coarsening that
/// draws from `rng`. Returns each vertex's coarse vertex.
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
fn heavy_edge_matching(level: &Level<'_>, rng: &mut StdRng) -> Vec<u32> {
    let n = level.n;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    // Parallel proposal phase: heaviest neighbor ignoring matched state.
    let mut proposals: Vec<u32> = vec![u32::MAX; n];
    par_chunks_mut(&mut proposals, ROW_BLOCK, |bi, block| {
        for (v, prop) in (bi as u32 * ROW_BLOCK as u32..).zip(block) {
            let mut best: Option<(u32, u32)> = None;
            for (u, w) in level.edges(v) {
                if u != v && best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((u, w));
                }
            }
            *prop = best.map_or(u32::MAX, |(u, _)| u);
        }
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
        let mut best: Option<(u32, u32)> = None;
        for (u, w) in level.edges(v) {
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
    // Coarse ids in order of each pair's smaller member.
    let mut coarse_of: Vec<u32> = vec![u32::MAX; n];
    let mut cn = 0u32;
    for v in 0..n {
        if coarse_of[v] == u32::MAX {
            coarse_of[v] = cn;
            coarse_of[matched[v] as usize] = cn;
            cn += 1;
        }
    }
    coarse_of
}

/// The fine members of each coarse vertex, `[v, match]` in ascending order
/// (a singleton is `[v, v]`): the order their rows are merged in, which
/// fixes each coarse row's entry order. Coarse ids are numbered in order
/// of their smaller member, so an id not seen before is always the next
/// one.
fn members(coarse_of: &[u32]) -> Vec<[u32; 2]> {
    let mut members: Vec<[u32; 2]> = Vec::new();
    for (v, &c) in (0u32..).zip(coarse_of) {
        match members.get_mut(c as usize) {
            Some(pair) => pair[1] = v,
            None => members.push([v, v]),
        }
    }
    members
}

/// The coarser level `coarse_of` maps `level` onto: each coarse vertex's
/// constraint vector sums its members', its row merges theirs. Pure — it
/// draws nothing — so [`Level::restore`] rebuilds the same rows later.
fn contract<'g>(level: &Level<'_>, coarse_of: Vec<u32>) -> Level<'g> {
    let members = members(&coarse_of);
    // Each coarse vertex's weight sum depends only on its own members, so
    // coarse rows contract in parallel.
    let c_len = level.c_len;
    let mut vwgt = vec![0u32; members.len() * c_len];
    par_chunks_mut(&mut vwgt, CONTRACT_CHUNK * c_len, |ci, rows| {
        for (row, pair) in rows.chunks_exact_mut(c_len).zip(&members[ci * CONTRACT_CHUNK..]) {
            for v in pair_members(*pair) {
                for (t, &x) in row.iter_mut().zip(level.vwgt(v)) {
                    *t += x;
                }
            }
        }
    });
    let (offsets, targets, weights) = contract_rows(level, &coarse_of, &members);
    Level {
        n: members.len(),
        offsets: offsets.into(),
        targets: targets.into(),
        weights,
        vwgt,
        c_len,
        fine_to_coarse: coarse_of,
    }
}

/// A coarse vertex's one or two fine members.
fn pair_members([a, b]: [u32; 2]) -> impl Iterator<Item = u32> {
    std::iter::once(a).chain((b != a).then_some(b))
}

/// The merged, weighted rows of the coarse vertices `members` lists, in
/// first-occurrence order. `acc` is per-worker scratch, reset through
/// `touched` after every row.
fn contract_rows(level: &Level<'_>, coarse_of: &[u32], members: &[[u32; 2]]) -> Rows {
    let cn = members.len();
    build_rows(
        cn,
        true,
        || (vec![0u32; cn], Vec::<u32>::new()),
        |(acc, touched), cv, row| {
            for v in pair_members(members[cv]) {
                for (u, w) in level.edges(v) {
                    let cu = coarse_of[u as usize];
                    if cu as usize == cv {
                        continue;
                    }
                    if acc[cu as usize] == 0 {
                        touched.push(cu);
                    }
                    acc[cu as usize] += w;
                }
            }
            for &cu in touched.iter() {
                row.push(cu, acc[cu as usize]);
                acc[cu as usize] = 0;
            }
            touched.clear();
        },
    )
}

/// BFS region growing: fill partitions one at a time until any *tight*
/// constraint (eps ≤ 0.5) reaches its per-partition average — so a variant
/// with a degree constraint stops growing a region once its degree quota
/// fills, even if its vertex-count quota has room. This is what makes the
/// V / VE / VET variants genuinely different partitionings, not just
/// different refinement vetoes.
fn initial_region_growing(level: &Level<'_>, cfg: &MetisConfig, rng: &mut StdRng) -> Vec<u32> {
    let n = level.n;
    let k = cfg.k;
    let c_len = level.c_len;
    let totals = level.totals();
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
        for (p, &x) in pw.iter_mut().zip(level.vwgt(v)) {
            *p += f64::from(x);
        }
        let quota_full = pw[0] >= targets[0]
            || (1..c_len).any(|c| tight[c] && targets[c] > 0.0 && pw[c] >= targets[c]);
        if quota_full && (part as usize) < k - 1 {
            part += 1;
            pw.iter_mut().for_each(|p| *p = 0.0);
            queue.clear();
        } else {
            for &u in level.neighbors(v) {
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
    level: &Level<'_>,
    k: usize,
    caps: &[f64],
    assignment: &[u32],
    pw: &[Vec<f64>],
    v: u32,
    conn: &mut [f64],
) -> Option<usize> {
    let fits = |b: usize, w: &[u32]| -> bool {
        pw[b].iter().zip(w).zip(caps).all(|((&have, &add), &cap)| have + f64::from(add) <= cap)
    };
    let a = assignment[v as usize] as usize;
    // Connectivity to each partition.
    let mut boundary = false;
    for (u, w) in level.edges(v) {
        let pu = assignment[u as usize] as usize;
        conn[pu] += f64::from(w);
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
                && fits(b, level.vwgt(v))
            {
                best = Some((b, gain));
            }
        }
    }
    // Reset the touched entries.
    for &u in level.neighbors(v) {
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
    level: &Level<'_>,
    assignment: &mut [u32],
    cfg: &MetisConfig,
    caps: &[f64],
    rng: &mut StdRng,
) {
    let n = level.n;
    let k = cfg.k;
    let c_len = caps.len();
    // Current partition weights.
    let mut pw = vec![vec![0.0f64; c_len]; k];
    for v in 0..n {
        let p = assignment[v] as usize;
        for (t, &x) in pw[p].iter_mut().zip(level.vwgt(v as u32)) {
            *t += f64::from(x);
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
                    for (c, &x) in level.vwgt(v).iter().enumerate() {
                        pw[a][c] -= f64::from(x);
                        pw[b][c] += f64::from(x);
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
                .filter(|&v| assignment[v as usize] == p as u32 && level.vwgt(v)[c] > 0)
                .collect();
            members.shuffle(rng);
            for v in members {
                if pw[p][c] <= caps[c] {
                    break;
                }
                let w = level.vwgt(v);
                // Receiver: max headroom on c; strict fit on c, slack fit
                // elsewhere.
                let mut best: Option<(usize, f64)> = None;
                for b in 0..k {
                    if b == p {
                        continue;
                    }
                    let strict_on_c = pw[b][c] + f64::from(w[c]) <= caps[c];
                    // Only constraints the move actually increases can veto
                    // the receiver (a zero-weight constraint is unaffected).
                    let slack_elsewhere = (0..c_len).all(|cc| {
                        cc == c
                            || w[cc] == 0
                            || pw[b][cc] + f64::from(w[cc]) <= caps[cc] * REPAIR_SLACK
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
                        pw[p][cc] -= f64::from(x);
                        pw[b][cc] += f64::from(x);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests seed their fixtures directly")]
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

    fn cap_bytes<T>(v: &Vec<T>) -> usize {
        v.capacity() * std::mem::size_of::<T>()
    }

    /// Heap bytes of a level, from its `Vec` capacities (a borrowed
    /// array owns none).
    fn heap_bytes(level: &Level<'_>) -> usize {
        let Level { n: _, offsets, targets, weights, vwgt, c_len: _, fine_to_coarse } = level;
        let offsets = if let Cow::Owned(v) = offsets { cap_bytes(v) } else { 0 };
        let targets = if let Cow::Owned(v) = targets { cap_bytes(v) } else { 0 };
        offsets
            + targets
            + weights.as_ref().map_or(0, cap_bytes)
            + cap_bytes(vwgt)
            + cap_bytes(fine_to_coarse)
    }

    /// The VET hierarchy of `g` (coarsened to 64 vertices, seed 7).
    fn hierarchy(g: &Graph) -> Vec<Level<'_>> {
        let (vwgt, eps) = constraint_vectors(g, MetisVariant::VET);
        coarsen(Level::finest(g, vwgt, eps.len()), 64, &mut StdRng::seed_from_u64(7))
    }

    /// Every level that holds an adjacency stays within 8 B per adjacency
    /// entry (a `u32` target and a `u32` weight), 8 B per offset, 4 B per
    /// constraint value and 4 B per finer-level vertex in the projection
    /// map, plus a small constant: `f64` weights or constraints, `(u32,
    /// f64)` rows or growth slack exceed it. A thinned level holds only
    /// its constraint values and map. The finest level of a symmetric
    /// graph borrows the graph's rows and holds no weights at all.
    #[test]
    fn hierarchy_stays_compact() {
        let g = graph();
        assert!(g.inn.shares_storage(&g.out));
        let levels = hierarchy(&g);
        assert!(levels.len() >= 4, "only {} levels", levels.len());
        assert!(levels[0].weights.is_none() && matches!(levels[0].targets, Cow::Borrowed(_)));
        for (i, level) in levels.iter().enumerate() {
            let thin = i % 2 == 1 && i + 1 < levels.len();
            assert_eq!(level.is_thin(), thin, "level {i} of {}", levels.len());
            let budget = 8 * level.targets.len()
                + 8 * level.offsets.len()
                + 4 * level.vwgt.len()
                + 4 * level.fine_to_coarse.len()
                + 64;
            let used = heap_bytes(level);
            assert!(used <= budget, "level {i}: {used} heap bytes over a budget of {budget}");
        }
    }

    /// A thinned level restored from the level below it is the level first
    /// contracted, array for array, on a symmetric and a directed graph.
    #[test]
    fn restored_levels_are_the_contracted_ones() {
        let symmetric = graph();
        let edges: Vec<(u32, u32)> = symmetric.out.edges().filter(|&(u, v)| u < v).collect();
        let out = gnn_dm_graph::Csr::from_edges(symmetric.num_vertices(), &edges);
        let directed = Graph { inn: out.transpose(), out, ..symmetric.clone() };
        for g in [&symmetric, &directed] {
            let mut levels = hierarchy(g);
            let (vwgt, eps) = constraint_vectors(g, MetisVariant::VET);
            let mut rng = StdRng::seed_from_u64(7);
            let mut kept = vec![Level::finest(g, vwgt, eps.len())];
            while kept.len() < levels.len() {
                let top = &kept[kept.len() - 1];
                let coarse = contract(top, heavy_edge_matching(top, &mut rng));
                kept.push(coarse);
            }
            for i in 1..levels.len() {
                let (finer, rest) = levels.split_at_mut(i);
                if rest[0].is_thin() {
                    rest[0].restore(&finer[i - 1]);
                }
                assert_eq!(rest[0], kept[i], "level {i}");
            }
        }
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
