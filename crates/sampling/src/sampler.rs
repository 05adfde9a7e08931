//! Neighbor samplers: fanout-based, ratio-based, the paper's fanout-rate
//! hybrid, and layer-wise / subgraph-wise alternatives.
//!
//! §6.2 of the paper distinguishes *how much* to sample (fanout vs. rate,
//! the axis this module parameterizes) from *how* to sample (vertex-wise,
//! layer-wise, subgraph-wise algorithms). [`build_minibatch`] implements
//! vertex-wise sampling — the mainstream algorithm every evaluated system
//! uses — while [`LayerwiseSampler`] and [`subgraph_restricted_minibatch`]
//! cover the two alternatives the taxonomy lists.

use crate::block::{Block, DenseMap, MiniBatch};
use gnn_dm_graph::csr::{Csr, VId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Reusable buffers for the per-vertex draw routines. One lives per
/// sampling thread for a whole epoch (inside [`SampleScratch`]), so the
/// partial-Fisher–Yates and exponential-key temporaries are allocated once
/// instead of once per sampled vertex.
#[derive(Debug, Default)]
pub struct SamplerScratch {
    /// Partial Fisher–Yates working copy for [`sample_k_into`].
    buf: Vec<VId>,
    /// Exponential-key buffer for [`ImportanceSampler`].
    keyed: Vec<(f64, VId)>,
}

impl SamplerScratch {
    /// Empty buffers; they grow to the largest neighborhood touched.
    pub fn new() -> Self {
        SamplerScratch::default()
    }
}

/// Decides which in-neighbors of a vertex participate in one layer's
/// aggregation.
pub trait NeighborSampler {
    /// Number of GNN layers this sampler prepares.
    fn num_layers(&self) -> usize;

    /// Appends a sample of `v`'s in-neighbors (from `csr`) for GNN layer
    /// `layer` into `out`. `layer` counts from the *output*: layer 0 samples
    /// for the seeds themselves. `scratch` only holds per-call temporaries:
    /// the draws are the same whatever it held before.
    fn sample_neighbors(
        &self,
        csr: &Csr,
        v: VId,
        layer: usize,
        rng: &mut StdRng,
        out: &mut Vec<VId>,
        scratch: &mut SamplerScratch,
    );
}

/// Reservoir-samples `k` items from `items` into `out` (all of them when
/// `k >= items.len()`), using `buf` as the working copy.
fn sample_k_into(items: &[VId], k: usize, rng: &mut StdRng, buf: &mut Vec<VId>, out: &mut Vec<VId>) {
    if k >= items.len() {
        out.extend_from_slice(items);
        return;
    }
    // Partial Fisher–Yates: deterministic for a given RNG stream (a HashSet
    // of indices would leak process-random iteration order into results).
    buf.clear();
    buf.extend_from_slice(items);
    for i in 0..k {
        let j = rng.random_range(i..buf.len());
        buf.swap(i, j);
        out.push(buf[i]);
    }
}

/// Fanout-based sampling: a fixed number of neighbors per vertex per layer
/// (GraphSAGE \[11\]; the default of DGL, DistDGL, PaGraph, GNNLab, …).
///
/// `fanouts[0]` applies to the output layer (the seeds), matching the
/// paper's "(25, 10)" notation where 25 is the first-hop fanout.
#[derive(Debug, Clone)]
pub struct FanoutSampler {
    /// Per-layer fanouts, output layer first.
    pub fanouts: Vec<usize>,
}

impl FanoutSampler {
    /// A sampler with the given per-layer fanouts (output layer first).
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one layer");
        FanoutSampler { fanouts }
    }

    /// The paper's default: 2 layers, fanout (25, 10).
    pub fn paper_default() -> Self {
        FanoutSampler::new(vec![25, 10])
    }
}

impl NeighborSampler for FanoutSampler {
    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn sample_neighbors(
        &self,
        csr: &Csr,
        v: VId,
        layer: usize,
        rng: &mut StdRng,
        out: &mut Vec<VId>,
        scratch: &mut SamplerScratch,
    ) {
        sample_k_into(csr.neighbors(v), self.fanouts[layer], rng, &mut scratch.buf, out);
    }
}

/// Ratio-based sampling: a fixed *fraction* of neighbors per vertex per
/// layer (BNS-GCN style). At least `min_neighbors` are kept so low-degree
/// vertices are not starved entirely.
#[derive(Debug, Clone)]
pub struct RateSampler {
    /// Per-layer sampling rates in `(0, 1]`, output layer first.
    pub rates: Vec<f64>,
    /// Floor on the per-vertex sample size (paper's §6.3.4 notes tiny rates
    /// starve low-degree vertices; 1 keeps connectivity).
    pub min_neighbors: usize,
}

impl RateSampler {
    /// A sampler with one rate per layer (output layer first).
    pub fn new(rates: Vec<f64>, min_neighbors: usize) -> Self {
        assert!(!rates.is_empty(), "need at least one layer");
        assert!(rates.iter().all(|r| *r > 0.0 && *r <= 1.0), "rates must be in (0, 1]");
        RateSampler { rates, min_neighbors }
    }
}

impl NeighborSampler for RateSampler {
    fn num_layers(&self) -> usize {
        self.rates.len()
    }

    fn sample_neighbors(
        &self,
        csr: &Csr,
        v: VId,
        layer: usize,
        rng: &mut StdRng,
        out: &mut Vec<VId>,
        scratch: &mut SamplerScratch,
    ) {
        let nbrs = csr.neighbors(v);
        if nbrs.is_empty() {
            return;
        }
        let k = ((nbrs.len() as f64 * self.rates[layer]).round() as usize)
            .max(self.min_neighbors)
            .min(nbrs.len());
        sample_k_into(nbrs, k, rng, &mut scratch.buf, out);
    }
}

/// The paper's proposed fanout-rate hybrid (§6.3.4): fanout sampling for
/// low-degree vertices, rate sampling for high-degree vertices.
#[derive(Debug, Clone)]
pub struct HybridSampler {
    /// Per-layer fanouts used when `degree <= degree_threshold`.
    pub fanouts: Vec<usize>,
    /// Per-layer rates used when `degree > degree_threshold`.
    pub rates: Vec<f64>,
    /// Degree boundary between the two regimes.
    pub degree_threshold: usize,
}

impl HybridSampler {
    /// A hybrid sampler; `fanouts` and `rates` must have equal length.
    pub fn new(fanouts: Vec<usize>, rates: Vec<f64>, degree_threshold: usize) -> Self {
        assert_eq!(fanouts.len(), rates.len(), "layer counts must agree");
        assert!(!fanouts.is_empty(), "need at least one layer");
        HybridSampler { fanouts, rates, degree_threshold }
    }
}

impl NeighborSampler for HybridSampler {
    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn sample_neighbors(
        &self,
        csr: &Csr,
        v: VId,
        layer: usize,
        rng: &mut StdRng,
        out: &mut Vec<VId>,
        scratch: &mut SamplerScratch,
    ) {
        let nbrs = csr.neighbors(v);
        if nbrs.len() <= self.degree_threshold {
            sample_k_into(nbrs, self.fanouts[layer], rng, &mut scratch.buf, out);
        } else {
            let k = ((nbrs.len() as f64 * self.rates[layer]).round() as usize).clamp(1, nbrs.len());
            sample_k_into(nbrs, k, rng, &mut scratch.buf, out);
        }
    }
}

/// Importance (weighted) neighbor sampling: neighbors are drawn with
/// probability proportional to a per-vertex importance weight, `fanouts[l]`
/// per destination per layer, without replacement.
///
/// §7.3.3 notes that under such "special sampling algorithms (such as
/// importance sampling) the degree-based \[caching\] assumption is no longer
/// valid" — the `ablate_importance_cache` study demonstrates exactly that
/// with this sampler.
#[derive(Debug, Clone)]
pub struct ImportanceSampler {
    /// Per-layer fanouts, output layer first.
    pub fanouts: Vec<usize>,
    /// Importance weight per vertex (must be positive for sampleable
    /// vertices; indexed by global vertex id).
    pub weights: Vec<f64>,
}

impl ImportanceSampler {
    /// An importance sampler over explicit per-vertex weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn new(fanouts: Vec<usize>, weights: Vec<f64>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one layer");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        ImportanceSampler { fanouts, weights }
    }
}

impl NeighborSampler for ImportanceSampler {
    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn sample_neighbors(
        &self,
        csr: &Csr,
        v: VId,
        layer: usize,
        rng: &mut StdRng,
        out: &mut Vec<VId>,
        scratch: &mut SamplerScratch,
    ) {
        let nbrs = csr.neighbors(v);
        let k = self.fanouts[layer];
        if k >= nbrs.len() {
            out.extend_from_slice(nbrs);
            return;
        }
        // Weighted sampling without replacement via the exponential-key
        // trick (Efraimidis–Spirakis): keep the k largest rand^(1/w).
        // Zero-weight neighbors get key 0 and are only drawn as filler.
        let keyed = &mut scratch.keyed;
        keyed.clear();
        keyed.extend(nbrs.iter().map(|&u| {
            let w = self.weights[u as usize];
            let r: f64 = rng.random::<f64>();
            let key = if w > 0.0 { r.powf(1.0 / w) } else { 0.0 };
            (key, u)
        }));
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        out.extend(keyed.iter().take(k).map(|&(_, u)| u));
    }
}

/// Builds a vertex-wise sampled mini-batch for `seeds`: one block per GNN
/// layer, sampled from the in-CSR, vertices deduplicated per block.
///
/// ```
/// use gnn_dm_graph::generate::{planted_partition, PplConfig};
/// use gnn_dm_sampling::sampler::{build_minibatch, FanoutSampler};
/// use rand::SeedableRng;
///
/// let g = planted_partition(&PplConfig { n: 300, ..Default::default() });
/// let sampler = FanoutSampler::new(vec![10, 5]); // 2 layers
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mb = build_minibatch(&g.inn, &[0, 1, 2], &sampler, &mut rng);
/// assert_eq!(mb.num_layers(), 2);
/// assert_eq!(mb.seeds, vec![0, 1, 2]);
/// assert!(mb.validate().is_ok());
/// // The input-most block's sources are the feature rows to load.
/// assert!(mb.input_ids().len() >= 3);
/// ```
pub fn build_minibatch(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &dyn NeighborSampler,
    rng: &mut StdRng,
) -> MiniBatch {
    build_minibatch_with(in_csr, seeds, sampler, rng, &mut SampleScratch::new())
}

/// Reusable arena for mini-batch construction. One lives per sampling
/// thread for a whole epoch (or a whole cluster simulation), so the
/// per-batch index map, the growing id list and edge buffer and the draw
/// buffers are allocated once and recycled: only the returned
/// [`MiniBatch`] itself is freshly allocated per batch, each of its arrays
/// once and at its exact length.
///
/// The arena never changes what is sampled — [`build_minibatch_with`] and
/// [`build_minibatch_seeded_with`] produce byte-identical batches whether
/// the scratch is fresh or has been through a thousand batches.
#[derive(Debug, Default)]
pub struct SampleScratch {
    /// The batch being built: index map, id list and edge buffer.
    chain: Chain,
    /// Per-destination neighbor draw buffer.
    nbr: Vec<VId>,
    /// Draw-routine temporaries.
    sampler: SamplerScratch,
}

impl SampleScratch {
    /// Empty arena; buffers grow to the working-set size and stay there.
    pub fn new() -> Self {
        SampleScratch::default()
    }
}

/// The growable state of one batch build: the batch's id list so far, the
/// map from each of those ids to its position, and the current block's
/// edge buffer. A block's destinations are the ids present when it starts,
/// and its new sources are appended as they are first drawn.
#[derive(Debug, Default)]
struct Chain {
    /// Global id → position in `ids` (stamp-versioned; O(1) reset).
    map: DenseMap,
    /// The batch's vertices, duplicate-free, in first-appearance order.
    ids: Vec<VId>,
    /// The current block's local source index per edge.
    edges: Vec<u32>,
}

/// Where a builder's neighbor draws come from — the only thing the stream
/// and the seeded builder differ in.
enum DrawRng<'a> {
    /// Every draw pulls from the caller's generator, in destination order.
    Stream(&'a mut StdRng),
    /// Each `(layer, destination index)` pair gets a fresh generator seeded
    /// with `split_seed(split_seed(base_seed, layer), dst_index)`.
    Seeded(u64),
}

/// [`build_minibatch`] with a caller-owned [`SampleScratch`]. Identical
/// output — same RNG draw stream, same first-occurrence numbering — the
/// arena only eliminates the per-batch allocation churn.
pub fn build_minibatch_with(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &dyn NeighborSampler,
    rng: &mut StdRng,
    scratch: &mut SampleScratch,
) -> MiniBatch {
    assemble_blocks(in_csr, seeds, sampler, DrawRng::Stream(rng), scratch)
}

/// Vertex-wise mini-batch construction, seeded rather than stream-threaded:
/// instead of pulling every draw from one shared `StdRng`, each
/// `(layer, destination)` pair gets its own RNG seeded with
/// [`gnn_dm_par::split_seed`] from `base_seed`, so a batch is a pure
/// function of `(in_csr, seeds, sampler, base_seed)` and batches of one
/// epoch can be built on different threads in any order
/// ([`crate::epoch::EpochPlan::map_batches`]). The builder itself never
/// fans out: it is the same one-pass loop as [`build_minibatch`].
///
/// Note the draws differ from [`build_minibatch`] with any particular
/// `StdRng` (the streams are split differently); the *distribution* is the
/// same, and determinism for a given `base_seed` is exact.
pub fn build_minibatch_seeded(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &dyn NeighborSampler,
    base_seed: u64,
) -> MiniBatch {
    build_minibatch_seeded_with(in_csr, seeds, sampler, base_seed, &mut SampleScratch::new())
}

/// [`build_minibatch_seeded`] with a caller-owned [`SampleScratch`].
/// Identical output for a given `(in_csr, seeds, sampler, base_seed)`.
pub fn build_minibatch_seeded_with(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &dyn NeighborSampler,
    base_seed: u64,
    scratch: &mut SampleScratch,
) -> MiniBatch {
    assemble_blocks(in_csr, seeds, sampler, DrawRng::Seeded(base_seed), scratch)
}

/// The vertex-wise builders' loop: each layer's block is
/// [`assemble_block`] over the batch's ids so far, with each destination's
/// neighbors drawn by `sampler` from `draws`.
fn assemble_blocks(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &dyn NeighborSampler,
    mut draws: DrawRng<'_>,
    scratch: &mut SampleScratch,
) -> MiniBatch {
    use rand::SeedableRng;

    let SampleScratch { chain, nbr, sampler: draw_scratch } = scratch;
    chain_blocks(seeds, sampler.num_layers(), chain, |layer, chain| {
        // The seeded builder's layer split, once per layer.
        let layer_seed = match draws {
            DrawRng::Seeded(base_seed) => gnn_dm_par::split_seed(base_seed, layer as u64),
            DrawRng::Stream(_) => 0, // unused
        };
        assemble_block(in_csr, chain, nbr, |d_local, d, out| {
            let mut derived;
            #[expect(clippy::disallowed_methods, reason = "each destination unit seeds from split_seed(layer_seed, d_local), its own unit index, so a batch is the same at any thread count")]
            let rng: &mut StdRng = match &mut draws {
                DrawRng::Stream(rng) => rng,
                DrawRng::Seeded(_) => {
                    derived = StdRng::seed_from_u64(gnn_dm_par::split_seed(layer_seed, d_local as u64));
                    &mut derived
                }
            };
            sampler.sample_neighbors(in_csr, d, layer, rng, out, draw_scratch);
        })
    })
}

/// The mini-batch over the deduplicated `seeds` whose `layers` blocks are
/// `block(layer, chain)`, output layer first: layer 0's destinations are
/// the seeds, and each later layer's are every id the earlier layers
/// numbered. The id list is copied out once, at its exact length.
fn chain_blocks(
    seeds: &[VId],
    layers: usize,
    chain: &mut Chain,
    mut block: impl FnMut(usize, &mut Chain) -> Block,
) -> MiniBatch {
    let Chain { map, ids, .. } = chain;
    map.begin();
    ids.clear();
    for &s in seeds {
        if map.get(s).is_none() {
            map.insert(s, ids.len() as u32);
            ids.push(s);
        }
    }
    let seeds_dedup = ids.to_vec();
    let mut blocks: Vec<Block> = Vec::with_capacity(layers);
    for layer in 0..layers {
        blocks.push(block(layer, chain));
    }
    blocks.reverse();
    let mb = MiniBatch { blocks, seeds: seeds_dedup, ids: chain.ids.to_vec() };
    debug_assert!(mb.validate_shape().is_ok(), "{:?}", mb.validate_shape());
    mb
}

/// The one block-assembly loop. The destinations are the ids `chain` holds
/// when it starts, at their positions; then `draw(d_local, d, nbr)`
/// appends the sources of each destination in turn, and each is resolved
/// against the map while its edge is pushed, so a new source is appended
/// to the id list at its first appearance in destination order.
/// Destinations are visited in ascending local index, so the edges land in
/// the block's destination-major layout as they are drawn: one source index
/// per edge, one closed offset per destination.
fn assemble_block(
    in_csr: &Csr,
    chain: &mut Chain,
    nbr: &mut Vec<VId>,
    mut draw: impl FnMut(usize, VId, &mut Vec<VId>),
) -> Block {
    let Chain { map, ids, edges } = chain;
    let num_dst = ids.len();
    let mut dst_offsets: Vec<u32> = Vec::with_capacity(num_dst + 1);
    dst_offsets.push(0);
    edges.clear();
    for d_local in 0..num_dst {
        prefetch_row(in_csr, &ids[..num_dst], d_local);
        let d = ids[d_local];
        nbr.clear();
        draw(d_local, d, nbr);
        for &s in nbr.iter() {
            let s_local = match map.get(s) {
                Some(i) => i,
                None => {
                    let i = ids.len() as u32;
                    map.insert(s, i);
                    ids.push(s);
                    i
                }
            };
            edges.push(s_local);
        }
        dst_offsets.push(edges.len() as u32);
    }
    Block { num_src: ids.len(), dst_offsets, edge_src: edges.to_vec() }
}

/// How many destinations ahead [`assemble_block`] prefetches a row's
/// offset, and then its first targets: the offset's line has arrived by
/// the time the nearer prefetch reads it.
const PREFETCH_OFFSET_AHEAD: usize = 16;
/// See [`PREFETCH_OFFSET_AHEAD`].
const PREFETCH_TARGETS_AHEAD: usize = 8;

/// Starts the loads of the CSR rows the draw loop reaches soon: the offset
/// of the destination [`PREFETCH_OFFSET_AHEAD`] places after `d_local`, and
/// the first two target lines of the one [`PREFETCH_TARGETS_AHEAD`] places
/// after it. A hint only, so every value is the same with or without it.
#[inline(always)]
fn prefetch_row(csr: &Csr, dst_ids: &[VId], d_local: usize) {
    let offsets = csr.offsets();
    if let Some(&v) = dst_ids.get(d_local + PREFETCH_OFFSET_AHEAD) {
        prefetch(&offsets[v as usize]);
    }
    if let Some(&v) = dst_ids.get(d_local + PREFETCH_TARGETS_AHEAD) {
        let row = &csr.targets()[offsets[v as usize]..offsets[v as usize + 1]];
        for line in row.chunks(64 / std::mem::size_of::<VId>()).take(2) {
            prefetch(&line[0]);
        }
    }
}

/// Asks the cache for the line holding `*x`; a no-op off x86-64.
#[inline(always)]
fn prefetch<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 target has. It
    // is a hint that reads and writes nothing and cannot fault, and its
    // pointer comes from a live reference anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((x as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
}

/// Layer-wise sampling (FastGCN-style): each layer keeps a fixed *budget* of
/// distinct source vertices sampled from the union of all destinations'
/// neighbors, rather than a per-vertex fanout. Avoids exponential frontier
/// growth; ignores per-vertex dependency structure (§6.2).
#[derive(Debug, Clone)]
pub struct LayerwiseSampler {
    /// Per-layer source-vertex budgets, output layer first.
    pub budgets: Vec<usize>,
}

impl LayerwiseSampler {
    /// A layer-wise sampler with the given per-layer budgets.
    pub fn new(budgets: Vec<usize>) -> Self {
        assert!(!budgets.is_empty(), "need at least one layer");
        LayerwiseSampler { budgets }
    }

    /// Builds a mini-batch under the layer-budget regime: per layer, the
    /// destinations' distinct neighbors in first-appearance order are
    /// shuffled and the first `budget` kept, and every edge from a kept
    /// neighbor enters the block, numbered as [`build_minibatch`] numbers
    /// its draws.
    pub fn build(&self, in_csr: &Csr, seeds: &[VId], rng: &mut StdRng) -> MiniBatch {
        let (mut chain, mut mark, mut nbr) = (Chain::default(), DenseMap::default(), Vec::new());
        chain_blocks(seeds, self.budgets.len(), &mut chain, |layer, chain| {
            // `mark` first holds the neighbors seen, then the ones kept.
            mark.begin();
            let mut candidates: Vec<VId> = Vec::new();
            for &d in &chain.ids {
                for &u in in_csr.neighbors(d) {
                    if mark.get(u).is_none() {
                        mark.insert(u, 0);
                        candidates.push(u);
                    }
                }
            }
            candidates.shuffle(rng);
            candidates.truncate(self.budgets[layer]);
            mark.begin();
            for &u in &candidates {
                mark.insert(u, 0);
            }
            assemble_block(in_csr, chain, &mut nbr, |_, d, out| {
                out.extend(in_csr.neighbors(d).iter().filter(|&&u| mark.get(u).is_some()));
            })
        })
    }
}

/// Subgraph-wise sampling (Cluster-GCN / GraphSAINT style): neighbor
/// expansion is restricted to `subgraph_members`; anything outside the
/// subgraph is invisible. Implemented as a filter over an inner sampler.
pub fn subgraph_restricted_minibatch(
    in_csr: &Csr,
    seeds: &[VId],
    subgraph_members: &[VId],
    sampler: &dyn NeighborSampler,
    rng: &mut StdRng,
) -> MiniBatch {
    // Build the induced sub-CSR once, then sample inside it with global ids
    // preserved via a relabeling.
    let mut sorted = subgraph_members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let local_of = |v: VId| sorted.binary_search(&v).ok();
    let mut edges: Vec<(VId, VId)> = Vec::new();
    for (lu, &u) in sorted.iter().enumerate() {
        for &w in in_csr.neighbors(u) {
            if let Some(lw) = local_of(w) {
                // Store reversed below: induced in-CSR of local lu has source lw.
                edges.push((lu as VId, lw as VId));
            }
        }
    }
    let induced = Csr::from_edges(sorted.len(), &edges);
    let local_seeds: Vec<VId> = seeds.iter().filter_map(|&s| local_of(s).map(|l| l as VId)).collect();
    let mut mb = build_minibatch(&induced, &local_seeds, sampler, rng);
    // Map local ids back to global ids.
    for v in mb.ids.iter_mut().chain(&mut mb.seeds) {
        *v = sorted[*v as usize];
    }
    debug_assert!(mb.validate().is_ok());
    mb
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests seed their fixtures directly")]
mod tests {
    use super::*;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use rand::SeedableRng;

    fn test_graph() -> gnn_dm_graph::Graph {
        planted_partition(&PplConfig { n: 400, avg_degree: 12.0, num_classes: 4, ..Default::default() })
    }

    #[test]
    fn fanout_bounds_respected() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let sampler = FanoutSampler::new(vec![5, 3]);
        let mb = build_minibatch(&g.inn, &[0, 1, 2, 3], &sampler, &mut rng);
        assert!(mb.validate().is_ok());
        assert_eq!(mb.num_layers(), 2);
        // Output block: each of the 4 seeds has at most 5 sampled in-neighbors.
        let out_block = &mb.blocks[1];
        for (d_local, &v) in mb.dst_ids(1).iter().enumerate() {
            assert!(out_block.in_degree(d_local) <= 5.min(g.inn.degree(v)));
        }
    }

    #[test]
    fn fanout_sampling_without_replacement() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let sampler = FanoutSampler::new(vec![1000]);
        let mb = build_minibatch(&g.inn, &[7], &sampler, &mut rng);
        // With a huge fanout the sample equals the full neighborhood exactly.
        assert_eq!(mb.blocks[0].num_edges(), g.inn.degree(7));
    }

    #[test]
    fn rate_sampler_scales_with_degree() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = RateSampler::new(vec![0.5], 1);
        let mb = build_minibatch(&g.inn, &[11], &sampler, &mut rng);
        let deg = g.inn.degree(11);
        let expect = ((deg as f64 * 0.5).round() as usize).max(1);
        assert_eq!(mb.blocks[0].num_edges(), expect.min(deg));
    }

    #[test]
    fn hybrid_switches_on_threshold() {
        let g = test_graph();
        // Threshold 0 → everything rate-sampled; huge threshold → fanout.
        let mut rng = StdRng::seed_from_u64(4);
        let all_rate = HybridSampler::new(vec![2], vec![1.0], 0);
        let mb = build_minibatch(&g.inn, &[5], &all_rate, &mut rng);
        assert_eq!(mb.blocks[0].num_edges(), g.inn.degree(5), "rate 1.0 keeps everything");
        let all_fanout = HybridSampler::new(vec![2], vec![1.0], usize::MAX);
        let mb2 = build_minibatch(&g.inn, &[5], &all_fanout, &mut rng);
        assert!(mb2.blocks[0].num_edges() <= 2);
    }

    #[test]
    fn seeds_are_deduplicated() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let sampler = FanoutSampler::new(vec![2]);
        let mb = build_minibatch(&g.inn, &[3, 3, 3, 8], &sampler, &mut rng);
        assert_eq!(mb.seeds, vec![3, 8]);
    }

    #[test]
    fn full_neighbor_matches_degree_sum() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(6);
        // A fanout no neighborhood reaches draws nothing: every in-neighbor.
        let sampler = FanoutSampler::new(vec![usize::MAX]);
        let seeds = vec![0, 1, 2];
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        let expect: usize = seeds.iter().map(|&s| g.inn.degree(s)).sum();
        assert_eq!(mb.blocks[0].num_edges(), expect);
    }

    #[test]
    fn layerwise_budget_bounds_new_sources() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(7);
        let sampler = LayerwiseSampler::new(vec![8, 4]);
        let seeds = vec![0, 1, 2, 3, 4];
        let mb = sampler.build(&g.inn, &seeds, &mut rng);
        assert!(mb.validate().is_ok());
        // New sources per layer (beyond the carried-over destinations) are
        // bounded by the layer budget.
        let out_block = &mb.blocks[1];
        assert!(out_block.num_src() - out_block.num_dst() <= 8);
        let in_block = &mb.blocks[0];
        assert!(in_block.num_src() - in_block.num_dst() <= 4);
    }

    #[test]
    fn subgraph_restriction_confines_sources() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(8);
        let members: Vec<u32> = (0..100).collect();
        let sampler = FanoutSampler::new(vec![10, 10]);
        let mb = subgraph_restricted_minibatch(&g.inn, &[0, 1, 2], &members, &sampler, &mut rng);
        assert!(mb.validate().is_ok());
        for &v in mb.input_ids() {
            assert!(v < 100, "vertex {v} escaped the subgraph");
        }
    }

    #[test]
    fn importance_sampler_respects_fanout_and_weights() {
        let g = test_graph();
        // FastGCN-style importance ∝ degree.
        let weights = (0..g.num_vertices()).map(|v| 1.0 + g.inn.degree(v as VId) as f64).collect();
        let sampler = ImportanceSampler::new(vec![6], weights);
        let mut rng = StdRng::seed_from_u64(12);
        let mb = build_minibatch(&g.inn, &[9], &sampler, &mut rng);
        assert!(mb.validate().is_ok());
        assert!(mb.blocks[0].num_edges() <= 6.min(g.inn.degree(9)));

        // Statistical check: with strongly skewed weights the heavy
        // neighbor must be drawn far more often than a light one.
        // in_csr semantics: neighbors(0) are 0's in-neighbors 1..=20.
        let star_edges: Vec<(u32, u32)> = (1..=20).map(|u| (0u32, u)).collect();
        let in_csr = gnn_dm_graph::Csr::from_edges(21, &star_edges);
        let mut weights = vec![1.0; 21];
        weights[1] = 100.0; // vertex 1 is 100x more important
        let s = ImportanceSampler::new(vec![1], weights);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..300 {
            let mb = build_minibatch(&in_csr, &[0], &s, &mut rng);
            if mb.input_ids().contains(&1) {
                hits += 1;
            }
        }
        assert!(hits > 240, "heavy neighbor drawn {hits}/300 times");
    }

    #[test]
    fn inverse_degree_prefers_leaves() {
        // Vertex 0's in-neighbors: a hub (vertex 1, high out-degree) and
        // leaves. Inverse-degree importance must prefer the leaves.
        let mut edges: Vec<(u32, u32)> = vec![(1, 0), (2, 0), (3, 0)];
        for u in 4..30u32 {
            edges.push((1, u)); // make vertex 1 a hub
        }
        let out_csr = gnn_dm_graph::Csr::from_edges(30, &edges);
        let in_csr = out_csr.transpose();
        let weights = (0..30).map(|v| 1.0 / (1.0 + out_csr.degree(v) as f64)).collect();
        let s = ImportanceSampler::new(vec![1], weights);
        let mut rng = StdRng::seed_from_u64(4);
        let mut hub_draws = 0;
        for _ in 0..300 {
            let mb = build_minibatch(&in_csr, &[0], &s, &mut rng);
            if mb.input_ids().contains(&1) {
                hub_draws += 1;
            }
        }
        assert!(hub_draws < 100, "hub drawn {hub_draws}/300 despite inverse-degree weights");
    }

    /// The stream and the seeded builder are one loop that differs only in
    /// where the draws come from: with a sampler that draws nothing they
    /// must agree whatever the stream or seed — duplicate seeds and
    /// isolated vertices (empty neighborhoods) included.
    #[test]
    fn stream_and_seeded_builders_agree_without_randomness() {
        let g = test_graph();
        let n = g.num_vertices();
        let mut edges: Vec<(VId, VId)> = Vec::new();
        for v in 0..n as VId {
            edges.extend(g.inn.neighbors(v).iter().map(|&u| (v, u)));
        }
        // Two extra vertices nothing points at and that point at nothing.
        let in_csr = Csr::from_edges(n + 2, &edges);
        let (lone_a, lone_b) = (n as VId, n as VId + 1);
        assert_eq!(in_csr.degree(lone_a) + in_csr.degree(lone_b), 0);
        let sampler = FanoutSampler::new(vec![usize::MAX; 2]);
        let seeds = [17, lone_a, 3, 17, 250, 3, lone_b, 399, lone_a];
        let mut scratch = SampleScratch::new();
        for k in 0..5u64 {
            let stream = build_minibatch(&in_csr, &seeds, &sampler, &mut StdRng::seed_from_u64(k));
            let seeded = build_minibatch_seeded_with(&in_csr, &seeds, &sampler, k ^ 0xA5A5, &mut scratch);
            assert!(stream.validate().is_ok());
            assert_eq!(stream.seeds, vec![17, lone_a, 3, 250, lone_b, 399]);
            assert_eq!(stream, seeded, "builders diverged at stream/seed {k}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = test_graph();
        let sampler = FanoutSampler::paper_default();
        let a = build_minibatch(&g.inn, &[1, 2, 3], &sampler, &mut StdRng::seed_from_u64(9));
        let b = build_minibatch(&g.inn, &[1, 2, 3], &sampler, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
