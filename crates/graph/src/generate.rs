//! Synthetic graph generators.
//!
//! The paper evaluates on nine real-world graphs that are not redistributable
//! here; per the reproduction's substitution rule these are replaced by
//! synthetic graphs that preserve the properties the experiments depend on:
//!
//! * **community structure** — labels are planted communities and edges fall
//!   inside a community with probability `homophily`, so GNNs genuinely learn
//!   and clustering-based partitioners/batch selectors find real clusters;
//! * **degree skew** — per-vertex Zipf weights make degree distributions
//!   power-law (`skew > 0`) or near-uniform (`skew = 0`), driving the
//!   fanout/caching/streaming-imbalance contrasts;
//! * **feature geometry** — features are noisy class centroids, so accuracy
//!   responds to how much neighborhood information sampling preserves.
//!
//! Generation is parallel and bit-identical to the serial loop at any thread
//! count: every random number still comes off one `StdRng` stream, drawn
//! serially in a fixed-size chunk, and only the pure work on the drawn
//! numbers — the Box–Muller transform, the weighted-sampler lookups — fans
//! out through `gnn-dm-par`.

use crate::csr::{row_counts, Rows, VId};
use crate::features::FeatureTable;
use crate::mask::SplitMask;
use crate::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Feature elements whose uniforms are drawn before their transform runs
/// (rounded down to whole rows, at least one). Fixed, so the work split
/// never depends on the thread count.
const FEATURE_CHUNK: usize = 64 * 1024;

/// Edge-placement attempts drawn before their lookups run. Fixed, like
/// [`FEATURE_CHUNK`].
const EDGE_CHUNK: usize = 16 * 1024;

/// Standard-normal sample via Box–Muller (the `rand_distr` crate is not part
/// of the sanctioned dependency set).
pub fn sample_normal(rng: &mut impl Rng) -> f64 {
    box_muller(normal_uniforms(rng))
}

/// The two uniforms one standard normal consumes: `u1` is redrawn while it
/// is too small to take the logarithm of, then `u2` is drawn.
fn normal_uniforms(rng: &mut impl Rng) -> (f64, f64) {
    let u1 = loop {
        let u1: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            break u1;
        }
    };
    (u1, rng.random::<f64>())
}

/// The Box–Muller transform of one pair from [`normal_uniforms`].
fn box_muller((u1, u2): (f64, f64)) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Zipf-like weights: a random permutation of `(rank + 1)^-alpha`.
/// `alpha = 0` yields uniform weights.
pub fn zipf_weights(n: usize, alpha: f64, seed: u64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-alpha)).collect();
    #[expect(clippy::disallowed_methods, reason = "a serial root: one stream from the caller's seed")]
    let mut rng = StdRng::seed_from_u64(seed);
    w.shuffle(&mut rng);
    w
}

/// Guide-table buckets per item, before rounding the table up to a power
/// of two.
const BUCKETS_PER_ITEM: usize = 2;

/// Cumulative-distribution samplers over non-negative weights, one per
/// group of items, held in three flat arrays however many groups there
/// are. [`WeightedSampler::new`] builds a single group; the generator
/// builds one group per community.
///
/// A draw `r` from a group selects the first of its items whose prefix sum
/// (each group's restart at zero) exceeds `r * total` (the group's last
/// item if none does). A guide table splits `[0, 1)` into `B` equal
/// buckets, a power of two, and stores for each bucket boundary the index
/// that boundary itself selects; a draw then searches only between its
/// bucket's two entries — usually none or one item — so it costs `O(1)` on
/// average instead of a binary search over every prefix sum. Building is
/// `O(n)`. Used by every weighted generator in this module.
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    /// Each group's prefix sums, group after group.
    cumulative: Vec<f64>,
    /// The item each position of `cumulative` draws; empty when position
    /// `i` is item `i`.
    items: Vec<VId>,
    /// Each group's `B + 1` entries, group after group: entry `b` is the
    /// number of the group's prefix sums at most `(b / B) * total`, so the
    /// last is the group's item count.
    guide: Vec<u32>,
    /// Where each group starts in `cumulative` and in `guide`, then where
    /// the last one ends.
    starts: Vec<(usize, usize)>,
}

impl WeightedSampler {
    /// Builds a sampler over `(item, weight)` pairs, as one group.
    /// Zero-weight items are kept but never drawn.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty, if one is negative or not finite,
    /// or if they sum to zero or overflow to infinity.
    pub fn new(items: Vec<VId>, weights: &[f64]) -> Self {
        assert_eq!(items.len(), weights.len());
        Self::grouped(items, weights, &[weights.len()])
    }

    /// One group per run of positions ending at each of `ends`
    /// (ascending, the last equal to `weights.len()`): position `i` weighs
    /// `weights[i]` and draws `items[i]`, or `i` when `items` is empty.
    /// Panics as [`WeightedSampler::new`] does, for every group.
    fn grouped(items: Vec<VId>, weights: &[f64], ends: &[usize]) -> Self {
        assert!(items.is_empty() || items.len() == weights.len());
        let buckets = |len: usize| (len * BUCKETS_PER_ITEM).next_power_of_two();
        let guide_len: usize = std::iter::once(0)
            .chain(ends.iter().copied())
            .zip(ends)
            .map(|(start, &end)| buckets(end - start) + 1)
            .sum();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut guide = Vec::with_capacity(guide_len);
        let mut starts = Vec::with_capacity(ends.len() + 1);
        for &end in ends {
            let group_start = cumulative.len();
            starts.push((group_start, guide.len()));
            let group = &weights[group_start..end];
            assert!(!group.is_empty(), "cannot sample from an empty set");
            assert!(group.len() < u32::MAX as usize, "too many items for a u32 guide table");
            let mut total = 0.0;
            for &w in group {
                assert!(w.is_finite() && w >= 0.0, "weights must be non-negative and finite");
                total += w;
                cumulative.push(total);
            }
            assert!(total.is_finite(), "weights must sum to a finite total");
            assert!(total > 0.0, "weights must not all be zero");

            let sums = &cumulative[group_start..];
            let buckets = buckets(group.len());
            let mut i = 0usize;
            for b in 0..=buckets {
                // `b / buckets` is exact: the bucket count is a power of two.
                let x = b as f64 / buckets as f64 * total;
                while i < sums.len() && sums[i] <= x {
                    i += 1;
                }
                guide.push(i as u32);
            }
        }
        starts.push((cumulative.len(), guide.len()));
        WeightedSampler { cumulative, items, guide, starts }
    }

    /// Draws one item of the first group proportionally to its weight.
    pub fn sample(&self, rng: &mut impl Rng) -> VId {
        self.at(0, rng.random::<f64>())
    }

    /// The item a uniform draw `r` in `[0, 1)` selects from `group`: the
    /// binary search `partition_point(|&c| c <= r * total).min(len - 1)`
    /// over the group's prefix sums, exactly.
    ///
    /// Scaling by the power-of-two bucket count is exact, so `r` lies in
    /// `[b / B, (b + 1) / B)` for its bucket `b`, and rounding is monotone:
    /// `r * total` falls between the two boundaries' products, so the
    /// search's answer lies between `guide[b]` and `guide[b + 1]`.
    fn at(&self, group: usize, r: f64) -> VId {
        let ((c0, g0), (c1, g1)) = (self.starts[group], self.starts[group + 1]);
        let (cumulative, guide) = (&self.cumulative[c0..c1], &self.guide[g0..g1]);
        let x = r * cumulative[cumulative.len() - 1];
        let buckets = guide.len() - 1;
        let b = ((r * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (guide[b] as usize, guide[b + 1] as usize);
        let at = c0 + (lo + cumulative[lo..hi].partition_point(|&c| c <= x)).min(cumulative.len() - 1);
        if self.items.is_empty() {
            at as VId
        } else {
            self.items[at]
        }
    }
}

/// Configuration for the planted-partition power-law (PPPL) generator.
#[derive(Debug, Clone)]
pub struct PplConfig {
    /// Number of vertices.
    pub n: usize,
    /// Average (undirected) degree; total undirected edges ≈ `n * avg_degree / 2`.
    pub avg_degree: f64,
    /// Number of planted communities = number of class labels.
    pub num_classes: usize,
    /// Probability an edge's second endpoint is drawn from the same
    /// community as the first (0.5 = no structure, 1.0 = disconnected
    /// communities). Real citation/social graphs sit around 0.7–0.95.
    pub homophily: f64,
    /// Zipf exponent of per-vertex degree weights (0 = flat, ~0.8–1.2 =
    /// strongly power-law, like social networks).
    pub skew: f64,
    /// Feature dimensionality.
    pub feat_dim: usize,
    /// Standard deviation of per-vertex feature noise around the class
    /// centroid; larger = harder task.
    pub feat_noise: f32,
    /// RNG seed; everything downstream is deterministic in this.
    pub seed: u64,
}

impl Default for PplConfig {
    fn default() -> Self {
        PplConfig {
            n: 10_000,
            avg_degree: 20.0,
            num_classes: 10,
            homophily: 0.85,
            skew: 0.9,
            feat_dim: 64,
            feat_noise: 1.0,
            seed: 42,
        }
    }
}

/// Generates a planted-partition power-law graph (degree-corrected SBM).
///
/// ```
/// use gnn_dm_graph::generate::{planted_partition, PplConfig};
/// let g = planted_partition(&PplConfig { n: 500, num_classes: 5, ..Default::default() });
/// assert_eq!(g.num_vertices(), 500);
/// assert!(g.validate().is_ok());
/// // Homophily: most edges stay inside their planted community.
/// let intra = g.out.edges()
///     .filter(|&(u, v)| g.labels[u as usize] == g.labels[v as usize])
///     .count();
/// assert!(intra * 2 > g.num_edges());
/// ```
pub fn planted_partition(cfg: &PplConfig) -> Graph {
    assert!(cfg.n >= cfg.num_classes, "need at least one vertex per class");
    assert!(cfg.num_classes >= 2, "need at least two classes");
    assert!((0.0..=1.0).contains(&cfg.homophily), "homophily must be in [0, 1]");
    #[expect(clippy::disallowed_methods, reason = "the generator's one serial stream; its parallel phases draw nothing")]
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Balanced community assignment, then shuffled so ids carry no signal.
    let mut labels: Vec<u32> = (0..cfg.n).map(|i| (i % cfg.num_classes) as u32).collect();
    labels.shuffle(&mut rng);

    let weights = zipf_weights(cfg.n, cfg.skew, cfg.seed ^ 0x9e37_79b9);

    // The global sampler over vertex ids, and one sampler per community
    // over its members in ascending order, held as groups of one: a few
    // large arrays rather than three per community, so dropping them
    // before the build frees whole allocations, not scattered small ones.
    let global = WeightedSampler::grouped(Vec::new(), &weights, &[cfg.n]);
    // The members, community after community, by a counting sort on the
    // label: each community's size becomes its start, its write cursor,
    // which ends at its end.
    let mut ends = vec![0usize; cfg.num_classes];
    for &l in &labels {
        ends[l as usize] += 1;
    }
    let mut start = 0;
    for e in &mut ends {
        start += std::mem::replace(e, start);
    }
    let mut members = vec![0 as VId; cfg.n];
    for (v, &l) in labels.iter().enumerate() {
        members[ends[l as usize]] = v as VId;
        ends[l as usize] += 1;
    }
    let member_weights: Vec<f64> = members.iter().map(|&v| weights[v as usize]).collect();
    let communities = WeightedSampler::grouped(members, &member_weights, &ends);
    // The samplers hold what placement needs; the weights do not sit
    // beside the pairs.
    drop((member_weights, weights));

    let m = ((cfg.n as f64) * cfg.avg_degree / 2.0).round() as usize;
    // Each placed pair is kept once; the mirrored build files it in the
    // row of its smaller endpoint.
    let mut pairs: Vec<(VId, VId)> = Vec::with_capacity(m);
    place_edges(&mut rng, m, cfg.homophily, &labels, &global, &communities, |u, v| pairs.push((u, v)));
    // Freed before the build, so they do not sit beside its arrays.
    drop((global, communities));
    let upper = Rows::fill(row_counts(cfg.n, &pairs, true), &pairs, true);
    // Dropped once the rows hold them, so the pairs never sit beside the
    // sort's counts or the final arrays.
    drop(pairs);
    let out = upper.sorted().mirror();
    let inn = out.clone(); // symmetric: one adjacency, shared

    // Deferred: the table has its own stream, so drawing it on first read
    // gives the bits drawing it here would.
    #[expect(clippy::disallowed_methods, reason = "the deferred feature table's own stream, mixed from the config seed; it is drawn whole on first read")]
    let recipe = CentroidRecipe {
        labels: labels.clone(),
        num_classes: cfg.num_classes,
        noise: cfg.feat_noise,
        stream: StdRng::seed_from_u64(cfg.seed ^ 0x5151_5151),
    };
    let features = FeatureTable::deferred(recipe, cfg.feat_dim);
    let split = SplitMask::paper_default(cfg.n, cfg.seed ^ 0xabcd);

    let g = Graph { out, inn, features, labels, num_classes: cfg.num_classes, split };
    debug_assert!(g.validate().is_ok());
    g
}

/// Places up to `m` undirected edges, handing each accepted `(u, v)` to
/// `accept` in the serial loop's order. An attempt picks `u` from `global`,
/// flips a homophily coin, and picks `v` from `u`'s community (coin below
/// `homophily`) or from `global` again; a self-loop is rejected, and
/// placement stops at `m` edges or `20 m` attempts.
///
/// Every attempt consumes exactly three draws whichever way its coin
/// falls, so each chunk's draws come off `rng` serially, the lookups run in
/// parallel, and the pairs are accepted serially in attempt order. A chunk
/// holds at most the `m - placed` attempts that could still be accepted,
/// so `rng` gives exactly the serial loop's draws and no lookup runs past
/// the `m`-th edge; a self-loop among them leaves a shorter chunk to follow.
fn place_edges(
    rng: &mut impl Rng,
    m: usize,
    homophily: f64,
    labels: &[u32],
    global: &WeightedSampler,
    communities: &WeightedSampler,
    mut accept: impl FnMut(VId, VId),
) {
    let max_attempts = m * 20;
    let mut attempts = 0usize;
    let mut placed = 0usize;
    let mut draws: Vec<[f64; 3]> = Vec::with_capacity(EDGE_CHUNK.min(m));
    while placed < m && attempts < max_attempts {
        let len = EDGE_CHUNK.min(m - placed).min(max_attempts - attempts);
        attempts += len;
        draws.clear();
        draws.extend((0..len).map(|_| [rng.random::<f64>(), rng.random(), rng.random()]));
        let pairs = gnn_dm_par::par_map_collect(&draws, |_, &[first, coin, second]| {
            let u = global.at(0, first);
            let v = if coin < homophily {
                communities.at(labels[u as usize] as usize, second)
            } else {
                global.at(0, second)
            };
            (u, v)
        });
        for (u, v) in pairs {
            if u != v {
                accept(u, v);
                placed += 1;
            }
        }
    }
}

/// Features drawn as `centroid[label] + noise * N(0, 1)` per dimension, with
/// unit-Gaussian random centroids.
pub fn class_centroid_features(
    labels: &[u32],
    num_classes: usize,
    dim: usize,
    noise: f32,
    seed: u64,
) -> FeatureTable {
    #[expect(clippy::disallowed_methods, reason = "a serial root: the feature table's stream from the caller's seed")]
    let data = centroid_features(&mut StdRng::seed_from_u64(seed), labels, num_classes, dim, noise);
    if dim == 0 {
        FeatureTable::zeros(labels.len(), 0)
    } else {
        FeatureTable::from_vec(data, dim)
    }
}

/// The arguments of one [`class_centroid_features`] call but the width,
/// with the seed already turned into the table's stream: what a deferred
/// [`FeatureTable`] keeps until its first value read. The stream is cloned,
/// never advanced, so every build draws the same values.
#[derive(Debug, Clone)]
pub(crate) struct CentroidRecipe {
    pub(crate) labels: Vec<u32>,
    pub(crate) num_classes: usize,
    pub(crate) noise: f32,
    pub(crate) stream: StdRng,
}

impl CentroidRecipe {
    /// The row-major values of [`class_centroid_features`] at width `dim`.
    pub(crate) fn values(&self, dim: usize) -> Vec<f32> {
        let rng = &mut self.stream.clone();
        centroid_features(rng, &self.labels, self.num_classes, dim, self.noise)
    }
}

/// [`class_centroid_features`]' values off a given stream: the centroids,
/// then the table in row-major order, each element taking exactly the draws
/// [`sample_normal`] would. Chunk by chunk, the uniforms are drawn serially
/// into one reused buffer and the rows transformed in parallel.
fn centroid_features(
    rng: &mut impl Rng,
    labels: &[u32],
    num_classes: usize,
    dim: usize,
    noise: f32,
) -> Vec<f32> {
    let centroids: Vec<Vec<f32>> = (0..num_classes)
        .map(|_| (0..dim).map(|_| sample_normal(rng) as f32).collect())
        .collect();
    if dim == 0 {
        return Vec::new();
    }
    let rows_per_chunk = (FEATURE_CHUNK / dim).max(1);
    let mut data = vec![0.0f32; labels.len() * dim];
    let mut uniforms: Vec<(f64, f64)> = Vec::with_capacity(rows_per_chunk * dim);
    for (ci, chunk) in data.chunks_mut(rows_per_chunk * dim).enumerate() {
        uniforms.clear();
        uniforms.extend((0..chunk.len()).map(|_| normal_uniforms(rng)));
        let chunk_labels = &labels[ci * rows_per_chunk..];
        gnn_dm_par::par_chunks_mut(chunk, dim, |r, row| {
            let centroid = &centroids[chunk_labels[r] as usize];
            let pairs = &uniforms[r * dim..(r + 1) * dim];
            for ((x, &c), &pair) in row.iter_mut().zip(centroid).zip(pairs) {
                *x = c + noise * box_muller(pair) as f32;
            }
        });
    }
    data
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests seed their fixtures directly")]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn ppl_basic_shape() {
        let cfg = PplConfig { n: 2000, avg_degree: 10.0, ..Default::default() };
        let g = planted_partition(&cfg);
        assert_eq!(g.num_vertices(), 2000);
        assert!(g.validate().is_ok());
        assert!(g.out.is_symmetric());
        // dedup removes some edges; stay within a loose band
        let m = g.num_edges();
        assert!(m > 2000 * 6 && m <= 2000 * 10 + 10, "edges {m}");
    }

    #[test]
    fn ppl_is_deterministic() {
        let cfg = PplConfig { n: 500, ..Default::default() };
        let a = planted_partition(&cfg);
        let b = planted_partition(&cfg);
        assert_eq!(a.out, b.out);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn ppl_homophily_controls_intra_edges() {
        let hi = planted_partition(&PplConfig { n: 2000, homophily: 0.95, seed: 1, ..Default::default() });
        let lo = planted_partition(&PplConfig { n: 2000, homophily: 0.2, seed: 1, ..Default::default() });
        let frac = |g: &Graph| {
            let intra = g
                .out
                .edges()
                .filter(|&(u, v)| g.labels[u as usize] == g.labels[v as usize])
                .count();
            intra as f64 / g.num_edges() as f64
        };
        assert!(frac(&hi) > 0.8, "high homophily frac {}", frac(&hi));
        assert!(frac(&lo) < 0.5, "low homophily frac {}", frac(&lo));
    }

    #[test]
    fn skew_raises_degree_variance() {
        let flat = planted_partition(&PplConfig { n: 3000, skew: 0.0, seed: 2, ..Default::default() });
        let skewed = planted_partition(&PplConfig { n: 3000, skew: 1.1, seed: 2, ..Default::default() });
        let flat_g = stats::degree_gini(&flat.out);
        let skew_g = stats::degree_gini(&skewed.out);
        assert!(skew_g > flat_g + 0.15, "gini flat={flat_g:.3} skewed={skew_g:.3}");
    }

    #[test]
    fn weighted_sampler_respects_weights() {
        let s = WeightedSampler::new(vec![0, 1], &[1.0, 9.0]);
        let mut rng = StdRng::seed_from_u64(0);
        let draws = (0..10_000).filter(|_| s.sample(&mut rng) == 1).count();
        assert!((draws as f64 / 10_000.0 - 0.9).abs() < 0.03, "p(1) = {}", draws as f64 / 10_000.0);
    }

    /// The binary search the guide table replaced.
    fn searched(s: &WeightedSampler, r: f64) -> VId {
        let x = r * s.cumulative[s.cumulative.len() - 1];
        s.items[s.cumulative.partition_point(|&c| c <= x).min(s.items.len() - 1)]
    }

    #[test]
    fn guide_lookup_is_the_binary_search() {
        let mut rng = StdRng::seed_from_u64(5);
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        let with_zeros = |at: usize| {
            let mut w = ramp(40);
            w[at..at + 7].fill(0.0);
            w
        };
        let mut dominant = vec![1.0; 50];
        dominant[17] = 1e12;
        let weight_sets = [
            zipf_weights(3000, 0.9, 3),
            zipf_weights(777, 0.0, 4),
            (0..500).map(|_| rng.random::<f64>() * 3.0).collect(),
            with_zeros(0),
            with_zeros(20),
            with_zeros(33),
            dominant,
            vec![0.25; 64],
            vec![2.5],
        ];
        // Every set again as one group of a single sampler.
        let items_of = |w: &[f64]| (0..w.len() as VId).map(|i| i * 3 + 1).collect::<Vec<VId>>();
        let ends: Vec<usize> = weight_sets
            .iter()
            .scan(0, |end, w| {
                *end += w.len();
                Some(*end)
            })
            .collect();
        let grouped = WeightedSampler::grouped(
            weight_sets.iter().flat_map(|w| items_of(w)).collect(),
            &weight_sets.concat(),
            &ends,
        );
        for (g, weights) in weight_sets.iter().enumerate() {
            let s = WeightedSampler::new(items_of(weights), weights);
            let positions = WeightedSampler::grouped(Vec::new(), weights, &[weights.len()]);
            let buckets = s.guide.len() - 1;
            let mut rs = vec![0.0, 1.0 - f64::EPSILON / 2.0, f64::MIN_POSITIVE, 1e-300];
            // Every bucket boundary and the float just below it.
            for b in 1..buckets {
                let edge = b as f64 / buckets as f64;
                rs.extend([edge, f64::from_bits(edge.to_bits() - 1)]);
            }
            // Every prefix sum's own draw and its neighbours, where `<=`
            // and `<` part ways.
            let total = s.cumulative[s.cumulative.len() - 1];
            for &c in &s.cumulative {
                let r = c / total;
                rs.extend([r, f64::from_bits(r.to_bits() + 1)]);
                if r > 0.0 {
                    rs.push(f64::from_bits(r.to_bits() - 1));
                }
            }
            rs.retain(|r| *r < 1.0);
            rs.extend((0..20_000).map(|_| rng.random::<f64>()));
            // Any bit pattern below 1.0, off the 2^-53 grid too.
            rs.extend((0..20_000).map(|_| f64::from_bits(rng.next_u64() % 1.0f64.to_bits())));
            for r in rs {
                assert!((0.0..1.0).contains(&r), "{r}");
                let drawn = searched(&s, r);
                assert_eq!(s.at(0, r), drawn, "r = {r:e}, {} weights", weights.len());
                assert_eq!(grouped.at(g, r), drawn, "group {g}, r = {r:e}");
                assert_eq!(positions.at(0, r) * 3 + 1, drawn, "positions, r = {r:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn weighted_sampler_rejects_an_infinite_weight() {
        let _ = WeightedSampler::new(vec![0, 1], &[f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "finite total")]
    fn weighted_sampler_rejects_an_overflowing_total() {
        let _ = WeightedSampler::new(vec![0, 1], &[1e308, 1e308]);
    }

    /// A replayed `next_u64` sequence: `split_seed(0, k)` for draw `k`,
    /// except 0 — the uniform 0.0, which Box–Muller redraws when it is a
    /// `u1` — at the listed draw indices.
    struct Script {
        drawn: u64,
        zeros: Vec<u64>,
    }

    impl Script {
        fn new(zeros: Vec<u64>) -> Self {
            Script { drawn: 0, zeros }
        }
    }

    impl Rng for Script {
        fn next_u64(&mut self) -> u64 {
            let k = self.drawn;
            self.drawn += 1;
            if self.zeros.contains(&k) {
                0
            } else {
                gnn_dm_par::split_seed(0, k)
            }
        }
    }

    #[test]
    fn chunked_features_take_the_draws_of_sample_normal() {
        let (num_classes, dim, noise) = (3usize, 5usize, 0.7f32);
        let rows_per_chunk = FEATURE_CHUNK / dim;
        let n = 2 * rows_per_chunk + 3;
        let labels: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
        // Draw 0 is the first centroid's `u1`. After its redraw, the
        // centroids and the first chunk take two draws per element, so the
        // first chunk's last `u1` is draw `boundary - 2` and — after that
        // one's redraw — the second chunk's first `u1` is `boundary + 1`.
        let boundary = 2 * (num_classes * dim + rows_per_chunk * dim) as u64 + 1;
        let zeros = vec![0, boundary - 2, boundary + 1];

        let mut serial = Script::new(zeros.clone());
        let centroids: Vec<Vec<f32>> = (0..num_classes)
            .map(|_| (0..dim).map(|_| sample_normal(&mut serial) as f32).collect())
            .collect();
        let mut expect = Vec::new();
        for &l in &labels {
            for &c in &centroids[l as usize] {
                expect.push((c + noise * sample_normal(&mut serial) as f32).to_bits());
            }
        }
        // All three zeros landed on a `u1`: one extra draw each.
        assert_eq!(serial.drawn, 2 * (num_classes * dim + n * dim) as u64 + 3);

        for threads in [1, 3] {
            let mut script = Script::new(zeros.clone());
            let got = gnn_dm_par::with_threads(threads, || {
                centroid_features(&mut script, &labels, num_classes, dim, noise)
            });
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert!(got == expect, "threads {threads}: features diverged from sample_normal");
            assert_eq!(script.drawn, serial.drawn, "threads {threads}: draws consumed");
        }
    }

    #[test]
    fn chunked_edge_placement_places_the_serial_loops_edges() {
        // Four vertices in two communities, so self-loops are rejected
        // often; the largest `m` needs a second full chunk, and in every
        // case a self-loop in a trimmed chunk leaves a shorter one to
        // follow. Placement draws exactly the serial loop's attempts.
        let labels = [0u32, 1, 0, 1];
        let global = WeightedSampler::new(vec![0, 1, 2, 3], &[1.0, 2.0, 3.0, 4.0]);
        let communities = [
            WeightedSampler::new(vec![0, 2], &[1.0, 3.0]),
            WeightedSampler::new(vec![1, 3], &[2.0, 4.0]),
        ];
        // What the generator builds: the global sampler over positions, the
        // communities as groups of one sampler.
        let positions = WeightedSampler::grouped(Vec::new(), &[1.0, 2.0, 3.0, 4.0], &[4]);
        let grouped = WeightedSampler::grouped(vec![0, 2, 1, 3], &[1.0, 3.0, 2.0, 4.0], &[2, 4]);
        for (m, homophily) in [(EDGE_CHUNK + 100, 0.6), (7, 0.6), (300, 1.0), (3, 1.0)] {
            let mut serial = Script::new(Vec::new());
            let mut expect = Vec::new();
            let (mut placed, mut attempts) = (0usize, 0usize);
            while placed < m && attempts < m * 20 {
                attempts += 1;
                let u = global.sample(&mut serial);
                let v = if serial.random::<f64>() < homophily {
                    communities[labels[u as usize] as usize].sample(&mut serial)
                } else {
                    global.sample(&mut serial)
                };
                if u != v {
                    expect.push((u, v));
                    placed += 1;
                }
            }
            assert_eq!(expect.len(), m);
            assert!(attempts > m, "m {m}: no self-loop, so no follow-up chunk");
            if m > EDGE_CHUNK {
                assert!(attempts > EDGE_CHUNK, "m {m}: the serial loop fit in one chunk");
            }

            let mut got = Vec::new();
            let mut script = Script::new(Vec::new());
            gnn_dm_par::with_threads(3, || {
                place_edges(&mut script, m, homophily, &labels, &positions, &grouped, |u, v| {
                    got.push((u, v));
                });
            });
            assert!(got == expect, "m {m}, homophily {homophily}: edges diverged");
            assert_eq!(script.drawn, serial.drawn, "m {m}, homophily {homophily}: draws taken");
        }
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..20_000).map(|_| sample_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }
}
