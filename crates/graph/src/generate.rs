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

use crate::builder::GraphBuilder;
use crate::csr::VId;
use crate::features::FeatureTable;
use crate::mask::SplitMask;
use crate::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Standard-normal sample via Box–Muller (the `rand_distr` crate is not part
/// of the sanctioned dependency set).
pub fn sample_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Zipf-like weights: a random permutation of `(rank + 1)^-alpha`.
/// `alpha = 0` yields uniform weights.
pub fn zipf_weights(n: usize, alpha: f64, seed: u64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-alpha)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    w.shuffle(&mut rng);
    w
}

/// Cumulative-distribution sampler over non-negative weights.
///
/// Draws are `O(log n)` via binary search on the prefix sums; building is
/// `O(n)`. Used by every weighted generator in this module.
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    cumulative: Vec<f64>,
    items: Vec<VId>,
}

impl WeightedSampler {
    /// Builds a sampler over `(item, weight)` pairs. Zero-weight items are
    /// kept but never drawn.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn new(items: Vec<VId>, weights: &[f64]) -> Self {
        assert_eq!(items.len(), weights.len());
        assert!(!items.is_empty(), "cannot sample from an empty set");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "weights must be non-negative");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "weights must not all be zero");
        WeightedSampler { cumulative, items }
    }

    /// Draws one item proportionally to its weight.
    pub fn sample(&self, rng: &mut impl Rng) -> VId {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.random::<f64>() * total;
        let idx = self.cumulative.partition_point(|&c| c <= x).min(self.items.len() - 1);
        self.items[idx]
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
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Balanced community assignment, then shuffled so ids carry no signal.
    let mut labels: Vec<u32> = (0..cfg.n).map(|i| (i % cfg.num_classes) as u32).collect();
    labels.shuffle(&mut rng);

    let weights = zipf_weights(cfg.n, cfg.skew, cfg.seed ^ 0x9e37_79b9);

    // Per-community and global weighted samplers.
    let mut members: Vec<Vec<VId>> = vec![Vec::new(); cfg.num_classes];
    for (v, &l) in labels.iter().enumerate() {
        members[l as usize].push(v as VId);
    }
    let community_samplers: Vec<WeightedSampler> = members
        .iter()
        .map(|m| {
            let w: Vec<f64> = m.iter().map(|&v| weights[v as usize]).collect();
            WeightedSampler::new(m.clone(), &w)
        })
        .collect();
    let global = WeightedSampler::new((0..cfg.n as VId).collect(), &weights);

    let m = ((cfg.n as f64) * cfg.avg_degree / 2.0).round() as usize;
    let mut b = GraphBuilder::with_capacity(cfg.n, m * 2);
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < m && attempts < m * 20 {
        attempts += 1;
        let u = global.sample(&mut rng);
        let v = if rng.random::<f64>() < cfg.homophily {
            community_samplers[labels[u as usize] as usize].sample(&mut rng)
        } else {
            global.sample(&mut rng)
        };
        if u == v {
            continue;
        }
        b.add_undirected(u, v);
        placed += 1;
    }
    let out = b.build_symmetric();
    let inn = out.clone(); // symmetric

    let features = class_centroid_features(
        &labels,
        cfg.num_classes,
        cfg.feat_dim,
        cfg.feat_noise,
        cfg.seed ^ 0x5151_5151,
    );
    let split = SplitMask::paper_default(cfg.n, cfg.seed ^ 0xabcd);

    let g = Graph { out, inn, features, labels, num_classes: cfg.num_classes, split };
    debug_assert!(g.validate().is_ok());
    g
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
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<Vec<f32>> = (0..num_classes)
        .map(|_| (0..dim).map(|_| sample_normal(&mut rng) as f32).collect())
        .collect();
    let mut table = FeatureTable::zeros(labels.len(), dim);
    for (v, &l) in labels.iter().enumerate() {
        let row = table.row_mut(v as VId);
        let c = &centroids[l as usize];
        for (j, x) in row.iter_mut().enumerate() {
            *x = c[j] + noise * sample_normal(&mut rng) as f32;
        }
    }
    table
}

/// Erdős–Rényi `G(n, m)` graph (symmetric), with random labels/features —
/// useful as a no-structure control in tests.
pub fn erdos_renyi(n: usize, m: usize, num_classes: usize, feat_dim: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m * 2);
    for _ in 0..m {
        let u = rng.random_range(0..n) as VId;
        let v = rng.random_range(0..n) as VId;
        if u != v {
            b.add_undirected(u, v);
        }
    }
    let out = b.build_symmetric();
    let inn = out.clone();
    let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..num_classes) as u32).collect();
    let features = class_centroid_features(&labels, num_classes, feat_dim, 1.0, seed ^ 1);
    let split = SplitMask::paper_default(n, seed ^ 2);
    Graph { out, inn, features, labels, num_classes, split }
}

#[cfg(test)]
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

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..20_000).map(|_| sample_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn erdos_renyi_shape() {
        let g = erdos_renyi(500, 2000, 5, 16, 3);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.validate().is_ok());
        assert!(g.out.is_symmetric());
    }
}
