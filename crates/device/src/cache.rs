//! GPU feature caching (§7.3.3, Figure 17).
//!
//! Caching vertex features in GPU memory is "the most significant data
//! transfer optimization" (§7.4) because it removes bytes from the PCIe bus
//! entirely. Two policies from the paper:
//!
//! * **degree-based** (PaGraph \[24\]) — static; cache the highest out-degree
//!   vertices, assuming high degree ⇒ frequently sampled. Works on
//!   power-law graphs, fails on flat-degree graphs;
//! * **pre-sampling-based** (GNNLab \[59\]) — run a few profiling epochs,
//!   count actual feature accesses, cache the hottest vertices. Robust on
//!   both graph shapes.

use gnn_dm_graph::csr::{Csr, VId};
use gnn_dm_sampling::epoch::AccessTracker;
use gnn_dm_trace::convert::{u32_of_index, u64_of_usize, usize_of_u32};

/// Which ranking decides cache residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Rank vertices by out-degree (PaGraph).
    Degree,
    /// Rank vertices by profiled access frequency (GNNLab).
    PreSample,
}

impl CachePolicy {
    /// Display name used in Figure 17.
    pub fn name(&self) -> &'static str {
        match self {
            CachePolicy::Degree => "degree",
            CachePolicy::PreSample => "sample",
        }
    }
}

/// Outcome of classifying one batch of feature accesses against the
/// cache ([`FeatureCache::classify`]): a pure value, no statistics
/// mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheClassification {
    /// Ids whose features are not resident (must cross the bus).
    pub misses: Vec<VId>,
    /// How many of the batch's accesses hit.
    pub hit_count: u64,
    /// How many missed (`misses.len()`, pre-widened).
    pub miss_count: u64,
}

/// A static GPU feature cache with hit/miss accounting.
///
/// ```
/// use gnn_dm_device::cache::FeatureCache;
/// // Cache the two hottest of five vertices per an explicit ranking.
/// let mut cache = FeatureCache::from_ranking(&[3, 1, 0, 2, 4], 5, 2);
/// let misses = cache.filter_misses(&[0, 1, 3, 4]);
/// assert_eq!(misses, vec![0, 4]);      // 1 and 3 were cached
/// assert_eq!(cache.hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct FeatureCache {
    cached: Vec<bool>,
    capacity_rows: usize,
    hits: u64,
    misses: u64,
}

impl FeatureCache {
    /// An empty (disabled) cache over `n` vertices.
    pub fn disabled(n: usize) -> Self {
        FeatureCache { cached: vec![false; n], capacity_rows: 0, hits: 0, misses: 0 }
    }

    /// Builds a degree-policy cache holding the `capacity_rows`
    /// highest-out-degree vertices.
    pub fn degree_based(out_csr: &Csr, capacity_rows: usize) -> Self {
        let n = out_csr.num_vertices();
        let mut order: Vec<VId> = (0..u32_of_index(n)).collect();
        order.sort_by(|&a, &b| {
            out_csr.degree(b).cmp(&out_csr.degree(a)).then(a.cmp(&b))
        });
        Self::from_ranking(&order, n, capacity_rows)
    }

    /// Builds a pre-sampling-policy cache from profiled access counts.
    pub fn presample_based(tracker: &AccessTracker, capacity_rows: usize) -> Self {
        let ranking = tracker.ranking();
        Self::from_ranking(&ranking, ranking.len(), capacity_rows)
    }

    /// Caches the first `capacity_rows` entries of an explicit ranking.
    pub fn from_ranking(ranking: &[VId], n: usize, capacity_rows: usize) -> Self {
        let mut cached = vec![false; n];
        for &v in ranking.iter().take(capacity_rows) {
            cached[usize_of_u32(v)] = true;
        }
        FeatureCache { cached, capacity_rows: capacity_rows.min(n), hits: 0, misses: 0 }
    }

    /// Number of rows the cache holds.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// `true` if `v`'s features are cached.
    #[inline]
    pub fn contains(&self, v: VId) -> bool {
        self.cached[usize_of_u32(v)]
    }

    /// Classifies a batch's feature accesses **without mutating** the
    /// cache: the ids that miss (must be transferred) plus exact hit/miss
    /// counts, widened once per batch through the guarded
    /// [`gnn_dm_trace::convert`] layer instead of incremented element by
    /// element.
    pub fn classify(&self, ids: &[VId]) -> CacheClassification {
        let mut misses = Vec::with_capacity(ids.len());
        for &v in ids {
            if !self.cached[usize_of_u32(v)] {
                misses.push(v);
            }
        }
        let miss_count = u64_of_usize(misses.len());
        let hit_count = u64_of_usize(ids.len() - misses.len());
        CacheClassification { misses, hit_count, miss_count }
    }

    /// Filters a batch's feature accesses: returns the ids that **miss**
    /// (must be transferred) and records hit/miss statistics
    /// (saturating, so the running counters can never wrap).
    pub fn filter_misses(&mut self, ids: &[VId]) -> Vec<VId> {
        let c = self.classify(ids);
        self.record(c.hit_count, c.miss_count);
        c.misses
    }

    /// Adds the counts of a batch [`FeatureCache::classify`]d elsewhere to
    /// the running statistics (saturating).
    pub fn record(&mut self, hits: u64, misses: u64) {
        self.hits = self.hits.saturating_add(hits);
        self.misses = self.misses.saturating_add(misses);
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over everything filtered so far (0 when nothing seen).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets hit/miss counters (cache contents stay).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_graph::Csr;

    fn star() -> Csr {
        // Vertex 0 has degree 4; others degree 1.
        let edges: Vec<(u32, u32)> = (1..5).flat_map(|v| [(0, v), (v, 0)]).collect();
        Csr::from_edges(5, &edges)
    }

    #[test]
    fn degree_cache_prefers_hub() {
        let mut c = FeatureCache::degree_based(&star(), 1);
        assert!(c.contains(0));
        assert!(!c.contains(1));
        let misses = c.filter_misses(&[0, 1, 2, 0]);
        assert_eq!(misses, vec![1, 2]);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn presample_cache_follows_frequency() {
        let mut t = AccessTracker::new(4);
        for _ in 0..5 {
            t.record(3);
        }
        t.record(1);
        let c = FeatureCache::presample_based(&t, 1);
        assert!(c.contains(3));
        assert!(!c.contains(1));
    }

    #[test]
    fn disabled_cache_misses_everything() {
        let mut c = FeatureCache::disabled(3);
        let misses = c.filter_misses(&[0, 1, 2]);
        assert_eq!(misses.len(), 3);
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn capacity_clamped_to_n() {
        let c = FeatureCache::from_ranking(&[0, 1], 2, 10);
        assert_eq!(c.capacity_rows(), 2);
    }

    #[test]
    fn classify_is_pure_and_matches_filter() {
        let c = FeatureCache::degree_based(&star(), 1);
        let cls = c.classify(&[0, 1, 2, 0]);
        assert_eq!(cls.misses, vec![1, 2]);
        assert_eq!(cls.hit_count, 2);
        assert_eq!(cls.miss_count, 2);
        assert_eq!(c.hits(), 0, "classify must not touch running statistics");
        assert_eq!(c.misses(), 0);
        let mut m = c.clone();
        assert_eq!(m.filter_misses(&[0, 1, 2, 0]), cls.misses);
        assert_eq!(m.hits(), cls.hit_count);
        assert_eq!(m.misses(), cls.miss_count);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = FeatureCache::degree_based(&star(), 1);
        c.filter_misses(&[0]);
        c.reset_stats();
        assert_eq!(c.hits(), 0);
        assert!(c.contains(0));
    }
}
