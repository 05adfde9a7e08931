//! Registry of the paper's nine benchmark datasets (Table 2) and scaled
//! synthetic stand-ins.
//!
//! The real datasets are not redistributable (and OGB-Papers at 111M vertices
//! does not fit a laptop-scale reproduction), so each entry records the
//! published statistics — |V|, |E|, feature width, label count — plus the two
//! structural parameters the experiments depend on: degree skew and label
//! homophily. [`DatasetSpec::generate_scaled`] produces a planted-partition
//! power-law graph with the same per-vertex shape at any target size.
//!
//! The paper itself generates random features and labels for the LiveJournal
//! family and Enwiki-links (§4); we mirror that by giving those entries low
//! homophily — they are used only in the transfer experiments, where accuracy
//! does not matter.

use crate::generate::{planted_partition, PplConfig};
use crate::Graph;

/// Identifier for each of the paper's nine datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Reddit post-to-post graph (social network).
    Reddit,
    /// OGB ogbn-arxiv citation network.
    OgbArxiv,
    /// OGB ogbn-products co-purchasing network.
    OgbProducts,
    /// OGB ogbn-papers100M citation network.
    OgbPapers,
    /// Amazon co-purchasing network (GraphSAINT version).
    Amazon,
    /// LiveJournal communication network.
    LiveJournal,
    /// LiveJournal-large network.
    LjLarge,
    /// LiveJournal-links network.
    LjLinks,
    /// English Wikipedia hyperlink network.
    EnwikiLinks,
}

/// Published statistics and generator parameters for one dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub id: DatasetId,
    /// Display name as used in the paper's tables.
    pub name: &'static str,
    /// Full |V| from Table 2.
    pub full_vertices: u64,
    /// Full |E| from Table 2.
    pub full_edges: u64,
    /// Feature dimensionality (#F).
    pub feat_dim: usize,
    /// Number of classes (#L).
    pub num_classes: usize,
    /// Degree-skew exponent for the synthetic stand-in (higher = more
    /// power-law). Chosen per the paper's characterization: §7.3.3 treats
    /// Amazon as power-law and OGB-Papers as non-power-law.
    pub skew: f64,
    /// Label homophily for the stand-in; low for datasets whose labels the
    /// paper randomizes.
    pub homophily: f64,
    /// Whether the paper treats the graph as power-law (§7.3.3).
    pub power_law: bool,
    /// Whether the dataset ships real labels (false = the paper randomizes).
    pub has_real_labels: bool,
}

impl DatasetSpec {
    /// Average degree implied by the published |V|, |E|.
    pub fn avg_degree(&self) -> f64 {
        self.full_edges as f64 / self.full_vertices as f64
    }

    /// All nine datasets, in Table 2 order.
    pub fn all() -> &'static [DatasetSpec] {
        &REGISTRY
    }

    /// The four labelled datasets used by the partitioning and
    /// batch-preparation experiments (§4).
    pub fn labelled() -> Vec<&'static DatasetSpec> {
        REGISTRY.iter().filter(|d| d.has_real_labels).collect()
    }

    /// Looks up a dataset by id.
    pub fn get(id: DatasetId) -> &'static DatasetSpec {
        #[expect(clippy::expect_used, reason = "REGISTRY covers every DatasetId variant; a miss is a compile-time-size bug")]
        let spec = REGISTRY.iter().find(|d| d.id == id).expect("all ids are registered");
        spec
    }

    /// Generates a synthetic stand-in scaled to `target_n` vertices.
    ///
    /// Average degree follows the real dataset, capped at
    /// `MAX_SCALED_DEGREE` so Reddit-class graphs (average degree ≈ 493)
    /// remain tractable; the cap preserves every degree *contrast* the
    /// experiments rely on because it applies uniformly.
    pub fn generate_scaled(&self, target_n: usize, seed: u64) -> Graph {
        let cfg = self.scaled_config(target_n, seed);
        planted_partition(&cfg)
    }

    /// The [`PplConfig`] that [`Self::generate_scaled`] uses — exposed so
    /// experiments can tweak feature width or noise without re-deriving the
    /// structural parameters.
    pub fn scaled_config(&self, target_n: usize, seed: u64) -> PplConfig {
        PplConfig {
            n: target_n,
            avg_degree: self.avg_degree().min(MAX_SCALED_DEGREE),
            num_classes: self.num_classes.min(target_n / 8).max(2),
            homophily: self.homophily,
            skew: self.skew,
            feat_dim: self.feat_dim,
            feat_noise: 1.0,
            seed,
        }
    }
}

/// Degree cap applied by [`DatasetSpec::generate_scaled`].
pub const MAX_SCALED_DEGREE: f64 = 50.0;

static REGISTRY: [DatasetSpec; 9] = [
    DatasetSpec {
        id: DatasetId::Reddit,
        name: "Reddit",
        full_vertices: 232_960,
        full_edges: 114_850_000,
        feat_dim: 602,
        num_classes: 41,
        skew: 0.75,
        homophily: 0.90,
        power_law: true,
        has_real_labels: true,
    },
    DatasetSpec {
        id: DatasetId::OgbArxiv,
        name: "OGB-Arxiv",
        full_vertices: 169_340,
        full_edges: 2_480_000,
        feat_dim: 128,
        num_classes: 40,
        skew: 0.85,
        homophily: 0.80,
        power_law: true,
        has_real_labels: true,
    },
    DatasetSpec {
        id: DatasetId::OgbProducts,
        name: "OGB-Products",
        full_vertices: 2_450_000,
        full_edges: 126_170_000,
        feat_dim: 100,
        num_classes: 47,
        skew: 0.80,
        homophily: 0.88,
        power_law: true,
        has_real_labels: true,
    },
    DatasetSpec {
        id: DatasetId::OgbPapers,
        name: "OGB-Papers",
        full_vertices: 111_060_000,
        full_edges: 1_600_000_000,
        feat_dim: 128,
        num_classes: 172,
        skew: 0.25,
        homophily: 0.80,
        power_law: false,
        has_real_labels: true,
    },
    DatasetSpec {
        id: DatasetId::Amazon,
        name: "Amazon",
        full_vertices: 1_570_000,
        full_edges: 264_340_000,
        feat_dim: 200,
        num_classes: 107,
        skew: 0.95,
        homophily: 0.85,
        power_law: true,
        has_real_labels: true,
    },
    DatasetSpec {
        id: DatasetId::LiveJournal,
        name: "LiveJournal",
        full_vertices: 4_850_000,
        full_edges: 90_550_000,
        feat_dim: 600,
        num_classes: 60,
        skew: 0.90,
        homophily: 0.55,
        power_law: true,
        has_real_labels: false,
    },
    DatasetSpec {
        id: DatasetId::LjLarge,
        name: "Lj-large",
        full_vertices: 7_490_000,
        full_edges: 232_100_000,
        feat_dim: 600,
        num_classes: 60,
        skew: 0.90,
        homophily: 0.55,
        power_law: true,
        has_real_labels: false,
    },
    DatasetSpec {
        id: DatasetId::LjLinks,
        name: "Lj-links",
        full_vertices: 5_200_000,
        full_edges: 205_250_000,
        feat_dim: 600,
        num_classes: 60,
        skew: 0.90,
        homophily: 0.55,
        power_law: true,
        has_real_labels: false,
    },
    DatasetSpec {
        id: DatasetId::EnwikiLinks,
        name: "Enwiki-links",
        full_vertices: 13_590_000,
        full_edges: 1_370_000_000,
        feat_dim: 600,
        num_classes: 60,
        skew: 1.00,
        homophily: 0.55,
        power_law: true,
        has_real_labels: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn registry_complete() {
        assert_eq!(DatasetSpec::all().len(), 9);
        assert_eq!(DatasetSpec::labelled().len(), 5);
        assert_eq!(DatasetSpec::get(DatasetId::Reddit).feat_dim, 602);
        assert_eq!(DatasetSpec::get(DatasetId::OgbPapers).num_classes, 172);
    }

    #[test]
    fn avg_degrees_match_published() {
        let reddit = DatasetSpec::get(DatasetId::Reddit);
        assert!((reddit.avg_degree() - 493.0).abs() < 5.0);
        let arxiv = DatasetSpec::get(DatasetId::OgbArxiv);
        assert!((arxiv.avg_degree() - 14.6).abs() < 0.5);
    }

    #[test]
    fn scaled_generation_small() {
        let g = DatasetSpec::get(DatasetId::OgbArxiv).generate_scaled(1500, 11);
        assert_eq!(g.num_vertices(), 1500);
        assert_eq!(g.feat_dim(), 128);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_cap_applied() {
        let cfg = DatasetSpec::get(DatasetId::Reddit).scaled_config(1000, 0);
        assert!(cfg.avg_degree <= MAX_SCALED_DEGREE);
        let cfg2 = DatasetSpec::get(DatasetId::OgbArxiv).scaled_config(1000, 0);
        assert!(cfg2.avg_degree < 16.0, "arxiv keeps its own degree");
    }

    #[test]
    fn papers_is_flatter_than_amazon() {
        let papers = DatasetSpec::get(DatasetId::OgbPapers).generate_scaled(3000, 5);
        let amazon = DatasetSpec::get(DatasetId::Amazon).generate_scaled(3000, 5);
        let gp = stats::degree_gini(&papers.out);
        let ga = stats::degree_gini(&amazon.out);
        assert!(ga > gp + 0.1, "amazon gini {ga:.3} vs papers {gp:.3}");
    }

    #[test]
    fn num_classes_clamped_for_tiny_graphs() {
        let cfg = DatasetSpec::get(DatasetId::OgbPapers).scaled_config(64, 0);
        assert!(cfg.num_classes <= 8);
        assert!(cfg.num_classes >= 2);
    }
}
