//! The experiment suite and its shared graph builders.
//!
//! Every row of [`experiments::EXPERIMENTS`] regenerates one table or
//! figure of the paper's evaluation (see DESIGN.md §3 for the index); the
//! `gnn-dm-exp` binary runs them. Scales are laptop-sized stand-ins for the
//! paper's datasets; the *shapes* of the results — who wins, by what
//! factor, where crossovers fall — are what reproduce.

pub mod experiments;

use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::Graph;

/// Vertex count for convergence experiments (real training to convergence).
pub const SCALE_TRAIN: usize = 3000;

/// Vertex count for load-accounting experiments (no training).
pub const SCALE_LOAD: usize = 8000;

/// Vertex count for transfer-model experiments (pure cost modelling).
pub const SCALE_TRANSFER: usize = 20_000;

/// Feature width used in scaled convergence runs (keeps wall-clock sane;
/// transfer experiments keep each dataset's real width).
pub const TRAIN_FEAT_DIM: usize = 64;

/// The labelled datasets used by §5/§6.
pub(crate) const LABELLED: [DatasetId; 4] =
    [DatasetId::Reddit, DatasetId::OgbArxiv, DatasetId::OgbProducts, DatasetId::Amazon];

/// The large unlabelled datasets used by the §7 transfer experiments.
pub(crate) const UNLABELLED: [DatasetId; 4] =
    [DatasetId::LiveJournal, DatasetId::LjLarge, DatasetId::LjLinks, DatasetId::EnwikiLinks];

/// Each dataset of `ids` by name, with the graph `build(id)` makes for it.
pub(crate) fn named_graphs(
    ids: &[DatasetId],
    build: impl Fn(DatasetId) -> Graph,
) -> Vec<(&'static str, Graph)> {
    ids.iter().map(|&id| (DatasetSpec::get(id).name, build(id))).collect()
}

/// The hard-regime generator configuration for one dataset.
///
/// Scaled-down planted partitions are far easier than the real datasets (a
/// 2-layer GCN saturates in one epoch), which would hide every batch-size /
/// fanout / selection effect the paper studies. The hard regime raises
/// feature noise and lowers homophily until the learning curves span the
/// experiment horizon, restoring the phenomenology: accuracy in the 0.7–0.9
/// band after ~15 epochs, visible convergence-speed differences.
pub fn hard_config(spec: &DatasetSpec, scale: usize, seed: u64) -> gnn_dm_graph::generate::PplConfig {
    let mut cfg = spec.scaled_config(scale, seed);
    cfg.feat_dim = TRAIN_FEAT_DIM;
    cfg.num_classes = cfg.num_classes.min(16);
    cfg.avg_degree = cfg.avg_degree.min(15.0);
    cfg.homophily = 0.60;
    cfg.feat_noise = 10.0;
    cfg
}

/// One scaled graph by dataset id.
pub fn one_graph(id: DatasetId, scale: usize, seed: u64) -> Graph {
    DatasetSpec::get(id).generate_scaled(scale, seed)
}

/// One scaled graph in the hard training regime (training-heavy runs).
pub fn one_graph_slim(id: DatasetId, scale: usize, feat_dim: usize, seed: u64) -> Graph {
    let spec = DatasetSpec::get(id);
    let mut cfg = hard_config(spec, scale, seed);
    cfg.feat_dim = feat_dim;
    gnn_dm_graph::generate::planted_partition(&cfg)
}

/// The graph used by the batch-size / schedule convergence experiments
/// (Figures 9 and 10): hard regime at 8 000 vertices with a thinner degree
/// so batch-level neighbor dedup does not saturate.
pub fn convergence_graph(id: DatasetId, seed: u64) -> Graph {
    let mut cfg = hard_config(DatasetSpec::get(id), 8_000, seed);
    cfg.avg_degree = 12.0;
    gnn_dm_graph::generate::planted_partition(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_sets_have_expected_members() {
        let l = named_graphs(&LABELLED, |id| one_graph(id, 500, 1));
        assert_eq!(l.len(), 4);
        assert_eq!(l[0].0, "Reddit");
        let t = named_graphs(&UNLABELLED, |id| one_graph(id, 500, 1));
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|(_, g)| g.feat_dim() == 600));
    }

    #[test]
    fn slim_graphs_use_reduced_features() {
        let l = named_graphs(&LABELLED, |id| one_graph_slim(id, 500, TRAIN_FEAT_DIM, 1));
        assert!(l.iter().all(|(_, g)| g.feat_dim() == TRAIN_FEAT_DIM));
    }
}
