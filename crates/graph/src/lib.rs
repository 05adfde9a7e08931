//! Graph substrate for the `gnn-dm` reproduction of *Comprehensive Evaluation
//! of GNN Training Systems: A Data Management Perspective* (VLDB 2024).
//!
//! This crate provides everything the evaluation needs from the graph side:
//!
//! * [`Csr`] — compressed sparse row adjacency, the storage format shared by
//!   every other crate in the workspace, built from directed or undirected
//!   edge lists with deduplication;
//! * [`Graph`] — a labelled, feature-carrying graph with train/val/test
//!   splits, the unit every experiment operates on;
//! * [`generate`] — the synthetic planted-partition power-law generator
//!   used to substitute the paper's real datasets;
//! * [`datasets`] — a registry of the paper's nine benchmark datasets with
//!   their published statistics and scaled synthetic stand-ins;
//! * [`stats`] — degree/clustering statistics used by §5.3.1 and §6.3.2;
//! * [`traversal`] — BFS and L-hop neighborhood expansion used by the
//!   partitioners and the distributed sampler.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod components;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod features;
pub mod generate;
pub mod io;
pub mod mask;
pub mod relabel;
pub mod stats;
pub mod traversal;

pub use csr::{Csr, VId};
pub use features::{FeatureRows, FeatureTable};
pub use mask::{Split, SplitMask};

/// A labelled graph with vertex features and a train/val/test split.
///
/// This is the unit of work for every experiment in the study: partitioners
/// split it, samplers draw mini-batches from it, and the NN crate trains on
/// it. `out` holds the forward adjacency; `inn` holds the reverse adjacency
/// (the direction GNN aggregation reads from). For symmetric graphs the two
/// are structurally identical but stored separately so directed datasets work
/// unchanged.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Out-going adjacency (`v -> targets`).
    pub out: Csr,
    /// In-coming adjacency (`v -> sources`); GNN layers aggregate over this.
    pub inn: Csr,
    /// Dense vertex features, one row per vertex.
    pub features: FeatureTable,
    /// Ground-truth class label per vertex.
    pub labels: Vec<u32>,
    /// Number of distinct classes.
    pub num_classes: usize,
    /// Train/val/test assignment per vertex.
    pub split: SplitMask,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges (symmetric graphs count both directions).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn feat_dim(&self) -> usize {
        self.features.dim()
    }

    /// Vertices whose `Split` is `Train`.
    pub fn train_vertices(&self) -> Vec<VId> {
        self.split.vertices_in(Split::Train)
    }

    /// Vertices whose `Split` is `Val`.
    pub fn val_vertices(&self) -> Vec<VId> {
        self.split.vertices_in(Split::Val)
    }

    /// Vertices whose `Split` is `Test`.
    pub fn test_vertices(&self) -> Vec<VId> {
        self.split.vertices_in(Split::Test)
    }

    /// Validates internal consistency (lengths agree, labels in range).
    ///
    /// Returns a human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.out.num_vertices();
        if self.inn.num_vertices() != n {
            return Err(format!(
                "in-adjacency has {} vertices, out-adjacency has {n}",
                self.inn.num_vertices()
            ));
        }
        if self.inn.num_edges() != self.out.num_edges() {
            return Err(format!(
                "in-adjacency has {} edges, out-adjacency has {}",
                self.inn.num_edges(),
                self.out.num_edges()
            ));
        }
        if self.features.num_rows() != n {
            return Err(format!(
                "feature table has {} rows for {n} vertices",
                self.features.num_rows()
            ));
        }
        if self.labels.len() != n {
            return Err(format!("{} labels for {n} vertices", self.labels.len()));
        }
        if self.split.len() != n {
            return Err(format!("{} split entries for {n} vertices", self.split.len()));
        }
        if let Some(&bad) = self.labels.iter().find(|&&l| l as usize >= self.num_classes) {
            return Err(format!("label {bad} out of range (num_classes={})", self.num_classes));
        }
        Ok(())
    }
}
