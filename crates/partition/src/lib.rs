//! Graph partitioners for distributed GNN training (§5 of the paper).
//!
//! Implements every method of Table 3:
//!
//! | Method    | Module       | System in the paper |
//! |-----------|--------------|---------------------|
//! | Hash      | [`hash`]     | P3                  |
//! | Metis-V   | [`metis`]    | (ablation)          |
//! | Metis-VE  | [`metis`]    | DistDGL             |
//! | Metis-VET | [`metis`]    | SALIENT++           |
//! | Stream-V  | [`stream`]   | PaGraph             |
//! | Stream-B  | [`stream`]   | ByteGNN             |
//!
//! plus the partition-quality metrics the evaluation reports: edge cut,
//! train-vertex balance, L-hop locality, replication factor, and the
//! per-partition clustering-coefficient variance of §5.3.1.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod hash;
pub mod metis;
pub mod metrics;
pub mod stream;
pub mod types;

pub use metis::{metis_clusters, metis_extend, MetisVariant};
pub use types::{GnnPartitioning, Locality, PartitionMethod};

use gnn_dm_graph::Graph;

/// Runs any of the six evaluated partitioning methods on a graph.
///
/// This is the uniform entry point the experiment harness uses; each method
/// can also be called directly through its module for finer control.
///
/// ```
/// use gnn_dm_graph::generate::{planted_partition, PplConfig};
/// use gnn_dm_partition::{metrics, partition_graph, PartitionMethod};
///
/// let g = planted_partition(&PplConfig { n: 800, ..Default::default() });
/// let hash = partition_graph(&g, PartitionMethod::Hash, 4, 7);
/// let metis = partition_graph(&g, PartitionMethod::MetisVE, 4, 7);
/// // Metis minimizes edge cut (§5's goal 1); hash ignores structure.
/// assert!(metrics::edge_cut(&g, &metis) < metrics::edge_cut(&g, &hash));
/// ```
///
/// # Panics
///
/// Panics if `k` is 0 ("need at least one partition").
pub fn partition_graph(graph: &Graph, method: PartitionMethod, k: usize, seed: u64) -> GnnPartitioning {
    match method {
        PartitionMethod::Hash => hash::hash_vertices(graph.num_vertices(), k, seed),
        PartitionMethod::MetisV => metis_extend(graph, MetisVariant::V, k, seed),
        PartitionMethod::MetisVE => metis_extend(graph, MetisVariant::VE, k, seed),
        PartitionMethod::MetisVET => metis_extend(graph, MetisVariant::VET, k, seed),
        PartitionMethod::StreamV => stream::stream_v(graph, k, 2),
        PartitionMethod::StreamB => stream::stream_b(graph, k, stream::DEFAULT_BLOCK_SIZE, seed),
    }
}
