//! `gnn-dm` — a Rust reproduction of *Comprehensive Evaluation of GNN
//! Training Systems: A Data Management Perspective* (Yuan et al., VLDB 2024).
//!
//! This facade crate re-exports every workspace crate under one roof so
//! examples and downstream users can depend on a single package:
//!
//! * [`graph`] — CSR storage, synthetic generators, the nine-dataset registry;
//! * [`tensor`] — dense f32 matrix kernels;
//! * [`nn`] — GCN/GraphSAGE models with manual backprop, losses, optimizers;
//! * [`partition`] — Hash, Metis-extend (V/VE/VET) and streaming partitioners;
//! * [`sampling`] — fanout/rate/hybrid samplers, batch selection, schedules;
//! * [`device`] — the simulated CPU/GPU substrate (PCIe, caches, pipelines);
//! * [`cluster`] — the simulated distributed training cluster;
//! * [`core`] — the end-to-end evaluation engine tying it all together;
//! * [`harness`] — the composable systems-under-test layer: every
//!   evaluation axis a plain value parsed from a range-checked spec,
//!   every experiment a declarative grid;
//! * [`trace`] — the deterministic span-timeline engine every modelled
//!   second and byte flows through (Chrome-trace export);
//! * [`faults`] — deterministic fault injection (stragglers, flaky links
//!   with retry/backoff, worker crash + checkpoint recovery).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub use gnn_dm_cluster as cluster;
pub use gnn_dm_core as core;
pub use gnn_dm_device as device;
pub use gnn_dm_faults as faults;
pub use gnn_dm_graph as graph;
pub use gnn_dm_harness as harness;
pub use gnn_dm_nn as nn;
pub use gnn_dm_par as par;
pub use gnn_dm_partition as partition;
pub use gnn_dm_sampling as sampling;
pub use gnn_dm_tensor as tensor;
pub use gnn_dm_trace as trace;
