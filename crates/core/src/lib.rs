//! The end-to-end GNN training evaluation harness — the paper's primary
//! contribution, reproduced.
//!
//! This crate composes every substrate in the workspace into the four-step
//! training process of Figure 1 (data partitioning → batch preparation →
//! data transferring → NN computation) and provides the runners behind
//! every experiment:
//!
//! * [`config`] — the serializable model kind;
//! * [`trainer`] — the single-node heterogeneous (CPU+GPU) trainer with
//!   pluggable transfer method, pipeline mode and GPU cache (§7);
//! * [`convergence`] — time-to-accuracy runners, single-node and
//!   distributed (§5.3.4, §6);
//! * [`breakdown`] — the GNN-vs-DNN step-time breakdown of Figure 2;
//! * [`dnn`] — a dependency-free MLP baseline that nothing uses: that
//!   comparison prices its MLP analytically;
//! * [`taxonomy`] — Tables 1, 2, 3 and 5 as data;
//! * [`results`] — fixed-width table / CSV rendering shared by the bench
//!   binaries.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod breakdown;
pub mod config;
pub mod convergence;
pub mod dnn;
pub mod results;
pub mod taxonomy;
pub mod trainer;

pub use trainer::{EpochTimings, HeteroTrainer, HeteroTrainerConfig};
