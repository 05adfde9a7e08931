//! GNN models for the `gnn-dm` evaluation: GCN and GraphSAGE with manual
//! backprop, softmax cross-entropy, SGD/Adam, and accuracy metrics.
//!
//! The paper trains a 2-layer GCN \[20\] and GraphSAGE \[11\] with hidden
//! dimension 128 (§4). This crate reproduces both on top of the workspace's
//! dense kernels and the sampling crate's MFG blocks:
//!
//! * [`agg`] — neighborhood aggregation kernels over blocks (mini-batch) and
//!   full CSRs (inference), forward and backward;
//! * [`model`] — the layered model with forward caches and gradients;
//! * [`loss`] — softmax cross-entropy;
//! * [`optim`] — SGD and Adam on flat parameter views;
//! * [`metrics`] — accuracy, including the per-degree-class evaluation of
//!   Table 7;
//! * [`train`] — one-step and one-epoch convenience drivers.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod agg;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod train;
mod workspace;

pub use model::{AggKind, GnnModel};
pub use optim::{Adam, Sgd};
