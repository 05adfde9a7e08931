//! Batch preparation for GNN training (§6 of the paper).
//!
//! Everything between "here are the training vertices" and "here is a
//! GPU-ready mini-batch" lives in this crate:
//!
//! * [`block`] — message-flow-graph (MFG) blocks with vertex deduplication,
//!   the sampled-subgraph representation every downstream crate consumes;
//! * [`sampler`] — fanout-based, ratio-based and the paper's proposed
//!   fanout-rate *hybrid* neighbor samplers (§6.3.3–§6.3.4), plus layer-wise
//!   and subgraph-wise alternatives;
//! * [`selection`] — random vs. cluster-based batch selection (§6.3.2);
//! * [`schedule`] — fixed and the paper's proposed *adaptive* batch-size
//!   schedules (§6.3.1);
//! * [`epoch`] — epoch iteration and the access-frequency tracking that the
//!   pre-sampling GPU cache policy (§7.3.3) builds on.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod block;
pub mod epoch;
pub mod sampler;
pub mod schedule;
pub mod selection;

pub use block::{Block, MiniBatch, BYTES_PER_EDGE};
pub use sampler::{FanoutSampler, HybridSampler, NeighborSampler, RateSampler};
pub use schedule::BatchSizeSchedule;
pub use selection::BatchSelection;
