//! Simulated heterogeneous CPU/GPU training substrate (§7 of the paper).
//!
//! The paper's data-transferring experiments run on NVIDIA T4 GPUs behind
//! PCIe 3.0 x16 links; this reproduction substitutes a deterministic
//! *cost-model simulator* so every byte and every stage duration is
//! accounted analytically (see DESIGN.md §1 for why this preserves the
//! paper's conclusions):
//!
//! * [`link`] — bandwidth/latency models of the PCIe bus and the 10 Gbps
//!   NIC;
//! * [`compute`] — FLOP-count models of T4 NN compute and CPU sampling;
//! * [`transfer`] — the three data-transfer methods: extract-load
//!   (explicit), zero-copy (UVA implicit), and HyTGraph-style hybrid;
//! * [`blocks`] — 256 KB-block activity analysis (Figures 15/16);
//! * [`cache`] — GPU feature caching with degree-based and
//!   pre-sampling-based policies (Figure 17);
//! * [`pipeline`] — the 3-stage (batch preparation / data transfer / NN
//!   compute) pipeline scheduler (Figures 13/14): stage spans replayed on
//!   `gnn-dm-trace` lanes;
//! * [`traced`] — adapters that price link/GPU work and record it as
//!   timeline spans in one step (`clippy.toml` bans the raw pricing
//!   methods they wrap, so other crates price through them);
//! * [`memory`] — the T4's 16 GiB budget as constants, and the feature
//!   cache rows it leaves room for.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod blocks;
pub mod cache;
pub mod compute;
pub mod link;
pub mod memory;
pub mod pipeline;
pub mod traced;
pub mod transfer;

/// The unit types of this crate's pricing signatures, for callers that
/// price through the device models without depending on `gnn-dm-trace`.
pub use gnn_dm_trace::units::{Bytes, BytesPerSec, Seconds};

pub use cache::{CachePolicy, FeatureCache};
pub use link::{LinkError, LinkModel};
pub use pipeline::{makespan, BatchStageTimes, PipelineMode};
pub use transfer::{TransferEngine, TransferMethod, TransferReport};
