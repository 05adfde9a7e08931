//! Simulated distributed GNN training cluster (§5's measurement substrate).
//!
//! The paper runs 4 GPU nodes over 10 Gbps Ethernet; this reproduction
//! simulates the same topology in-process, deterministically, with every
//! sampling request and every transferred byte accounted per worker:
//!
//! * [`ledger`] — per-worker computation and communication ledgers
//!   (Figures 4 and 5 are printed straight from these);
//! * [`sim`] — the epoch simulator: distributed sampling with
//!   remote-request routing, feature fetch accounting, and the epoch time
//!   model;
//! * [`dist`] — synchronous distributed *training* (gradient averaging
//!   across workers drawing batches from their local partitions), used by
//!   the convergence experiments (Figure 7, Table 4, Figure 8);
//! * [`network`] — inter-node link and all-reduce models;
//! * [`p3`] — P3-style hybrid-parallelism communication analysis.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod dist;
pub mod ledger;
pub mod network;
pub mod p3;
pub mod sim;

pub use ledger::{CommLedger, ComputeLedger};
pub use sim::{ClusterSim, EpochLoadReport};
