//! gnn-dm-harness — the composable systems-under-test layer.
//!
//! The paper's thesis is that a GNN training system is a *composition* of
//! data-management choices. This crate makes the composition explicit:
//! every evaluation axis is a plain value ([`Partitioner`], [`BatchPrep`],
//! [`Transfer`], [`Cache`], [`Parallel`], [`Faults`], [`Resilience`])
//! parsed from a canonical, range-checked spec string, seven of them make
//! a comparable [`SystemConfig`], and a [`Grid`] sweeps them
//! declaratively over the [`Registry`]'s pinned spec lists. Executors
//! ([`exec::ClusterExperiment`], [`exec::TrainExperiment`], the
//! hetero-trainer builders on [`SystemConfig`]) reproduce the wiring of
//! the `fig*`/`tab*` experiments exactly — adapters only, numeric paths
//! untouched — so results stay byte-identical while any combination
//! becomes expressible, including ones no published system implements.
//!
//! The grid runner's reporting rule (DESIGN.md §14): every config that
//! trains reports **accuracy and cost together** ([`exec::ConfigReport`]);
//! a cost table without the accuracy it bought is exactly the evaluation
//! trap the harness exists to close.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod axes;
pub mod config;
pub mod error;
pub mod exec;
pub mod grid;
pub mod registry;

pub use axes::{BatchPrep, Cache, Faults, Parallel, Partitioner, Resilience, Transfer};
pub use config::{GridSpec, SystemConfig};
pub use error::HarnessError;
pub use exec::{run_composed, run_config, ClusterExperiment, ClusterRun, ConfigReport, TrainExperiment};
pub use grid::{Axis, Grid};
pub use registry::Registry;
