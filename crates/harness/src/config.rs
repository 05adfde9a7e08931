//! `SystemConfig` — one point in the seven-axis design space — and
//! `GridSpec`, its serialized (spec-string) form.

use gnn_dm_core::trainer::{HeteroTrainer, HeteroTrainerConfig};
use gnn_dm_graph::Graph;

use crate::axes::{BatchPrep, Cache, Faults, Parallel, Partitioner, Resilience, Transfer};
use crate::error::HarnessError;
use crate::grid::Axis;
use crate::registry::Registry;

/// A fully-resolved system under test: one value per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Graph partitioning method.
    pub partitioner: Partitioner,
    /// Batch preparation (sampler, schedule, selection).
    pub batch_prep: BatchPrep,
    /// Host↔device transfer policy.
    pub transfer: Transfer,
    /// GPU feature-cache policy.
    pub cache: Cache,
    /// Parallelization mode.
    pub parallel: Parallel,
    /// Injected fault plan.
    pub faults: Faults,
    /// Resilience policy reacting to the injected faults.
    pub resilience: Resilience,
}

impl SystemConfig {
    /// Resolves a [`GridSpec`]'s seven spec strings through the registry.
    pub fn from_spec(reg: &Registry, spec: &GridSpec) -> Result<SystemConfig, HarnessError> {
        Ok(SystemConfig {
            partitioner: reg.partitioner(&spec.partitioner)?,
            batch_prep: reg.batch_prep(&spec.batch_prep)?,
            transfer: reg.transfer(&spec.transfer)?,
            cache: reg.cache(&spec.cache)?,
            parallel: reg.parallel(&spec.parallel)?,
            faults: reg.faults(&spec.faults)?,
            resilience: reg.resilience(&spec.resilience)?,
        })
    }

    /// Parses a `/`-separated config id (the inverse of [`Self::id`]).
    pub fn from_id(reg: &Registry, id: &str) -> Result<SystemConfig, HarnessError> {
        SystemConfig::from_spec(reg, &GridSpec::from_id(id)?)
    }

    /// The canonical config id: the seven axis specs joined with `/`
    /// (partitioner / batch-prep / transfer / cache / parallel / faults /
    /// resilience).
    /// Specs never contain `/`, so the id is unambiguous and
    /// [`Self::from_id`] round-trips it.
    pub fn id(&self) -> String {
        self.to_spec().id()
    }

    /// Serializes back to the seven canonical spec strings.
    pub fn to_spec(&self) -> GridSpec {
        GridSpec {
            partitioner: self.partitioner.spec(),
            batch_prep: self.batch_prep.spec(),
            transfer: self.transfer.spec(),
            cache: self.cache.spec(),
            parallel: self.parallel.spec(),
            faults: self.faults.spec(),
            resilience: self.resilience.spec(),
        }
    }

    /// Builds the hetero-trainer configuration this system implies for
    /// `graph`: the §7 baseline with every axis applied on top. Epoch-0
    /// batch size; fanouts only when the prep is fanout-shaped.
    pub fn hetero_config(&self, graph: &Graph) -> HeteroTrainerConfig {
        let mut cfg = HeteroTrainerConfig::baseline(self.batch_prep.batch_size(0));
        if let Some(fanouts) = self.batch_prep.fanouts() {
            cfg.fanouts = fanouts;
        }
        cfg.selection = self.batch_prep.selection(graph);
        cfg.transfer = self.transfer.method();
        cfg.pipeline = self.transfer.pipeline();
        cfg.cache_policy = self.cache.policy();
        cfg
    }

    /// Builds the hetero trainer, applying the transfer policy's
    /// zero-copy efficiency override when present.
    pub fn hetero_trainer<'g>(&self, graph: &'g Graph) -> HeteroTrainer<'g> {
        self.hetero_trainer_with(graph, self.hetero_config(graph))
    }

    /// Builds the hetero trainer from an explicitly tweaked configuration
    /// (still applying this system's zero-copy efficiency override).
    pub fn hetero_trainer_with<'g>(
        &self,
        graph: &'g Graph,
        cfg: HeteroTrainerConfig,
    ) -> HeteroTrainer<'g> {
        let mut trainer = HeteroTrainer::new(graph, cfg);
        if let Some(eff) = self.transfer.zero_copy_efficiency() {
            trainer.engine.zero_copy_efficiency = eff;
        }
        trainer
    }
}

/// The serialized form of a [`SystemConfig`]: one canonical spec string
/// per axis. `Default` is the suite's baseline system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// Partitioner spec.
    pub partitioner: String,
    /// Batch-prep spec.
    pub batch_prep: String,
    /// Transfer spec.
    pub transfer: String,
    /// Cache spec.
    pub cache: String,
    /// Parallel-mode spec.
    pub parallel: String,
    /// Fault-plan spec.
    pub faults: String,
    /// Resilience-policy spec.
    pub resilience: String,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            partitioner: "hash".to_string(),
            batch_prep: "fanout(25,10)+fixed(512)".to_string(),
            transfer: "extract-load".to_string(),
            cache: "none".to_string(),
            parallel: "single".to_string(),
            faults: "none".to_string(),
            resilience: "none".to_string(),
        }
    }
}

impl GridSpec {
    /// The `/`-joined config id.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            self.partitioner,
            self.batch_prep,
            self.transfer,
            self.cache,
            self.parallel,
            self.faults,
            self.resilience
        )
    }

    /// Parses a `/`-separated config id.
    pub fn from_id(id: &str) -> Result<GridSpec, HarnessError> {
        let parts: Vec<&str> = id.split('/').collect();
        let [partitioner, batch_prep, transfer, cache, parallel, faults, resilience] = parts[..]
        else {
            return Err(HarnessError::new(format!(
                "config id `{id}` must have 7 `/`-separated axis specs, got {}",
                parts.len()
            )));
        };
        Ok(GridSpec {
            partitioner: partitioner.to_string(),
            batch_prep: batch_prep.to_string(),
            transfer: transfer.to_string(),
            cache: cache.to_string(),
            parallel: parallel.to_string(),
            faults: faults.to_string(),
            resilience: resilience.to_string(),
        })
    }

    /// Replaces the spec string for one axis.
    pub fn set(&mut self, axis: Axis, spec: impl Into<String>) {
        let spec = spec.into();
        match axis {
            Axis::Partitioner => self.partitioner = spec,
            Axis::BatchPrep => self.batch_prep = spec,
            Axis::Transfer => self.transfer = spec,
            Axis::Cache => self.cache = spec,
            Axis::Parallel => self.parallel = spec,
            Axis::Faults => self.faults = spec,
            Axis::Resilience => self.resilience = spec,
        }
    }
}
