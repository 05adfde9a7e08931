//! The builtin registry: the pinned spec lists plus spec resolution.
//!
//! Contract (pinned by `tests/registry.rs`, documented in DESIGN.md §14):
//!
//! 1. **List order is enumeration order.** `specs(axis)` returns the
//!    suite's named entries exactly in the order they are written below —
//!    constant slices, so the order cannot depend on thread count,
//!    environment, or hashing.
//! 2. **One grammar.** Every spec — listed or not — resolves through its
//!    axis's `parse` ([`crate::axes`]), which range-checks every numeric
//!    parameter; there is no second lookup path.
//! 3. **Specs are canonical.** For every resolvable spec `s`,
//!    `resolve(axis, s).spec() == s` — a [`crate::SystemConfig`] id can
//!    always be parsed back into an equal config.

use crate::axes::{BatchPrep, Cache, Faults, Parallel, Partitioner, Resilience, Transfer};
use crate::error::HarnessError;
use crate::grid::Axis;

/// The builtin registry. The per-axis lists double as the `grid_smoke`
/// sweep, so each listed value is exercised by
/// `scripts/run_all.sh grid_smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Registry;

impl Registry {
    /// The builtin registry (the only one).
    pub fn builtin() -> Self {
        Registry
    }

    /// The suite's named specs for one axis, in pinned order.
    pub fn specs(&self, axis: Axis) -> Vec<String> {
        let specs: &[&str] = match axis {
            // Table 3 order.
            Axis::Partitioner => &["hash", "metis-v", "metis-ve", "metis-vet", "stream-v", "stream-b"],
            // The suite's recurring sampler/schedule pairings.
            Axis::BatchPrep => &[
                "fanout(25,10)+fixed(512)",
                "fanout(10,5)+fixed(256)",
                "rate(0.5,0.5;min=1)+fixed(256)",
                "fanout(5,5)+adaptive(128,2048,x2,every3)",
            ],
            // Figure 13's methods plus Figure 14's pipeline modes.
            Axis::Transfer => {
                &["extract-load", "zero-copy", "zero-copy+pipe(bp)", "zero-copy+pipe(full)", "hybrid(0.5)"]
            }
            // §7.3's two policies plus disabled.
            Axis::Cache => &["none", "degree(0.3)", "presample(0.3,3)"],
            // The paper's single node and 4-worker cluster.
            Axis::Parallel => &["single", "cluster(4)"],
            // Healthy plus the robustness extension's midpoint.
            Axis::Faults => &["none", "uniform(13,0.25)"],
            // Disarmed plus the chaos grid's hedge default.
            Axis::Resilience => &["none", "hedge(1.5)"],
        };
        specs.iter().map(|s| s.to_string()).collect()
    }

    /// Resolves a partitioner spec.
    pub fn partitioner(&self, spec: &str) -> Result<Partitioner, HarnessError> {
        Partitioner::parse(spec)
    }

    /// Resolves a batch-prep spec.
    pub fn batch_prep(&self, spec: &str) -> Result<BatchPrep, HarnessError> {
        BatchPrep::parse(spec)
    }

    /// Resolves a transfer spec.
    pub fn transfer(&self, spec: &str) -> Result<Transfer, HarnessError> {
        Transfer::parse(spec)
    }

    /// Resolves a cache spec.
    pub fn cache(&self, spec: &str) -> Result<Cache, HarnessError> {
        Cache::parse(spec)
    }

    /// Resolves a parallel-mode spec.
    pub fn parallel(&self, spec: &str) -> Result<Parallel, HarnessError> {
        Parallel::parse(spec)
    }

    /// Resolves a fault-plan spec.
    pub fn faults(&self, spec: &str) -> Result<Faults, HarnessError> {
        Faults::parse(spec)
    }

    /// Resolves a resilience spec.
    pub fn resilience(&self, spec: &str) -> Result<Resilience, HarnessError> {
        Resilience::parse(spec)
    }
}
