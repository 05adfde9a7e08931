//! The single-node heterogeneous (CPU + simulated GPU) trainer — the
//! engine behind every §7 experiment.
//!
//! A training epoch flows through the three pipeline stages of §7.2: the
//! CPU prepares sampled batches, the PCIe link moves (cache-filtered)
//! features and topology, the GPU runs the NN. The trainer builds *real*
//! sampled batches and routes their sizes through the device cost models,
//! so every optimization (zero-copy, pipelining, caching, hybrid transfer)
//! changes timings exactly the way it changes the underlying byte/FLOP
//! accounting.

use gnn_dm_device::blocks::{block_activity, BlockActivity, PAPER_BLOCK_BYTES};
use gnn_dm_device::cache::{CachePolicy, FeatureCache};
use gnn_dm_device::compute;
use gnn_dm_device::memory;
use gnn_dm_device::pipeline::{
    makespan_with_contention, replay_epoch, BatchMeta, BatchStageTimes, PipelineMode,
};
use gnn_dm_device::transfer::{BatchTransfer, TransferEngine, TransferMethod};
use gnn_dm_faults::{FaultPlan, ResiliencePolicy};
use gnn_dm_graph::Graph;
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};
use gnn_dm_trace::units::Bytes;
use gnn_dm_trace::{Resource, SpanKind, Timeline};

use crate::config::PAPER_HIDDEN;

/// Configuration of the heterogeneous trainer.
#[derive(Debug, Clone)]
pub struct HeteroTrainerConfig {
    /// Per-layer fanouts, output layer first (paper default (25, 10)).
    pub fanouts: Vec<usize>,
    /// Mini-batch size (paper default 6000).
    pub batch_size: usize,
    /// Data-transfer method.
    pub transfer: TransferMethod,
    /// Pipeline mode.
    pub pipeline: PipelineMode,
    /// GPU cache policy with its ratio and profiling epochs (`None`
    /// disables caching).
    pub cache_policy: Option<CachePolicy>,
    /// Batch selection policy (which training vertices form each batch).
    pub selection: BatchSelection,
    /// RNG seed.
    pub seed: u64,
}

impl HeteroTrainerConfig {
    /// The §7 baseline: extract-load, no pipeline, no cache.
    pub fn baseline(batch_size: usize) -> Self {
        HeteroTrainerConfig {
            fanouts: vec![25, 10],
            batch_size,
            transfer: TransferMethod::ExtractLoad,
            pipeline: PipelineMode::None,
            cache_policy: None,
            selection: BatchSelection::Random,
            seed: 42,
        }
    }
}

/// Modelled timings of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTimings {
    /// Total batch-preparation (CPU sampling) seconds.
    pub bp: f64,
    /// Total data-transfer seconds (gather + bus).
    pub dt: f64,
    /// Of which CPU gather ("feature extraction") seconds.
    pub gather: f64,
    /// Total NN-computation (GPU) seconds.
    pub nn: f64,
    /// Epoch wall-clock under the configured pipeline mode.
    pub makespan: f64,
    /// Bytes that crossed the PCIe bus.
    pub pcie_bytes: u64,
    /// Cache hit rate over the epoch (0 without a cache).
    pub cache_hit_rate: f64,
    /// Number of batches.
    pub num_batches: usize,
}

/// The heterogeneous trainer: owns the cache and the cost models.
pub struct HeteroTrainer<'g> {
    /// The graph being trained on.
    pub graph: &'g Graph,
    /// Configuration.
    pub cfg: HeteroTrainerConfig,
    /// Transfer cost model.
    pub engine: TransferEngine,
    cache: FeatureCache,
}

impl<'g> HeteroTrainer<'g> {
    /// Builds the trainer, constructing the GPU cache per the configured
    /// policy (running profiling epochs for the pre-sampling policy).
    pub fn new(graph: &'g Graph, cfg: HeteroTrainerConfig) -> Self {
        let capacity = cfg.cache_policy.map_or(0, |policy| {
            memory::rows_for_ratio(
                graph.num_vertices(),
                row_bytes(graph),
                policy.ratio().clamp(0.0, 1.0),
            )
        });
        let cache = FeatureCache::build(cfg.cache_policy, graph, capacity, |tracker, epochs| {
            let train = graph.train_vertices();
            let sampler = FanoutSampler::new(cfg.fanouts.clone());
            let schedule = BatchSizeSchedule::Fixed(cfg.batch_size);
            let plan = EpochPlan {
                in_csr: &graph.inn,
                train: &train,
                selection: &cfg.selection,
                schedule: &schedule,
                sampler: &sampler,
                seed: cfg.seed ^ 0xFEED,
            };
            for e in 0..epochs {
                plan.run_for_stats(e, Some(tracker));
            }
        });
        HeteroTrainer {
            graph,
            cfg,
            engine: TransferEngine::default(),
            cache,
        }
    }

    /// Read access to the cache (hit statistics, residency checks).
    pub fn cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// Model layer widths implied by the configuration.
    fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.graph.feat_dim()];
        for _ in 1..self.cfg.fanouts.len() {
            dims.push(PAPER_HIDDEN);
        }
        dims.push(self.graph.num_classes);
        dims
    }

    /// Runs `f` on the epoch plan the configuration describes.
    fn with_plan<R>(&self, f: impl FnOnce(&EpochPlan<'_>) -> R) -> R {
        let train = self.graph.train_vertices();
        let sampler = FanoutSampler::new(self.cfg.fanouts.clone());
        let schedule = BatchSizeSchedule::Fixed(self.cfg.batch_size);
        f(&EpochPlan {
            in_csr: &self.graph.inn,
            train: &train,
            selection: &self.cfg.selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: self.cfg.seed,
        })
    }

    /// Runs one modelled epoch: builds every sampled batch, prices each
    /// pipeline stage, and returns aggregate timings.
    pub fn run_epoch_model(&mut self, epoch: usize) -> EpochTimings {
        self.run_epoch_traced(epoch).0
    }

    /// Like [`HeteroTrainer::run_epoch_model`], but also returns the span
    /// timeline the epoch was replayed on (BP spans on the CPU-sampler
    /// lane, Gather/Transfer spans on the PCIe lane, NN spans on the GPU
    /// lane, scheduled under the configured pipeline mode). All aggregate
    /// timings in [`EpochTimings`] are read back from this timeline, so a
    /// Chrome-trace export of it accounts for every modelled second and
    /// byte.
    pub fn run_epoch_traced(&mut self, epoch: usize) -> (EpochTimings, Timeline) {
        self.run_epoch_faulted(epoch, &FaultPlan::none(), &ResiliencePolicy::none())
    }

    /// The one epoch model, under a fault plan and a resilience policy:
    /// each batch's PCIe transfer may suffer planned failed attempts,
    /// replayed as `Retry`/`Backoff` spans on the PCIe lane before the real
    /// transfer — or, with hedging armed, raced against a duplicate
    /// (`Hedge`/`Cancel` spans). Under faults `EpochTimings::dt` (PCIe-lane
    /// busy time) therefore includes the retransmissions and backoff waits,
    /// and `pcie_bytes` counts every retransmitted or duplicated byte — the
    /// timeline stays the single source of truth. The healthy epoch
    /// ([`HeteroTrainer::run_epoch_traced`]) is the neutral plan and policy.
    pub fn run_epoch_faulted(
        &mut self,
        epoch: usize,
        faults: &FaultPlan,
        policy: &ResiliencePolicy,
    ) -> (EpochTimings, Timeline) {
        let dims = self.dims();
        let row_bytes = row_bytes(self.graph);
        let n = self.graph.num_vertices();

        // Every stage price is a pure function of its batch, so each batch
        // is priced on the worker that built it and dropped there; only the
        // prices come back, in batch order.
        let priced = self.with_plan(|plan| plan.map_batches(epoch, |_, mb| {
            let bp = compute::sampling_seconds(&mb);
            let access = self.cache.classify(mb.input_ids());
            let bt = BatchTransfer {
                rows: access.misses.len(),
                row_bytes,
                topo_bytes: Bytes(mb.topo_bytes()),
            };
            let activity = match self.cfg.transfer {
                TransferMethod::Hybrid { .. } => {
                    Some(block_activity(&access.misses, n, row_bytes, PAPER_BLOCK_BYTES))
                }
                _ => None,
            };
            #[expect(clippy::disallowed_methods, reason = "these prices become `replay_epoch` spans")]
            let report = self.engine.time(self.cfg.transfer, &bt, activity.as_ref());
            let nn = compute::gpu_seconds(compute::minibatch_flops(&mb, &dims));
            let stage = BatchStageTimes { bp, dt: report.total().0, nn };
            let meta = BatchMeta {
                gather: report.gather_sec.0,
                bytes: report.bytes,
                edges: mb.involved_edges() as u64,
            };
            (stage, meta, access.hit_count, access.miss_count)
        }));
        self.cache.reset_stats();
        let mut stage_times = Vec::with_capacity(priced.len());
        let mut metas = Vec::with_capacity(priced.len());
        for (stage, meta, hits, misses) in priced {
            self.cache.record(hits, misses);
            stage_times.push(stage);
            metas.push(meta);
        }
        let tl = replay_epoch(&stage_times, &metas, self.cfg.pipeline, faults, epoch, policy);
        // The contention discount interpolates between the unpipelined
        // baseline and this timeline (batch metas never move a timestamp).
        let ideal = tl.makespan();
        let sequential = if self.cfg.pipeline == PipelineMode::None {
            ideal
        } else {
            replay_epoch(&stage_times, &[], PipelineMode::None, faults, epoch, policy).makespan()
        };
        let totals = EpochTimings {
            bp: tl.busy(Resource::CpuSampler),
            dt: tl.busy(Resource::PcieLink),
            gather: tl.busy_of_kind(SpanKind::Gather),
            nn: tl.busy(Resource::GpuCompute),
            makespan: makespan_with_contention(sequential, ideal),
            pcie_bytes: tl.bytes_on(Resource::PcieLink).0,
            cache_hit_rate: self.cache.hit_rate(),
            num_batches: stage_times.len(),
        };
        (totals, tl)
    }

    /// Block activity of the first batch of an epoch (Figures 15/16),
    /// optionally after cache filtering.
    pub fn first_batch_activity(&mut self, epoch: usize, apply_cache: bool) -> BlockActivity {
        #[expect(clippy::expect_used, reason = "the graph always has train vertices, so an epoch has >= 1 batch")]
        let mb = self.with_plan(|plan| plan.first_batch(epoch)).expect("at least one batch");
        let n = self.graph.num_vertices();
        let ids: Vec<u32> = if apply_cache {
            mb.input_ids().iter().copied().filter(|&v| !self.cache.contains(v)).collect()
        } else {
            mb.input_ids().to_vec()
        };
        block_activity(&ids, n, row_bytes(self.graph), PAPER_BLOCK_BYTES)
    }
}

/// One feature row of `graph`.
fn row_bytes(graph: &Graph) -> Bytes {
    Bytes(graph.features.row_bytes() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 3000,
            avg_degree: 15.0,
            num_classes: 8,
            feat_dim: 128,
            skew: 0.9,
            ..Default::default()
        })
    }

    fn cfg() -> HeteroTrainerConfig {
        HeteroTrainerConfig { fanouts: vec![10, 5], ..HeteroTrainerConfig::baseline(256) }
    }

    #[test]
    fn zero_copy_beats_baseline() {
        let g = graph();
        let base = HeteroTrainer::new(&g, cfg()).run_epoch_model(0);
        let mut zc_cfg = cfg();
        zc_cfg.transfer = TransferMethod::ZeroCopy;
        let zc = HeteroTrainer::new(&g, zc_cfg).run_epoch_model(0);
        assert!(zc.makespan < base.makespan, "zc {} vs base {}", zc.makespan, base.makespan);
        assert_eq!(zc.gather, 0.0);
        assert!(base.gather > 0.0);
    }

    #[test]
    fn pipeline_beats_sequential() {
        let g = graph();
        let mut c = cfg();
        c.transfer = TransferMethod::ZeroCopy;
        let seq = HeteroTrainer::new(&g, c.clone()).run_epoch_model(0);
        c.pipeline = PipelineMode::Full;
        let pipe = HeteroTrainer::new(&g, c).run_epoch_model(0);
        assert!(pipe.makespan < seq.makespan);
        // Stage totals identical — only overlap differs.
        assert!((pipe.bp - seq.bp).abs() < 1e-12);
        assert!((pipe.dt - seq.dt).abs() < 1e-12);
    }

    #[test]
    fn cache_reduces_bus_bytes() {
        let g = graph();
        let mut c = cfg();
        c.transfer = TransferMethod::ZeroCopy;
        let without = HeteroTrainer::new(&g, c.clone()).run_epoch_model(0);
        c.cache_policy = Some(CachePolicy::PreSample { ratio: 0.3, epochs: 1 });
        let with = HeteroTrainer::new(&g, c).run_epoch_model(0);
        assert!(with.pcie_bytes < without.pcie_bytes);
        assert!(with.cache_hit_rate > 0.2, "hit rate {}", with.cache_hit_rate);
        assert_eq!(without.cache_hit_rate, 0.0);
    }

    #[test]
    fn presample_cache_beats_degree_on_flat_graphs() {
        // §7.3.3 / Figure 17: on non-power-law graphs degree no longer
        // predicts access frequency, but access frequency itself is still
        // skewed (only training vertices' neighborhoods are touched) — so
        // profiling wins. A sparse train set makes that skew visible.
        let mut g = planted_partition(&PplConfig {
            n: 3000,
            avg_degree: 15.0,
            num_classes: 8,
            feat_dim: 64,
            skew: 0.05,
            ..Default::default()
        });
        g.split = gnn_dm_graph::SplitMask::random(g.num_vertices(), 0.05, 0.10, 0.85, 9);
        let mut c = cfg();
        c.batch_size = 32;
        c.transfer = TransferMethod::ZeroCopy;
        c.cache_policy = Some(CachePolicy::Degree { ratio: 0.2 });
        let deg = HeteroTrainer::new(&g, c.clone()).run_epoch_model(0);
        c.cache_policy = Some(CachePolicy::PreSample { ratio: 0.2, epochs: 4 });
        let pre = HeteroTrainer::new(&g, c).run_epoch_model(0);
        assert!(
            pre.cache_hit_rate >= deg.cache_hit_rate,
            "presample {} vs degree {}",
            pre.cache_hit_rate,
            deg.cache_hit_rate
        );
    }

    #[test]
    fn activity_shrinks_after_caching() {
        let g = graph();
        let mut c = cfg();
        c.cache_policy = Some(CachePolicy::PreSample { ratio: 0.4, epochs: 1 });
        let mut t = HeteroTrainer::new(&g, c);
        let before = t.first_batch_activity(0, false);
        let after = t.first_batch_activity(0, true);
        assert!(after.total_active() < before.total_active());
    }

    /// `first_batch_activity` builds only batch 0; the answer is the one
    /// the whole epoch's first batch gives, with and without the cache.
    #[test]
    fn first_batch_activity_matches_full_epoch() {
        let g = graph();
        let mut c = cfg();
        c.cache_policy = Some(CachePolicy::Degree { ratio: 0.3 });
        let mut t = HeteroTrainer::new(&g, c);
        for epoch in [0, 3] {
            let first = t.with_plan(|plan| plan.batches(epoch)).swap_remove(0);
            assert_eq!(t.with_plan(|plan| plan.first_batch(epoch)).as_ref(), Some(&first));
            let all = first.input_ids().to_vec();
            let missed = t.cache().classify(&all).misses;
            assert!(missed.len() < all.len(), "the cache holds some of the batch");
            for (apply_cache, ids) in [(false, &all), (true, &missed)] {
                assert_eq!(
                    t.first_batch_activity(epoch, apply_cache),
                    block_activity(ids, g.num_vertices(), row_bytes(&g), PAPER_BLOCK_BYTES),
                );
            }
        }
    }

    #[test]
    fn deterministic_epoch_model() {
        let g = graph();
        let a = HeteroTrainer::new(&g, cfg()).run_epoch_model(1);
        let b = HeteroTrainer::new(&g, cfg()).run_epoch_model(1);
        assert_eq!(a, b);
    }
}
