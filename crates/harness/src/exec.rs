//! Executors: run a [`SystemConfig`] end to end.
//!
//! Two experiment harnesses cover the suite's wiring — the cluster
//! simulator path (Figures 4–8, fault extensions) and the convergence
//! path (Figures 9–12, Tables 4/8) — plus [`run_config`], the grid
//! runner's per-config driver, which reports **cost and accuracy
//! together** in a [`ConfigReport`]. Every constant here (seeds, hidden
//! widths, parameter bytes) replicates the pre-harness experiments exactly;
//! the harness specs are the knobs, these are not.

use gnn_dm_cluster::sim::TimeModel;
use gnn_dm_cluster::{ClusterSim, EpochLoadReport};
use gnn_dm_core::config::{ModelKind, PAPER_HIDDEN};
use gnn_dm_core::convergence::{train_distributed, train_single, ConvergenceResult};
use gnn_dm_core::trainer::HeteroTrainer;
use gnn_dm_graph::Graph;
use gnn_dm_partition::GnnPartitioning;
use gnn_dm_sampling::BatchSelection;
use gnn_dm_trace::Timeline;

use crate::config::SystemConfig;

/// Partitioning seed of every experiment (cluster and distributed
/// training runs alike).
pub const PART_SEED: u64 = 7;

/// Cluster-simulation seed.
pub const SIM_SEED: u64 = 3;

/// Epoch index the cluster harness simulates (and reads batch-size
/// schedules at).
pub const SIM_EPOCH: usize = 0;

/// Model the convergence harness trains.
pub const TRAIN_MODEL: ModelKind = ModelKind::Gcn;

/// Hidden width of the convergence harness's model.
pub const TRAIN_HIDDEN: usize = 64;

/// Learning rate of the convergence harness.
pub const TRAIN_LR: f32 = 0.01;

/// Model/init/training seed of the convergence harness.
pub const TRAIN_SEED: u64 = 5;

/// The cluster-simulation harness: partitions with [`PART_SEED`],
/// simulates epoch [`SIM_EPOCH`] with [`SIM_SEED`], and prices it with the
/// paper's time model at [`PAPER_HIDDEN`] (Figures 4–8 wiring, 1 MB of
/// parameters unless an experiment sets its model's own).
pub struct ClusterExperiment<'g> {
    /// The graph under test.
    pub graph: &'g Graph,
    /// Model parameter bytes for the time model's allreduce term.
    pub param_bytes: u64,
}

/// One executed cluster config: its partitioning and epoch load report.
pub struct ClusterRun {
    /// The partitioning the config built.
    pub part: GnnPartitioning,
    /// The simulated epoch's load report.
    pub report: EpochLoadReport,
    /// Per-worker batch size used.
    pub batch_size: usize,
}

impl<'g> ClusterExperiment<'g> {
    /// The paper's cluster setup for `graph`.
    pub fn paper(graph: &'g Graph) -> Self {
        ClusterExperiment { graph, param_bytes: 1_000_000 }
    }

    /// The epoch time model (paper defaults over this graph's feature
    /// width).
    pub fn time_model(&self) -> TimeModel {
        TimeModel::paper_default(self.graph.feat_dim(), PAPER_HIDDEN, self.param_bytes)
    }

    /// Builds the config's partitioning (worker count from the parallel
    /// axis).
    pub fn partition(&self, cfg: &SystemConfig) -> GnnPartitioning {
        cfg.partitioner.build(self.graph, cfg.parallel.workers(), PART_SEED)
    }

    /// A cluster simulator over an executed run.
    pub fn sim<'p>(&'p self, run: &'p ClusterRun) -> ClusterSim<'p> {
        self.sim_with(&run.part, run.batch_size)
    }

    /// A cluster simulator over an explicit partitioning and batch size
    /// (for drivers that need the simulator itself, e.g. P3 comparison).
    pub fn sim_with<'p>(&'p self, part: &'p GnnPartitioning, batch_size: usize) -> ClusterSim<'p> {
        ClusterSim { graph: self.graph, part, batch_size, seed: SIM_SEED }
    }

    /// Partitions and simulates one epoch under the config.
    pub fn run(&self, cfg: &SystemConfig) -> ClusterRun {
        let part = self.partition(cfg);
        let sampler = cfg.batch_prep.sampler(self.graph);
        let batch_size = cfg.batch_prep.batch_size(SIM_EPOCH);
        let report = self.sim_with(&part, batch_size).simulate_epoch(&*sampler, SIM_EPOCH);
        ClusterRun { part, report, batch_size }
    }

    /// Healthy epoch time of a run.
    pub fn epoch_time(&self, run: &ClusterRun) -> f64 {
        self.sim(run).epoch_time(&run.report, &self.time_model())
    }

    /// Resilient span timeline of a run at an explicit epoch index (the
    /// chaos grid sweeps many epochs over one built run).
    pub fn timeline_resilient_at(
        &self,
        run: &ClusterRun,
        cfg: &SystemConfig,
        epoch: usize,
    ) -> Timeline {
        self.sim(run).epoch_timeline_resilient(
            &run.report,
            &self.time_model(),
            &cfg.faults.plan(),
            epoch,
            &cfg.resilience.policy(),
        )
    }
}

/// The convergence harness: actually trains a model under the config's
/// batch prep (Figures 9–12 / Tables 4, 8 wiring: [`TRAIN_MODEL`] at
/// [`TRAIN_HIDDEN`], [`TRAIN_LR`], [`TRAIN_SEED`], partitions with
/// [`PART_SEED`]).
pub struct TrainExperiment<'g> {
    /// The graph under test.
    pub graph: &'g Graph,
    /// Training epochs.
    pub epochs: usize,
}

impl<'g> TrainExperiment<'g> {
    /// The suite's convergence setup for `graph`.
    pub fn paper(graph: &'g Graph, epochs: usize) -> Self {
        TrainExperiment { graph, epochs }
    }

    /// Single-node convergence under the config's batch prep.
    pub fn run(&self, cfg: &SystemConfig) -> ConvergenceResult {
        let sampler = cfg.batch_prep.sampler(self.graph);
        let selection = cfg.batch_prep.selection(self.graph);
        self.run_with_selection(cfg, &selection, &*sampler)
    }

    /// Single-node convergence with an explicit selection policy (the
    /// composed cross-axis path derives selection from the partitioner).
    pub fn run_with_selection(
        &self,
        cfg: &SystemConfig,
        selection: &BatchSelection,
        sampler: &(dyn gnn_dm_sampling::NeighborSampler + Sync),
    ) -> ConvergenceResult {
        train_single(
            self.graph,
            TRAIN_MODEL,
            TRAIN_HIDDEN,
            sampler,
            selection,
            cfg.batch_prep.schedule(),
            TRAIN_LR,
            self.epochs,
            TRAIN_SEED,
        )
    }

    /// Distributed convergence under the config's partitioner and batch
    /// prep; returns the result plus modeled epoch seconds.
    pub fn run_distributed(&self, cfg: &SystemConfig) -> (ConvergenceResult, f64) {
        let part = cfg.partitioner.build(self.graph, cfg.parallel.workers(), PART_SEED);
        let sampler = cfg.batch_prep.sampler(self.graph);
        train_distributed(
            self.graph,
            &part,
            TRAIN_MODEL,
            TRAIN_HIDDEN,
            &*sampler,
            cfg.batch_prep.batch_size(0),
            TRAIN_LR,
            self.epochs,
            TRAIN_SEED,
        )
    }
}

/// Cost **and** accuracy of one executed config — the grid runner's unit
/// of output. DESIGN.md §14: a config that trains must always report
/// both; cost without the accuracy it bought is not a result.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// Canonical config id (seven `/`-separated axis specs).
    pub id: String,
    /// Modeled epoch seconds (single-node makespan or faulted cluster
    /// epoch time).
    pub epoch_s: f64,
    /// Bytes moved (PCIe bytes single-node; NIC volume distributed).
    pub bytes: u64,
    /// Cache hit rate (0 without a cache; 0 distributed).
    pub cache_hit_rate: f64,
    /// Batches per epoch (summed over workers when distributed).
    pub num_batches: usize,
    /// Best validation accuracy over the run.
    pub best_acc: f64,
    /// Final test accuracy.
    pub test_acc: f64,
}

/// Prices one single-node epoch under the config's fault plan and
/// resilience policy and reports it with the accuracy `res` reached.
fn hetero_report(
    cfg: &SystemConfig,
    mut trainer: HeteroTrainer<'_>,
    res: &ConvergenceResult,
) -> ConfigReport {
    let (tim, _) = trainer.run_epoch_faulted(0, &cfg.faults.plan(), &cfg.resilience.policy());
    ConfigReport {
        id: cfg.id(),
        epoch_s: tim.makespan,
        bytes: tim.pcie_bytes,
        cache_hit_rate: tim.cache_hit_rate,
        num_batches: tim.num_batches,
        best_acc: res.best_acc,
        test_acc: res.test_acc,
    }
}

/// Runs one config end to end: cost from the config's execution path
/// (hetero trainer or cluster simulator, under the config's fault plan
/// and resilience policy) and accuracy from an actual training run.
pub fn run_config(graph: &Graph, cfg: &SystemConfig, epochs: usize) -> ConfigReport {
    let train = TrainExperiment::paper(graph, epochs);
    if !cfg.parallel.distributed() {
        return hetero_report(cfg, cfg.hetero_trainer(graph), &train.run(cfg));
    }
    let exp = ClusterExperiment::paper(graph);
    let run = exp.run(cfg);
    let (res, _) = train.run_distributed(cfg);
    ConfigReport {
        id: cfg.id(),
        epoch_s: exp.timeline_resilient_at(&run, cfg, SIM_EPOCH).makespan(),
        bytes: run.report.comm.total_volume(),
        cache_hit_rate: 0.0,
        num_batches: run.report.num_batches.iter().sum(),
        best_acc: res.best_acc,
        test_acc: res.test_acc,
    }
}

/// The composed cross-axis path no pre-harness bin could express: the
/// **partitioner** axis feeds the **batch selection** policy (each batch
/// drawn from one partition block), composed with the cache, fault and
/// resilience axes on the single-node engine. `k` is the
/// partition/cluster count.
pub fn run_composed(graph: &Graph, cfg: &SystemConfig, k: usize, epochs: usize) -> ConfigReport {
    let part = cfg.partitioner.build(graph, k, PART_SEED);
    let selection = BatchSelection::ClusterBased { clusters: part.assignment };
    let mut tcfg = cfg.hetero_config(graph);
    tcfg.selection = selection.clone();
    let sampler = cfg.batch_prep.sampler(graph);
    let res = TrainExperiment::paper(graph, epochs).run_with_selection(cfg, &selection, &*sampler);
    hetero_report(cfg, cfg.hetero_trainer_with(graph, tcfg), &res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_trace::SpanKind;

    /// The resilience axis acts on the single-node path: under the same
    /// fault plan a hedged config is priced differently from (and never
    /// slower than) the `none` one, and its timeline shows the hedges.
    #[test]
    fn single_node_epoch_honours_the_resilience_axis() {
        let g = planted_partition(&PplConfig {
            n: 3000,
            avg_degree: 15.0,
            num_classes: 8,
            feat_dim: 64,
            ..Default::default()
        });
        let reg = Registry::builtin();
        let config = |tail: &str| {
            let id = format!("hash/fanout(10,5)+fixed(128)/zero-copy/none/single/{tail}");
            SystemConfig::from_id(&reg, &id).expect("valid id")
        };
        let (none, hedged) = (config("uniform(13,0.25)/none"), config("uniform(13,0.25)/hedge(1.5)"));
        let (none_s, hedged_s) =
            (run_config(&g, &none, 1).epoch_s, run_config(&g, &hedged, 1).epoch_s);
        assert!(hedged_s < none_s, "hedging must shorten the faulted epoch ({hedged_s} vs {none_s})");

        let traced = |cfg: &SystemConfig| {
            cfg.hetero_trainer(&g).run_epoch_faulted(0, &cfg.faults.plan(), &cfg.resilience.policy())
        };
        let (_, tl) = traced(&hedged);
        assert!(tl.tail_stats_of_kind(SpanKind::Hedge).count > 0, "no Hedge span");
        assert!(tl.tail_stats_of_kind(SpanKind::Cancel).count > 0, "no Cancel span");
        assert_eq!(traced(&none).1.tail_stats_of_kind(SpanKind::Hedge).count, 0);

        // Both axes neutral: bitwise the plain traced epoch.
        let healthy = config("none/none");
        let (tim, tl) = traced(&healthy);
        let (plain_tim, plain_tl) = healthy.hetero_trainer(&g).run_epoch_traced(0);
        assert_eq!(tim, plain_tim);
        assert_eq!(tl.to_chrome_trace(), plain_tl.to_chrome_trace());
    }
}
