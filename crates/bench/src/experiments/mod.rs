//! Every table, figure, ablation and extension as a row of [`EXPERIMENTS`].
//!
//! A row names the experiment, the file under `results/` its output is
//! kept in, what it reproduces, the shape the paper reports (printed after
//! the run's tables) and the function that runs it. The single driver
//! `gnn-dm-exp <name>… | all | --list` runs rows; `scripts/run_all.sh`
//! iterates `--list`. Adding an experiment is adding a row and its `run`.
//!
//! The helpers below are the loop nests and formatting the experiments
//! share; each `run` assembles its systems under test as harness
//! `SystemConfig` values, never from an axis constructor.
//!
//! Stdout is a pure function of the seeds: a run's measured seconds, and
//! anything computed from them or from the thread count, go to stderr
//! through `print_wall_clock`, so every `results/` file is a golden.

mod ablations;
mod batch_prep;
mod extensions;
mod overview;
mod partitioning;
mod robustness;
mod transfer;

use gnn_dm_core::convergence::ConvergenceResult;
use gnn_dm_core::results::{f, Table};
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::{Graph, SplitMask};
use gnn_dm_harness::{Axis, ClusterExperiment, ClusterRun, Grid, GridSpec, Registry, SystemConfig};
use gnn_dm_sampling::epoch::EpochPlan;

use crate::{named_graphs, one_graph, LABELLED, SCALE_LOAD};

/// One experiment of the suite.
pub struct Experiment {
    /// Name on the `gnn-dm-exp` command line.
    pub name: &'static str,
    /// Stem of the file under `results/` that keeps the run's stdout;
    /// `None` for a run that only writes JSON traces.
    pub output: Option<&'static str>,
    /// What in the paper (or in DESIGN.md) the run reproduces.
    pub paper_ref: &'static str,
    /// The shape the run should reproduce, printed after its tables;
    /// empty when the run closes with a computed line of its own.
    pub paper_shape: &'static str,
    /// Runs the experiment, printing its tables to stdout.
    pub run: fn(),
}

const fn row(
    name: &'static str,
    paper_ref: &'static str,
    paper_shape: &'static str,
    run: fn(),
) -> Experiment {
    Experiment { name, output: Some(name), paper_ref, paper_shape, run }
}

/// The suite, in `scripts/run_all.sh` order.
pub static EXPERIMENTS: [Experiment; 38] = [
    row("tables_taxonomy", "Tables 1, 2, 3, 5", "", overview::tables_taxonomy),
    row(
        "fig2_breakdown",
        "Figure 2",
        "Paper shape: GNN is dominated by data management (transfer ≈ 73%);\n\
         DNN is dominated by NN computation.",
        overview::fig2_breakdown,
    ),
    row(
        "fig4_comp_load",
        "Figure 4",
        "Paper shape: Hash most balanced / highest total; Metis-V lowest total;\n\
         Stream-V/Stream-B imbalanced on power-law graphs.",
        partitioning::fig4_comp_load,
    ),
    row(
        "fig5_comm_load",
        "Figure 5",
        "Paper shape: Hash balanced/highest volume; Metis-V lowest volume;\n\
         Stream-V zero communication (bought with replicated storage).",
        partitioning::fig5_comm_load,
    ),
    row(
        "fig6_part_time",
        "Figure 6",
        "Paper shape (partition_share, on stderr): Hash ≈ 0.1% share; Metis-extend < 10%;\n\
         streaming methods dominate total time (Stream-V ≈ 99%, Stream-B ≈ 85% in the paper).",
        partitioning::fig6_part_time,
    ),
    row(
        "fig7_convergence",
        "Figure 7",
        "Paper shape: Hash slowest to converge in time; Metis-VET fastest of the Metis family.",
        partitioning::fig7_convergence,
    ),
    row(
        "tab4_accuracy",
        "Table 4",
        "Paper shape: per-dataset spread stays within ≈ ±1%.",
        partitioning::tab4_accuracy,
    ),
    row(
        "fig8_epoch_time",
        "Figure 8",
        "Paper shape: Hash/Stream-B longest epochs; Metis variants similar and shortest.",
        partitioning::fig8_epoch_time,
    ),
    row(
        "fig9_batch_size",
        "Figure 9",
        "Paper shape: convergence speed peaks at a small-but-not-tiny batch;\n\
         accuracy peaks at a large-but-not-huge batch; both fall at the extremes.",
        batch_prep::fig9_batch_size,
    ),
    row(
        "fig10_adaptive_batch",
        "Figure 10",
        "Paper shape: adaptive ≈ 1.5-1.6x faster to the top accuracy band.",
        batch_prep::fig10_adaptive_batch,
    ),
    row(
        "fig11_batch_selection",
        "Figure 11",
        "Paper shape: random reaches higher accuracy and is stable; cluster-based\n\
         has far higher batch-density variance (2e-4 vs 1.1e-6 in the paper).",
        batch_prep::fig11_batch_selection,
    ),
    row(
        "tab6_selection_cost",
        "Table 6",
        "Paper shape: cluster-based involves fewer #V/#E and runs 2-3x shorter epochs.",
        batch_prep::tab6_selection_cost,
    ),
    row(
        "fig12_fanout_rate",
        "Figure 12",
        "Paper shape: rise-then-fall in both sweeps; rate below fanout overall.",
        batch_prep::fig12_fanout_rate,
    ),
    row(
        "tab7_degree_accuracy",
        "Table 7",
        "Paper shape: high-degree accuracy rises with fanout; low-degree accuracy\n\
         peaks at a small fanout and drifts down.",
        batch_prep::tab7_degree_accuracy,
    ),
    row(
        "tab8_hybrid",
        "Table 8",
        "Paper shape: hybrid matches the best accuracy at clearly faster convergence.",
        batch_prep::tab8_hybrid,
    ),
    row("fig13_transfer_opts", "Figure 13", "", transfer::fig13_transfer_opts),
    row(
        "fig14_pipeline_ablation",
        "Figure 14",
        "Paper shape: gains < ~50%; data transfer stays the dominant, near-saturated stage.",
        transfer::fig14_pipeline_ablation,
    ),
    row(
        "fig15_active_blocks",
        "Figure 15",
        "Paper shape: fragmented activity; caching makes remaining blocks sparser still.",
        transfer::fig15_active_blocks,
    ),
    row(
        "fig16_block_threshold",
        "Figure 16",
        "Paper shape: ratio falls fast with the threshold; near zero once the cache is on.",
        transfer::fig16_block_threshold,
    ),
    row(
        "fig17_cache_policies",
        "Figure 17",
        "Paper shape: comparable on the power-law graph (Amazon); pre-sampling\n\
         clearly ahead on the non-power-law graph (OGB-Papers).",
        transfer::fig17_cache_policies,
    ),
    row(
        "ablate_zerocopy_eff",
        "Ablation 1 (DESIGN.md §4.1)",
        "Reading: with the default calibration (0.70) zero-copy wins; the crossover\n\
         shows how robust §7.3.1's conclusion is to the UVA efficiency assumption.",
        ablations::ablate_zerocopy_eff,
    ),
    row(
        "ablate_metis_refine",
        "Ablation 2 (DESIGN.md §4.2)",
        "Reading: the first couple of passes buy most of the cut reduction.",
        ablations::ablate_metis_refine,
    ),
    row(
        "ablate_presample_epochs",
        "Ablation 3 (DESIGN.md §4.3)",
        "Reading: a handful of profiling epochs suffices; returns flatten quickly.",
        ablations::ablate_presample_epochs,
    ),
    row(
        "ablate_block_size",
        "Ablation 4 (DESIGN.md §4.4)",
        "Reading: no block size makes dense-enough blocks common — §7.3.1's conclusion is robust.",
        ablations::ablate_block_size,
    ),
    row(
        "ablate_adaptive_schedule",
        "Ablation 5 (DESIGN.md §4.5)",
        "Reading: the proposal is robust to the schedule shape; growing too fast forfeits the small-batch phase.",
        ablations::ablate_adaptive_schedule,
    ),
    row(
        "ablate_stream_impl",
        "Ablation 6 (§5.4 lesson 4)",
        "Reading: the indexed variants reproduce the published algorithms' partitions\n\
         exactly; how much faster they run is measured, so it prints to stderr.",
        ablations::ablate_stream_impl,
    ),
    row(
        "ablate_importance_cache",
        "Ablation 7 (§7.3.3)",
        "Reading: under uniform sampling the policies are comparable; under\n\
         inverse-degree importance sampling the degree policy caches the wrong\n\
         vertices while pre-sampling tracks the true access distribution (§7.3.3).",
        ablations::ablate_importance_cache,
    ),
    row(
        "ext_fullbatch_vs_minibatch",
        "Extension (§6.2: full-batch vs mini-batch)",
        "Paper claim (§6.2): one update per epoch makes full-batch training\n\
         converge slower despite cheap epochs; mini-batch wins time-to-accuracy.",
        extensions::ext_fullbatch_vs_minibatch,
    ),
    row(
        "ext_three_layer",
        "Extension (Table 5: 3-layer defaults)",
        "Reading: the third layer multiplies the sampled frontier — here ~4x the\n\
         sampled edges and ~2x the epoch time of the (10,5) baseline. On this\n\
         noisy-feature stand-in the extra receptive field also buys accuracy;\n\
         on the paper's real datasets the accuracy return is smaller, which is\n\
         why Table 5's systems default to shallow models with tapered fanouts\n\
         — the *cost* side of the trade-off is the data-management story.",
        extensions::ext_three_layer,
    ),
    row(
        "ext_sampling_algorithms",
        "Extension (§6.2: sampling algorithm families)",
        "Reading: layer-wise bounds the frontier at some accuracy cost (it drops\n\
         per-vertex dependency structure); subgraph-wise minimizes workload but\n\
         inherits cluster bias — consistent with the taxonomy's trade-offs (§6.2).",
        extensions::ext_sampling_algorithms,
    ),
    row(
        "ext_p3_hybrid",
        "Extension (Tables 1/3: P3 hybrid parallelism)",
        "Reading: P3's activation exchange is independent of the feature width,\n\
         so its advantage grows with F — decisive on Reddit-class 602-dim\n\
         features, a loss on narrow-feature graphs. Matches P3's own evaluation.",
        extensions::ext_p3_hybrid,
    ),
    row(
        "ext_local_sgd",
        "Extension (Table 1: Sancus-style local SGD)",
        "Reading: moderate staleness (sync every 2-4 rounds) cuts all-reduce\n\
         traffic proportionally with little accuracy cost — the premise of\n\
         Sancus-style communication-avoiding training. Very sparse syncing\n\
         starts to pay in accuracy.",
        extensions::ext_local_sgd,
    ),
    row(
        "ext_pipeline_bp",
        "Extension (§7.3.2 / Figure 14, executed)",
        "Reading (stage seconds and `hidden` are wall clock, printed to stderr):\n\
         on the deep-sampling shape BP is ~30% of a sequential epoch and the\n\
         streamed epoch recovers most of it (`hidden` 0.8-1.0 on two vCPUs):\n\
         a batch builds on an idle worker in a fraction of the time it trains,\n\
         so one ready batch hides the sampler, as Figure 14's Pipeline BP says.\n\
         On the wide shape BP is ~4% of the epoch; there is little to hide and\n\
         `hidden` divides by that little, so it mostly reads run-to-run noise.",
        extensions::ext_pipeline_bp,
    ),
    row(
        "ext_faults_epoch_time",
        "Extension (DESIGN.md §11: injected faults)",
        "Expected shape: rate 0 reproduces Figure 8; communication-heavy methods degrade fastest.",
        robustness::ext_faults_epoch_time,
    ),
    row(
        "ext_grid_composition",
        "Extension (DESIGN.md §14: cross-axis grid)",
        "Reading: partition-block batch selection concentrates each batch's\n\
         footprint, so the degree cache's hit rate — and therefore how much a\n\
         fault-inflated epoch costs — depends on which partitioner drew the\n\
         blocks. None of the per-axis bins (fig6, fig17, ext_faults) can see\n\
         this interaction; the composed grid prices all 12 cells directly.",
        robustness::ext_grid_composition,
    ),
    row(
        "grid_smoke",
        "Harness golden (DESIGN.md §14.5)",
        "Each row is one SystemConfig: the named spec on its axis, the other\n\
         six axes at the GridSpec default. Cost and accuracy are reported\n\
         together per the harness reporting rule (DESIGN.md \u{a7}14).",
        robustness::grid_smoke,
    ),
    Experiment {
        output: Some("ext_chaos_grid"),
        ..row(
            "chaos_grid",
            "Extension (DESIGN.md §16: chaos grid)",
            "Expected shape: hedging dominates the top ranks (shorter tails, bounded waste); \
             skip/stale policies trade accuracy for tail only under heavy stress.",
            robustness::chaos_grid,
        )
    },
    Experiment {
        output: None,
        ..row("trace_export", "Trace export (DESIGN.md §9)", "", overview::trace_export)
    },
];

// ---------------------------------------------------------------------------
// Shared by the experiments
// ---------------------------------------------------------------------------

const VALID: &str = "experiment specs are in the harness grammar";

/// Resolves one spec into a config.
fn config(spec: GridSpec) -> SystemConfig {
    SystemConfig::from_spec(&Registry::builtin(), &spec).expect(VALID)
}

/// One config per spec: `base` with `axis` swept over `specs`, in order.
fn sweep<S: ToString>(
    base: GridSpec,
    axis: Axis,
    specs: impl IntoIterator<Item = S>,
) -> Vec<SystemConfig> {
    Grid::over(base)
        .vary(axis, specs.into_iter().map(|s| s.to_string()).collect())
        .and_then(|grid| grid.configs(&Registry::builtin()))
        .expect(VALID)
}

/// The default system with the given batch prep.
fn with_prep(batch_prep: &str) -> GridSpec {
    GridSpec { batch_prep: batch_prep.to_string(), ..GridSpec::default() }
}

/// The default system on the paper's 4-worker cluster.
fn cluster4() -> GridSpec {
    GridSpec { parallel: "cluster(4)".to_string(), ..GridSpec::default() }
}

/// Every registered partitioner on `base`, in Table 3 order.
fn partitioner_sweep(base: GridSpec) -> Vec<SystemConfig> {
    sweep(base, Axis::Partitioner, Registry::builtin().specs(Axis::Partitioner))
}

/// Figures 4, 5, 8 and the fault extension share one loop nest: every
/// labelled graph × every registered partitioner on the paper's cluster
/// setup, one simulated epoch each.
fn for_each_cluster_run(
    mut visit: impl FnMut(&'static str, &ClusterExperiment<'_>, &SystemConfig, &ClusterRun),
) {
    let configs = partitioner_sweep(cluster4());
    for (name, g) in named_graphs(&LABELLED, |id| one_graph(id, SCALE_LOAD, 42)) {
        let exp = ClusterExperiment::paper(&g);
        for cfg in &configs {
            visit(name, &exp, cfg, &exp.run(cfg));
        }
    }
}

/// Runs `f` on the epoch plan `cfg`'s batch prep describes over `g`.
fn with_epoch_plan<R>(
    g: &Graph,
    cfg: &SystemConfig,
    seed: u64,
    f: impl FnOnce(&EpochPlan<'_>) -> R,
) -> R {
    let train = g.train_vertices();
    let selection = cfg.batch_prep.selection(g);
    let sampler = cfg.batch_prep.sampler(g);
    f(&EpochPlan {
        in_csr: &g.inn,
        train: &train,
        selection: &selection,
        schedule: cfg.batch_prep.schedule(),
        sampler: &*sampler,
        seed,
    })
}

/// A sparse training set concentrates accesses (large graphs in the paper
/// have ~1% training vertices), making cache policy matter.
fn sparse_train_split(mut g: Graph) -> Graph {
    g.split = SplitMask::random(g.num_vertices(), 0.08, 0.10, 0.82, 7);
    g
}

fn dataset_name(id: DatasetId) -> &'static str {
    DatasetSpec::get(id).name
}

/// The best validation accuracy any of the runs reached.
fn best_acc<'a>(results: impl IntoIterator<Item = &'a ConvergenceResult>) -> f64 {
    results.into_iter().map(|r| r.best_acc).fold(0.0f64, f64::max)
}

/// Prints a table of measured wall-clock seconds to stderr: they differ
/// from run to run and from host to host, so they stay out of `results/`.
fn print_wall_clock(title: &str, table: &Table) {
    eprintln!("== {title} (wall clock) ==");
    eprintln!("{}", table.render());
}

/// Simulated seconds until `r` first reaches `target`, as a table cell.
fn time_to(r: &ConvergenceResult, target: f64) -> String {
    r.time_to(target).map_or("never".into(), f)
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::collections::BTreeSet;

    /// Names are unique, and rows and `results/*.txt` correspond one to
    /// one through each row's output stem.
    #[test]
    fn rows_and_result_files_correspond() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let outputs: BTreeSet<String> =
            EXPERIMENTS.iter().filter_map(|e| e.output).map(|o| format!("{o}.txt")).collect();
        assert_eq!(outputs.len(), EXPERIMENTS.iter().filter(|e| e.output.is_some()).count());
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ exists")
            .map(|entry| entry.expect("readable entry").file_name().to_string_lossy().into_owned())
            .filter(|file| file.ends_with(".txt"))
            .collect();
        assert_eq!(outputs, on_disk);
    }

    /// EXPERIMENTS.md's index is this table: one line per row, in order.
    #[test]
    fn experiments_md_index_matches_the_table() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let index: Vec<&str> = doc.lines().filter(|l| l.starts_with("| `")).collect();
        let expected: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| {
                let output = e.output.map_or("—".to_string(), |o| format!("`results/{o}.txt`"));
                format!("| `{}` | {} | {output} |", e.name, e.paper_ref)
            })
            .collect();
        assert_eq!(index, expected);
    }
}
