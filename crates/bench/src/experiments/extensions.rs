//! Extension experiments beyond the paper's own figures (DESIGN.md §3b).

use gnn_dm_cluster::dist::local_sgd_epoch;
use gnn_dm_cluster::network::allreduce_time;
use gnn_dm_cluster::p3::compare_epoch;
use gnn_dm_core::convergence::{modeled_epoch_seconds, train_full_batch};
use gnn_dm_core::results::{f, mib, Table};
use gnn_dm_device::pipeline::{makespan, BatchStageTimes, PipelineMode};
use gnn_dm_device::{Bytes, LinkModel};
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::Graph;
use gnn_dm_harness::{
    Axis, ClusterExperiment, GridSpec, TrainExperiment, PART_SEED, TRAIN_HIDDEN, TRAIN_LR,
    TRAIN_MODEL, TRAIN_SEED,
};
use gnn_dm_nn::optim::Adam;
use gnn_dm_nn::train::{evaluate, train_epoch, train_step};
use gnn_dm_nn::{AggKind, GnnModel};
use gnn_dm_sampling::sampler::{
    build_minibatch, subgraph_restricted_minibatch, FanoutSampler, LayerwiseSampler,
};
use gnn_dm_sampling::{BatchSelection, MiniBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use super::{cluster4, config, dataset_name, sweep, with_epoch_plan, with_prep};
use crate::{convergence_graph, one_graph_slim, SCALE_LOAD, SCALE_TRAIN, TRAIN_FEAT_DIM};

/// Full-batch vs sample-based mini-batch training (§6.2's dichotomy,
/// quantified).
///
/// The paper argues full-batch training "suffers from inefficiency and poor
/// scalability" and updates parameters only once per epoch, which slows
/// convergence; sample-based mini-batch training is "the mainstream
/// training method". This run puts both on the same graph and model.
pub fn ext_fullbatch_vs_minibatch() {
    const EPOCHS: usize = 25;
    let cfg = config(with_prep("fanout(5,5)+fixed(512)"));
    let mut table = Table::new(&[
        "dataset",
        "method",
        "best_acc",
        "epochs_to_90%best",
        "time_to_90%best_s",
    ]);
    for id in [DatasetId::Reddit, DatasetId::OgbArxiv] {
        let g = convergence_graph(id, 42);
        let mini = TrainExperiment::paper(&g, EPOCHS).run(&cfg);
        let full = train_full_batch(&g, TRAIN_MODEL, TRAIN_HIDDEN, TRAIN_LR, EPOCHS, TRAIN_SEED);
        let target = 0.9 * mini.best_acc.max(full.best_acc);
        for (label, r) in [("mini-batch (512, fanout 5,5)", &mini), ("full-batch", &full)] {
            table.row(&[
                dataset_name(id).into(),
                label.into(),
                f(r.best_acc),
                r.epochs_to(target).map_or("never".into(), |e| e.to_string()),
                r.time_to(target).map_or("never".into(), f),
            ]);
        }
    }
    table.print("Extension: full-batch vs mini-batch training");
}

/// 2-layer vs 3-layer GNNs under the systems' default fanout settings
/// (Table 5 pairs (25,10) 2-layer configurations with (15,10,5) 3-layer
/// ones).
///
/// The vertex-wise sampler's frontier grows exponentially with depth
/// (§6.2), so the third layer buys receptive field at a steep
/// batch-preparation and transfer cost — this run quantifies both sides.
pub fn ext_three_layer() {
    const EPOCHS: usize = 20;
    let g = convergence_graph(DatasetId::OgbArxiv, 42);
    let exp = TrainExperiment::paper(&g, EPOCHS);
    // (label, batch-prep spec, hidden widths)
    let configs = [
        ("2-layer (10,5)", "fanout(10,5)+fixed(256)", vec![TRAIN_HIDDEN]),
        ("2-layer (25,10)", "fanout(25,10)+fixed(256)", vec![TRAIN_HIDDEN]),
        ("3-layer (15,10,5)", "fanout(15,10,5)+fixed(256)", vec![TRAIN_HIDDEN, TRAIN_HIDDEN]),
    ];
    let resolved = sweep(GridSpec::default(), Axis::BatchPrep, configs.iter().map(|c| c.1));
    let mut table = Table::new(&[
        "config",
        "best_acc",
        "sampled_edges/epoch",
        "involved_V/epoch",
        "sim_epoch_s",
    ]);
    for ((label, _, hiddens), cfg) in configs.iter().zip(&resolved) {
        let (stats, best_acc) = with_epoch_plan(&g, cfg, TRAIN_SEED, |plan| {
            // Batch statistics for the cost columns.
            let stats = plan.run_for_stats(0, None);
            // Real training. train_single assumes one hidden layer; build
            // the deeper model directly for the 3-layer case.
            if hiddens.len() == 1 {
                return (stats, exp.run(cfg).best_acc);
            }
            let mut dims = vec![g.feat_dim()];
            dims.extend_from_slice(hiddens);
            dims.push(g.num_classes);
            let mut model = GnnModel::new(TRAIN_MODEL.agg(), &dims, TRAIN_SEED);
            let mut opt = Adam::new(TRAIN_LR);
            let mut best = 0.0f64;
            for e in 0..EPOCHS {
                train_epoch(&mut model, &mut opt, &g, plan, e);
                best = best.max(evaluate(&model, &g, &g.val_vertices()));
            }
            (stats, best)
        });
        let epoch_s =
            modeled_epoch_seconds(&g, stats.involved_vertices, stats.involved_edges, TRAIN_HIDDEN);
        table.row(&[
            (*label).into(),
            f(best_acc),
            stats.involved_edges.to_string(),
            stats.involved_vertices.to_string(),
            f(epoch_s),
        ]);
    }
    table.print("Extension: 2-layer vs 3-layer GNNs (Arxiv-class)");
}

/// Trains the suite's GCN for 20 epochs on the batches `make_batches`
/// yields; returns best validation accuracy and the first epoch's
/// involved vertices and edges.
fn train_with(
    g: &Graph,
    mut make_batches: impl FnMut(usize, &mut StdRng) -> Vec<MiniBatch>,
) -> (f64, usize, usize) {
    let dims = [g.feat_dim(), TRAIN_HIDDEN, g.num_classes];
    let mut model = GnnModel::new(TRAIN_MODEL.agg(), &dims, TRAIN_SEED);
    let mut opt = Adam::new(TRAIN_LR);
    let mut best = 0.0f64;
    let mut edges = 0usize;
    let mut verts = 0usize;
    #[expect(clippy::disallowed_methods, reason = "a serial training loop: one stream from a fixed seed, no parallel unit draws from it")]
    let mut rng = StdRng::seed_from_u64(11);
    for epoch in 0..20 {
        for mb in make_batches(epoch, &mut rng) {
            if mb.seeds.is_empty() {
                continue;
            }
            if epoch == 0 {
                edges += mb.involved_edges();
                verts += mb.involved_vertices();
            }
            train_step(&mut model, &mut opt, g, &mb);
        }
        best = best.max(evaluate(&model, g, &g.val_vertices()));
    }
    (best, verts, edges)
}

/// The three sampling *algorithm* families of §6.2: vertex-wise
/// (GraphSAGE-style), layer-wise (FastGCN-style) and subgraph-wise
/// (Cluster-GCN-style), compared on accuracy and per-epoch workload.
///
/// The paper treats these as orthogonal to its fanout/rate parameter study
/// and defers to the sampling survey [26]; this run closes the loop by
/// executing all three on the same graph and model. The layer-wise
/// sampler builds whole-batch layers rather than per-vertex frontiers, so
/// it stays outside the harness's `NeighborSampler`-based prep axis and is
/// driven manually here.
pub fn ext_sampling_algorithms() {
    const BATCH: usize = 256;
    let g = convergence_graph(DatasetId::OgbProducts, 42);
    let train = g.train_vertices();
    let selection = BatchSelection::Random;
    let mut table =
        Table::new(&["algorithm", "best_acc", "involved_V/epoch", "involved_E/epoch"]);
    let mut report = |algorithm: &str, (acc, v, e): (f64, usize, usize)| {
        table.row(&[algorithm.into(), f(acc), v.to_string(), e.to_string()]);
    };

    // (1) Vertex-wise: per-vertex fanout sampling.
    let fanout = config(with_prep("fanout(5,5)+fixed(256)")).batch_prep.sampler(&g);
    let vertexwise = train_with(&g, |epoch, rng| {
        selection
            .select(&train, BATCH, 5, epoch)
            .into_iter()
            .map(|seeds| build_minibatch(&g.inn, &seeds, &*fanout, rng))
            .collect()
    });
    report("vertex-wise (5,5)", vertexwise);

    // (2) Layer-wise: a fixed source budget per layer.
    let layerwise = LayerwiseSampler::new(vec![1024, 2048]);
    let layered = train_with(&g, |epoch, rng| {
        selection
            .select(&train, BATCH, 5, epoch)
            .into_iter()
            .map(|seeds| layerwise.build(&g.inn, &seeds, rng))
            .collect()
    });
    report("layer-wise (1024,2048)", layered);

    // (3) Subgraph-wise: sampling confined to Metis clusters
    //     (Cluster-GCN), full neighbors inside the cluster.
    let cluster_sel =
        config(with_prep("fanout(5,5)+fixed(256)+cluster(16,1)")).batch_prep.selection(&g);
    let clusters = match &cluster_sel {
        BatchSelection::ClusterBased { clusters } => clusters.clone(),
        BatchSelection::Random => unreachable!("cluster(16,1) prep yields cluster selection"),
    };
    let mut members = vec![Vec::new(); 16];
    for (vtx, &c) in clusters.iter().enumerate() {
        members[c as usize].push(vtx as u32);
    }
    let full = FanoutSampler::new(vec![usize::MAX, usize::MAX]);
    let subgraph = train_with(&g, |epoch, rng| {
        cluster_sel
            .select(&train, BATCH, 5, epoch)
            .into_iter()
            .map(|seeds| {
                let c = clusters[seeds[0] as usize] as usize;
                subgraph_restricted_minibatch(&g.inn, &seeds, &members[c], &full, rng)
            })
            .collect()
    });
    report("subgraph-wise (16 clusters)", subgraph);

    table.print("Extension: vertex-wise vs layer-wise vs subgraph-wise sampling (Products-class)");
}

/// P3's hybrid parallelism vs plain data parallelism, across feature
/// widths.
///
/// P3 [10] is one of Table 1/3's evaluated systems; its core bet is that
/// shipping *partial layer-1 activations* (hidden width) beats shipping
/// *raw features* (feature width) whenever features are wide. This run
/// finds the crossover on a hash-partitioned cluster.
pub fn ext_p3_hybrid() {
    let hcfg = config(cluster4());
    let mut table = Table::new(&[
        "feat_dim",
        "data_parallel_MiB",
        "p3_MiB",
        "p3_advantage",
        "winner",
    ]);
    for feat_dim in [16usize, 64, 128, 256, 602] {
        let mut cfg = DatasetSpec::get(DatasetId::Reddit).scaled_config(SCALE_LOAD, 42);
        cfg.feat_dim = feat_dim;
        let g = gnn_dm_graph::generate::planted_partition(&cfg);
        let exp = ClusterExperiment::paper(&g);
        let part = exp.partition(&hcfg);
        let sampler = hcfg.batch_prep.sampler(&g);
        let sim = exp.sim_with(&part, hcfg.batch_prep.batch_size(0));
        let c = compare_epoch(&sim, &*sampler, 128, 0);
        table.row(&[
            feat_dim.to_string(),
            mib(c.data_parallel_bytes),
            mib(c.p3_bytes),
            format!("{:.2}x", c.p3_advantage()),
            if c.p3_advantage() > 1.0 { "P3" } else { "data-parallel" }.into(),
        ]);
    }
    table.print("Extension: P3 hybrid parallelism vs data parallelism (hidden = 128)");
}

/// Communication-avoiding local SGD: staleness vs all-reduce traffic.
///
/// Sancus (Table 1) trains "staleness-aware communication-avoiding": skip
/// synchronizations, tolerate stale replicas. This run sweeps the
/// synchronization period on a partitioned cluster and prices the
/// all-reduce traffic each setting saves.
pub fn ext_local_sgd() {
    let g = one_graph_slim(DatasetId::OgbProducts, SCALE_TRAIN, TRAIN_FEAT_DIM, 42);
    let cfg = config(GridSpec {
        partitioner: "metis-ve".to_string(),
        parallel: "cluster(4)".to_string(),
        ..with_prep("fanout(8,4)+fixed(128)")
    });
    let part = cfg.partitioner.build(&g, cfg.parallel.workers(), PART_SEED);
    let sampler = cfg.batch_prep.sampler(&g);
    let batch = cfg.batch_prep.batch_size(0);
    let nic = LinkModel::nic_10gbps();
    let mut table = Table::new(&[
        "sync_every",
        "val_acc",
        "syncs",
        "allreduce_s(model)",
    ]);
    for sync_every in [1usize, 2, 4, 8] {
        let mut model = GnnModel::new(AggKind::Gcn, &[g.feat_dim(), 64, g.num_classes], 7);
        let param_bytes = (model.num_params() * 4) as u64;
        let mut syncs_total = 0usize;
        for e in 0..12 {
            let (_, syncs) =
                local_sgd_epoch(&mut model, 0.05, &g, &part, &*sampler, batch, sync_every, 5, e);
            syncs_total += syncs;
        }
        let acc = evaluate(&model, &g, &g.val_vertices());
        #[expect(clippy::disallowed_methods, reason = "the table prices the saved all-reduce traffic analytically, with no timeline")]
        let comm = (allreduce_time(&nic, Bytes(param_bytes), 4) * syncs_total as f64).0;
        table.row(&[
            sync_every.to_string(),
            f(acc),
            syncs_total.to_string(),
            format!("{comm:.4}"),
        ]);
    }
    table.print("Extension: local SGD synchronization period (Products-class, 4 workers)");
}

/// Figure 14's "Pipeline BP", executed and set beside its own model.
///
/// Per shape and epoch, on twin models: a sequential drive gives every
/// batch's BP seconds (built alone, as a pool worker builds it) and NN
/// seconds (`train_step` at the ambient thread count, nothing beside it);
/// the streamed `train_epoch` gives the wall time; `makespan` gives what
/// the model predicts from those stage times with no transfer stage.
/// `hidden` is the saving measured over the saving modelled: 1 means the
/// sampler disappeared behind the kernels as Figure 14 says it can, 0 that
/// nothing overlapped (one thread). Wall-clock columns: the file differs
/// from run to run.
#[expect(clippy::disallowed_methods, reason = "the executed twin's stage and wall seconds are this row's measurement")]
pub fn ext_pipeline_bp() {
    const EPOCHS: usize = 6;
    let threads = gnn_dm_par::thread_count();
    // (label, dataset, vertices, feature width, batch prep, hidden widths, family)
    let (deep, wide) = ("fanout(15,10,5)+fixed(256)", "fanout(25,10)+fixed(512)");
    let shapes = [
        ("mb_deep-shaped", DatasetId::OgbProducts, 20_000, 32, deep, vec![32, 32], AggKind::SageMean),
        ("mb_wide-shaped", DatasetId::Reddit, 5_000, 602, wide, vec![128], AggKind::Gcn),
    ];
    let mut table = Table::new(&[
        "shape",
        "batches",
        "bp_s",
        "nn_s",
        "no_pipe_s(model)",
        "pipeline_bp_s(model)",
        "streamed_s(wall)",
        "hidden",
    ]);
    for (label, id, vertices, feat_dim, prep, hiddens, kind) in shapes {
        let g = one_graph_slim(id, vertices, feat_dim, 42);
        let dims = [vec![feat_dim], hiddens, vec![g.num_classes]].concat();
        let mut reference = GnnModel::new(kind, &dims, TRAIN_SEED);
        let mut streamed = reference.clone();
        let (mut opt_r, mut opt_s) = (Adam::new(TRAIN_LR), Adam::new(TRAIN_LR));
        let mut stages: Vec<BatchStageTimes> = Vec::new();
        let mut wall = 0.0f64;
        with_epoch_plan(&g, &config(with_prep(prep)), TRAIN_SEED, |plan| {
            for e in 0..EPOCHS {
                // The twins never meet, so either may go first; alternating
                // spreads warm-cache luck over both columns.
                for stream in [e % 2 == 1, e % 2 == 0] {
                    let mut mark = Instant::now();
                    if stream {
                        train_epoch(&mut streamed, &mut opt_s, &g, plan, e);
                        wall += mark.elapsed().as_secs_f64();
                        continue;
                    }
                    // Pinned to one thread the stream is the plain
                    // build-then-consume loop, so the gap before each
                    // hand-over is that batch's build time; the step
                    // itself runs at the ambient thread count again.
                    gnn_dm_par::with_threads(1, || {
                        plan.for_each_batch(e, |_, mb| {
                            let bp = mark.elapsed().as_secs_f64();
                            let start = Instant::now();
                            gnn_dm_par::with_threads(threads, || {
                                train_step(&mut reference, &mut opt_r, &g, &mb)
                            });
                            let nn = start.elapsed().as_secs_f64();
                            stages.push(BatchStageTimes { bp, dt: 0.0, nn });
                            mark = Instant::now();
                        });
                    });
                }
            }
        });
        assert!(
            streamed.param_views_mut() == reference.param_views_mut(),
            "{label}: the streamed epochs trained a different model"
        );
        let no_pipe = makespan(&stages, PipelineMode::None);
        let pipeline_bp = makespan(&stages, PipelineMode::OverlapBp);
        table.row(&[
            label.into(),
            stages.len().to_string(),
            f(stages.iter().map(|s| s.bp).sum()),
            f(stages.iter().map(|s| s.nn).sum()),
            f(no_pipe),
            f(pipeline_bp),
            f(wall),
            format!("{:.2}", (no_pipe - wall) / (no_pipe - pipeline_bp)),
        ]);
    }
    table.print(&format!(
        "Extension: Pipeline BP executed vs modelled ({EPOCHS} epochs, {threads} threads)"
    ));
}
