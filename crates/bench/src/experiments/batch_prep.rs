//! §6 — batch preparation: Figures 9–12 and Tables 6–8.

use std::collections::BTreeSet;

use gnn_dm_core::convergence::modeled_epoch_seconds;
use gnn_dm_core::results::{f, Table};
use gnn_dm_graph::datasets::DatasetId;
use gnn_dm_graph::stats;
use gnn_dm_harness::{
    Axis, GridSpec, SystemConfig, TrainExperiment, TRAIN_HIDDEN, TRAIN_LR, TRAIN_MODEL, TRAIN_SEED,
};
use gnn_dm_nn::metrics::accuracy_by_degree;
use gnn_dm_nn::optim::Adam;
use gnn_dm_nn::train::{full_logits, train_epoch};
use gnn_dm_nn::GnnModel;

use super::{best_acc, config, dataset_name, sweep, time_to, with_epoch_plan, with_prep};
use crate::{convergence_graph, one_graph, one_graph_slim, SCALE_LOAD, SCALE_TRAIN, TRAIN_FEAT_DIM};

/// The default system with its batch prep swept over `specs`.
fn prep_sweep<S: ToString>(specs: impl IntoIterator<Item = S>) -> Vec<SystemConfig> {
    sweep(GridSpec::default(), Axis::BatchPrep, specs)
}

/// Figure 9 — accuracy and convergence speed when varying the batch size.
///
/// Paper result: (1) shrinking the batch speeds convergence until a lower
/// knee, below which it slows again; (2) growing the batch raises accuracy
/// until an upper knee, beyond which it falls.
pub fn fig9_batch_size() {
    let g = convergence_graph(DatasetId::Reddit, 42);
    let exp = TrainExperiment::paper(&g, 25);
    let batch_sizes = [32usize, 128, 512, 2048, 5200];
    let results: Vec<_> = batch_sizes
        .iter()
        .zip(prep_sweep(batch_sizes.map(|bs| format!("fanout(5,5)+fixed({bs})"))))
        .map(|(bs, cfg)| (bs, exp.run(&cfg)))
        .collect();
    let best = best_acc(results.iter().map(|(_, r)| r));

    let mut table = Table::new(&[
        "batch_size",
        "best_acc",
        "time_to_90%best_s",
        "time_to_97%best_s",
    ]);
    for (bs, res) in &results {
        table.row(&[
            bs.to_string(),
            f(res.best_acc),
            time_to(res, 0.90 * best),
            time_to(res, 0.97 * best),
        ]);
    }
    table.print("Figure 9: accuracy & convergence vs batch size (Reddit-class)");

    let mut curves = Table::new(&["batch_size", "epoch", "sim_time_s", "val_acc", "loss"]);
    for (bs, res) in &results {
        for p in &res.curve {
            curves.row(&[
                bs.to_string(),
                p.epoch.to_string(),
                f(p.sim_time),
                f(p.val_acc),
                format!("{:.4}", p.train_loss),
            ]);
        }
    }
    curves.print("Figure 9 (curves)");
}

/// Figure 10 — the paper's adaptive batch-size training method.
///
/// Paper result: starting with a small batch and growing it during training
/// converges 1.64× (Reddit) / 1.52× (Products) faster to the highest
/// accuracy than the best fixed batch size.
pub fn fig10_adaptive_batch() {
    let schedules = [
        ("fixed(128)", "fanout(5,5)+fixed(128)"),
        ("fixed(512)", "fanout(5,5)+fixed(512)"),
        ("fixed(2048)", "fanout(5,5)+fixed(2048)"),
        ("adaptive(128->2048)", "fanout(5,5)+adaptive(128,2048,x2,every3)"),
    ];
    let configs = prep_sweep(schedules.map(|(_, spec)| spec));
    let mut table = Table::new(&[
        "dataset",
        "schedule",
        "best_acc",
        "time_to_97%best_s",
        "speedup_vs_best_fixed",
    ]);
    for id in [DatasetId::Reddit, DatasetId::OgbProducts] {
        let g = convergence_graph(id, 42);
        let exp = TrainExperiment::paper(&g, 25);
        let results: Vec<_> =
            schedules.iter().zip(&configs).map(|(&(label, _), cfg)| (label, exp.run(cfg))).collect();
        // Target: near the highest accuracy anyone reaches (the paper's
        // adaptive method is about reaching the *top* accuracy fast).
        let target = 0.97 * best_acc(results.iter().map(|(_, r)| r));
        let fixed_best_time = results
            .iter()
            .filter(|(l, _)| l.starts_with("fixed"))
            .filter_map(|(_, r)| r.time_to(target))
            .fold(f64::INFINITY, f64::min);
        for (label, r) in &results {
            table.row(&[
                dataset_name(id).into(),
                (*label).into(),
                f(r.best_acc),
                time_to(r, target),
                r.time_to(target).map_or("-".into(), |t| format!("{:.2}x", fixed_best_time / t)),
            ]);
        }
    }
    table.print("Figure 10: adaptive batch size vs fixed batch sizes");
}

/// Figure 11 — random vs cluster-based batch selection: accuracy and
/// stability.
///
/// Paper result: random selection reaches higher accuracy and trains
/// stably; cluster-based selection biases batches toward single clusters,
/// lowering accuracy and destabilizing training (batch-subgraph density
/// variance 2e-4 vs 1.1e-6 for random).
pub fn fig11_batch_selection() {
    const EPOCHS: usize = 20;
    let selections = [
        ("random", "fanout(10,5)+fixed(256)"),
        ("cluster-based", "fanout(10,5)+fixed(256)+cluster(24,1)"),
    ];
    let configs = prep_sweep(selections.map(|(_, spec)| spec));
    let mut table = Table::new(&[
        "dataset",
        "selection",
        "best_acc",
        "acc_stddev_late",
        "batch_density_var",
    ]);
    for id in [DatasetId::Reddit, DatasetId::OgbProducts] {
        let g = one_graph_slim(id, SCALE_TRAIN, TRAIN_FEAT_DIM, 42);
        let exp = TrainExperiment::paper(&g, EPOCHS);
        for (&(label, _), cfg) in selections.iter().zip(&configs) {
            let r = exp.run(cfg);
            // Stability: stddev of validation accuracy over the last half
            // of training (the paper eyeballs curve wobble).
            let late: Vec<f64> = r.curve[EPOCHS / 2..].iter().map(|p| p.val_acc).collect();
            let (_, var) = stats::mean_var(&late);
            // Batch-subgraph density variance (§6.3.2's clustering
            // coefficient variance across batched subgraphs).
            let batches = cfg.batch_prep.selection(&g).select(&g.train_vertices(), 256, 5, 0);
            let densities: Vec<f64> =
                batches.iter().map(|b| stats::induced_avg_clustering(&g.out, b)).collect();
            let (_, dvar) = stats::mean_var(&densities);
            table.row(&[
                dataset_name(id).into(),
                label.into(),
                f(r.best_acc),
                format!("{:.4}", var.sqrt()),
                format!("{dvar:.2e}"),
            ]);
        }
    }
    table.print("Figure 11: random vs cluster-based batch selection");
}

/// Table 6 — epoch time and computational load of the batch-selection
/// methods.
///
/// Paper result (Products / Reddit): cluster-based selection cuts epoch
/// time by ≈ 2.4× / 2.8× and involves far fewer vertices and edges,
/// because densely connected batch members share sampled neighbors that
/// deduplicate.
pub fn tab6_selection_cost() {
    let selections = [
        ("random", "fanout(25,10)+fixed(512)"),
        ("cluster-based", "fanout(25,10)+fixed(512)+cluster(24,1)"),
    ];
    let configs = prep_sweep(selections.map(|(_, spec)| spec));
    let mut table = Table::new(&[
        "dataset",
        "method",
        "epoch_time_s",
        "involved_V",
        "involved_E",
    ]);
    for id in [DatasetId::OgbProducts, DatasetId::Reddit] {
        let g = one_graph(id, SCALE_LOAD, 42);
        for (&(label, _), cfg) in selections.iter().zip(&configs) {
            let stats = with_epoch_plan(&g, cfg, 5, |plan| plan.run_for_stats(0, None));
            let t = modeled_epoch_seconds(&g, stats.involved_vertices, stats.involved_edges, 128);
            table.row(&[
                dataset_name(id).into(),
                label.into(),
                format!("{t:.4}"),
                format!("{:.2}M", stats.involved_vertices as f64 / 1e6),
                format!("{:.2}M", stats.involved_edges as f64 / 1e6),
            ]);
        }
    }
    table.print("Table 6: epoch time and involved vertices/edges per batch selection");
}

/// Figure 12 — accuracy and convergence under different fanout settings
/// (a) and sample-rate settings (b), on the Arxiv-class dataset.
///
/// Paper result: accuracy rises then falls as fanout grows (convergence
/// speed moves opposite); the same trend holds for sampling rate, but rate
/// accuracy sits below fanout accuracy (tiny rates starve low-degree
/// vertices; large rates kill sampling randomness).
pub fn fig12_fanout_rate() {
    let g = one_graph_slim(DatasetId::OgbArxiv, SCALE_TRAIN, TRAIN_FEAT_DIM, 42);
    let exp = TrainExperiment::paper(&g, 20);
    // (a) fanout sweep, then (b) rate sweep.
    let fanouts = [2usize, 4, 8, 16, 32];
    let rates = [0.1f64, 0.25, 0.5, 0.75, 0.9];
    let settings = fanouts
        .iter()
        .map(|k| ("fanout", format!("({k},{k})"), format!("fanout({k},{k})+fixed(256)")))
        .chain(rates.iter().map(|r| ("rate", format!("{r}"), format!("rate({r},{r};min=1)+fixed(256)"))));
    let results: Vec<_> = settings
        .map(|(sampling, setting, spec)| (sampling, setting, exp.run(&config(with_prep(&spec)))))
        .collect();
    let target = 0.97 * best_acc(results.iter().map(|(_, _, r)| r));
    let mut table = Table::new(&["sampling", "setting", "best_acc", "time_to_97%best_s"]);
    for (sampling, setting, r) in &results {
        table.row(&[(*sampling).into(), setting.clone(), f(r.best_acc), time_to(r, target)]);
    }
    table.print("Figure 12: accuracy & convergence vs fanout (a) and sample rate (b), Arxiv-class");
    let best_of = |sampling| best_acc(results.iter().filter(|r| r.0 == sampling).map(|r| &r.2));
    println!(
        "Best fanout accuracy {:.3} vs best rate accuracy {:.3}",
        best_of("fanout"),
        best_of("rate")
    );
}

/// Table 7 — prediction accuracy of low- vs high-degree vertices under
/// different fanouts (Arxiv-class).
///
/// Paper result: as fanout grows, low-degree-vertex accuracy *falls*
/// slightly while high-degree-vertex accuracy *rises* — fixed fanouts fit
/// neither population, motivating the hybrid sampler of Table 8.
pub fn tab7_degree_accuracy() {
    let g = one_graph_slim(DatasetId::OgbArxiv, SCALE_TRAIN, TRAIN_FEAT_DIM, 42);
    let (low_all, high_all) = stats::degree_classes(&g.inn);
    // Evaluate on validation+test vertices of each degree class.
    let val: BTreeSet<u32> = g.val_vertices().into_iter().chain(g.test_vertices()).collect();
    let low: Vec<u32> = low_all.into_iter().filter(|v| val.contains(v)).collect();
    let high: Vec<u32> = high_all.into_iter().filter(|v| val.contains(v)).collect();

    let fanouts = [4usize, 8, 16, 32];
    let configs = prep_sweep(fanouts.map(|k| format!("fanout({k},{k})+fixed(256)")));
    let mut table = Table::new(&["fanout", "low_degree_acc", "high_degree_acc"]);
    for (k, cfg) in fanouts.iter().zip(&configs) {
        let dims = [g.feat_dim(), TRAIN_HIDDEN, g.num_classes];
        let mut model = GnnModel::new(TRAIN_MODEL.agg(), &dims, TRAIN_SEED);
        let mut opt = Adam::new(TRAIN_LR);
        with_epoch_plan(&g, cfg, TRAIN_SEED, |plan| {
            for e in 0..16 {
                train_epoch(&mut model, &mut opt, &g, plan, e);
            }
        });
        let (low_acc, high_acc) =
            accuracy_by_degree(&full_logits(&model, &g), &g.labels, &low, &high);
        table.row(&[format!("({k},{k})"), f(low_acc), f(high_acc)]);
    }
    table.print("Table 7: accuracy of low/high-degree vertices vs fanout (Arxiv-class)");
}

/// Table 8 — fanout-based sampling vs the paper's fanout-rate hybrid
/// (Arxiv-class).
///
/// Paper result: the hybrid (fanout for low-degree vertices, rate for
/// high-degree) matches the best fixed-fanout accuracy (72.1%) while
/// converging ≈ 1.74× faster than fanout (8, 8).
pub fn tab8_hybrid() {
    let g = convergence_graph(DatasetId::OgbArxiv, 42);
    let exp = TrainExperiment::paper(&g, 20);
    let samplers = [
        ("fanout(4,4)", "fanout(4,4)+fixed(256)"),
        ("fanout(8,8)", "fanout(8,8)+fixed(256)"),
        ("fanout(10,15)", "fanout(10,15)+fixed(256)"),
        ("fanout(10,25)", "fanout(10,25)+fixed(256)"),
        ("fanout(32,32)", "fanout(32,32)+fixed(256)"),
        ("hybrid(f=8,r=0.3,thr=24)", "hybrid(8,8;0.3,0.3;thr=24)+fixed(256)"),
    ];
    let results: Vec<_> = samplers
        .iter()
        .zip(prep_sweep(samplers.map(|(_, spec)| spec)))
        .map(|(&(label, _), cfg)| (label, exp.run(&cfg)))
        .collect();
    let target = 0.97 * best_acc(results.iter().map(|(_, r)| r));
    let mut table = Table::new(&["config", "accuracy", "time_to_97%best_s"]);
    for (label, r) in &results {
        table.row(&[(*label).into(), f(r.best_acc), time_to(r, target)]);
    }
    table.print("Table 8: fanout vs fanout-rate hybrid sampling (Arxiv-class)");
}
