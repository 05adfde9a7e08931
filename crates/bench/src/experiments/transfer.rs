//! §7 — data transferring: Figures 13–17.

use gnn_dm_core::results::{f, pct, Table};
use gnn_dm_device::blocks::BlockActivity;
use gnn_dm_device::pipeline::{busy_fractions, BatchStageTimes};
use gnn_dm_graph::datasets::DatasetId;
use gnn_dm_graph::SplitMask;
use gnn_dm_harness::{Axis, GridSpec};

use super::{config, dataset_name, sparse_train_split, sweep, with_prep};
use crate::{named_graphs, one_graph, SCALE_TRANSFER, UNLABELLED};

/// Figure 13 — stacked data-transfer optimizations: Baseline (extract-load,
/// sequential), +Z (zero-copy), +Z+P (zero-copy + pipelining).
///
/// Paper result: zero-copy gives ≈ 1.74× over the baseline on average;
/// pipelining adds ≈ 1.30× more (2.26× total).
pub fn fig13_transfer_opts() {
    let stack = [
        ("Baseline", "extract-load"),
        ("Baseline+Z", "zero-copy"),
        ("Baseline+Z+P", "zero-copy+pipe(full)"),
    ];
    let configs =
        sweep(with_prep("fanout(25,10)+fixed(2048)"), Axis::Transfer, stack.map(|(_, spec)| spec));
    let mut table = Table::new(&["dataset", "config", "epoch_s", "speedup_vs_baseline"]);
    let mut gains_z = Vec::new();
    let mut gains_zp = Vec::new();
    for (name, g) in named_graphs(&UNLABELLED, |id| one_graph(id, SCALE_TRANSFER, 42)) {
        let times: Vec<f64> =
            configs.iter().map(|cfg| cfg.hetero_trainer(&g).run_epoch_model(0).makespan).collect();
        let (base, z, zp) = (times[0], times[1], times[2]);
        gains_z.push(base / z);
        gains_zp.push(base / zp);
        for (&(label, _), t) in stack.iter().zip(&times) {
            table.row(&[
                name.into(),
                label.into(),
                format!("{t:.4}"),
                format!("{:.2}x", base / t),
            ]);
        }
    }
    table.print("Figure 13: transfer optimization stack (extract-load -> zero-copy -> +pipeline)");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "Average gains: +Z = {:.2}x (paper 1.74x), +Z+P = {:.2}x (paper 2.26x).",
        avg(&gains_z),
        avg(&gains_zp)
    );
}

/// Figure 14 — pipeline ablation: No Pipe / Pipeline BP / Pipeline BP+DT.
///
/// Paper result: each added overlap helps, but the total gain stays under
/// ≈ 50% because data transfer remains the bottleneck stage (58.8% /
/// 53.1% of the pipelined epoch on LiveJournal / Lj-links).
pub fn fig14_pipeline_ablation() {
    let configs = sweep(
        with_prep("fanout(25,10)+fixed(2048)"),
        Axis::Transfer,
        ["zero-copy", "zero-copy+pipe(bp)", "zero-copy+pipe(full)"],
    );
    let mut table = Table::new(&["dataset", "mode", "epoch_s", "speedup"]);
    let mut frac_table = Table::new(&["dataset", "bp_busy", "dt_busy", "nn_busy"]);
    for (name, g) in named_graphs(&UNLABELLED, |id| one_graph(id, SCALE_TRANSFER, 42)) {
        let times: Vec<_> = configs
            .iter()
            .map(|cfg| (cfg.transfer.pipeline(), cfg.hetero_trainer(&g).run_epoch_model(0)))
            .collect();
        let base = times[0].1.makespan;
        for (mode, t) in &times {
            table.row(&[
                name.into(),
                mode.name().into(),
                format!("{:.4}", t.makespan),
                format!("{:.2}x", base / t.makespan),
            ]);
        }
        // Bottleneck analysis from the full-pipeline run's stage totals.
        let full = &times[2].1;
        let stages = vec![BatchStageTimes {
            bp: full.bp / full.num_batches as f64,
            dt: full.dt / full.num_batches as f64,
            nn: full.nn / full.num_batches as f64,
        }; full.num_batches];
        let (bp, dt, nn) = busy_fractions(&stages);
        frac_table.row(&[name.into(), pct(bp), pct(dt), pct(nn)]);
    }
    table.print("Figure 14: pipeline ablation");
    frac_table.print("Figure 14 (bottleneck): per-resource busy fraction under full pipelining");
}

/// Figures 15 and 16 read the same thing: the block activity of one
/// 64-seed batch on the Reddit- and LiveJournal-class graphs, without and
/// with the pre-sampling cache filtering the hottest vertices out.
fn for_each_first_batch_activity(mut visit: impl FnMut(&'static str, &str, &BlockActivity)) {
    let cfg = config(GridSpec {
        cache: "presample(0.3,1)".to_string(),
        ..with_prep("fanout(10,5)+fixed(64)")
    });
    for id in [DatasetId::Reddit, DatasetId::LiveJournal] {
        let mut g = one_graph(id, SCALE_TRANSFER, 42);
        g.split = SplitMask::random(g.num_vertices(), 0.05, 0.10, 0.85, 7);
        // Community-correlated vertex ordering, like real datasets
        // (gives the feature array heterogeneous per-block density).
        let g = gnn_dm_graph::relabel::by_label(&g);
        let mut trainer = cfg.hetero_trainer(&g);
        for (label, apply_cache) in [("without", false), ("with", true)] {
            visit(dataset_name(id), label, &trainer.first_batch_activity(0, apply_cache));
        }
    }
}

/// Figure 15 — distribution of active (sampled) vertices across 256 KB
/// feature blocks within one batch, with and without GPU caching.
///
/// Paper result: activity is fragmented across blocks; applying the cache
/// (which removes the hottest vertices from the transfer set) makes the
/// remaining activity even sparser — the reason hybrid transfer stops
/// paying off.
pub fn fig15_active_blocks() {
    let mut table = Table::new(&[
        "dataset",
        "cache",
        "touched_blocks",
        "mean_active_frac",
        "p90_active_frac",
        "max_active_frac",
    ]);
    for_each_first_batch_activity(|name, label, act| {
        let mut fracs: Vec<f64> = (0..act.num_blocks())
            .filter(|&b| act.active[b] > 0)
            .map(|b| act.active_fraction(b))
            .collect();
        fracs.sort_by(f64::total_cmp);
        let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
        let p90 = fracs.get((fracs.len() * 9) / 10).copied().unwrap_or(0.0);
        let max = fracs.last().copied().unwrap_or(0.0);
        table.row(&[
            name.into(),
            label.into(),
            fracs.len().to_string(),
            pct(mean),
            pct(p90),
            pct(max),
        ]);
    });
    table.print("Figure 15: per-block active-vertex fractions in one batch");
}

/// Figure 16 — ratio of blocks suitable for explicit transfer vs the
/// activity threshold, with and without GPU caching.
///
/// Paper result: the explicit-suitable ratio falls sharply as the threshold
/// rises; after caching, even at a high threshold only ≈ 2% of blocks
/// qualify on Reddit — hybrid transfer has nothing left to win.
pub fn fig16_block_threshold() {
    let mut table = Table::new(&["dataset", "cache", "threshold", "explicit_ratio"]);
    for_each_first_batch_activity(|name, label, act| {
        for t in [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
            table.row(&[name.into(), label.into(), format!("{t:.1}"), pct(act.explicit_ratio(t))]);
        }
    });
    table.print("Figure 16: ratio of explicit-transfer-suitable blocks vs threshold");
}

/// Figure 17 — degree-based vs pre-sampling-based GPU caching across cache
/// ratios, on a power-law graph (Amazon-class) and a non-power-law graph
/// (OGB-Papers-class).
///
/// Paper result: on the power-law graph both policies perform comparably;
/// on the flat-degree graph the pre-sampling policy clearly wins — degree
/// is a bad access-frequency proxy when degrees barely vary.
pub fn fig17_cache_policies() {
    let ratios = [0.0f64, 0.1, 0.2, 0.3, 0.4, 0.5];
    let mut table = Table::new(&["dataset", "policy", "cache_ratio", "hit_rate", "epoch_s"]);
    for id in [DatasetId::Amazon, DatasetId::OgbPapers] {
        let g = sparse_train_split(one_graph(id, SCALE_TRANSFER, 42));
        for policy in ["degree", "sample"] {
            for ratio in ratios {
                let cache = if ratio == 0.0 {
                    "none".to_string()
                } else if policy == "degree" {
                    format!("degree({ratio})")
                } else {
                    format!("presample({ratio},3)")
                };
                let cfg = config(GridSpec {
                    transfer: "zero-copy".to_string(),
                    cache,
                    ..with_prep("fanout(10,5)+fixed(128)")
                });
                let t = cfg.hetero_trainer(&g).run_epoch_model(0);
                table.row(&[
                    dataset_name(id).into(),
                    policy.into(),
                    format!("{ratio:.1}"),
                    pct(t.cache_hit_rate),
                    f(t.makespan),
                ]);
            }
        }
    }
    table.print("Figure 17: GPU cache policies across cache ratios");
}
