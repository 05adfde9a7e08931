//! The design-choice ablations (DESIGN.md §4).

use std::time::Instant;

use gnn_dm_core::results::{f, pct, Table};
use gnn_dm_device::blocks::block_activity;
use gnn_dm_device::cache::{CachePolicy, FeatureCache};
use gnn_dm_device::Bytes;
use gnn_dm_graph::datasets::DatasetId;
use gnn_dm_graph::{Graph, SplitMask};
use gnn_dm_harness::{Axis, GridSpec, Registry, TrainExperiment, PART_SEED};
use gnn_dm_partition::metrics;
use gnn_dm_sampling::sampler::{build_minibatch, NeighborSampler};
use gnn_dm_sampling::BatchSelection;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{best_acc, config, sparse_train_split, sweep, time_to, with_epoch_plan, with_prep};
use crate::{convergence_graph, one_graph, SCALE_LOAD, SCALE_TRANSFER};

/// Ablation 1 — zero-copy bandwidth efficiency vs the extract-load
/// crossover.
///
/// The zero-copy-vs-extract-load verdict hinges on how much of the PCIe
/// bandwidth fine-grained UVA access sustains. This sweep finds the
/// efficiency below which extract-load (gather + full-bandwidth DMA) wins
/// back.
pub fn ablate_zerocopy_eff() {
    let g = one_graph(DatasetId::LiveJournal, SCALE_TRANSFER, 42);
    let base_spec = with_prep("fanout(25,10)+fixed(2048)");
    let base = config(base_spec.clone()).hetero_trainer(&g).run_epoch_model(0);
    let effs = [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let configs = sweep(base_spec, Axis::Transfer, effs.map(|e| format!("zero-copy+eff({e})")));
    let mut table = Table::new(&["zero_copy_efficiency", "zc_epoch_s", "el_epoch_s", "winner"]);
    for (eff, cfg) in effs.iter().zip(&configs) {
        let zc = cfg.hetero_trainer(&g).run_epoch_model(0);
        table.row(&[
            format!("{eff:.1}"),
            format!("{:.4}", zc.makespan),
            format!("{:.4}", base.makespan),
            if zc.makespan < base.makespan { "zero-copy" } else { "extract-load" }.into(),
        ]);
    }
    table.print("Ablation: zero-copy efficiency vs extract-load crossover (LiveJournal-class)");
}

/// Ablation 2 — Metis refinement passes vs edge cut and partitioning time.
pub fn ablate_metis_refine() {
    let g = one_graph(DatasetId::OgbProducts, SCALE_LOAD, 42);
    let passes = [0usize, 1, 2, 4, 8];
    let configs = sweep(
        GridSpec::default(),
        Axis::Partitioner,
        passes.map(|p| format!("metis-raw(refine={p})")),
    );
    let mut table =
        Table::new(&["refine_passes", "edge_cut", "cut_frac", "train_imbalance", "time_s"]);
    for (p, cfg) in passes.iter().zip(&configs) {
        #[expect(clippy::disallowed_methods, reason = "partitioning wall time is this ablation's time_s column")]
        let start = Instant::now();
        let part = cfg.partitioner.build(&g, 4, PART_SEED);
        let elapsed = start.elapsed().as_secs_f64();
        let cut = metrics::edge_cut(&g, &part);
        let imb = metrics::imbalance(&part.train_counts(&g));
        table.row(&[
            p.to_string(),
            cut.to_string(),
            f(cut as f64 / g.num_edges() as f64),
            f(imb),
            f(elapsed),
        ]);
    }
    table.print("Ablation: Metis boundary-refinement passes (Products-class, VE constraints)");
}

/// Ablation 3 — profiling epochs for the pre-sampling cache policy vs hit
/// rate.
///
/// GNNLab's pre-sampling cache needs enough profiling epochs to separate
/// genuinely hot vertices from one-epoch noise; this sweep shows how fast
/// the estimate converges.
pub fn ablate_presample_epochs() {
    let g = sparse_train_split(one_graph(DatasetId::Amazon, SCALE_TRANSFER, 42));
    let epochs = [1usize, 2, 3, 5, 8];
    let base = GridSpec {
        transfer: "zero-copy".to_string(),
        ..with_prep("fanout(10,5)+fixed(128)")
    };
    let configs = sweep(base, Axis::Cache, epochs.map(|e| format!("presample(0.2,{e})")));
    let mut table = Table::new(&["presample_epochs", "hit_rate", "pcie_MiB"]);
    for (e, cfg) in epochs.iter().zip(&configs) {
        let t = cfg.hetero_trainer(&g).run_epoch_model(10);
        table.row(&[
            e.to_string(),
            pct(t.cache_hit_rate),
            format!("{:.1}", t.pcie_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    table.print("Ablation: pre-sampling profiling epochs vs cache hit rate (Amazon-class)");
}

/// Ablation 4 — hybrid-transfer block granularity vs the active-block
/// ratio.
///
/// The paper fixes 256 KB blocks (following Pytorch-direct); this sweep
/// shows how the explicit-suitable ratio depends on that choice: smaller
/// blocks are denser per block (fewer wasted rows), larger blocks dilute
/// activity.
pub fn ablate_block_size() {
    let mut g = one_graph(DatasetId::Reddit, SCALE_TRANSFER, 42);
    g.split = SplitMask::random(g.num_vertices(), 0.05, 0.10, 0.85, 7);
    let g = gnn_dm_graph::relabel::by_label(&g);
    let cfg = config(with_prep("fanout(10,5)+fixed(64)"));
    let mb = with_epoch_plan(&g, &cfg, 3, |plan| plan.first_batch(0))
        .expect("one batch");
    let row_bytes = Bytes(g.features.row_bytes() as u64);
    let mut table =
        Table::new(&["block_KiB", "rows_per_block", "explicit_ratio@0.3", "explicit_ratio@0.6"]);
    for kib in [64u64, 128, 256, 512, 1024] {
        let act = block_activity(mb.input_ids(), g.num_vertices(), row_bytes, Bytes(kib * 1024));
        table.row(&[
            kib.to_string(),
            act.rows_per_block.to_string(),
            pct(act.explicit_ratio(0.3)),
            pct(act.explicit_ratio(0.6)),
        ]);
    }
    table.print("Ablation: hybrid-transfer block size vs explicit-suitable ratio (Reddit-class)");
}

/// Ablation 5 — growth schedule shape for adaptive batch sizing.
///
/// The paper proposes growing the batch but does not study *how* to grow;
/// this sweep compares geometric growth rates and an explicit step table.
pub fn ablate_adaptive_schedule() {
    let g = convergence_graph(DatasetId::Reddit, 42);
    let exp = TrainExperiment::paper(&g, 25);
    let schedules = [
        ("geometric x2 every 3", "fanout(5,5)+adaptive(128,2048,x2,every3)"),
        ("geometric x2 every 1", "fanout(5,5)+adaptive(128,2048,x2,every1)"),
        ("geometric x4 every 3", "fanout(5,5)+adaptive(128,2048,x4,every3)"),
        ("step table", "fanout(5,5)+steps(0:128,4:512,10:2048)"),
    ];
    let results: Vec<_> = schedules
        .iter()
        .zip(sweep(GridSpec::default(), Axis::BatchPrep, schedules.map(|(_, spec)| spec)))
        .map(|(&(label, _), cfg)| (label, exp.run(&cfg)))
        .collect();
    let target = 0.97 * best_acc(results.iter().map(|(_, r)| r));
    let mut table = Table::new(&["schedule", "best_acc", "time_to_97%best_s"]);
    for (label, r) in &results {
        table.row(&[(*label).into(), f(r.best_acc), time_to(r, target)]);
    }
    table.print("Ablation: adaptive batch-size growth schedules (Reddit-class)");
}

/// Ablation 6 — faithful vs optimized streaming-partitioner
/// implementations.
///
/// Lesson 4 of §5.4 blames the streaming partitioners' enormous cost on
/// "high computational costs and inefficient implementation due to low
/// parallelism". This study quantifies the claim: the faithful
/// implementations score candidates with sorted-set intersections (as
/// published); the `_fast` variants replace them with O(1) indexed lookups
/// and produce *identical partitions*.
pub fn ablate_stream_impl() {
    let g = one_graph(DatasetId::OgbProducts, SCALE_LOAD, 42);
    let mut table = Table::new(&["method", "implementation", "time_s", "identical_output"]);
    let timed = |partitioner: &str| {
        let cfg = config(GridSpec { partitioner: partitioner.to_string(), ..GridSpec::default() });
        #[expect(clippy::disallowed_methods, reason = "faithful vs fast wall time is what this ablation compares")]
        let start = Instant::now();
        let p = cfg.partitioner.build(&g, 4, 3);
        (p, start.elapsed().as_secs_f64())
    };
    let mut speedups = Vec::new();
    for (method, stream, lookups) in
        [("Stream-V", "stream-v", "bitmap lookups"), ("Stream-B", "stream-b", "indexed lookups")]
    {
        let (faithful, t_faithful) = timed(&format!("{stream}(faithful)"));
        let (fast, t_fast) = timed(&format!("{stream}(fast)"));
        table.row(&[
            method.into(),
            "faithful (set intersections)".into(),
            format!("{t_faithful:.3}"),
            "-".into(),
        ]);
        table.row(&[
            method.into(),
            format!("optimized ({lookups})"),
            format!("{t_fast:.3}"),
            (faithful == fast).to_string(),
        ]);
        speedups.push(t_faithful / t_fast.max(1e-9));
    }
    table.print("Ablation: streaming partitioner implementation cost (Products-class)");
    println!(
        "Reading: the published algorithms' cost is an implementation artifact —\n\
         indexed variants produce identical partitions {:.0}x / {:.0}x faster.",
        speedups[0], speedups[1]
    );
}

/// Hit rate of `policy` at its ratio of the vertices over one epoch of
/// 128-seed batches drawn by `sampler`.
fn hit_rate(g: &Graph, sampler: &(dyn NeighborSampler + Sync), policy: Option<CachePolicy>) -> f64 {
    let ratio = policy.map_or(0.0, |p| p.ratio());
    let capacity = (g.num_vertices() as f64 * ratio) as usize;
    let batches = BatchSelection::Random.select(&g.train_vertices(), 128, 1, 0);
    // Profiling epochs for the pre-sampling policy (skipped by degree).
    let mut cache = FeatureCache::build(policy, g, capacity, |tracker, epochs| {
        #[expect(clippy::disallowed_methods, reason = "the profiling epochs draw one serial stream from a fixed seed; no parallel unit draws from it")]
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..epochs {
            for seeds in &batches {
                tracker.record_batch(&build_minibatch(&g.inn, seeds, sampler, &mut rng));
            }
        }
    });
    // Measured epoch.
    #[expect(clippy::disallowed_methods, reason = "the measured epoch draws one serial stream from a fixed seed; no parallel unit draws from it")]
    let mut rng = StdRng::seed_from_u64(7);
    for seeds in &batches {
        cache.filter_misses(build_minibatch(&g.inn, seeds, sampler, &mut rng).input_ids());
    }
    cache.hit_rate()
}

/// Ablation 7 — cache policies under importance sampling.
///
/// §7.3.3: "the degree-based caching strategy is only applicable to the
/// uniform vertex sampling algorithm. For special sampling algorithms (such
/// as importance sampling), the degree-based assumption is no longer
/// valid." This run drives the cache with an *inverse-degree* importance
/// sampler (squared inverse degree: a strongly anti-degree access
/// distribution): the degree policy now caches exactly the wrong vertices,
/// while profiling-based caching adapts.
pub fn ablate_importance_cache() {
    let g = sparse_train_split(one_graph(DatasetId::Amazon, SCALE_TRANSFER, 42));
    let reg = Registry::builtin();
    let mut table = Table::new(&["sampler", "policy", "hit_rate@0.2"]);
    for (sname, sampler) in
        [("uniform", "fanout(10,5)"), ("importance (1/deg^2)", "importance(10,5;invdeg2)")]
    {
        let sampler = config(with_prep(&format!("{sampler}+fixed(128)"))).batch_prep.sampler(&g);
        for (pname, cache) in [("degree", "degree(0.2)"), ("sample", "presample(0.2,3)")] {
            let policy = reg.cache(cache).expect("cache specs are in the harness grammar").policy();
            table.row(&[sname.into(), pname.into(), pct(hit_rate(&g, &*sampler, policy))]);
        }
    }
    table.print("Ablation: cache policies under uniform vs importance sampling (Amazon-class)");
}
