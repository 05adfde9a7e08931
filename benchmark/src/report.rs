//! The metric tables — names and units exactly as `BENCHMARK.json` lists
//! them — and the arithmetic that turns a run's loop result, spans and
//! counters into their values.

use crate::cluster::PARTITIONERS;
use crate::probes::{mean, median, quantile, Yardstick};
use crate::spans::Totals;
use crate::workload::{Kind, Layer, LoopResult, REPLAY_EVERY};

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off; all are reported on every workload. The loop's speed is
/// bounded as a ratio to the yardstick, not in seconds, because the
/// reference host is shared: no statistic of the iteration seconds repeats
/// there to better than 15–30 % (README, "Host noise").
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("epoch_rel", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("quality", "ratio"),
    ("modelled_s", "sim_s"),
];

/// Per-layer metrics (layer = crate name), from the traced run. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("graph.generate_s", "s"),
    ("graph.edges", "count"),
    ("graph.feature_bytes", "bytes"),
    ("graph.edges_per_s", "1/s"),
    ("partition.hash_s", "s"),
    ("partition.metis_v_s", "s"),
    ("partition.metis_ve_s", "s"),
    ("partition.metis_vet_s", "s"),
    ("partition.stream_v_s", "s"),
    ("partition.stream_b_s", "s"),
    ("partition.hash_edge_cut", "count"),
    ("partition.metis_v_edge_cut", "count"),
    ("partition.metis_ve_edge_cut", "count"),
    ("partition.metis_vet_edge_cut", "count"),
    ("partition.stream_v_edge_cut", "count"),
    ("partition.stream_b_edge_cut", "count"),
    ("sampling.batches_s", "s"),
    ("sampling.batches", "count"),
    ("sampling.edges_drawn", "count"),
    ("sampling.input_vertices", "count"),
    ("sampling.edges_per_s", "1/s"),
    ("sampling.dedup_ratio", "ratio"),
    ("nn.gather_s", "s"),
    ("nn.gather_bytes", "bytes"),
    ("nn.gather_gbps", "GB/s"),
    ("nn.gather_roof_frac", "ratio"),
    ("nn.forward_s", "s"),
    ("nn.agg_fwd_s", "s"),
    ("nn.loss_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.agg_bwd_s", "s"),
    ("nn.optim_s", "s"),
    ("nn.eval_s", "s"),
    ("nn.other_s", "s"),
    ("nn.steps", "count"),
    ("nn.epochs_to_target", "count"),
    ("nn.final_loss", "loss"),
    ("tensor.gemm_fwd_s", "s"),
    ("tensor.gemm_bwd_s", "s"),
    ("tensor.gemm_flops", "flop"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.copy_gbps", "GB/s"),
    ("tensor.gemm_roof_frac", "ratio"),
    ("par.threads", "count"),
    ("par.dispatch_us", "us"),
    ("par.cpu_over_wall", "ratio"),
    ("device.trainer_build_s", "s"),
    ("device.run_epoch_s", "s"),
    ("device.pricing_self_s", "s"),
    ("device.batches_priced", "count"),
    ("device.cache_hit_rate", "ratio"),
    ("device.pcie_bytes", "bytes"),
    ("device.spans", "count"),
    ("cluster.simulate_epoch_s", "s"),
    ("cluster.timeline_s", "s"),
    ("cluster.reduce_s", "s"),
    ("cluster.batches", "count"),
    ("cluster.batches_per_s", "1/s"),
    ("cluster.remote_bytes", "bytes"),
    ("faults.cells_faulted", "count"),
    ("faults.timeline_ratio", "ratio"),
    ("faults.wasted_bytes", "bytes"),
    ("faults.retry_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.export_s", "s"),
    ("trace.export_bytes", "bytes"),
    ("trace.tailstats_s", "s"),
    ("core.loop_other_s", "s"),
    ("core.epoch_s_p50", "s"),
    ("core.epoch_s_p90", "s"),
    ("core.epoch_drift_ratio", "ratio"),
    ("harness.registry_s", "s"),
    ("harness.resolve_s", "s"),
    ("harness.configs", "count"),
    ("bench.epoch_rel", "ratio"),
    ("bench.yardstick_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_iterations", "count"),
    ("bench.spans", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median iteration time in yardsticks (median yardstick pass).
fn epoch_rel(r: &LoopResult) -> f64 {
    ratio(median(&r.iter_s), median(&r.yardstick_s))
}

/// End-to-end metric values, in `END_TO_END` order. `setups` holds each
/// set-up's wall seconds and the yardstick seconds measured around it;
/// `setup_s` is the median set-up in seconds at the quiet host's speed.
pub fn end_to_end(setups: &[(f64, f64)], r: &LoopResult, peak_rss_mb: f64) -> Vec<f64> {
    let at_quiet_speed: Vec<f64> = setups
        .iter()
        .map(|(wall, yard)| wall * ratio(Yardstick::QUIET_SECONDS, *yard))
        .collect();
    vec![
        median(&at_quiet_speed),
        epoch_rel(r),
        peak_rss_mb,
        r.quality,
        r.modelled_s,
    ]
}

/// The loop in seconds, host noise and drift included: printed by every
/// end-to-end run, bounded by nothing.
pub fn loop_summary(setups: &[(f64, f64)], r: &LoopResult) -> String {
    let raw: Vec<f64> = setups.iter().map(|(wall, _)| *wall).collect();
    format!(
        "  wall: set-up {:.6} s; loop min {:.6} s, p50 {:.6} s, p90 {:.6} s, {:.1} items/s, last-10 / first-10 {:.3}, yardstick {:.3} ms",
        median(&raw),
        r.iter_s.iter().copied().fold(f64::INFINITY, f64::min),
        quantile(&r.iter_s, 0.5),
        quantile(&r.iter_s, 0.9),
        ratio(r.items as f64, r.iter_s.iter().sum()),
        drift(&r.iter_s),
        median(&r.yardstick_s) * 1e3
    )
}

/// Mean of the last ten iteration times over the mean of the first ten.
fn drift(iter_s: &[f64]) -> f64 {
    let edge = iter_s.len().min(10);
    ratio(mean(&iter_s[iter_s.len() - edge..]), mean(&iter_s[..edge]))
}

/// Inputs of the per-layer report that come from neither spans nor the
/// workload's counters.
pub struct Machine {
    pub threads: usize,
    pub dispatch_us: f64,
    pub peak_gflops: f64,
    pub copy_gbps: f64,
}

/// Fills `layer` (which already holds the workload's counters and the graph
/// counts) with every derived per-layer metric.
pub fn per_layer(kind: Kind, layer: &mut Layer, t: &Totals, r: &LoopResult, m: &Machine) {
    let get = |layer: &Layer, name: &str| layer.get(name).copied().unwrap_or(0.0);
    // Replays run on every REPLAY_EVERY-th iteration; their totals are
    // scaled up to the whole run.
    let replayed = r.iterations.div_ceil(REPLAY_EVERY);
    let by_iteration = ratio(r.iterations as f64, replayed as f64);
    let by_step = ratio(get(layer, "nn.steps"), get(layer, "nn.replayed_steps"));

    layer.insert("graph.generate_s", t.real_s("graph.generate"));
    layer.insert(
        "graph.edges_per_s",
        ratio(get(layer, "graph.edges"), t.real_s("graph.generate")),
    );
    for (span, seconds, _) in PARTITIONERS {
        layer.insert(seconds, t.real_s(span));
    }

    // `sampling`: a real span on `mb_*`, a replay beside the trainers on
    // `hetero_transfer` (counters and seconds scale together there).
    let (batches_s, count_scale) = if kind == Kind::HeteroTransfer {
        (t.replay_s("sampling.batches") * by_iteration, by_iteration)
    } else {
        (t.real_s("sampling.batches"), 1.0)
    };
    for name in [
        "sampling.batches",
        "sampling.edges_drawn",
        "sampling.input_vertices",
        "sampling.seeds",
    ] {
        let scaled = get(layer, name) * count_scale;
        layer.insert(name, scaled);
    }
    layer.insert("sampling.batches_s", batches_s);
    layer.insert(
        "sampling.edges_per_s",
        ratio(get(layer, "sampling.edges_drawn"), batches_s),
    );
    let attempted = get(layer, "sampling.edges_drawn") + get(layer, "sampling.seeds");
    layer.insert(
        "sampling.dedup_ratio",
        ratio(get(layer, "sampling.input_vertices"), attempted),
    );

    for (metric, span) in [
        ("nn.gather_s", "nn.gather"),
        ("nn.forward_s", "nn.forward"),
        ("nn.loss_s", "nn.loss"),
        ("nn.backward_s", "nn.backward"),
        ("nn.optim_s", "nn.optim"),
        ("nn.eval_s", "nn.eval"),
        ("device.trainer_build_s", "device.trainer_build"),
        ("device.run_epoch_s", "device.run_epoch"),
        ("cluster.simulate_epoch_s", "cluster.simulate_epoch"),
        ("harness.registry_s", "harness.registry"),
        ("harness.resolve_s", "harness.resolve"),
    ] {
        layer.insert(metric, t.real_s(span));
    }
    let mut kernels_s = 0.0;
    for (metric, span) in [
        ("nn.agg_fwd_s", "nn.agg_fwd"),
        ("nn.agg_bwd_s", "nn.agg_bwd"),
        ("tensor.gemm_fwd_s", "tensor.gemm_fwd"),
        ("tensor.gemm_bwd_s", "tensor.gemm_bwd"),
    ] {
        let s = t.replay_s(span) * by_step;
        kernels_s += s;
        layer.insert(metric, s);
    }
    let gemm_s = get(layer, "tensor.gemm_fwd_s") + get(layer, "tensor.gemm_bwd_s");
    let gemm_flops = get(layer, "tensor.gemm_flops_replayed") * by_step;
    layer.insert("tensor.gemm_flops", gemm_flops);
    layer.insert("tensor.gemm_gflops", ratio(gemm_flops, gemm_s) * 1e-9);
    layer.insert(
        "nn.other_s",
        get(layer, "nn.forward_s") + get(layer, "nn.backward_s") - kernels_s,
    );
    let gather_gbps = ratio(get(layer, "nn.gather_bytes"), get(layer, "nn.gather_s")) * 1e-9;
    layer.insert("nn.gather_gbps", gather_gbps);
    layer.insert("tensor.peak_gflops", m.peak_gflops);
    layer.insert("tensor.copy_gbps", m.copy_gbps);
    layer.insert(
        "tensor.gemm_roof_frac",
        ratio(get(layer, "tensor.gemm_gflops"), m.peak_gflops),
    );
    layer.insert("nn.gather_roof_frac", ratio(gather_gbps, m.copy_gbps));

    layer.insert("par.threads", m.threads as f64);
    layer.insert("par.dispatch_us", m.dispatch_us);
    layer.insert("par.cpu_over_wall", r.cpu_over_wall);

    if kind == Kind::HeteroTransfer {
        layer.insert(
            "device.pricing_self_s",
            get(layer, "device.run_epoch_s") - batches_s,
        );
    }

    let healthy = t
        .real
        .get("cluster.timeline_healthy")
        .copied()
        .unwrap_or_default();
    let faulted = t
        .real
        .get("cluster.timeline_faulted")
        .copied()
        .unwrap_or_default();
    layer.insert("cluster.timeline_s", healthy.total_s + faulted.total_s);
    layer.insert(
        "cluster.reduce_s",
        t.replay_s("cluster.reduce") * by_iteration,
    );
    let traced_loop_s: f64 = r.traced_iter_s.iter().sum();
    layer.insert(
        "cluster.batches_per_s",
        ratio(get(layer, "cluster.batches"), traced_loop_s),
    );
    layer.insert(
        "faults.timeline_ratio",
        ratio(
            ratio(faulted.total_s, faulted.calls as f64),
            ratio(healthy.total_s, healthy.calls as f64),
        ),
    );

    // One export and one tail reduction per replayed iteration, unscaled.
    layer.insert("trace.export_s", t.replay_s("trace.export"));
    layer.insert("trace.tailstats_s", t.replay_s("trace.tailstats"));

    layer.insert("core.loop_other_s", t.real_self_s("iter"));
    layer.insert("core.epoch_s_p50", quantile(&r.iter_s, 0.5));
    layer.insert("core.epoch_s_p90", quantile(&r.iter_s, 0.9));
    layer.insert("core.epoch_drift_ratio", drift(&r.iter_s));

    layer.insert("bench.epoch_rel", epoch_rel(r));
    layer.insert("bench.yardstick_ms", median(&r.yardstick_s) * 1e3);
    layer.insert(
        "bench.trace_overhead_ratio",
        ratio(traced_loop_s, r.iter_s.iter().sum()),
    );
    layer.insert("bench.traced_iterations", r.iterations as f64);
}
