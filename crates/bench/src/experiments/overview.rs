//! The descriptive tables, the motivating breakdown, and the trace export.

use std::fs;

use gnn_dm_cluster::ledger::{comm_ledger_from_spans, compute_ledger_from_spans};
use gnn_dm_core::breakdown::{dnn_breakdown, gnn_breakdown};
use gnn_dm_core::results::{pct, Table};
use gnn_dm_core::taxonomy::{self, PartitionClass, Platform, SampleClass, TrainMethod, TransferClass};
use gnn_dm_graph::datasets::DatasetSpec;
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_harness::{ClusterExperiment, GridSpec};
use gnn_dm_nn::{AggKind, GnnModel};
use gnn_dm_partition::PartitionMethod;

use super::{config, with_prep};
use crate::{named_graphs, one_graph, LABELLED, SCALE_LOAD};

fn platform_name(p: Platform) -> &'static str {
    match p {
        Platform::CpuCluster => "CPU-cluster",
        Platform::MultiGpu => "Multi-GPU",
        Platform::GpuCluster => "GPU-cluster",
        Platform::Serverless => "Serverless",
        Platform::GpuOnly => "GPU-only",
    }
}

fn partition_name(p: PartitionClass) -> &'static str {
    match p {
        PartitionClass::Hash => "Hash",
        PartitionClass::Metis => "Metis",
        PartitionClass::MetisExtend => "Metis-extend",
        PartitionClass::Streaming => "Streaming",
        PartitionClass::HashMetisStreaming => "Hash/Metis/Streaming",
        PartitionClass::MetisHash => "Metis/Hash",
        PartitionClass::NotApplicable => "N/A",
    }
}

/// Tables 1, 2, 3 and 5 — the paper's descriptive tables, printed from the
/// workspace's data structures.
pub fn tables_taxonomy() {
    // Table 1.
    let mut t1 = Table::new(&[
        "year", "system", "platform", "partitioning", "train", "sample", "transfer", "pipe", "cache",
    ]);
    for s in taxonomy::systems() {
        t1.row(&[
            s.year.to_string(),
            s.name.into(),
            platform_name(s.platform).into(),
            partition_name(s.partitioning).into(),
            match s.train {
                TrainMethod::FullBatch => "Full-batch".into(),
                TrainMethod::MiniBatch => "Mini-batch".into(),
            },
            match s.sample {
                SampleClass::FanoutBased => "Fanout".into(),
                SampleClass::RatioBased => "Ratio".into(),
                SampleClass::FanoutOrRatio => "Fanout/Ratio".into(),
                SampleClass::NotApplicable => "N/A".into(),
            },
            match s.transfer {
                TransferClass::ExtractLoad => "Extract-Load".into(),
                TransferClass::GpuDirectAccess => "GPU direct".into(),
                TransferClass::NotApplicable => "N/A".into(),
            },
            if s.pipeline { "yes".into() } else { "no".into() },
            if s.cache { "yes".into() } else { "no".into() },
        ]);
    }
    t1.print("Table 1: representative GNN systems and data management techniques");

    // Table 2.
    let mut t2 = Table::new(&["dataset", "|V|", "|E|", "#F", "#L", "power_law", "real_labels"]);
    for d in DatasetSpec::all() {
        t2.row(&[
            d.name.into(),
            d.full_vertices.to_string(),
            d.full_edges.to_string(),
            d.feat_dim.to_string(),
            d.num_classes.to_string(),
            d.power_law.to_string(),
            d.has_real_labels.to_string(),
        ]);
    }
    t2.print("Table 2: datasets (published statistics; scaled stand-ins generated on demand)");

    // Table 3.
    let mut t3 = Table::new(&["method", "strategy", "system"]);
    let strategies = [
        (PartitionMethod::Hash, "Randomly assign vertices", "P3"),
        (PartitionMethod::MetisV, "Metis + training-vertex balance constraint", "(ablation)"),
        (PartitionMethod::MetisVE, "Metis-V + vertex-degree balance", "DistDGL"),
        (PartitionMethod::MetisVET, "Metis-VE + val/test balance", "SALIENT++"),
        (PartitionMethod::StreamV, "Greedy vertex streaming + L-hop halo cache", "PaGraph"),
        (PartitionMethod::StreamB, "Greedy BFS-block streaming", "ByteGNN"),
    ];
    for (m, s, sys) in strategies {
        t3.row(&[m.name().into(), s.into(), sys.into()]);
    }
    t3.print("Table 3: evaluated partitioning methods");

    // Table 5.
    let mut t5 = Table::new(&["system", "batch_size", "fanouts", "sampling_rate"]);
    for d in taxonomy::default_settings() {
        t5.row(&[
            d.system.into(),
            d.batch_size.map_or("full".into(), |b| b.to_string()),
            if d.fanouts.is_empty() {
                "N/A".into()
            } else {
                d.fanouts
                    .iter()
                    .map(|f| format!("{f:?}"))
                    .collect::<Vec<_>>()
                    .join(" or ")
            },
            d.sampling_rate.map_or("N/A".into(), |r| r.to_string()),
        ]);
    }
    t5.print("Table 5: default batch-size and sampling settings in existing systems");
}

/// Figure 2 — step-level time breakdown of GNN vs DNN training.
///
/// Paper result: data-management steps (batch preparation + data transfer)
/// dominate GNN training (transfer alone 73.4%: 31.2% feature extraction +
/// 42.2% loading), while NN computation dominates DNN training.
pub fn fig2_breakdown() {
    let cfg = config(GridSpec::default());
    let batch = cfg.batch_prep.batch_size(0);
    let fanouts = cfg.batch_prep.fanouts().expect("default prep is fanout-based");
    let mut table = Table::new(&[
        "dataset",
        "workload",
        "partition",
        "batch_prep",
        "transfer",
        "nn_compute",
        "epoch_s",
    ]);
    for (name, g) in named_graphs(&LABELLED, |id| one_graph(id, SCALE_LOAD, 42)) {
        let workloads = [
            ("GNN (GCN 2-layer)", gnn_breakdown(&g, batch, fanouts.clone())),
            ("DNN (MLP 2-layer)", dnn_breakdown(&g, batch, 128)),
        ];
        for (workload, breakdown) in workloads {
            let [p, bp, dt, nn] = breakdown.fractions();
            table.row(&[
                name.into(),
                workload.into(),
                pct(p),
                pct(bp),
                pct(dt),
                pct(nn),
                format!("{:.4}", breakdown.total()),
            ]);
        }
    }
    table.print("Figure 2: time portion of training steps, GNN vs DNN");
}

/// Chrome-trace export: replays one single-node training epoch and one
/// cluster epoch on the span timeline and writes the Chrome trace-event
/// JSON to `results/trace_hetero.json` and `results/trace_cluster.json` —
/// open either in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing` to see every modelled second on its resource lane.
pub fn trace_export() {
    fs::create_dir_all("results").expect("create results/");
    let g = planted_partition(&PplConfig {
        n: 4000,
        avg_degree: 15.0,
        num_classes: 8,
        feat_dim: 128,
        skew: 0.8,
        ..Default::default()
    });

    // Single-node epoch: zero-copy transfer under the full BP/DT/NN
    // pipeline, replayed on the CPU / PCIe / GPU lanes.
    let cfg = config(GridSpec {
        transfer: "zero-copy+pipe(full)".to_string(),
        ..with_prep("fanout(10,5)+fixed(512)")
    });
    let (timings, tl) = cfg.hetero_trainer(&g).run_epoch_traced(0);
    fs::write("results/trace_hetero.json", tl.to_chrome_trace()).expect("write trace_hetero");
    println!(
        "results/trace_hetero.json: {} spans over {} lanes, ideal makespan {:.4}s \
         (contended epoch model {:.4}s, {} PCIe bytes)",
        tl.len(),
        tl.resources().len(),
        tl.makespan(),
        timings.makespan,
        timings.pcie_bytes,
    );
    println!("{}", tl.summary().to_json());

    // Cluster epoch: 4 workers under Metis-V partitioning. The epoch
    // timeline chains Sample -> Exchange -> NN per worker and ends with
    // the gradient all-reduce span.
    let ccfg = config(GridSpec {
        partitioner: "metis-v".to_string(),
        parallel: "cluster(4)".to_string(),
        ..with_prep("fanout(10,5)+fixed(256)")
    });
    let model = GnnModel::new(AggKind::Gcn, &[g.feat_dim(), 128, g.num_classes], 1);
    let exp = ClusterExperiment { param_bytes: model.param_bytes(), ..ClusterExperiment::paper(&g) };
    let part = exp.partition(&ccfg);
    let sampler = ccfg.batch_prep.sampler(&g);
    let sim = exp.sim_with(&part, ccfg.batch_prep.batch_size(0));
    let (report, load_tl) = sim.simulate_epoch_traced(&*sampler, 0);
    let time_tl = sim.epoch_timeline_resilient(
        &report,
        &exp.time_model(),
        &ccfg.faults.plan(),
        0,
        &ccfg.resilience.policy(),
    );
    fs::write("results/trace_cluster.json", time_tl.to_chrome_trace())
        .expect("write trace_cluster");
    println!(
        "results/trace_cluster.json: {} spans, epoch time {:.4}s",
        time_tl.len(),
        time_tl.makespan(),
    );
    println!("{}", time_tl.summary().to_json());

    // Span conservation, demonstrated on the way out: the per-worker
    // ledgers are exact reductions of the accounting spans.
    let k = part.k;
    assert_eq!(compute_ledger_from_spans(&load_tl, k), report.compute);
    assert_eq!(comm_ledger_from_spans(&load_tl, k), report.comm);
    println!(
        "span conservation OK: {} accounting spans reduce to the ledgers \
         ({} sampled-edge units, {} comm bytes)",
        load_tl.len(),
        report.compute.grand_total(),
        report.comm.total_volume(),
    );
}
