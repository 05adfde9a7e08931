//! `cluster_epoch`: the distributed path of §5. Set-up partitions the graph
//! with all six methods (partitioning is pre-processing, so it *is* the
//! set-up time here); an iteration simulates one epoch's load on every
//! partitioning and prices it under twelve fault × policy cells. The loop is
//! `cluster` load simulation (serial per-worker batch construction, the third
//! way `sampling` is used) plus `faults` / `trace` timeline pricing.

use crate::spans::Recorder;
use crate::workload::{IterOut, Layer, Params, Workload};
use gnn_dm_cluster::ledger::{
    comm_ledger_from_spans, compute_ledger_from_spans, retry_bytes_from_spans,
    wasted_bytes_from_spans,
};
use gnn_dm_cluster::sim::TimeModel;
use gnn_dm_cluster::{ClusterSim, EpochLoadReport};
use gnn_dm_faults::{FaultPlan, ResiliencePolicy};
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::Graph;
use gnn_dm_harness::Registry;
use gnn_dm_partition::{metrics, partition_graph, GnnPartitioning, PartitionMethod};
use gnn_dm_sampling::FanoutSampler;
use gnn_dm_trace::TailStats;

const VERTICES: usize = 20_000;
const WORKERS: usize = 4;
const PARTITION_SEED: u64 = 7;
const BATCH_SIZE: usize = 512;
const HIDDEN: usize = 128;
const PARAM_BYTES: u64 = 1_000_000;
const FAULTS: [&str; 3] = ["none", "uniform(13,0.1)", "uniform(13,0.5)"];
const POLICIES: [&str; 4] = [
    "none",
    "hedge(1.5)",
    "deadline(0.05,ckpt)",
    "hedge(1.5)+redispatch(0.5)+stale(4)",
];
/// Position of `hedge(1.5)` in `POLICIES`.
const HEDGE: usize = 1;

/// The six partitioners in `PartitionMethod::all()` order: span name,
/// seconds metric, edge-cut metric.
pub const PARTITIONERS: [(&str, &str, &str); 6] = [
    (
        "partition.hash",
        "partition.hash_s",
        "partition.hash_edge_cut",
    ),
    (
        "partition.metis_v",
        "partition.metis_v_s",
        "partition.metis_v_edge_cut",
    ),
    (
        "partition.metis_ve",
        "partition.metis_ve_s",
        "partition.metis_ve_edge_cut",
    ),
    (
        "partition.metis_vet",
        "partition.metis_vet_s",
        "partition.metis_vet_edge_cut",
    ),
    (
        "partition.stream_v",
        "partition.stream_v_s",
        "partition.stream_v_edge_cut",
    ),
    (
        "partition.stream_b",
        "partition.stream_b_s",
        "partition.stream_b_edge_cut",
    ),
];

pub fn graph(p: &Params, rec: &mut Recorder) -> Graph {
    rec.span("graph.generate", |_| {
        DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(p.scaled(VERTICES), p.seed)
    })
}

#[derive(Default)]
struct Counters {
    batches: u64,
    remote_bytes: u64,
    cells_faulted: u64,
    wasted_bytes: u64,
    retry_bytes: u64,
    export_bytes: u64,
    exported_spans: u64,
}

pub struct Cluster<'g> {
    graph: &'g Graph,
    seed: u64,
    parts: Vec<GnnPartitioning>,
    time_model: TimeModel,
    faults: Vec<FaultPlan>,
    policies: Vec<ResiliencePolicy>,
    sampler: FanoutSampler,
    /// Load reports and cell makespans of the plain iteration just run.
    last: Vec<(EpochLoadReport, Vec<f64>)>,
    edge_cuts: Vec<usize>,
    counters: Counters,
}

pub fn build<'g>(graph: &'g Graph, p: &Params, rec: &mut Recorder) -> Cluster<'g> {
    let parts: Vec<GnnPartitioning> = PartitionMethod::all()
        .into_iter()
        .zip(PARTITIONERS)
        .map(|(m, (span, ..))| {
            rec.span(span, |_| partition_graph(graph, m, WORKERS, PARTITION_SEED))
        })
        .collect();
    // Counts that repeat exactly; only the traced run reports them.
    let edge_cuts = if rec.enabled() {
        parts
            .iter()
            .map(|part| metrics::edge_cut(graph, part))
            .collect()
    } else {
        Vec::new()
    };
    let registry = rec.span("harness.registry", |_| Registry::builtin());
    let (faults, policies) = rec.span("harness.resolve", |_| {
        let faults = FAULTS
            .iter()
            .map(|s| registry.faults(s).map(|f| f.plan()))
            .collect();
        let policies = POLICIES
            .iter()
            .map(|s| registry.resilience(s).map(|r| r.policy()))
            .collect();
        let expect = "the benchmark's specs are builtin registry forms";
        (
            Result::<Vec<_>, _>::expect(faults, expect),
            Result::<Vec<_>, _>::expect(policies, expect),
        )
    });
    Cluster {
        graph,
        seed: p.seed,
        parts,
        time_model: TimeModel::paper_default(graph.feat_dim(), HIDDEN, PARAM_BYTES),
        faults,
        policies,
        sampler: FanoutSampler::new(vec![25, 10]),
        last: Vec::new(),
        edge_cuts,
        counters: Counters::default(),
    }
}

fn out_of(cells: &[(EpochLoadReport, Vec<f64>)]) -> IterOut {
    IterOut {
        modelled_s: cells.iter().flat_map(|(_, m)| m).sum(),
        items: cells
            .iter()
            .map(|(r, _)| r.num_batches.iter().sum::<usize>() as u64)
            .sum(),
        bits: cells
            .iter()
            .flat_map(|(_, m)| m.iter().map(|x| x.to_bits()))
            .collect(),
    }
}

impl Cluster<'_> {
    fn sim<'a>(&'a self, part: &'a GnnPartitioning) -> ClusterSim<'a> {
        ClusterSim {
            graph: self.graph,
            part,
            batch_size: BATCH_SIZE,
            seed: self.seed,
        }
    }
}

impl Workload for Cluster<'_> {
    fn iter_plain(&mut self, e: usize) -> IterOut {
        let mut cells = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let sim = self.sim(part);
            let report = sim.simulate_epoch(&self.sampler, e);
            let mut makespans = Vec::with_capacity(FAULTS.len() * POLICIES.len());
            for plan in &self.faults {
                for policy in &self.policies {
                    let tl =
                        sim.epoch_timeline_resilient(&report, &self.time_model, plan, e, policy);
                    makespans.push(tl.makespan());
                }
            }
            cells.push((report, makespans));
        }
        self.last = cells;
        out_of(&self.last)
    }

    fn iter_traced(&mut self, e: usize, rec: &mut Recorder, replay: bool) -> IterOut {
        let mut counters = std::mem::take(&mut self.counters);
        let c = &mut counters;
        let tm = &self.time_model;
        let mut cells = Vec::with_capacity(self.parts.len());
        for (pi, part) in self.parts.iter().enumerate() {
            let sim = self.sim(part);
            // `simulate_epoch` is this call with the accounting spans dropped.
            let (report, spans) = rec.span("cluster.simulate_epoch", |_| {
                sim.simulate_epoch_traced(&self.sampler, e)
            });
            c.batches += report.num_batches.iter().sum::<usize>() as u64;
            c.remote_bytes += report.comm.total_volume();
            if replay {
                // The reductions that must rebuild the epoch's ledgers exactly.
                let rebuilt = rec.replay("cluster.reduce", |_| {
                    (
                        compute_ledger_from_spans(&spans, WORKERS),
                        comm_ledger_from_spans(&spans, WORKERS),
                    )
                });
                assert!(
                    rebuilt.0 == report.compute && rebuilt.1 == report.comm,
                    "span reductions differ from the epoch's ledgers"
                );
            }
            let mut makespans = Vec::with_capacity(FAULTS.len() * POLICIES.len());
            for plan in &self.faults {
                let name = if plan.is_none() {
                    "cluster.timeline_healthy"
                } else {
                    "cluster.timeline_faulted"
                };
                c.cells_faulted += if plan.is_none() {
                    0
                } else {
                    POLICIES.len() as u64
                };
                for policy in &self.policies {
                    let tl = rec.span(name, |_| {
                        sim.epoch_timeline_resilient(&report, tm, plan, e, policy)
                    });
                    makespans.push(tl.makespan());
                    if replay {
                        let (wasted, retried) = rec.replay("cluster.reduce", |_| {
                            (
                                wasted_bytes_from_spans(&tl, WORKERS),
                                retry_bytes_from_spans(&tl, WORKERS),
                            )
                        });
                        c.wasted_bytes += wasted.iter().sum::<u64>();
                        c.retry_bytes += retried.iter().sum::<u64>();
                        if pi == 0 && makespans.len() == FAULTS.len() * POLICIES.len() {
                            let json = rec.replay("trace.export", |_| tl.to_chrome_trace());
                            c.export_bytes += json.len() as u64;
                            c.exported_spans += tl.len() as u64;
                        }
                    }
                }
            }
            cells.push((report, makespans));
        }
        if replay {
            let all: Vec<f64> = cells.iter().flat_map(|(_, m)| m.iter().copied()).collect();
            rec.replay("trace.tailstats", |_| {
                std::hint::black_box(TailStats::from_samples(&all));
            });
        }
        self.counters = counters;
        out_of(&cells)
    }

    /// One check per (partitioning, fault, policy) cell: the healthy
    /// unprotected cell equals `epoch_time`, the faulted unprotected cells
    /// equal the closed form, and on the hedged cells the wasted bytes read
    /// off the spans equal the policy outcome's; every makespan is finite.
    fn check_iter(&mut self, e: usize) -> (u64, u64) {
        let tm = &self.time_model;
        let (mut passed, mut total) = (0, 0);
        for (part, (report, makespans)) in self.parts.iter().zip(&self.last) {
            let sim = self.sim(part);
            for (fi, plan) in self.faults.iter().enumerate() {
                for (pi, policy) in self.policies.iter().enumerate() {
                    let got = makespans[fi * POLICIES.len() + pi];
                    let mut ok = got.is_finite() && got > 0.0;
                    if policy.is_none() {
                        let want = if plan.is_none() {
                            sim.epoch_time(report, tm)
                        } else {
                            sim.epoch_time_faulted_closed_form(report, tm, plan, e)
                        };
                        ok &= got.to_bits() == want.to_bits();
                    }
                    if pi == HEDGE {
                        let tl = sim.epoch_timeline_resilient(report, tm, plan, e, policy);
                        let wasted: u64 = wasted_bytes_from_spans(&tl, WORKERS).iter().sum();
                        let outcome = sim.resilience_with_policy(report, tm, plan, e, policy);
                        ok &= wasted == outcome.wasted_bytes;
                    }
                    passed += u64::from(ok);
                    total += 1;
                }
            }
        }
        (passed, total)
    }

    /// `quality` is the share of (iteration, cell) checks passed.
    fn finish(&mut self, checks_passed: f64) -> (f64, Vec<String>) {
        (checks_passed, Vec::new())
    }

    fn layer_counters(&self, layer: &mut Layer) {
        let c = &self.counters;
        for ((.., metric), cut) in PARTITIONERS.iter().zip(&self.edge_cuts) {
            layer.insert(metric, *cut as f64);
        }
        layer.insert("harness.configs", (FAULTS.len() + POLICIES.len()) as f64);
        layer.insert("cluster.batches", c.batches as f64);
        layer.insert("cluster.remote_bytes", c.remote_bytes as f64);
        layer.insert("faults.cells_faulted", c.cells_faulted as f64);
        layer.insert("faults.wasted_bytes", c.wasted_bytes as f64);
        layer.insert("faults.retry_bytes", c.retry_bytes as f64);
        layer.insert("trace.export_bytes", c.export_bytes as f64);
        layer.insert("trace.spans", c.exported_spans as f64);
    }
}
