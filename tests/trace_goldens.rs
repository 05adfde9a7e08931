//! Golden tests for the span-timeline engine: the closed-form cost models
//! and the timeline replay must agree BITWISE, the ledgers must be exact
//! reductions of the accounting spans (span conservation), and the
//! Chrome-trace export must be byte-identical across runs and thread
//! counts.

use gnn_dm::cluster::ledger::{comm_ledger_from_spans, compute_ledger_from_spans};
use gnn_dm::cluster::sim::{ClusterSim, TimeModel};
use gnn_dm::device::pipeline::{makespan, replay_epoch, BatchMeta, PipelineMode};
use gnn_dm::faults::{FaultPlan, ResiliencePolicy};
use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::graph::Graph;
use gnn_dm::harness::{Registry, SystemConfig};
use gnn_dm::par::with_threads;
use gnn_dm::partition::{partition_graph, PartitionMethod};
use gnn_dm::sampling::FanoutSampler;
use gnn_dm::trace::units::Bytes;
use gnn_dm::trace::{Resource, SpanKind};

mod common;
use common::{jagged_batches, makespan_closed_form, MODES};

const HEALTHY: (FaultPlan, ResiliencePolicy) = (FaultPlan::none(), ResiliencePolicy::none());

/// The healthy replay against the test-side recurrences, which contain no
/// fault code path that could fire: the neutral plan plans no failure.
#[test]
fn makespan_replay_matches_closed_form_bitwise() {
    let (plan, policy) = HEALTHY;
    for seed in [1u64, 7, 42] {
        for n in [0usize, 1, 2, 13, 100] {
            let batches = jagged_batches(n, seed);
            for mode in MODES {
                let replayed = makespan(&batches, mode);
                let closed = makespan_closed_form(&batches, mode, &plan, 0, &policy);
                assert_eq!(
                    replayed.to_bits(),
                    closed.to_bits(),
                    "mode {mode:?}, n={n}, seed={seed}: replay {replayed} vs closed {closed}"
                );
            }
        }
    }
}

#[test]
fn replay_timeline_accounts_every_stage_second() {
    let batches = jagged_batches(40, 5);
    let metas: Vec<BatchMeta> = (0..40)
        .map(|i| BatchMeta { gather: 0.001, bytes: Bytes(1000 + i), edges: 10 * i })
        .collect();
    let (plan, policy) = HEALTHY;
    for mode in MODES {
        let tl = replay_epoch(&batches, &metas, mode, &plan, 0, &policy);
        // 40 batches × (BP + Gather + Transfer + NN) spans.
        assert_eq!(tl.len(), 160);
        let bp: f64 = batches.iter().map(|b| b.bp).sum();
        let dt: f64 = batches.iter().map(|b| b.dt).sum();
        let nn: f64 = batches.iter().map(|b| b.nn).sum();
        assert!((tl.busy(Resource::CpuSampler) - bp).abs() < 1e-9);
        assert!((tl.busy(Resource::PcieLink) - dt).abs() < 1e-9);
        assert!((tl.busy(Resource::GpuCompute) - nn).abs() < 1e-9);
        let bytes: Bytes = metas.iter().map(|m| m.bytes).sum();
        assert_eq!(tl.bytes_on(Resource::PcieLink), bytes);
        assert_eq!(tl.summary().makespan.to_bits(), tl.makespan().to_bits());
    }
}

fn cluster_graph() -> Graph {
    planted_partition(&PplConfig {
        n: 1200,
        avg_degree: 9.0,
        num_classes: 5,
        homophily: 0.85,
        skew: 0.6,
        feat_dim: 24,
        ..Default::default()
    })
}

#[test]
fn cluster_span_conservation_at_any_thread_count() {
    let g = cluster_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sampler = FanoutSampler::new(vec![8, 4]);
    let run = || {
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
        sim.simulate_epoch_traced(&sampler, 0)
    };
    let (serial_report, serial_tl) = with_threads(1, run);
    assert!(serial_report.comm.total_volume() > 0);

    // Conservation: the ledgers are exact reductions of the spans.
    assert_eq!(compute_ledger_from_spans(&serial_tl, 4), serial_report.compute);
    assert_eq!(comm_ledger_from_spans(&serial_tl, 4), serial_report.comm);
    let span_bytes: Bytes = serial_tl
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::SubgraphSend | SpanKind::FeatureSend))
        .map(|s| s.meta.bytes)
        .sum();
    assert_eq!(span_bytes.0, serial_report.comm.total_volume());

    // Bitwise thread-count invariance, down to the exported JSON bytes.
    let serial_json = serial_tl.to_chrome_trace();
    for threads in [2usize, 8] {
        let (report, tl) = with_threads(threads, run);
        assert_eq!(report, serial_report, "threads={threads} report diverged");
        assert_eq!(
            tl.to_chrome_trace(),
            serial_json,
            "threads={threads} chrome trace diverged"
        );
    }
    // And across repeated runs in the same process.
    assert_eq!(with_threads(1, run).1.to_chrome_trace(), serial_json);
}

/// The healthy replay against the policy-free oracle: under the neutral
/// plan the oracle's retry, checkpoint and crash terms are all absent, so
/// what is compared is `max` over workers of sample + exchange + NN plus
/// the all-reduces.
#[test]
fn cluster_epoch_time_matches_closed_form_bitwise() {
    let g = cluster_graph();
    let tm = TimeModel::paper_default(24, 64, 50_000);
    let (plan, policy) = HEALTHY;
    for method in [PartitionMethod::Hash, PartitionMethod::MetisV, PartitionMethod::StreamV] {
        let part = partition_graph(&g, method, 4, 11);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
        let sampler = FanoutSampler::new(vec![8, 4]);
        let report = sim.simulate_epoch(&sampler, 0);
        let replayed = sim.epoch_time(&report, &tm);
        let closed = sim.epoch_time_faulted_closed_form(&report, &tm, &plan, 0);
        assert_eq!(replayed.to_bits(), closed.to_bits(), "{method:?}");
        // The epoch timeline's all-reduce span ends the epoch.
        let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, 0, &policy);
        let last = tl.spans().iter().find(|s| s.kind == SpanKind::AllReduce);
        assert!(last.is_some_and(|s| s.t_end.to_bits() == replayed.to_bits()));
    }
}

/// The faulted timeline and the policy-free oracle fold in the same
/// order, so they agree bitwise across seeds and fault rates — and a
/// constructed zero-rate plan lands on the healthy epoch time.
#[test]
fn faulted_cluster_epoch_time_matches_closed_form_bitwise() {
    let g = cluster_graph();
    let tm = TimeModel::paper_default(24, 64, 50_000);
    let unprotected = ResiliencePolicy::none();
    for method in [PartitionMethod::Hash, PartitionMethod::MetisV] {
        let part = partition_graph(&g, method, 4, 11);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
        let sampler = FanoutSampler::new(vec![8, 4]);
        let report = sim.simulate_epoch(&sampler, 0);
        let replay = |plan: &FaultPlan, epoch| {
            sim.epoch_timeline_resilient(&report, &tm, plan, epoch, &unprotected).makespan()
        };
        for seed in [1u64, 9, 33] {
            for rate in [0.0, 0.1, 0.3, 0.8] {
                let plan = FaultPlan::uniform(seed, rate);
                for epoch in [0usize, 3] {
                    let replayed = replay(&plan, epoch);
                    let closed = sim.epoch_time_faulted_closed_form(&report, &tm, &plan, epoch);
                    assert_eq!(
                        replayed.to_bits(),
                        closed.to_bits(),
                        "{method:?} seed={seed} rate={rate} epoch={epoch}"
                    );
                }
            }
        }
        let zero = replay(&FaultPlan::uniform(1, 0.0), 0);
        assert_eq!(sim.epoch_time(&report, &tm).to_bits(), zero.to_bits(), "{method:?}");
    }
}

/// The device pipeline against the test-side oracle under faults: failed
/// attempts (retry + backoff, or the hedge deadline when that is earlier)
/// at every mode, seed, rate and policy — and, as the name says, the
/// neutral plan at a non-zero epoch against the healthy recurrence.
#[test]
fn faulted_pipeline_makespan_none_plan_matches_closed_form_bitwise() {
    let mut failures = 0;
    let mut hedges = 0;
    for seed in [2u64, 19] {
        let batches = jagged_batches(35, seed);
        for mode in MODES {
            let (none, unprotected) = HEALTHY;
            let healthy = makespan_closed_form(&batches, mode, &none, 0, &unprotected);
            let neutral = replay_epoch(&batches, &[], mode, &none, 6, &unprotected).makespan();
            assert_eq!(neutral.to_bits(), healthy.to_bits(), "{mode:?} seed={seed}");
            for rate in [0.0, 0.1, 0.3, 0.8] {
                let plan = FaultPlan::uniform(seed, rate);
                for policy in [unprotected, ResiliencePolicy::hedged(1.5)] {
                    let tl = replay_epoch(&batches, &[], mode, &plan, 6, &policy);
                    let closed = makespan_closed_form(&batches, mode, &plan, 6, &policy);
                    assert_eq!(
                        tl.makespan().to_bits(),
                        closed.to_bits(),
                        "{mode:?} seed={seed} rate={rate} {policy:?}"
                    );
                    let count = |kind| tl.spans().iter().filter(|s| s.kind == kind).count();
                    failures += count(SpanKind::Retry);
                    hedges += count(SpanKind::Hedge);
                }
            }
        }
    }
    assert!(failures > 0 && hedges > 0, "the sweep exercised {failures} retries, {hedges} hedges");
}

#[test]
fn trainer_epoch_bytes_live_on_the_timeline() {
    let g = planted_partition(&PplConfig {
        n: 2000,
        avg_degree: 12.0,
        num_classes: 6,
        feat_dim: 64,
        skew: 0.8,
        ..Default::default()
    });
    let reg = Registry::builtin();
    for transfer in ["extract-load", "zero-copy+pipe(full)"] {
        let id = format!("hash/fanout(10,5)+fixed(256)/{transfer}/none/single/none/none");
        let cfg = SystemConfig::from_id(&reg, &id).expect("trainer ids resolve");
        let mut trainer = cfg.hetero_trainer(&g);
        let (timings, tl) = trainer.run_epoch_traced(0);
        // The reported byte total IS the timeline's PCIe-lane byte total.
        assert_eq!(timings.pcie_bytes, tl.bytes_on(Resource::PcieLink).0);
        assert_eq!(timings.pcie_bytes, tl.total_bytes().0);
        assert!(timings.pcie_bytes > 0);
        // Stage-total seconds are lane busy times.
        assert_eq!(timings.bp.to_bits(), tl.busy(Resource::CpuSampler).to_bits());
        assert_eq!(timings.dt.to_bits(), tl.busy(Resource::PcieLink).to_bits());
        assert_eq!(timings.nn.to_bits(), tl.busy(Resource::GpuCompute).to_bits());
        // Export is stable across identical runs.
        let mut again = cfg.hetero_trainer(&g);
        let (_, tl2) = again.run_epoch_traced(0);
        assert_eq!(tl.to_chrome_trace(), tl2.to_chrome_trace());
    }
}

#[test]
fn chrome_trace_is_valid_and_deterministic() {
    let batches = jagged_batches(6, 3);
    let metas: Vec<BatchMeta> = (0..6)
        .map(|i| BatchMeta { gather: 0.002, bytes: Bytes(512 * (i + 1)), edges: 7 * i })
        .collect();
    let (plan, policy) = HEALTHY;
    let replay = || replay_epoch(&batches, &metas, PipelineMode::Full, &plan, 0, &policy);
    let tl = replay();
    let json = tl.to_chrome_trace();
    assert_eq!(json, replay().to_chrome_trace());
    // Structural sanity without a JSON parser: balanced brackets, the
    // trace-event envelope, one duration event per span, lane metadata.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), tl.len());
    assert!(json.contains("\"cpu.sampler\""));
    assert!(json.contains("\"pcie.link\""));
    assert!(json.contains("\"gpu.compute\""));
    assert!(json.contains("\"process_name\""));
}
