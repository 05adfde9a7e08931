//! Robustness and failure-injection tests: degenerate inputs that a
//! production library must survive (or reject loudly), across every crate —
//! plus the fault-injection contract of `gnn-dm-faults`: a plan that can
//! inject nothing is a bitwise no-op however it is spelled, fault cost is
//! monotone in the fault rate, and every injected byte/second reduces
//! exactly from the emitted spans. The resilience layer inherits both
//! contracts: a policy whose mechanisms can never fire replays the
//! unprotected timelines bitwise, and armed hedging tightens the `p999`
//! tail while its duplicate traffic stays exactly ledgered.

use gnn_dm::cluster::ledger::{
    checkpoint_bytes_from_spans, comm_ledger_from_spans, hedge_bytes_from_spans, ledger_of,
    redispatch_bytes_from_spans, retry_bytes_from_spans, stale_sync_bytes_from_spans,
    wasted_bytes_from_spans, Ledger,
};
use gnn_dm::cluster::sim::TimeModel;
use gnn_dm::cluster::ClusterSim;
use gnn_dm::core::config::ModelKind;
use gnn_dm::core::convergence::train_single;
use gnn_dm::core::trainer::{HeteroTrainer, HeteroTrainerConfig};
use gnn_dm::device::pipeline::{replay_epoch, BatchMeta};
use gnn_dm::faults::{
    DeadlineAction, DeadlinePolicy, FaultPlan, HedgePolicy, RedispatchPolicy, ResiliencePolicy,
    ResilienceReport, TailStats,
};
use gnn_dm::graph::csr::Csr;
use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::graph::{io, SplitMask};
use gnn_dm::harness::{Axis, Grid, GridSpec, Registry};
use gnn_dm::nn::{AggKind, GnnModel};
use gnn_dm::partition::{partition_graph, PartitionMethod};
use gnn_dm::sampling::sampler::{build_minibatch, FanoutSampler};
use gnn_dm::sampling::epoch::EpochPlan;
use gnn_dm::sampling::{BatchSelection, BatchSizeSchedule};
use gnn_dm::trace::units::{Bytes, Seconds};
use gnn_dm::trace::{Resource, SpanKind, Timeline};

mod common;
use common::{jagged_batches, MODES};

#[test]
fn empty_and_singleton_graphs() {
    let empty = Csr::empty(0);
    assert_eq!(empty.num_vertices(), 0);
    assert!(empty.is_symmetric());
    assert_eq!(empty.transpose().num_vertices(), 0);

    let single = Csr::empty(1);
    assert_eq!(single.neighbors(0), &[] as &[u32]);
    assert_eq!(Csr::from_undirected_edges(1, &[]).num_edges(), 0);
    assert_eq!(Csr::from_undirected_edges(1, &[(0, 0)]).num_edges(), 0);
}

/// A zero-width feature table is a table of empty rows, one per vertex:
/// generation, validation and an I/O round trip accept it, and the hetero
/// trainer prices it under every builtin transfer and cache spec — a
/// zero-byte row fits the cache without limit and one transfer block holds
/// every row, so only topology crosses the bus.
#[test]
fn zero_width_features_are_empty_rows() {
    let g = planted_partition(&PplConfig { n: 60, num_classes: 3, feat_dim: 0, ..Default::default() });
    assert!(g.validate().is_ok());
    assert_eq!((g.features.num_rows(), g.feat_dim()), (60, 0));
    assert_eq!(g.features.row(59), &[] as &[f32]);
    let mut buf = Vec::new();
    io::write_graph(&g, &mut buf).expect("write to a Vec");
    let back = io::read_graph(&mut buf.as_slice()).expect("a zero-width graph reads back");
    assert_eq!((back.features.num_rows(), back.feat_dim()), (60, 0));
    assert_eq!(back.out, g.out);

    let g = planted_partition(&PplConfig { n: 300, num_classes: 3, feat_dim: 0, ..Default::default() });
    let reg = Registry::builtin();
    let configs = Grid::over(GridSpec::default())
        .vary(Axis::Transfer, reg.specs(Axis::Transfer))
        .and_then(|grid| grid.vary(Axis::Cache, reg.specs(Axis::Cache)))
        .and_then(|grid| grid.configs(&reg))
        .expect("builtin specs resolve");
    assert_eq!(configs.len(), 15);
    // Every config shares the batch prep, so one epoch plan gives the
    // topology bytes all of them move.
    let prep = configs[0].hetero_config(&g);
    let train = g.train_vertices();
    let plan = EpochPlan {
        in_csr: &g.inn,
        train: &train,
        selection: &prep.selection,
        schedule: &BatchSizeSchedule::Fixed(prep.batch_size),
        sampler: &FanoutSampler::new(prep.fanouts.clone()),
        seed: prep.seed,
    };
    let topo_bytes: u64 = plan.batches(0).iter().map(|mb| mb.topo_bytes()).sum();
    assert!(topo_bytes > 0);
    for cfg in &configs {
        let t = cfg.hetero_trainer(&g).run_epoch_model(0);
        assert!(t.makespan.is_finite() && t.makespan > 0.0, "{}: makespan {}", cfg.id(), t.makespan);
        assert_eq!(t.pcie_bytes, topo_bytes, "{}: only topology crosses the bus", cfg.id());
    }
}

#[test]
fn isolated_vertices_survive_sampling_and_training() {
    // A graph where many vertices have no edges at all.
    let mut g = planted_partition(&PplConfig {
        n: 200,
        avg_degree: 2.0,
        num_classes: 3,
        feat_dim: 8,
        ..Default::default()
    });
    // Force split so isolated vertices are certainly in train.
    g.split = SplitMask::random(g.num_vertices(), 0.8, 0.1, 0.1, 1);
    let sampler = FanoutSampler::new(vec![4, 4]);
    let mut rng = common::rng(1);
    let isolated: Vec<u32> =
        (0..g.num_vertices() as u32).filter(|&v| g.inn.degree(v) == 0).collect();
    if !isolated.is_empty() {
        let mb = build_minibatch(&g.inn, &isolated, &sampler, &mut rng);
        assert!(mb.validate().is_ok());
        assert_eq!(mb.involved_edges(), 0);
        // Training on isolated seeds must still work (self features only).
        let mut model = GnnModel::new(AggKind::Gcn, &[8, 8, 3], 1);
        let mut opt = gnn_dm::nn::Adam::new(0.01);
        let r = gnn_dm::nn::train::train_step(&mut model, &mut opt, &g, &mb);
        assert!(r.loss.is_finite());
    }
}

#[test]
fn more_partitions_than_meaningful() {
    let g = planted_partition(&PplConfig {
        n: 40,
        avg_degree: 4.0,
        num_classes: 2,
        feat_dim: 4,
        ..Default::default()
    });
    for method in PartitionMethod::all() {
        let part = partition_graph(&g, method, 16, 0);
        assert!(part.validate().is_ok(), "{method:?}");
        assert_eq!(part.assignment.len(), 40);
    }
}

#[test]
fn batch_size_larger_than_train_set() {
    let g = planted_partition(&PplConfig {
        n: 150,
        avg_degree: 5.0,
        num_classes: 3,
        feat_dim: 8,
        feat_noise: 0.5,
        ..Default::default()
    });
    let sampler = FanoutSampler::new(vec![4, 4]);
    let r = train_single(
        &g,
        ModelKind::Gcn,
        8,
        &sampler,
        &BatchSelection::Random,
        &BatchSizeSchedule::Fixed(1_000_000),
        0.01,
        3,
        1,
    );
    assert_eq!(r.curve.len(), 3);
    assert!(r.curve.iter().all(|p| p.train_loss.is_finite()));
}

#[test]
fn zero_degree_fanout_layers() {
    // Fanout 0: blocks carry destinations but no edges; the model must
    // still produce logits (self features propagate via the GCN self-term).
    let g = planted_partition(&PplConfig {
        n: 100,
        avg_degree: 5.0,
        num_classes: 3,
        feat_dim: 8,
        ..Default::default()
    });
    let sampler = FanoutSampler::new(vec![0, 0]);
    let mut rng = common::rng(0);
    let mb = build_minibatch(&g.inn, &[0, 1, 2], &sampler, &mut rng);
    assert!(mb.validate().is_ok());
    assert_eq!(mb.involved_edges(), 0);
    let model = GnnModel::new(AggKind::SageMean, &[8, 8, 3], 1);
    let x = gnn_dm::nn::train::gather_input_features(&g, &mb);
    let (logits, _) = model.forward_minibatch(&mb, &x);
    assert!(logits.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn io_rejects_garbage_without_panicking() {
    for garbage in [
        Vec::new(),
        b"GNDM".to_vec(),
        vec![0u8; 64],
        b"not a graph at all, just text".to_vec(),
    ] {
        let result = io::read_graph(&mut garbage.as_slice());
        assert!(result.is_err(), "garbage accepted: {garbage:?}");
    }
}

#[test]
fn skewed_splits_still_train() {
    // Nearly no training vertices.
    let mut g = planted_partition(&PplConfig {
        n: 300,
        avg_degree: 6.0,
        num_classes: 3,
        feat_dim: 8,
        feat_noise: 0.5,
        ..Default::default()
    });
    g.split = SplitMask::random(300, 0.02, 0.49, 0.49, 3);
    assert!(g.train_vertices().len() >= 2);
    let sampler = FanoutSampler::new(vec![4, 4]);
    let r = train_single(
        &g,
        ModelKind::Gcn,
        8,
        &sampler,
        &BatchSelection::Random,
        &BatchSizeSchedule::Fixed(4),
        0.01,
        2,
        1,
    );
    assert!(r.curve[1].train_loss.is_finite());
}

#[test]
fn cluster_selection_with_unknown_cluster_ids() {
    // Cluster ids with gaps (e.g. clusters 0 and 7 only) must not panic.
    let train: Vec<u32> = (0..50).collect();
    let clusters: Vec<u32> = (0..50).map(|v| if v % 2 == 0 { 0 } else { 7 }).collect();
    let sel = BatchSelection::ClusterBased { clusters };
    let batches = sel.select(&train, 10, 0, 0);
    let total: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(total, 50);
}

#[test]
fn extreme_feature_values_stay_finite() {
    let mut g = planted_partition(&PplConfig {
        n: 100,
        avg_degree: 5.0,
        num_classes: 3,
        feat_dim: 4,
        ..Default::default()
    });
    // Inject huge (but finite) feature values.
    for v in 0..10u32 {
        for x in g.features.row_mut(v) {
            *x = 1.0e10;
        }
    }
    let sampler = FanoutSampler::new(vec![4, 4]);
    let mut rng = common::rng(2);
    let mb = build_minibatch(&g.inn, &[0, 1, 2], &sampler, &mut rng);
    let model = GnnModel::new(AggKind::Gcn, &[4, 4, 3], 1);
    let x = gnn_dm::nn::train::gather_input_features(&g, &mb);
    let (logits, _) = model.forward_minibatch(&mb, &x);
    // Softmax cross-entropy must survive the huge logits without NaN.
    let labels = gnn_dm::nn::train::seed_labels(&g, &mb);
    let (loss, grad) = gnn_dm::nn::loss::softmax_cross_entropy(&logits, &labels);
    assert!(loss.is_finite());
    assert!(grad.as_slice().iter().all(|v| v.is_finite()));
}

// ---------------------------------------------------------------------------
// Fault-injection contract (gnn-dm-faults).
// ---------------------------------------------------------------------------

fn fault_graph() -> gnn_dm::graph::Graph {
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

/// The replay has no healthy special case to fall back on: healthy is the
/// plan that injects nothing. So a *constructed* zero-rate plan — another
/// seed, another epoch — must reproduce `FaultPlan::none()` down to the
/// Chrome-trace bytes, on every simulator.
#[test]
fn zero_fault_plan_is_bitwise_identity() {
    let none = FaultPlan::none();
    let zero = FaultPlan::uniform(0xDEAD_BEEF, 0.0);
    assert_ne!(none, zero, "the zero-rate plan must be a different value, not a respelling");
    let unprotected = ResiliencePolicy::none();

    // Device pipeline replay, every mode.
    let batches = jagged_batches(30, 9);
    let metas: Vec<BatchMeta> = (0..30)
        .map(|i| BatchMeta { gather: 0.001, bytes: Bytes(700 + i), edges: 3 * i })
        .collect();
    for mode in MODES {
        let healthy = replay_epoch(&batches, &metas, mode, &none, 0, &unprotected);
        let zeroed = replay_epoch(&batches, &metas, mode, &zero, 4, &unprotected);
        assert_eq!(healthy.to_chrome_trace(), zeroed.to_chrome_trace(), "{mode:?}");
    }

    // Cluster epoch timeline.
    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let report = sim.simulate_epoch(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);
    assert_eq!(
        sim.epoch_timeline_resilient(&report, &tm, &none, 0, &unprotected).to_chrome_trace(),
        sim.epoch_timeline_resilient(&report, &tm, &zero, 2, &unprotected).to_chrome_trace()
    );

    // Heterogeneous trainer (the fault epoch is the batch epoch, so only
    // the plan differs here).
    let cfg = HeteroTrainerConfig::baseline(128);
    let (t_healthy, tl_healthy) = HeteroTrainer::new(&g, cfg.clone()).run_epoch_traced(0);
    let (t_zeroed, tl_zeroed) =
        HeteroTrainer::new(&g, cfg).run_epoch_faulted(0, &zero, &unprotected);
    assert_eq!(t_healthy, t_zeroed);
    assert_eq!(tl_healthy.to_chrome_trace(), tl_zeroed.to_chrome_trace());
}

/// Raising the one-knob stress rate can only add failed attempts, longer
/// slowdowns and more replayed work — makespans are monotone
/// non-decreasing in the rate, for the cluster epoch and for every
/// pipeline mode.
#[test]
fn makespan_is_monotone_in_the_fault_rate() {
    let rates = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0];

    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::MetisV, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let report = sim.simulate_epoch(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);
    for seed in [3u64, 11, 77] {
        let mut prev = 0.0f64;
        for rate in rates {
            let plan = FaultPlan::uniform(seed, rate);
            let t = sim
                .epoch_timeline_resilient(&report, &tm, &plan, 0, &ResiliencePolicy::none())
                .makespan();
            assert!(
                t >= prev,
                "seed {seed}: epoch time dropped from {prev} to {t} at rate {rate}"
            );
            prev = t;
        }
    }

    let batches = jagged_batches(25, 13);
    for mode in MODES {
        let mut prev = 0.0f64;
        for rate in rates {
            let plan = FaultPlan::uniform(5, rate);
            let t =
                replay_epoch(&batches, &[], mode, &plan, 0, &ResiliencePolicy::none()).makespan();
            assert!(t >= prev, "{mode:?}: makespan dropped from {prev} to {t} at rate {rate}");
            prev = t;
        }
    }
}

/// A crashed worker replays exactly the batches since its last
/// checkpoint, and the `Replay` span advertises that count.
#[test]
fn crash_recovery_replays_exactly_the_uncheckpointed_batches() {
    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let report = sim.simulate_epoch(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);
    let plan = FaultPlan::uniform(21, 1.0); // crash rate 0.5: some workers die
    let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, 0, &ResiliencePolicy::none());
    let mut crashes = 0;
    for w in 0..4u32 {
        let planned = plan.crash_batch(0, w, report.num_batches[w as usize]);
        let replay = tl
            .spans()
            .iter()
            .find(|s| s.kind == SpanKind::Replay && s.resource == Resource::WorkerGpu(w));
        match planned {
            Some(crash_batch) => {
                crashes += 1;
                let expect = plan.replayed_batches(crash_batch) as u64;
                let got = replay.expect("crashed worker must emit a Replay span").meta.edges;
                assert_eq!(got, expect, "worker {w}: crash at batch {crash_batch}");
                assert_eq!(expect, (crash_batch % 8) as u64, "uniform plan checkpoints every 8");
            }
            None => assert!(replay.is_none(), "worker {w} survived but has a Replay span"),
        }
    }
    assert!(crashes > 0, "crash rate 0.5 over 4 workers planned no crashes");
}

/// Fault byte accounting is exact: retransmitted bytes reduce from the
/// `Retry` spans to failures × exchange traffic, and checkpoint traffic to
/// snapshots (+ restore) × param_bytes — per worker, as integers.
#[test]
fn fault_bytes_reduce_exactly_from_spans() {
    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let report = sim.simulate_epoch(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);
    let plan = FaultPlan::uniform(7, 0.6);
    let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, 0, &ResiliencePolicy::none());

    let retry = retry_bytes_from_spans(&tl, 4);
    let ckpt = checkpoint_bytes_from_spans(&tl, 4);
    let mut total_failures = 0u64;
    for w in 0..4usize {
        let wid = w as u32;
        let failures = u64::from(plan.nic_failures(0, wid));
        total_failures += failures;
        assert_eq!(retry[w], failures * report.comm.worker_traffic(w).0, "worker {w} retry bytes");
        let nb = report.num_batches[w];
        let mut expect = tm.param_bytes * plan.snapshots(nb) as u64;
        if plan.crash_batch(0, wid, nb).is_some() {
            expect += tm.param_bytes; // the restore read-back
        }
        assert_eq!(ckpt[w], expect.0, "worker {w} checkpoint bytes");
    }
    assert!(total_failures > 0, "rate 0.6 planned no NIC failures at all");
    // The resilience report reads the same spans.
    let unprotected = ResiliencePolicy::none();
    let healthy = sim.epoch_timeline_resilient(&report, &tm, &FaultPlan::none(), 0, &unprotected);
    let res = ResilienceReport::compare(&healthy, &tl);
    assert_eq!(res.retry_bytes, retry.iter().sum::<u64>());
    assert_eq!(res.checkpoint_bytes + res.restore_bytes, ckpt.iter().sum::<u64>());
    assert!(res.slowdown() >= 1.0);
    assert!(res.goodput() <= 1.0);
}

/// Every NIC and collective byte of a timeline is in exactly one place:
/// the `*_from_spans` ledgers plus the kinds `ledger_of` leaves unledgered.
/// Kinds it calls byte-free (or edge-only) carry no bytes.
fn assert_bytes_conserved(tl: &Timeline, k: usize) {
    let comm = comm_ledger_from_spans(tl, k);
    let ledgers = [
        retry_bytes_from_spans(tl, k),
        checkpoint_bytes_from_spans(tl, k),
        hedge_bytes_from_spans(tl, k),
        wasted_bytes_from_spans(tl, k),
        redispatch_bytes_from_spans(tl, k),
    ];
    let lane_bytes = |lane: Resource| -> (u64, u64) {
        let spans = || tl.spans().iter().filter(move |s| s.resource == lane);
        let unledgered = spans().filter(|s| ledger_of(s.kind) == Ledger::Unledgered);
        (spans().map(|s| s.meta.bytes.0).sum(), unledgered.map(|s| s.meta.bytes.0).sum())
    };
    for w in 0..k {
        let (total, unledgered) = lane_bytes(Resource::WorkerNic(w as u32));
        let ledgered = comm.worker_traffic(w).0 + ledgers.iter().map(|l| l[w]).sum::<u64>();
        assert_eq!(total, ledgered + unledgered, "worker {w} NIC bytes");
    }
    let (total, unledgered) = lane_bytes(Resource::AllReduce);
    assert_eq!(total, stale_sync_bytes_from_spans(tl) + unledgered, "collective bytes");
    for s in tl.spans() {
        let no_bytes = matches!(
            ledger_of(s.kind),
            Ledger::ByteFree | Ledger::LocalSample | Ledger::RemoteSample | Ledger::Aggregation
        );
        assert!(!no_bytes || s.meta.bytes == Bytes(0), "{:?} carries bytes", s.kind);
    }
}

/// The ledger `match` on a healthy, a faulted (retries, checkpoints,
/// crash restores) and a resilient (hedges, re-dispatch, stale syncs)
/// cluster epoch: bytes are conserved, and each byte ledger equals the
/// kind-by-kind reads of the fault and policy reports, so a kind assigned
/// to the wrong ledger fails here even though the totals still balance.
#[test]
fn ledger_match_conserves_every_nic_byte() {
    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 16, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let (report, accounting) = sim.simulate_epoch_traced(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);
    let none = ResiliencePolicy::none();
    let plan = FaultPlan::uniform(7, 0.6);
    let resilient = ResiliencePolicy { deadline: None, ..ResiliencePolicy::full(Seconds(0.0)) };
    let sum = |v: Vec<u64>| v.iter().sum::<u64>();
    assert_bytes_conserved(&accounting, 4);
    let mut seen = std::collections::BTreeSet::new();
    for epoch in 0..4 {
        let healthy = sim.epoch_timeline_resilient(&report, &tm, &FaultPlan::none(), epoch, &none);
        let faulted = sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &none);
        let hedged = sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &resilient);
        for tl in [&healthy, &faulted, &hedged] {
            assert_bytes_conserved(tl, 4);
            seen.extend(tl.spans().iter().filter(|s| s.meta.bytes > Bytes(0)).map(|s| s.kind));
        }
        let faults = ResilienceReport::compare(&healthy, &faulted);
        assert_eq!(sum(retry_bytes_from_spans(&faulted, 4)), faults.retry_bytes);
        assert_eq!(
            sum(checkpoint_bytes_from_spans(&faulted, 4)),
            faults.checkpoint_bytes + faults.restore_bytes
        );
        let out = sim.resilience_with_policy(&report, &tm, &plan, epoch, &resilient);
        assert_eq!(sum(hedge_bytes_from_spans(&hedged, 4)), out.hedged_bytes, "epoch {epoch}");
        assert_eq!(sum(wasted_bytes_from_spans(&hedged, 4)), out.wasted_bytes, "epoch {epoch}");
        assert_eq!(sum(redispatch_bytes_from_spans(&hedged, 4)), out.redispatched_bytes);
        assert_eq!(stale_sync_bytes_from_spans(&hedged), out.stale_sync_bytes);
    }
    use SpanKind::*;
    for kind in [Exchange, AllReduce, Retry, Checkpoint, Restore, Hedge, Cancel, Redispatch, StaleSync] {
        assert!(seen.contains(&kind), "no {kind:?} span carried bytes: the cells are too tame");
    }
}

/// A policy is neutral by what it can do, not by how it is spelled: one
/// with every mechanism armed but inert — a hedge deadline no retry is
/// ever slower than, a stage budget nothing reaches, a re-dispatch
/// fraction of 0 — must replay `ResiliencePolicy::none()` bitwise, under
/// the neutral plan AND under a stressed one, on the device pipeline
/// (every mode) and the cluster epoch timeline. (Stale sync is left out:
/// once armed it renames the collective's span.)
#[test]
fn zero_resilience_policy_is_bitwise_identity() {
    let none_policy = ResiliencePolicy::none();
    let inert = ResiliencePolicy {
        hedge: Some(HedgePolicy { deadline_factor: 1.0e9 }),
        deadline: Some(DeadlinePolicy {
            stage_timeout_s: Seconds(1.0e9),
            action: DeadlineAction::SkipBatch,
        }),
        redispatch: Some(RedispatchPolicy { frac: 0.0 }),
        stale_sync: None,
    };

    let batches = jagged_batches(30, 9);
    let metas: Vec<BatchMeta> = (0..30)
        .map(|i| BatchMeta { gather: 0.001, bytes: Bytes(700 + i), edges: 3 * i })
        .collect();

    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let report = sim.simulate_epoch(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);

    for plan in [FaultPlan::none(), FaultPlan::uniform(9, 0.6)] {
        for mode in MODES {
            let unprotected = replay_epoch(&batches, &metas, mode, &plan, 4, &none_policy);
            let armed = replay_epoch(&batches, &metas, mode, &plan, 4, &inert);
            assert_eq!(unprotected.to_chrome_trace(), armed.to_chrome_trace(), "{mode:?}");
        }
        for epoch in 0..3 {
            assert_eq!(
                sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &none_policy)
                    .to_chrome_trace(),
                sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &inert).to_chrome_trace(),
                "epoch {epoch}"
            );
        }
    }
    // The stressed plan did stress: the equalities above compared retries.
    let stressed =
        sim.epoch_timeline_resilient(&report, &tm, &FaultPlan::uniform(9, 0.6), 0, &inert);
    assert!(stressed.spans().iter().any(|s| s.kind == SpanKind::Retry));
}

/// Hedged transfers tighten the tail: over a window of faulted epochs the
/// nearest-rank `p999` of the per-epoch makespans strictly improves, no
/// single epoch gets slower, and the duplicate traffic the hedges spent is
/// exactly the byte ledger the `Hedge`/`Cancel` spans reduce to.
#[test]
fn hedging_improves_p999_with_exact_waste_accounting() {
    let g = fault_graph();
    let part = partition_graph(&g, PartitionMethod::Hash, 4, 11);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 48, seed: 17 };
    let sampler = FanoutSampler::new(vec![8, 4]);
    let report = sim.simulate_epoch(&sampler, 0);
    let tm = TimeModel::paper_default(24, 64, 50_000);
    let plan = FaultPlan::uniform(7, 0.5);
    let hedge = ResiliencePolicy::hedged(1.5);

    let mut base = Vec::new();
    let mut res = Vec::new();
    let (mut hedged_total, mut wasted_total) = (0u64, 0u64);
    for epoch in 0..16 {
        let b = sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &ResiliencePolicy::none());
        let r = sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &hedge);
        assert!(r.makespan() <= b.makespan(), "hedging slowed epoch {epoch}");
        hedged_total += hedge_bytes_from_spans(&r, 4).iter().sum::<u64>();
        wasted_total += wasted_bytes_from_spans(&r, 4).iter().sum::<u64>();
        // The policy-outcome counters are the same span reductions.
        let out = sim.resilience_with_policy(&report, &tm, &plan, epoch, &hedge);
        assert_eq!(out.hedged_bytes, hedge_bytes_from_spans(&r, 4).iter().sum::<u64>());
        assert_eq!(out.wasted_bytes, wasted_bytes_from_spans(&r, 4).iter().sum::<u64>());
        base.push(b.makespan());
        res.push(r.makespan());
    }
    let tail_base = TailStats::from_samples(&base);
    let tail_res = TailStats::from_samples(&res);
    assert!(
        tail_res.p999 < tail_base.p999,
        "p999 did not improve: {} >= {}",
        tail_res.p999,
        tail_base.p999
    );
    assert!(hedged_total > 0, "rate 0.5 never hedged a transfer");
    assert!(wasted_total >= hedged_total, "cancelled losers must at least cover the winners");
}
