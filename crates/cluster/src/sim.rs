//! The distributed epoch simulator.
//!
//! For a given partitioning, simulates one epoch of sample-based mini-batch
//! training across `k` workers and accounts every sampled edge and every
//! transferred byte to the worker that produced it — the methodology behind
//! Figures 4 (computational load), 5 (communication load) and 8 (epoch
//! time).
//!
//! Routing rules (matching §5.3.1/§5.3.2):
//!
//! * a sampling request for vertex `d` executes on the worker that stores
//!   `d`'s adjacency — the home partition, or the requester itself when `d`
//!   is replicated in its halo (Stream-V's L-hop cache);
//! * remote sampling results (subgraph edges) travel back to the requester;
//! * feature rows of non-local input vertices travel from their owner to
//!   the requester;
//! * aggregation (training) work executes on the requester.
//!
//! Every counter the simulation produces is also emitted as a
//! zero-duration *accounting span* on the responsible worker's lane
//! (`simulate_epoch_traced`), so the ledgers are reductions over the span
//! timeline; the epoch time model is likewise replayed as Sample →
//! Exchange → NN-compute spans per worker plus a terminal all-reduce span
//! (`epoch_timeline_resilient`, the one replay — the healthy epoch is the
//! neutral plan and policy), and `epoch_time` is simply that timeline's
//! makespan.

use crate::ledger::{CommLedger, ComputeLedger};
use crate::network;
use gnn_dm_device::compute;
use gnn_dm_device::LinkModel;
use gnn_dm_graph::csr::VId;
use gnn_dm_graph::Graph;
use gnn_dm_partition::{GnnPartitioning, Locality};
use gnn_dm_sampling::sampler::{build_minibatch_with, NeighborSampler, SampleScratch};
use gnn_dm_sampling::BatchSelection;
use gnn_dm_faults::{
    backoff_delay, DeadlineAction, FaultPlan, PolicyOutcome, ResiliencePolicy, RETRY_TIMEOUT,
};
use gnn_dm_trace::convert::{u32_of_index, u64_of_u32, u64_of_usize, usize_of_u32};
use gnn_dm_trace::units::{Bytes, Seconds};
use gnn_dm_trace::{Pending, Resource, SpanKind, SpanMeta, Timeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::AddAssign;

/// Bytes to encode one sampled edge (two u32 vertex ids) — the same wire
/// format the single-node PCIe topology transfer uses.
pub const BYTES_PER_SAMPLED_EDGE: Bytes = Bytes(gnn_dm_sampling::BYTES_PER_EDGE);

/// A cluster-wide epoch simulation over one graph + partitioning.
pub struct ClusterSim<'g> {
    /// The training graph.
    pub graph: &'g Graph,
    /// The partitioning under evaluation.
    pub part: &'g GnnPartitioning,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Everything one simulated epoch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochLoadReport {
    /// Per-worker computational workload.
    pub compute: ComputeLedger,
    /// Per-worker communication workload.
    pub comm: CommLedger,
    /// Batches each worker ran.
    pub num_batches: Vec<usize>,
    /// Distinct input vertices per worker summed over batches.
    pub input_vertices: Vec<u64>,
}

/// The paper's inter-node link: 10 Gbps Ethernet.
const NIC: LinkModel = LinkModel::nic_10gbps();

/// Model sizes for the epoch time model; the hardware is the paper's
/// testbed, fixed: a 10 Gbps NIC between workers and a T4 GPU in each
/// ([`compute::gpu_seconds`]).
#[derive(Debug, Clone)]
pub struct TimeModel {
    /// Feature width (drives per-edge NN FLOPs).
    pub feat_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Model parameter bytes (drives gradient all-reduce time).
    pub param_bytes: Bytes,
}

impl TimeModel {
    /// A model of `feat_dim`-wide features, `hidden`-wide layers and
    /// `param_bytes` bytes of parameters on the paper's testbed.
    pub fn paper_default(feat_dim: usize, hidden: usize, param_bytes: u64) -> Self {
        TimeModel {
            feat_dim,
            hidden,
            param_bytes: Bytes(param_bytes),
        }
    }
}

impl<'g> ClusterSim<'g> {
    /// Every worker's batch schedule for `epoch`: worker `w` shuffles the
    /// training vertices homed on it (in `train_vertices` order; a first
    /// pass counts each bucket so it is allocated once) with seed
    /// `seed ^ (w << 32)` and chunks them into `batch_size` batches. A
    /// worker with no training vertex has no batch.
    pub fn worker_batches(&self, epoch: usize) -> Vec<Vec<Vec<VId>>> {
        let train = self.graph.train_vertices();
        let mut sizes = vec![0usize; self.part.k];
        for &v in &train {
            sizes[usize_of_u32(self.part.part_of(v))] += 1;
        }
        let mut local_train: Vec<Vec<VId>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for v in train {
            local_train[usize_of_u32(self.part.part_of(v))].push(v);
        }
        local_train
            .iter()
            .zip(0u32..)
            .map(|(train_w, w)| {
                if train_w.is_empty() {
                    return Vec::new();
                }
                BatchSelection::Random.select(
                    train_w,
                    self.batch_size,
                    self.seed ^ u64_of_u32(w) << 32,
                    epoch,
                )
            })
            .collect()
    }

    /// Simulates one epoch and returns the per-worker load ledgers.
    ///
    /// Workers simulate in parallel (their RNG streams are derived
    /// independently from the worker index) and their partial ledgers are
    /// merged in worker order; every ledger entry is an integer counter, so
    /// the result is bitwise-identical to the serial worker loop at any
    /// thread count.
    pub fn simulate_epoch(
        &self,
        sampler: &(dyn NeighborSampler + Sync),
        epoch: usize,
    ) -> EpochLoadReport {
        self.simulate_epoch_traced(sampler, epoch).0
    }

    /// Like [`ClusterSim::simulate_epoch`], but also returns the span
    /// timeline of zero-duration accounting spans the workers emitted —
    /// one span per batch and responsible worker, carrying the sampled
    /// edges / transferred bytes in its meta. The ledgers in the report
    /// are exact reductions of this timeline
    /// (`ledger::compute_ledger_from_spans` /
    /// `ledger::comm_ledger_from_spans`).
    ///
    /// Batch selection runs serially per worker up front; the parallel
    /// phase then samples each worker's batches with an RNG seeded by
    /// `split_seed(split_seed(seed, epoch), worker)`, so every stream is a
    /// pure function of (seed, epoch, worker) and the partial ledgers and
    /// span lists merge in worker order; all counters are integers and
    /// span merging is order-fixed, so the result is bitwise-identical to
    /// the serial worker loop at any thread count.
    pub fn simulate_epoch_traced(
        &self,
        sampler: &(dyn NeighborSampler + Sync),
        epoch: usize,
    ) -> (EpochLoadReport, Timeline) {
        let k = self.part.k;
        let worker_batches = self.worker_batches(epoch);
        let epoch_seed = gnn_dm_par::split_seed(self.seed, u64_of_usize(epoch));
        let locality = self.part.locality();
        let partials = gnn_dm_par::par_map_collect(&worker_batches, |i, batches| {
            #[expect(clippy::disallowed_methods, reason = "each worker unit seeds from split_seed(epoch_seed, i), its own unit index, so its stream is the same at any thread count")]
            let mut rng = StdRng::seed_from_u64(gnn_dm_par::split_seed(epoch_seed, u64_of_usize(i)));
            self.simulate_worker(sampler, &locality, u32_of_index(i), batches, &mut rng)
        });
        let mut report = EpochLoadReport {
            compute: ComputeLedger::new(k),
            comm: CommLedger::new(k),
            num_batches: vec![0usize; k],
            input_vertices: vec![0u64; k],
        };
        fn add<T: Copy + AddAssign>(into: &mut [T], from: &[T]) {
            for (a, &b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        let mut tl = Timeline::with_capacity(partials.iter().map(|(_, pendings)| pendings.len()).sum());
        for (p, pendings) in &partials {
            add(&mut report.compute.local_sample_edges, &p.compute.local_sample_edges);
            add(&mut report.compute.remote_sample_edges, &p.compute.remote_sample_edges);
            add(&mut report.compute.aggregation_edges, &p.compute.aggregation_edges);
            add(&mut report.comm.subgraph_bytes_sent, &p.comm.subgraph_bytes_sent);
            add(&mut report.comm.feature_bytes_sent, &p.comm.feature_bytes_sent);
            add(&mut report.comm.bytes_received, &p.comm.bytes_received);
            add(&mut report.input_vertices, &p.input_vertices);
            for (a, b) in report.num_batches.iter_mut().zip(&p.num_batches) {
                *a += b;
            }
            for pending in pendings {
                tl.schedule_pending(0.0, pending);
            }
        }
        (report, tl)
    }

    /// One worker's contribution to the epoch ledgers (full-width vectors:
    /// remote sampling and feature serving are accounted to the *owner*
    /// worker, which may differ from `w`), plus its per-batch accounting
    /// spans (zero-duration, on the responsible worker's lane). The batch
    /// list and the sampling RNG are prepared by the caller, which seeds
    /// each worker's RNG from `split_seed(epoch_seed, worker)`, and so
    /// is `locality`, the partitioning's halo membership unpacked once per
    /// epoch for all workers.
    fn simulate_worker(
        &self,
        sampler: &dyn NeighborSampler,
        locality: &Locality<'_>,
        w: u32,
        batches: &[Vec<VId>],
        rng: &mut StdRng,
    ) -> (EpochLoadReport, Vec<Pending>) {
        let k = self.part.k;
        let row_bytes = Bytes(u64_of_usize(self.graph.features.row_bytes()));
        let mut compute = ComputeLedger::new(k);
        let mut comm = CommLedger::new(k);
        let mut num_batches = vec![0usize; k];
        let mut input_vertices = vec![0u64; k];
        // A batch emits at most 3 + 3k spans: local sampling, three per
        // owner worker, receive and aggregate.
        let mut pendings: Vec<Pending> = Vec::with_capacity(batches.len() * (3 + 3 * k));

        if !batches.is_empty() {
            num_batches[usize_of_u32(w)] = batches.len();
            // One sampling arena for the worker's whole epoch: identical
            // batches (the scratch never changes what is drawn), no
            // per-batch map/buffer churn.
            let mut scratch = SampleScratch::new();
            // Per-owner batch tallies, reused across the worker's batches.
            let mut remote_edges = vec![0u64; k];
            let mut subgraph_bytes = vec![Bytes(0); k];
            let mut feature_bytes = vec![Bytes(0); k];
            for (b_idx, seeds) in batches.iter().enumerate() {
                let mb = build_minibatch_with(&self.graph.inn, seeds, sampler, rng, &mut scratch);
                let batch = u32::try_from(b_idx).ok();
                let mut local_edges = 0u64;
                remote_edges.fill(0);
                subgraph_bytes.fill(Bytes(0));
                feature_bytes.fill(Bytes(0));
                let mut recv_bytes = Bytes(0);
                // Sampling-request routing, block by block.
                for (l, block) in mb.blocks.iter().enumerate() {
                    for (d_local, &d) in mb.dst_ids(l).iter().enumerate() {
                        let edges = u64_of_usize(block.in_degree(d_local));
                        if edges == 0 {
                            continue;
                        }
                        if locality.is_local(w, d) {
                            local_edges += edges;
                        } else {
                            let owner = usize_of_u32(self.part.part_of(d));
                            remote_edges[owner] += edges;
                            let bytes = BYTES_PER_SAMPLED_EDGE * edges;
                            subgraph_bytes[owner] += bytes;
                            recv_bytes += bytes;
                        }
                    }
                }
                // Feature fetches for non-local input vertices.
                for &v in mb.input_ids() {
                    if !locality.is_local(w, v) {
                        let owner = usize_of_u32(self.part.part_of(v));
                        feature_bytes[owner] += row_bytes;
                        recv_bytes += row_bytes;
                    }
                }
                let agg_edges = u64_of_usize(mb.involved_edges());
                input_vertices[usize_of_u32(w)] += u64_of_usize(mb.involved_vertices());

                // Fold the batch into the ledgers...
                compute.local_sample_edges[usize_of_u32(w)] += local_edges;
                for o in 0..k {
                    compute.remote_sample_edges[o] += remote_edges[o];
                    comm.subgraph_bytes_sent[o] += subgraph_bytes[o];
                    comm.feature_bytes_sent[o] += feature_bytes[o];
                }
                comm.bytes_received[usize_of_u32(w)] += recv_bytes;
                compute.aggregation_edges[usize_of_u32(w)] += agg_edges;

                // ...and emit the same quantities as accounting spans.
                let meta = |edges: u64, bytes: Bytes| SpanMeta { bytes, edges, batch, worker: Some(w) };
                let mut emit = |resource: Resource, kind: SpanKind, edges: u64, bytes: Bytes| {
                    if edges > 0 || bytes > Bytes(0) {
                        let meta = meta(edges, bytes);
                        pendings.push(Pending { resource, kind, dur: Seconds(0.0), meta });
                    }
                };
                let none = Bytes(0);
                emit(Resource::WorkerCpu(w), SpanKind::LocalSample, local_edges, none);
                for o in 0..k {
                    let ow = u32_of_index(o);
                    emit(Resource::WorkerCpu(ow), SpanKind::RemoteSample, remote_edges[o], none);
                    emit(Resource::WorkerNic(ow), SpanKind::SubgraphSend, 0, subgraph_bytes[o]);
                    emit(Resource::WorkerNic(ow), SpanKind::FeatureSend, 0, feature_bytes[o]);
                }
                emit(Resource::WorkerNic(w), SpanKind::Recv, 0, recv_bytes);
                emit(Resource::WorkerGpu(w), SpanKind::Aggregate, agg_edges, none);
            }
        }
        (EpochLoadReport { compute, comm, num_batches, input_vertices }, pendings)
    }

    /// One worker's healthy (unscaled) stage model: sampled edges and the
    /// Sample / Exchange / NN-compute stage durations. The single source
    /// of the per-stage arithmetic — the faulted replay multiplies these
    /// by the plan's slowdown factors, and the resilience layer reads them
    /// to rank workers and price re-dispatched work.
    #[expect(clippy::disallowed_methods, reason = "the stage prices become the epoch timeline's Exchange spans")]
    fn stage_times(
        &self,
        report: &EpochLoadReport,
        tm: &TimeModel,
        w: usize,
    ) -> (u64, Seconds, Seconds, Seconds) {
        let sample_edges =
            report.compute.local_sample_edges[w] + report.compute.remote_sample_edges[w];
        let sample_t = Seconds(
            sample_edges as f64 * compute::SAMPLE_SECONDS_PER_EDGE
                + report.input_vertices[w] as f64 * compute::SAMPLE_SECONDS_PER_VERTEX,
        );
        let comm_t = network::exchange_time(
            &NIC,
            report.comm.worker_sent(w),
            report.comm.bytes_received[w],
        );
        let flops =
            compute::aggregation_flops(report.compute.aggregation_edges[w], tm.feat_dim, tm.hidden);
        let nn_t = Seconds(compute::gpu_seconds(flops));
        (sample_edges, sample_t, comm_t, nn_t)
    }

    /// Replays the epoch time model as a span timeline under a fault plan
    /// and a resilience policy: per worker a Sample → Exchange → NN-compute
    /// chain on that worker's CPU / NIC / GPU lanes, then one all-reduce
    /// span (the per-batch gradient syncs, collapsed) that starts when the
    /// slowest worker finishes. The timeline's makespan is the modelled
    /// epoch time; its spans carry the per-worker edge and byte loads. The
    /// healthy epoch is `FaultPlan::none()` with `ResiliencePolicy::none()`:
    /// no span is injected and every stage is multiplied by exactly 1.0.
    ///
    /// The plan's degradations, all on the responsible worker's own lanes:
    ///
    /// * **stragglers** — the worker's Sample/NN durations stretch by
    ///   `plan.compute_slowdown`, its Exchange by
    ///   `plan.bandwidth_slowdown`;
    /// * **flaky NIC** — each failed exchange attempt burns the wire for
    ///   the full exchange duration plus the detection timeout (a `Retry`
    ///   span carrying the retransmitted bytes), then waits out the capped
    ///   exponential backoff (a `Backoff` span) before the successful
    ///   `Exchange`;
    /// * **checkpoints** — every-N-batches parameter snapshots priced as
    ///   NIC transfers (`Checkpoint` span, bytes = snapshots ×
    ///   `param_bytes`);
    /// * **crash + recovery** — a crashed worker restores the last
    ///   snapshot (`Restore` span, `param_bytes` over the NIC) and
    ///   re-executes the batches since it (`Replay` span; `meta.edges`
    ///   carries the replayed batch count, its duration is that fraction
    ///   of the worker's epoch work).
    ///
    /// The policy's reactions, each armed mechanism independently:
    ///
    /// * **hedging** — each failed exchange round completes at
    ///   `min(hedge deadline, retry cost)`; a hedge-won round emits a
    ///   `Cancel` span (the abandoned attempt's wasted wire bytes) instead
    ///   of the `Retry`/`Backoff` pair, and a transfer rescued by hedging
    ///   lands as a `Hedge` span instead of an `Exchange`
    ///   ([`FaultPlan::schedule_failed_attempts`]);
    /// * **stage deadlines** — a worker whose exchange stage would exceed
    ///   `stage_timeout_s` cuts it off at the timeout (`Cancel` span;
    ///   `meta.edges` carries the skipped batches for the skip-batch
    ///   action) and either contributes nothing more this epoch or
    ///   restores the last checkpoint (`Restore`) and continues;
    /// * **re-dispatch** — stragglers donate `floor(frac · batches)` to
    ///   the cheapest non-straggler: the donor's NN stage shrinks
    ///   proportionally, the recipient pays the moved input bytes over its
    ///   NIC and the moved compute at healthy speed (`Redispatch` spans);
    /// * **bounded-staleness sync** — the gradient barrier waits only for
    ///   workers within `max_lag_batches` of the fastest worker and the
    ///   ring shrinks to the included set (`StaleSync` span instead of
    ///   `AllReduce`; `meta.edges` counts excluded worker-rounds).
    ///
    /// Every injected second and byte is a span, so the ledgers stay exact
    /// reductions (`ledger::retry_bytes_from_spans`,
    /// `ledger::checkpoint_bytes_from_spans`), and every decision is a pure
    /// function of `(plan.seed, epoch, worker)` — the policy adds no draws
    /// of its own.
    #[expect(clippy::disallowed_methods, reason = "each price is scheduled as a span on the epoch timeline it returns")]
    pub fn epoch_timeline_resilient(
        &self,
        report: &EpochLoadReport,
        tm: &TimeModel,
        plan: &FaultPlan,
        epoch: usize,
        policy: &ResiliencePolicy,
    ) -> Timeline {
        let k = self.part.k;

        // Re-dispatch analytics: every straggler donates batches to the
        // one non-straggler with the cheapest healthy chain (ties break
        // to the lowest worker index). Pure report arithmetic — nothing
        // is scheduled here.
        let mut donated: Vec<usize> = vec![0; k];
        let mut recipient: Option<usize> = None;
        if let Some(rd) = policy.redispatch {
            let mut best: Option<(Seconds, usize)> = None;
            for w in 0..k {
                if plan.is_straggler(epoch, u32_of_index(w)) {
                    continue;
                }
                let (_, sample_h, comm_h, nn_h) = self.stage_times(report, tm, w);
                let chain = sample_h + comm_h + nn_h;
                if best.map_or(true, |(b, _)| chain < b) {
                    best = Some((chain, w));
                }
            }
            if let Some((_, r)) = best {
                for w in 0..k {
                    if w != r && plan.is_straggler(epoch, u32_of_index(w)) {
                        donated[w] = rd.moved_batches(report.num_batches[w]);
                    }
                }
                if donated.iter().any(|&m| m > 0) {
                    recipient = Some(r);
                }
            }
        }

        let mut tl = Timeline::new();
        // Per-worker readbacks for the re-dispatch and stale-sync passes.
        let mut chain_end = vec![0.0f64; k];
        let mut exch_end = vec![0.0f64; k];
        let mut stage_sum = vec![Seconds(0.0); k];
        let mut skipped = vec![false; k];
        for w in 0..k {
            let wid = u32_of_index(w);
            let worker = Some(wid);
            let cf = plan.compute_slowdown(epoch, wid);
            let bf = plan.bandwidth_slowdown(epoch, wid);
            let (sample_edges, sample_h, comm_h, nn_h) = self.stage_times(report, tm, w);
            let sample_t = sample_h * cf;
            let comm_t = comm_h * bf;
            let nn_t = nn_h * cf;
            stage_sum[w] = sample_t + comm_t + nn_t;
            let traffic = report.comm.worker_traffic(w);
            let s_end = tl.schedule(
                Resource::WorkerCpu(wid),
                SpanKind::Sample,
                0.0,
                sample_t,
                SpanMeta { edges: sample_edges, worker, ..SpanMeta::default() },
            );
            let failures = plan.nic_failures(epoch, wid);

            // Stage-deadline check: the analytic cost of the exchange
            // stage as it would be emitted below (hedge-shortened rounds
            // included), against the budget.
            let killed = policy.deadline.filter(|dl| {
                plan.failed_attempts_cost(policy.hedge, comm_t, failures) + comm_t
                    > dl.stage_timeout_s
            });

            let ready_for_nn = if let Some(dl) = killed {
                let skipped_batches = match dl.action {
                    DeadlineAction::SkipBatch => u64_of_usize(report.num_batches[w]),
                    DeadlineAction::FallbackToCheckpoint => 0,
                };
                let c_end = tl.schedule(
                    Resource::WorkerNic(wid),
                    SpanKind::Cancel,
                    s_end,
                    dl.stage_timeout_s,
                    SpanMeta { bytes: traffic, edges: skipped_batches, worker, ..SpanMeta::default() },
                );
                exch_end[w] = c_end;
                match dl.action {
                    DeadlineAction::SkipBatch => {
                        // The worker contributes nothing more this epoch.
                        skipped[w] = true;
                        chain_end[w] = c_end;
                        continue;
                    }
                    DeadlineAction::FallbackToCheckpoint => tl.schedule(
                        Resource::WorkerNic(wid),
                        SpanKind::Restore,
                        c_end,
                        network::snapshot_time(&NIC, tm.param_bytes, 1),
                        SpanMeta { bytes: tm.param_bytes, worker, ..SpanMeta::default() },
                    ),
                }
            } else {
                // Failed rounds first, hedged or retried per round
                // whichever is cheaper; then the final transfer.
                let (ready, kind) = plan.schedule_failed_attempts(
                    policy.hedge,
                    &mut tl,
                    Resource::WorkerNic(wid),
                    s_end,
                    comm_t,
                    failures,
                    traffic,
                    SpanMeta { worker, ..SpanMeta::default() },
                    SpanKind::Exchange,
                );
                let c_end = tl.schedule(
                    Resource::WorkerNic(wid),
                    kind,
                    ready,
                    comm_t,
                    SpanMeta { bytes: traffic, worker, ..SpanMeta::default() },
                );
                exch_end[w] = c_end;
                c_end
            };

            // Donors run fewer batches on their own GPU; the moved share
            // lands on the recipient's lanes after the loop.
            let nn_dur = if donated[w] > 0 {
                // donated[w] > 0 implies num_batches[w] > 0.
                nn_t * ((report.num_batches[w] - donated[w]) as f64
                    / report.num_batches[w] as f64)
            } else {
                nn_t
            };
            let n_end = tl.schedule(
                Resource::WorkerGpu(wid),
                SpanKind::NnCompute,
                ready_for_nn,
                nn_dur,
                SpanMeta {
                    edges: report.compute.aggregation_edges[w],
                    worker,
                    ..SpanMeta::default()
                },
            );
            let mut w_end = n_end;
            let snapshots = plan.snapshots(report.num_batches[w]);
            if snapshots > 0 {
                let n_snap = u64_of_usize(snapshots);
                w_end = tl.schedule(
                    Resource::WorkerNic(wid),
                    SpanKind::Checkpoint,
                    w_end,
                    network::snapshot_time(&NIC, tm.param_bytes, n_snap),
                    SpanMeta { bytes: tm.param_bytes * n_snap, worker, ..SpanMeta::default() },
                );
            }
            if let Some(crash_batch) = plan.crash_batch(epoch, wid, report.num_batches[w]) {
                let replayed = plan.replayed_batches(crash_batch);
                let r_end = tl.schedule(
                    Resource::WorkerNic(wid),
                    SpanKind::Restore,
                    w_end,
                    network::snapshot_time(&NIC, tm.param_bytes, 1),
                    SpanMeta { bytes: tm.param_bytes, worker, ..SpanMeta::default() },
                );
                // crash_batch is Some only when num_batches[w] > 0.
                let per_batch = (sample_t + comm_t + nn_t) / report.num_batches[w] as f64;
                w_end = tl.schedule(
                    Resource::WorkerGpu(wid),
                    SpanKind::Replay,
                    r_end,
                    per_batch * replayed as f64,
                    SpanMeta { edges: u64_of_usize(replayed), worker, ..SpanMeta::default() },
                );
            }
            chain_end[w] = w_end;
        }

        // Re-dispatched work: the recipient pulls each donor's moved
        // input bytes over its NIC (available once the donor's exchange
        // delivered them) and computes the moved batches at healthy
        // speed, priced at the donor's healthy per-batch NN time.
        if let Some(r) = recipient {
            let rid = u32_of_index(r);
            for w in 0..k {
                if donated[w] == 0 || skipped[w] {
                    continue;
                }
                let nb = report.num_batches[w];
                let moved = donated[w];
                let moved_bytes =
                    report.comm.worker_traffic(w) * u64_of_usize(moved) / u64_of_usize(nb);
                let nic_end = tl.schedule(
                    Resource::WorkerNic(rid),
                    SpanKind::Redispatch,
                    exch_end[w],
                    NIC.transfer_time(moved_bytes),
                    SpanMeta { bytes: moved_bytes, worker: Some(rid), ..SpanMeta::default() },
                );
                let (_, _, _, nn_h) = self.stage_times(report, tm, w);
                let gpu_end = tl.schedule(
                    Resource::WorkerGpu(rid),
                    SpanKind::Redispatch,
                    nic_end,
                    nn_h * (moved as f64 / nb as f64),
                    SpanMeta { edges: u64_of_usize(moved), worker: Some(rid), ..SpanMeta::default() },
                );
                chain_end[r] = chain_end[r].max(gpu_end);
            }
        }

        let sync_rounds = *report.num_batches.iter().max().unwrap_or(&0);
        match policy.stale_sync {
            None => {
                let worst = tl.makespan();
                let dur = network::allreduce_time(&NIC, tm.param_bytes, k) * sync_rounds as f64;
                tl.schedule(
                    Resource::AllReduce,
                    SpanKind::AllReduce,
                    worst,
                    dur,
                    SpanMeta {
                        bytes: tm.param_bytes * u64_of_usize(sync_rounds),
                        ..SpanMeta::default()
                    },
                );
            }
            Some(ss) => {
                // The barrier waits only for workers within the lag
                // budget of the fastest active worker (measured in the
                // worker's own per-batch time); the ring shrinks to the
                // included set. Skip-killed and batchless workers have no
                // gradients to contribute and neither gate nor count.
                let mut fastest = f64::INFINITY;
                for w in 0..k {
                    if report.num_batches[w] > 0 && !skipped[w] {
                        fastest = fastest.min(chain_end[w]);
                    }
                }
                let mut excluded = 0usize;
                let mut sync_ready = 0.0f64;
                for w in 0..k {
                    if report.num_batches[w] == 0 || skipped[w] {
                        continue;
                    }
                    let per_batch = stage_sum[w] / report.num_batches[w] as f64;
                    // Clock positions are plain f64; the lag budget is a duration.
                    if chain_end[w] > fastest + (per_batch * ss.max_lag_batches as f64).0 {
                        excluded += 1;
                    } else {
                        sync_ready = sync_ready.max(chain_end[w]);
                    }
                }
                let dur = network::stale_allreduce_time(&NIC, tm.param_bytes, k, excluded)
                    * sync_rounds as f64;
                tl.schedule(
                    Resource::AllReduce,
                    SpanKind::StaleSync,
                    sync_ready,
                    dur,
                    SpanMeta {
                        bytes: tm.param_bytes * u64_of_usize(sync_rounds),
                        edges: u64_of_usize(excluded) * u64_of_usize(sync_rounds),
                        ..SpanMeta::default()
                    },
                );
            }
        }
        tl
    }

    /// Modelled wall-clock time of the healthy simulated epoch: the slowest
    /// worker's sampling + communication + GPU compute, plus gradient
    /// all-reduces — the makespan of the replay under the neutral plan and
    /// policy.
    pub fn epoch_time(&self, report: &EpochLoadReport, tm: &TimeModel) -> f64 {
        self.epoch_timeline_resilient(
            report,
            tm,
            &FaultPlan::none(),
            0,
            &ResiliencePolicy::none(),
        )
        .makespan()
    }

    /// Policy-free closed form of the epoch time under a fault plan, the
    /// independent oracle of [`ClusterSim::epoch_timeline_resilient`]: each
    /// worker's chain is a straight sum because its CPU/NIC/GPU lanes
    /// never contend with each other, folded in the replay's operation
    /// order. The neutral plan reduces it to the healthy closed form
    /// (`max` over workers of sample + exchange + NN, plus the
    /// all-reduces). `tests/trace_goldens.rs` pins it bitwise-equal to the
    /// replay's makespan across seeds and fault rates.
    #[expect(clippy::disallowed_methods, reason = "the timeline's closed-form oracle sums the same prices, with no timeline by design")]
    pub fn epoch_time_faulted_closed_form(
        &self,
        report: &EpochLoadReport,
        tm: &TimeModel,
        plan: &FaultPlan,
        epoch: usize,
    ) -> f64 {
        let k = self.part.k;
        let mut worst = Seconds(0.0);
        for w in 0..k {
            let wid = u32_of_index(w);
            let cf = plan.compute_slowdown(epoch, wid);
            let bf = plan.bandwidth_slowdown(epoch, wid);
            let (_, sample_h, comm_h, nn_h) = self.stage_times(report, tm, w);
            let sample_t = sample_h * cf;
            let comm_t = comm_h * bf;
            let nn_t = nn_h * cf;
            let mut t = sample_t;
            for attempt in 0..plan.nic_failures(epoch, wid) {
                t += comm_t + RETRY_TIMEOUT;
                t += backoff_delay(attempt);
            }
            t += comm_t;
            t += nn_t;
            let snapshots = plan.snapshots(report.num_batches[w]);
            if snapshots > 0 {
                t += network::snapshot_time(&NIC, tm.param_bytes, u64_of_usize(snapshots));
            }
            if let Some(crash_batch) = plan.crash_batch(epoch, wid, report.num_batches[w]) {
                let replayed = plan.replayed_batches(crash_batch);
                t += network::snapshot_time(&NIC, tm.param_bytes, 1);
                let per_batch = (sample_t + comm_t + nn_t) / report.num_batches[w] as f64;
                t += per_batch * replayed as f64;
            }
            worst = worst.max(t);
        }
        let sync_rounds = *report.num_batches.iter().max().unwrap_or(&0);
        (worst + network::allreduce_time(&NIC, tm.param_bytes, k) * sync_rounds as f64).0
    }

    /// Policy-on-vs-policy-off comparison of one faulted epoch: replays
    /// the same fault plan with and without the resilience policy and
    /// reduces the resilience spans (hedges, cancellations, re-dispatch,
    /// stale syncs) into a [`PolicyOutcome`].
    pub fn resilience_with_policy(
        &self,
        report: &EpochLoadReport,
        tm: &TimeModel,
        plan: &FaultPlan,
        epoch: usize,
        policy: &ResiliencePolicy,
    ) -> PolicyOutcome {
        let baseline =
            self.epoch_timeline_resilient(report, tm, plan, epoch, &ResiliencePolicy::none());
        let resilient = self.epoch_timeline_resilient(report, tm, plan, epoch, policy);
        let total_batches = u64_of_usize(report.num_batches.iter().sum());
        PolicyOutcome::compare(&baseline, &resilient, total_batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_faults::DeadlinePolicy;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};
    use gnn_dm_partition::{partition_graph, PartitionMethod};
    use gnn_dm_sampling::FanoutSampler;

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 1500,
            avg_degree: 10.0,
            num_classes: 6,
            homophily: 0.9,
            skew: 0.7,
            feat_dim: 32,
            ..Default::default()
        })
    }

    fn simulate(g: &Graph, method: PartitionMethod) -> (EpochLoadReport, GnnPartitioning) {
        let part = partition_graph(g, method, 4, 7);
        let sim = ClusterSim { graph: g, part: &part, batch_size: 64, seed: 3 };
        let sampler = FanoutSampler::new(vec![10, 5]);
        let report = sim.simulate_epoch(&sampler, 0);
        (report, part)
    }

    #[test]
    fn stream_v_needs_no_communication() {
        let g = graph();
        let (report, _) = simulate(&g, PartitionMethod::StreamV);
        assert_eq!(report.comm.total_volume(), 0, "L-hop halo caching removes all communication");
    }

    #[test]
    fn hash_communicates_most_and_most_evenly() {
        let g = graph();
        let (hash, _) = simulate(&g, PartitionMethod::Hash);
        let (metis, _) = simulate(&g, PartitionMethod::MetisV);
        assert!(
            hash.comm.total_volume() > metis.comm.total_volume(),
            "hash volume {} vs metis {}",
            hash.comm.total_volume(),
            metis.comm.total_volume()
        );
        assert!(
            hash.comm.imbalance() < metis.comm.imbalance() + 0.2,
            "hash comm imbalance {} vs metis {}",
            hash.comm.imbalance(),
            metis.comm.imbalance()
        );
    }

    #[test]
    fn metis_has_lower_total_compute_than_hash() {
        // §5.3.1: clustering lets batch members share sampled neighbors, so
        // the deduplicated aggregation workload shrinks.
        let g = graph();
        let (hash, _) = simulate(&g, PartitionMethod::Hash);
        let (metis, _) = simulate(&g, PartitionMethod::MetisV);
        assert!(
            metis.compute.grand_total() < hash.compute.grand_total(),
            "metis {} vs hash {}",
            metis.compute.grand_total(),
            hash.compute.grand_total()
        );
    }

    #[test]
    fn hash_compute_is_most_balanced() {
        let g = graph();
        let (hash, _) = simulate(&g, PartitionMethod::Hash);
        let (stream, _) = simulate(&g, PartitionMethod::StreamB);
        assert!(
            hash.compute.imbalance() <= stream.compute.imbalance() + 0.05,
            "hash {} vs stream-b {}",
            hash.compute.imbalance(),
            stream.compute.imbalance()
        );
    }

    #[test]
    fn epoch_time_positive_and_ordered() {
        let g = graph();
        let tm = TimeModel::paper_default(32, 128, 100_000);
        let (hash, ph) = simulate(&g, PartitionMethod::Hash);
        let (metis, pm) = simulate(&g, PartitionMethod::MetisV);
        let sim_h = ClusterSim { graph: &g, part: &ph, batch_size: 64, seed: 3 };
        let sim_m = ClusterSim { graph: &g, part: &pm, batch_size: 64, seed: 3 };
        let th = sim_h.epoch_time(&hash, &tm);
        let tms = sim_m.epoch_time(&metis, &tm);
        assert!(th > 0.0 && tms > 0.0);
        // Hash moves far more bytes over the NIC → longer epochs (Fig. 8).
        assert!(th > tms, "hash epoch {th} vs metis epoch {tms}");
    }

    #[test]
    fn every_train_vertex_processed_once() {
        let g = graph();
        let (report, part) = simulate(&g, PartitionMethod::MetisVE);
        let train = g.train_vertices();
        assert!(!train.is_empty());
        // ceil(train_w / batch) per worker.
        let expect: Vec<usize> = (0..4u32)
            .map(|w| train.iter().filter(|&&v| part.part_of(v) == w).count().div_ceil(64))
            .collect();
        assert_eq!(report.num_batches, expect);
        // The schedule holds each training vertex once, on its home worker.
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let mut seen: Vec<VId> = Vec::new();
        for (w, batches) in (0u32..).zip(sim.worker_batches(0)) {
            assert_eq!(batches.len(), expect[usize_of_u32(w)]);
            for v in batches.into_iter().flatten() {
                assert_eq!(part.part_of(v), w);
                seen.push(v);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, train);
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let part = partition_graph(&g, PartitionMethod::Hash, 4, 1);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 50, seed: 9 };
        let sampler = FanoutSampler::new(vec![5, 5]);
        assert_eq!(sim.simulate_epoch(&sampler, 1), sim.simulate_epoch(&sampler, 1));
    }

    #[test]
    fn ledgers_are_reductions_of_the_traced_spans() {
        let g = graph();
        let part = partition_graph(&g, PartitionMethod::Hash, 4, 7);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let sampler = FanoutSampler::new(vec![10, 5]);
        let (report, tl) = sim.simulate_epoch_traced(&sampler, 0);
        assert!(report.comm.total_volume() > 0, "hash partitioning must communicate");
        assert_eq!(crate::ledger::compute_ledger_from_spans(&tl, 4), report.compute);
        assert_eq!(crate::ledger::comm_ledger_from_spans(&tl, 4), report.comm);
        // Accounting spans are pure bookkeeping: they must not advance time.
        assert_eq!(tl.makespan().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn epoch_time_is_the_timeline_makespan() {
        let g = graph();
        let tm = TimeModel::paper_default(32, 128, 100_000);
        let (report, part) = simulate(&g, PartitionMethod::Hash);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let (plan, policy) = (FaultPlan::none(), ResiliencePolicy::none());
        let replayed = sim.epoch_time(&report, &tm);
        let closed = sim.epoch_time_faulted_closed_form(&report, &tm, &plan, 0);
        assert_eq!(replayed.to_bits(), closed.to_bits());
        // Per-worker chains plus the terminal all-reduce span.
        let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, 0, &policy);
        assert_eq!(tl.len(), 3 * 4 + 1);
    }

    #[test]
    fn hedging_never_slows_an_epoch_and_ledgers_the_waste() {
        let g = graph();
        let tm = TimeModel::paper_default(32, 128, 100_000);
        let (report, part) = simulate(&g, PartitionMethod::Hash);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let plan = FaultPlan::uniform(9, 0.7);
        let policy = ResiliencePolicy::hedged(1.5);
        let mut saw_hedge = false;
        for epoch in 0..8 {
            let out = sim.resilience_with_policy(&report, &tm, &plan, epoch, &policy);
            let (base, res) = (out.baseline_s, out.resilient_s);
            assert!(
                res <= base,
                "hedging slowed epoch {epoch}: {res} > {base}"
            );
            if out.hedged_bytes > 0 {
                saw_hedge = true;
                assert!(res < base, "a hedge-won epoch must be strictly faster");
                assert!(out.wasted_bytes > 0, "hedge wins must ledger abandoned bytes");
            } else {
                assert_eq!(out.wasted_bytes, 0, "no hedge, no waste");
                assert_eq!(res.to_bits(), base.to_bits());
            }
            // The outcome's byte counters are exactly the span reductions.
            let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &policy);
            let k = part.k;
            assert_eq!(
                out.hedged_bytes,
                crate::ledger::hedge_bytes_from_spans(&tl, k).iter().sum::<u64>()
            );
            assert_eq!(
                out.wasted_bytes,
                crate::ledger::wasted_bytes_from_spans(&tl, k).iter().sum::<u64>()
            );
        }
        assert!(saw_hedge, "rate 0.7 must produce at least one hedged round in 8 epochs");
    }

    #[test]
    fn skip_batch_deadline_kills_the_chain_and_costs_accuracy() {
        let g = graph();
        let tm = TimeModel::paper_default(32, 128, 100_000);
        let (report, part) = simulate(&g, PartitionMethod::Hash);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let plan = FaultPlan::uniform(9, 0.5);
        // A zero budget kills every worker's exchange stage outright.
        let policy = ResiliencePolicy {
            deadline: Some(DeadlinePolicy {
                stage_timeout_s: Seconds(0.0),
                action: DeadlineAction::SkipBatch,
            }),
            ..ResiliencePolicy::none()
        };
        let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, 0, &policy);
        // Every worker: Sample + Cancel, then the terminal collective.
        assert_eq!(tl.len(), 2 * part.k + 1);
        let out = sim.resilience_with_policy(&report, &tm, &plan, 0, &policy);
        let total: u64 = report.num_batches.iter().map(|&b| u64_of_usize(b)).sum();
        assert_eq!(out.skipped_batches, total, "every batch is skipped");
        assert!(out.accuracy_retention() < 1.0, "skipping batches must cost accuracy");
        assert!(
            out.resilient_s < out.baseline_s,
            "cutting every stage at t=0 must shrink the makespan"
        );
    }

    #[test]
    fn fallback_to_checkpoint_restores_and_keeps_training() {
        let g = graph();
        let tm = TimeModel::paper_default(32, 128, 100_000);
        let (report, part) = simulate(&g, PartitionMethod::Hash);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let plan = FaultPlan::uniform(9, 0.5);
        let policy = ResiliencePolicy {
            deadline: Some(DeadlinePolicy {
                stage_timeout_s: Seconds(0.0),
                action: DeadlineAction::FallbackToCheckpoint,
            }),
            ..ResiliencePolicy::none()
        };
        let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, 0, &policy);
        let out = sim.resilience_with_policy(&report, &tm, &plan, 0, &policy);
        assert_eq!(out.skipped_batches, 0, "fallback keeps every batch");
        // Each worker still runs its NN stage after the restore.
        let nn = tl.spans().iter().filter(|s| s.kind == SpanKind::NnCompute).count();
        assert_eq!(nn, part.k);
        let restores = tl.spans().iter().filter(|s| s.kind == SpanKind::Restore).count();
        assert!(restores >= part.k, "every killed stage restores a checkpoint");
    }

    #[test]
    fn stale_sync_and_redispatch_react_to_stragglers() {
        let g = graph();
        let tm = TimeModel::paper_default(32, 128, 100_000);
        let (report, part) = simulate(&g, PartitionMethod::Hash);
        let sim = ClusterSim { graph: &g, part: &part, batch_size: 64, seed: 3 };
        let plan = FaultPlan::uniform(9, 0.6);
        let full = ResiliencePolicy {
            hedge: None,
            ..ResiliencePolicy::full(Seconds(1.0e9))
        };
        let mut saw_stale = false;
        let mut saw_move = false;
        for epoch in 0..12 {
            let out = sim.resilience_with_policy(&report, &tm, &plan, epoch, &full);
            assert!(out.stale_sync_bytes > 0, "the degraded barrier always syncs");
            if out.stale_worker_rounds > 0 {
                saw_stale = true;
            }
            if out.redispatched_batches > 0 {
                saw_move = true;
                assert!(out.redispatched_bytes > 0, "moved batches carry moved bytes");
            }
            let tl = sim.epoch_timeline_resilient(&report, &tm, &plan, epoch, &full);
            assert_eq!(
                out.stale_sync_bytes,
                crate::ledger::stale_sync_bytes_from_spans(&tl),
                "outcome and ledger must agree on synced bytes"
            );
        }
        assert!(saw_stale, "rate 0.6 must lag someone past a 4-batch budget in 12 epochs");
        assert!(saw_move, "rate 0.6 must produce a straggler donation in 12 epochs");
    }
}
