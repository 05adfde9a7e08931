//! Per-worker load ledgers.
//!
//! §5.3.1 counts the computational workload of each machine as *sampling*
//! (local requests plus remote requests processed on behalf of others) plus
//! *training aggregation*; §5.3.2 counts communication as *remote sampled
//! subgraphs* plus *vertex features*. These ledgers hold exactly those
//! counters.
//!
//! Both ledgers are column stores over the same worker axis; the shared
//! aggregation boilerplate (worker totals, grand totals, imbalance) lives
//! in the generic [`WorkerLedger`] view. Since the span-timeline refactor
//! the ledgers are also *reductions over spans*: a traced cluster epoch
//! (`ClusterSim::simulate_epoch_traced`) emits one accounting span per
//! batch-and-owner, and [`compute_ledger_from_spans`] /
//! [`comm_ledger_from_spans`] rebuild the exact counters from the
//! timeline (pinned equal in `tests/trace_goldens.rs`).
//!
//! Which ledger a span kind's counters belong to is decided once, by the
//! exhaustive `match` in [`ledger_of`]; every `*_from_spans` reduction
//! selects through it.

use gnn_dm_trace::convert::{usize_of_u32, usize_of_u64_sat};
use gnn_dm_trace::units::Bytes;
use gnn_dm_trace::{Resource, SpanKind, Timeline};
use std::iter::Sum;

/// The ledger a span kind's counters are reduced into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    /// [`ComputeLedger::local_sample_edges`] (`meta.edges`).
    LocalSample,
    /// [`ComputeLedger::remote_sample_edges`] (`meta.edges`).
    RemoteSample,
    /// [`ComputeLedger::aggregation_edges`] (`meta.edges`).
    Aggregation,
    /// [`CommLedger::subgraph_bytes_sent`].
    SubgraphSent,
    /// [`CommLedger::feature_bytes_sent`].
    FeatureSent,
    /// [`CommLedger::bytes_received`].
    Received,
    /// [`retry_bytes_from_spans`].
    Retry,
    /// [`checkpoint_bytes_from_spans`].
    Checkpoint,
    /// [`hedge_bytes_from_spans`].
    Hedge,
    /// [`wasted_bytes_from_spans`].
    Wasted,
    /// [`redispatch_bytes_from_spans`].
    Redispatch,
    /// [`stale_sync_bytes_from_spans`].
    StaleSync,
    /// No ledger: the span carries bytes that are priced and summed
    /// elsewhere (the arm in [`ledger_of`] says where).
    Unledgered,
    /// No ledger: the span carries no bytes.
    ByteFree,
}

/// The one ledger each span kind is reduced into. No `_` arm: a new
/// `SpanKind` does not compile until it is assigned to exactly one ledger
/// or to a no-ledger arm that says why.
pub fn ledger_of(kind: SpanKind) -> Ledger {
    match kind {
        SpanKind::LocalSample => Ledger::LocalSample,
        SpanKind::RemoteSample => Ledger::RemoteSample,
        SpanKind::Aggregate => Ledger::Aggregation,
        SpanKind::SubgraphSend => Ledger::SubgraphSent,
        SpanKind::FeatureSend => Ledger::FeatureSent,
        SpanKind::Recv => Ledger::Received,
        SpanKind::Retry => Ledger::Retry,
        SpanKind::Checkpoint | SpanKind::Restore => Ledger::Checkpoint,
        SpanKind::Hedge => Ledger::Hedge,
        SpanKind::Cancel => Ledger::Wasted,
        SpanKind::Redispatch => Ledger::Redispatch,
        SpanKind::StaleSync => Ledger::StaleSync,
        // The PCIe burst is priced at emission by the link model
        // (`traced::link_transfer`); its bytes are summed per lane by
        // `Timeline::bytes_on` into `EpochTimings::pcie_bytes`.
        SpanKind::Transfer => Ledger::Unledgered,
        // The whole-epoch NIC stage is priced by `network::exchange_time`;
        // its bytes are the worker's traffic, which the comm ledger
        // already holds from the per-batch accounting spans.
        SpanKind::Exchange => Ledger::Unledgered,
        // Priced at emission by the closed-form ring term
        // (`network::allreduce_time`); the bytes ride along for the trace
        // export.
        SpanKind::AllReduce => Ledger::Unledgered,
        // Time only, or edge and batch counts only.
        SpanKind::BatchPrep
        | SpanKind::Gather
        | SpanKind::NnCompute
        | SpanKind::Sample
        | SpanKind::Backoff
        | SpanKind::Replay => Ledger::ByteFree,
    }
}

/// A borrowed view over `C` per-worker counter columns — the shared
/// backing for both ledgers' aggregate methods (`T` is `u64` edges or
/// [`Bytes`]).
#[derive(Debug, Clone, Copy)]
pub struct WorkerLedger<'a, T, const C: usize> {
    /// The columns, all of length `k` (one counter per worker).
    pub cols: [&'a [T]; C],
}

impl<'a, T: Copy + Sum + Into<u64>, const C: usize> WorkerLedger<'a, T, C> {
    /// Number of workers.
    pub fn k(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }

    /// Sum of all columns for worker `w`.
    pub fn worker_total(&self, w: usize) -> T {
        self.cols.iter().map(|c| c[w]).sum()
    }

    /// Per-worker totals.
    pub fn totals(&self) -> Vec<T> {
        (0..self.k()).map(|w| self.worker_total(w)).collect()
    }

    /// Sum over workers and columns.
    pub fn grand_total(&self) -> T {
        self.totals().into_iter().sum()
    }

    /// Max-over-average imbalance of per-worker totals.
    pub fn imbalance(&self) -> f64 {
        let totals: Vec<usize> = self.totals().into_iter().map(|t| usize_of_u64_sat(t.into())).collect();
        gnn_dm_partition::metrics::imbalance(&totals)
    }
}

/// Per-worker computational workload counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeLedger {
    /// Sampled edges produced for the worker's own training vertices.
    pub local_sample_edges: Vec<u64>,
    /// Sampled edges produced while serving other workers' requests.
    pub remote_sample_edges: Vec<u64>,
    /// Aggregation work (message edges) executed in training.
    pub aggregation_edges: Vec<u64>,
}

impl ComputeLedger {
    /// A zeroed ledger for `k` workers.
    pub fn new(k: usize) -> Self {
        ComputeLedger {
            local_sample_edges: vec![0; k],
            remote_sample_edges: vec![0; k],
            aggregation_edges: vec![0; k],
        }
    }

    /// The generic view over all three columns.
    fn view(&self) -> WorkerLedger<'_, u64, 3> {
        WorkerLedger {
            cols: [&self.local_sample_edges, &self.remote_sample_edges, &self.aggregation_edges],
        }
    }

    /// Number of workers.
    pub fn k(&self) -> usize {
        self.view().k()
    }

    /// Total computational load of worker `w` (sampling + aggregation).
    pub fn worker_total(&self, w: usize) -> u64 {
        self.view().worker_total(w)
    }

    /// Per-worker totals.
    pub fn totals(&self) -> Vec<u64> {
        self.view().totals()
    }

    /// Sum over workers (the paper's "total computational load").
    pub fn grand_total(&self) -> u64 {
        self.view().grand_total()
    }

    /// Max-over-average imbalance of per-worker totals.
    pub fn imbalance(&self) -> f64 {
        self.view().imbalance()
    }
}

/// Per-worker communication counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommLedger {
    /// Sampled-subgraph bytes sent to other workers.
    pub subgraph_bytes_sent: Vec<Bytes>,
    /// Feature bytes sent to other workers.
    pub feature_bytes_sent: Vec<Bytes>,
    /// Bytes received from other workers.
    pub bytes_received: Vec<Bytes>,
}

impl CommLedger {
    /// A zeroed ledger for `k` workers.
    pub fn new(k: usize) -> Self {
        CommLedger {
            subgraph_bytes_sent: vec![Bytes(0); k],
            feature_bytes_sent: vec![Bytes(0); k],
            bytes_received: vec![Bytes(0); k],
        }
    }

    /// The send-side columns only (each byte counted once).
    fn sent_view(&self) -> WorkerLedger<'_, Bytes, 2> {
        WorkerLedger { cols: [&self.subgraph_bytes_sent, &self.feature_bytes_sent] }
    }

    /// All three columns (per-worker traffic = sent + received).
    fn traffic_view(&self) -> WorkerLedger<'_, Bytes, 3> {
        WorkerLedger {
            cols: [&self.subgraph_bytes_sent, &self.feature_bytes_sent, &self.bytes_received],
        }
    }

    /// Number of workers.
    pub fn k(&self) -> usize {
        self.traffic_view().k()
    }

    /// Bytes sent by worker `w`.
    pub fn worker_sent(&self, w: usize) -> Bytes {
        self.sent_view().worker_total(w)
    }

    /// Per-worker traffic (sent + received) — the paper's per-machine
    /// communication load.
    pub fn worker_traffic(&self, w: usize) -> Bytes {
        self.traffic_view().worker_total(w)
    }

    /// Per-worker traffic vector.
    pub fn traffic(&self) -> Vec<Bytes> {
        self.traffic_view().totals()
    }

    /// Total communication volume in bytes (each byte counted once, on
    /// the send side).
    pub fn total_volume(&self) -> u64 {
        self.sent_view().grand_total().0
    }

    /// Max-over-average imbalance of per-worker traffic.
    pub fn imbalance(&self) -> f64 {
        self.traffic_view().imbalance()
    }
}

/// Rebuilds the compute ledger by reducing a traced epoch's accounting
/// spans (`LocalSample`/`RemoteSample` on worker CPU lanes, `Aggregate`
/// on worker GPU lanes).
pub fn compute_ledger_from_spans(tl: &Timeline, k: usize) -> ComputeLedger {
    let mut led = ComputeLedger::new(k);
    for s in tl.spans() {
        let w = match s.resource {
            Resource::WorkerCpu(w) | Resource::WorkerGpu(w) => usize_of_u32(w),
            _ => continue,
        };
        if w >= k {
            continue;
        }
        let col = match ledger_of(s.kind) {
            Ledger::LocalSample => &mut led.local_sample_edges,
            Ledger::RemoteSample => &mut led.remote_sample_edges,
            Ledger::Aggregation => &mut led.aggregation_edges,
            _ => continue,
        };
        col[w] += s.meta.edges;
    }
    led
}

/// Rebuilds the communication ledger by reducing a traced epoch's
/// accounting spans (`SubgraphSend`/`FeatureSend`/`Recv` on worker NIC
/// lanes).
pub fn comm_ledger_from_spans(tl: &Timeline, k: usize) -> CommLedger {
    let mut led = CommLedger::new(k);
    for s in tl.spans() {
        let Resource::WorkerNic(w) = s.resource else { continue };
        let w = usize_of_u32(w);
        if w >= k {
            continue;
        }
        let col = match ledger_of(s.kind) {
            Ledger::SubgraphSent => &mut led.subgraph_bytes_sent,
            Ledger::FeatureSent => &mut led.feature_bytes_sent,
            Ledger::Received => &mut led.bytes_received,
            _ => continue,
        };
        col[w] += s.meta.bytes;
    }
    led
}

/// Per-worker bytes retransmitted by failed NIC exchanges, reduced from a
/// faulted epoch timeline's `Retry` spans (one span per failed attempt,
/// each carrying the full retransmitted exchange). With a neutral fault
/// plan the timeline has no such spans and every entry is zero.
pub fn retry_bytes_from_spans(tl: &Timeline, k: usize) -> Vec<u64> {
    bytes_by_worker(tl, k, Ledger::Retry)
}

/// Per-worker checkpoint-traffic bytes (snapshot writes plus
/// crash-recovery restores), reduced from a faulted epoch timeline's
/// `Checkpoint` and `Restore` spans.
pub fn checkpoint_bytes_from_spans(tl: &Timeline, k: usize) -> Vec<u64> {
    bytes_by_worker(tl, k, Ledger::Checkpoint)
}

/// Per-worker bytes delivered by hedge-rescued exchanges, reduced from a
/// resilient epoch timeline's `Hedge` spans (the winning duplicate of a
/// transfer whose primary attempt was abandoned at the hedge deadline).
pub fn hedge_bytes_from_spans(tl: &Timeline, k: usize) -> Vec<u64> {
    bytes_by_worker(tl, k, Ledger::Hedge)
}

/// Per-worker wasted wire bytes from abandoned transfer attempts, reduced
/// from a resilient epoch timeline's `Cancel` spans (hedge losers and
/// deadline-killed exchange stages). This is the exact cost side of the
/// hedging ledger: speedup is bought with precisely these bytes.
pub fn wasted_bytes_from_spans(tl: &Timeline, k: usize) -> Vec<u64> {
    bytes_by_worker(tl, k, Ledger::Wasted)
}

/// Per-worker bytes of straggler input forwarded to a re-dispatch
/// recipient, reduced from a resilient epoch timeline's `Redispatch` NIC
/// spans (the matching GPU spans carry batches in `meta.edges`, not
/// bytes).
pub fn redispatch_bytes_from_spans(tl: &Timeline, k: usize) -> Vec<u64> {
    bytes_by_worker(tl, k, Ledger::Redispatch)
}

/// Total parameter bytes synchronised by bounded-staleness collectives,
/// reduced from a resilient epoch timeline's `StaleSync` spans. The
/// degraded barrier runs on the shared all-reduce lane, not a worker NIC,
/// so this reduction is a scalar rather than a per-worker vector.
pub fn stale_sync_bytes_from_spans(tl: &Timeline) -> u64 {
    let synced: Bytes = tl
        .spans()
        .iter()
        .filter(|s| s.resource == Resource::AllReduce && ledger_of(s.kind) == Ledger::StaleSync)
        .map(|s| s.meta.bytes)
        .sum();
    synced.0
}

/// Shared reduction: sums `meta.bytes` of the span kinds reduced into
/// `ledger` on each worker's NIC lane, as plain byte counts.
fn bytes_by_worker(tl: &Timeline, k: usize, ledger: Ledger) -> Vec<u64> {
    let mut out = vec![Bytes(0); k];
    for s in tl.spans() {
        let Resource::WorkerNic(w) = s.resource else { continue };
        let w = usize_of_u32(w);
        if w < k && ledger_of(s.kind) == ledger {
            out[w] += s.meta.bytes;
        }
    }
    out.into_iter().map(u64::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_trace::units::Seconds;
    use gnn_dm_trace::SpanMeta;

    /// Schedules one span of `secs` at `ready`.
    fn put(tl: &mut Timeline, lane: Resource, kind: SpanKind, ready: f64, secs: f64, meta: SpanMeta) {
        tl.schedule(lane, kind, ready, Seconds(secs), meta);
    }

    fn bytes(n: u64) -> SpanMeta {
        SpanMeta::bytes(Bytes(n))
    }

    fn column(counts: [u64; 2]) -> Vec<Bytes> {
        counts.into_iter().map(Bytes).collect()
    }

    #[test]
    fn compute_totals_and_imbalance() {
        let mut c = ComputeLedger::new(2);
        c.local_sample_edges[0] = 10;
        c.remote_sample_edges[0] = 5;
        c.aggregation_edges[0] = 5;
        c.aggregation_edges[1] = 10;
        assert_eq!(c.worker_total(0), 20);
        assert_eq!(c.grand_total(), 30);
        assert!((c.imbalance() - 20.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn comm_volume_counts_once() {
        let mut c = CommLedger::new(2);
        c.feature_bytes_sent[0] = Bytes(100);
        c.bytes_received[1] = Bytes(100);
        assert_eq!(c.total_volume(), 100);
        assert_eq!(c.worker_traffic(0), Bytes(100));
        assert_eq!(c.worker_traffic(1), Bytes(100));
    }

    #[test]
    fn zero_ledgers_balanced() {
        assert_eq!(ComputeLedger::new(4).imbalance(), 1.0);
        assert_eq!(CommLedger::new(4).imbalance(), 1.0);
    }

    #[test]
    fn generic_view_handles_empty_and_zero_columns() {
        let view: WorkerLedger<'_, u64, 0> = WorkerLedger { cols: [] };
        assert_eq!(view.k(), 0);
        assert_eq!(view.grand_total(), 0);
        assert_eq!(view.imbalance(), 1.0);
    }

    #[test]
    fn ledgers_reduce_from_spans() {
        let mut tl = Timeline::new();
        put(&mut tl, Resource::WorkerCpu(0), SpanKind::LocalSample, 0.0, 0.0, SpanMeta::edges(7));
        put(&mut tl, Resource::WorkerCpu(1), SpanKind::RemoteSample, 0.0, 0.0, SpanMeta::edges(3));
        put(&mut tl, Resource::WorkerGpu(0), SpanKind::Aggregate, 0.0, 0.0, SpanMeta::edges(11));
        put(&mut tl, Resource::WorkerNic(1), SpanKind::SubgraphSend, 0.0, 0.0, bytes(24));
        put(&mut tl, Resource::WorkerNic(1), SpanKind::FeatureSend, 0.0, 0.0, bytes(8));
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Recv, 0.0, 0.0, bytes(32));
        // Time-model spans on the same lanes must not perturb the counters.
        put(&mut tl, Resource::WorkerCpu(0), SpanKind::Sample, 0.0, 1.0, SpanMeta::edges(999));
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Exchange, 0.0, 1.0, bytes(999));

        let compute = compute_ledger_from_spans(&tl, 2);
        assert_eq!(compute.local_sample_edges, vec![7, 0]);
        assert_eq!(compute.remote_sample_edges, vec![0, 3]);
        assert_eq!(compute.aggregation_edges, vec![11, 0]);

        let comm = comm_ledger_from_spans(&tl, 2);
        assert_eq!(comm.subgraph_bytes_sent, column([0, 24]));
        assert_eq!(comm.feature_bytes_sent, column([0, 8]));
        assert_eq!(comm.bytes_received, column([32, 0]));
    }

    #[test]
    fn fault_byte_ledgers_reduce_from_spans() {
        let mut tl = Timeline::new();
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Retry, 0.0, 0.1, bytes(50));
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Retry, 0.0, 0.1, bytes(50));
        put(&mut tl, Resource::WorkerNic(1), SpanKind::Checkpoint, 0.0, 0.1, bytes(30));
        put(&mut tl, Resource::WorkerNic(1), SpanKind::Restore, 0.0, 0.1, bytes(10));
        // Ordinary exchange bytes must not leak into the fault ledgers.
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Exchange, 0.0, 1.0, bytes(999));
        assert_eq!(retry_bytes_from_spans(&tl, 2), vec![100, 0]);
        assert_eq!(checkpoint_bytes_from_spans(&tl, 2), vec![0, 40]);
    }

    #[test]
    fn resilience_byte_ledgers_reduce_from_spans() {
        let mut tl = Timeline::new();
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Cancel, 0.0, 0.1, bytes(40));
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Hedge, 0.1, 0.2, bytes(40));
        put(&mut tl, Resource::WorkerNic(1), SpanKind::Redispatch, 0.0, 0.1, bytes(25));
        put(&mut tl, Resource::WorkerGpu(1), SpanKind::Redispatch, 0.1, 0.2, SpanMeta::edges(3));
        put(&mut tl, Resource::AllReduce, SpanKind::StaleSync, 0.3, 0.1, bytes(64));
        put(&mut tl, Resource::AllReduce, SpanKind::StaleSync, 0.4, 0.1, bytes(64));
        // Ordinary exchange bytes must not leak into any resilience ledger.
        put(&mut tl, Resource::WorkerNic(0), SpanKind::Exchange, 0.0, 1.0, bytes(999));
        assert_eq!(hedge_bytes_from_spans(&tl, 2), vec![40, 0]);
        assert_eq!(wasted_bytes_from_spans(&tl, 2), vec![40, 0]);
        assert_eq!(redispatch_bytes_from_spans(&tl, 2), vec![0, 25]);
        assert_eq!(stale_sync_bytes_from_spans(&tl), 128);
    }
}
