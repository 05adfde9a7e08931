//! `gnn-dm-trace` — the deterministic span-timeline engine.
//!
//! Every modelled cost in this workspace — a PCIe burst, a CPU gather, a
//! GPU kernel, a NIC exchange, a gradient all-reduce — is a [`Span`]: an
//! interval `[t_start, t_end)` on exactly one [`Resource`], annotated with
//! the bytes and edges it moved. Spans are scheduled on a simulated clock
//! by a [`Timeline`], which keeps one FIFO lane per resource:
//!
//! ```text
//! t_start = lane_free(resource).max(ready)      // FIFO lane, data dependency
//! t_end   = t_start + duration
//! ```
//!
//! Durations and byte counts are [`units::Seconds`] and [`units::Bytes`];
//! positions on the clock (`ready`, `t_start`, `t_end`, the makespan) are
//! plain `f64` seconds.
//!
//! That single rule is the whole scheduling model. Overlap (pipelining,
//! compute/communication concurrency) *emerges* from spans landing on
//! different lanes instead of being hand-derived per call site, and the
//! epoch makespan is simply the maximum `t_end` over all spans.
//!
//! Determinism: the engine holds no wall clock, no RNG and no
//! hash-ordered container. A timeline's contents are a pure function of
//! the `schedule` call sequence, so producers that emit spans in a fixed
//! order (worker-order merges, batch-order loops) get bit-identical
//! timelines at any thread count — [`Timeline::to_chrome_trace`] then
//! renders byte-identical JSON.
//!
//! The exported JSON is the Chrome trace-event format (`ph:"X"` duration
//! events plus `ph:"M"` thread-name metadata), loadable in Perfetto or
//! `chrome://tracing`; [`Timeline::summary`] gives the aggregate
//! per-resource busy/idle/bytes view used by reports and tests.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod convert;
pub mod units;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use units::{Bytes, Seconds};

/// A modelled hardware resource. Each resource is one FIFO lane: it serves
/// spans in scheduling order and is busy with at most one span at a time.
///
/// The derived `Ord` gives lanes a stable display order in exports
/// (single-node resources first, then per-worker cluster lanes by worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// The host CPU doing batch preparation (sampling, shuffling, gather).
    CpuSampler,
    /// The CPU→GPU PCIe link.
    PcieLink,
    /// The GPU execution engine.
    GpuCompute,
    /// Cluster worker `w`'s CPU (sampling).
    WorkerCpu(u32),
    /// Cluster worker `w`'s NIC (subgraph/feature exchange).
    WorkerNic(u32),
    /// Cluster worker `w`'s GPU (training aggregation).
    WorkerGpu(u32),
    /// The collective gradient all-reduce (a cluster-wide virtual lane).
    AllReduce,
}

impl Resource {
    /// Stable human-readable lane label (the Perfetto thread name).
    pub fn label(&self) -> String {
        match self {
            Resource::CpuSampler => "cpu.sampler".to_string(),
            Resource::PcieLink => "pcie.link".to_string(),
            Resource::GpuCompute => "gpu.compute".to_string(),
            Resource::WorkerCpu(w) => format!("worker{w}.cpu"),
            Resource::WorkerNic(w) => format!("worker{w}.nic"),
            Resource::WorkerGpu(w) => format!("worker{w}.gpu"),
            Resource::AllReduce => "net.allreduce".to_string(),
        }
    }
}

/// What kind of work a span models (the Perfetto slice name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// CPU batch preparation (sampling) of one mini-batch.
    BatchPrep,
    /// CPU gather of scattered feature rows into a staging buffer.
    Gather,
    /// Bytes crossing a link (PCIe burst, bulk DMA).
    Transfer,
    /// NN forward/backward compute.
    NnCompute,
    /// Sampling executed for the worker's own training vertices.
    LocalSample,
    /// Sampling executed on behalf of another worker's request.
    RemoteSample,
    /// Training aggregation work (message edges).
    Aggregate,
    /// Sampled-subgraph bytes leaving a worker.
    SubgraphSend,
    /// Feature-row bytes leaving a worker.
    FeatureSend,
    /// Bytes arriving at a worker.
    Recv,
    /// A worker's whole-epoch sampling stage (cluster time model).
    Sample,
    /// A worker's whole-epoch NIC exchange stage (cluster time model).
    Exchange,
    /// A gradient all-reduce round.
    AllReduce,
    /// A failed transfer attempt: the bytes burned the wire for the full
    /// transfer duration plus the detection timeout, then were discarded.
    Retry,
    /// Waiting out the capped exponential backoff before a retry.
    Backoff,
    /// A parameter snapshot written over the NIC (crash-recovery
    /// checkpointing).
    Checkpoint,
    /// Reading the last parameter snapshot back after a crash.
    Restore,
    /// Re-executing batches lost to a crash; `meta.edges` carries the
    /// replayed batch count.
    Replay,
    /// A transfer completed by a hedged duplicate: the duplicate was
    /// launched at the hedge deadline and finished first. `meta.bytes`
    /// carries the bytes it delivered.
    Hedge,
    /// An abandoned attempt: a hedged loser or a deadline-killed stage.
    /// `meta.bytes` carries the wasted wire bytes; `meta.edges` carries
    /// the batches skipped by a deadline action (0 for hedge losers).
    Cancel,
    /// Work speculatively re-dispatched from a straggler to the fastest
    /// healthy worker; `meta.bytes` carries the moved input bytes and
    /// `meta.edges` the moved batch count.
    Redispatch,
    /// A bounded-staleness gradient sync that excluded lagging workers;
    /// `meta.bytes` carries the synced parameter bytes and `meta.edges`
    /// the number of excluded (stale) workers.
    StaleSync,
}

impl SpanKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::BatchPrep => "batch_prep",
            SpanKind::Gather => "gather",
            SpanKind::Transfer => "transfer",
            SpanKind::NnCompute => "nn_compute",
            SpanKind::LocalSample => "local_sample",
            SpanKind::RemoteSample => "remote_sample",
            SpanKind::Aggregate => "aggregate",
            SpanKind::SubgraphSend => "subgraph_send",
            SpanKind::FeatureSend => "feature_send",
            SpanKind::Recv => "recv",
            SpanKind::Sample => "sample",
            SpanKind::Exchange => "exchange",
            SpanKind::AllReduce => "allreduce",
            SpanKind::Retry => "retry",
            SpanKind::Backoff => "backoff",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Restore => "restore",
            SpanKind::Replay => "replay",
            SpanKind::Hedge => "hedge",
            SpanKind::Cancel => "cancel",
            SpanKind::Redispatch => "redispatch",
            SpanKind::StaleSync => "stale_sync",
        }
    }
}

/// Quantities a span accounts for, beyond its time interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanMeta {
    /// Bytes this span moved (0 for pure compute).
    pub bytes: Bytes,
    /// Graph edges this span processed (0 for pure transfers).
    pub edges: u64,
    /// Mini-batch index, when the span belongs to one.
    pub batch: Option<u32>,
    /// Worker index, when the span belongs to one.
    pub worker: Option<u32>,
}

impl SpanMeta {
    /// Meta carrying only a byte count.
    pub fn bytes(bytes: Bytes) -> SpanMeta {
        SpanMeta { bytes, ..SpanMeta::default() }
    }

    /// Meta carrying only an edge count.
    pub fn edges(edges: u64) -> SpanMeta {
        SpanMeta { edges, ..SpanMeta::default() }
    }
}

/// One scheduled interval of work on one resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The lane this span occupied.
    pub resource: Resource,
    /// What the work was.
    pub kind: SpanKind,
    /// Start time (seconds on the simulated clock).
    pub t_start: f64,
    /// End time (seconds on the simulated clock).
    pub t_end: f64,
    /// Byte/edge/identity annotations.
    pub meta: SpanMeta,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// A not-yet-scheduled cost: everything a [`Span`] has except its position
/// on the clock. Producers that run in parallel (cluster workers) emit
/// `Pending`s and let the caller schedule them in a deterministic merge
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pending {
    /// Target lane.
    pub resource: Resource,
    /// Work kind.
    pub kind: SpanKind,
    /// Duration (0 for pure accounting events).
    pub dur: Seconds,
    /// Annotations.
    pub meta: SpanMeta,
}

/// Aggregate view of one resource lane.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSummary {
    /// The lane.
    pub resource: Resource,
    /// Seconds the lane was occupied by spans.
    pub busy: f64,
    /// `makespan - busy`: seconds the lane sat idle while the epoch ran.
    pub idle: f64,
    /// Total bytes accounted to the lane.
    pub bytes: Bytes,
    /// Total edges accounted to the lane.
    pub edges: u64,
    /// Number of spans on the lane.
    pub spans: usize,
}

/// Aggregate view of a whole timeline: per-resource busy/idle/bytes plus
/// the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Maximum span end time.
    pub makespan: f64,
    /// One row per distinct resource, in `Resource` order.
    pub resources: Vec<ResourceSummary>,
}

impl SpanSummary {
    /// Deterministic JSON rendering (stable key and row order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"makespan\":{},\"resources\":[", json_num(self.makespan));
        for (i, r) in self.resources.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"resource\":\"{}\",\"busy\":{},\"idle\":{},\"bytes\":{},\"edges\":{},\"spans\":{}}}",
                r.resource.label(),
                json_num(r.busy),
                json_num(r.idle),
                r.bytes.0,
                r.edges,
                r.spans
            );
        }
        s.push_str("]}");
        s
    }
}

/// Exact tail-latency statistics over a set of duration samples.
///
/// Percentiles use the nearest-rank definition: for quantile `q` over `n`
/// ascending samples, `p(q) = sorted[ceil(q·n) - 1]`. This is an *exact*
/// reduction — no interpolation, no binning — so two identical sample
/// sets produce bitwise-identical statistics, and a sample set where the
/// tail strictly improves produces a strictly smaller `p999`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailStats {
    /// Number of samples reduced.
    pub count: usize,
    /// Median (nearest-rank p50), seconds.
    pub p50: f64,
    /// Nearest-rank 99th percentile, seconds.
    pub p99: f64,
    /// Nearest-rank 99.9th percentile, seconds.
    pub p999: f64,
    /// Maximum sample, seconds.
    pub max: f64,
}

impl TailStats {
    /// Reduces a sample set. Samples are sorted by `total_cmp` (total
    /// order, so NaN-free inputs reduce deterministically). An empty set
    /// reduces to all-zero statistics.
    pub fn from_samples(samples: &[f64]) -> TailStats {
        if samples.is_empty() {
            return TailStats { count: 0, p50: 0.0, p99: 0.0, p999: 0.0, max: 0.0 };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        TailStats {
            count: sorted.len(),
            p50: percentile_nearest_rank(&sorted, 0.50),
            p99: percentile_nearest_rank(&sorted, 0.99),
            p999: percentile_nearest_rank(&sorted, 0.999),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Nearest-rank percentile over already-ascending samples:
/// `sorted[ceil(q·n) - 1]`, clamped to the valid index range so `q = 0`
/// maps to the minimum and `q = 1` to the maximum.
pub fn percentile_nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = convert::usize_of_f64_model((q * n as f64).ceil());
    sorted[rank.clamp(1, n) - 1]
}

/// The simulated-clock span recorder: a list of spans plus one FIFO lane
/// cursor per resource.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    spans: Vec<Span>,
    lanes: BTreeMap<Resource, f64>,
}

impl Timeline {
    /// An empty timeline at t = 0.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// An empty timeline at t = 0 with room for `spans` spans.
    pub fn with_capacity(spans: usize) -> Timeline {
        Timeline { spans: Vec::with_capacity(spans), lanes: BTreeMap::new() }
    }

    /// When `resource`'s lane next becomes free (0 if never used).
    pub fn lane_free(&self, resource: Resource) -> f64 {
        self.lanes.get(&resource).copied().unwrap_or(0.0)
    }

    /// The time a span scheduled on `resource` with dependency `ready`
    /// would start: `lane_free(resource).max(ready)`. Exposed so replay
    /// code can decompose a stage into sub-spans without changing the
    /// floating-point operation sequence of the stage-level recurrence.
    pub fn start_time(&self, resource: Resource, ready: f64) -> f64 {
        self.lane_free(resource).max(ready)
    }

    /// Schedules one span: it starts when both the lane is free and its
    /// dependency `ready` is met, runs for `dur`, and advances the lane
    /// cursor. Returns the span's end time (the `ready` for dependent
    /// spans).
    pub fn schedule(
        &mut self,
        resource: Resource,
        kind: SpanKind,
        ready: f64,
        dur: Seconds,
        meta: SpanMeta,
    ) -> f64 {
        let t_start = self.start_time(resource, ready);
        let t_end = t_start + dur.0;
        self.push_span(Span { resource, kind, t_start, t_end, meta });
        t_end
    }

    /// Schedules a [`Pending`] with dependency `ready`.
    pub fn schedule_pending(&mut self, ready: f64, p: &Pending) -> f64 {
        self.schedule(p.resource, p.kind, ready, p.dur, p.meta)
    }

    /// Records a span at an explicit interval. The lane cursor still only
    /// moves forward (`lane_free.max(t_end)`), so FIFO order is preserved;
    /// this is the escape hatch for splitting one lane occupancy into
    /// consecutive sub-spans (e.g. gather + bus time inside one transfer
    /// stage) without perturbing the stage-level end-time arithmetic.
    pub fn schedule_at(
        &mut self,
        resource: Resource,
        kind: SpanKind,
        t_start: f64,
        t_end: f64,
        meta: SpanMeta,
    ) {
        self.push_span(Span { resource, kind, t_start, t_end, meta });
    }

    fn push_span(&mut self, span: Span) {
        let cursor = self.lane_free(span.resource).max(span.t_end);
        self.lanes.insert(span.resource, cursor);
        self.spans.push(span);
    }

    /// All spans, in scheduling order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing was scheduled.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Distinct resources that carry at least one span, in `Resource`
    /// order.
    pub fn resources(&self) -> Vec<Resource> {
        self.lanes.keys().copied().collect()
    }

    /// Maximum span end time (0 for an empty timeline). Since `max` over a
    /// set of floats is order-independent, this equals the closed-form
    /// epoch time wherever one exists.
    pub fn makespan(&self) -> f64 {
        self.spans.iter().fold(0.0f64, |m, s| m.max(s.t_end))
    }

    /// Seconds `resource` was occupied (sum of span durations on its lane).
    pub fn busy(&self, resource: Resource) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.resource == resource)
            .fold(0.0f64, |acc, s| acc + s.duration())
    }

    /// Seconds spent in spans of `kind`, across all lanes.
    pub fn busy_of_kind(&self, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold(0.0f64, |acc, s| acc + s.duration())
    }

    /// Bytes accounted to `resource`.
    pub fn bytes_on(&self, resource: Resource) -> Bytes {
        self.spans.iter().filter(|s| s.resource == resource).map(|s| s.meta.bytes).sum()
    }

    /// Bytes accounted to spans of `kind`, across all lanes.
    pub fn bytes_of_kind(&self, kind: SpanKind) -> Bytes {
        self.spans.iter().filter(|s| s.kind == kind).map(|s| s.meta.bytes).sum()
    }

    /// Edges accounted to spans of `kind`, across all lanes.
    pub fn edges_of_kind(&self, kind: SpanKind) -> u64 {
        self.spans.iter().filter(|s| s.kind == kind).map(|s| s.meta.edges).sum()
    }

    /// Total bytes across every span.
    pub fn total_bytes(&self) -> Bytes {
        self.spans.iter().map(|s| s.meta.bytes).sum()
    }

    /// Exact tail statistics of span durations of one kind (stage), across
    /// all lanes.
    pub fn tail_stats_of_kind(&self, kind: SpanKind) -> TailStats {
        let samples: Vec<f64> =
            self.spans.iter().filter(|s| s.kind == kind).map(Span::duration).collect();
        TailStats::from_samples(&samples)
    }

    /// Aggregate per-resource summary.
    pub fn summary(&self) -> SpanSummary {
        let makespan = self.makespan();
        let resources = self
            .resources()
            .into_iter()
            .map(|r| {
                let busy = self.busy(r);
                ResourceSummary {
                    resource: r,
                    busy,
                    idle: makespan - busy,
                    bytes: self.bytes_on(r),
                    edges: self.spans.iter().filter(|s| s.resource == r).map(|s| s.meta.edges).sum(),
                    spans: self.spans.iter().filter(|s| s.resource == r).count(),
                }
            })
            .collect();
        SpanSummary { makespan, resources }
    }

    /// Renders the timeline as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`).
    ///
    /// Layout: one process (pid 0), one thread per resource lane (tid =
    /// the lane's rank in `Resource` order, named via `ph:"M"` metadata),
    /// then one `ph:"X"` duration event per span in scheduling order.
    /// Times are microseconds. The output is a pure function of the span
    /// list — identical timelines render byte-identical JSON. Non-finite
    /// times (only possible if a cost model was fed an invalid link) are
    /// clamped to 0 so the JSON stays loadable.
    pub fn to_chrome_trace(&self) -> String {
        let resources = self.resources();
        let tid_of = |r: Resource| resources.iter().position(|&x| x == r).unwrap_or(0);
        let mut s = String::new();
        s.push_str("{\"traceEvents\":[\n");
        s.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"gnn-dm cost model\"}}",
        );
        for (tid, r) in resources.iter().enumerate() {
            let _ = write!(
                s,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                r.label()
            );
        }
        for span in &self.spans {
            let ts = json_num(span.t_start * 1e6);
            let dur = json_num(span.duration() * 1e6);
            let _ = write!(
                s,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"bytes\":{},\"edges\":{}",
                span.kind.name(),
                tid_of(span.resource),
                span.meta.bytes.0,
                span.meta.edges
            );
            if let Some(b) = span.meta.batch {
                let _ = write!(s, ",\"batch\":{b}");
            }
            if let Some(w) = span.meta.worker {
                let _ = write!(s, ",\"worker\":{w}");
            }
            s.push_str("}}");
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}

/// Formats an `f64` as a JSON number. Rust's shortest-round-trip `Display`
/// is deterministic and never emits exponent syntax JSON rejects; the only
/// invalid values are non-finite ones, which are clamped to 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_is_fifo() {
        let mut tl = Timeline::new();
        let mut send = |secs: f64, bytes: u64| {
            tl.schedule(Resource::PcieLink, SpanKind::Transfer, 0.0, Seconds(secs), SpanMeta::bytes(Bytes(bytes)))
        };
        let a = send(2.0, 10);
        let b = send(3.0, 20);
        assert_eq!(a, 2.0);
        assert_eq!(b, 5.0, "second span queues behind the first");
        assert_eq!(tl.bytes_on(Resource::PcieLink), Bytes(30));
        assert_eq!(tl.makespan(), 5.0);
    }

    #[test]
    fn ready_dependency_delays_start() {
        let mut tl = Timeline::new();
        let none = SpanMeta::default();
        let bp = tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, 0.0, Seconds(1.0), none);
        let dt = tl.schedule(Resource::PcieLink, SpanKind::Transfer, bp, Seconds(2.0), none);
        assert_eq!(tl.spans()[1].t_start, 1.0, "transfer waits for batch prep");
        assert_eq!(dt, 3.0);
        // Independent lanes overlap: a second BP starts at 1.0, not 3.0.
        let bp2 = tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, 0.0, Seconds(1.0), none);
        assert_eq!(bp2, 2.0);
    }

    #[test]
    fn busy_and_summary_account_everything() {
        let mut tl = Timeline::new();
        tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, 0.0, Seconds(1.0), SpanMeta::edges(5));
        let bytes = SpanMeta::bytes(Bytes(100));
        tl.schedule(Resource::PcieLink, SpanKind::Transfer, 0.0, Seconds(4.0), bytes);
        let sum = tl.summary();
        assert_eq!(sum.makespan, 4.0);
        assert_eq!(sum.resources.len(), 2);
        let cpu = &sum.resources[0];
        assert_eq!(cpu.resource, Resource::CpuSampler);
        assert_eq!(cpu.busy, 1.0);
        assert_eq!(cpu.idle, 3.0);
        assert_eq!(cpu.edges, 5);
        assert_eq!(tl.busy_of_kind(SpanKind::Transfer), 4.0);
        assert_eq!(tl.edges_of_kind(SpanKind::BatchPrep), 5);
        assert_eq!(tl.total_bytes(), Bytes(100));
    }

    #[test]
    fn schedule_at_never_rewinds_the_lane() {
        let mut tl = Timeline::new();
        tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, 0.0, Seconds(5.0), SpanMeta::default());
        // Recording an earlier sub-span must not move the cursor backwards.
        tl.schedule_at(Resource::GpuCompute, SpanKind::NnCompute, 1.0, 2.0, SpanMeta::default());
        assert_eq!(tl.lane_free(Resource::GpuCompute), 5.0);
        let next =
            tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, 0.0, Seconds(1.0), SpanMeta::default());
        assert_eq!(next, 6.0);
    }

    #[test]
    fn pending_round_trip() {
        let p = Pending {
            resource: Resource::WorkerNic(2),
            kind: SpanKind::Exchange,
            dur: Seconds(0.5),
            meta: SpanMeta::bytes(Bytes(42)),
        };
        let mut tl = Timeline::new();
        let end = tl.schedule_pending(1.0, &p);
        assert_eq!(end, 1.5);
        assert_eq!(tl.spans()[0].meta.worker, None);
        assert_eq!(tl.bytes_on(Resource::WorkerNic(2)), Bytes(42));
    }

    #[test]
    fn chrome_trace_is_deterministic_and_well_formed() {
        let build = || {
            let mut tl = Timeline::new();
            let prep = Seconds(1.25e-3);
            let bp = tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, 0.0, prep, SpanMeta::edges(7));
            tl.schedule(
                Resource::PcieLink,
                SpanKind::Transfer,
                bp,
                Seconds(2.0e-3),
                SpanMeta { bytes: Bytes(4096), edges: 0, batch: Some(0), worker: None },
            );
            tl.to_chrome_trace()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "export must be a pure function of the spans");
        assert!(a.contains("\"cpu.sampler\""));
        assert!(a.contains("\"pcie.link\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"batch\":0"));
        assert!(a.contains("\"bytes\":4096"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn non_finite_times_render_loadable_json() {
        let mut tl = Timeline::new();
        let forever = Seconds(f64::INFINITY);
        tl.schedule(Resource::PcieLink, SpanKind::Transfer, 0.0, forever, SpanMeta::default());
        let json = tl.to_chrome_trace();
        assert!(!json.contains("inf"), "non-finite values are clamped: {json}");
    }

    #[test]
    fn resource_labels_are_stable() {
        assert_eq!(Resource::WorkerNic(3).label(), "worker3.nic");
        assert_eq!(Resource::AllReduce.label(), "net.allreduce");
        assert_eq!(SpanKind::Gather.name(), "gather");
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        // 1..=1000: p50 = 500, p99 = 990, p999 = 999, max = 1000 — all
        // exact array elements, no interpolation.
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let ts = TailStats::from_samples(&samples);
        assert_eq!(ts.count, 1000);
        assert_eq!(ts.p50.to_bits(), 500.0f64.to_bits());
        assert_eq!(ts.p99.to_bits(), 990.0f64.to_bits());
        assert_eq!(ts.p999.to_bits(), 999.0f64.to_bits());
        assert_eq!(ts.max.to_bits(), 1000.0f64.to_bits());
        // Small n: every quantile collapses onto real elements.
        let ts3 = TailStats::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(ts3.p50.to_bits(), 2.0f64.to_bits());
        assert_eq!(ts3.p999.to_bits(), 3.0f64.to_bits());
        // Degenerate cases.
        assert_eq!(TailStats::from_samples(&[]).count, 0);
        assert_eq!(TailStats::from_samples(&[7.0]).p50.to_bits(), 7.0f64.to_bits());
        assert_eq!(percentile_nearest_rank(&[5.0, 6.0], 0.0).to_bits(), 5.0f64.to_bits());
        assert_eq!(percentile_nearest_rank(&[5.0, 6.0], 1.0).to_bits(), 6.0f64.to_bits());
    }

    #[test]
    fn timeline_tail_stats_reduce_per_kind() {
        let mut tl = Timeline::new();
        for d in [1.0, 2.0, 9.0] {
            tl.schedule(Resource::PcieLink, SpanKind::Transfer, 0.0, Seconds(d), SpanMeta::default());
        }
        tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, 0.0, Seconds(4.0), SpanMeta::default());
        let transfers = tl.tail_stats_of_kind(SpanKind::Transfer);
        assert_eq!(transfers.count, 3);
        assert_eq!(transfers.p50.to_bits(), 2.0f64.to_bits());
        assert_eq!(transfers.max.to_bits(), 9.0f64.to_bits());
        let kind = tl.tail_stats_of_kind(SpanKind::NnCompute);
        assert_eq!(kind.count, 1);
        assert_eq!(kind.p999.to_bits(), 4.0f64.to_bits());
        assert_eq!(tl.tail_stats_of_kind(SpanKind::Hedge).count, 0);
    }

    #[test]
    fn resilience_span_kind_names_are_stable() {
        assert_eq!(SpanKind::Hedge.name(), "hedge");
        assert_eq!(SpanKind::Cancel.name(), "cancel");
        assert_eq!(SpanKind::Redispatch.name(), "redispatch");
        assert_eq!(SpanKind::StaleSync.name(), "stale_sync");
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::new();
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert_eq!(tl.makespan(), 0.0);
        assert!(tl.resources().is_empty());
        assert_eq!(tl.summary().resources.len(), 0);
    }
}
