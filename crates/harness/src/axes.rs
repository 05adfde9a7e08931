//! The seven evaluation axes, each a plain value.
//!
//! An axis value is data: it parses from its canonical spec string, prints
//! back to it, compares with `==`, and exposes what the executors need as
//! inherent methods. Every method that builds something delegates to the
//! exact constructor the pre-harness experiments called, with the same
//! arguments in the same order, so routing an experiment through these
//! values cannot change a single output byte.
//!
//! `parse` is where a spec enters the program, so it is where every
//! numeric parameter is range-checked (finite; ratios, rates, thresholds
//! and efficiencies in their unit interval; counts, batch sizes and worker
//! numbers at least 1) and where the spec is required to be canonical
//! (`parse(s)?.spec() == s`). Fields are private: a value that exists has
//! passed those checks, and nothing downstream re-validates or panics.
//! Specs never contain `/`, which [`crate::SystemConfig::id`] uses as the
//! axis separator.
//!
//! | axis        | specs                                                                 |
//! |-------------|-----------------------------------------------------------------------|
//! | partitioner | `hash`, `metis-v`, `metis-ve`, `metis-vet`, `stream-v`, `stream-b`, `stream-v(faithful\|fast)`, `stream-b(faithful\|fast)`, `metis-raw(refine=N)` |
//! | batch-prep  | `<sampler>+<schedule>[+cluster(k,seed)]` with sampler `fanout(f,..)`, `rate(r,..;min=M)`, `hybrid(f,..;r,..;thr=T)`, `importance(f,..;invdeg2)` and schedule `fixed(B)`, `adaptive(start,max,xG,everyE)`, `steps(e:b,..)` |
//! | transfer    | `extract-load`, `zero-copy`, `hybrid(T)`, then optionally `+pipe(bp\|full)`, then optionally `+eff(E)` |
//! | cache       | `none`, `degree(R)`, `presample(R,E)`                                 |
//! | parallel    | `single`, `cluster(K)`                                                |
//! | faults      | `none`, `uniform(SEED,RATE)`                                          |
//! | resilience  | `none`, or `hedge(F)`, `deadline(T,skip\|ckpt)`, `redispatch(S)`, `stale(K)` composed with `+` in that order |

use gnn_dm_device::cache::CachePolicy;
use gnn_dm_device::pipeline::PipelineMode;
use gnn_dm_device::transfer::TransferMethod;
use gnn_dm_faults::{
    DeadlineAction, DeadlinePolicy, FaultPlan, HedgePolicy, RedispatchPolicy, ResiliencePolicy,
    StaleSyncPolicy,
};
use gnn_dm_graph::Graph;
use gnn_dm_trace::units::Seconds;
use gnn_dm_partition::metis::{metis_extend_with, MetisVariant};
use gnn_dm_partition::stream::{stream_b, stream_b_fast, stream_v, stream_v_fast, DEFAULT_BLOCK_SIZE};
use gnn_dm_partition::{metis_clusters, partition_graph, GnnPartitioning, PartitionMethod};
use gnn_dm_sampling::sampler::ImportanceSampler;
use gnn_dm_sampling::{
    BatchSelection, BatchSizeSchedule, FanoutSampler, HybridSampler, NeighborSampler, RateSampler,
};

use crate::error::HarnessError;

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

/// Splits `head(args)` into `(head, args)`; `None` when there is no
/// parenthesized argument list.
fn call_args(s: &str) -> Option<(&str, &str)> {
    let open = s.find('(')?;
    if !s.ends_with(')') || s.len() < open + 2 {
        return None;
    }
    Some((&s[..open], &s[open + 1..s.len() - 1]))
}

/// The spec being parsed and the axis it belongs to: every error names
/// both, and every number is range-checked by the method that reads it.
#[derive(Clone, Copy)]
struct Spec<'a> {
    axis: &'static str,
    text: &'a str,
}

impl Spec<'_> {
    fn err(self, reason: &str) -> HarnessError {
        HarnessError::bad_spec(self.axis, self.text, reason)
    }

    /// An integer whose zero is meaningful (a seed, a floor, an epoch);
    /// one too large for `T` is an error, not a wrap.
    fn int<T: std::str::FromStr>(self, s: &str) -> Result<T, HarnessError> {
        s.parse().map_err(|_| self.err(&format!("`{s}` is not an integer")))
    }

    /// A count, batch size or worker number: an integer of at least 1.
    fn count(self, s: &str) -> Result<usize, HarnessError> {
        match self.int(s)? {
            0 => Err(self.err(&format!("`{s}` must be at least 1"))),
            n => Ok(n),
        }
    }

    /// A number satisfying `ok`, described as `want` on failure. Every
    /// caller's `ok` is a range test, which `NaN` fails.
    fn num(self, s: &str, ok: impl Fn(f64) -> bool, want: &str) -> Result<f64, HarnessError> {
        match s.parse::<f64>() {
            Ok(x) if ok(x) => Ok(x),
            _ => Err(self.err(&format!("`{s}` must be {want}"))),
        }
    }

    /// A ratio, fault rate, threshold or fraction in `[0, 1]`; zero is
    /// meaningful (an empty cache, a healthy plan, nothing moved).
    fn unit(self, s: &str) -> Result<f64, HarnessError> {
        self.num(s, |x| (0.0..=1.0).contains(&x), "a number in [0, 1]")
    }

    /// A sampling rate or bandwidth efficiency in `(0, 1]`: at zero the
    /// sampler draws nothing and the link never finishes.
    fn positive_unit(self, s: &str) -> Result<f64, HarnessError> {
        self.num(s, |x| x > 0.0 && x <= 1.0, "a number in (0, 1]")
    }

    /// A comma-separated per-layer fanout list.
    fn counts(self, s: &str) -> Result<Vec<usize>, HarnessError> {
        s.split(',').map(|t| self.count(t)).collect()
    }

    /// A comma-separated per-layer sampling-rate list.
    fn rates(self, s: &str) -> Result<Vec<f64>, HarnessError> {
        s.split(',').map(|t| self.positive_unit(t)).collect()
    }

    /// Rejects a spec that parsed but is not the one its value prints
    /// (reordered or repeated parts, `007`, `1e2`, stray whitespace).
    fn canonical(self, canon: &str) -> Result<(), HarnessError> {
        if canon == self.text {
            return Ok(());
        }
        Err(self.err(&format!("non-canonical spec; the canonical form is `{canon}`")))
    }
}

fn join<T: ToString>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

// ---------------------------------------------------------------------------
// Axis 1 — partitioner
// ---------------------------------------------------------------------------

/// Axis 1 — graph partitioning (§5, Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partitioner {
    /// One of Table 3's six methods through [`partition_graph`]'s
    /// dispatcher (including Stream-V's fixed 2-hop halo and Stream-B's
    /// paper block size).
    Method(PartitionMethod),
    /// A streaming implementation picked explicitly instead of through
    /// the dispatcher (`ablate_stream_impl`). Stream-V uses the paper's
    /// 2-hop halo; Stream-B the default block size with the build seed.
    Stream {
        /// Block-streaming (Stream-B) rather than vertex-streaming.
        block: bool,
        /// The indexed implementation rather than the faithful one.
        fast: bool,
    },
    /// Metis-VE with its boundary-refinement passes per level overridden
    /// (`ablate_metis_refine`, through [`metis_extend_with`]).
    MetisRaw {
        /// Boundary-refinement passes per level; zero is meaningful
        /// (coarsen and project back without refining).
        refine_passes: usize,
    },
}

impl Partitioner {
    /// Canonical spec of one of Table 3's methods.
    fn method_spec(m: PartitionMethod) -> &'static str {
        match m {
            PartitionMethod::Hash => "hash",
            PartitionMethod::MetisV => "metis-v",
            PartitionMethod::MetisVE => "metis-ve",
            PartitionMethod::MetisVET => "metis-vet",
            PartitionMethod::StreamV => "stream-v",
            PartitionMethod::StreamB => "stream-b",
        }
    }

    /// Parses a partitioner spec (named methods plus the `stream-*(impl)`
    /// and `metis-raw(refine=N)` families).
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        if let Some(m) = PartitionMethod::all().into_iter().find(|&m| Self::method_spec(m) == spec)
        {
            return Ok(Partitioner::Method(m));
        }
        let cx = Spec { axis: "partitioner", text: spec };
        let partitioner = match call_args(spec) {
            Some((head @ ("stream-v" | "stream-b"), imp @ ("faithful" | "fast"))) => {
                Partitioner::Stream { block: head == "stream-b", fast: imp == "fast" }
            }
            Some(("stream-v" | "stream-b", _)) => {
                return Err(cx.err("implementation must be `faithful` or `fast`"))
            }
            Some(("metis-raw", args)) => {
                let passes =
                    args.strip_prefix("refine=").ok_or_else(|| cx.err("expected `refine=N`"))?;
                Partitioner::MetisRaw { refine_passes: cx.int(passes)? }
            }
            _ => return Err(cx.err("unknown partitioner")),
        };
        cx.canonical(&partitioner.spec())?;
        Ok(partitioner)
    }

    /// Display name matching the paper's figures (e.g. `Metis-VE`).
    pub fn name(&self) -> &'static str {
        match *self {
            Partitioner::Method(m) => m.name(),
            Partitioner::Stream { block: false, fast: false } => "stream_v (faithful)",
            Partitioner::Stream { block: false, fast: true } => "stream_v_fast",
            Partitioner::Stream { block: true, fast: false } => "stream_b (faithful)",
            Partitioner::Stream { block: true, fast: true } => "stream_b_fast",
            Partitioner::MetisRaw { .. } => "Metis-raw",
        }
    }

    /// Canonical spec (e.g. `metis-ve`, `stream-v(fast)`).
    pub fn spec(&self) -> String {
        match *self {
            Partitioner::Method(m) => Self::method_spec(m).to_string(),
            Partitioner::Stream { block, fast } => format!(
                "stream-{}({})",
                if block { "b" } else { "v" },
                if fast { "fast" } else { "faithful" }
            ),
            Partitioner::MetisRaw { refine_passes } => format!("metis-raw(refine={refine_passes})"),
        }
    }

    /// Builds the partitioning. `k` and `seed` come from the experiment,
    /// not the spec, so one spec serves every cluster size.
    pub fn build(&self, graph: &Graph, k: usize, seed: u64) -> GnnPartitioning {
        match *self {
            Partitioner::Method(m) => partition_graph(graph, m, k, seed),
            Partitioner::Stream { block: false, fast: false } => stream_v(graph, k, 2),
            Partitioner::Stream { block: false, fast: true } => stream_v_fast(graph, k, 2),
            Partitioner::Stream { block: true, fast: false } => {
                stream_b(graph, k, DEFAULT_BLOCK_SIZE, seed)
            }
            Partitioner::Stream { block: true, fast: true } => {
                stream_b_fast(graph, k, DEFAULT_BLOCK_SIZE, seed)
            }
            Partitioner::MetisRaw { refine_passes } => {
                metis_extend_with(graph, MetisVariant::VE, k, seed, refine_passes)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Axis 2 — batch preparation
// ---------------------------------------------------------------------------

/// Which neighbor sampler a [`BatchPrep`] builds. Fanouts are at least 1
/// and rates lie in `(0, 1]`.
#[derive(Debug, Clone, PartialEq)]
enum Sampler {
    /// Per-layer fanout sampling (GraphSAGE style).
    Fanout(Vec<usize>),
    /// Per-layer rate sampling; a `min` of zero is meaningful (no floor
    /// on the neighbors kept per vertex).
    Rate { rates: Vec<f64>, min: usize },
    /// Degree-thresholded hybrid: fanouts at or below `threshold`, rates
    /// above it, one of each per layer. A zero threshold is meaningful
    /// (every non-isolated vertex is rate-sampled).
    Hybrid { fanouts: Vec<usize>, rates: Vec<f64>, threshold: usize },
    /// Importance sampling weighted by squared inverse degree
    /// (`ablate_importance_cache`'s anti-degree access distribution).
    ImportanceInvDeg2(Vec<usize>),
}

/// Which batch selection policy a [`BatchPrep`] builds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Selection {
    /// Shuffled random batches (the paper's default).
    Random,
    /// Cluster-based selection over `metis_clusters(graph, k, seed)`,
    /// `k ≥ 1`.
    Cluster { k: usize, seed: u64 },
}

/// Axis 2 — batch preparation: sampler, batch-size schedule, and batch
/// selection policy (§6, Figures 9–12). Batch sizes are at least 1, an
/// adaptive schedule grows by a finite factor above 1 every `≥ 1` epochs;
/// a step table's epochs are strictly ascending and may start at zero
/// (the entry applies from the start).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPrep {
    sampler: Sampler,
    schedule: BatchSizeSchedule,
    selection: Selection,
}

fn parse_sampler(cx: Spec<'_>, part: &str) -> Result<Sampler, HarnessError> {
    let (head, args) = call_args(part).ok_or_else(|| cx.err("sampler needs arguments"))?;
    match head {
        "fanout" => Ok(Sampler::Fanout(cx.counts(args)?)),
        "rate" => {
            let (rates, min) =
                args.split_once(";min=").ok_or_else(|| cx.err("rate needs `;min=M`"))?;
            Ok(Sampler::Rate { rates: cx.rates(rates)?, min: cx.int(min)? })
        }
        "hybrid" => {
            let (fanouts, rates, threshold) = args
                .split_once(';')
                .and_then(|(fs, rest)| rest.split_once(";thr=").map(|(rs, thr)| (fs, rs, thr)))
                .ok_or_else(|| cx.err("hybrid needs `fanouts;rates;thr=T`"))?;
            let (fanouts, rates) = (cx.counts(fanouts)?, cx.rates(rates)?);
            if fanouts.len() != rates.len() {
                return Err(cx.err("hybrid needs one rate per fanout layer"));
            }
            Ok(Sampler::Hybrid { fanouts, rates, threshold: cx.int(threshold)? })
        }
        "importance" => {
            let fanouts = args
                .strip_suffix(";invdeg2")
                .ok_or_else(|| cx.err("importance needs `;invdeg2`, the only builtin weighting"))?;
            Ok(Sampler::ImportanceInvDeg2(cx.counts(fanouts)?))
        }
        _ => Err(cx.err("unknown sampler")),
    }
}

fn parse_schedule(cx: Spec<'_>, part: &str) -> Result<BatchSizeSchedule, HarnessError> {
    let (head, args) = call_args(part).ok_or_else(|| cx.err("schedule needs arguments"))?;
    match head {
        "fixed" => Ok(BatchSizeSchedule::Fixed(cx.count(args)?)),
        "adaptive" => {
            let fields: Vec<&str> = args.split(',').collect();
            let [start, max, growth, every] = fields[..] else {
                return Err(cx.err("adaptive needs `start,max,xG,everyE`"));
            };
            let growth = growth.strip_prefix('x').ok_or_else(|| cx.err("growth must be `xG`"))?;
            let every =
                every.strip_prefix("every").ok_or_else(|| cx.err("cadence must be `everyE`"))?;
            Ok(BatchSizeSchedule::Adaptive {
                start: cx.count(start)?,
                max: cx.count(max)?,
                growth: cx.num(growth, |g| g > 1.0 && g.is_finite(), "a finite factor above 1")?,
                grow_every: cx.count(every)?,
            })
        }
        "steps" => {
            let entry = |entry: &str| {
                let (epoch, batch) =
                    entry.split_once(':').ok_or_else(|| cx.err("steps entries are `epoch:batch`"))?;
                Ok((cx.int(epoch)?, cx.count(batch)?))
            };
            let table: Vec<(usize, usize)> = args.split(',').map(entry).collect::<Result<_, _>>()?;
            // Entry `i` applies from its epoch until the next entry's.
            if table.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(cx.err("steps epochs must be strictly ascending"));
            }
            Ok(BatchSizeSchedule::Steps(table))
        }
        _ => Err(cx.err("unknown schedule")),
    }
}

impl BatchPrep {
    /// Parses a batch-prep spec: `<sampler>+<schedule>[+cluster(k,seed)]`.
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        let cx = Spec { axis: "batch-prep", text: spec };
        let mut parts = spec.split('+');
        let (Some(sampler), Some(schedule)) = (parts.next(), parts.next()) else {
            return Err(cx.err("expected `<sampler>+<schedule>[+cluster(k,seed)]`"));
        };
        let selection = match parts.next().map(call_args) {
            None => Selection::Random,
            Some(Some(("cluster", args))) => {
                let (k, seed) = args
                    .split_once(',')
                    .ok_or_else(|| cx.err("selection must be `cluster(k,seed)`"))?;
                Selection::Cluster { k: cx.count(k)?, seed: cx.int(seed)? }
            }
            Some(_) => return Err(cx.err("selection must be `cluster(k,seed)`")),
        };
        let prep = BatchPrep {
            sampler: parse_sampler(cx, sampler)?,
            schedule: parse_schedule(cx, schedule)?,
            selection,
        };
        cx.canonical(&prep.spec())?;
        Ok(prep)
    }

    /// Canonical spec (e.g. `fanout(25,10)+fixed(512)`).
    pub fn spec(&self) -> String {
        let sampler = match &self.sampler {
            Sampler::Fanout(fs) => format!("fanout({})", join(fs)),
            Sampler::Rate { rates, min } => format!("rate({};min={min})", join(rates)),
            Sampler::Hybrid { fanouts, rates, threshold } => {
                format!("hybrid({};{};thr={threshold})", join(fanouts), join(rates))
            }
            Sampler::ImportanceInvDeg2(fs) => format!("importance({};invdeg2)", join(fs)),
        };
        let schedule = match &self.schedule {
            BatchSizeSchedule::Fixed(b) => format!("fixed({b})"),
            BatchSizeSchedule::Adaptive { start, max, growth, grow_every } => {
                format!("adaptive({start},{max},x{growth},every{grow_every})")
            }
            BatchSizeSchedule::Steps(table) => {
                let entries: Vec<String> = table.iter().map(|(e, b)| format!("{e}:{b}")).collect();
                format!("steps({})", entries.join(","))
            }
        };
        match self.selection {
            Selection::Random => format!("{sampler}+{schedule}"),
            Selection::Cluster { k, seed } => format!("{sampler}+{schedule}+cluster({k},{seed})"),
        }
    }

    /// Builds the neighbor sampler.
    pub fn sampler(&self, graph: &Graph) -> Box<dyn NeighborSampler + Sync> {
        match &self.sampler {
            Sampler::Fanout(fs) => Box::new(FanoutSampler::new(fs.clone())),
            Sampler::Rate { rates, min } => Box::new(RateSampler::new(rates.clone(), *min)),
            Sampler::Hybrid { fanouts, rates, threshold } => {
                Box::new(HybridSampler::new(fanouts.clone(), rates.clone(), *threshold))
            }
            Sampler::ImportanceInvDeg2(fs) => {
                // Squared inverse degree: a strongly anti-degree access
                // distribution (§7.3.3's adversary for degree caching).
                let weights: Vec<f64> = (0..graph.num_vertices() as u32)
                    .map(|v| {
                        let d = graph.out.degree(v) as f64;
                        1.0 / ((1.0 + d) * (1.0 + d))
                    })
                    .collect();
                Box::new(ImportanceSampler::new(fs.clone(), weights))
            }
        }
    }

    /// Per-layer fanouts when the sampler is fanout-shaped (the hetero
    /// trainer's sampling cost model needs them); `None` otherwise.
    pub fn fanouts(&self) -> Option<Vec<usize>> {
        match &self.sampler {
            Sampler::Fanout(fs)
            | Sampler::Hybrid { fanouts: fs, .. }
            | Sampler::ImportanceInvDeg2(fs) => Some(fs.clone()),
            Sampler::Rate { .. } => None,
        }
    }

    /// Builds the batch selection policy (`Random` or `ClusterBased`).
    pub fn selection(&self, graph: &Graph) -> BatchSelection {
        match self.selection {
            Selection::Random => BatchSelection::Random,
            Selection::Cluster { k, seed } => {
                BatchSelection::ClusterBased { clusters: metis_clusters(graph, k, seed) }
            }
        }
    }

    /// The batch-size schedule.
    pub fn schedule(&self) -> &BatchSizeSchedule {
        &self.schedule
    }

    /// Batch size at `epoch` (derived from the schedule).
    pub fn batch_size(&self, epoch: usize) -> usize {
        self.schedule.batch_size_at(epoch)
    }
}

// ---------------------------------------------------------------------------
// Axis 3 — transfer
// ---------------------------------------------------------------------------

/// Axis 3 — host↔device data transfer (§7.2, Figures 13–14): a transfer
/// method (a hybrid threshold lies in `[0, 1]`), a pipeline mode, and an
/// optional zero-copy efficiency override in `(0, 1]`
/// (`ablate_zerocopy_eff`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    method: TransferMethod,
    pipeline: PipelineMode,
    eff: Option<f64>,
}

impl Transfer {
    /// Parses a transfer spec: method, then `+pipe(..)`, then `+eff(..)`.
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        let cx = Spec { axis: "transfer", text: spec };
        let mut parts = spec.split('+');
        let method = match parts.next().unwrap_or_default() {
            "extract-load" => TransferMethod::ExtractLoad,
            "zero-copy" => TransferMethod::ZeroCopy,
            head => match call_args(head) {
                Some(("hybrid", t)) => TransferMethod::Hybrid { threshold: cx.unit(t)? },
                _ => return Err(cx.err("unknown method")),
            },
        };
        let mut transfer = Transfer { method, pipeline: PipelineMode::None, eff: None };
        for part in parts {
            match call_args(part) {
                Some(("pipe", "bp")) => transfer.pipeline = PipelineMode::OverlapBp,
                Some(("pipe", "full")) => transfer.pipeline = PipelineMode::Full,
                Some(("eff", e)) => transfer.eff = Some(cx.positive_unit(e)?),
                _ => return Err(cx.err("modifiers are `pipe(bp|full)` or `eff(E)`")),
            }
        }
        cx.canonical(&transfer.spec())?;
        Ok(transfer)
    }

    /// Canonical spec (e.g. `zero-copy+pipe(bp)`).
    pub fn spec(&self) -> String {
        let mut s = match self.method {
            TransferMethod::ExtractLoad => "extract-load".to_string(),
            TransferMethod::ZeroCopy => "zero-copy".to_string(),
            TransferMethod::Hybrid { threshold } => format!("hybrid({threshold})"),
        };
        match self.pipeline {
            PipelineMode::None => {}
            PipelineMode::OverlapBp => s.push_str("+pipe(bp)"),
            PipelineMode::Full => s.push_str("+pipe(full)"),
        }
        if let Some(e) = self.eff {
            s.push_str(&format!("+eff({e})"));
        }
        s
    }

    /// The transfer cost method.
    pub fn method(&self) -> TransferMethod {
        self.method
    }

    /// The pipeline overlap mode.
    pub fn pipeline(&self) -> PipelineMode {
        self.pipeline
    }

    /// Zero-copy efficiency override for the transfer engine, if any.
    pub fn zero_copy_efficiency(&self) -> Option<f64> {
        self.eff
    }
}

// ---------------------------------------------------------------------------
// Axis 4 — cache
// ---------------------------------------------------------------------------

/// Axis 4 — GPU feature caching (§7.3, Figure 17): disabled (`None`),
/// degree-ranked, or profiling-based pre-sampling. The cached fraction lies
/// in `[0, 1]` (zero is an empty cache) and profiling runs for at least one
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cache(Option<CachePolicy>);

impl Cache {
    /// Parses a cache spec: `none`, `degree(R)`, or `presample(R,E)`.
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        let cx = Spec { axis: "cache", text: spec };
        let policy = match call_args(spec) {
            None if spec == "none" => None,
            Some(("degree", ratio)) => Some(CachePolicy::Degree { ratio: cx.unit(ratio)? }),
            Some(("presample", args)) => {
                let (ratio, epochs) = args
                    .split_once(',')
                    .ok_or_else(|| cx.err("presample needs `ratio,epochs`"))?;
                Some(CachePolicy::PreSample { ratio: cx.unit(ratio)?, epochs: cx.count(epochs)? })
            }
            _ => return Err(cx.err("unknown cache policy")),
        };
        cx.canonical(&Cache(policy).spec())?;
        Ok(Cache(policy))
    }

    /// Canonical spec (e.g. `degree(0.3)`).
    pub fn spec(&self) -> String {
        match self.0 {
            None => "none".to_string(),
            Some(CachePolicy::Degree { ratio }) => format!("degree({ratio})"),
            Some(CachePolicy::PreSample { ratio, epochs }) => format!("presample({ratio},{epochs})"),
        }
    }

    /// The device cache policy, `None` when caching is disabled.
    pub fn policy(&self) -> Option<CachePolicy> {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Axis 5 — parallel mode
// ---------------------------------------------------------------------------

/// Axis 5 — parallelization mode (§4 taxonomy, Figures 4–8): one
/// heterogeneous CPU + GPU node (`None`) or a simulated cluster of at
/// least one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parallel(Option<usize>);

impl Parallel {
    /// Parses a parallel-mode spec: `single` or `cluster(K)`.
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        let cx = Spec { axis: "parallel", text: spec };
        let parallel = match call_args(spec) {
            None if spec == "single" => Parallel(None),
            Some(("cluster", k)) => Parallel(Some(cx.count(k)?)),
            _ => return Err(cx.err("unknown parallel mode")),
        };
        cx.canonical(&parallel.spec())?;
        Ok(parallel)
    }

    /// Canonical spec (e.g. `cluster(4)`).
    pub fn spec(&self) -> String {
        self.0.map_or("single".to_string(), |k| format!("cluster({k})"))
    }

    /// Number of workers / partitions (1 for single-node).
    pub fn workers(&self) -> usize {
        self.0.unwrap_or(1)
    }

    /// Whether execution routes through the cluster simulator.
    pub fn distributed(&self) -> bool {
        self.0.is_some()
    }
}

// ---------------------------------------------------------------------------
// Axis 6 — faults
// ---------------------------------------------------------------------------

/// Axis 6 — fault injection (robustness extension, `ext_faults_*`):
/// healthy (`None`) or uniformly seeded injection at `(seed, rate)` with
/// the rate in `[0, 1]`; rate zero is the neutral plan under a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faults(Option<(u64, f64)>);

impl Faults {
    /// Parses a fault-plan spec: `none` or `uniform(SEED,RATE)`.
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        let cx = Spec { axis: "faults", text: spec };
        let faults = match call_args(spec) {
            None if spec == "none" => Faults(None),
            Some(("uniform", args)) => {
                let (seed, rate) =
                    args.split_once(',').ok_or_else(|| cx.err("uniform needs `seed,rate`"))?;
                Faults(Some((cx.int(seed)?, cx.unit(rate)?)))
            }
            _ => return Err(cx.err("unknown fault plan")),
        };
        cx.canonical(&faults.spec())?;
        Ok(faults)
    }

    /// Canonical spec (e.g. `uniform(13,0.25)`).
    pub fn spec(&self) -> String {
        self.0.map_or("none".to_string(), |(seed, rate)| format!("uniform({seed},{rate})"))
    }

    /// Materializes the injected fault plan.
    pub fn plan(&self) -> FaultPlan {
        self.0.map_or(FaultPlan::none(), |(seed, rate)| FaultPlan::uniform(seed, rate))
    }
}

// ---------------------------------------------------------------------------
// Axis 7 — resilience
// ---------------------------------------------------------------------------

/// Axis 7 — SLO-aware resilience: how the system reacts to the injected
/// faults (robustness extension, `chaos_grid`). The hedge factor is finite
/// and at least 1, the stage deadline finite and positive, the
/// re-dispatched fraction in `[0, 1]`; a stale-sync lag of zero batches
/// is meaningful (any worker behind the fastest is excluded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilience(ResiliencePolicy);

impl Resilience {
    /// Parses a resilience spec: `none`, or mechanisms composed with `+`
    /// in canonical hedge → deadline → redispatch → stale order (each at
    /// most once): `hedge(F)`, `deadline(T,skip|ckpt)`, `redispatch(S)`,
    /// `stale(K)`.
    pub fn parse(spec: &str) -> Result<Self, HarnessError> {
        let cx = Spec { axis: "resilience", text: spec };
        let mut policy = ResiliencePolicy::none();
        if spec == "none" {
            return Ok(Resilience(policy));
        }
        for part in spec.split('+') {
            match call_args(part) {
                Some(("hedge", factor)) => {
                    let deadline_factor =
                        cx.num(factor, |x| x >= 1.0 && x.is_finite(), "a finite factor of at least 1")?;
                    policy.hedge = Some(HedgePolicy { deadline_factor });
                }
                Some(("deadline", args)) => {
                    let (timeout, action) = match args.split_once(',') {
                        Some((t, "skip")) => (t, DeadlineAction::SkipBatch),
                        Some((t, "ckpt")) => (t, DeadlineAction::FallbackToCheckpoint),
                        _ => return Err(cx.err("deadline needs `timeout,skip|ckpt`")),
                    };
                    let timeout =
                        cx.num(timeout, |x| x > 0.0 && x.is_finite(), "a finite positive timeout")?;
                    let stage_timeout_s = Seconds(timeout);
                    policy.deadline = Some(DeadlinePolicy { stage_timeout_s, action });
                }
                Some(("redispatch", frac)) => {
                    policy.redispatch = Some(RedispatchPolicy { frac: cx.unit(frac)? });
                }
                Some(("stale", lag)) => {
                    policy.stale_sync = Some(StaleSyncPolicy { max_lag_batches: cx.int(lag)? });
                }
                _ => {
                    return Err(cx.err(
                        "mechanisms are `hedge(F)`, `deadline(T,skip|ckpt)`, `redispatch(S)`, `stale(K)`",
                    ))
                }
            }
        }
        cx.canonical(&Resilience(policy).spec())?;
        Ok(Resilience(policy))
    }

    /// Canonical spec: the armed mechanisms in hedge → deadline →
    /// redispatch → stale order, or `none`.
    pub fn spec(&self) -> String {
        let p = &self.0;
        let mut parts = Vec::new();
        if let Some(h) = p.hedge {
            parts.push(format!("hedge({})", h.deadline_factor));
        }
        if let Some(d) = p.deadline {
            let action = match d.action {
                DeadlineAction::SkipBatch => "skip",
                DeadlineAction::FallbackToCheckpoint => "ckpt",
            };
            parts.push(format!("deadline({},{action})", d.stage_timeout_s.0));
        }
        if let Some(r) = p.redispatch {
            parts.push(format!("redispatch({})", r.frac));
        }
        if let Some(s) = p.stale_sync {
            parts.push(format!("stale({})", s.max_lag_batches));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Materializes the resilience policy.
    pub fn policy(&self) -> ResiliencePolicy {
        self.0
    }
}
