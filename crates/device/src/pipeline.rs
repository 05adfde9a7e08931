//! Task pipelining across CPU, PCIe and GPU (§7.3.2, Figures 13/14).
//!
//! A batch's life is batch preparation (BP, on the CPU), data transfer (DT,
//! on the PCIe bus) and NN computation (NN, on the GPU). With no pipelining
//! the three run back to back; pipelining lets batch *b+1*'s earlier stages
//! overlap batch *b*'s later stages, bounded by each resource processing
//! batches in order.
//!
//! [`replay_epoch`] is the one implementation: each stage is scheduled as
//! a [`gnn_dm_trace`] span on its resource lane (CPU / PCIe / GPU) under a
//! fault plan and a resilience policy, and the epoch time is the
//! timeline's makespan. The healthy epoch is the neutral plan and policy
//! ([`makespan`]); the closed-form recurrences the replay reproduces
//! operation for operation live in `tests/common/mod.rs` as the oracle
//! (`tests/trace_goldens.rs` pins the two bitwise-equal, faults included).
//! The executed counterpart of [`PipelineMode::OverlapBp`] is the streamed
//! training epoch (`EpochPlan::for_each_batch`); `gnn-dm-exp
//! ext_pipeline_bp` sets its measured wall time beside this model's
//! prediction.

use gnn_dm_faults::{FaultPlan, ResiliencePolicy};
use gnn_dm_trace::units::{Bytes, Seconds};
use gnn_dm_trace::{Resource, SpanKind, SpanMeta, Timeline};

/// Stage durations of one batch, in seconds. Plain `f64`, like the clock
/// the replay adds them to: [`replay_epoch`] wraps each one as a span
/// duration where it schedules it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStageTimes {
    /// Batch preparation (sampling) on the CPU.
    pub bp: f64,
    /// Data transfer over PCIe.
    pub dt: f64,
    /// NN forward/backward on the GPU.
    pub nn: f64,
}

impl BatchStageTimes {
    /// Sum of the three stages (the no-pipeline cost of this batch).
    pub fn total(&self) -> f64 {
        self.bp + self.dt + self.nn
    }
}

/// Which stages may overlap across batches (Figure 14's ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Fully sequential: BP, DT, NN of each batch run back to back.
    None,
    /// BP overlaps with the (still serialized) DT+NN of the previous batch
    /// — the paper's "Pipeline BP".
    OverlapBp,
    /// All three stages pipelined on their own resources — the paper's
    /// "Pipeline BP and DT".
    Full,
}

impl PipelineMode {
    /// Display name matching Figure 14.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineMode::None => "No Pipe",
            PipelineMode::OverlapBp => "Pipeline BP",
            PipelineMode::Full => "Pipeline BP and DT",
        }
    }
}

/// Per-batch annotations the replay attaches to its spans: the byte/edge
/// accounting and the gather share of the DT stage. Purely descriptive —
/// the schedule is driven by [`BatchStageTimes`] alone, so a missing or
/// defaulted meta never changes any timestamp.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchMeta {
    /// CPU gather seconds inside the DT stage (extract-load's staging
    /// copy); the DT lane occupancy is split into a `Gather` sub-span
    /// followed by the bus `Transfer`.
    pub gather: f64,
    /// Bytes the DT stage moved across the bus.
    pub bytes: Bytes,
    /// Edges the BP stage sampled.
    pub edges: u64,
}

/// Replays an epoch's BP/DT/NN stages as spans on three FIFO lanes
/// (CPU sampler, PCIe link, GPU compute) and returns the timeline.
///
/// `metas` annotates batch `i` with bytes/edges/gather split
/// (`metas.get(i)`, defaulting to zero annotations past the end). Batch
/// `i`'s data transfer suffers `plan.pcie_failures(epoch, i)` failed
/// attempts first — `Retry` + `Backoff` spans, or with `policy.hedge`
/// armed a `Cancel` at the hedge deadline and a `Hedge` delivery
/// ([`gnn_dm_faults::RetryPolicy::schedule_failed_attempts`]); the
/// healthy epoch is `FaultPlan::none()` with `ResiliencePolicy::none()`,
/// which schedules none of them. The scheduling rule
/// `t_start = lane_free.max(ready)` reproduces the closed-form recurrences
/// operation for operation, with overlap *emerging* from lane placement:
///
/// * `None` — every stage depends on the previous stage's end, so the
///   three lanes serialize into one chain;
/// * `OverlapBp` — BP spans queue freely on the CPU lane while DT+NN run
///   back-to-back (the DT start also waits for the previous NN end,
///   modelling the fused PCIe+GPU resource);
/// * `Full` — each stage waits only for its own lane and its batch's
///   previous stage.
pub fn replay_epoch(
    batches: &[BatchStageTimes],
    metas: &[BatchMeta],
    mode: PipelineMode,
    plan: &FaultPlan,
    epoch: usize,
    policy: &ResiliencePolicy,
) -> Timeline {
    let mut tl = Timeline::new();
    // `None`'s sequential clock / `OverlapBp`'s fused DT+NN cursor.
    let mut cursor = 0.0f64;
    for (i, b) in batches.iter().enumerate() {
        let m = metas.get(i).copied().unwrap_or_default();
        let batch = u32::try_from(i).ok();
        let tag = SpanMeta { batch, ..SpanMeta::default() };
        // BP queues behind the previous batch's NN only without pipelining.
        let bp_ready = if mode == PipelineMode::None { cursor } else { 0.0 };
        let bp_meta = SpanMeta { edges: m.edges, ..tag };
        let bp_end =
            tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, bp_ready, Seconds(b.bp), bp_meta);
        let dt_ready = match mode {
            // DT waits for the fused DT+NN cursor, not just the bus.
            PipelineMode::OverlapBp => cursor.max(bp_end),
            PipelineMode::None | PipelineMode::Full => tl.start_time(Resource::PcieLink, bp_end),
        };
        let (dt_start, kind) = plan.link.retry.schedule_failed_attempts(
            policy.hedge,
            &mut tl,
            Resource::PcieLink,
            dt_ready,
            Seconds(b.dt),
            plan.pcie_failures(epoch, i),
            m.bytes,
            tag,
            SpanKind::Transfer,
        );
        // The stage end is one addition, exactly as in the closed-form
        // recurrence; the Gather / bus sub-span boundary is display-only.
        let dt_end = dt_start + b.dt;
        let bytes_meta = SpanMeta { bytes: m.bytes, ..tag };
        if m.gather > 0.0 {
            let g_end = (dt_start + m.gather).min(dt_end);
            tl.schedule_at(Resource::PcieLink, SpanKind::Gather, dt_start, g_end, tag);
            tl.schedule_at(Resource::PcieLink, kind, g_end, dt_end, bytes_meta);
        } else {
            tl.schedule_at(Resource::PcieLink, kind, dt_start, dt_end, bytes_meta);
        }
        cursor = tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, dt_end, Seconds(b.nn), tag);
    }
    tl
}

/// Healthy epoch makespan for a sequence of batches under a pipeline
/// mode: [`replay_epoch`] with the neutral plan and policy and no batch
/// annotations.
///
/// Each stage runs on its own resource (CPU / PCIe / GPU) and each resource
/// serves batches in order; a stage starts when both its resource is free
/// and the previous stage of the same batch finished.
///
/// ```
/// use gnn_dm_device::pipeline::{makespan, BatchStageTimes, PipelineMode};
/// let batches = vec![BatchStageTimes { bp: 1.0, dt: 2.0, nn: 0.5 }; 10];
/// let sequential = makespan(&batches, PipelineMode::None);
/// let pipelined = makespan(&batches, PipelineMode::Full);
/// assert_eq!(sequential, 35.0);
/// // Pipelined: bounded by the slowest stage (DT) plus startup/drain.
/// assert!((pipelined - 21.5).abs() < 1e-9);
/// ```
pub fn makespan(batches: &[BatchStageTimes], mode: PipelineMode) -> f64 {
    replay_epoch(batches, &[], mode, &FaultPlan::none(), 0, &ResiliencePolicy::none()).makespan()
}

/// Default fraction of the ideal overlap a real pipeline realizes.
///
/// Perfect overlap is unattainable in practice: the CPU sampler, the gather
/// kernel and zero-copy reads all contend for the host memory bus, and
/// stage-duration jitter leaves bubbles. The paper measures pipelining at
/// ≈ 1.30× on top of zero-copy where ideal overlap would predict ≈ 1.8×;
/// this discount is calibrated to that gap.
pub const DEFAULT_OVERLAP_EFFICIENCY: f64 = 0.6;

/// Epoch makespan with imperfect overlap: only
/// [`DEFAULT_OVERLAP_EFFICIENCY`] of the ideal saving — `sequential`
/// ([`PipelineMode::None`]) minus `ideal` (the configured mode), both
/// makespans of the same batches, plan and policy — is realized.
pub fn makespan_with_contention(sequential: f64, ideal: f64) -> f64 {
    sequential - (sequential - ideal) * DEFAULT_OVERLAP_EFFICIENCY
}

/// Fraction of the makespan each resource is busy under full pipelining —
/// identifies the bottleneck stage (§7.3.2: data transfer dominates at
/// 53–59% on the LiveJournal-class datasets).
pub fn busy_fractions(batches: &[BatchStageTimes]) -> (f64, f64, f64) {
    let total = makespan(batches, PipelineMode::Full);
    if total == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let bp: f64 = batches.iter().map(|b| b.bp).sum();
    let dt: f64 = batches.iter().map(|b| b.dt).sum();
    let nn: f64 = batches.iter().map(|b| b.nn).sum();
    (bp / total, dt / total, nn / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, bp: f64, dt: f64, nn: f64) -> Vec<BatchStageTimes> {
        vec![BatchStageTimes { bp, dt, nn }; n]
    }

    #[test]
    fn no_pipe_is_plain_sum() {
        let b = uniform(10, 1.0, 2.0, 3.0);
        assert!((makespan(&b, PipelineMode::None) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn full_pipeline_converges_to_bottleneck() {
        // With many batches, makespan → max-stage-sum + startup.
        let b = uniform(100, 1.0, 2.0, 0.5);
        let m = makespan(&b, PipelineMode::Full);
        assert!((m - (1.0 + 200.0 + 0.5)).abs() < 1e-6, "makespan {m}");
    }

    #[test]
    fn modes_are_ordered() {
        let b = uniform(20, 1.0, 1.5, 1.2);
        let none = makespan(&b, PipelineMode::None);
        let bp = makespan(&b, PipelineMode::OverlapBp);
        let full = makespan(&b, PipelineMode::Full);
        assert!(none > bp, "no-pipe {none} vs bp {bp}");
        assert!(bp > full, "bp {bp} vs full {full}");
    }

    #[test]
    fn single_batch_has_no_overlap_benefit() {
        let b = uniform(1, 1.0, 2.0, 3.0);
        for mode in [PipelineMode::None, PipelineMode::OverlapBp, PipelineMode::Full] {
            assert!((makespan(&b, mode) - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn busy_fractions_identify_bottleneck() {
        let b = uniform(50, 0.5, 2.0, 0.7);
        let (bp, dt, nn) = busy_fractions(&b);
        assert!(dt > bp && dt > nn);
        assert!(dt > 0.9, "bottleneck stage nearly saturated, got {dt}");
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(makespan(&[], PipelineMode::Full), 0.0);
        assert_eq!(busy_fractions(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn hedged_pcie_transfers_never_slow_the_pipeline() {
        // Transfers short enough that the hedge deadline (1.5 · dt)
        // undercuts the retry detection timeout plus backoff.
        let b = uniform(24, 0.02, 0.05, 0.03);
        let plan = FaultPlan::uniform(11, 0.6);
        let policy = ResiliencePolicy::hedged(1.5);
        let mut saw_hedge = false;
        for mode in [PipelineMode::None, PipelineMode::OverlapBp, PipelineMode::Full] {
            for epoch in 0..4 {
                let base =
                    replay_epoch(&b, &[], mode, &plan, epoch, &ResiliencePolicy::none()).makespan();
                let tl = replay_epoch(&b, &[], mode, &plan, epoch, &policy);
                let res = tl.makespan();
                assert!(res <= base, "{}: hedging slowed epoch {epoch}", mode.name());
                let hedges =
                    tl.spans().iter().filter(|s| s.kind == SpanKind::Hedge).count();
                if hedges > 0 {
                    saw_hedge = true;
                    assert!(res < base, "{}: a hedge win must be strictly faster", mode.name());
                }
            }
        }
        assert!(saw_hedge, "rate 0.6 must hedge at least one PCIe round");
    }

    #[test]
    fn contention_sits_between_ideal_and_sequential() {
        let b = uniform(20, 1.0, 1.5, 1.2);
        let seq = makespan(&b, PipelineMode::None);
        let ideal = makespan(&b, PipelineMode::Full);
        let real = makespan_with_contention(seq, ideal);
        assert!(real > ideal && real < seq, "ideal {ideal} < real {real} < seq {seq}");
        assert_eq!(makespan_with_contention(seq, seq), seq, "nothing to overlap");
    }
}
