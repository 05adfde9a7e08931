//! Task pipelining across CPU, PCIe and GPU (§7.3.2, Figures 13/14).
//!
//! A batch's life is batch preparation (BP, on the CPU), data transfer (DT,
//! on the PCIe bus) and NN computation (NN, on the GPU). With no pipelining
//! the three run back to back; pipelining lets batch *b+1*'s earlier stages
//! overlap batch *b*'s later stages, bounded by each resource processing
//! batches in order.
//!
//! Since the span-timeline refactor the source of truth is
//! [`replay_epoch`]: each stage is scheduled as a [`gnn_dm_trace`] span on
//! its resource lane (CPU / PCIe / GPU) and the epoch time is the
//! timeline's makespan. [`makespan`] is a thin wrapper over the replay;
//! [`makespan_closed_form`] keeps the original recurrences as an
//! independent cross-check, and the two are pinned bitwise-equal in
//! `tests/trace_goldens.rs` (the replay performs the *identical* sequence
//! of floating-point operations, per mode). The executed counterpart of
//! [`PipelineMode::OverlapBp`] is the streamed training epoch
//! (`EpochPlan::for_each_batch`); `gnn-dm-exp ext_pipeline_bp` sets its
//! measured wall time beside this model's prediction.

use gnn_dm_faults::{FaultPlan, ResiliencePolicy};
use gnn_dm_trace::{Resource, SpanKind, SpanMeta, Timeline};

/// Stage durations of one batch, in seconds.
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
    pub bytes: u64,
    /// Edges the BP stage sampled.
    pub edges: u64,
}

/// Records one batch's DT-stage occupancy `[dt_start, dt_start + dt)` on
/// the PCIe lane, split into Gather + Transfer sub-spans when the meta
/// carries a gather share. The stage end is computed exactly as in the
/// closed-form recurrence (`dt_start + dt`, one addition); the sub-span
/// boundary is display-only. `kind` picks the bus span's kind —
/// `Transfer` for an ordinary delivery, `Hedge` when the delivery is a
/// duplicate that rescued a transfer whose primary attempt was abandoned
/// at the hedge deadline; the arithmetic is identical either way.
fn replay_dt_kind(
    tl: &mut Timeline,
    dt_start: f64,
    dt: f64,
    m: &BatchMeta,
    batch: Option<u32>,
    kind: SpanKind,
) -> f64 {
    let dt_end = dt_start + dt;
    let bytes_meta = SpanMeta { bytes: m.bytes, batch, ..SpanMeta::default() };
    if m.gather > 0.0 {
        let g_end = (dt_start + m.gather).min(dt_end);
        let g_meta = SpanMeta { batch, ..SpanMeta::default() };
        tl.schedule_at(Resource::PcieLink, SpanKind::Gather, dt_start, g_end, g_meta);
        tl.schedule_at(Resource::PcieLink, kind, g_end, dt_end, bytes_meta);
    } else {
        tl.schedule_at(Resource::PcieLink, kind, dt_start, dt_end, bytes_meta);
    }
    dt_end
}

/// [`replay_dt_kind`] behind a flaky PCIe link under a resilience policy:
/// each failed attempt occupies the bus for the full transfer plus the
/// detection timeout (a `Retry` span carrying the retransmitted bytes),
/// then waits out the capped exponential backoff (a `Backoff` span) before
/// the real transfer starts. With hedging armed, each failed attempt
/// instead completes at `min(hedge deadline, retry cost)`: a hedge-won
/// round emits one `Cancel` span (the abandoned attempt's wasted bus
/// bytes) instead of the `Retry`/`Backoff` pair, and a transfer rescued by
/// hedging lands as a `Hedge` span instead of a `Transfer`. With
/// [`ResiliencePolicy::none`] every policy branch is dormant, and with
/// zero planned failures this is exactly [`replay_dt_kind`] at `dt_ready`.
#[allow(clippy::too_many_arguments)]
fn replay_dt_resilient(
    tl: &mut Timeline,
    dt_ready: f64,
    dt: f64,
    m: &BatchMeta,
    batch: Option<u32>,
    plan: &FaultPlan,
    epoch: usize,
    index: usize,
    policy: &ResiliencePolicy,
) -> f64 {
    let mut ready = dt_ready;
    let mut hedge_won = false;
    for attempt in 0..plan.pcie_failures(epoch, index) {
        let retry_dur = dt + plan.link.retry.timeout_s;
        let backoff_dur = plan.link.retry.backoff_delay(attempt);
        let hedge_at =
            policy.hedge.map(|h| h.deadline_s(dt)).filter(|&d| d < retry_dur + backoff_dur);
        match hedge_at {
            Some(d) => {
                hedge_won = true;
                ready = tl.schedule(
                    Resource::PcieLink,
                    SpanKind::Cancel,
                    ready,
                    d,
                    SpanMeta { bytes: m.bytes, batch, ..SpanMeta::default() },
                );
            }
            None => {
                let retry_end = tl.schedule(
                    Resource::PcieLink,
                    SpanKind::Retry,
                    ready,
                    retry_dur,
                    SpanMeta { bytes: m.bytes, batch, ..SpanMeta::default() },
                );
                ready = tl.schedule(
                    Resource::PcieLink,
                    SpanKind::Backoff,
                    retry_end,
                    backoff_dur,
                    SpanMeta { batch, ..SpanMeta::default() },
                );
            }
        }
    }
    let kind = if hedge_won { SpanKind::Hedge } else { SpanKind::Transfer };
    replay_dt_kind(tl, ready, dt, m, batch, kind)
}

/// Replays an epoch's BP/DT/NN stages as spans on three FIFO lanes
/// (CPU sampler, PCIe link, GPU compute) and returns the timeline.
///
/// `metas` annotates batch `i` with bytes/edges/gather split
/// (`metas.get(i)`, defaulting to zero annotations past the end). The
/// scheduling rule `t_start = lane_free.max(ready)` reproduces, operation
/// for operation, the closed-form recurrences of
/// [`makespan_closed_form`], so `replay_epoch(..).makespan()` is
/// bitwise-equal to it — with overlap now *emerging* from lane placement:
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
) -> Timeline {
    replay_epoch_faulted(batches, metas, mode, &FaultPlan::none(), 0)
}

/// [`replay_epoch`] behind a fault plan: batch `i`'s data transfer may
/// suffer `plan.pcie_failures(epoch, i)` failed attempts first, each
/// replayed as a `Retry` + `Backoff` span pair on the PCIe lane
/// ([`replay_dt_faulted`]). The neutral plan injects nothing, so
/// `replay_epoch` delegates here and stays bitwise-identical to its
/// pre-fault behavior (pinned in `tests/robustness.rs`).
pub fn replay_epoch_faulted(
    batches: &[BatchStageTimes],
    metas: &[BatchMeta],
    mode: PipelineMode,
    plan: &FaultPlan,
    epoch: usize,
) -> Timeline {
    replay_epoch_resilient(batches, metas, mode, plan, epoch, &ResiliencePolicy::none())
}

/// [`replay_epoch_faulted`] under a resilience policy: each batch's data
/// transfer runs through [`replay_dt_resilient`], so with hedging armed a
/// flaky PCIe attempt is raced against a duplicate and abandoned at the
/// hedge deadline when the duplicate wins. With [`ResiliencePolicy::none`]
/// this is bitwise-identical to [`replay_epoch_faulted`]'s pre-policy
/// output (pinned in `tests/robustness.rs`).
pub fn replay_epoch_resilient(
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
        let bp_meta = SpanMeta { edges: m.edges, batch, ..SpanMeta::default() };
        let nn_meta = SpanMeta { batch, ..SpanMeta::default() };
        match mode {
            PipelineMode::None => {
                let bp_end =
                    tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, cursor, b.bp, bp_meta);
                let dt_start = tl.start_time(Resource::PcieLink, bp_end);
                let dt_end =
                    replay_dt_resilient(&mut tl, dt_start, b.dt, &m, batch, plan, epoch, i, policy);
                cursor =
                    tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, dt_end, b.nn, nn_meta);
            }
            PipelineMode::OverlapBp => {
                let bp_end =
                    tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, 0.0, b.bp, bp_meta);
                // DT waits for the fused DT+NN cursor, not just the bus.
                let dt_start = cursor.max(bp_end);
                let dt_end =
                    replay_dt_resilient(&mut tl, dt_start, b.dt, &m, batch, plan, epoch, i, policy);
                cursor =
                    tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, dt_end, b.nn, nn_meta);
            }
            PipelineMode::Full => {
                let bp_end =
                    tl.schedule(Resource::CpuSampler, SpanKind::BatchPrep, 0.0, b.bp, bp_meta);
                let dt_start = tl.start_time(Resource::PcieLink, bp_end);
                let dt_end =
                    replay_dt_resilient(&mut tl, dt_start, b.dt, &m, batch, plan, epoch, i, policy);
                tl.schedule(Resource::GpuCompute, SpanKind::NnCompute, dt_end, b.nn, nn_meta);
            }
        }
    }
    tl
}

/// Epoch makespan for a sequence of batches under a pipeline mode,
/// computed by replaying the stages on the span timeline
/// ([`replay_epoch`]).
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
    replay_epoch(batches, &[], mode).makespan()
}

/// Epoch makespan under a pipeline mode and a fault plan
/// ([`replay_epoch_faulted`] with no batch annotations).
pub fn makespan_faulted(
    batches: &[BatchStageTimes],
    mode: PipelineMode,
    plan: &FaultPlan,
    epoch: usize,
) -> f64 {
    replay_epoch_faulted(batches, &[], mode, plan, epoch).makespan()
}

/// Epoch makespan under a pipeline mode, a fault plan and a resilience
/// policy ([`replay_epoch_resilient`] with no batch annotations).
pub fn makespan_resilient(
    batches: &[BatchStageTimes],
    mode: PipelineMode,
    plan: &FaultPlan,
    epoch: usize,
    policy: &ResiliencePolicy,
) -> f64 {
    replay_epoch_resilient(batches, &[], mode, plan, epoch, policy).makespan()
}

/// The original closed-form makespan recurrences, kept as an independent
/// cross-check of the timeline replay (`tests/trace_goldens.rs` pins the
/// two bitwise-equal for every mode).
pub fn makespan_closed_form(batches: &[BatchStageTimes], mode: PipelineMode) -> f64 {
    match mode {
        PipelineMode::None => {
            // Sequential accumulation, one addition per stage, mirroring the
            // lane chain (float addition is not associative, so the fold
            // order is part of the contract).
            let mut t = 0.0f64;
            for b in batches {
                t += b.bp;
                t += b.dt;
                t += b.nn;
            }
            t
        }
        PipelineMode::OverlapBp => {
            // Two resources: CPU for BP, a fused PCIe+GPU resource for DT+NN.
            let mut cpu_free = 0.0f64;
            let mut rest_free = 0.0f64;
            for b in batches {
                let bp_end = cpu_free + b.bp;
                cpu_free = bp_end;
                let start = rest_free.max(bp_end);
                let dt_end = start + b.dt;
                rest_free = dt_end + b.nn;
            }
            rest_free
        }
        PipelineMode::Full => {
            let mut cpu_free = 0.0f64;
            let mut bus_free = 0.0f64;
            let mut gpu_free = 0.0f64;
            for b in batches {
                let bp_end = cpu_free + b.bp;
                cpu_free = bp_end;
                let dt_end = bus_free.max(bp_end) + b.dt;
                bus_free = dt_end;
                let nn_end = gpu_free.max(dt_end) + b.nn;
                gpu_free = nn_end;
            }
            gpu_free
        }
    }
}

/// Default fraction of the ideal overlap a real pipeline realizes.
///
/// Perfect overlap is unattainable in practice: the CPU sampler, the gather
/// kernel and zero-copy reads all contend for the host memory bus, and
/// stage-duration jitter leaves bubbles. The paper measures pipelining at
/// ≈ 1.30× on top of zero-copy where ideal overlap would predict ≈ 1.8×;
/// this discount is calibrated to that gap.
pub const DEFAULT_OVERLAP_EFFICIENCY: f64 = 0.6;

/// Epoch makespan under a pipeline mode with imperfect overlap: only
/// `overlap_efficiency` of the ideal saving (sequential − ideal makespan)
/// is realized.
///
/// The efficiency is saturated into `[0, 1]` instead of asserted (library
/// panic-freedom, P001); `NaN` saturates to 0, the no-overlap end.
pub fn makespan_with_contention(
    batches: &[BatchStageTimes],
    mode: PipelineMode,
    overlap_efficiency: f64,
) -> f64 {
    makespan_with_contention_faulted(
        batches,
        mode,
        overlap_efficiency,
        &FaultPlan::none(),
        0,
        &ResiliencePolicy::none(),
    )
}

/// [`makespan_with_contention`] under a fault plan and a resilience
/// policy: both the sequential baseline and the ideal pipelined makespan
/// are replayed with the plan's PCIe faults and the policy's reactions,
/// then the contention discount interpolates between them.
pub fn makespan_with_contention_faulted(
    batches: &[BatchStageTimes],
    mode: PipelineMode,
    overlap_efficiency: f64,
    plan: &FaultPlan,
    epoch: usize,
    policy: &ResiliencePolicy,
) -> f64 {
    // `max` then `min` is total: a NaN efficiency lands on 0.0.
    let eff = overlap_efficiency.max(0.0).min(1.0);
    let seq = makespan_resilient(batches, PipelineMode::None, plan, epoch, policy);
    let ideal = makespan_resilient(batches, mode, plan, epoch, policy);
    seq - (seq - ideal) * eff
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
                let base = makespan_faulted(&b, mode, &plan, epoch);
                let res = makespan_resilient(&b, mode, &plan, epoch, &policy);
                assert!(res <= base, "{}: hedging slowed epoch {epoch}", mode.name());
                let tl = replay_epoch_resilient(&b, &[], mode, &plan, epoch, &policy);
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
    fn none_policy_replay_is_bitwise_the_faulted_replay() {
        let b = uniform(16, 0.4, 1.0, 0.6);
        let plan = FaultPlan::uniform(11, 0.6);
        for mode in [PipelineMode::None, PipelineMode::OverlapBp, PipelineMode::Full] {
            let faulted = replay_epoch_faulted(&b, &[], mode, &plan, 1);
            let resilient =
                replay_epoch_resilient(&b, &[], mode, &plan, 1, &ResiliencePolicy::none());
            assert_eq!(faulted.to_chrome_trace(), resilient.to_chrome_trace());
        }
    }

    #[test]
    fn contention_sits_between_ideal_and_sequential() {
        let b = uniform(20, 1.0, 1.5, 1.2);
        let seq = makespan(&b, PipelineMode::None);
        let ideal = makespan(&b, PipelineMode::Full);
        let real = makespan_with_contention(&b, PipelineMode::Full, DEFAULT_OVERLAP_EFFICIENCY);
        assert!(real > ideal && real < seq, "ideal {ideal} < real {real} < seq {seq}");
        assert!((makespan_with_contention(&b, PipelineMode::Full, 1.0) - ideal).abs() < 1e-12);
        assert!((makespan_with_contention(&b, PipelineMode::Full, 0.0) - seq).abs() < 1e-12);
    }
}
