//! Shared by the integration tests: awkward stage times and the
//! closed-form oracle of the device pipeline replay.
//!
//! The oracle is the original makespan recurrences — no timeline, no
//! spans, no lanes — extended with failed transfer attempts written from
//! the `RetryPolicy` / `HedgePolicy` definitions. It deliberately shares no
//! code with `RetryPolicy::schedule_failed_attempts`; it only has to fold
//! in the same order, because float addition is not associative and the
//! tests compare bits.
#![allow(dead_code)] // each test crate uses its own subset

use gnn_dm::device::pipeline::{BatchStageTimes, PipelineMode};
use gnn_dm::faults::{FaultPlan, ResiliencePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const MODES: [PipelineMode; 3] =
    [PipelineMode::None, PipelineMode::OverlapBp, PipelineMode::Full];

/// Awkward, non-round stage durations: sums of these expose any deviation
/// in float-op order between the closed form and the replay.
pub fn jagged_batches(n: usize, seed: u64) -> Vec<BatchStageTimes> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| BatchStageTimes {
            bp: rng.random::<f64>() * 0.013 + 1e-7,
            dt: rng.random::<f64>() * 0.029 + 1e-7,
            nn: rng.random::<f64>() * 0.017 + 1e-7,
        })
        .collect()
}

/// When batch `index`'s delivery starts if its DT stage is ready at `t`:
/// each planned failure either retries (the bus is held for `dt` plus the
/// detection timeout, then the backoff is waited out) or, with a hedge
/// armed whose deadline beats that, ends at the deadline.
fn delivery_start(
    mut t: f64,
    dt: f64,
    index: usize,
    plan: &FaultPlan,
    epoch: usize,
    policy: &ResiliencePolicy,
) -> f64 {
    let retry = plan.link.retry;
    let hedged = policy.hedge.map_or(f64::INFINITY, |h| h.deadline_s(dt));
    for attempt in 0..plan.pcie_failures(epoch, index) {
        let held = dt + retry.timeout_s;
        let waited = retry.backoff_delay(attempt);
        if hedged < held + waited {
            t += hedged;
        } else {
            t += held;
            t += waited;
        }
    }
    t
}

/// Closed-form epoch makespan under a pipeline mode, a fault plan and a
/// resilience policy. With `FaultPlan::none()` no batch has a failure and
/// this is the healthy recurrence, one addition per stage.
pub fn makespan_closed_form(
    batches: &[BatchStageTimes],
    mode: PipelineMode,
    plan: &FaultPlan,
    epoch: usize,
    policy: &ResiliencePolicy,
) -> f64 {
    let start = |t, dt, i| delivery_start(t, dt, i, plan, epoch, policy);
    match mode {
        PipelineMode::None => {
            let mut t = 0.0f64;
            for (i, b) in batches.iter().enumerate() {
                t += b.bp;
                t = start(t, b.dt, i);
                t += b.dt;
                t += b.nn;
            }
            t
        }
        PipelineMode::OverlapBp => {
            // Two resources: CPU for BP, a fused PCIe+GPU resource for DT+NN.
            let mut cpu_free = 0.0f64;
            let mut rest_free = 0.0f64;
            for (i, b) in batches.iter().enumerate() {
                let bp_end = cpu_free + b.bp;
                cpu_free = bp_end;
                let dt_end = start(rest_free.max(bp_end), b.dt, i) + b.dt;
                rest_free = dt_end + b.nn;
            }
            rest_free
        }
        PipelineMode::Full => {
            let mut cpu_free = 0.0f64;
            let mut bus_free = 0.0f64;
            let mut gpu_free = 0.0f64;
            for (i, b) in batches.iter().enumerate() {
                let bp_end = cpu_free + b.bp;
                cpu_free = bp_end;
                let dt_end = start(bus_free.max(bp_end), b.dt, i) + b.dt;
                bus_free = dt_end;
                let nn_end = gpu_free.max(dt_end) + b.nn;
                gpu_free = nn_end;
            }
            gpu_free
        }
    }
}
