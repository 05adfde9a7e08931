//! Shared by the integration tests: awkward stage times, the closed-form
//! oracle of the device pipeline replay, and the seed's mini-batch builder
//! as an oracle of the live sampler.
//!
//! The pipeline oracle is the original makespan recurrences — no timeline,
//! no spans, no lanes — extended with failed transfer attempts written from
//! the `RetryPolicy` / `HedgePolicy` definitions. It deliberately shares no
//! code with `RetryPolicy::schedule_failed_attempts`; it only has to fold
//! in the same order, because float addition is not associative and the
//! tests compare bits.
#![allow(dead_code, reason = "each test crate uses its own subset")]

use gnn_dm::device::pipeline::{BatchStageTimes, PipelineMode};
use gnn_dm::faults::{FaultPlan, ResiliencePolicy};
use gnn_dm::graph::csr::{Csr, VId};
use gnn_dm::par::split_seed;
use gnn_dm::sampling::{BatchSelection, Block, MiniBatch, NeighborSampler};
use gnn_dm::trace::units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

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
    let hedged = policy.hedge.map_or(f64::INFINITY, |h| h.deadline_s(Seconds(dt)).0);
    for attempt in 0..plan.pcie_failures(epoch, index) {
        let held = dt + retry.timeout_s.0;
        let waited = retry.backoff_delay(attempt).0;
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

/// The seed's three-phase mini-batch builder, serial: a fresh draw `Vec`
/// per destination, a `BTreeMap` numbering each layer's sources
/// (destinations first, then new sources in first-appearance order over
/// the draws), and per-destination edge lists grouped by
/// `Block::from_edges`. It shares no code with the live one-pass
/// `assemble_blocks`, only the RNG stream splits of
/// `build_minibatch_seeded`, whose output it must equal bit for bit.
pub fn seed_build_minibatch(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &dyn NeighborSampler,
    base_seed: u64,
) -> MiniBatch {
    let mut seen = BTreeSet::new();
    let seeds_dedup: Vec<VId> = seeds.iter().copied().filter(|&s| seen.insert(s)).collect();

    let mut blocks = Vec::with_capacity(sampler.num_layers());
    let mut frontier = seeds_dedup.clone();
    for layer in 0..sampler.num_layers() {
        let dst_ids = frontier;
        let layer_seed = split_seed(base_seed, layer as u64);

        // Phase 1 — per-destination draws, each from its own split stream.
        let sampled: Vec<Vec<VId>> = (0u64..)
            .zip(&dst_ids)
            .map(|(d_local, &d)| {
                let mut rng = StdRng::seed_from_u64(split_seed(layer_seed, d_local));
                let mut out = Vec::new();
                sampler.sample_neighbors(in_csr, d, layer, &mut rng, &mut out);
                out
            })
            .collect();

        // Phase 2 — local numbering through the map.
        let mut src_ids: Vec<VId> = Vec::new();
        let mut local: BTreeMap<VId, u32> = BTreeMap::new();
        for &v in dst_ids.iter().chain(sampled.iter().flatten()) {
            local.entry(v).or_insert_with(|| {
                src_ids.push(v);
                src_ids.len() as u32 - 1
            });
        }

        // Phase 3 — per-destination edge lists against the frozen map.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (d_local, list) in (0u32..).zip(&sampled) {
            edges.extend(list.iter().map(|s| (local[s], d_local)));
        }

        frontier = src_ids.clone();
        blocks.push(Block::from_edges(src_ids, dst_ids, &edges));
    }
    blocks.reverse();
    MiniBatch { blocks, seeds: seeds_dedup }
}

/// The seed's `EpochPlan::batches` under `BatchSelection::Random` and a
/// fixed batch size, one batch after another through
/// [`seed_build_minibatch`], with the epoch-seed derivation and per-batch
/// splits written out here rather than borrowed from `EpochPlan`.
pub fn seed_epoch_batches(
    in_csr: &Csr,
    train: &[VId],
    batch_size: usize,
    sampler: &dyn NeighborSampler,
    seed: u64,
    epoch: usize,
) -> Vec<MiniBatch> {
    let epoch_seed = seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(epoch as u64 + 1);
    (0u64..)
        .zip(BatchSelection::Random.select(train, batch_size, seed, epoch))
        .map(|(b, seeds)| seed_build_minibatch(in_csr, &seeds, sampler, split_seed(epoch_seed, b)))
        .collect()
}
