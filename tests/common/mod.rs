//! Shared by the integration tests: awkward stage times, the closed-form
//! oracle of the device pipeline replay, the seed's mini-batch builder as an
//! oracle of the live sampler, and the serial graph generator as an oracle
//! of the parallel one.
//!
//! The pipeline oracle is the original makespan recurrences — no timeline,
//! no spans, no lanes — extended with failed transfer attempts written from
//! the retry constants, `backoff_delay` and the `HedgePolicy` definition.
//! It deliberately shares no code with `FaultPlan::schedule_failed_attempts`;
//! it only has to fold in the same order, because float addition is not
//! associative and the tests compare bits.
#![allow(dead_code, reason = "each test crate uses its own subset")]

use gnn_dm::device::pipeline::{BatchStageTimes, PipelineMode};
use gnn_dm::faults::{backoff_delay, FaultPlan, ResiliencePolicy, RETRY_TIMEOUT};
use gnn_dm::graph::csr::{Csr, VId};
use gnn_dm::graph::generate::{zipf_weights, PplConfig};
use gnn_dm::graph::{FeatureTable, Graph, SplitMask};
use gnn_dm::par::split_seed;
use gnn_dm::sampling::sampler::SamplerScratch;
use gnn_dm::sampling::{BatchSelection, Block, MiniBatch, NeighborSampler};
use gnn_dm::trace::units::Seconds;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// A generator seeded straight from `seed`: the root test crates' one raw
/// seeding site.
#[expect(clippy::disallowed_methods, reason = "test fixtures and oracles seed their generator directly")]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

pub const MODES: [PipelineMode; 3] =
    [PipelineMode::None, PipelineMode::OverlapBp, PipelineMode::Full];

/// Awkward, non-round stage durations: sums of these expose any deviation
/// in float-op order between the closed form and the replay.
pub fn jagged_batches(n: usize, seed: u64) -> Vec<BatchStageTimes> {
    let mut rng = rng(seed);
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
    let hedged = policy.hedge.map_or(f64::INFINITY, |h| h.deadline_s(Seconds(dt)).0);
    for attempt in 0..plan.pcie_failures(epoch, index) {
        let held = dt + RETRY_TIMEOUT.0;
        let waited = backoff_delay(attempt).0;
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

/// A batch written out layer by layer, each layer with its own source and
/// destination id lists beside its topology: what the batch-builder oracles
/// produce, numbering every layer afresh, and what [`unroll`] reads a live
/// batch as through its accessors.
#[derive(Debug, PartialEq)]
pub struct Unrolled {
    pub seeds: Vec<VId>,
    /// Input-most layer first: `(source ids, destination ids, topology)`.
    pub layers: Vec<(Vec<VId>, Vec<VId>, Block)>,
}

/// `mb` layer by layer through `MiniBatch::src_ids` / `dst_ids`.
pub fn unroll(mb: &MiniBatch) -> Unrolled {
    Unrolled {
        seeds: mb.seeds.clone(),
        layers: (0..mb.num_layers())
            .map(|l| (mb.src_ids(l).to_vec(), mb.dst_ids(l).to_vec(), mb.blocks[l].clone()))
            .collect(),
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
) -> Unrolled {
    let mut seen = BTreeSet::new();
    let seeds_dedup: Vec<VId> = seeds.iter().copied().filter(|&s| seen.insert(s)).collect();

    let mut layers = Vec::with_capacity(sampler.num_layers());
    let mut frontier = seeds_dedup.clone();
    for layer in 0..sampler.num_layers() {
        let dst_ids = frontier;
        let layer_seed = split_seed(base_seed, layer as u64);

        // Phase 1 — per-destination draws, each from its own split stream.
        let sampled: Vec<Vec<VId>> = (0u64..)
            .zip(&dst_ids)
            .map(|(d_local, &d)| {
                let mut rng = rng(split_seed(layer_seed, d_local));
                let mut out = Vec::new();
                sampler.sample_neighbors(in_csr, d, layer, &mut rng, &mut out, &mut SamplerScratch::new());
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
        let block = Block::from_edges(src_ids.len(), dst_ids.len(), &edges);
        layers.push((src_ids, dst_ids, block));
    }
    layers.reverse();
    Unrolled { seeds: seeds_dedup, layers }
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
) -> Vec<Unrolled> {
    let epoch_seed = seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(epoch as u64 + 1);
    (0u64..)
        .zip(BatchSelection::Random.select(train, batch_size, seed, epoch))
        .map(|(b, seeds)| seed_build_minibatch(in_csr, &seeds, sampler, split_seed(epoch_seed, b)))
        .collect()
}

/// The serial `planted_partition` the parallel one replaced: one loop over
/// edge attempts drawing straight off the stream, each weighted pick a
/// binary search over prefix sums, the CSR read off a `BTreeSet` of both
/// directions of every placed pair, and one Box–Muller draw per feature
/// element in row-major order. It shares only `zipf_weights`,
/// `Csr::from_parts` (which checks the rows are sorted and duplicate-free)
/// and `SplitMask::paper_default` with the live generator, whose output it
/// must equal bit for bit.
pub fn seed_planted_partition(cfg: &PplConfig) -> Graph {
    fn normal(rng: &mut StdRng) -> f64 {
        loop {
            let u1: f64 = rng.random::<f64>();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = rng.random::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }

    let (out, labels) = seed_planted_topology(cfg);
    let mut rng = rng(cfg.seed ^ 0x5151_5151);
    let centroids: Vec<Vec<f32>> = (0..cfg.num_classes)
        .map(|_| (0..cfg.feat_dim).map(|_| normal(&mut rng) as f32).collect())
        .collect();
    let mut features = FeatureTable::zeros(cfg.n, cfg.feat_dim);
    for (v, &l) in labels.iter().enumerate() {
        for (x, &c) in features.row_mut(v as VId).iter_mut().zip(&centroids[l as usize]) {
            *x = c + cfg.feat_noise * normal(&mut rng) as f32;
        }
    }

    Graph {
        inn: out.clone(),
        out,
        features,
        labels,
        num_classes: cfg.num_classes,
        split: SplitMask::paper_default(cfg.n, cfg.seed ^ 0xabcd),
    }
}

/// The adjacency and labels of [`seed_planted_partition`], without the
/// feature table: what the full-size pins compare.
pub fn seed_planted_topology(cfg: &PplConfig) -> (Csr, Vec<u32>) {
    fn cumulative(weights: impl Iterator<Item = f64>) -> Vec<f64> {
        let mut total = 0.0;
        weights
            .map(|w| {
                total += w;
                total
            })
            .collect()
    }
    fn pick(items: &[VId], cumulative: &[f64], rng: &mut StdRng) -> VId {
        let x = rng.random::<f64>() * cumulative.last().copied().unwrap_or(0.0);
        items[cumulative.partition_point(|&c| c <= x).min(items.len() - 1)]
    }

    let mut rng = rng(cfg.seed);
    let mut labels: Vec<u32> = (0..cfg.n).map(|i| (i % cfg.num_classes) as u32).collect();
    labels.shuffle(&mut rng);
    let weights = zipf_weights(cfg.n, cfg.skew, cfg.seed ^ 0x9e37_79b9);
    let mut members: Vec<Vec<VId>> = vec![Vec::new(); cfg.num_classes];
    for (v, &l) in labels.iter().enumerate() {
        members[l as usize].push(v as VId);
    }
    let member_cdfs: Vec<Vec<f64>> =
        members.iter().map(|m| cumulative(m.iter().map(|&v| weights[v as usize]))).collect();
    let everyone: Vec<VId> = (0..cfg.n as VId).collect();
    let global_cdf = cumulative(weights.iter().copied());

    let m = ((cfg.n as f64) * cfg.avg_degree / 2.0).round() as usize;
    let mut edges: BTreeSet<(VId, VId)> = BTreeSet::new();
    let (mut placed, mut attempts) = (0usize, 0usize);
    while placed < m && attempts < m * 20 {
        attempts += 1;
        let u = pick(&everyone, &global_cdf, &mut rng);
        let v = if rng.random::<f64>() < cfg.homophily {
            let c = labels[u as usize] as usize;
            pick(&members[c], &member_cdfs[c], &mut rng)
        } else {
            pick(&everyone, &global_cdf, &mut rng)
        };
        if u == v {
            continue;
        }
        edges.insert((u, v));
        edges.insert((v, u));
        placed += 1;
    }

    // The set iterates in (source, target) order: rows in order, each
    // sorted and duplicate-free.
    let mut offsets = vec![0usize; cfg.n + 1];
    for &(u, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for v in 0..cfg.n {
        offsets[v + 1] += offsets[v];
    }
    let targets: Vec<VId> = edges.iter().map(|&(_, v)| v).collect();
    (Csr::from_parts(offsets, targets), labels)
}
