//! Property-based tests of the workspace's core invariants, spanning
//! crates.

use gnn_dm::device::blocks::block_activity;
use gnn_dm::device::pipeline::{makespan, replay_epoch, BatchStageTimes, PipelineMode};
use gnn_dm::faults::{FaultPlan, ResiliencePolicy};
use gnn_dm::graph::csr::{Csr, VId};
use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::partition::{partition_graph, PartitionMethod};
use gnn_dm::sampling::sampler::{build_minibatch, FanoutSampler, LayerwiseSampler, RateSampler};
use common::{unroll, Unrolled};
use gnn_dm::sampling::{BatchSelection, BatchSizeSchedule, Block};
use gnn_dm::trace::units::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

mod common;

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(VId, VId)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as VId, 0..n as VId);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

/// The layer-wise builder written out with ordered sets, as it stood before
/// it shared the vertex-wise builders' block assembly: per layer, the
/// destinations' distinct neighbors in first-appearance order are
/// shuffled and cut to the budget, a `BTreeMap` numbers the destinations
/// and then each kept source at its first appearance, and
/// `Block::from_edges` groups the edge list by destination.
fn tree_set_layerwise_build(in_csr: &Csr, seeds: &[VId], budgets: &[usize], rng: &mut StdRng) -> Unrolled {
    let mut seen = BTreeSet::new();
    let seeds_dedup: Vec<VId> = seeds.iter().copied().filter(|&s| seen.insert(s)).collect();
    let mut layers = Vec::new();
    let mut frontier = seeds_dedup.clone();
    for &budget in budgets {
        let dst_ids = frontier;
        let mut cand_seen = BTreeSet::new();
        let mut candidates: Vec<VId> = dst_ids
            .iter()
            .flat_map(|&d| in_csr.neighbors(d).iter().copied())
            .filter(|&u| cand_seen.insert(u))
            .collect();
        candidates.shuffle(rng);
        candidates.truncate(budget);
        let chosen: BTreeSet<VId> = candidates.into_iter().collect();
        let mut src_ids: Vec<VId> = Vec::new();
        let mut local: BTreeMap<VId, u32> = BTreeMap::new();
        let mut number = |v: VId, src_ids: &mut Vec<VId>| {
            *local.entry(v).or_insert_with(|| {
                src_ids.push(v);
                src_ids.len() as u32 - 1
            })
        };
        for &d in &dst_ids {
            number(d, &mut src_ids);
        }
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (d_local, &d) in (0u32..).zip(&dst_ids) {
            for &u in in_csr.neighbors(d).iter().filter(|u| chosen.contains(u)) {
                edges.push((number(u, &mut src_ids), d_local));
            }
        }
        frontier = src_ids.clone();
        let block = Block::from_edges(src_ids.len(), dst_ids.len(), &edges);
        layers.push((src_ids, dst_ids, block));
    }
    layers.reverse();
    Unrolled { seeds: seeds_dedup, layers }
}

/// `LayerwiseSampler::build` equals [`tree_set_layerwise_build`] bit for
/// bit, and both leave the caller's generator in the same state.
fn assert_layerwise_matches_tree_sets(in_csr: &Csr, seeds: &[VId], budgets: &[usize], rng_seed: u64) {
    let (mut live_rng, mut oracle_rng) = (common::rng(rng_seed), common::rng(rng_seed));
    let live = LayerwiseSampler::new(budgets.to_vec()).build(in_csr, seeds, &mut live_rng);
    let oracle = tree_set_layerwise_build(in_csr, seeds, budgets, &mut oracle_rng);
    assert!(live.validate().is_ok(), "{:?}", live.validate());
    assert_eq!(unroll(&live), oracle, "seeds {seeds:?}, budgets {budgets:?}, rng seed {rng_seed}");
    assert_eq!(live_rng.random::<u64>(), oracle_rng.random::<u64>(), "generator states differ");
}

/// Budgets of 0, small, and above every candidate count; duplicate seeds,
/// seeds with no in-neighbors, and an empty seed list.
#[test]
fn layerwise_builder_matches_its_tree_set_oracle() {
    let g = planted_partition(&PplConfig { n: 400, avg_degree: 12.0, num_classes: 4, ..Default::default() });
    let n = g.num_vertices();
    let mut edges: Vec<(VId, VId)> = Vec::new();
    for v in 0..n as VId {
        edges.extend(g.inn.neighbors(v).iter().map(|&u| (v, u)));
    }
    // Two extra vertices nothing points at and that point at nothing.
    let in_csr = Csr::from_edges(n + 2, &edges);
    let (lone_a, lone_b) = (n as VId, n as VId + 1);
    let batch: Vec<VId> = (0..64).map(|i| i * 37 % n as VId).collect();
    let seed_lists: [&[VId]; 5] =
        [&[17, lone_a, 3, 17, 250, 3, lone_b, 399, lone_a], &batch, &[lone_a, lone_a], &[5], &[]];
    let budget_lists: [&[usize]; 5] = [&[0], &[0, 6], &[8, 4], &[3, 1000], &[usize::MAX, 2, usize::MAX]];
    for seeds in seed_lists {
        for budgets in budget_lists {
            for rng_seed in 0..4 {
                assert_layerwise_matches_tree_sets(&in_csr, seeds, budgets, rng_seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction: sorted, deduplicated, in-range neighbor lists; a
    /// double transpose is the identity.
    #[test]
    fn csr_invariants((n, edges) in arb_edges(60, 300)) {
        let csr = Csr::from_edges(n, &edges);
        prop_assert_eq!(csr.num_vertices(), n);
        for v in 0..n as VId {
            let nbrs = csr.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
            prop_assert!(nbrs.iter().all(|&u| (u as usize) < n && u != v), "range + no loops");
        }
        prop_assert_eq!(csr.transpose().transpose(), csr.clone());
        prop_assert_eq!(csr.transpose().num_edges(), csr.num_edges());
    }

    /// The layer-wise builder equals its ordered-set oracle on random
    /// graphs, seed lists (duplicates included) and budgets.
    #[test]
    fn layerwise_builder_matches_its_tree_set_oracle_on_random_graphs(
        (n, edges) in arb_edges(60, 300),
        seeds in proptest::collection::vec(0..VId::MAX, 0..24),
        budgets in proptest::collection::vec(0usize..80, 1..4),
        rng_seed in 0u64..1000,
    ) {
        let in_csr = Csr::from_edges(n, &edges);
        let seeds: Vec<VId> = seeds.iter().map(|&s| s % n as VId).collect();
        assert_layerwise_matches_tree_sets(&in_csr, &seeds, &budgets, rng_seed);
    }

    /// Batch selection covers each training vertex exactly once, for both
    /// policies and arbitrary batch sizes.
    #[test]
    fn selection_partitions_train_set(
        train_n in 1usize..200,
        batch in 1usize..64,
        clusters in 1u32..8,
        seed in 0u64..50,
    ) {
        let train: Vec<VId> = (0..train_n as VId).collect();
        let assignments: Vec<u32> = (0..train_n as u32).map(|v| v % clusters).collect();
        for sel in [
            BatchSelection::Random,
            BatchSelection::ClusterBased { clusters: assignments },
        ] {
            let batches = sel.select(&train, batch, seed, 0);
            let mut all: Vec<VId> = batches.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(&all, &train);
            prop_assert!(batches.iter().all(|b| b.len() <= batch));
        }
    }

    /// The batch-size schedule is monotone non-decreasing and respects its
    /// bounds.
    #[test]
    fn adaptive_schedule_monotone(
        start in 1usize..512,
        factor in 2usize..8,
        grow_every in 1usize..5,
    ) {
        let max = start * 64;
        let s = BatchSizeSchedule::Adaptive {
            start,
            max,
            growth: factor as f64,
            grow_every,
        };
        let mut prev = 0;
        for e in 0..40 {
            let b = s.batch_size_at(e);
            prop_assert!(b >= prev, "monotone");
            prop_assert!(b >= start.min(max) && b <= max, "bounded: {b}");
            prev = b;
        }
    }

    /// Pipeline makespans are ordered None ≥ OverlapBp ≥ Full, and Full is
    /// never below the slowest stage's total.
    #[test]
    fn pipeline_makespan_bounds(stages in proptest::collection::vec(
        (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0), 1..40))
    {
        let batches: Vec<BatchStageTimes> = stages
            .iter()
            .map(|&(bp, dt, nn)| BatchStageTimes { bp, dt, nn })
            .collect();
        let none = makespan(&batches, PipelineMode::None);
        let bp = makespan(&batches, PipelineMode::OverlapBp);
        let full = makespan(&batches, PipelineMode::Full);
        prop_assert!(none >= bp - 1e-9);
        prop_assert!(bp >= full - 1e-9);
        let bp_sum: f64 = batches.iter().map(|b| b.bp).sum();
        let dt_sum: f64 = batches.iter().map(|b| b.dt).sum();
        let nn_sum: f64 = batches.iter().map(|b| b.nn).sum();
        let bound = bp_sum.max(dt_sum).max(nn_sum);
        prop_assert!(full >= bound - 1e-9, "full {full} below stage bound {bound}");
    }

    /// The faulted pipeline replay equals the closed-form oracle bit for
    /// bit on random stage times, fault rates and hedge deadlines — long
    /// transfers make the hedge lose rounds that short ones win.
    #[test]
    fn faulted_pipeline_matches_oracle(
        stages in proptest::collection::vec((0.0f64..2.0, 0.0f64..0.3, 0.0f64..2.0), 1..40),
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
        epoch in 0usize..8,
        deadline_factor in 1.0f64..4.0,
    ) {
        let batches: Vec<BatchStageTimes> =
            stages.iter().map(|&(bp, dt, nn)| BatchStageTimes { bp, dt, nn }).collect();
        let plan = FaultPlan::uniform(seed, rate);
        for policy in [ResiliencePolicy::none(), ResiliencePolicy::hedged(deadline_factor)] {
            for mode in common::MODES {
                let replayed = replay_epoch(&batches, &[], mode, &plan, epoch, &policy).makespan();
                let closed = common::makespan_closed_form(&batches, mode, &plan, epoch, &policy);
                prop_assert_eq!(replayed.to_bits(), closed.to_bits(), "{:?} {:?}", mode, policy);
            }
        }
    }

    /// Block activity conserves accesses: total active rows equals the
    /// number of distinct accessed ids.
    #[test]
    fn block_activity_conserves(
        n in 1usize..500,
        row_bytes in 1u64..512,
        block_bytes in 1u64..4096,
        ids_raw in proptest::collection::vec(0usize..500, 0..300),
    ) {
        let ids: Vec<u32> = ids_raw.into_iter().filter(|&v| v < n).map(|v| v as u32).collect();
        let act = block_activity(&ids, n, Bytes(row_bytes), Bytes(block_bytes));
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(act.total_active(), distinct.len());
        prop_assert!(act.touched_blocks() <= act.num_blocks());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Samplers respect their bounds on arbitrary generated graphs, and
    /// every partitioning method covers every vertex with non-degenerate
    /// partitions.
    #[test]
    fn samplers_and_partitioners_on_random_graphs(
        n in 60usize..250,
        avg_degree in 3.0f64..12.0,
        skew in 0.0f64..1.2,
        seed in 0u64..30,
    ) {
        let g = planted_partition(&PplConfig {
            n,
            avg_degree,
            num_classes: 4,
            homophily: 0.8,
            skew,
            feat_dim: 8,
            feat_noise: 1.0,
            seed,
        });
        // Samplers.
        let seeds: Vec<VId> = (0..(n as VId / 4).max(1)).collect();
        let mut rng = common::rng(seed);
        let fanout = FanoutSampler::new(vec![4, 3]);
        let mb = build_minibatch(&g.inn, &seeds, &fanout, &mut rng);
        prop_assert!(mb.validate().is_ok());
        let out_block = &mb.blocks[1];
        for (i, &v) in mb.dst_ids(1).iter().enumerate() {
            prop_assert!(out_block.in_degree(i) <= 4.min(g.inn.degree(v)));
        }
        let rate = RateSampler::new(vec![0.5, 0.5], 1);
        let mb2 = build_minibatch(&g.inn, &seeds, &rate, &mut rng);
        prop_assert!(mb2.validate().is_ok());

        // Partitioners.
        for method in PartitionMethod::all() {
            let part = partition_graph(&g, method, 3, seed);
            prop_assert!(part.validate().is_ok(), "{method:?}");
            prop_assert_eq!(part.assignment.len(), n);
            let covered: usize = part.sizes().iter().sum();
            prop_assert_eq!(covered, n);
        }
    }
}
