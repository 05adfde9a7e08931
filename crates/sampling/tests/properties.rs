//! Property-based tests of batch preparation invariants.

use gnn_dm_graph::csr::VId;
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_sampling::epoch::{AccessTracker, EpochPlan};
use gnn_dm_sampling::sampler::{build_minibatch, FanoutSampler, ImportanceSampler, RateSampler};
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generator seeded straight from `seed`: this test crate's one raw
/// seeding site.
#[expect(clippy::disallowed_methods, reason = "test fixtures seed their generator directly")]
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn graph(n: usize, seed: u64) -> gnn_dm_graph::Graph {
    planted_partition(&PplConfig {
        n,
        avg_degree: 6.0,
        num_classes: 4,
        feat_dim: 4,
        seed,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sampler produces structurally valid mini-batches whose input
    /// set contains the seeds and whose edges respect fanout bounds.
    #[test]
    fn minibatch_structural_invariants(
        n in 50usize..250,
        gseed in 0u64..10,
        sseed in 0u64..10,
        fanout in 1usize..8,
        layers in 1usize..4,
        num_seeds in 1usize..30,
    ) {
        let g = graph(n, gseed);
        let seeds: Vec<VId> = (0..num_seeds.min(n) as VId).collect();
        let mut rng = rng(sseed);
        let sampler = FanoutSampler::new(vec![fanout; layers]);
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        prop_assert!(mb.validate().is_ok());
        prop_assert_eq!(mb.num_layers(), layers);
        // Seeds are exactly the last block's destinations.
        prop_assert_eq!(&mb.seeds[..], mb.dst_ids(layers - 1));
        // Every destination's in-degree is bounded by fanout and by its
        // true degree.
        for (l, block) in mb.blocks.iter().enumerate() {
            for (i, &d) in mb.dst_ids(l).iter().enumerate() {
                prop_assert!(block.in_degree(i) <= fanout.min(g.inn.degree(d)));
            }
        }
        // Involved vertices equals the input-most source count.
        prop_assert_eq!(mb.involved_vertices(), mb.input_ids().len());
    }

    /// Rate sampling respects its per-vertex ceiling and floor.
    #[test]
    fn rate_sampler_bounds(
        n in 50usize..200,
        gseed in 0u64..10,
        rate_pct in 1u32..100,
        min_nbrs in 0usize..3,
    ) {
        let g = graph(n, gseed);
        let rate = rate_pct as f64 / 100.0;
        let sampler = RateSampler::new(vec![rate], min_nbrs);
        let mut rng = rng(1);
        let seeds: Vec<VId> = (0..10.min(n) as VId).collect();
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        for (i, &v) in mb.dst_ids(0).iter().enumerate() {
            let deg = g.inn.degree(v);
            let expect = ((deg as f64 * rate).round() as usize).max(min_nbrs).min(deg);
            prop_assert_eq!(mb.blocks[0].in_degree(i), expect, "vertex {} degree {}", v, deg);
        }
    }

    /// Importance sampling with uniform weights behaves like fanout
    /// sampling (same counts).
    #[test]
    fn importance_uniform_matches_fanout_counts(
        n in 50usize..200,
        gseed in 0u64..10,
        fanout in 1usize..6,
    ) {
        let g = graph(n, gseed);
        let sampler = ImportanceSampler::new(vec![fanout], vec![1.0; n]);
        let mut rng = rng(2);
        let seeds: Vec<VId> = (0..8.min(n) as VId).collect();
        let mb = build_minibatch(&g.inn, &seeds, &sampler, &mut rng);
        for (i, &v) in mb.dst_ids(0).iter().enumerate() {
            prop_assert_eq!(mb.blocks[0].in_degree(i), fanout.min(g.inn.degree(v)));
        }
    }

    /// An epoch's access tracker total equals the sum of per-batch input
    /// sizes, for every selection policy and schedule.
    #[test]
    fn tracker_conserves_accesses(
        n in 80usize..250,
        gseed in 0u64..5,
        batch in 8usize..64,
        epoch in 0usize..3,
    ) {
        let g = graph(n, gseed);
        let train = g.train_vertices();
        prop_assume!(!train.is_empty());
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(batch);
        let sampler = FanoutSampler::new(vec![4, 3]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 3,
        };
        let mut tracker = AccessTracker::new(n);
        let stats = plan.run_for_stats(epoch, Some(&mut tracker));
        prop_assert_eq!(tracker.total() as usize, stats.involved_vertices);
        prop_assert_eq!(stats.num_batches, train.len().div_ceil(batch));
        // The ranking is a permutation of all vertex ids.
        let mut ranking = tracker.ranking();
        ranking.sort_unstable();
        prop_assert_eq!(ranking, (0..n as VId).collect::<Vec<_>>());
    }
}
