//! The substrate's central promise, checked end to end: every parallelized
//! kernel produces BITWISE-identical output at any thread count. Each test
//! runs the same computation under `with_threads(1)` (the serial path) and
//! under 2, 3 and 8 workers — more workers than this machine may have
//! cores, and deliberately including a count that does not divide the
//! problem sizes evenly — and requires exact equality, not epsilon
//! closeness.

mod common;

use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::graph::Graph;
use gnn_dm::nn::train::{evaluate, gather_input_features, train_epoch};
use gnn_dm::nn::{Adam, AggKind, GnnModel};
use gnn_dm::par::with_threads;
use gnn_dm::partition::metis::{metis_clusters, metis_extend, MetisVariant};
use gnn_dm::sampling::sampler::{build_minibatch_seeded, FanoutSampler};
use gnn_dm::sampling::epoch::EpochPlan;
use gnn_dm::sampling::{BatchSelection, BatchSizeSchedule};
use gnn_dm::tensor::ops::{matmul, matmul_nt, matmul_tiled, matmul_tn};
use gnn_dm::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Thread counts every kernel is exercised at. 1 is the serial reference;
/// 3 leaves remainders on power-of-two chunk grids; 8 oversubscribes small
/// inputs so some workers go idle.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Runs `f` at each thread count and asserts all results equal the serial
/// one. `Eq` here is derived structural equality over `f32` bit patterns
/// (`Matrix`/`Block` wrap plain `Vec<f32>`/`Vec<u32>`), so a single ULP of
/// drift fails.
fn assert_threadcount_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let serial = with_threads(1, &f);
    assert_threadcount_equal(&serial, f);
}

/// Runs `f` at each thread count and asserts every result equals `expect`.
fn assert_threadcount_equal<T: PartialEq + std::fmt::Debug>(expect: &T, f: impl Fn() -> T) {
    for n in THREAD_COUNTS {
        let got = with_threads(n, &f);
        assert!(got == *expect, "threads={n} diverged from the reference");
    }
}

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    // Mixed magnitudes + exact zeros: zeros exercise the zero-skip branch,
    // magnitude spread makes any reassociation of the sums visible.
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0..4) == 0 {
            0.0
        } else {
            (rng.random::<f64>() as f32 - 0.5) * 3.0f32.powi(rng.random_range(-3..4))
        }
    })
}

fn graph() -> Graph {
    planted_partition(&PplConfig { n: 700, avg_degree: 12.0, num_classes: 4, ..Default::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All four GEMM kernels, at ragged shapes that straddle every tile
    /// boundary of the register-tiled kernels: the 96-row parallel chunk,
    /// the 128-wide k-tile, the 32-wide register strip and the 6-row
    /// micro-kernel (sub-tile, exact-tile and off-by-remainder sizes all
    /// fall inside these ranges).
    #[test]
    fn gemm_bitwise_equal_across_thread_counts(
        m in 1usize..200,
        k in 1usize..140,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let mut rng = common::rng(seed);
        let a = rand_matrix(&mut rng, m, k);
        let b = rand_matrix(&mut rng, k, n);
        let at = rand_matrix(&mut rng, k, m); // for matmul_tn: (k x m)^T * (k x n)
        let bt = rand_matrix(&mut rng, n, k); // for matmul_nt: (m x k) * (n x k)^T
        assert_threadcount_invariant(|| matmul(&a, &b));
        assert_threadcount_invariant(|| matmul_tiled(&a, &b));
        assert_threadcount_invariant(|| matmul_tn(&at, &b));
        assert_threadcount_invariant(|| matmul_nt(&a, &bt));
    }

    /// Row gathers are pure copies, but the chunk bookkeeping has to place
    /// every row — exercise lengths around the 256-row block size.
    #[test]
    fn gather_rows_bitwise_equal_across_thread_counts(
        rows in 1usize..30,
        cols in 1usize..20,
        picks in 0usize..600,
        seed in 0u64..1000,
    ) {
        let mut rng = common::rng(seed);
        let m = rand_matrix(&mut rng, rows, cols);
        let ids: Vec<u32> =
            (0..picks).map(|_| rng.random_range(0..rows as u32)).collect();
        assert_threadcount_invariant(|| m.gather_rows(&ids));
    }
}

/// The tiled GEMMs must also agree with the naive `matmul` bit-for-bit:
/// tiling reorders the *iteration*, never the per-element addition order.
#[test]
fn tiled_variants_match_naive_exactly() {
    let mut rng = common::rng(41);
    for (m, k, n) in [(1, 1, 1), (7, 3, 5), (33, 65, 17), (64, 128, 32), (100, 77, 31)] {
        let a = rand_matrix(&mut rng, m, k);
        let b = rand_matrix(&mut rng, k, n);
        assert_eq!(matmul_tiled(&a, &b), matmul(&a, &b), "{m}x{k}x{n}");
    }
}

/// The worker pool persists across dispatches (spawn once, park between
/// jobs). Reusing parked workers must be invisible: the second and tenth
/// dispatch produce the same bits as the first, and as a serial run —
/// i.e. no state leaks from one generation into the next.
#[test]
fn pool_reuse_is_bitwise_invisible() {
    let mut rng = common::rng(17);
    let a = rand_matrix(&mut rng, 130, 70);
    let b = rand_matrix(&mut rng, 70, 45);
    let serial = with_threads(1, || matmul_tiled(&a, &b));
    let runs = with_threads(8, || {
        // Interleave a different workload so the pool's job slot is
        // exercised with varying closure types between the repeats.
        let first = matmul_tiled(&a, &b);
        let _ = matmul_tn(&b, &b);
        let mut reps = vec![first];
        for _ in 0..9 {
            reps.push(matmul_tiled(&a, &b));
        }
        reps
    });
    for (i, r) in runs.iter().enumerate() {
        assert!(*r == serial, "pool dispatch #{i} diverged");
    }
}

/// Scratch arenas (`SampleScratch`) carried across batches must be
/// invisible in the output: a builder fed a scratch that has already been
/// through other batches produces the same bits as one with a fresh arena.
#[test]
fn scratch_reuse_is_bitwise_invisible() {
    use gnn_dm::sampling::sampler::{
        build_minibatch_seeded_with, build_minibatch_with, SampleScratch,
    };
    let g = graph();
    let sampler = FanoutSampler::new(vec![5, 3]);
    let seeds_a: Vec<u32> = (0..120).map(|i| (i * 5) % 700).collect();
    let seeds_b: Vec<u32> = (0..90).map(|i| (i * 11 + 3) % 700).collect();

    // Stream builder: dirty scratch (used on batch A first) vs fresh.
    let fresh = build_minibatch_with(
        &g.inn,
        &seeds_b,
        &sampler,
        &mut common::rng(23),
        &mut SampleScratch::new(),
    );
    let mut dirty = SampleScratch::new();
    build_minibatch_with(&g.inn, &seeds_a, &sampler, &mut common::rng(1), &mut dirty);
    let reused = build_minibatch_with(
        &g.inn,
        &seeds_b,
        &sampler,
        &mut common::rng(23),
        &mut dirty,
    );
    assert!(reused == fresh, "stream builder: reused scratch diverged from fresh");

    // Seeded builder, at an awkward thread count.
    with_threads(3, || {
        let fresh =
            build_minibatch_seeded_with(&g.inn, &seeds_b, &sampler, 77, &mut SampleScratch::new());
        let mut dirty = SampleScratch::new();
        build_minibatch_seeded_with(&g.inn, &seeds_a, &sampler, 5, &mut dirty);
        let reused = build_minibatch_seeded_with(&g.inn, &seeds_b, &sampler, 77, &mut dirty);
        assert!(reused == fresh, "seeded builder: reused scratch diverged from fresh");
    });
}

/// Optimizer updates run through the substrate in fixed chunks; two steps
/// of SGD and Adam must land on identical bits at every thread count.
#[test]
fn optimizer_steps_bitwise_equal_across_thread_counts() {
    use gnn_dm::nn::optim::{Adam, Optimizer, Sgd};
    let mut rng = common::rng(29);
    let p0: Vec<f32> = (0..9000).map(|_| rng.random::<f64>() as f32 - 0.5).collect();
    let gr: Vec<f32> = (0..9000).map(|_| rng.random::<f64>() as f32 - 0.5).collect();
    assert_threadcount_invariant(|| {
        let mut p = p0.clone();
        let mut opt = Sgd { lr: 0.05, weight_decay: 0.01 };
        opt.step(vec![&mut p], vec![&gr]);
        opt.step(vec![&mut p], vec![&gr]);
        p
    });
    assert_threadcount_invariant(|| {
        let mut p = p0.clone();
        let mut opt = Adam::new(0.01);
        opt.step(vec![&mut p], vec![&gr]);
        opt.step(vec![&mut p], vec![&gr]);
        p
    });
}

/// Seeded fanout sampling: per-destination RNGs are split from the batch
/// seed, so the sampled blocks — ids, dedup order and edge lists — must not
/// depend on the thread count the caller happens to run under, and must be
/// bit for bit what the seed's three-phase builder (`tests/common`) makes
/// of the same draws, over two- and three-hop samplers.
#[test]
fn minibatch_sampling_bitwise_equal_across_thread_counts() {
    let g = graph();
    // The last 50 seeds repeat the first 50: seed dedup is part of the output.
    let seeds: Vec<u32> = (0..150).map(|i| (i * 3) % 300).collect();
    for fanouts in [vec![5, 3], vec![5, 3, 2]] {
        let sampler = FanoutSampler::new(fanouts);
        let oracle = common::seed_build_minibatch(&g.inn, &seeds, &sampler, 0xBEEF);
        assert_threadcount_equal(&oracle, || {
            let mb = build_minibatch_seeded(&g.inn, &seeds, &sampler, 0xBEEF);
            mb.validate().expect("minibatch invariants");
            common::unroll(&mb)
        });
    }
}

/// A whole epoch's batch stream, built in parallel across batches, equals
/// the seed's serial epoch driver (`tests/common`) batch for batch; and
/// `map_batches` hands `f` exactly those batches under their own indices,
/// results in batch order, wherever each one was built.
#[test]
fn epoch_batches_bitwise_equal_across_thread_counts() {
    let g = graph();
    let train = g.train_vertices();
    let selection = BatchSelection::Random;
    let schedule = BatchSizeSchedule::Fixed(48);
    for fanouts in [vec![4, 4], vec![5, 3, 2]] {
        let sampler = FanoutSampler::new(fanouts);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 11,
        };
        let oracle = common::seed_epoch_batches(&g.inn, &train, 48, &sampler, 11, 2);
        assert!(oracle.len() > 8, "more batches than workers at every thread count");
        assert_threadcount_equal(&oracle, || plan.batches(2).iter().map(common::unroll).collect());
        let indexed: Vec<_> = (0..).zip(plan.batches(2)).collect();
        for n in THREAD_COUNTS {
            let got = with_threads(n, || plan.map_batches(2, |b, mb| (b, mb)));
            assert!(got == indexed, "threads={n}: map_batches diverged from batches");
        }
    }
}

/// The streamed epoch: `for_each_batch` hands its consumer exactly
/// `batches(e)` under indices `0..`, in order, whichever thread built each
/// batch and however far ahead — over two- and three-hop samplers, a
/// training set with repeated vertices, a one-batch epoch and an empty
/// training set.
#[test]
fn streamed_epoch_batches_equal_materialised_across_thread_counts() {
    let g = graph();
    let train = g.train_vertices();
    let repeated: Vec<u32> = train.iter().chain(train.iter().take(40)).copied().collect();
    let cases: [(&str, &[u32], usize, Vec<usize>); 5] = [
        ("two-hop", &train, 48, vec![4, 4]),
        ("three-hop", &train, 40, vec![5, 3, 2]),
        ("repeated seeds", &repeated, 48, vec![4, 4]),
        ("one batch", &train, train.len() + 10, vec![4, 4]),
        ("empty training set", &[], 48, vec![4, 4]),
    ];
    let selection = BatchSelection::Random;
    for (name, train, batch_size, fanouts) in cases {
        let schedule = BatchSizeSchedule::Fixed(batch_size);
        let sampler = FanoutSampler::new(fanouts);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 11,
        };
        let expect: Vec<_> = (0usize..).zip(with_threads(1, || plan.batches(3))).collect();
        match name {
            "one batch" => assert_eq!(expect.len(), 1),
            "empty training set" => assert!(expect.is_empty()),
            _ => assert!(expect.len() > 8, "{name}: more batches than workers and than the window"),
        }
        for n in THREAD_COUNTS {
            let mut got = Vec::new();
            with_threads(n, || plan.for_each_batch(3, |b, mb| got.push((b, mb))));
            assert!(got == expect, "{name}, threads={n}: streamed batches diverged from batches(3)");
        }
    }
}

/// The transfer-model trainer prices each batch on the worker that built
/// it and folds the prices in batch order: aggregate timings *and* the
/// replayed timeline must be the same bits at every thread count, for the
/// plain, pipelined and cached/hybrid configurations alike.
#[test]
fn hetero_epoch_bitwise_equal_across_thread_counts() {
    use gnn_dm::harness::{Registry, SystemConfig};
    let g = graph();
    let reg = Registry::builtin();
    for (transfer, cache) in
        [("extract-load", "none"), ("zero-copy+pipe(full)", "none"), ("hybrid(0.5)", "presample(0.3,1)")]
    {
        let id = format!("hash/fanout(5,3)+fixed(32)/{transfer}/{cache}/single/none/none");
        let cfg = SystemConfig::from_id(&reg, &id).expect("trainer ids resolve");
        let mut trainer = cfg.hetero_trainer(&g);
        let serial = with_threads(1, || trainer.run_epoch_traced(1));
        assert!(serial.0.num_batches > 8, "more batches than workers at every thread count");
        for n in THREAD_COUNTS {
            let got = with_threads(n, || trainer.run_epoch_traced(1));
            assert!(got == serial, "threads={n}: trainer epoch diverged from serial");
        }
    }
}

/// The feature "extract" gather: the same bits at every thread count, and
/// row `i` is the feature row of input vertex `i`.
#[test]
fn feature_gather_bitwise_equal_across_thread_counts() {
    let g = graph();
    let sampler = FanoutSampler::new(vec![6, 4]);
    let seeds: Vec<u32> = (0..300).map(|i| (i * 2) % 700).collect();
    let mb = build_minibatch_seeded(&g.inn, &seeds, &sampler, 7);
    assert_threadcount_invariant(|| gather_input_features(&g, &mb));
    let x = gather_input_features(&g, &mb);
    for (i, &v) in mb.input_ids().iter().enumerate() {
        assert_eq!(x.row(i), g.features.row(v), "row {i}");
    }
}

/// A whole NN step, end to end: aggregation (row chunks), the GEMMs
/// (row panels, shape-derived for `Aᵀ·B`), loss, Adam and full-graph
/// evaluation. Two epochs of `train_epoch` plus `evaluate` must leave the
/// same losses, accuracy and every parameter bit at any thread count, for
/// both model families — widths chosen so row chunks, register tiles and
/// column strips all have remainders.
#[test]
fn training_epoch_bitwise_equal_across_thread_counts() {
    let g = planted_partition(&PplConfig {
        n: 700,
        avg_degree: 12.0,
        num_classes: 5,
        feat_dim: 37,
        ..Default::default()
    });
    let train = g.train_vertices();
    let val = g.val_vertices();
    let selection = BatchSelection::Random;
    let schedule = BatchSizeSchedule::Fixed(96);
    let sampler = FanoutSampler::new(vec![6, 4]);
    let plan = EpochPlan {
        in_csr: &g.inn,
        train: &train,
        selection: &selection,
        schedule: &schedule,
        sampler: &sampler,
        seed: 11,
    };
    for kind in [AggKind::Gcn, AggKind::SageMean] {
        assert_threadcount_invariant(|| {
            let mut model = GnnModel::new(kind, &[37, 70, 5], 3);
            let mut opt = Adam::new(0.01);
            let losses: Vec<u32> = (0..2)
                .map(|e| train_epoch(&mut model, &mut opt, &g, &plan, e).mean_loss.to_bits())
                .collect();
            let acc = evaluate(&model, &g, &val).to_bits();
            let params: Vec<Vec<u32>> = model
                .param_views_mut()
                .into_iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect();
            (losses, acc, params)
        });
    }
}

/// Graph synthesis draws every random number off one serial stream and
/// fans out only the work on the drawn numbers, so the generated graph —
/// both CSRs, labels, split and every feature bit — is the serial
/// generator's (`tests/common`) at every thread count: each dataset
/// stand-in at 700 vertices (four of them past the edge chunk, every
/// 600-wide one past several feature chunks), plus two vertices, full
/// homophily, no skew, and one- and zero-wide features.
#[test]
fn planted_partition_bitwise_equal_across_thread_counts() {
    use gnn_dm::graph::datasets::DatasetSpec;
    let base = PplConfig { n: 300, avg_degree: 8.0, num_classes: 3, feat_dim: 16, ..Default::default() };
    let mut configs: Vec<PplConfig> =
        DatasetSpec::all().iter().map(|d| d.scaled_config(700, 7)).collect();
    configs.extend([
        PplConfig { n: 2, num_classes: 2, ..base.clone() },
        PplConfig { homophily: 1.0, ..base.clone() },
        PplConfig { skew: 0.0, ..base.clone() },
        PplConfig { feat_dim: 1, ..base.clone() },
        PplConfig { feat_dim: 0, ..base },
    ]);
    let bits = |g: &Graph| {
        let features: Vec<u32> = g.features.as_slice().iter().map(|x| x.to_bits()).collect();
        let shape = (g.features.num_rows(), g.feat_dim(), g.num_classes);
        (g.out.clone(), g.inn.clone(), g.labels.clone(), g.split.clone(), features, shape)
    };
    for cfg in &configs {
        let oracle = bits(&common::seed_planted_partition(cfg));
        for n in THREAD_COUNTS {
            let got = with_threads(n, || bits(&planted_partition(cfg)));
            assert!(got == oracle, "threads={n}: {cfg:?} diverged from the serial generator");
        }
    }
}

/// The benchmark's four graphs at full size, topology only (their feature
/// tables stay deferred): `mb_wide`'s Reddit 5 000 at degree 15, `mb_deep`'s
/// Products 20 000 at degree 30, `cluster_epoch`'s Products 20 000 and
/// `hetero_transfer`'s LiveJournal 40 000. Both CSRs, the labels and the
/// split equal the serial generator's at 1 and 3 threads. Ignored in the
/// debug suite for its run time; `scripts/check.sh` runs it in release.
#[test]
#[ignore = "full size; scripts/check.sh runs it in release"]
fn planted_partition_full_size_topology_matches_the_serial_generator() {
    use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
    let trained = |id, n, avg_degree| {
        let mut cfg = DatasetSpec::get(id).scaled_config(n, 42);
        cfg.num_classes = cfg.num_classes.min(16);
        PplConfig { avg_degree, homophily: 0.60, ..cfg }
    };
    for cfg in [
        trained(DatasetId::Reddit, 5_000, 15.0),
        trained(DatasetId::OgbProducts, 20_000, 30.0),
        DatasetSpec::get(DatasetId::OgbProducts).scaled_config(20_000, 42),
        DatasetSpec::get(DatasetId::LiveJournal).scaled_config(40_000, 42),
    ] {
        assert_topology_matches_the_serial_generator(&cfg);
    }
}

/// [`planted_partition_full_size_topology_matches_the_serial_generator`]
/// for one 200 000-vertex LiveJournal stand-in: guide tables and row
/// chunks many times the benchmark graphs' sizes.
#[test]
#[ignore = "full size; scripts/check.sh runs it in release"]
fn planted_partition_full_size_200k_livejournal_matches_the_serial_generator() {
    use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
    let cfg = DatasetSpec::get(DatasetId::LiveJournal).scaled_config(200_000, 42);
    assert_topology_matches_the_serial_generator(&cfg);
}

fn assert_topology_matches_the_serial_generator(cfg: &PplConfig) {
    let (oracle, labels) = common::seed_planted_topology(cfg);
    for n in [1, 3] {
        let g = with_threads(n, || planted_partition(cfg));
        assert!(!g.features.is_materialized(), "topology pins must not draw the feature table");
        assert!(g.out == oracle && g.inn == oracle, "threads={n}: {cfg:?} adjacency diverged");
        assert!(g.labels == labels, "threads={n}: {cfg:?} labels diverged");
        assert!(
            g.split == gnn_dm::graph::SplitMask::paper_default(cfg.n, cfg.seed ^ 0xabcd),
            "threads={n}: {cfg:?} split diverged"
        );
    }
}

/// Multilevel partitioning: parallel matching proposals, the two-pass
/// parallel level builder and speculate-validate refinement must reproduce
/// the serial assignment exactly for every constraint variant and for the
/// count-balanced clustering.
#[test]
fn metis_bitwise_equal_across_thread_counts() {
    let g = graph();
    for variant in [MetisVariant::V, MetisVariant::VE, MetisVariant::VET] {
        assert_threadcount_invariant(|| metis_extend(&g, variant, 4, 7).assignment);
    }
    for k in [8, 16, 64] {
        assert_threadcount_invariant(|| metis_clusters(&g, k, 1));
    }
}

/// The distributed-epoch simulation: per-worker ledgers merge in worker
/// order into integer counters.
#[test]
fn cluster_epoch_bitwise_equal_across_thread_counts() {
    let g = graph();
    let part = metis_extend(&g, MetisVariant::V, 4, 3);
    let sim = gnn_dm::cluster::ClusterSim { graph: &g, part: &part, batch_size: 32, seed: 5 };
    let sampler = FanoutSampler::new(vec![4, 4]);
    assert_threadcount_invariant(|| sim.simulate_epoch(&sampler, 1));
}

/// Fault injection sits on top of the same substrate: a faulted epoch
/// timeline — straggler slowdowns, retry/backoff spans, checkpoint and
/// crash-replay spans included — must export byte-identical Chrome traces
/// at every thread count, because every fault draw is a pure function of
/// `(seed, epoch, worker)` and never of scheduling.
#[test]
fn faulted_epoch_timeline_bitwise_equal_across_thread_counts() {
    use gnn_dm::cluster::sim::TimeModel;
    use gnn_dm::faults::{FaultPlan, ResiliencePolicy};
    let g = graph();
    let part = metis_extend(&g, MetisVariant::V, 4, 3);
    let sim = gnn_dm::cluster::ClusterSim { graph: &g, part: &part, batch_size: 32, seed: 5 };
    let sampler = FanoutSampler::new(vec![4, 4]);
    let tm = TimeModel::paper_default(g.feat_dim(), 64, 50_000);
    let plan = FaultPlan::uniform(9, 0.4);
    assert_threadcount_invariant(|| {
        let report = sim.simulate_epoch(&sampler, 1);
        sim.epoch_timeline_resilient(&report, &tm, &plan, 1, &ResiliencePolicy::none())
            .to_chrome_trace()
    });
}

/// The resilience layer on top of the faults keeps the same contract: an
/// armed policy (hedging, deadlines, re-dispatch and degraded sync all
/// live) reacts only to the seeded draws and the analytic stage costs, so
/// the resilient timeline is byte-identical at every thread count too.
#[test]
fn resilient_epoch_timeline_bitwise_equal_across_thread_counts() {
    use gnn_dm::cluster::sim::TimeModel;
    use gnn_dm::faults::{FaultPlan, ResiliencePolicy};
    use gnn_dm::trace::units::Seconds;
    let g = graph();
    let part = metis_extend(&g, MetisVariant::V, 4, 3);
    let sim = gnn_dm::cluster::ClusterSim { graph: &g, part: &part, batch_size: 32, seed: 5 };
    let sampler = FanoutSampler::new(vec![4, 4]);
    let tm = TimeModel::paper_default(g.feat_dim(), 64, 50_000);
    let plan = FaultPlan::uniform(9, 0.4);
    let policy = ResiliencePolicy::full(Seconds(0.05));
    assert_threadcount_invariant(|| {
        let report = sim.simulate_epoch(&sampler, 1);
        sim.epoch_timeline_resilient(&report, &tm, &plan, 1, &policy).to_chrome_trace()
    });
}
