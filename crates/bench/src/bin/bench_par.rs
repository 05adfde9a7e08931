//! Parallel-substrate speedup benchmark: the hot paths the paper's
//! data-management pipeline spends its time in — dense GEMM (NN compute),
//! the `Aᵀ·B` weight-gradient GEMM and block aggregation at the two
//! training shapes of the reference benchmark (`mb_deep`: narrow and
//! edge-heavy, `mb_wide`: 602-wide), seeded neighbor sampling (batch
//! preparation), epoch mini-batch construction and a Figure-8-class cluster
//! epoch simulation — each timed at one thread and at `GNN_DM_THREADS`
//! (default: all cores) in the same process.
//!
//! Three kinds of evidence per row:
//!
//! * **speedup** — serial vs. parallel wall time (warmup + median-of-N);
//! * **bitwise_identical** — the parallel output is compared *bitwise*
//!   against the serial output, demonstrating the substrate's determinism
//!   contract on real workloads;
//! * **speedup_vs_seed** — where a frozen copy of the repo's seed kernel
//!   exists ([`gnn_dm_bench::seed_baseline`]), the seed implementation is
//!   timed on the same inputs in the same process. For the sampler and
//!   epoch rows the seed output is additionally asserted bitwise-equal to
//!   the current output (the scratch-arena and one-pass refactors changed
//!   allocation and phase structure, not results); the GEMM row's values
//!   differ in float rounding (the
//!   register-tiled kernel fuses multiply-adds), so only time is compared.
//!
//! Run: `scripts/bench.sh`, or directly
//! `cargo run --release -p gnn-dm-bench --bin bench_par`.
//! Writes `BENCH_par.json` and appends one line to `BENCH_history.jsonl`
//! in the current directory.
//!
//! `--smoke`: tiny sizes, no timing, no files — asserts every bitwise
//! serial≡parallel (and seed≡current) contract and exits. Wired into
//! `scripts/check.sh` so the determinism gates run on every check.
//!
//! On a single-core container the thread speedups hover at 1.0x (the pool
//! still pays its queueing overhead); `speedup_vs_seed` is the
//! machine-independent number, and the acceptance thresholds in DESIGN.md
//! are stated against it plus a 4+-core host for thread scaling.

use gnn_dm_bench::seed_baseline::{seed_build_minibatch_par, seed_epoch_batches, seed_matmul_tiled};
use gnn_dm_bench::SCALE_LOAD;
use gnn_dm_cluster::ClusterSim;
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_faults::TailStats;
use gnn_dm_harness::{ClusterExperiment, ClusterRun, GridSpec, Registry, SystemConfig};
use gnn_dm_nn::agg;
use gnn_dm_nn::optim::{Adam, Optimizer, Sgd};
use gnn_dm_par::{thread_count, with_threads};
use gnn_dm_partition::{partition_graph, PartitionMethod};
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::sampler::build_minibatch_seeded;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, Block, FanoutSampler};
use gnn_dm_tensor::ops::{matmul, matmul_nt, matmul_tiled, matmul_tn};
use gnn_dm_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Times `f` as the median of `reps` runs (after one warmup), returning
/// seconds and the last result for the equality check. Median, not mean:
/// robust to the one-off scheduling hiccups shared containers produce.
fn time_med<T>(reps: usize, f: impl Fn() -> T) -> (f64, T) {
    let mut out = f(); // warmup
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out)
}

/// One workload's serial/parallel pair, with the bitwise-equality verdict
/// and (where a frozen baseline exists) the seed kernel's serial time.
struct Row {
    name: &'static str,
    serial_s: f64,
    par_s: f64,
    identical: bool,
    seed_serial_s: Option<f64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_s / self.par_s
    }

    fn speedup_vs_seed(&self) -> Option<f64> {
        self.seed_serial_s.map(|s| s / self.par_s)
    }

    fn json(&self) -> String {
        let mut s = format!(
            "\"{}\":{{\"serial_s\":{:.6},\"par_s\":{:.6},\"speedup\":{:.3},\"bitwise_identical\":{}",
            self.name,
            self.serial_s,
            self.par_s,
            self.speedup(),
            self.identical
        );
        if let (Some(seed_s), Some(vs)) = (self.seed_serial_s, self.speedup_vs_seed()) {
            s.push_str(&format!(",\"seed_serial_s\":{seed_s:.6},\"speedup_vs_seed\":{vs:.3}"));
        }
        s.push('}');
        s
    }
}

/// JSON object naming a config's grid coordinates: the canonical `/`-joined
/// id plus each axis's spec, so BENCH history lines are filterable by axis.
fn config_json(cfg: &SystemConfig) -> String {
    format!(
        "{{\"config\":\"{}\",\"partitioner\":\"{}\",\"batch_prep\":\"{}\",\
         \"transfer\":\"{}\",\"cache\":\"{}\",\"parallel\":\"{}\",\"faults\":\"{}\"}}",
        cfg.id(),
        cfg.partitioner.spec(),
        cfg.batch_prep.spec(),
        cfg.transfer.spec(),
        cfg.cache.spec(),
        cfg.parallel.spec(),
        cfg.faults.spec(),
    )
}

/// Benchmarks `f` serial and at `threads`, optionally timing a frozen seed
/// implementation `seed_f` (serial) on the same inputs.
fn run<T: PartialEq>(
    name: &'static str,
    threads: usize,
    reps: usize,
    f: impl Fn() -> T,
    seed_f: Option<&dyn Fn()>,
) -> Row {
    let (serial_s, serial_out) = with_threads(1, || time_med(reps, &f));
    let (par_s, par_out) = with_threads(threads, || time_med(reps, &f));
    let seed_serial_s = seed_f.map(|sf| with_threads(1, || time_med(reps, sf).0));
    let row = Row { name, serial_s, par_s, identical: par_out == serial_out, seed_serial_s };
    let vs = row
        .speedup_vs_seed()
        .map(|v| format!("   vs-seed {v:>5.2}x"))
        .unwrap_or_default();
    println!(
        "  {:<12} serial {:>9.4}s   threads={threads} {:>9.4}s   speedup {:>5.2}x{vs}   bitwise-identical: {}",
        row.name,
        row.serial_s,
        row.par_s,
        row.speedup(),
        row.identical
    );
    row
}

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.random::<f64>() as f32 - 0.5)
}

/// The input-most block of one training batch shaped like a reference
/// benchmark workload (`benchmark/src/mb.rs`): that dataset's scaled
/// generator at `vertices`, `avg_degree` and `feat_dim`, one `batch`-seed
/// batch under `fanouts`. Returns the block and a source-embedding matrix.
fn training_block(
    dataset: DatasetId,
    vertices: usize,
    avg_degree: f64,
    feat_dim: usize,
    fanouts: &[usize],
    batch: usize,
) -> (Block, Matrix) {
    let mut cfg = DatasetSpec::get(dataset).scaled_config(vertices, 42);
    cfg.feat_dim = 1; // only the topology is used; embeddings are drawn below
    cfg.avg_degree = avg_degree;
    let g = gnn_dm_graph::generate::planted_partition(&cfg);
    let mut rng = StdRng::seed_from_u64(17);
    let seeds: Vec<u32> = (0..batch).map(|_| rng.random_range(0..vertices as u32)).collect();
    let mut mb = build_minibatch_seeded(&g.inn, &seeds, &FanoutSampler::new(fanouts.to_vec()), 99);
    let block = mb.blocks.swap_remove(0);
    let h = rand_matrix(&mut rng, block.num_src(), feat_dim);
    (block, h)
}

/// Forward then backward through one block's aggregation, both families'
/// shapes: GCN keeps the width, GraphSAGE doubles it.
fn agg_round_trip(block: &Block, h: &Matrix, sage: bool) -> (Matrix, Matrix) {
    if sage {
        let out = agg::sage_block_forward(block, h);
        let back = agg::sage_block_backward(block, &out);
        (out, back)
    } else {
        let out = agg::gcn_block_forward(block, h);
        let back = agg::gcn_block_backward(block, &out);
        (out, back)
    }
}

/// `--smoke`: tiny inputs, every determinism contract asserted, no timing.
fn smoke() {
    let t = 4;

    // GEMM routes: serial ≡ parallel bitwise on ragged shapes that straddle
    // the register-tile grid (NR=32, MR=8) unevenly.
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::from_fn(37, 29, |_, _| rng.random::<f64>() as f32 - 0.5);
    let b = Matrix::from_fn(29, 33, |_, _| rng.random::<f64>() as f32 - 0.5);
    let at = Matrix::from_fn(29, 37, |_, _| rng.random::<f64>() as f32 - 0.5);
    let bt = Matrix::from_fn(33, 29, |_, _| rng.random::<f64>() as f32 - 0.5);
    for (name, f) in [
        ("matmul", Box::new(|| matmul(&a, &b)) as Box<dyn Fn() -> Matrix>),
        ("matmul_tiled", Box::new(|| matmul_tiled(&a, &b))),
        ("matmul_tn", Box::new(|| matmul_tn(&at, &b))),
        ("matmul_nt", Box::new(|| matmul_nt(&a, &bt))),
    ] {
        let serial = with_threads(1, &f);
        let par = with_threads(t, &f);
        assert_eq!(serial.as_slice(), par.as_slice(), "{name}: serial ≢ parallel");
    }

    // Aggregation: one output row per work item, forward and adjoint.
    let (block, h) = training_block(DatasetId::Reddit, 800, 12.0, 37, &[5, 3], 128);
    for sage in [false, true] {
        let serial = with_threads(1, || agg_round_trip(&block, &h, sage));
        let par = with_threads(t, || agg_round_trip(&block, &h, sage));
        assert!(serial == par, "aggregation (sage={sage}): serial ≢ parallel");
    }

    // Sampler: serial ≡ parallel, and frozen seed implementation ≡ current.
    let spec = DatasetSpec::get(DatasetId::Reddit);
    let g = spec.generate_scaled(800, 42);
    let sampler = FanoutSampler::new(vec![5, 3]);
    let seeds: Vec<u32> = {
        let mut srng = StdRng::seed_from_u64(7);
        (0..128).map(|_| srng.random_range(0..g.num_vertices() as u32)).collect()
    };
    let mb_serial = with_threads(1, || build_minibatch_seeded(&g.inn, &seeds, &sampler, 99));
    let mb_par = with_threads(t, || build_minibatch_seeded(&g.inn, &seeds, &sampler, 99));
    assert_eq!(mb_serial, mb_par, "sampler: serial ≢ parallel");
    let mb_seed = with_threads(t, || seed_build_minibatch_par(&g.inn, &seeds, &sampler, 99));
    assert_eq!(mb_seed, mb_par, "sampler: seed baseline ≢ current (refactor changed results)");

    // Epoch plan: serial ≡ parallel ≡ seed implementation.
    let train = g.train_vertices();
    let selection = BatchSelection::Random;
    let schedule = BatchSizeSchedule::Fixed(64);
    let plan = EpochPlan {
        in_csr: &g.inn,
        train: &train,
        selection: &selection,
        schedule: &schedule,
        sampler: &sampler,
        seed: 3,
    };
    let ep_serial = with_threads(1, || plan.batches(0));
    let ep_par = with_threads(t, || plan.batches(0));
    assert_eq!(ep_serial, ep_par, "epoch: serial ≢ parallel");
    let ep_seed = with_threads(t, || seed_epoch_batches(&g.inn, &train, 64, &sampler, 3, 0));
    assert_eq!(ep_seed, ep_par, "epoch: seed baseline ≢ current (refactor changed results)");

    // Optimizers: parallel chunked updates ≡ serial bitwise.
    let mut vrng = StdRng::seed_from_u64(11);
    let p0: Vec<f32> = (0..10_000).map(|_| vrng.random::<f64>() as f32 - 0.5).collect();
    let gr: Vec<f32> = (0..10_000).map(|_| vrng.random::<f64>() as f32 - 0.5).collect();
    let step_sgd = |threads: usize| {
        with_threads(threads, || {
            let mut p = p0.clone();
            let mut opt = Sgd { lr: 0.05, weight_decay: 0.01 };
            opt.step(vec![&mut p], vec![&gr]);
            opt.step(vec![&mut p], vec![&gr]);
            p
        })
    };
    assert_eq!(step_sgd(1), step_sgd(t), "sgd: serial ≢ parallel");
    let step_adam = |threads: usize| {
        with_threads(threads, || {
            let mut p = p0.clone();
            let mut opt = Adam::new(0.01);
            opt.step(vec![&mut p], vec![&gr]);
            opt.step(vec![&mut p], vec![&gr]);
            p
        })
    };
    assert_eq!(step_adam(1), step_adam(t), "adam: serial ≢ parallel");

    println!("bench_par --smoke: all serial≡parallel and seed≡current bitwise checks passed");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let threads = thread_count();
    println!("bench_par: {threads} thread(s) (set GNN_DM_THREADS to override)\n");

    // GEMM micro: 512^3 spans eight 64-row chunks (amortizes dispatch) and
    // is large enough that cache behaviour, not the timer, dominates. The
    // frozen seed kernel runs on the same inputs.
    let mut rng = StdRng::seed_from_u64(13);
    let a = Matrix::from_fn(512, 512, |_, _| rng.random::<f64>() as f32 - 0.5);
    let b = Matrix::from_fn(512, 512, |_, _| rng.random::<f64>() as f32 - 0.5);
    let gemm = run(
        "gemm",
        threads,
        7,
        || matmul_tiled(&a, &b),
        Some(&|| {
            seed_matmul_tiled(&a, &b);
        }),
    );

    // The weight-gradient orientation at the two training shapes: rows of
    // the narrow one outnumber its 64 output rows 234:1 (a fixed 96-row
    // output panel would make it one work item), the wide one is the
    // first-layer `dW` of a 602-wide model.
    let tn_rows: Vec<Row> = [("gemm_tn_deep", 15_000, 64, 32), ("gemm_tn_wide", 4096, 602, 128)]
        .into_iter()
        .map(|(name, k, m, n)| {
            let (x, dy) = (rand_matrix(&mut rng, k, m), rand_matrix(&mut rng, k, n));
            run(name, threads, 9, || matmul_tn(&x, &dy), None)
        })
        .collect();

    // Block aggregation, forward + backward, on the input-most block of one
    // batch of each training workload: GraphSAGE at 32 wide over a
    // three-hop block, GCN at 602 wide over a two-hop one.
    let (deep_block, deep_h) =
        training_block(DatasetId::OgbProducts, 20_000, 30.0, 32, &[15, 10, 5], 256);
    let (wide_block, wide_h) = training_block(DatasetId::Reddit, 5_000, 15.0, 602, &[25, 10], 512);
    let agg_rows = [
        run("agg_deep", threads, 9, || agg_round_trip(&deep_block, &deep_h, true), None),
        run("agg_wide", threads, 9, || agg_round_trip(&wide_block, &wide_h, false), None),
    ];

    // Sampler throughput: one large fanout batch on a load-scale graph.
    // Seed ≡ current bitwise — asserted, not assumed. The builder is one
    // serial pass (batches fan out across an epoch, not within a batch), so
    // `serial_s` ≈ `par_s` here by construction; the row stays for its
    // `speedup_vs_seed` column, the before/after of the three-phase builder
    // the frozen seed copy still is.
    let spec = DatasetSpec::get(DatasetId::Reddit);
    let g = spec.generate_scaled(SCALE_LOAD, 42);
    let sampler = FanoutSampler::new(vec![25, 10]);
    let seeds: Vec<u32> = {
        let mut srng = StdRng::seed_from_u64(7);
        (0..2048).map(|_| srng.random_range(0..g.num_vertices() as u32)).collect()
    };
    assert_eq!(
        seed_build_minibatch_par(&g.inn, &seeds, &sampler, 99),
        build_minibatch_seeded(&g.inn, &seeds, &sampler, 99),
        "sampler: seed baseline ≢ current"
    );
    let sample = run(
        "sampler",
        threads,
        5,
        || build_minibatch_seeded(&g.inn, &seeds, &sampler, 99),
        Some(&|| {
            seed_build_minibatch_par(&g.inn, &seeds, &sampler, 99);
        }),
    );

    // Epoch: every mini-batch of one epoch over the train set (the
    // data-management half of an epoch; model compute excluded). Seed ≡
    // current bitwise here too.
    let train = g.train_vertices();
    let selection = BatchSelection::Random;
    let schedule = BatchSizeSchedule::Fixed(512);
    let plan = EpochPlan {
        in_csr: &g.inn,
        train: &train,
        selection: &selection,
        schedule: &schedule,
        sampler: &sampler,
        seed: 3,
    };
    assert_eq!(
        seed_epoch_batches(&g.inn, &train, 512, &sampler, 3, 0),
        plan.batches(0),
        "epoch: seed baseline ≢ current"
    );
    let epoch = run(
        "epoch",
        threads,
        3,
        || plan.batches(0),
        Some(&|| {
            seed_epoch_batches(&g.inn, &train, 512, &sampler, 3, 0);
        }),
    );

    // Figure-8-class cluster epoch: Metis-V partitioning, 4 workers, full
    // epoch of per-worker sampling + load accounting. No frozen baseline —
    // the sim's serial sampler path is already covered by the golden traces.
    let part = partition_graph(&g, PartitionMethod::MetisV, 4, 7);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 512, seed: 3 };
    let cluster = run("cluster", threads, 3, || sim.simulate_epoch(&sampler, 0), None);

    let rows: Vec<Row> =
        [gemm].into_iter().chain(tn_rows).chain(agg_rows).chain([sample, epoch, cluster]).collect();
    let all_identical = rows.iter().all(|r| r.identical);
    let fields: Vec<String> = rows.iter().map(Row::json).collect();
    // Record the harness coordinates of the two workloads that correspond
    // to a SystemConfig, so each history line names the grid cell it
    // timed. Resolving through the registry (instead of pasting strings)
    // keeps the recorded ids canonical and parseable.
    let reg = Registry::builtin();
    let epoch_cfg = SystemConfig::from_spec(
        &reg,
        &GridSpec { batch_prep: "fanout(25,10)+fixed(512)".to_string(), ..GridSpec::default() },
    )
    .expect("epoch workload spec resolves");
    let cluster_cfg = SystemConfig::from_spec(
        &reg,
        &GridSpec {
            partitioner: "metis-v".to_string(),
            batch_prep: "fanout(25,10)+fixed(512)".to_string(),
            parallel: "cluster(4)".to_string(),
            ..GridSpec::default()
        },
    )
    .expect("cluster workload spec resolves");
    let harness_json = format!(
        "\"harness\":{{\"epoch\":{},\"cluster\":{}}}",
        config_json(&epoch_cfg),
        config_json(&cluster_cfg)
    );
    // SLO coordinates of the cluster cell under the chaos grid's golden
    // stress (uniform(13,0.25) faults, hedged at 1.5×): nearest-rank p999
    // over 16 per-epoch makespans plus goodput against the healthy epoch,
    // so tail-latency regressions chart in the history alongside
    // throughput. Pure model evaluation — no timing, deterministic.
    let chaos_spec = GridSpec {
        partitioner: "metis-v".to_string(),
        batch_prep: "fanout(25,10)+fixed(512)".to_string(),
        parallel: "cluster(4)".to_string(),
        faults: "uniform(13,0.25)".to_string(),
        resilience: "hedge(1.5)".to_string(),
        ..GridSpec::default()
    };
    let chaos_cfg =
        SystemConfig::from_spec(&reg, &chaos_spec).expect("chaos workload spec resolves");
    let exp = ClusterExperiment::paper(&g);
    let chaos_run = ClusterRun { report: sim.simulate_epoch(&sampler, 0), part, batch_size: 512 };
    let slo_samples: Vec<f64> = (0..16)
        .map(|e| exp.timeline_resilient_at(&chaos_run, &chaos_cfg, e).makespan())
        .collect();
    let tail = TailStats::from_samples(&slo_samples);
    let mean_s = slo_samples.iter().sum::<f64>() / slo_samples.len() as f64;
    let goodput = (exp.epoch_time(&chaos_run) / mean_s).clamp(0.0, 1.0);
    let slo_json = format!(
        "\"slo\":{{\"cell\":\"{}\",\"p999_s\":{},\"goodput\":{}}}",
        chaos_spec.id(),
        tail.p999,
        goodput
    );
    let body = format!("\"threads\":{threads},{},{harness_json},{slo_json}", fields.join(","));
    std::fs::write("BENCH_par.json", format!("{{{body}}}\n")).expect("write BENCH_par.json");
    println!("\nwrote BENCH_par.json");

    // One append-only history line per run, so regressions are visible as
    // a time series rather than overwritten.
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!("{{\"unix_s\":{unix_s},{body}}}\n");
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .and_then(|mut fh| fh.write_all(line.as_bytes()))
        .expect("append BENCH_history.jsonl");
    println!("appended BENCH_history.jsonl");

    assert!(all_identical, "parallel output diverged from serial — determinism contract broken");
}
