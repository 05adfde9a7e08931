//! Robustness and cross-axis experiments: injected faults, the composed
//! grid, the registry smoke golden, and the chaos grid.

use std::fs;

use gnn_dm_cluster::ledger::{
    hedge_bytes_from_spans, redispatch_bytes_from_spans, stale_sync_bytes_from_spans,
    wasted_bytes_from_spans,
};
use gnn_dm_core::results::{f, Table};
use gnn_dm_faults::{ResilienceReport, TailStats};
use gnn_dm_graph::datasets::DatasetId;
use gnn_dm_harness::{
    run_composed, run_config, Axis, ClusterExperiment, Grid, GridSpec, Registry, SIM_EPOCH,
};

use super::{cluster4, config, for_each_cluster_run, sweep, with_prep, VALID};
use crate::{one_graph, one_graph_slim, SCALE_LOAD, SCALE_TRAIN, TRAIN_FEAT_DIM};

/// Epoch time under injected faults, across partitionings.
///
/// Sweeps the one-knob uniform stress rate over the Figure-8 setting
/// (every partitioning method, four workers): stragglers stretch the
/// slowest worker, flaky NICs retransmit exchanges after timeout +
/// backoff, and crashed workers restore the last every-8-batches
/// checkpoint and replay the lost batches. Epoch time is still just the
/// makespan of the span timeline, so the slowdown decomposes exactly into
/// retry bytes, backoff waits and replayed work
/// ([`gnn_dm_faults::ResilienceReport`]).
///
/// Expected shape: at rate 0 every method matches Figure 8 bitwise; as the
/// rate rises, methods with higher communication volume (Hash, Stream-B)
/// degrade fastest because retransmissions re-price their dominant cost.
///
/// Also exports one faulted timeline as `results/trace_faults.json`
/// (Chrome trace, canonical bytes — pinned by `scripts/check.sh`).
pub fn ext_faults_epoch_time() {
    // The fault seed is part of the experiment id — chosen so the preset
    // exercises all three fault classes at the top stress rate. The draws
    // are pure functions of `(seed, epoch, worker)`, so every method faces
    // the *same* degradation schedule at a given rate. The fault axis
    // varies over a reused cluster run, so it is resolved once here
    // instead of multiplying the partition/simulate work by 5.
    let rates = [0.0, 0.05, 0.1, 0.25, 0.5];
    let fault_cfgs =
        sweep(cluster4(), Axis::Faults, rates.map(|rate| format!("uniform(13,{rate})")));
    let mut table = Table::new(&[
        "dataset",
        "method",
        "fault_rate",
        "healthy_s",
        "faulted_s",
        "slowdown",
        "retry_mb",
        "replayed",
    ]);
    let mut export: Option<String> = None;
    for_each_cluster_run(|name, exp, cfg, run| {
        // `cfg` sweeps the partitioner only: its fault axis is neutral.
        let healthy = exp.timeline_resilient_at(run, cfg, SIM_EPOCH);
        for (rate, fault_cfg) in rates.iter().zip(&fault_cfgs) {
            let faulted = exp.timeline_resilient_at(run, fault_cfg, SIM_EPOCH);
            let res = ResilienceReport::compare(&healthy, &faulted);
            table.row(&[
                name.into(),
                cfg.partitioner.name().into(),
                format!("{rate:.2}"),
                f(res.healthy_s),
                f(res.faulted_s),
                format!("{:.2}x", res.slowdown()),
                format!("{:.2}", res.retry_bytes as f64 / 1e6),
                res.replayed_batches.to_string(),
            ]);
            // Export the most stressed Metis timeline as the canonical
            // faulted trace (one representative, not one per row).
            if export.is_none() && cfg.partitioner.name() == "Metis-V" && *rate >= 0.25 {
                export = Some(faulted.to_chrome_trace());
            }
        }
    });
    table.print("Extension: modelled epoch time under injected faults");
    if let Some(json) = export {
        fs::create_dir_all("results").expect("create results dir");
        fs::write("results/trace_faults.json", json).expect("write trace_faults.json");
        println!("Faulted timeline exported to results/trace_faults.json");
    }
}

/// A cross-axis grid no per-axis experiment could express: **partitioner ×
/// cache policy × fault plan**, composed on one engine.
///
/// The partitioner axis feeds batch *selection* (each batch drawn from one
/// partition block, Cluster-GCN style), the cache axis filters the PCIe
/// traffic those partition-skewed batches generate, and the fault axis
/// perturbs the resulting epoch — three data-management choices the paper
/// evaluates in separate sections, swept jointly here as one declarative
/// grid. Every cell reports cost and accuracy together (§14).
pub fn ext_grid_composition() {
    let g = one_graph_slim(DatasetId::OgbArxiv, SCALE_TRAIN, TRAIN_FEAT_DIM, 42);
    let axis = |specs: &[&str]| specs.iter().map(|s| s.to_string()).collect();
    let base =
        GridSpec { transfer: "zero-copy".to_string(), ..with_prep("fanout(10,5)+fixed(128)") };
    let configs = Grid::over(base)
        .vary(Axis::Partitioner, axis(&["hash", "metis-v", "stream-v"]))
        .and_then(|g| g.vary(Axis::Cache, axis(&["none", "degree(0.3)"])))
        .and_then(|g| g.vary(Axis::Faults, axis(&["none", "uniform(13,0.25)"])))
        .and_then(|g| g.configs(&Registry::builtin()))
        .expect(VALID);
    let mut table = Table::new(&[
        "partitioner",
        "cache",
        "faults",
        "epoch_s",
        "MiB_moved",
        "hit_rate",
        "best_acc",
        "test_acc",
    ]);
    for cfg in &configs {
        // 16 partition blocks, 8 training epochs.
        let r = run_composed(&g, cfg, 16, 8);
        table.row(&[
            cfg.partitioner.spec(),
            cfg.cache.spec(),
            cfg.faults.spec(),
            format!("{:.4}", r.epoch_s),
            format!("{:.2}", r.bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", r.cache_hit_rate),
            f(r.best_acc),
            f(r.test_acc),
        ]);
    }
    table.print(
        "Extension: partitioner \u{d7} cache \u{d7} faults composition grid \
         (Arxiv-class, 16 blocks, 8 epochs)",
    );
}

/// Grid smoke — one executed config per registered axis value.
///
/// Sweeps each axis of the builtin registry in turn (the other six axes
/// held at the default [`GridSpec`]), runs every resulting `SystemConfig`
/// end to end through [`run_config`], and prints cost **and** accuracy for
/// each — the §14 reporting rule, exercised over the whole registry. The
/// output is `results/grid_smoke.txt`, one file of the `results/` golden
/// `scripts/check.sh` regenerates and diffs whole, so any drift in a
/// registered axis value (or in the registry's pinned order) fails it.
pub fn grid_smoke() {
    let g = one_graph_slim(DatasetId::OgbArxiv, SCALE_TRAIN, TRAIN_FEAT_DIM, 42);
    let mut table = Table::new(&[
        "axis",
        "spec",
        "epoch_s",
        "MiB_moved",
        "hit_rate",
        "batches",
        "best_acc",
        "test_acc",
    ]);
    let axes = [
        (Axis::Partitioner, "partitioner"),
        (Axis::BatchPrep, "batch-prep"),
        (Axis::Transfer, "transfer"),
        (Axis::Cache, "cache"),
        (Axis::Parallel, "parallel"),
        (Axis::Faults, "faults"),
        (Axis::Resilience, "resilience"),
    ];
    for (axis, name) in axes {
        let specs = Registry::builtin().specs(axis);
        // The partitioner only acts on the distributed path, so its sweep
        // runs on the cluster; the fault sweep uses small batches so the
        // seeded plan has enough per-batch draws to actually fire; the
        // resilience sweep runs on a faulted cluster so the policy has
        // something to react to; every other axis sweeps the single node
        // at the default spec.
        let base = match axis {
            Axis::Partitioner => cluster4(),
            Axis::Faults => with_prep("fanout(10,5)+fixed(128)"),
            Axis::Resilience => GridSpec { faults: "uniform(13,0.25)".to_string(), ..cluster4() },
            _ => GridSpec::default(),
        };
        for (spec, cfg) in specs.iter().zip(sweep(base, axis, &specs)) {
            // 4 training epochs per config.
            let r = run_config(&g, &cfg, 4);
            table.row(&[
                name.into(),
                spec.clone(),
                format!("{:.4}", r.epoch_s),
                format!("{:.2}", r.bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.3}", r.cache_hit_rate),
                r.num_batches.to_string(),
                f(r.best_acc),
                f(r.test_acc),
            ]);
        }
    }
    table.print("Grid smoke: every registered axis value, executed (Arxiv-class, 4 epochs)");
}

/// Epochs sampled per grid cell (the tail statistics' sample count).
const EPOCHS: usize = 32;
/// Fault seeds swept (two independent degradation schedules).
const FAULT_SEEDS: [u64; 2] = [13, 29];
/// Uniform stress rates swept per seed.
const RATES: [f64; 4] = [0.05, 0.1, 0.25, 0.5];
/// Resilience policies swept (canonical registry specs).
/// The 50 ms stage deadline sits between the healthy per-worker stage
/// (~10 ms at this scale) and badly faulted ones (hundreds of ms), so
/// both deadline actions actually fire under stress without ever killing
/// a healthy chain.
const POLICIES: [&str; 8] = [
    "none",
    "hedge(1.25)",
    "hedge(1.5)",
    "deadline(0.05,skip)",
    "deadline(0.05,ckpt)",
    "redispatch(0.5)",
    "stale(4)",
    "hedge(1.5)+redispatch(0.5)+stale(4)",
];
/// The golden cell: its epoch-`GOLDEN_EPOCH` timeline is exported as
/// `results/trace_chaos.json` and its ledgers are cross-checked against
/// the policy-outcome counters at every epoch.
const GOLDEN_SEED: u64 = 13;
const GOLDEN_RATE: f64 = 0.25;
const GOLDEN_POLICY: &str = "hedge(1.5)";
const GOLDEN_EPOCH: usize = 3;

/// One swept cell's summary, kept for the ranking pass.
struct Cell {
    id: String,
    tail: TailStats,
    slowdown: f64,
    goodput: f64,
    wasted_mb: f64,
    hedged_mb: f64,
    moved_mb: f64,
}

/// Chaos grid: resilience policy × fault plan, ranked by tail.
///
/// Sweeps the full cross of resilience policies (hedged transfers, stage
/// deadlines, straggler re-dispatch, bounded-staleness sync, and their
/// composition) against seeded uniform fault plans over one reused
/// cluster run, many epochs per cell. Every epoch timeline is a pure
/// function of `(seed, epoch, policy)`, so the whole grid — including the
/// ranking — is reproducible byte-for-byte across runs and thread counts.
///
/// Per cell the run reports the nearest-rank tail of the per-epoch
/// makespans (`p50`/`p99`/`p999`), the mean slowdown over the healthy
/// epoch, goodput (healthy over resilient wall-clock, clamped to one),
/// and the exact byte ledgers of the policy's interventions (hedge
/// winners, cancelled losers, re-dispatched inputs). A final ranking
/// table orders every cell by `p999` — the SLO view: which policy buys
/// the shortest tail at which accounting cost.
///
/// Built-in gates (the run aborts if the model misbehaves):
/// - pure hedging never slows any epoch (min over finishers);
/// - hedging strictly improves `p999` over `none` at every fault rate;
/// - the span-reduction ledgers equal the policy-outcome counters,
///   epoch by epoch, on the exported golden config.
///
/// Also exports one hedged timeline as `results/trace_chaos.json`
/// (Chrome trace, canonical bytes — a `results/` golden like the tables).
pub fn chaos_grid() {
    let g = one_graph(DatasetId::OgbArxiv, SCALE_LOAD, 42);
    let exp = ClusterExperiment::paper(&g);
    let cfg0 = config(cluster4());
    let run = exp.run(&cfg0);
    let workers = cfg0.parallel.workers();
    let healthy_s = exp.epoch_time(&run);

    let mut table = Table::new(&[
        "seed", "rate", "policy", "p50_s", "p99_s", "p999_s", "slowdown", "goodput", "wasted_mb",
        "hedged_mb", "moved_mb",
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    let mut export: Option<String> = None;
    let mut grid_hedged_bytes = 0u64;

    for seed in FAULT_SEEDS {
        for rate in RATES {
            // The `none` policy is swept first within each (seed, rate)
            // cell group, so its per-epoch makespans are the baseline the
            // hedging gates compare against.
            let mut none_samples: Vec<f64> = Vec::new();
            let mut none_p999 = 0.0f64;
            for policy in POLICIES {
                let cfg = config(GridSpec {
                    faults: format!("uniform({seed},{rate})"),
                    resilience: policy.to_string(),
                    ..cluster4()
                });
                let golden_cell =
                    seed == GOLDEN_SEED && rate == GOLDEN_RATE && policy == GOLDEN_POLICY;

                let mut samples = Vec::with_capacity(EPOCHS);
                let (mut wasted, mut hedged, mut moved) = (0u64, 0u64, 0u64);
                for e in 0..EPOCHS {
                    let tl = exp.timeline_resilient_at(&run, &cfg, e);
                    let m = tl.makespan();
                    let e_wasted: u64 = wasted_bytes_from_spans(&tl, workers).iter().sum();
                    let e_hedged: u64 = hedge_bytes_from_spans(&tl, workers).iter().sum();
                    let e_moved: u64 = redispatch_bytes_from_spans(&tl, workers).iter().sum();
                    let e_stale: u64 = stale_sync_bytes_from_spans(&tl);
                    wasted += e_wasted;
                    hedged += e_hedged;
                    moved += e_moved;

                    if policy == "none" {
                        none_samples.push(m);
                    } else if policy.starts_with("hedge(") && !policy.contains('+') {
                        // Gate 1: a pure hedge takes the min of the
                        // original and the duplicate finisher, so it can
                        // never extend any epoch.
                        assert!(
                            m <= none_samples[e],
                            "hedge slowed epoch {e} ({m} > {})",
                            none_samples[e]
                        );
                    }
                    if golden_cell {
                        // Gate 3: the span-reduction ledgers ARE the
                        // policy-outcome counters — conservation checked
                        // epoch by epoch on the golden cell.
                        let out = exp.sim(&run).resilience_with_policy(
                            &run.report,
                            &exp.time_model(),
                            &cfg.faults.plan(),
                            e,
                            &cfg.resilience.policy(),
                        );
                        assert_eq!(out.wasted_bytes, e_wasted, "wasted ledger drift at epoch {e}");
                        assert_eq!(out.hedged_bytes, e_hedged, "hedge ledger drift at epoch {e}");
                        assert_eq!(
                            out.redispatched_bytes, e_moved,
                            "redispatch ledger drift at epoch {e}"
                        );
                        assert_eq!(
                            out.stale_sync_bytes, e_stale,
                            "stale-sync ledger drift at epoch {e}"
                        );
                        if e == GOLDEN_EPOCH {
                            export = Some(tl.to_chrome_trace());
                        }
                    }
                    samples.push(m);
                }

                let tail = TailStats::from_samples(&samples);
                if policy == "none" {
                    none_p999 = tail.p999;
                } else if policy == "hedge(1.5)" {
                    // Gate 2: hedging must strictly shorten the tail at
                    // every swept fault rate.
                    assert!(
                        tail.p999 < none_p999,
                        "hedge(1.5) did not improve p999 at seed {seed} rate {rate} \
                         ({} >= {none_p999})",
                        tail.p999
                    );
                    grid_hedged_bytes += hedged;
                }
                let mean_s = samples.iter().sum::<f64>() / samples.len() as f64;
                let slowdown = mean_s / healthy_s;
                let goodput = (healthy_s / mean_s).clamp(0.0, 1.0);
                table.row(&[
                    seed.to_string(),
                    format!("{rate:.2}"),
                    policy.into(),
                    f(tail.p50),
                    f(tail.p99),
                    f(tail.p999),
                    format!("{slowdown:.2}x"),
                    format!("{goodput:.3}"),
                    format!("{:.2}", wasted as f64 / 1e6),
                    format!("{:.2}", hedged as f64 / 1e6),
                    format!("{:.2}", moved as f64 / 1e6),
                ]);
                cells.push(Cell {
                    id: format!("uniform({seed},{rate})/{policy}"),
                    tail,
                    slowdown,
                    goodput,
                    wasted_mb: wasted as f64 / 1e6,
                    hedged_mb: hedged as f64 / 1e6,
                    moved_mb: moved as f64 / 1e6,
                });
            }
        }
    }
    assert!(grid_hedged_bytes > 0, "no hedge ever fired across the grid");
    assert_eq!(cells.len(), 64, "the chaos grid must sweep 64 cells");

    table.print("Extension: chaos grid — resilience policy × fault plan");

    // The SLO ranking: shortest p999 first, id as the deterministic
    // tie-break (total order even over equal floats).
    cells.sort_by(|a, b| a.tail.p999.total_cmp(&b.tail.p999).then_with(|| a.id.cmp(&b.id)));
    let mut ranking = Table::new(&[
        "rank", "cell", "p999_s", "slowdown", "goodput", "wasted_mb", "hedged_mb", "moved_mb",
    ]);
    for (i, c) in cells.iter().enumerate() {
        ranking.row(&[
            (i + 1).to_string(),
            c.id.clone(),
            f(c.tail.p999),
            format!("{:.2}x", c.slowdown),
            format!("{:.3}", c.goodput),
            format!("{:.2}", c.wasted_mb),
            format!("{:.2}", c.hedged_mb),
            format!("{:.2}", c.moved_mb),
        ]);
    }
    ranking.print("Chaos ranking: cells by p999 (shortest tail first)");

    if let Some(json) = export {
        fs::create_dir_all("results").expect("create results dir");
        fs::write("results/trace_chaos.json", json).expect("write trace_chaos.json");
        println!("Hedged timeline exported to results/trace_chaos.json");
    }
}
