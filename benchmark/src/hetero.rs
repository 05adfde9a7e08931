//! `hetero_transfer`: the single-node CPU + simulated-GPU path of §7 with no
//! neural network at all. Every iteration prices one epoch on 24 trainers:
//! parallel batch construction, cache filtering, block activity, transfer
//! pricing and pipeline replay. `nn` and `tensor` do nothing here, so a GEMM
//! change must not move this workload; a sampler or cache change must.

use crate::spans::Recorder;
use crate::workload::{IterOut, Layer, Params, Workload};
use gnn_dm_core::trainer::{EpochTimings, HeteroTrainer};
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::{Graph, SplitMask};
use gnn_dm_harness::{Axis, Grid, GridSpec, Registry};
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::{BatchSizeSchedule, FanoutSampler};
use gnn_dm_trace::TailStats;

const VERTICES: usize = 40_000;
const PREPS: [&str; 2] = ["fanout(10,5)+fixed(256)", "fanout(25,10)+fixed(512)"];
const TRANSFERS: [&str; 4] = [
    "extract-load",
    "zero-copy",
    "zero-copy+pipe(full)",
    "hybrid(0.5)",
];
const CACHES: [&str; 3] = ["none", "degree(0.3)", "presample(0.3,3)"];
/// Positions of the two transfers the pipeline check compares.
const ZERO_COPY: usize = 1;
const ZERO_COPY_PIPED: usize = 2;

/// LiveJournal-shaped graph with a sparse training set (25 % train), so the
/// access skew the pre-sampling cache profiles is there.
pub fn graph(p: &Params, rec: &mut Recorder) -> Graph {
    rec.span("graph.generate", |_| {
        let n = p.scaled(VERTICES);
        let mut g = DatasetSpec::get(DatasetId::LiveJournal).generate_scaled(n, p.seed);
        g.split = SplitMask::random(n, 0.25, 0.10, 0.65, 7);
        g
    })
}

#[derive(Default)]
struct Counters {
    batches_priced: u64,
    pcie_bytes: u64,
    spans: u64,
    hit_rate_sum: f64,
    cached_epochs: u64,
    sampled_batches: u64,
    edges_drawn: u64,
    input_vertices: u64,
    seeds: u64,
    export_bytes: u64,
    exported_spans: u64,
}

pub struct Hetero<'g> {
    /// prep-major, then transfer, then cache: `(prep * 4 + transfer) * 3 + cache`.
    trainers: Vec<HeteroTrainer<'g>>,
    /// Timings of the plain iteration just run, and of iteration 0.
    last: Vec<EpochTimings>,
    first: Vec<EpochTimings>,
    configs: usize,
    counters: Counters,
}

pub fn build<'g>(graph: &'g Graph, p: &Params, rec: &mut Recorder) -> Hetero<'g> {
    let registry = rec.span("harness.registry", |_| Registry::builtin());
    let axis = |specs: &[&str]| specs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let configs = rec.span("harness.resolve", |_| {
        Grid::over(GridSpec::default())
            .vary(Axis::BatchPrep, axis(&PREPS))
            .and_then(|g| g.vary(Axis::Transfer, axis(&TRANSFERS)))
            .and_then(|g| g.vary(Axis::Cache, axis(&CACHES)))
            .and_then(|g| g.configs(&registry))
            .expect("the benchmark's specs are builtin registry entries")
    });
    let trainers = configs
        .iter()
        .map(|c| {
            rec.span("device.trainer_build", |_| {
                let mut cfg = c.hetero_config(graph);
                cfg.seed = p.seed;
                c.hetero_trainer_with(graph, cfg)
            })
        })
        .collect();
    Hetero {
        trainers,
        last: Vec::new(),
        first: Vec::new(),
        configs: configs.len(),
        counters: Counters::default(),
    }
}

fn out_of(timings: &[EpochTimings]) -> IterOut {
    IterOut {
        modelled_s: timings.iter().map(|t| t.makespan).sum(),
        items: timings.iter().map(|t| t.num_batches as u64).sum(),
        bits: timings
            .iter()
            .flat_map(|t| {
                [
                    t.makespan.to_bits(),
                    t.pcie_bytes,
                    t.cache_hit_rate.to_bits(),
                ]
            })
            .collect(),
    }
}

impl Workload for Hetero<'_> {
    fn iter_plain(&mut self, e: usize) -> IterOut {
        self.last = self
            .trainers
            .iter_mut()
            .map(|t| t.run_epoch_model(e))
            .collect();
        if e == 0 {
            self.first = self.last.clone();
        }
        out_of(&self.last)
    }

    fn iter_traced(&mut self, e: usize, rec: &mut Recorder, replay: bool) -> IterOut {
        let c = &mut self.counters;
        let mut timings = Vec::with_capacity(self.trainers.len());
        for t in self.trainers.iter_mut() {
            let (tim, timeline) = rec.span("device.run_epoch", |_| t.run_epoch_traced(e));
            c.batches_priced += tim.num_batches as u64;
            c.pcie_bytes += tim.pcie_bytes;
            c.spans += timeline.len() as u64;
            if t.cfg.cache_policy.is_some() {
                c.hit_rate_sum += tim.cache_hit_rate;
                c.cached_epochs += 1;
            }
            if replay {
                // The batch construction `run_epoch_model` starts with, on
                // its own: what is left of `device.run_epoch` is pricing.
                let train = t.graph.train_vertices();
                let sampler = FanoutSampler::new(t.cfg.fanouts.clone());
                let schedule = BatchSizeSchedule::Fixed(t.cfg.batch_size);
                let plan = EpochPlan {
                    in_csr: &t.graph.inn,
                    train: &train,
                    selection: &t.cfg.selection,
                    schedule: &schedule,
                    sampler: &sampler,
                    seed: t.cfg.seed,
                };
                let batches = rec.replay("sampling.batches", |_| plan.batches(e));
                c.sampled_batches += batches.len() as u64;
                for mb in &batches {
                    c.edges_drawn += mb.involved_edges() as u64;
                    c.input_vertices += mb.input_ids().len() as u64;
                    c.seeds += mb.seeds.len() as u64;
                }
                if timings.is_empty() {
                    let json = rec.replay("trace.export", |_| timeline.to_chrome_trace());
                    c.export_bytes += json.len() as u64;
                    c.exported_spans += timeline.len() as u64;
                }
            }
            timings.push(tim);
        }
        if replay {
            let makespans: Vec<f64> = timings.iter().map(|t| t.makespan).collect();
            rec.replay("trace.tailstats", |_| {
                std::hint::black_box(TailStats::from_samples(&makespans));
            });
        }
        out_of(&timings)
    }

    /// Per trainer: the hit rate is a share, and the fully pipelined
    /// zero-copy epoch is no slower than the unpipelined one on the same
    /// batches and cache.
    fn check_iter(&mut self, _e: usize) -> (u64, u64) {
        let (preps, transfers, caches) = (PREPS.len(), TRANSFERS.len(), CACHES.len());
        let mut passed = 0;
        for (i, t) in self.last.iter().enumerate() {
            let mut ok = (0.0..=1.0).contains(&t.cache_hit_rate) && t.makespan.is_finite();
            if (i / caches) % transfers == ZERO_COPY_PIPED {
                let unpiped = i - (ZERO_COPY_PIPED - ZERO_COPY) * caches;
                ok &= t.makespan <= self.last[unpiped].makespan;
            }
            passed += u64::from(ok);
        }
        (passed, (preps * transfers * caches) as u64)
    }

    /// `quality` is the share of (iteration, trainer) checks passed. The
    /// check pass: the traced entry point answers what iteration 0 did.
    fn finish(&mut self, checks_passed: f64) -> (f64, Vec<String>) {
        let mut failures = Vec::new();
        for (i, (t, first)) in self.trainers.iter_mut().zip(&self.first).enumerate() {
            if t.run_epoch_traced(0).0 != *first {
                failures.push(format!(
                    "trainer {i}: run_epoch_traced(0) differs from run_epoch_model(0)"
                ));
            }
        }
        (checks_passed, failures)
    }

    fn layer_counters(&self, layer: &mut Layer) {
        let c = &self.counters;
        layer.insert("harness.configs", self.configs as f64);
        layer.insert("device.batches_priced", c.batches_priced as f64);
        layer.insert("device.pcie_bytes", c.pcie_bytes as f64);
        layer.insert("device.spans", c.spans as f64);
        let hit_rate = if c.cached_epochs == 0 {
            0.0
        } else {
            c.hit_rate_sum / c.cached_epochs as f64
        };
        layer.insert("device.cache_hit_rate", hit_rate);
        layer.insert("sampling.batches", c.sampled_batches as f64);
        layer.insert("sampling.edges_drawn", c.edges_drawn as f64);
        layer.insert("sampling.input_vertices", c.input_vertices as f64);
        layer.insert("sampling.seeds", c.seeds as f64);
        layer.insert("trace.export_bytes", c.export_bytes as f64);
        layer.insert("trace.spans", c.exported_spans as f64);
    }
}
