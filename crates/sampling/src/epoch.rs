//! Epoch iteration and vertex-access frequency tracking.
//!
//! [`EpochPlan`] ties batch selection, the batch-size schedule and a
//! neighbor sampler into one iterator of [`MiniBatch`]es. [`AccessTracker`]
//! records how often each vertex's features are touched across an epoch —
//! the statistic behind PaGraph's "4× the total vertex count is transferred
//! per epoch" observation (§7.2) and the input to the pre-sampling GPU cache
//! policy (§7.3.3).

use crate::block::MiniBatch;
use crate::sampler::{
    build_minibatch_seeded, build_minibatch_seeded_with, NeighborSampler, SampleScratch,
};
use crate::schedule::BatchSizeSchedule;
use crate::selection::BatchSelection;
use gnn_dm_graph::csr::{Csr, VId};

/// Counts feature accesses per vertex.
#[derive(Debug, Clone)]
pub struct AccessTracker {
    counts: Vec<u64>,
}

impl AccessTracker {
    /// A tracker over `n` vertices with zero counts.
    pub fn new(n: usize) -> Self {
        AccessTracker { counts: vec![0; n] }
    }

    /// Records that every input vertex of `mb` had its features loaded once.
    pub fn record_batch(&mut self, mb: &MiniBatch) {
        for &v in mb.input_ids() {
            self.counts[v as usize] += 1;
        }
    }

    /// Records a single vertex touch.
    pub fn record(&mut self, v: VId) {
        self.counts[v as usize] += 1;
    }

    /// Access count of `v`.
    pub fn count(&self, v: VId) -> u64 {
        self.counts[v as usize]
    }

    /// All counts, indexed by vertex id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total accesses across all vertices.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Vertices sorted by descending access count (ties by ascending id, so
    /// the ranking is deterministic). The pre-sampling cache policy caches a
    /// prefix of this ranking.
    pub fn ranking(&self) -> Vec<VId> {
        let mut order: Vec<VId> = (0..self.counts.len() as u32).collect();
        order.sort_by(|&a, &b| {
            self.counts[b as usize].cmp(&self.counts[a as usize]).then(a.cmp(&b))
        });
        order
    }
}

/// Per-epoch batch statistics (Table 6's columns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochStats {
    /// Number of batches run.
    pub num_batches: usize,
    /// Sum of involved vertices over batches.
    pub involved_vertices: usize,
    /// Sum of involved (message) edges over batches.
    pub involved_edges: usize,
}

/// How many mini-batches [`EpochPlan::for_each_batch`] lets idle workers
/// build beyond the one being consumed. Not a tuning knob: windows 1/2/4/8
/// measure the same on `mb_deep` (`epoch_rel` 31.3/31.8/31.4/31.9, run-to-run
/// ±0.6) because a batch builds several times faster than it trains, so one
/// ready batch already hides the sampler. 4 rides out a burst of slow
/// batches and still holds four batches of blocks, not the whole epoch.
const LOOKAHEAD_BATCHES: usize = 4;

/// A deterministic plan for producing one epoch's mini-batches.
pub struct EpochPlan<'a> {
    /// Reverse (in-neighbor) adjacency to sample from.
    pub in_csr: &'a Csr,
    /// The training vertices.
    pub train: &'a [VId],
    /// Batch selection policy.
    pub selection: &'a BatchSelection,
    /// Batch size schedule.
    pub schedule: &'a BatchSizeSchedule,
    /// Neighbor sampler.
    pub sampler: &'a (dyn NeighborSampler + Sync),
    /// Base RNG seed; combined with the epoch number.
    pub seed: u64,
}

impl<'a> EpochPlan<'a> {
    /// The batches of `epoch`, in order, as `(sampling seed, seed vertices)`:
    /// each batch samples under an independent seed split from the epoch
    /// seed, so it depends only on `(plan, epoch, batch index)` — never on
    /// which thread builds it, or when.
    fn seeded_batches(&self, epoch: usize) -> Vec<(u64, Vec<VId>)> {
        let batch_size = self.schedule.batch_size_at(epoch);
        let batch_seeds = self.selection.select(self.train, batch_size, self.seed, epoch);
        let epoch_seed = self.seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(epoch as u64 + 1);
        (0u64..).zip(batch_seeds).map(|(b, seeds)| (gnn_dm_par::split_seed(epoch_seed, b), seeds)).collect()
    }

    /// Builds every mini-batch of `epoch` in parallel and hands batch `b`
    /// to `f(b, batch)` on the worker that built it, while it is still
    /// cache-hot; results come back in batch order. `f` must be pure per
    /// batch, so the result depends only on `(plan, epoch, f)` — never on
    /// the thread count. Each worker carries one [`SampleScratch`] arena
    /// across all the batches it builds, so the index map and draw buffers
    /// are allocated once per epoch instead of once per batch.
    pub fn map_batches<T, F>(&self, epoch: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, MiniBatch) -> T + Sync,
    {
        let batches = self.seeded_batches(epoch);
        gnn_dm_par::par_map_collect_init(&batches, SampleScratch::new, |scratch, b, (batch_seed, seeds)| {
            // lint:allow(R003) the builder allocates only the owned MiniBatch it hands to `f`; draw scratch is reused through this worker arena
            f(b, build_minibatch_seeded_with(self.in_csr, seeds, self.sampler, *batch_seed, scratch))
        })
    }

    /// Streams the epoch: `consume(b, batch)` for every mini-batch of
    /// `epoch`, in order, on the calling thread, while idle pool workers
    /// build the next `LOOKAHEAD_BATCHES` — the paper's "Pipeline BP"
    /// (§7.3.2), executed. Batch `b` is the batch [`EpochPlan::batches`]
    /// puts at index `b`, whoever builds it and whenever, and at most the
    /// window is alive at once instead of the whole epoch.
    pub fn for_each_batch(&self, epoch: usize, consume: impl FnMut(usize, MiniBatch)) {
        let batches = self.seeded_batches(epoch);
        gnn_dm_par::par_lookahead_init(
            batches.len(),
            LOOKAHEAD_BATCHES,
            SampleScratch::new,
            |scratch, b| {
                let (batch_seed, seeds) = &batches[b];
                // lint:allow(R003) as in `map_batches`: only the owned MiniBatch handed to `consume` is allocated; draw scratch is this thread's arena
                build_minibatch_seeded_with(self.in_csr, seeds, self.sampler, *batch_seed, scratch)
            },
            consume,
        );
    }

    /// Materializes every mini-batch of `epoch`, in order.
    pub fn batches(&self, epoch: usize) -> Vec<MiniBatch> {
        self.map_batches(epoch, |_, mb| mb)
    }

    /// Only the first mini-batch of `epoch` (`batches(epoch)[0]` without
    /// building the rest); `None` when there is nothing to train on.
    pub fn first_batch(&self, epoch: usize) -> Option<MiniBatch> {
        let (batch_seed, seeds) = self.seeded_batches(epoch).into_iter().next()?;
        Some(build_minibatch_seeded(self.in_csr, &seeds, self.sampler, batch_seed))
    }

    /// Runs an epoch for statistics only (no training), updating `tracker`
    /// if provided.
    pub fn run_for_stats(&self, epoch: usize, tracker: Option<&mut AccessTracker>) -> EpochStats {
        let mut stats = EpochStats::default();
        let mut tracker = tracker;
        self.for_each_batch(epoch, |_, mb| {
            stats.num_batches += 1;
            stats.involved_vertices += mb.involved_vertices();
            stats.involved_edges += mb.involved_edges();
            if let Some(t) = tracker.as_deref_mut() {
                t.record_batch(&mb);
            }
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::FanoutSampler;
    use gnn_dm_graph::generate::{planted_partition, PplConfig};

    fn graph() -> gnn_dm_graph::Graph {
        planted_partition(&PplConfig { n: 600, avg_degree: 10.0, num_classes: 4, ..Default::default() })
    }

    #[test]
    fn epoch_covers_all_train_vertices() {
        let g = graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(64);
        let sampler = FanoutSampler::new(vec![4, 4]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 7,
        };
        let batches = plan.batches(0);
        let mut seeds: Vec<u32> = batches.iter().flat_map(|b| b.seeds.clone()).collect();
        seeds.sort_unstable();
        let mut expect = train.clone();
        expect.sort_unstable();
        assert_eq!(seeds, expect);
    }

    #[test]
    fn tracker_counts_every_input_vertex() {
        let g = graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(32);
        let sampler = FanoutSampler::new(vec![8, 8]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 3,
        };
        let mut tracker = AccessTracker::new(g.num_vertices());
        let stats = plan.run_for_stats(0, Some(&mut tracker));
        assert!(stats.num_batches > 1);
        assert_eq!(tracker.total() as usize, stats.involved_vertices);
    }

    /// `run_for_stats` streams; it must still be the fold over the
    /// materialised epoch, on the stats and on every tracker count.
    #[test]
    fn run_for_stats_is_the_fold_over_materialised_batches() {
        let g = graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(32);
        let sampler = FanoutSampler::new(vec![8, 8]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 3,
        };
        let batches = plan.batches(1);
        let mut want_tracker = AccessTracker::new(g.num_vertices());
        let mut want = EpochStats { num_batches: batches.len(), ..Default::default() };
        for mb in &batches {
            want.involved_vertices += mb.involved_vertices();
            want.involved_edges += mb.involved_edges();
            want_tracker.record_batch(mb);
        }
        for threads in [1usize, 2, 3] {
            let mut tracker = AccessTracker::new(g.num_vertices());
            let stats = gnn_dm_par::with_threads(threads, || plan.run_for_stats(1, Some(&mut tracker)));
            assert_eq!(stats, want, "threads {threads}");
            assert_eq!(tracker.counts(), want_tracker.counts(), "threads {threads}");
        }
    }

    #[test]
    fn ranking_is_sorted_by_count() {
        let mut t = AccessTracker::new(4);
        t.record(2);
        t.record(2);
        t.record(0);
        let r = t.ranking();
        assert_eq!(r[0], 2);
        assert_eq!(r[1], 0);
        assert_eq!(t.count(2), 2);
    }

    #[test]
    fn stats_deterministic() {
        let g = graph();
        let train = g.train_vertices();
        let selection = BatchSelection::Random;
        let schedule = BatchSizeSchedule::Fixed(50);
        let sampler = FanoutSampler::new(vec![5]);
        let plan = EpochPlan {
            in_csr: &g.inn,
            train: &train,
            selection: &selection,
            schedule: &schedule,
            sampler: &sampler,
            seed: 9,
        };
        assert_eq!(plan.run_for_stats(2, None), plan.run_for_stats(2, None));
    }
}
