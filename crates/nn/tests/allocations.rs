//! What a warm training epoch and a full-graph evaluation allocate,
//! counted by a global allocator.
//!
//! Only the thread that opts in is counted, and every run is under
//! `with_threads(1, ..)`, so the look-ahead builds each batch inline and
//! every kernel runs on the counting thread: a count is the same on every
//! run. The pins are exact, so a buffer that starts to be allocated per
//! row, per tile or per parameter chunk — inside an aggregation row
//! closure, a GEMM micro-kernel or the optimizer step — changes them.
//! Large allocations (≥ 128 KiB, glibc's default mmap threshold) are
//! pinned apart: each is a fresh mapping the kernel faults in.

use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_graph::{Graph, VId};
use gnn_dm_nn::model::{AggKind, GnnModel};
use gnn_dm_nn::optim::Adam;
use gnn_dm_nn::train::{evaluate, train_epoch};
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, Tally};

/// A 3 000-vertex, 48-wide planted graph.
fn graph() -> Graph {
    planted_partition(&PplConfig {
        n: 3_000,
        avg_degree: 12.0,
        num_classes: 6,
        feat_dim: 48,
        seed: 17,
        ..Default::default()
    })
}

/// What epochs 1 and 2 of a three-layer `kind` model and the evaluation
/// after them allocate, on [`graph`] with batches of 128 seeds and fanout
/// (8, 5, 3): 16 steps per epoch.
fn warm_tallies(kind: AggKind) -> [Tally; 3] {
    let g = graph();
    let train = g.train_vertices();
    let val = g.val_vertices();
    let (selection, schedule) = (BatchSelection::Random, BatchSizeSchedule::Fixed(128));
    let sampler = FanoutSampler::new(vec![8, 5, 3]);
    let plan = EpochPlan {
        in_csr: &g.inn,
        train: &train,
        selection: &selection,
        schedule: &schedule,
        sampler: &sampler,
        seed: 11,
    };
    let mut model = GnnModel::new(kind, &[48, 64, 64, 6], 3);
    let mut opt = Adam::new(0.01);
    gnn_dm_par::with_threads(1, || {
        // Epoch 0 builds the feature table and the optimizer state.
        let first = train_epoch(&mut model, &mut opt, &g, &plan, 0);
        assert_eq!(first.num_batches, 16);
        let _ = evaluate(&model, &g, &val);
        let (_, epoch1) = counted(|| train_epoch(&mut model, &mut opt, &g, &plan, 1));
        let (_, epoch2) = counted(|| train_epoch(&mut model, &mut opt, &g, &plan, 2));
        let (_, eval) = counted(|| evaluate(&model, &g, &val));
        [epoch1, epoch2, eval]
    })
}

/// `(allocs, reallocs, large)` of epoch 1, epoch 2 and the evaluation.
fn pinned(kind: AggKind) -> [(usize, usize, usize); 3] {
    warm_tallies(kind).map(|t| (t.allocs, t.reallocs, t.large))
}

/// The evaluation computes the validation split's receptive field only:
/// the field's bitmap and per-layer vertex lists and position maps, then
/// the smaller layer outputs (the full-graph forward it replaced made 8
/// allocations, 5 of them large).
#[test]
fn gcn_epoch_and_evaluation_allocations_are_pinned() {
    assert_eq!(pinned(AggKind::Gcn), [(573, 34, 12), (603, 34, 18), (15, 0, 4)]);
}

#[test]
fn sage_epoch_and_evaluation_allocations_are_pinned() {
    assert_eq!(pinned(AggKind::SageMean), [(578, 34, 21), (591, 34, 27), (15, 0, 4)]);
}

/// What one warm `evaluate` of a three-layer GraphSAGE model allocates, by
/// how far the subset's receptive field reaches on [`graph`]: one vertex
/// (its two-hop field's layer-0 aggregate is the one large buffer), the
/// validation split (as above), and every vertex (every field the whole
/// graph: the full-graph forward's 8 buffers plus the bitmap, the layer
/// list and three vertex lists and position maps).
#[test]
fn sage_evaluation_allocations_follow_the_field() {
    let g = graph();
    let model = GnnModel::new(AggKind::SageMean, &[48, 64, 64, 6], 3);
    let all: Vec<VId> = (0..g.num_vertices() as VId).collect();
    let subsets = [vec![1234], g.val_vertices(), all];
    let tallies = gnn_dm_par::with_threads(1, || {
        // The first read builds the feature table.
        let _ = evaluate(&model, &g, &[0]);
        subsets.map(|subset| {
            let (_, t) = counted(|| evaluate(&model, &g, &subset));
            (t.allocs, t.reallocs, t.large)
        })
    });
    assert_eq!(tallies, [(15, 0, 1), (15, 0, 4), (16, 0, 5)]);
}
