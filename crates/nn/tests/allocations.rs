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
use gnn_dm_nn::model::{AggKind, GnnModel};
use gnn_dm_nn::optim::Adam;
use gnn_dm_nn::train::{evaluate, train_epoch};
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation events of the counting thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    allocs: usize,
    reallocs: usize,
    /// Allocations and reallocations to at least [`LARGE`] bytes.
    large: usize,
}

/// glibc's default mmap threshold.
const LARGE: usize = 128 << 10;

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Adds `f` of the current tally, when this thread is counting.
fn record(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            f(&mut tally);
            t.set(Some(tally));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the tally only
// reads the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.large += usize::from(layout.size() >= LARGE);
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.large += usize::from(layout.size() >= LARGE);
        });
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(|t| {
            t.reallocs += 1;
            t.large += usize::from(new_size >= LARGE);
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    let tally = TALLY.with(|t| t.take()).unwrap_or_default();
    (out, tally)
}

/// What epochs 1 and 2 of a three-layer `kind` model and the evaluation
/// after them allocate, on a 3 000-vertex, 48-wide planted graph with
/// batches of 128 seeds and fanout (8, 5, 3): 16 steps per epoch.
fn warm_tallies(kind: AggKind) -> [Tally; 3] {
    let g = planted_partition(&PplConfig {
        n: 3_000,
        avg_degree: 12.0,
        num_classes: 6,
        feat_dim: 48,
        seed: 17,
        ..Default::default()
    });
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
fn tallies(pins: [(usize, usize, usize); 3]) -> [Tally; 3] {
    pins.map(|(allocs, reallocs, large)| Tally { allocs, reallocs, large })
}

#[test]
fn gcn_epoch_and_evaluation_allocations_are_pinned() {
    assert_eq!(warm_tallies(AggKind::Gcn), tallies([(573, 34, 12), (603, 34, 18), (8, 0, 5)]));
}

#[test]
fn sage_epoch_and_evaluation_allocations_are_pinned() {
    assert_eq!(warm_tallies(AggKind::SageMean), tallies([(578, 34, 21), (591, 34, 27), (8, 0, 5)]));
}
