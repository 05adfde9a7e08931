//! What one warm simulated cluster epoch allocates, counted by a global
//! allocator.
//!
//! Only the thread that opts in is counted, and the epoch runs under
//! `with_threads(1, ..)`, so every worker's closure runs inline on the
//! counting thread and the count is the same on every run. The pin is
//! exact: a buffer that starts to be allocated per batch or per sampled
//! vertex in a worker's loop changes it.

use gnn_dm_cluster::ClusterSim;
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_partition::metis::{metis_extend, MetisVariant};
use gnn_dm_sampling::FanoutSampler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation events of the counting thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    allocs: usize,
    reallocs: usize,
}

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
// counts the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| t.allocs += 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(|t| t.allocs += 1);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(|t| t.reallocs += 1);
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

/// Epoch 1 of four workers on a 2 000-vertex planted graph under Metis-V,
/// 32-seed batches and fanout (10, 5), after epoch 0 warmed the process.
#[test]
fn a_warm_cluster_epoch_allocation_count_is_pinned() {
    let g = planted_partition(&PplConfig { n: 2_000, avg_degree: 12.0, num_classes: 4, ..Default::default() });
    let part = metis_extend(&g, MetisVariant::V, 4, 3);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 32, seed: 5 };
    let sampler = FanoutSampler::new(vec![10, 5]);
    let (report, tally) = gnn_dm_par::with_threads(1, || {
        let _ = sim.simulate_epoch(&sampler, 0);
        counted(|| sim.simulate_epoch(&sampler, 1))
    });
    assert_eq!(report.num_batches.iter().sum::<usize>(), 42);
    assert_eq!(tally, Tally { allocs: 434, reallocs: 85 });
}
