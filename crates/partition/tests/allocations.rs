//! The most heap Metis holds at once, counted by a global allocator.
//!
//! Only the thread that opts in is counted, and the run is pinned to one
//! thread, so every allocation of the partitioner is made — and counted —
//! on the calling thread, and the high-water mark is the same on every run.

use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_partition::metis::{metis_extend, MetisVariant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live bytes of the counting thread and their high-water mark.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    live_bytes: isize,
    peak_bytes: isize,
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Moves the live byte count by `delta`, when this thread is counting.
fn record(delta: isize) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            tally.live_bytes += delta;
            tally.peak_bytes = tally.peak_bytes.max(tally.live_bytes);
            t.set(Some(tally));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the tally only
// reads the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize);
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

/// Metis-VET (k = 4, seed 7) on the benchmark's `cluster_epoch` graph, a
/// 20 000-vertex Products stand-in with 623 594 adjacency entries, holds at
/// most 9 MB at once: 8 792 464 B when this was written. A hierarchy that
/// holds every level at once, with a weighted copy of the graph's rows as
/// its finest level and `f64` constraint vectors, peaked at 20 956 221 B.
#[test]
fn metis_vet_heap_high_water_mark() {
    let g = DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(20_000, 42);
    let (p, tally) =
        gnn_dm_par::with_threads(1, || counted(|| metis_extend(&g, MetisVariant::VET, 4, 7)));
    assert_eq!(p.assignment.len(), g.num_vertices());
    assert!(tally.peak_bytes <= 9_000_000, "{tally:?}");
}
