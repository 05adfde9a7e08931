//! What one mini-batch build allocates, counted by a global allocator.
//!
//! Only the thread that opts in is counted, so the test harness's other
//! threads cannot blur the tally. A warm build (its scratch arena has seen
//! the batch's working set) hands out each array of the batch once, at its
//! exact length: the id list, the seeds, the block list, and one offset
//! and one edge array per layer — `2L + 3` allocations, no reallocation.

use gnn_dm_graph::csr::VId;
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_sampling::sampler::{build_minibatch_seeded_with, FanoutSampler, SampleScratch};
use gnn_dm_sampling::{Block, MiniBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation events and live bytes of the counting thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    allocs: usize,
    reallocs: usize,
    live_bytes: isize,
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
// reads the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.live_bytes += layout.size() as isize;
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.live_bytes += layout.size() as isize;
        });
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|t| t.live_bytes -= layout.size() as isize);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(|t| {
            t.reallocs += 1;
            t.live_bytes += new_size as isize - layout.size() as isize;
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

/// Bytes of the batch's arrays at their lengths.
fn exact_bytes(mb: &MiniBatch) -> isize {
    let ids = (mb.input_ids().len() + mb.seeds.len()) * size_of::<VId>();
    let blocks = mb.blocks.len() * size_of::<Block>();
    let topology: usize =
        mb.blocks.iter().map(|b| (b.dst_offsets.len() + b.edge_src.len()) * size_of::<u32>()).sum();
    (ids + blocks + topology) as isize
}

/// A warm seeded build of `batch` seeds under `fanouts` on a graph of the
/// given size and degree, counted.
fn assert_exact_build(n: usize, avg_degree: f64, fanouts: &[usize], batch: usize) {
    let g = planted_partition(&PplConfig { n, avg_degree, num_classes: 16, feat_dim: 8, seed: 42, ..Default::default() });
    let seeds: Vec<VId> = (0..batch as VId).map(|i| i * 7 % n as VId).collect();
    let sampler = FanoutSampler::new(fanouts.to_vec());
    let mut scratch = SampleScratch::new();
    let warm = build_minibatch_seeded_with(&g.inn, &seeds, &sampler, 9, &mut scratch);
    let (mb, tally) = counted(|| build_minibatch_seeded_with(&g.inn, &seeds, &sampler, 9, &mut scratch));
    assert_eq!(mb, warm, "the arena changes nothing that is drawn");
    mb.validate().expect("batch invariants");
    let layers = fanouts.len();
    let expect = Tally { allocs: 2 * layers + 3, reallocs: 0, live_bytes: exact_bytes(&mb) };
    assert_eq!(tally, expect, "{layers} layers, {} ids, {} edges", mb.input_ids().len(), mb.involved_edges());
}

/// The `mb_deep` benchmark's batch: a 20 000-vertex, degree-30 graph, 256
/// seeds, three hops of fanout (15, 10, 5).
#[test]
fn a_deep_batch_is_nine_exact_allocations() {
    assert_exact_build(20_000, 30.0, &[15, 10, 5], 256);
}

/// The `mb_wide` benchmark's batch: a 5 000-vertex, degree-15 graph, 512
/// seeds, two hops of fanout (25, 10).
#[test]
fn a_wide_batch_is_seven_exact_allocations() {
    assert_exact_build(5_000, 15.0, &[25, 10], 512);
}
