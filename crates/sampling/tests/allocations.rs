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

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;

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
    let expect = (2 * layers + 3, 0, exact_bytes(&mb));
    assert_eq!((tally.allocs, tally.reallocs, tally.live_bytes), expect, "{layers} layers, {} ids, {} edges", mb.input_ids().len(), mb.involved_edges());
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
