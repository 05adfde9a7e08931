//! Criterion benchmarks of the device substrate: transfer pricing, cache
//! filtering, block-activity analysis, and the pipeline makespan model.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gnn_dm_device::blocks::{block_activity, PAPER_BLOCK_BYTES};
use gnn_dm_device::cache::FeatureCache;
use gnn_dm_device::pipeline::{makespan, BatchStageTimes, PipelineMode};
use gnn_dm_device::transfer::{BatchTransfer, TransferEngine, TransferMethod};
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use std::hint::black_box;

fn bench_transfer_pricing(c: &mut Criterion) {
    let engine = TransferEngine::default();
    let bt = BatchTransfer { rows: 50_000, row_bytes: 2408, topo_bytes: 4_000_000 };
    let ids: Vec<u32> = (0..200_000u32).step_by(4).collect();
    let act = block_activity(&ids, 200_000, 2408, PAPER_BLOCK_BYTES);
    let mut group = c.benchmark_group("transfer_pricing");
    group.sample_size(20);
    group.bench_function("extract_load", |b| {
        b.iter(|| black_box(engine.time(TransferMethod::ExtractLoad, black_box(&bt), None)))
    });
    group.bench_function("zero_copy", |b| {
        b.iter(|| black_box(engine.time(TransferMethod::ZeroCopy, black_box(&bt), None)))
    });
    group.bench_function("hybrid", |b| {
        b.iter(|| {
            black_box(engine.time(
                TransferMethod::Hybrid { threshold: 0.5 },
                black_box(&bt),
                Some(&act),
            ))
        })
    });
    group.finish();
}

fn bench_cache_and_blocks(c: &mut Criterion) {
    let g = planted_partition(&PplConfig {
        n: 50_000,
        avg_degree: 15.0,
        num_classes: 8,
        feat_dim: 16,
        skew: 0.9,
        ..Default::default()
    });
    let ids: Vec<u32> = (0..50_000u32).step_by(3).collect();
    let mut group = c.benchmark_group("cache_and_blocks");
    group.sample_size(20);
    group.bench_function("degree_cache_build_50k", |b| {
        b.iter(|| black_box(FeatureCache::degree_based(black_box(&g.out), 10_000)))
    });
    group.bench_function("cache_filter_misses", |b| {
        let cache = FeatureCache::degree_based(&g.out, 10_000);
        b.iter_batched(
            || cache.clone(),
            |mut cache| black_box(cache.filter_misses(&ids)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("block_activity_50k", |b| {
        b.iter(|| black_box(block_activity(black_box(&ids), 50_000, 2408, PAPER_BLOCK_BYTES)))
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let batches = vec![BatchStageTimes { bp: 0.001, dt: 0.002, nn: 0.0015 }; 1000];
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.bench_function("makespan_full_1000", |b| {
        b.iter(|| black_box(makespan(black_box(&batches), PipelineMode::Full)))
    });
    group.finish();
}

criterion_group!(benches, bench_transfer_pricing, bench_cache_and_blocks, bench_pipeline);
criterion_main!(benches);
