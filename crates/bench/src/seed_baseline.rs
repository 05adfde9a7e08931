//! Frozen copies of the repo's *seed* hot-path kernels, for honest
//! before/after benchmarking inside one binary.
//!
//! `bench_par` compares today's register-tiled GEMM and scratch-arena
//! sampler against the code the repo started from. Rather than trusting
//! numbers recorded on some other machine, the seed implementations are
//! copied here verbatim (modulo visibility shims) and timed in the same
//! process, same build flags, same inputs. Nothing in the library crates
//! calls this module — it exists only so `BENCH_par.json` can carry a
//! `speedup_vs_seed` column that is reproducible by anyone.
//!
//! What is frozen, and from where:
//!
//! * [`seed_matmul_tiled`] — the seed's cache-tiled GEMM
//!   (`crates/tensor/src/ops.rs` at the growth seed): 32×64 tiles, scalar
//!   multiply-add with a zero-skip branch, no register accumulators. It
//!   runs through the *current* parallel substrate so the comparison
//!   isolates the kernel, not the pool.
//! * [`seed_build_minibatch_par`] — the seed's three-phase parallel
//!   mini-batch builder (`crates/sampling/src/sampler.rs` at the seed):
//!   per-destination `Vec` allocation per draw, `BTreeSet` chunk dedup,
//!   `BTreeMap` local indexing, per-destination edge `Vec`s. The RNG
//!   stream-splitting is unchanged, so its output is **bitwise identical**
//!   to today's one-pass
//!   [`gnn_dm_sampling::sampler::build_minibatch_seeded`] — the bench
//!   asserts exactly that, turning the speedup row into a
//!   refactor-correctness check as well.
//! * [`seed_epoch_batches`] — the seed's `EpochPlan::batches`, driving the
//!   seed sampler with the identical epoch-seed formula (again bitwise
//!   identical to the current `EpochPlan::batches`).

use gnn_dm_graph::csr::{Csr, VId};
use gnn_dm_par::par_chunks_mut;
use gnn_dm_sampling::selection::BatchSelection;
use gnn_dm_sampling::{Block, MiniBatch, NeighborSampler};
use gnn_dm_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// The seed's k-dimension tile (L1-resident strip of B rows).
const SEED_TILE_K: usize = 64;
/// The seed's row-block tile (one parallel work unit).
const SEED_TILE_M: usize = 32;

/// The seed's cache-tiled GEMM: row-blocked, k-tiled, scalar inner loop
/// with a zero-skip branch. Kept bit-for-bit in arithmetic order so it
/// still parallelizes deterministically over the current substrate.
pub fn seed_matmul_tiled(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let (_m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(a.rows(), n);
    par_chunks_mut(c.as_mut_slice(), SEED_TILE_M * n, |ci, c_chunk| {
        let i0 = ci * SEED_TILE_M;
        for k0 in (0..k).step_by(SEED_TILE_K) {
            let k1 = (k0 + SEED_TILE_K).min(k);
            for (di, c_row) in c_chunk.chunks_mut(n).enumerate() {
                let a_row = a.row(i0 + di);
                for p in k0..k1 {
                    let a_ip = a_row[p];
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = b.row(p);
                    for (c_val, &b_val) in c_row.iter_mut().zip(b_row) {
                        *c_val += a_ip * b_val;
                    }
                }
            }
        }
    });
    c
}

/// The seed's `LocalIndexer`: first-occurrence numbering through a
/// `BTreeMap` (the current code uses stamp-versioned dense arrays).
struct SeedIndexer {
    src_ids: Vec<VId>,
    map: BTreeMap<VId, u32>,
}

impl SeedIndexer {
    fn new(dst_ids: &[VId]) -> Self {
        let mut ix = SeedIndexer { src_ids: Vec::new(), map: BTreeMap::new() };
        for &d in dst_ids {
            ix.local(d);
        }
        ix
    }

    fn local(&mut self, v: VId) -> u32 {
        if let Some(&i) = self.map.get(&v) {
            return i;
        }
        let i = self.src_ids.len() as u32;
        self.src_ids.push(v);
        self.map.insert(v, i);
        i
    }
}

/// Destinations per dedup chunk, as at the seed. Merging per-chunk
/// first-occurrence lists in chunk order yields the global first-appearance
/// order whatever the chunk size, which is why the live one-pass builder
/// (no chunks at all) still agrees bit for bit.
const SEED_DEDUP_CHUNK: usize = 64;

/// The seed's three-phase parallel mini-batch builder: fresh `Vec` per
/// destination draw, `BTreeSet` per-chunk dedup, `BTreeMap` indexing,
/// per-destination edge lists. Identical RNG streams and source numbering
/// to the current `build_minibatch_seeded`, so the output matches bitwise.
pub fn seed_build_minibatch_par(
    in_csr: &Csr,
    seeds: &[VId],
    sampler: &(dyn NeighborSampler + Sync),
    base_seed: u64,
) -> MiniBatch {
    let mut seeds_dedup: Vec<VId> = Vec::with_capacity(seeds.len());
    let mut seen = BTreeSet::new();
    for &s in seeds {
        if seen.insert(s) {
            seeds_dedup.push(s);
        }
    }

    let mut blocks_rev: Vec<Block> = Vec::with_capacity(sampler.num_layers());
    let mut frontier = seeds_dedup.clone();
    for layer in 0..sampler.num_layers() {
        let dst_ids = frontier;
        let layer_seed = gnn_dm_par::split_seed(base_seed, layer as u64);

        // Phase 1 — per-destination draws, one freshly allocated Vec each.
        let sampled: Vec<Vec<VId>> = gnn_dm_par::par_map_collect(&dst_ids, |d_local, &d| {
            let mut rng =
                StdRng::seed_from_u64(gnn_dm_par::split_seed(layer_seed, d_local as u64));
            let mut out = Vec::new();
            sampler.sample_neighbors(in_csr, d, layer, &mut rng, &mut out);
            out
        });

        // Phase 2 — per-chunk first-occurrence scan (BTreeSet), ordered
        // serial merge through the BTreeMap indexer.
        let mut dst_sorted = dst_ids.clone();
        dst_sorted.sort_unstable();
        let chunks: Vec<&[Vec<VId>]> = sampled.chunks(SEED_DEDUP_CHUNK).collect();
        let chunk_news: Vec<Vec<VId>> = gnn_dm_par::par_map_collect(&chunks, |_, lists| {
            let mut chunk_seen = BTreeSet::new();
            let mut news = Vec::new();
            for list in *lists {
                for &s in list {
                    if dst_sorted.binary_search(&s).is_err() && chunk_seen.insert(s) {
                        news.push(s);
                    }
                }
            }
            news
        });
        let mut ix = SeedIndexer::new(&dst_ids);
        for news in &chunk_news {
            for &s in news {
                ix.local(s);
            }
        }
        let SeedIndexer { src_ids, map } = ix;

        // Phase 3 — per-destination edge lists against the frozen map,
        // concatenated in destination order.
        let edge_lists: Vec<Vec<(u32, u32)>> =
            gnn_dm_par::par_map_collect(&sampled, |d_local, list| {
                list.iter().map(|s| (map[s], d_local as u32)).collect()
            });
        let edges: Vec<(u32, u32)> = edge_lists.into_iter().flatten().collect();

        frontier = src_ids.clone();
        blocks_rev.push(Block::from_edges(src_ids, dst_ids, &edges));
    }
    blocks_rev.reverse();
    let mb = MiniBatch { blocks: blocks_rev, seeds: seeds_dedup };
    debug_assert!(mb.validate().is_ok(), "{:?}", mb.validate());
    mb
}

/// The seed's `EpochPlan::batches` with `BatchSelection::Random` and a
/// fixed batch size: same epoch-seed derivation and per-batch seed splits
/// as the current code, but every batch goes through the seed sampler
/// (fresh allocations throughout, no scratch reuse across batches).
pub fn seed_epoch_batches(
    in_csr: &Csr,
    train: &[VId],
    batch_size: usize,
    sampler: &(dyn NeighborSampler + Sync),
    seed: u64,
    epoch: usize,
) -> Vec<MiniBatch> {
    let batch_seeds = BatchSelection::Random.select(train, batch_size, seed, epoch);
    let epoch_seed = seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(epoch as u64 + 1);
    gnn_dm_par::par_map_collect(&batch_seeds, |b, seeds| {
        seed_build_minibatch_par(in_csr, seeds, sampler, gnn_dm_par::split_seed(epoch_seed, b as u64))
    })
}
