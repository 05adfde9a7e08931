#!/usr/bin/env bash
# Parallel-substrate speedup benchmark (see crates/bench/src/bin/bench_par.rs).
#
#   scripts/bench.sh            # all cores (or honor a preset GNN_DM_THREADS)
#   GNN_DM_THREADS=4 scripts/bench.sh
#
# Times GEMM, the weight-gradient GEMM (gemm_tn_deep 15000x64ᵀ·32,
# gemm_tn_wide 4096x602ᵀ·128), block aggregation forward + backward
# (agg_deep: GraphSAGE, 32 wide, three-hop block; agg_wide: GCN, 602 wide),
# sampler, epoch and cluster-epoch workloads at 1 thread and at
# GNN_DM_THREADS in one process. Each measurement is one warmup run followed
# by the median of N timed runs (N per workload, set in bench_par.rs) —
# median, not best-of, so the recorded numbers are what a user actually
# sees, while staying robust to scheduler hiccups on shared machines.
#
# Besides the timings the binary verifies, bitwise: parallel ≡ serial for
# every workload, and frozen-seed ≡ current for the sampler and epoch rows
# (crates/bench/src/seed_baseline.rs keeps the seed kernels alive for
# honest in-process before/after comparison). The sampler row builds one
# batch, and one batch is one serial pass (sampling fans out across an
# epoch's batches), so its thread speedup is 1.0 by construction; read its
# speedup_vs_seed column.
#
# Outputs, at the repo root:
#   BENCH_par.json        — latest run (overwritten; committed as baseline)
#   BENCH_history.jsonl   — one line appended per run (never overwritten),
#                           so perf over time is a greppable series
#
# Each line also carries a "harness" object naming the grid coordinates of
# the epoch and cluster workloads (canonical SystemConfig id plus each
# axis's spec), so history rows are attributable to — and filterable by —
# the harness grid cell they timed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p gnn-dm-bench --bin bench_par
