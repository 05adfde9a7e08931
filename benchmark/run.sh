#!/usr/bin/env bash
# The repo's reference benchmark: builds it (release, offline) and runs it.
#
#   benchmark/run.sh                       five round-robin runs of all four workloads
#   benchmark/run.sh --runs R [--trace]    R runs each (plus R traced runs each)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run in one fresh process; the last
#                                          line of stdout is the result object
#   benchmark/run.sh --smoke               every workload at a tenth of its size,
#                                          five iterations, all checks on
#   benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md for what is measured and why.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Cargo runs from inside the repo tree, so the root `.cargo/config.toml`
# (`-C target-cpu=native`) applies: the benchmark times the codegen users get.
# (A relative CARGO_TARGET_DIR is relative to the repo root, where cargo runs.)
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/gnn-dm-benchmark"

# Allocator regime (README, "Allocator regime"): glibc's trim and mmap
# thresholds adapt at run time, and which way they have adapted when the
# loop starts changes `mb_wide` iteration time by 2x. Freeze them at the
# values the adaptation itself converges to, unless the caller chose others.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-33554432}"
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-67108864}"

exec "$bin" --out-dir "$here/out" --spec "$root/BENCHMARK.json" "$@"
