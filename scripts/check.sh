#!/usr/bin/env bash
# Tier-1 gate: everything a commit must pass.
#
#   scripts/check.sh            # release build + clippy + full test suite + rustdoc + lint
#
# The lint run is technically redundant (crates/lint/tests/workspace_clean.rs
# runs it under `cargo test` too) but invoking the binary directly prints the
# diagnostics and the violation count even when everything else is green.

set -euo pipefail
cd "$(dirname "$0")/.."

# One flag set for every cargo invocation below. `-C target-cpu=native` is
# also the workspace default (.cargo/config.toml) but RUSTFLAGS overrides
# that file, so it must be restated next to `-D warnings` or the gate would
# silently test a differently-codegen'd build than users get.
export RUSTFLAGS="-D warnings -C target-cpu=native"

echo "==> cargo build --release (warnings are errors)"
cargo build --workspace --release

# Only the chosen lints, not a clippy::all sweep: clippy.toml's bans (wall
# clock, hash collections, raw threads), the panic-family denies in each
# library lib.rs, a reason on every allow/expect, and (through -D warnings)
# rustc's unfulfilled_lint_expectations for a stale #[expect]. Clippy lints
# only cfg-enabled code, so on x86-64 it also enables avx512f: the 512-bit
# GEMM tile body (crates/tensor/src/ops.rs) is then checked on every host,
# and the portable body is compiled regardless. Clippy only type-checks the
# workspace; the explicit host `--target` keeps the flag off the build
# scripts and proc macros it does run.
host="$(rustc -vV | sed -n 's/^host: //p')"
clippy_rustflags="${RUSTFLAGS}"
if [[ "${host}" == x86_64-* ]]; then
    clippy_rustflags+=" -C target-feature=+avx512f"
fi
echo "==> cargo clippy (clippy.toml bans, library panic denies, reasons on every allow/expect)"
RUSTFLAGS="${clippy_rustflags}" cargo clippy --workspace --all-targets -q --target "${host}" -- -A clippy::all \
    -D clippy::disallowed_methods -D clippy::disallowed_types \
    -D clippy::allow_attributes_without_reason

echo "==> cargo test"
cargo test --workspace -q

echo "==> full-size generator pins (release, topology only: the benchmark's four graphs and a 200 000-vertex LiveJournal stand-in equal the serial generator's at 1 and 3 threads; ignored in the debug suite for their run time)"
cargo test --release -q --test par_equivalence full_size -- --ignored

echo "==> cargo doc (rustdoc warnings are errors: a doc link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> schedule stress (failures are schedule-dependent: 20 more rounds of the gnn-dm-par look-ahead tests and of a deferred feature table's first read inside a parallel closure)"
stress_start="${SECONDS}"
for round in $(seq 1 20); do
    if ! stress_out="$(cargo test -q -p gnn-dm-par lookahead 2>&1 &&
        cargo test -q -p gnn-dm-graph --lib first_read_inside_a_parallel_closure 2>&1)"; then
        echo "${stress_out}"
        echo "FAIL: schedule-dependent tests failed in stress round ${round}" >&2
        exit 1
    fi
done
echo "    20 rounds added $((SECONDS - stress_start)) s"

if [[ "$(uname -m)" == x86_64 ]]; then
    echo "==> portable GEMM tile (an AVX-512 host builds only the 512-bit body above: the same kernel tests again at x86-64-v3)"
    portable_start="${SECONDS}"
    portable_test() {
        RUSTFLAGS="-D warnings -C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 \
            cargo test -q "$@"
    }
    portable_test -p gnn-dm-tensor -p gnn-dm-nn
    portable_test -p gnn-dm --test par_equivalence
    echo "    portable build and tests added $((SECONDS - portable_start)) s"
fi

# golden_check <experiment> <file> <table|-> [args]: regenerates a checked-in
# golden trace with the experiment that writes it and fails on any byte of
# drift, leaving the golden as it was. Unless <table> is `-`, the same run's
# stdout must be that results/ table byte for byte too.
golden_check() {
    local experiment="$1" file="$2" table="$3" golden out
    shift 3
    [ -f "${file}" ] || return 0
    echo "==> golden trace ${file} (gnn-dm-exp ${experiment} $* must reproduce it byte for byte)"
    [ "${table}" = - ] || echo "    and print ${table} byte for byte"
    golden="$(mktemp)"
    out="$(mktemp)"
    cp "${file}" "${golden}"
    cargo run --release -q -p gnn-dm-bench --bin gnn-dm-exp -- "${experiment}" "$@" >"${out}"
    if ! cmp -s "${file}" "${golden}"; then
        cp "${golden}" "${file}"
        rm -f "${golden}" "${out}"
        echo "FAIL: regenerated ${file} differs from the checked-in golden" >&2
        exit 1
    fi
    if [ "${table}" != - ] && ! cmp -s "${out}" "${table}"; then
        rm -f "${golden}" "${out}"
        echo "FAIL: gnn-dm-exp ${experiment} differs from ${table}" >&2
        exit 1
    fi
    rm -f "${golden}" "${out}"
}
# Every fault constant (slowdowns, crash share, snapshot cadence, retry
# budget, timeout, backoff) ends up in the faulted epoch-time table.
golden_check ext_faults_epoch_time results/trace_faults.json results/ext_faults_epoch_time.txt
# The smoke grid contains the golden cell, so it re-derives the full run's trace.
golden_check chaos_grid results/trace_chaos.json - --smoke

echo "==> grid smoke (one config per registered axis value against results/grid_smoke.txt)"
bash scripts/run_all.sh grid_smoke

# result_check <experiment>: reruns one experiment and fails unless its
# stdout is its results/ file byte for byte.
result_check() {
    local experiment="$1"
    echo "==> results/${experiment}.txt (gnn-dm-exp ${experiment} must reproduce it byte for byte)"
    if ! cargo run --release -q -p gnn-dm-bench --bin gnn-dm-exp -- "${experiment}" |
        cmp -s - "results/${experiment}.txt"; then
        echo "FAIL: gnn-dm-exp ${experiment} differs from results/${experiment}.txt" >&2
        exit 1
    fi
}
# Rows the test suite never regenerates: the sampling-algorithm families
# (layer-wise, unbounded fanout, subgraph-wise) and full-batch training,
# and the rows that read batch shapes — involved #V/#E, a batch's input
# ids, first-batch block activity.
result_check ext_sampling_algorithms
result_check ext_fullbatch_vs_minibatch
result_check tab6_selection_cost
result_check ablate_block_size
result_check fig15_active_blocks
# Local SGD trains worker replicas through the one mini-batch step (~1 s).
result_check ext_local_sgd

echo "==> benchmark lockfile (benchmark/run.sh builds without --locked, so a stale benchmark/Cargo.lock would be rewritten silently)"
if ! cargo metadata --offline --locked --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null; then
    echo "FAIL: benchmark/Cargo.lock no longer matches the workspace manifests: a library Cargo.toml changed its dependencies, and the frozen benchmark lockfile would be rewritten" >&2
    exit 1
fi

echo "==> benchmark smoke (every workload's output checks; BENCHMARK.json == the tables it prints)"
# Without this script's RUSTFLAGS: the benchmark package is built the way its
# own run.sh documents (root .cargo/config.toml), into its own target dir, so
# the gate neither tests a differently-built binary nor evicts that cache.
env -u RUSTFLAGS benchmark/run.sh --smoke >/dev/null

echo "==> benchmark smoke, allocator unpinned (128 KiB mmap/trim thresholds: every large buffer a fresh, faulting mapping — the regime the training step's recycled workspace is for)"
unpinned_start="${SECONDS}"
env -u RUSTFLAGS MALLOC_MMAP_THRESHOLD_=131072 MALLOC_TRIM_THRESHOLD_=131072 \
    benchmark/run.sh --smoke >/dev/null
echo "    unpinned smoke added $((SECONDS - unpinned_start)) s"

echo "==> gnn-dm-lint (exit status: 0 clean, 1 violations, 2 usage or I/O error)"
if ! cargo run -q -p gnn-dm-lint; then
    echo "FAIL: lint reported violations or could not read the workspace" >&2
    exit 1
fi

echo "OK: build, clippy, tests and lint all green"
echo "(performance numbers: bash benchmark/run.sh)"
