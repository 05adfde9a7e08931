#!/usr/bin/env bash
# Tier-1 gate: everything a commit must pass.
#
#   scripts/check.sh            # release build + clippy + full test suite + rustdoc + results/ golden + benchmark smoke
#
# The workspace invariants clippy cannot see (the layering DAG of every
# manifest, the library deny lines, the clippy.toml bans tier-1 relies on,
# library I/O confinement) run inside the test suite: tests/workspace.rs.

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
# clock, hash collections, raw threads, and the sync primitives — Mutex,
# RwLock, Condvar, Barrier, Once, OnceLock, every Atomic*, mpsc channels —
# outside gnn-dm-par; raw RNG seeding — SeedableRng::seed_from_u64 — outside
# the roots whose #[expect] says how the seed is derived; and raw cost-model pricing — LinkModel::transfer_time,
# TransferEngine::time, the cluster network models — outside the sites that
# put its seconds on a span timeline), the panic-family and print_stdout/print_stderr
# denies in each library lib.rs, a reason on every allow/expect, and
# (through -D warnings) rustc's unfulfilled_lint_expectations for a stale
# #[expect]. Clippy lints
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
echo "==> cargo clippy (clippy.toml bans: wall clock, hash order, raw threads, sync primitives, raw RNG seeding, raw cost-model pricing; library panic and print denies; reasons on every allow/expect)"
RUSTFLAGS="${clippy_rustflags}" cargo clippy --workspace --all-targets -q --target "${host}" -- -A clippy::all \
    -D clippy::disallowed_methods -D clippy::disallowed_types \
    -D clippy::allow_attributes_without_reason

echo "==> cargo test"
cargo test --workspace -q

echo "==> full-size generator pins (release, topology only: the benchmark's four graphs and a 200 000-vertex LiveJournal stand-in equal the serial generator's at 1 and 3 threads; ignored in the debug suite for their run time)"
cargo test --release -q --test par_equivalence full_size -- --ignored

echo "==> Metis pins on benchmark-sized graphs (release: edge cut and assignment fingerprint of Metis-V/VE/VET and metis_clusters on the cluster_epoch graph, a LiveJournal stand-in and a directed graph, at 1 and 3 threads; ignored in the debug suite for their run time)"
cargo test --release -q -p gnn-dm-partition --test fingerprints -- --ignored

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
    portable_test -p gnn-dm --test evaluation
    echo "    portable build and tests added $((SECONDS - portable_start)) s"
fi

echo "==> results/ (scripts/run_all.sh regenerates every table and trace; the new tree must equal the checked-in one, file for file and byte for byte)"
# run_all.sh is the only writer of results/: the checked-in tree is moved
# aside, the suite writes a fresh one, and diff -r fails on a changed,
# missing or extra file. The checked-in tree is put back however this ends.
results_start="${SECONDS}"
golden="$(mktemp -d)"
mv results "${golden}/results"
restore_results() {
    rm -rf results
    mv "${golden}/results" results
    rmdir "${golden}"
    trap - EXIT INT TERM
}
trap restore_results EXIT
trap 'exit 130' INT TERM
bash scripts/run_all.sh >/dev/null
if ! diff -r "${golden}/results" results; then
    echo "FAIL: scripts/run_all.sh wrote a results/ tree that differs from the checked-in one (diff above: < checked in, > regenerated)" >&2
    exit 1
fi
restore_results
echo "    whole suite took $((SECONDS - results_start)) s"

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

echo "OK: build, clippy, tests, rustdoc, results/ golden and benchmark smoke all green"
echo "(performance numbers: bash benchmark/run.sh)"
