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

echo "==> cargo doc (rustdoc warnings are errors: a doc link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> look-ahead stress (its failures are schedule-dependent: 20 more rounds of the gnn-dm-par look-ahead tests)"
stress_start="${SECONDS}"
for round in $(seq 1 20); do
    if ! stress_out="$(cargo test -q -p gnn-dm-par lookahead 2>&1)"; then
        echo "${stress_out}"
        echo "FAIL: look-ahead tests failed in stress round ${round}" >&2
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

# golden_check <experiment> <file> [args]: regenerates a checked-in golden
# trace with the experiment that writes it and fails on any byte of drift,
# leaving the golden as it was.
golden_check() {
    local experiment="$1" file="$2" golden
    shift 2
    [ -f "${file}" ] || return 0
    echo "==> golden trace ${file} (gnn-dm-exp ${experiment} $* must reproduce it byte for byte)"
    golden="$(mktemp)"
    cp "${file}" "${golden}"
    cargo run --release -q -p gnn-dm-bench --bin gnn-dm-exp -- "${experiment}" "$@" >/dev/null
    if ! cmp -s "${file}" "${golden}"; then
        cp "${golden}" "${file}"
        rm -f "${golden}"
        echo "FAIL: regenerated ${file} differs from the checked-in golden" >&2
        exit 1
    fi
    rm -f "${golden}"
}
golden_check ext_faults_epoch_time results/trace_faults.json
# The smoke grid contains the golden cell, so it re-derives the full run's trace.
golden_check chaos_grid results/trace_chaos.json --smoke

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
