#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation: each row of
# `gnn-dm-exp --list` is run and its stdout kept in results/<stem>.txt (a
# row with no stem, i.e. trace_export, only writes its JSON traces). See
# EXPERIMENTS.md for the index; one experiment alone is
# `cargo run --release -p gnn-dm-bench --bin gnn-dm-exp -- <name>`.
#
#   scripts/run_all.sh              # regenerate all results
#   scripts/run_all.sh grid_smoke   # smoke mode: run one config per
#                                   # registered axis value and diff the
#                                   # output against the checked-in golden
#                                   # (results/grid_smoke.txt) — no files
#                                   # are overwritten, drift fails the run
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

cargo build --release -q -p gnn-dm-bench --bin gnn-dm-exp
exp=target/release/gnn-dm-exp

if [ "${1:-}" = "grid_smoke" ]; then
  tmp="$(mktemp)"
  trap 'rm -f "${tmp}"' EXIT
  "${exp}" grid_smoke >"${tmp}"
  if ! diff -u results/grid_smoke.txt "${tmp}"; then
    echo "FAIL: grid_smoke output drifted from results/grid_smoke.txt" >&2
    echo "(a registered axis value or the registry order changed;" >&2
    echo " if intentional, regenerate with scripts/run_all.sh)" >&2
    exit 1
  fi
  echo "OK: grid_smoke matches the checked-in golden (one config per axis value)"
  exit 0
fi

"${exp}" --list | while IFS=$'\t' read -r name stem _; do
  if [ "${stem}" = "-" ]; then
    "${exp}" "${name}"
  else
    "${exp}" "${name}" | tee "results/${stem}.txt"
  fi
done
echo "All results written to results/."
