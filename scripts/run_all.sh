#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation: each row of
# `gnn-dm-exp --list` is run and its stdout kept in results/<stem>.txt (a
# row with no stem, i.e. trace_export, only writes its JSON traces). See
# EXPERIMENTS.md for the index; one experiment alone is
# `cargo run --release -p gnn-dm-bench --bin gnn-dm-exp -- <name>`.
#
#   scripts/run_all.sh              # regenerate all results
#
# results/ is a pure function of the seeds. Stderr carries what is not: the
# rows' measured wall-clock tables and one `<row> <wall s>` line per row.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

cargo build --release -q -p gnn-dm-bench --bin gnn-dm-exp
exp=target/release/gnn-dm-exp

"${exp}" --list | while IFS=$'\t' read -r name stem _; do
  TIMEFORMAT="${name} %R"
  if [ "${stem}" = "-" ]; then
    time "${exp}" "${name}"
  else
    time "${exp}" "${name}" | tee "results/${stem}.txt"
  fi
done
echo "All results written to results/."
