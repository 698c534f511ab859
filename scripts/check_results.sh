#!/usr/bin/env bash
# Golden-results gate: reruns the six benches that write results/*.csv
# (fig3, fig4, fig5, fig9, fig10 and the open-loop demand cycle) in a
# temporary directory and byte-compares every CSV they write against the
# committed results/. A refactor or optimisation must leave all nine files
# unchanged; a change that moves them on purpose re-pins them in a commit
# of its own that says why they moved. Registered as the `results_gate`
# CTest entry (label `report`).
#
# Usage: check_results.sh <bench_dir> <results_dir>
#   bench_dir    directory holding the bench binaries (build/bench)
#   results_dir  committed golden CSVs (results/ at the repository root)
set -euo pipefail
shopt -s nullglob

BENCH_DIR="${1:?usage: check_results.sh <bench_dir> <results_dir>}"
GOLDEN="${2:?usage: check_results.sh <bench_dir> <results_dir>}"
BENCH_DIR=$(cd "$BENCH_DIR" && pwd)
GOLDEN=$(cd "$GOLDEN" && pwd)

BENCHES=(bench_fig3_power_traces bench_fig4_fixed_step
         bench_fig5_safe_fixed_step bench_fig9_slo_capgpu
         bench_fig10_adaptation bench_openloop_load)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
for b in "${BENCHES[@]}"; do
  "$BENCH_DIR/$b" > "$b.out" \
    || { rc=$?; tail -n 20 "$b.out"; echo "FAIL: $b exited $rc"; exit 1; }
done

goldens=("$GOLDEN"/*.csv)
[ "${#goldens[@]}" -gt 0 ] || { echo "FAIL: no CSVs in $GOLDEN"; exit 1; }
differing=()
for golden in "${goldens[@]}"; do
  name=$(basename "$golden")
  if [ ! -f "results/$name" ]; then
    echo "FAIL: no bench wrote results/$name"
    differing+=("$name")
  elif ! cmp -s "$golden" "results/$name"; then
    echo "FAIL: results/$name differs from the committed copy"
    differing+=("$name")
  fi
done
if [ "${#differing[@]}" -gt 0 ]; then
  echo "results gate: ${#differing[@]} file(s) differ: ${differing[*]}"
  echo "If the change is meant to move them, re-pin results/ in a separate"
  echo "commit whose message says what moved and why."
  exit 1
fi
echo "results gate: PASS (${#goldens[@]} CSVs byte-identical)"
