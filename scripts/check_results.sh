#!/usr/bin/env bash
# Golden-bytes gate. Runs every bench in the bench directory, each in a
# temporary directory of its own with every telemetry sink on, and checks
# two things:
#   - the sha256 of each bench's stdout and of every artifact it writes
#     matches the committed manifest results/bytes.sha256;
#   - the nine results/*.csv that fig3, fig4, fig5, fig9, fig10 and the
#     open-loop demand cycle write are byte-identical to the committed
#     results/.
# The benches that time the host are skipped: the four *_selfperf benches
# and bench_ablation_overhead. Two host-timed fields are left out of the
# hashes: the summary's "wall_time_s" line and bench_ablation_horizons'
# "step us" column, with the three shape checks that bench computes from
# that column (on 4 cores with 8 busy processes, one run in ten flips
# one of them). A refactor or optimisation must leave every byte
# unchanged; a change that moves them on purpose re-pins the CSVs and the
# manifest in a commit of its own that says what moved and why. On a
# mismatch the gate names each differing bench and file and prints its
# new manifest line ("now: ..."); against an empty manifest it prints
# them all. Registered as the `results_gate` CTest entry (label `report`).
#
# Usage: check_results.sh <bench_dir> <results_dir>
#   bench_dir    directory holding the bench binaries (build/bench)
#   results_dir  committed golden CSVs and bytes.sha256 (results/ at the
#                repository root)
set -euo pipefail
shopt -s nullglob
export LC_ALL=C

BENCH_DIR="${1:?usage: check_results.sh <bench_dir> <results_dir>}"
GOLDEN="${2:?usage: check_results.sh <bench_dir> <results_dir>}"
BENCH_DIR=$(cd "$BENCH_DIR" && pwd)
GOLDEN=$(cd "$GOLDEN" && pwd)
MANIFEST="$GOLDEN/bytes.sha256"
[ -f "$MANIFEST" ] || { echo "FAIL: no manifest at $MANIFEST"; exit 1; }

# Relative sink paths, so that no byte depends on the run directory.
SINKS=(--metrics-out metrics.prom --trace-out trace.json
       --events-out events.jsonl --slo-report-out slo.json
       --flight-out flight.jsonl --energy-out energy.json
       --resilience-out resilience.json --summary-out summary.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/results"
benches=0
for bin in "$BENCH_DIR"/bench_*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  b=$(basename "$bin")
  # Host-timed benches: their every number moves from run to run.
  case $b in *_selfperf | bench_ablation_overhead) continue ;; esac
  mkdir "$tmp/$b"
  (cd "$tmp/$b" && "$bin" "${SINKS[@]}" > stdout.txt) \
    || { rc=$?; tail -n 20 "$tmp/$b/stdout.txt"; echo "FAIL: $b exited $rc"; exit 1; }
  sed -i '/"wall_time_s"/d' "$tmp/$b/summary.json"
  if [ "$b" = bench_ablation_horizons ]; then
    # Cut every row of the table whose header ends in "step us" at that
    # column (a blank line ends the table), and drop the checks on it.
    awk '/step us *$/ { col = index($0, "step us") }
         col && NF { print substr($0, 1, col - 1); next }
         /step cost:|per step\):|folded assembly\):/ { next }
         { col = 0; print }' "$tmp/$b/stdout.txt" > "$tmp/$b.stdout"
    mv "$tmp/$b.stdout" "$tmp/$b/stdout.txt"
  fi
  for csv in "$tmp/$b"/results/*.csv; do mv "$csv" "$tmp/results/"; done
  rm -rf "$tmp/$b/results"
  (cd "$tmp" && find "$b" -type f | sort | xargs sha256sum) >> "$tmp/bytes.sha256"
  rm -rf "${tmp:?}/$b"
  benches=$((benches + 1))
done
[ "$benches" -gt 0 ] || { echo "FAIL: no benches in $BENCH_DIR"; exit 1; }

differing=()
while read -r status path hash; do
  case $status in
    differs) echo "FAIL: ${path%%/*} wrote a different ${path#*/}" ;;
    new)     echo "FAIL: ${path%%/*} wrote ${path#*/}, which the manifest lacks" ;;
    gone)    echo "FAIL: ${path%%/*} no longer writes ${path#*/}" ;;
  esac
  [ "$status" = gone ] || echo "  now: $hash  $path"
  differing+=("$path")
done < <(awk 'FILENAME == ARGV[1] { want[$2] = $1; next }
              !($2 in want) { print "new", $2, $1; next }
              want[$2] != $1 { print "differs", $2, $1 }
              { delete want[$2] }
              END { for (p in want) print "gone", p, want[p] }' \
           "$MANIFEST" "$tmp/bytes.sha256" | sort -k2)

goldens=("$GOLDEN"/*.csv)
[ "${#goldens[@]}" -gt 0 ] || { echo "FAIL: no CSVs in $GOLDEN"; exit 1; }
for golden in "${goldens[@]}"; do
  name=$(basename "$golden")
  if [ ! -f "$tmp/results/$name" ]; then
    echo "FAIL: no bench wrote results/$name"
    differing+=("results/$name")
  elif ! cmp -s "$golden" "$tmp/results/$name"; then
    echo "FAIL: results/$name differs from the committed copy"
    differing+=("results/$name")
  fi
done
if [ "${#differing[@]}" -gt 0 ]; then
  echo "results gate: ${#differing[@]} file(s) differ"
  echo "If the change is meant to move them, re-pin results/ (the \"now:\""
  echo "lines above are the new manifest lines) in a separate commit whose"
  echo "message says what moved and why."
  exit 1
fi
echo "results gate: PASS ($benches benches, $(wc -l < "$tmp/bytes.sha256")" \
     "hashes and ${#goldens[@]} CSVs byte-identical)"
