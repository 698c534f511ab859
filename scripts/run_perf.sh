#!/usr/bin/env bash
# Performance report: builds Release, runs the engine, pipeline,
# control-solve (including its railed, cap-unreachable phase) and fleet
# self-perf microbenchmarks, then times one parallel sweep
# (bench_fig6_setpoint_sweep) at --jobs 1 vs --jobs $(nproc) and verifies
# the outputs are byte-identical. Everything lands in BENCH_perf.json; the
# format is documented in docs/performance.md.
#
# A failed gate is data, not an abort: each self-perf bench's exit status
# is recorded under "exit_status" (non-zero = a gate it checks failed) and
# the sweep's byte-identity under parallel_sweep.byte_identical, every
# block is still written, and the script exits 1 at the end if anything
# failed. scripts/check.sh stays the place that enforces the gates.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_perf.json}"
JOBS="$(nproc)"

cmake --preset release >/dev/null
cmake --build build-release -j"$JOBS" \
  --target bench_engine_selfperf bench_pipeline_selfperf \
  bench_control_selfperf bench_fleet_selfperf \
  bench_fig6_setpoint_sweep >/dev/null

failed=()
statuses='{}'
run_bench() { # $1 = report key, $2 = JSON part file, rest = command
  local key=$1 part=$2 rc=0
  shift 2
  echo "==== ${key//_/ } (Release)"
  "$@" || rc=$?
  # A bench that died before writing its report still gets a block.
  [ -s "$part" ] || echo '{}' > "$part"
  statuses=$(jq --arg k "$key" --argjson rc "$rc" '. + {($k): $rc}' \
               <<<"$statuses")
  if [ "$rc" -ne 0 ]; then
    echo "  $key exited $rc: a gate failed (recorded, continuing)" >&2
    failed+=("$key")
  fi
}
run_bench engine_selfperf "$OUT.selfperf" \
  ./build-release/bench/bench_engine_selfperf --out "$OUT.selfperf"
run_bench pipeline_selfperf "$OUT.pipeline" \
  ./build-release/bench/bench_pipeline_selfperf --out "$OUT.pipeline"
run_bench control_selfperf "$OUT.control" \
  ./build-release/bench/bench_control_selfperf --reps 15 --out "$OUT.control"
run_bench fleet_selfperf "$OUT.fleet" \
  ./build-release/bench/bench_fleet_selfperf --reps 3 --out "$OUT.fleet"

echo "==== fig6 sweep: --jobs 1 vs --jobs $JOBS"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run_sweep() { # $1 = jobs, $2 = output file; prints elapsed seconds
  local t0 t1
  t0=$(date +%s.%N)
  ./build-release/bench/bench_fig6_setpoint_sweep --jobs "$1" > "$2"
  t1=$(date +%s.%N)
  echo "$t0 $t1" | awk '{printf "%.3f", $2 - $1}'
}
seq_s=$(run_sweep 1 "$tmp/jobs1.out")
par_s=$(run_sweep "$JOBS" "$tmp/jobsN.out")

identical=true
if ! diff -q "$tmp/jobs1.out" "$tmp/jobsN.out" >/dev/null; then
  echo "FAIL: sweep output differs between --jobs 1 and --jobs $JOBS" >&2
  diff "$tmp/jobs1.out" "$tmp/jobsN.out" | head >&2
  identical=false
  failed+=(parallel_sweep)
else
  echo "  byte-identical output: PASS"
fi
echo "  sequential ${seq_s}s, parallel (${JOBS} jobs) ${par_s}s"

jq --argjson seq "$seq_s" --argjson par "$par_s" --argjson jobs "$JOBS" \
  --argjson identical "$identical" --argjson statuses "$statuses" \
  --slurpfile pipeline "$OUT.pipeline" \
  --slurpfile control "$OUT.control" \
  --slurpfile fleet "$OUT.fleet" \
  '. + $pipeline[0] + $control[0] + $fleet[0]
     + {parallel_sweep: {bench: "bench_fig6_setpoint_sweep",
                         scenarios: 35,
                         jobs: $jobs,
                         sequential_s: $seq,
                         parallel_s: $par,
                         speedup: (if $par > 0 then $seq / $par else 0 end),
                         byte_identical: $identical},
        exit_status: $statuses}' \
  "$OUT.selfperf" > "$OUT"
rm -f "$OUT.selfperf" "$OUT.pipeline" "$OUT.control" "$OUT.fleet"
echo "  [perf] $OUT"

if [ "${#failed[@]}" -ne 0 ]; then
  echo "FAIL: ${failed[*]} (see exit_status in $OUT)" >&2
  exit 1
fi
