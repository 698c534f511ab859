#!/usr/bin/env bash
# Performance report: builds Release, runs the engine, pipeline,
# control-solve (including its railed, cap-unreachable phase) and fleet
# self-perf microbenchmarks, then times one parallel sweep
# (bench_fig6_setpoint_sweep) at --jobs 1 vs --jobs $(nproc) and verifies
# the outputs are byte-identical. Everything lands in BENCH_perf.json; the
# format is documented in docs/performance.md.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_perf.json}"
JOBS="$(nproc)"

cmake --preset release >/dev/null
cmake --build build-release -j"$JOBS" \
  --target bench_engine_selfperf bench_pipeline_selfperf \
  bench_control_selfperf bench_fleet_selfperf \
  bench_fig6_setpoint_sweep >/dev/null

echo "==== engine self-perf (Release)"
./build-release/bench/bench_engine_selfperf --out "$OUT.selfperf"

echo "==== pipeline self-perf (Release)"
./build-release/bench/bench_pipeline_selfperf --out "$OUT.pipeline"

echo "==== control self-perf (Release)"
./build-release/bench/bench_control_selfperf --reps 15 --out "$OUT.control"

echo "==== fleet self-perf (Release)"
./build-release/bench/bench_fleet_selfperf --reps 3 --out "$OUT.fleet"

echo "==== fig6 sweep: --jobs 1 vs --jobs $JOBS"
run_sweep() { # $1 = jobs, $2 = output file; prints elapsed seconds
  local t0 t1
  t0=$(date +%s.%N)
  ./build-release/bench/bench_fig6_setpoint_sweep --jobs "$1" > "$2"
  t1=$(date +%s.%N)
  echo "$t0 $t1" | awk '{printf "%.3f", $2 - $1}'
}
seq_s=$(run_sweep 1 /tmp/fig6_jobs1.out)
par_s=$(run_sweep "$JOBS" /tmp/fig6_jobsN.out)

if ! diff -q /tmp/fig6_jobs1.out /tmp/fig6_jobsN.out >/dev/null; then
  echo "FAIL: sweep output differs between --jobs 1 and --jobs $JOBS" >&2
  diff /tmp/fig6_jobs1.out /tmp/fig6_jobsN.out | head >&2
  exit 1
fi
echo "  byte-identical output: PASS"
echo "  sequential ${seq_s}s, parallel (${JOBS} jobs) ${par_s}s"

jq --argjson seq "$seq_s" --argjson par "$par_s" --argjson jobs "$JOBS" \
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
                         byte_identical: true}}' \
  "$OUT.selfperf" > "$OUT"
rm -f "$OUT.selfperf" "$OUT.pipeline" "$OUT.control" "$OUT.fleet"
echo "  [perf] $OUT"
