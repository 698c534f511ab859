#!/usr/bin/env bash
# Full repository check: configure, build, run the test suite, then every
# bench (each bench prints PASS/FAIL shape checks; any FAIL fails this
# script). Mirrors what CI should run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Warnings are errors here: the default build compiles without one.
cmake -B build -G Ninja -DCAPGPU_WERROR=ON
cmake --build build

ctest --test-dir build -j"$(nproc)" --output-on-failure

# Offline report-tool smoke (also part of the suite above; kept explicit so
# a filtered ctest cache can't silently skip it).
ctest --test-dir build -L report --output-on-failure

# Flight-recorder suite: JSONL round-trip, replay determinism across
# --jobs, and the capgpu_ctl_replay bit-identical re-solve gate.
ctest --test-dir build -L flight --output-on-failure

# Chaos suite: fault-injection / fail-safe / rig-health unit tests plus the
# campaign resilience gate (scorecard determinism across --jobs, hardened
# coordinator strictly better than the health-disabled baseline).
ctest --test-dir build -L chaos --output-on-failure

# Fleet suite: cascade and fleet-sim unit tests plus the fleet_gate
# determinism check (telemetry artifacts byte-identical across shard
# layouts, scorecard stable across --shards).
ctest --test-dir build -L fleet --output-on-failure

# End-to-end benchmark smoke: perfbench/ builds src/ as its own CMake
# project (.bench_build/perfbench), so ctest never compiles it. Run every
# workload for one second and require a correct result with no failed
# operation on the last line of stdout. The 256-rig fleet must also peak
# below 48 MB of RSS (~39 MB measured): each rig's monitors hold only the
# window their consumers read, and its streams record no per-image
# latency monitor. A retention regression (~600 MB when every monitor
# keeps the whole run) or the per-image rings coming back (49–53 MB) fails
# here.
for w in testbed-sweep budget-slash-8gpu fleet-brownout-256; do
  result=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
             --trace 0 | tail -n 1)
  jq -e '.correct == true and .failed == 0' <<<"$result" >/dev/null \
    || { echo "FAIL: perfbench $w: $result" >&2; exit 1; }
  if [ "$w" = fleet-brownout-256 ]; then
    jq -e '.metrics.peak_rss_mb.value < 48' <<<"$result" >/dev/null \
      || { echo "FAIL: perfbench $w peak RSS not below 48 MB: $result" >&2; exit 1; }
  fi
done

# Release perf smoke: the allocation-free control-solve tests plus short
# pipeline and control-solve self-perf runs. Gates on the reports' shape
# (speedup fields present), on the pooled hot path not regressing below the
# legacy pipeline, on every control period of every shape converging and
# passing the QP's KKT certificate, and on every railed (cap-unreachable)
# control period converging; the full-length numbers live in
# BENCH_perf.json via scripts/run_perf.sh. The Release build is warning-free
# too.
cmake --preset release -DCAPGPU_WERROR=ON >/dev/null
cmake --build build-release -j"$(nproc)" >/dev/null
ctest --test-dir build-release -L perf --output-on-failure
./build-release/bench/bench_pipeline_selfperf --reps 3 --out /tmp/check_pipeline.json
jq -e '.pipeline_selfperf.workloads | length > 0 and all(.speedup != null)' \
  /tmp/check_pipeline.json >/dev/null \
  || { echo "FAIL: pipeline_selfperf report missing speedup fields" >&2; exit 1; }
jq -e '.pipeline_selfperf.worst_speedup >= 1.0' /tmp/check_pipeline.json >/dev/null \
  || { echo "FAIL: pooled pipeline slower than legacy (worst_speedup < 1.0)" >&2; exit 1; }
jq -e '.flight_overhead | .overhead_frac <= .budget_frac' /tmp/check_pipeline.json >/dev/null \
  || { echo "FAIL: flight-recorder overhead exceeds the 5% budget" >&2; exit 1; }
jq -e '.energy_overhead | .overhead_frac <= .budget_frac' /tmp/check_pipeline.json >/dev/null \
  || { echo "FAIL: energy-ledger overhead exceeds the 5% budget" >&2; exit 1; }
./build-release/bench/bench_control_selfperf --reps 3 --out /tmp/check_control.json
jq -e '.control_selfperf.configs | length > 0 and all(.kkt_certified)' \
  /tmp/check_control.json >/dev/null \
  || { echo "FAIL: a control period failed to converge or failed the KKT certificate" >&2; exit 1; }
jq -e '.control_selfperf.railed_converged_frac == 1' /tmp/check_control.json >/dev/null \
  || { echo "FAIL: railed control periods ended unconverged (railed_converged_frac < 1)" >&2; exit 1; }
./build-release/bench/bench_fleet_selfperf --reps 2 --out /tmp/check_fleet.json
jq -e '.fleet_selfperf.topologies | length > 0 and all(.deterministic)' \
  /tmp/check_fleet.json >/dev/null \
  || { echo "FAIL: fleet_selfperf sharded run diverged from the serial reference" >&2; exit 1; }
# Speedup gates need real cores; the bench records `workers` so a 1-core
# builder skips them instead of flaking.
jq -e '.fleet_selfperf | (.workers < 2) or (.worst_speedup >= 1.0)' \
  /tmp/check_fleet.json >/dev/null \
  || { echo "FAIL: sharded fleet stepping slower than serial (worst_speedup < 1.0)" >&2; exit 1; }
jq -e '.fleet_selfperf | (.workers < 4) or (.speedup_256 >= 3.0)' \
  /tmp/check_fleet.json >/dev/null \
  || { echo "FAIL: fleet256 sharded speedup below 3x on >= 4 workers" >&2; exit 1; }

status=0
for b in build/bench/*; do
  [ -x "$b" ] && [ ! -d "$b" ] || continue
  echo "==== $(basename "$b")"
  out=$("$b" --benchmark_min_time=0.05 2>&1) || status=1
  echo "$out"
  if grep -q FAIL <<<"$out"; then
    echo "^^^ shape-check FAIL in $(basename "$b")"
    status=1
  fi
done

for e in build/examples/*; do
  [ -x "$e" ] && [ ! -d "$e" ] || continue
  echo "==== example $(basename "$e")"
  "$e" >/dev/null || status=1
done

exit $status
