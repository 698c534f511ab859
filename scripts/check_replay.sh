#!/usr/bin/env bash
# Flight-recorder smoke: record a closed-loop bench run with --flight-out,
# check the log is byte-identical across reruns and --jobs values (the
# ordered parallel merge must not leak scheduling), then feed it to
# capgpu_ctl_replay, which re-solves every recorded period and asserts the
# caps reproduce bit-identically and pass the QP's KKT certificate. The
# smoke also requires that periods were re-solved at all: a log without MPC
# state makes replay exit 3, and a PASS over zero periods proves nothing.
# Registered as the `flight` CTest label; scripts/check.sh runs it via
# ctest.
#
# Usage: check_replay.sh <bench_binary> <capgpu_ctl_replay_binary>
set -euo pipefail

BENCH="${1:?usage: check_replay.sh <bench> <capgpu_ctl_replay>}"
REPLAY="${2:?usage: check_replay.sh <bench> <capgpu_ctl_replay>}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$BENCH" --flight-out "$tmp/flight.jsonl" --jobs 1 > /dev/null
[ -s "$tmp/flight.jsonl" ] || { echo "FAIL: flight.jsonl empty"; exit 1; }

# Determinism: a rerun and a parallel run must produce the same bytes.
"$BENCH" --flight-out "$tmp/rerun.jsonl" --jobs 1 > /dev/null
cmp "$tmp/flight.jsonl" "$tmp/rerun.jsonl" \
  || { echo "FAIL: two identical runs wrote different flight logs"; exit 1; }
"$BENCH" --flight-out "$tmp/jobs2.jsonl" --jobs 2 > /dev/null
cmp "$tmp/flight.jsonl" "$tmp/jobs2.jsonl" \
  || { echo "FAIL: --jobs 2 flight log differs from --jobs 1"; exit 1; }

# Replay: every recorded period must re-solve to bit-identical caps.
"$REPLAY" "$tmp/flight.jsonl" > "$tmp/replay.txt" \
  || { echo "FAIL: capgpu_ctl_replay found drifting periods"; \
       sed 's/^/  | /' "$tmp/replay.txt"; exit 1; }
grep -q "PASS" "$tmp/replay.txt" \
  || { echo "FAIL: replay output missing PASS"; exit 1; }
resolved=$(sed -n 's/^\[replay\] re-solved \([0-9]*\) periods.*/\1/p' \
             "$tmp/replay.txt")
[ "${resolved:-0}" -gt 0 ] \
  || { echo "FAIL: replay re-solved no period"; exit 1; }
grep -q "^\[certificate\] $resolved/$resolved re-solved periods pass" \
     "$tmp/replay.txt" \
  || { echo "FAIL: not every re-solved period passed the certificate"; \
       sed 's/^/  | /' "$tmp/replay.txt"; exit 1; }

# Counterfactual what-ifs must run and report.
"$REPLAY" "$tmp/flight.jsonl" --counterfactual cap=800 \
          --counterfactual horizon=4 > "$tmp/cf.txt"
grep -q "counterfactual. cap=800" "$tmp/cf.txt" \
  || { echo "FAIL: cap counterfactual missing from output"; exit 1; }
grep -q "counterfactual. horizon=4" "$tmp/cf.txt" \
  || { echo "FAIL: horizon counterfactual missing from output"; exit 1; }

echo "replay smoke: PASS"
