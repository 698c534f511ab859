#!/usr/bin/env bash
# Chaos-campaign resilience gate: run the reference PDU-brownout campaign
# (bench_chaos_campaigns), check the --resilience-out scorecard is
# byte-identical across reruns and --jobs values — and so is every other
# artifact the bench writes (--metrics-out, --flight-out, --slo-report-out,
# --energy-out): the one bench that nests ScenarioRunner and FleetSim
# telemetry contexts in one process. Then gate on the scores:
# the health-managed coordinator must burn strictly less SLO error budget
# during the fault than the health-disabled baseline, must actually detect
# the fault, and must recover within a pinned MTTR bound. Last, the
# --summary-out JSON must parse and carry a campaign's stage name intact,
# even one that holds quotes and runs past 160 bytes. Registered as the
# `chaos` CTest label; scripts/check.sh runs it via ctest.
#
# Usage: check_resilience.sh <bench_chaos_campaigns_binary>
set -euo pipefail

BENCH="${1:?usage: check_resilience.sh <bench_chaos_campaigns>}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every artifact of one run, under a name prefix.
artifacts() {
  local prefix="$1"
  shift
  "$BENCH" --resilience-out "$tmp/$prefix.resilience.json" \
    --metrics-out "$tmp/$prefix.metrics.prom" \
    --flight-out "$tmp/$prefix.flight.jsonl" \
    --slo-report-out "$tmp/$prefix.slo.json" \
    --energy-out "$tmp/$prefix.energy.json" "$@"
}

artifacts jobs1 --jobs 1 --summary-out "$tmp/jobs1.summary.json" \
  > "$tmp/out.txt"
scorecard="$tmp/jobs1.resilience.json"
[ -s "$scorecard" ] || { echo "FAIL: resilience.json empty"; exit 1; }

if grep -q FAIL "$tmp/out.txt"; then
  echo "FAIL: bench shape checks failed"
  sed 's/^/  | /' "$tmp/out.txt"
  exit 1
fi

# Determinism: a rerun and a parallel run must produce the same bytes.
"$BENCH" --resilience-out "$tmp/rerun.json" --jobs 1 > /dev/null
cmp "$scorecard" "$tmp/rerun.json" \
  || { echo "FAIL: two identical runs wrote different scorecards"; exit 1; }
artifacts jobs4 --jobs 4 > /dev/null
for a in resilience.json metrics.prom flight.jsonl slo.json energy.json; do
  cmp "$tmp/jobs1.$a" "$tmp/jobs4.$a" \
    || { echo "FAIL: --jobs 4 $a differs from --jobs 1"; exit 1; }
done

# Scorecard gates.
by() {
  jq -r ".campaigns[] | select(.variant == \"$1\") | .$2" "$scorecard"
}
base_burn=$(by baseline slo_burn_during)
hard_burn=$(by hardened slo_burn_during)
base_detect=$(by baseline detected_at_s)
hard_detect=$(by hardened detected_at_s)
hard_mttr=$(by hardened mttr_s)

awk -v h="$hard_burn" -v b="$base_burn" 'BEGIN { exit !(h < b) }' \
  || { echo "FAIL: hardened burn $hard_burn not < baseline $base_burn"; exit 1; }
awk -v d="$hard_detect" 'BEGIN { exit !(d >= 0) }' \
  || { echo "FAIL: hardened coordinator never detected the fault"; exit 1; }
awk -v d="$base_detect" 'BEGIN { exit !(d < 0) }' \
  || { echo "FAIL: health-disabled baseline claims a detection"; exit 1; }
awk -v m="$hard_mttr" 'BEGIN { exit !(m >= 0 && m <= 120) }' \
  || { echo "FAIL: hardened MTTR $hard_mttr outside [0, 120] s"; exit 1; }

# Summary: valid JSON with the stages, whatever their names hold.
jq -e '.resilience | length > 0' "$tmp/jobs1.summary.json" >/dev/null \
  || { echo "FAIL: summary lacks the resilience stages"; exit 1; }
stage="pdu \"A\" brownout $(printf 'x%.0s' $(seq 150))"
jq -n --arg stage "$stage" '{
  name: "quoted_stage",
  topology: {racks: 1, pdus_per_rack: 2, rigs_per_pdu: 2},
  periods: 40,
  stages: [{name: $stage, node: "rack0/pdu0",
            fault: {kind: "brownout", start_s: 40.0, duration_s: 40.0,
                    magnitude: 0.12}}]
}' > "$tmp/quoted_stage.json"
"$BENCH" --campaign "$tmp/quoted_stage.json" \
  --summary-out "$tmp/quoted.summary.json" > /dev/null
jq -e --arg stage "$stage" '.resilience[0].stage == $stage' \
  "$tmp/quoted.summary.json" >/dev/null \
  || { echo "FAIL: summary lost the ${#stage}-byte stage name"; exit 1; }

echo "resilience gate: PASS (burn $hard_burn < $base_burn during the fault, MTTR $hard_mttr s)"
