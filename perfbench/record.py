#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and records the results.

    python3 perfbench/record.py --label <text> [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--out perfbench/results.json]

Run it from the repository root. For every workload it makes --runs
untraced runs through perfbench/run.py, each with the next seed, visiting
the workloads round-robin so slow phases of the machine spread across all
of them, then one traced run on the first seed. For each end-to-end metric
it reports the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.

The output file keeps every batch ever recorded: each call appends one,
with its label, the machine, the benchmark's source hash, those numbers and
the traced per-layer metrics (trace_overhead_frac among them). The new
batch is then compared with the previous batch of the same source hash:
a metric agrees when its median is not worse by more than its bound.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "perfbench" / "CMakeCache.txt"
SOURCES = ("CMakeLists.txt", "main.cpp", "trace.cpp", "trace.hpp",
           "workloads.cpp", "workloads.hpp")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_hash():
    """First 12 hex digits of the SHA-256 of the benchmark's sources."""
    h = hashlib.sha256()
    for name in SOURCES:
        h.update(name.encode() + b"\0" + (HERE / name).read_bytes())
    return h.hexdigest()[:12]


def machine():
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = CACHE.read_text(encoding="utf-8") if CACHE.is_file() else ""

    def cached(key):
        m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    compiler = cached("CMAKE_CXX_COMPILER") or "c++"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    # perfbench/CMakeLists.txt builds Release when the cache leaves it empty.
    build_type = cached("CMAKE_BUILD_TYPE") or "Release"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": version,
            "build_type": build_type}


def summarize(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def compare(first, second, spec):
    """Per workload and metric: how much worse the second median is than
    the first, as a share of the first (negative when better)."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for w, b in second["workloads"].items():
        if w not in first["workloads"]:
            continue
        out[w] = {}
        for name, s in b["end_to_end"].items():
            a = first["workloads"][w]["end_to_end"][name]["median"]
            worse = (s["median"] - a) / a
            if better[name] == "higher":
                worse = -worse
            out[w][name] = {"first": a, "second": s["median"],
                            "worse_by": worse, "bound": s["bound"],
                            "agree": worse <= s["bound"]}
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=str(HERE / "results.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    results = {w: [] for w in workloads}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for seed in seeds:
        for w in workloads:
            r = run(w, seed, seconds, 0)
            results[w].append(r)
            values = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
            print(f"{w} seed={seed} correct={r['correct']} {values}",
                  flush=True)

    batch = {
        "label": args.label,
        "started": started,
        "source_hash": source_hash(),
        "seeds": seeds,
        "run_seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    for w in workloads:
        runs = results[w]
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **summarize(values, m["bound"])}
        traced = run(w, seeds[0], seconds, 1)
        batch["workloads"][w] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "traced": {"seed": seeds[0],
                       "correct": traced["correct"],
                       "per_layer": {k: v["value"] for k, v in
                                     traced["metrics"].items()}},
        }
        for name, s in e2e.items():
            print(f"{w:20s} {name:20s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound/3={s['bound'] / 3:.4f} "
                  f"{'ok' if s['steady'] else 'WIDE'}")

    out = Path(args.out)
    record = (json.loads(out.read_text(encoding="utf-8")) if out.is_file()
              else {"batches": []})
    earlier = [b for b in record["batches"]
               if b.get("source_hash") == batch["source_hash"]]
    if earlier:
        batch["against_previous"] = compare(earlier[-1], batch, spec)
        for w, metrics in batch["against_previous"].items():
            for name, c in metrics.items():
                print(f"{w:20s} {name:20s} {c['first']:.6g} -> "
                      f"{c['second']:.6g} worse_by={c['worse_by']:+.4f} "
                      f"bound={c['bound']} "
                      f"{'agree' if c['agree'] else 'DISAGREE'}")
    record["batches"].append(batch)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(record['batches'])} batches)")


if __name__ == "__main__":
    main()
