"""Measure the benchmark's baseline and its run-to-run spread.

    python3 bench/baseline.py [--sets 2] [--runs 10] [--workload NAME ...]

Runs every workload ``--runs`` times per set, each in a fresh process and
on its own seed, then once traced, and writes ``baseline.json``: Python
version, CPU count, each end-to-end metric's quartiles per set, its spread
(interquartile range over median) against the bound in BENCHMARK.json, the
drift of the second set's median from the first's, and the traced
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: {result['failed']} failed ops\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", nargs="*")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sets = []
    for s in range(args.sets):
        seeds = list(range(1 + s * args.runs, 1 + (s + 1) * args.runs))
        per_wl = {}
        for name in names:
            runs = [one_run(name, seed, seconds, 0)["metrics"] for seed in seeds]
            per_wl[name] = {k: summary([r[k]["value"] for r in runs]) for k in bounds}
            for k, m in per_wl[name].items():
                print(f"set {s + 1} {name:13s} {k:17s} median {m['median']:12.6g} "
                      f"spread {m['spread']:.4f} (bound {bounds[k]['bound']})", flush=True)
        sets.append({"seeds": seeds, "end_to_end": per_wl})
    checks = {}
    for name in names:
        checks[name] = {}
        for k, b in bounds.items():
            first = sets[0]["end_to_end"][name][k]
            entry = {"spread_within_bound": all(
                st["end_to_end"][name][k]["spread"] <= b["bound"] for st in sets)}
            if len(sets) > 1:
                second = sets[1]["end_to_end"][name][k]["median"]
                worse = (first["median"] - second) if b["better"] == "higher" \
                    else (second - first["median"])
                entry["second_median_worse_by"] = worse / first["median"]
                entry["within_bound"] = entry["second_median_worse_by"] <= b["bound"]
            checks[name][k] = entry
    traced = {name: {k: v["value"] for k, v in one_run(name, 1, seconds, 1)["metrics"].items()}
              for name in names}
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "run_seconds": seconds,
           "runs_per_set": args.runs, "sets": sets, "checks": checks,
           "per_layer_seed_1": traced}
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    bad = [(n, k) for n, c in checks.items() for k, e in c.items()
           if not e["spread_within_bound"] or not e.get("within_bound", True)]
    print("outside bounds:", bad or "none")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
