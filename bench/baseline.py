#!/usr/bin/env python3
"""Run every workload on several seeds untraced and once traced; write JSON.

    python3 bench/baseline.py --seeds 101-110 --out bench/baseline.json

Each run is the command BENCHMARK.json names, with its ``run_seconds``. For
every end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median that
the bound in BENCHMARK.json is held against. The traced run reports the
per-layer metrics and the tracing overhead.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results, metrics) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / median,
                          "bound": m["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="101-110",
                        help="first-last, inclusive")
    parser.add_argument("--workloads", default=None,
                        help="comma list; default every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, last = (int(s) for s in args.seeds.split("-"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    report = {"environment": {"nproc": len(os.sched_getaffinity(0)),
                              "python": platform.python_version(),
                              "numpy": np.__version__},
              "run_seconds": spec["run_seconds"], "seeds": [first, last],
              "workloads": {}}
    for name in names:
        untraced = []
        for seed in range(first, last + 1):
            untraced.append(run_once(spec, name, seed, 0))
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in untraced[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(spec, name, first, 1)
        report["workloads"][name] = {
            "summary": summary(untraced, spec["end_to_end"]),
            "untraced": untraced, "traced": traced}
        for metric, s in report["workloads"][name]["summary"].items():
            print(f"  {name} {metric}: median {s['median']:.5g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
