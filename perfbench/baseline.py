#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise each
end-to-end metric by its median, quartiles and spread (the distance between
the quartiles as a share of the median).

    python3 perfbench/baseline.py --seeds 0-9 [--workloads jump2d,bump_finite] [--write]

``--write`` stores the summary in ``perfbench/baseline.json``, the recorded
baseline that later changes are compared against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seconds = str(BENCHMARK["run_seconds"])

    summary = {"run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in BENCHMARK["end_to_end"]}
        for seed in range(first, last + 1):
            cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, proc.returncode, result["correct"],
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary["workloads"][workload] = {name: summarise(v) for name, v in values.items()}
        for metric in BENCHMARK["end_to_end"]:
            s = summary["workloads"][workload][metric["name"]]
            print(f"{workload:12s} {metric['name']:12s} median {s['median']:.4f} {metric['unit']}"
                  f"  spread {s['spread']:.4f} (bound {metric['bound']})", flush=True)
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
