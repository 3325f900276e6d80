#!/usr/bin/env python3
"""Benchmark of baireext: scenario runs as ``baireext run`` makes them.

    python3 perfbench/run.py --workload jump2d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

Load model: closed loop, one caller.  Passes run one at a time, each in a
fresh child process (``child.py``), so the child's ``ru_maxrss`` belongs to
that pass.  Every child is pinned to one CPU (the highest this process may
use) and its OpenBLAS/OpenMP pools to one thread, so the child never waits
for a thread of its own.  The seed reaches the program only as
``ScenarioConfig.seed``.

Every invocation first runs the correctness gate: S0-S3 once at their
default grid, untimed.  Those runs and every timed run are checked against
``references.json`` (verdict, each report's status and the SHA-256 of the
field artifact; diagnostics and other manifest keys are not compared).  A
run fails when it raises, exits non-zero or differs from its reference.

The gate also warms the file cache and memory before anything is timed.
Timed passes then run back to back; no pass starts unless the invocation,
gate included, is expected to end within ``--seconds`` (the longest pass so
far is the estimate).  After each pass, two children import ``baireext``
and time the calibration kernel, so set-up and host speed are sampled across
the whole run.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median wall time of
one pass, summed over its ``run_scenario`` calls, less the time the host took
the child's CPU away meanwhile: the steal time of that CPU in ``/proc/stat``),
``setup_s`` (median time from starting a child interpreter until ``import
baireext`` returns) and ``peak_rss_mb`` (median over passes), plus
``failed_share``, which the last line carries as ``failed``/``attempted``.

Both times are given in reference seconds: each is scaled by
``CAL_REF_S / c``, where ``c`` is the median CPU time ``child.calibrate``, a
fixed kernel that does not touch baireext, took in the run's set-up children.
On a shared host the speed of a CPU drifts by 20-40% over minutes with the
load of the other guests, and the drift moves the program and the kernel
alike; the scale takes it out, while a change to baireext moves only the
program.  Steal time, likewise, is how busy the other guests were, not how
long the program took.  The raw medians, the calibration median and the
wall time and steal of each pass are printed on comment lines.
``--trace 1`` alternates traced and untraced passes and prints the per-layer
metrics of ``tracing.py`` plus ``trace.overhead_s``, the traced minus the
untraced median ``wall_s``.  Computed metrics (counts, bytes, ratios of
counts) must repeat exactly between the traced passes; if one does not, the
run reports itself as not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, is_computed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

# A run is (scenario, grid, norm, field format), run with the workload seed.
GATE = [(name, 201, "linf", "csv") for name in ("S0", "S1", "S2", "S3")]

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "jump2d": [("S1", 201, "linf", "csv")],
    "blowup1d": [("S3", 3201, "linf", "json"), ("S3", 3201, "l2", "json")],
    "bump_finite": [
        ("S2", grid, norm, "csv") for grid in (41, 81, 121, 161, 201) for norm in ("linf", "l2")
    ],
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
CAL_REF_S = 0.3  # calibration time that defines a reference second
TRACE_METRICS = LAYER_METRICS + (("trace.overhead_s", "s"),)

SETUPS_PER_PASS = 2
DEADLINE_S = 170.0  # every child is stopped by then; the whole run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_key(run) -> str:
    name, grid, norm, fmt = run
    return f"{name}@{grid}/{norm}/{fmt}"


def reference_for(refs: dict, run, seed: int):
    return refs["runs"].get(run_key(run), {}).get(str(seed % refs["seed_period"]))


def mismatch(rec: dict, ref) -> str | None:
    """Why a run counts as failed, or None when it matches its reference."""
    if ref is None:
        return "no reference recorded"
    if rec["error"]:
        return rec["error"]
    if rec["exit_code"] != 0:
        return f"exit code {rec['exit_code']}"
    for key in ("verdict", "statuses", "field_sha256"):
        if rec[key] != ref[key]:
            return f"{key} {rec[key]!r} differs from the reference {ref[key]!r}"
    return None


BENCH_CPU = max(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(spec: dict, deadline: float):
    """Run one child to completion; returns (start time, result or None, error)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - started, 1.0),
            preexec_fn=lambda: os.sched_setaffinity(0, {BENCH_CPU}),
        )
    except subprocess.TimeoutExpired:
        return started, None, "child stopped at the deadline"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return started, None, f"child exited with {proc.returncode}: {tail[0]}"
    return started, json.loads(proc.stdout.strip().splitlines()[-1]), None


class Ledger:
    """Attempted and failed runs of one invocation, with the reasons."""

    def __init__(self, refs: dict, seed: int):
        self.refs, self.seed = refs, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, runs, result, error) -> None:
        self.attempted += len(runs)
        if result is None:
            self.failed += len(runs)
            self.problems.append(f"{len(runs)} run(s) lost: {error}")
            return
        for rec in result["runs"]:
            why = mismatch(rec, reference_for(self.refs, rec["run"], self.seed))
            if why is not None:
                self.failed += 1
                self.problems.append(f"{run_key(rec['run'])} seed {self.seed}: {why}")


def percentile_beyond(values: list[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it, as
    (percent, value), or None when there are too few samples."""
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def combine_layers(layers: list[dict]) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over the traced passes, and a problem
    for every computed metric that did not repeat exactly."""
    metrics, broken = {}, []
    for name, unit in LAYER_METRICS:
        values = [lay[name] for lay in layers]
        if is_computed(unit) and len(set(values)) > 1:
            broken.append(f"computed metric {name} differs between passes: {values}")
        metrics[name] = statistics.median(values)
    return metrics, broken


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark invocation for one workload; returns the report."""
    runs = WORKLOADS[workload]
    refs = json.loads(REFERENCES.read_text())
    shutil.rmtree(WORK / "out", ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    deadline = t0 + DEADLINE_S
    ledger = Ledger(refs, seed)
    out = str(WORK / "out")

    # the gate also compiles bytecode and warms the file cache before anything is timed
    ledger.record(GATE, *launch({"runs": GATE, "seed": seed, "out": out}, deadline)[1:])

    walls: dict[bool, list[float]] = {False: [], True: []}
    passes = {False: 0, True: 0}
    setups, cals, rss, threads, layers, modules, span_files = [], [], [], [], [], set(), []
    elapsed, stolen = [], []
    longest = 0.0
    for traced in itertools.cycle((True, False)) if trace else itertools.repeat(False):
        now = time.perf_counter()
        enough = now - t0 + longest > seconds and (
            passes[False] >= 1 and (not trace or passes[True] >= 2)
        )
        if enough or now + longest > deadline:
            break
        spec = {"runs": runs, "seed": seed, "out": out, "trace": None}
        if traced:
            spec["trace"] = str(WORK / f"spans-{workload}-seed{seed}-{passes[True]}.json")
            span_files.append(spec["trace"])
        started, res, err = launch(spec, deadline)
        passes[traced] += 1
        ledger.record(runs, res, err)
        for _ in range(SETUPS_PER_PASS):
            begun, ready, _err = launch({}, deadline)
            if ready is not None:
                setups.append(ready["ready"] - begun)
                cals.append(ready["cal_s"])
        longest = max(longest, time.perf_counter() - started)
        if res is None:
            continue
        walls[traced].append(res["wall_s"])
        threads.append(res["threads"])
        if traced:
            layers.append(res["layers"])
            modules.update(res["span_modules"])
        else:
            rss.append(res["peak_rss_mb"])
            elapsed.append(res["elapsed_s"])
            stolen.append(res["steal_s"])

    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    broken: list[str] = []
    raw: dict[str, float] = {}
    scale = CAL_REF_S / statistics.median(cals) if cals else None
    if not trace:
        units = dict(END_TO_END)
        series = {"wall_s": walls[False], "setup_s": setups, "peak_rss_mb": rss}
        for name, values in series.items():
            if values and scale is not None:
                raw[name] = statistics.median(values)
                metrics[name] = raw[name] * (scale if name.endswith("_s") else 1.0)
                samples[name] = len(values)
        if cals:
            raw["calibration_s"] = statistics.median(cals)
    else:
        if layers:
            metrics, broken = combine_layers(layers)
            samples = dict.fromkeys(metrics, len(layers))
        if walls[True] and walls[False]:
            metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
            samples["trace.overhead_s"] = len(walls[True]) + len(walls[False])
        units = dict(TRACE_METRICS)
    if trace and passes[True] < 2:
        broken.append("fewer than two traced passes: computed metrics were not cross-checked")
    missing = [name for name in units if name not in metrics]
    if missing:
        broken.append(f"no value for {', '.join(missing)}")
    if any(t > 1 for t in threads):
        broken.append(f"a child pinned to one CPU ran {max(threads)} threads")

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "units": units,
        "samples": samples,
        "walls": walls,
        "raw": raw,
        "scale": scale,
        "elapsed": elapsed,
        "stolen": stolen,
        "ledger": ledger,
        "broken": broken,
        "span_modules": sorted(modules),
        "span_files": span_files,
    }


def print_report(rep: dict) -> None:
    ledger = rep["ledger"]
    print(f"# perfbench workload={rep['workload']} seed={rep['seed']} trace={int(rep['trace'])}")
    print(f"# runs: {', '.join(run_key(r) for r in WORKLOADS[rep['workload']])}")
    print(f"# gate: {', '.join(run_key(r) for r in GATE)}")
    for name, unit in rep["units"].items():
        kind = "computed" if is_computed(unit) else "measured"
        if name not in rep["metrics"]:
            print(f"{name:32s} {'-':>16s} {unit:10s} {kind}  no sample")
            continue
        note = f"median of {rep['samples'][name]}"
        if name == "wall_s":
            tail = percentile_beyond(rep["walls"][False])
            note += (
                f"; p{tail[0]:.0f} {tail[1] * rep['scale']:.4f} s" if tail else "; no percentile has 10 samples beyond it"
            )
        print(f"{name:32s} {rep['metrics'][name]:16.6f} {unit:10s} {kind}  {note}")
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(
        f"{'failed_share':32s} {share:16.6f} {'share':10s} computed  "
        f"{ledger.failed} failed of {ledger.attempted} runs"
    )
    walls = rep["walls"]
    print(f"# untraced passes (s): {[round(w, 4) for w in walls[False]]}")
    if not rep["trace"]:
        print(f"# raw medians before scaling to reference seconds (s): {rep['raw']}")
        print(f"# wall time as it was (s): {[round(w, 4) for w in rep['elapsed']]}")
        print(f"# stolen from the child's CPU (s): {[round(w, 2) for w in rep['stolen']]}")
    if rep["trace"]:
        print(f"# traced passes (s): {[round(w, 4) for w in walls[True]]}; span modules: {rep['span_modules']}")
        print(f"# spans written to {', '.join(rep['span_files'])}")
    for line in ledger.problems + rep["broken"]:
        print(f"# PROBLEM: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="baireext benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "baireext" / "__init__.py").is_file():
        print(f"no baireext sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"missing {REFERENCES}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for rep in reports:
        print_report(rep)
    attempted = sum(rep["ledger"].attempted for rep in reports)
    failed = sum(rep["ledger"].failed for rep in reports)
    correct = failed == 0 and not any(rep["broken"] for rep in reports)
    metrics = {}
    for rep in reports:
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        for name, value in rep["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": rep["units"][name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
