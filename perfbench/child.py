"""One benchmark child process.

    python3 perfbench/child.py '<json spec>'

The parent (``run.py``) starts a fresh child for every pass, so the child's
own ``ru_maxrss`` is the peak memory of that pass.  The parent pins the child
to one CPU, so the steal time of that CPU in ``/proc/stat`` is the time the
host took the CPU away from the child.  The first thing the child
does is ``import baireext``; the monotonic time at which that import returns
is reported as ``ready`` and the parent subtracts the time at which it
started the child.

Spec keys: ``runs`` (list of ``[scenario, grid, norm, format]``), ``seed``,
``out`` (artifact directory) and ``trace`` (spans file, or null for an
untraced pass).  Without ``runs`` the child reports ``ready`` and then times
``calibrate``, a fixed kernel that does not touch baireext, so the parent can
tell how fast the host was between passes.  The result is one JSON object on
the last line of standard output.
"""
import time

import baireext  # noqa: F401  -- set-up ends when this import returns

READY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from baireext import cli  # noqa: E402
from baireext.scenarios import ScenarioConfig  # noqa: E402


def field_digest(out_dir: Path, name: str, fmt: str):
    """SHA-256 of the field artifact, or None when the run wrote none."""
    path = out_dir / f"{name}_field.{fmt}"
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def calibrate() -> float:
    """CPU time of a fixed mix of the kinds of work a pass does: a Python
    loop, many numpy calls on small arrays and elementwise numpy over arrays
    larger than the caches.  It takes about 0.3 s on a 2 GHz Xeon.  CPU time
    leaves out time stolen by the host, as ``wall_s`` does."""
    start = time.process_time()
    total = 0
    for i in range(400_000):
        total += i * i
    small = np.linspace(0.0, 1.0, 64)
    for _ in range(50_000):
        total += float(np.minimum(small, 0.5).sum())
    big = np.linspace(0.0, 1.0, 4_000_000)
    for _ in range(2):
        total += float(np.sqrt(big * big + 1.0)[-1])
    return time.process_time() - start


def stolen_seconds() -> float:
    """Steal time so far of the CPUs this process may run on: time the host
    kept them from running while they had work.  0.0 where the kernel does
    not report it."""
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def execute(run, seed: int, out_dir: Path) -> dict:
    """One ``run_scenario`` call as ``baireext run`` makes it; only the call
    itself is timed.  ``wall_s`` is its wall time less the time stolen from
    the child's CPU meanwhile; ``elapsed_s`` is the wall time as it was."""
    name, grid, norm, fmt = run
    for old in out_dir.glob(f"{name}_*"):
        old.unlink()
    cfg = ScenarioConfig(grid=grid, norm=norm, seed=seed)
    rec = {"run": run, "error": None}
    stolen = stolen_seconds()
    start = time.perf_counter()
    try:
        manifest, code = cli.run_scenario(name, cfg, out_dir, fmt)
    except Exception:
        rec["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    rec["elapsed_s"] = time.perf_counter() - start
    rec["steal_s"] = stolen_seconds() - stolen
    rec["wall_s"] = rec["elapsed_s"] - rec["steal_s"]
    if rec["error"]:
        return rec
    rec["exit_code"] = code
    rec["verdict"] = manifest["verdict"]
    rec["statuses"] = [r["status"] for r in manifest["reports"]]
    rec["field_sha256"] = field_digest(out_dir, name, fmt)
    rec["artifact_bytes"] = sum(p.stat().st_size for p in out_dir.glob(f"{name}_*"))
    return rec


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {"ready": READY}
    if spec.get("runs"):
        out_dir = Path(spec["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer = None
        if spec.get("trace"):
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        runs = [execute(run, spec["seed"], out_dir) for run in spec["runs"]]
        result.update(
            runs=runs,
            wall_s=sum(r["wall_s"] for r in runs),
            elapsed_s=sum(r["elapsed_s"] for r in runs),
            steal_s=sum(r["steal_s"] for r in runs),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            threads=thread_count(),
        )
        if tracer is not None:
            tracer.write_spans(Path(spec["trace"]))
            result["layers"] = tracer.layer_metrics(
                sum(r.get("artifact_bytes", 0) for r in runs)
            )
            result["span_modules"] = tracer.span_modules()
    else:
        result["cal_s"] = calibrate()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
