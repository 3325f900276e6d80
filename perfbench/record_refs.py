#!/usr/bin/env python3
"""Record ``references.json``: the verdict, each report's status and the
SHA-256 of the field artifact of every run the benchmark makes.

    python3 perfbench/record_refs.py

Run it only at a commit whose artifacts are known to be right: the benchmark
counts every later difference from these references as a failed run.

S1 offsets its background grid by ``seed % 5`` and no other scenario reads
the seed, so a run's artifacts depend on the seed only through its residue
mod 5.  References are recorded for seeds 0-4, and seeds 5-9 are run as well
to check that they reproduce the references of their residues; the benchmark
then accepts any integer seed.
"""
from __future__ import annotations

import json
import sys
import time

from run import GATE, REFERENCES, WORK, WORKLOADS, launch, run_key

SEED_PERIOD = 5


def outcomes(seed: int) -> dict[str, dict]:
    runs = list(dict.fromkeys(GATE + [r for runs in WORKLOADS.values() for r in runs]))
    spec = {"runs": runs, "seed": seed, "out": str(WORK / "record")}
    _, result, error = launch(spec, time.perf_counter() + 1800.0)
    if result is None:
        raise SystemExit(f"seed {seed}: {error}")
    table = {}
    for rec in result["runs"]:
        if rec["error"] or rec["exit_code"] != 0:
            raise SystemExit(f"seed {seed}: {run_key(rec['run'])} failed: {rec}")
        table[run_key(rec["run"])] = {
            "verdict": rec["verdict"],
            "statuses": rec["statuses"],
            "field_sha256": rec["field_sha256"],
        }
    return table


def main() -> int:
    WORK.mkdir(exist_ok=True)
    by_residue = {r: outcomes(r) for r in range(SEED_PERIOD)}
    for seed in range(SEED_PERIOD, 2 * SEED_PERIOD):
        if outcomes(seed) != by_residue[seed % SEED_PERIOD]:
            print(f"seed {seed} differs from seed {seed % SEED_PERIOD}", file=sys.stderr)
            return 1
    runs = {
        key: {str(r): by_residue[r][key] for r in range(SEED_PERIOD)}
        for key in by_residue[0]
    }
    REFERENCES.write_text(
        json.dumps({"seed_period": SEED_PERIOD, "runs": runs}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {REFERENCES} ({len(runs)} runs x {SEED_PERIOD} residues)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
