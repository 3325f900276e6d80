"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Uses a one-run workload (S0 at its default grid, whose reference the gate
already records) so that a full invocation takes seconds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracing import LAYER_METRICS, MODULES  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = [("S0", 201, "linf", "csv")]


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    return "tiny"


def test_tampered_field_artifact_counts_as_failure(tmp_path):
    import child

    refs = json.loads(run.REFERENCES.read_text())
    rec = child.execute(TINY[0], 3, tmp_path)
    clean = run.Ledger(refs, 3)
    clean.record(TINY, {"runs": [rec]}, None)
    assert (clean.attempted, clean.failed) == (1, 0), clean.problems

    field = tmp_path / "S0_field.csv"
    field.write_bytes(field.read_bytes().replace(b"0", b"1", 1))
    rec["field_sha256"] = child.field_digest(tmp_path, "S0", "csv")
    tampered = run.Ledger(refs, 3)
    tampered.record(TINY, {"runs": [rec]}, None)
    assert (tampered.attempted, tampered.failed) == (1, 1)
    assert "field_sha256" in tampered.problems[0]


def test_computed_metric_that_moves_breaks_the_run():
    layers = [{name: 1 for name, _ in LAYER_METRICS} for _ in range(2)]
    assert run.combine_layers(layers)[1] == []
    layers[1]["space.refine_pair_evals"] = 2
    layers[1]["space.refine_s"] = 2.0  # a time may vary
    broken = run.combine_layers(layers)[1]
    assert len(broken) == 1 and "space.refine_pair_evals" in broken[0]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_by_name_with_its_unit(tiny_workload, capsys, trace, section):
    args = ["--workload", tiny_workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(run.GATE) + 1
    assert {m["name"] for m in BENCHMARK[section]} == set(result["metrics"])
    for metric in BENCHMARK[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [metric["name"]]]
        assert len(printed) == 1 and metric["unit"] in printed[0].split()
    assert any(ln.startswith("failed_share ") for ln in lines)


def test_traced_run_spans_every_module(tiny_workload):
    rep = run.measure(tiny_workload, 2, 0.1, True)
    assert rep["span_modules"] == sorted(MODULES)
    assert not rep["broken"] and rep["ledger"].failed == 0
    for path in rep["span_files"]:
        spans = json.loads(Path(path).read_text())["spans"]
        assert {s[0].split(".")[0] for s in spans} == set(MODULES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "jump2d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
