"""Command-line interface: subcommands, config merging, artifacts and
byte-level determinism."""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import baireext
from baireext.cli import _extension_summary, _merge_config, main, run_scenario
from baireext.extension import build_extension, local_lip_K, select_ceiling
from baireext.pipeline import FunSeqItem
from baireext.scenarios import ConfigError, ScenarioConfig, get_scenario
from baireext.space import SampledSpace


class TestListDescribe:
    def test_list_names_all_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("S0", "S1", "S2", "S3"):
            assert name in out

    def test_describe_s2(self, capsys):
        assert main(["describe", "S2"]) == 0
        out = capsys.readouterr().out
        assert "S2" in out
        assert "UCPC" in out

    def test_describe_unknown_exits_2(self, capsys):
        assert main(["describe", "S9"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestRun:
    def test_run_s0_writes_artifacts(self, tmp_path, capsys):
        code = main(["run", "--scenario", "S0", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "S0: pass" in out
        assert (tmp_path / "S0_field.csv").exists()
        assert (tmp_path / "S0_diag.jsonl").exists()
        manifest = json.loads((tmp_path / "S0_manifest.json").read_text())
        assert manifest["verdict"] == "pass"
        assert manifest["counts"]["fail"] == 0
        assert len(manifest["reports"]) == 4

    def test_run_without_scenario_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", "S9", "--out", str(tmp_path)]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_json_field_format(self, tmp_path):
        main(["run", "--scenario", "S0", "--out", str(tmp_path), "--format", "json"])
        rows = json.loads((tmp_path / "S0_field.json").read_text())
        assert isinstance(rows, list) and rows
        assert {"x", "dist_h", "n_of_x", "g", "g_smooth", "q_nt"} <= set(rows[0])

    @pytest.mark.parametrize("grid", [41, 81])
    def test_s1_passes_where_grid_points_touch_probe_balls(self, grid):
        """At these grids linspace puts the neighbour of the jump a few ulps
        inside the open continuity probe ball of radius delta."""
        manifest, code = run_scenario("S1", ScenarioConfig(grid=grid))
        assert manifest["verdict"] == "pass"
        assert code == 0

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ConfigError, match="supports modes"):
            run_scenario("S1", ScenarioConfig(mode="finite"))

    def test_unsupported_mode_exits_2_with_one_line(self, tmp_path, capsys):
        assert main(["run", "--scenario", "S2", "--mode", "sampled", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scenario S2 supports modes ('finite',), not 'sampled'\n"
        assert not any(tmp_path.iterdir())

    def test_manifest_records_the_effective_grid(self):
        manifest, _ = run_scenario("S0", ScenarioConfig(grid=500))
        assert manifest["grid"] == 81
        for name, asked, used in (
            ("S0", 5, 21), ("S1", 40, 41), ("S1", 100, 101), ("S2", 500, 201), ("S2", 10, 41),
            ("S3", 50, 101), ("S3", 150, 151),
        ):
            assert get_scenario(name).build(ScenarioConfig(grid=asked)).grid == used

    def test_manifest_extension_block_matches_the_field(self, s3_run):
        """k_evals and k_inf count K_{x,n} at every level each query's scan
        visits: from its ceiling down to n(x), or to 1 when n(x) = 0."""
        manifest, _ = run_scenario("S3", ScenarioConfig())
        field = s3_run.field
        ks = [
            local_lip_K(field.items, n, int(u), float(d))
            for u, d, nx in zip(field.u_y, field.dist_h, field.n_of_x)
            for n in range(select_ceiling(float(d)), max(int(nx), 1) - 1, -1)
        ]
        top = int(field.n_of_x.max())
        assert manifest["extension"] == {
            "k_evals": len(ks),
            "k_inf": int(np.isinf(ks).sum()),
            "n_of_x_hist": [int((field.n_of_x == n).sum()) for n in range(top + 1)],
        }
        assert run_scenario("S2", ScenarioConfig(grid=41))[0]["extension"] is None

    def test_extension_block_counts_infinite_k(self):
        """H = {0} and queries at 0.019, 0.15 and 0.3 (ceilings 3, 1 and 0).
        The first query meets K = inf at n = 3 and K = 4 at n = 2, both
        failing, and passes at n = 1; the second meets K = inf at n = 1.  The
        midpoint centers are scanned as well, but only the queries count."""
        bounds = {
            1: lambda cs, rho: np.where(rho > 0.5, np.inf, 1.0),
            2: lambda cs, rho: np.full(len(cs), 4.0),
            3: lambda cs, rho: np.full(len(cs), np.inf),
            4: lambda cs, rho: np.ones(len(cs)),
        }
        items = [
            FunSeqItem(n=n, values=np.ones((1, 1)), sup_bound=1.0, lip_bound=lip)
            for n, lip in bounds.items()
        ]
        space = SampledSpace(
            coords=np.array([[0.0], [0.019], [0.15], [0.3]]), dmat=None,
            h_idx=np.array([0]), mode="sampled", delta=0.01,
        )
        field = build_extension(space, items, np.ones((1, 1)), np.array([1, 2, 3]))
        assert field.n_of_x.tolist() == [1, 0, 0]
        assert _extension_summary(field) == {"k_evals": 4, "k_inf": 2, "n_of_x_hist": [2, 1]}

    def test_diag_lines_are_json(self, tmp_path):
        main(["run", "--scenario", "S0", "--out", str(tmp_path)])
        lines = (tmp_path / "S0_diag.jsonl").read_text().strip().split("\n")
        stages = {json.loads(ln)["stage"] for ln in lines}
        assert "mollify" in stages


class TestConfigMerging:
    def test_config_file_sets_values(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "S0", "grid": 31, "steps": 8}))
        code = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "S0_manifest.json").read_text())
        assert manifest["grid"] == 31
        assert manifest["steps"] == 8

    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "S0", "grid": 31}))
        main(["run", "--config", str(cfgfile), "--grid", "41", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "S0_manifest.json").read_text())
        assert manifest["grid"] == 41

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'gird'"):
            _merge_config(argparse.Namespace(), {"scenario": "S0", "gird": 31})

    def test_unknown_config_key_exits_2_with_one_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "S0", "gird": 31}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unknown config key 'gird'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("steps", 0, "steps must be at least 1, not 0"),
            ("tol", -1.0, "tol must be positive, not -1.0"),
            ("norm", "l1", "norm must be one of ('l2', 'linf'), not 'l1'"),
            ("steps", "3", "steps must be an integer, not '3'"),
            ("grid", "31", "grid must be an integer, not '31'"),
            ("grid", 31.0, "grid must be an integer, not 31.0"),
            ("seed", True, "seed must be an integer, not True"),
            ("tol", "0.1", "tol must be a real number, not '0.1'"),
            ("tol", False, "tol must be a real number, not False"),
            ("norm", ["linf"], "norm must be one of ('l2', 'linf'), not ['linf']"),
            ("mode", 3, "mode must be a string or null, not 3"),
            ("tol", -math.inf, "tol must be positive, not -inf"),
            ("tol", math.inf, "tol must be finite, not inf"),
            ("format", "xml", "format must be one of ('csv', 'json'), not 'xml'"),
            ("format", "", "format must be one of ('csv', 'json'), not ''"),
            ("out", 5, "out must be a string, not 5"),
            ("scenario", ["S0"], "scenario must be a string, not ['S0']"),
            ("scenario", {"a": 1}, "scenario must be a string, not {'a': 1}"),
        ],
    )
    def test_bad_config_value_exits_2_with_one_line(self, tmp_path, capsys, key, value, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "S0", key: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert not out.exists()
        if key in ("out", "scenario"):
            return  # only the command line reads these two keys
        with pytest.raises(ConfigError, match=key):
            if key == "format":
                run_scenario("S0", ScenarioConfig(), out_dir=out, fmt=value)
            else:
                ScenarioConfig(**{key: value})
        assert not out.exists()


    def test_infinite_tol_flag_exits_2_with_one_line(self, tmp_path, capsys):
        """An infinite tolerance would pass every decay check."""
        out = tmp_path / "out"
        assert main(["run", "--scenario", "S0", "--tol", "inf", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "tol must be finite, not inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "words, message",
        [
            (["--tol", "-inf"], "tol must be positive, not -inf"),
            (["--tol", "-1e-3"], "tol must be positive, not -0.001"),
            (["--tol=-inf"], "tol must be positive, not -inf"),
            (["--tol", "-1"], "tol must be positive, not -1.0"),
        ],
    )
    def test_negative_tol_word_exits_2_with_one_line(self, tmp_path, capsys, words, message):
        """A tol that argparse would read as an option when given as its own
        word still reaches the config check."""
        out = tmp_path / "out"
        assert main(["run", "--scenario", "S0", *words, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read config {path}: No such file or directory"),
            ("dir", "cannot read config {path}: Is a directory"),
            (
                '{"scenario": "S0",',
                "config {path} is not valid JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 19 (char 18)",
            ),
            ('["S0", 31]', "config {path} holds a JSON list, not an object"),
        ],
    )
    def test_unusable_config_file_exits_2_with_one_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "cfg.json"
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.format(path=path) + "\n"
        assert not out.exists()


class TestPathRadiusRefusal:
    @pytest.mark.parametrize(
        "scenario, steps, gap, radius",
        [
            ("S0", 28, "9.31e-10", "9.31e-10"),
            ("S1", 22, "9.49e-10", "4.77e-09"),
            ("S1", 25, "1.19e-10", "5.96e-10"),
            ("S3", 30, "1.86e-11", "1.86e-11"),
        ],
    )
    def test_merging_path_exits_2_with_one_line(self, tmp_path, capsys, scenario, steps, gap, radius):
        out = tmp_path / "out"
        args = ["run", "--scenario", scenario, "--steps", str(steps), "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"steps {steps} puts a path point {gap} from another sample "
            f"(path radius {radius}), within the sample dedup tolerance 1e-09\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("scenario, steps", [("S0", 27), ("S1", 21), ("S3", 24)])
    def test_last_resolvable_steps_build(self, scenario, steps):
        data = get_scenario(scenario).build(ScenarioConfig(steps=steps))
        assert len(data.plan[0].path.points) == steps


class TestDeterminism:
    # SHA-256 of the manifest and diag files of each scenario at grid 201,
    # linf, CSV field
    PINNED = {
        "S0": ("8e541994721739bb735d34fbfc411f94ea1cfa754a33fb36e8bbd1d80555704e",
               "6fb59de7ca5c3920ba54d38b7d28aa4e56c47f92e8ecc5b087f03768b329a7ad"),
        "S1": ("0108bbb7d72adeaa3c2f5044397bb162be900284f5cc2f390af430b85153f947",
               "45b6bf896700cad29f3b02e1c054267947510860d437f599bc10c7aac6a30a87"),
        "S2": ("4b51279138cf0ef4599cdc887b0485f37e69148206986f9c196f6d679b23f359",
               "db295285dcd11aea591168744cb1586b262cd7c2b377a835800afc3f94e58242"),
        "S3": ("ad8f49640e9876266233cd9389d5a0c24977709aa9edd67c588b17ed639036c1",
               "c15154fddcc4ecc404a0877c012402a3783f1835189dcc9bac3cdcf50c058273"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_manifest_and_diag_bytes_are_pinned(self, name, tmp_path):
        """The manifest's extension block, reports and verdict and the diag
        lines, byte for byte."""
        run_scenario(name, ScenarioConfig(grid=201, norm="linf"), tmp_path, "csv")
        got = tuple(
            hashlib.sha256((tmp_path / f"{name}_{suffix}").read_bytes()).hexdigest()
            for suffix in ("manifest.json", "diag.jsonl")
        )
        assert got == self.PINNED[name]

    # SHA-256 of S1's manifest, diag and CSV field at grid 201 in l2
    PINNED_S1_L2 = (
        "15a0aacc050a883c4f9f6aa5b0c325e184b0574dd8662d34faf268e8d2b6b6a1",
        "45b6bf896700cad29f3b02e1c054267947510860d437f599bc10c7aac6a30a87",
        "84c60b41270ea5a05ce1dd59fd156c102b873c5c94fb4393a0de4fb102585348",
    )

    def test_s1_l2_bytes_are_pinned(self, tmp_path):
        run_scenario("S1", ScenarioConfig(grid=201, norm="l2"), tmp_path, "csv")
        got = tuple(
            hashlib.sha256((tmp_path / f"S1_{suffix}").read_bytes()).hexdigest()
            for suffix in ("manifest.json", "diag.jsonl", "field.csv")
        )
        assert got == self.PINNED_S1_L2

    def test_two_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["run", "--scenario", "S3", "--out", str(out), "--grid", "121"])
            assert code == 0
        for suffix in ("field.csv", "manifest.json", "diag.jsonl"):
            assert (a / f"S3_{suffix}").read_bytes() == (b / f"S3_{suffix}").read_bytes()


class TestImports:
    def test_a_run_does_not_import_numpy_ma(self):
        """np.unique without index outputs imports ``numpy.ma`` on its first
        call (about 14 ms and 1.2 MiB); a run takes its distinct values
        without it, and so do the l2 selection points.  A fresh interpreter
        is needed, since any earlier test of this process may have imported
        it."""
        code = (
            "import sys\n"
            "from baireext.cli import run_scenario\n"
            "from baireext.scenarios import ScenarioConfig\n"
            "run_scenario('S1', ScenarioConfig(grid=41))\n"
            "run_scenario('S3', ScenarioConfig(grid=201))\n"
            "run_scenario('S2', ScenarioConfig(grid=41, norm='l2'))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        src = str(Path(baireext.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
