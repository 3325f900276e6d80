"""Command-line runner: executes a scenario end to end (space, approximation
pipeline, extension, verification plan) and emits deterministic artifacts.

    baireext run --scenario S1 --out results/
    baireext list
    baireext describe S2

Outputs per run: <out>/<name>_field.csv (or .json), <out>/<name>_manifest.json
with all certification reports and a verdict, <out>/<name>_diag.jsonl with
per-stage pipeline diagnostics.  Identical config + seed reproduces the files
byte for byte; the exit code is 0 exactly when no check failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .extension import (
    ExtensionField,
    build_extension,
    field_to_csv,
    field_to_json,
    smooth_extension,
)
from .pipeline import baire_approximate
from .scenarios import ConfigError, Scenario, ScenarioConfig, get_scenario, list_scenarios
from .verify import check_boundedness, check_continuity, check_nt, check_ucpc

__all__ = ["main", "run_scenario"]

_CONFIG_KEYS = ("grid", "norm", "mode", "tol", "steps", "seed")
_FORMATS = ("csv", "json")


def run_scenario(
    name: str,
    cfg: ScenarioConfig,
    out_dir: Optional[Path] = None,
    fmt: str = "csv",
) -> tuple[dict, int]:
    """Run one scenario; returns (manifest, exit_code) and writes artifacts."""
    if fmt not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS}, not {fmt!r}")
    scenario = get_scenario(name)
    if cfg.mode is not None and cfg.mode not in scenario.supported_modes:
        raise ConfigError(
            f"scenario {name} supports modes {scenario.supported_modes}, not {cfg.mode!r}"
        )
    data = scenario.build(cfg)
    bundle = data.bundle

    diag_lines: list[dict] = []
    items = baire_approximate(bundle, diag=diag_lines.append)

    field = None
    if len(data.query_idx):
        field = build_extension(
            data.space, items, bundle.f_values, data.query_idx, bundle.norm_tag,
            near=data.query_near,
        )
        field = smooth_extension(field)

    values_seq = np.stack([it.values for it in items])
    reports = []
    for chk in data.plan:
        if chk.kind == "nt":
            rep = check_nt(field, chk.path, cfg.tol)
        elif chk.kind == "continuity":
            rep = check_continuity(
                field, chk.path, cfg.tol, declared_continuity=bundle.continuity_idx
            )
        elif chk.kind == "boundedness":
            rep = check_boundedness(field, chk.anchor_y, chk.r, chk.sup_cert)
        elif chk.kind == "ucpc":
            rep = check_ucpc(
                bundle.hspace, values_seq, bundle.f_values, chk.y0, tag=bundle.norm_tag
            )
        else:
            raise ValueError(f"unknown planned check kind {chk.kind!r}")
        reports.append(rep)

    statuses = [r.status for r in reports]
    if "fail" in statuses:
        verdict = "fail"
    elif "inconclusive" in statuses:
        verdict = "pass-with-inconclusive"
    else:
        verdict = "pass"
    manifest = {
        "scenario": name,
        "seed": cfg.seed,
        "grid": data.grid,
        "norm": cfg.norm,
        "mode": cfg.mode or scenario.default_mode,
        "tol": cfg.tol,
        "steps": cfg.steps,
        "n_seq": data.n_seq,
        "extension": _extension_summary(field) if field is not None else None,
        "reports": [r.to_dict() for r in reports],
        "counts": {s: statuses.count(s) for s in ("pass", "fail", "inconclusive")},
        "verdict": verdict,
    }

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if field is not None:
            table = field_to_csv if fmt == "csv" else field_to_json
            (out_dir / f"{name}_field.{fmt}").write_text(table(field, data.primary_anchor_y))
        (out_dir / f"{name}_manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        (out_dir / f"{name}_diag.jsonl").write_text(
            "".join(json.dumps(d, sort_keys=True) + "\n" for d in diag_lines)
        )
    return manifest, (0 if verdict != "fail" else 1)


def _extension_summary(field: ExtensionField) -> dict:
    """Selection statistics of the query field: the field's counts of the
    K_{x,n} evaluations the scan made at the queries and of the infinite
    ones, and the n(x) histogram (entry n counts the queries with n(x) = n)."""
    return {
        "k_evals": field.k_evals,
        "k_inf": field.k_inf,
        "n_of_x_hist": np.bincount(field.n_of_x).tolist(),
    }


def _describe(scenario: Scenario) -> str:
    lines = [
        f"{scenario.name}: {scenario.title}",
        f"  properties: {', '.join(scenario.properties)}",
        f"  modes: default={scenario.default_mode}, supported={', '.join(scenario.supported_modes)}",
        "",
        "  " + scenario.summary,
    ]
    return "\n".join(lines)


def _load_config(path: str) -> dict:
    """The ``--config`` file's JSON object; a file that cannot be read or
    does not hold a JSON object is a ``ConfigError``."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    try:
        loaded = json.loads(raw)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8/16/32
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} holds a JSON {type(loaded).__name__}, not an object")
    return loaded


def _merge_config(args: argparse.Namespace, loaded: dict) -> ScenarioConfig:
    """Defaults, then the ``--config`` file's keys, then explicit flags."""
    base = dataclasses.asdict(ScenarioConfig())
    for key in loaded:
        if key not in _CONFIG_KEYS and key not in ("scenario", "out", "format"):
            raise ConfigError(f"unknown config key {key!r}")
    base.update({k: loaded[k] for k in _CONFIG_KEYS if k in loaded})
    for k in _CONFIG_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            base[k] = v
    return ScenarioConfig(**base)


def _attach_number_values(argv: list[str]) -> list[str]:
    """``--tol -inf`` as ``--tol=-inf``.  argparse reads a word that starts
    with '-' as an option unless it looks like -1 or -0.5, so a negative or
    infinite tol such as -inf or -1e-3, given as its own word, would get the
    usage text instead of the config check's one-line refusal."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--tol" and out[i + 1].startswith("-"):
            try:
                float(out[i + 1])
            except ValueError:
                continue
            out[i : i + 2] = [f"--tol={out[i + 1]}"]
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="baireext",
        description="Approximation and extension of pointwise limits on sampled "
        "metric spaces, with a certification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("--scenario", help="scenario name (see `list`)")
    p_run.add_argument("--config", help="JSON config file; flags override it")
    p_run.add_argument("--grid", type=int, help="grid points per axis (default 201)")
    p_run.add_argument("--norm", choices=["l2", "linf"], help="target-space norm")
    p_run.add_argument("--mode", choices=["finite", "sampled"], help="space mode")
    p_run.add_argument("--tol", type=float, help="decay tolerance (default 5e-2)")
    p_run.add_argument("--steps", type=int, help="path steps (default 12)")
    p_run.add_argument("--seed", type=int, help="run seed (default 0)")
    p_run.add_argument("--out", help="output directory (default ./out)")
    p_run.add_argument("--format", choices=_FORMATS, help="field table format")

    sub.add_parser("list", help="list the built-in scenarios")
    p_desc = sub.add_parser("describe", help="show one scenario card")
    p_desc.add_argument("name")

    args = parser.parse_args(_attach_number_values(sys.argv[1:] if argv is None else argv))

    if args.command == "list":
        for sc in list_scenarios():
            print(f"{sc.name}  {sc.title:28s}  [{', '.join(sc.properties)}]")
        return 0
    if args.command == "describe":
        try:
            print(_describe(get_scenario(args.name)))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0

    # run
    try:
        loaded = _load_config(args.config) if args.config else {}
        name = args.scenario or loaded.get("scenario")
        if not name:
            raise ConfigError("run needs --scenario (or a config with a scenario key)")
        if not isinstance(name, str):
            raise ConfigError(f"scenario must be a string, not {name!r}")
        out = loaded.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out must be a string, not {out!r}")
        out = args.out if args.out is not None else out
        fmt = args.format if args.format is not None else loaded.get("format", "csv")
        cfg = _merge_config(args, loaded)
        manifest, code = run_scenario(name, cfg, Path(out or "out"), fmt)
    except (KeyError, ConfigError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    counts = manifest["counts"]
    print(
        f"{name}: {manifest['verdict']} "
        f"(pass={counts['pass']} fail={counts['fail']} inconclusive={counts['inconclusive']})"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
