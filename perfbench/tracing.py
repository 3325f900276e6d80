"""Spans and counts around the calls into each baireext module.

The wrappers are installed from the benchmark's side, on the namespace that
makes each call, so nothing under ``src/`` changes.  ``Tracer.install``
patches module attributes process-wide and is meant for a benchmark child
process that runs one pass and exits.

A span is ``[name, start, end, parent]``; ``name`` is ``<module>.<call>``
and ``parent`` is the index of the enclosing span or -1.  Spans stay in
memory and are written out once, at the end of the pass.

Per-query calls (``select_n``, ``local_lip_K``) are only counted: a span per
call would cost more than the work it measures.  Per-pair scalar methods
(``pair_dist``, ``dists_from``) are not wrapped at all.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("scenarios", "space", "target", "pipeline", "extension", "verify", "cli")

# (name, unit).  Metrics in COMPUTED_UNITS are computed exactly from call
# counts, returned objects and array sizes, and must repeat exactly between
# two passes of the same code; times ("s") are measured.
LAYER_METRICS = (
    ("scenarios.build_s", "s"),
    ("scenarios.n_points", "count"),
    ("scenarios.n_queries", "count"),
    ("scenarios.n_seq", "count"),
    ("space.refine_s", "s"),
    ("space.refine_calls", "count"),
    ("space.refine_pair_evals", "count"),
    ("space.pou_s", "s"),
    ("space.pou_calls", "count"),
    ("space.dense_matrix_s", "s"),
    ("space.dense_matrix_calls", "count"),
    ("space.dense_matrix_bytes", "B"),
    ("target.intersection_s", "s"),
    ("target.intersection_calls", "count"),
    ("target.radial_project_s", "s"),
    ("target.radial_project_calls", "count"),
    ("pipeline.approximate_s", "s"),
    ("pipeline.ucpc_transform_s", "s"),
    ("pipeline.radial_bound_s", "s"),
    ("pipeline.local_bound_s", "s"),
    ("pipeline.mollify_s", "s"),
    ("pipeline.mollify_self_s", "s"),
    ("pipeline.items", "count"),
    ("extension.build_s", "s"),
    ("extension.smooth_s", "s"),
    ("extension.select_calls", "count"),
    ("extension.k_evals", "count"),
    ("extension.k_evals_per_select", "evals/call"),
    ("extension.k_inf_share", "share"),
    ("extension.centers", "count"),
    ("extension.smooth_pairs", "count"),
    ("extension.smooth_tensor_bytes", "B"),
    ("extension.smooth_hit_ratio", "share"),
    ("verify.checks_s", "s"),
    ("verify.checks", "count"),
    ("cli.run_self_s", "s"),
    ("cli.artifact_bytes", "B"),
)


COMPUTED_UNITS = frozenset(("count", "B", "evals/call", "share"))


def is_computed(unit: str) -> bool:
    return unit in COMPUTED_UNITS


def _module(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result(args, result)``
        runs after the span closes, so counting is not timed."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def tally(self, name, fn, on_result=None):
        """Wrap a per-query ``fn`` with a call counter and no span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self) -> None:
        from baireext import cli, extension, pipeline, scenarios, space

        c = self.counts

        def on_build(args, data):
            c["scenarios.n_points"] += data.space.n_points
            c["scenarios.n_queries"] += len(data.query_idx)
            c["scenarios.n_seq"] += data.n_seq

        for key, sc in list(scenarios.SCENARIOS.items()):
            scenarios.SCENARIOS[key] = dataclasses.replace(
                sc, build=self.span("scenarios.build", sc.build, on_build)
            )

        def on_refine(args, cover):
            raw = args[1]
            c["space.refine_pair_evals"] += cover.n_balls * raw.n_balls

        def on_dense(args, _m):
            sp = args[0]
            if sp.dmat is None:
                n, dim = sp.coords.shape
                c["space.dense_matrix_bytes"] += n * n * dim * 8

        pipeline.build_refinement = self.span(
            "space.build_refinement", pipeline.build_refinement, on_refine
        )
        pipeline.partition_of_unity = self.span(
            "space.partition_of_unity", pipeline.partition_of_unity
        )
        space.SampledSpace.dense_matrix = self.span(
            "space.dense_matrix", space.SampledSpace.dense_matrix, on_dense
        )

        pipeline.ball_intersection_point = self.span(
            "target.ball_intersection_point", pipeline.ball_intersection_point
        )
        pipeline.radial_project = self.span("target.radial_project", pipeline.radial_project)

        pipeline.ucpc_transform = self.span("pipeline.ucpc_transform", pipeline.ucpc_transform)
        pipeline.bound_sequence = self.span("pipeline.radial_bound", pipeline.bound_sequence)
        pipeline.enforce_local_uniform_boundedness = self.span(
            "pipeline.local_bound", pipeline.enforce_local_uniform_boundedness
        )
        pipeline.lipschitz_mollify = self.span("pipeline.mollify", pipeline.lipschitz_mollify)

        def on_items(args, items):
            c["pipeline.items"] += len(items)

        def on_k(args, k):
            if math.isinf(k):
                c["extension.k_inf"] += 1

        def on_smooth(args, field):
            nq, nc = field.n_queries, len(field.center_pos)
            dim = field.space.coords.shape[1] if field.space.coords is not None else 1
            c["extension.centers"] += nc
            c["extension.smooth_pairs"] += nq * nc
            c["extension.smooth_tensor_bytes"] += nq * nc * dim * 8
            c["extension.smooth_hits"] += sum(len(ix) for ix in field.contributors)

        extension.select_n = self.tally("extension.select_calls", extension.select_n)
        extension.local_lip_K = self.tally("extension.k_evals", extension.local_lip_K, on_k)

        cli.run_scenario = self.span("cli.run_scenario", cli.run_scenario)
        cli.field_to_csv = self.span("cli.field_to_csv", cli.field_to_csv)
        cli.baire_approximate = self.span("pipeline.approximate", cli.baire_approximate, on_items)
        cli.build_extension = self.span("extension.build", cli.build_extension)
        cli.smooth_extension = self.span("extension.smooth", cli.smooth_extension, on_smooth)
        for check in ("check_nt", "check_continuity", "check_boundedness", "check_ucpc"):
            setattr(cli, check, self.span("verify.check", getattr(cli, check)))

    def layer_metrics(self, artifact_bytes: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (one pass)."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: dict[str, float] = defaultdict(float)
        foreign_children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0 and _module(self.spans[parent][0]) != _module(name):
                foreign_children[parent] += end - start
        # a layer's self time: its span minus the child spans of other layers
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_time[name] += end - start - foreign_children[i]

        c = self.counts
        selects, k_evals = c["extension.select_calls"], c["extension.k_evals"]
        pairs = c["extension.smooth_pairs"]
        return {
            "scenarios.build_s": total["scenarios.build"],
            "scenarios.n_points": c["scenarios.n_points"],
            "scenarios.n_queries": c["scenarios.n_queries"],
            "scenarios.n_seq": c["scenarios.n_seq"],
            "space.refine_s": total["space.build_refinement"],
            "space.refine_calls": calls["space.build_refinement"],
            "space.refine_pair_evals": c["space.refine_pair_evals"],
            "space.pou_s": total["space.partition_of_unity"],
            "space.pou_calls": calls["space.partition_of_unity"],
            "space.dense_matrix_s": total["space.dense_matrix"],
            "space.dense_matrix_calls": calls["space.dense_matrix"],
            "space.dense_matrix_bytes": c["space.dense_matrix_bytes"],
            "target.intersection_s": total["target.ball_intersection_point"],
            "target.intersection_calls": calls["target.ball_intersection_point"],
            "target.radial_project_s": total["target.radial_project"],
            "target.radial_project_calls": calls["target.radial_project"],
            "pipeline.approximate_s": total["pipeline.approximate"],
            "pipeline.ucpc_transform_s": total["pipeline.ucpc_transform"],
            "pipeline.radial_bound_s": total["pipeline.radial_bound"],
            "pipeline.local_bound_s": total["pipeline.local_bound"],
            "pipeline.mollify_s": total["pipeline.mollify"],
            "pipeline.mollify_self_s": self_time["pipeline.mollify"],
            "pipeline.items": c["pipeline.items"],
            "extension.build_s": total["extension.build"],
            "extension.smooth_s": total["extension.smooth"],
            "extension.select_calls": selects,
            "extension.k_evals": k_evals,
            "extension.k_evals_per_select": k_evals / selects if selects else 0.0,
            "extension.k_inf_share": c["extension.k_inf"] / k_evals if k_evals else 0.0,
            "extension.centers": c["extension.centers"],
            "extension.smooth_pairs": pairs,
            "extension.smooth_tensor_bytes": c["extension.smooth_tensor_bytes"],
            "extension.smooth_hit_ratio": c["extension.smooth_hits"] / pairs if pairs else 0.0,
            "verify.checks_s": total["verify.check"],
            "verify.checks": calls["verify.check"],
            "cli.run_self_s": self_time["cli.run_scenario"],
            "cli.artifact_bytes": artifact_bytes,
        }

    def span_modules(self) -> list[str]:
        return sorted({_module(s[0]) for s in self.spans})

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}))
