"""Certification harness: limit statements become finite monotone-decay
checks along geometric approach paths, inequalities become exact assertions.

Decay rule: a path check passes when the measured quantity drops below the
tolerance near the end of the path AND the later half of the trace does not
peak above the earlier half.  A growing envelope is a fail; decay that never
crosses the tolerance is inconclusive — a first-class outcome, not an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .extension import ExtensionField, alp5_rhs, nt_quotient
from .space import SampledSpace
from .target import norm

__all__ = [
    "ApproachPath",
    "CertReport",
    "validate_path",
    "check_nt",
    "check_continuity",
    "check_boundedness",
    "check_ucpc",
    "oscillation",
    "DEFAULT_EPS_GRID",
    "DEFAULT_RHO_GRID",
]

DEFAULT_EPS_GRID = tuple(2.0 ** (-j) for j in range(1, 7))
DEFAULT_RHO_GRID = tuple(2.0 ** (-j) for j in range(1, 11))


@dataclass(frozen=True)
class ApproachPath:
    """A finite approach x_j -> a within X \\ H toward an H sample a."""

    anchor_x: int  # X index of a (must be an H sample)
    anchor_y: int  # same point in H-sample order
    points: np.ndarray  # X indices with d(x_j, a) strictly decreasing
    kind: str = "radial"  # radial | tangential | mixed
    eps: Optional[float] = None  # tangential ratio cap


@dataclass
class CertReport:
    """Outcome of one certification check."""

    prop: str  # NT | C | B | UCPC | pipeline-invariant
    status: str  # pass | fail | inconclusive
    tolerance: Optional[float] = None
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "property": self.prop,
            "status": self.status,
            "tolerance": self.tolerance,
            "trace": self.trace,
            "details": self.details,
        }


def validate_path(space: SampledSpace, path: ApproachPath) -> None:
    """Check the path invariants; raises ValueError naming the violation."""
    if path.anchor_x not in set(int(i) for i in space.h_idx):
        raise ValueError(f"anchor {path.anchor_x} is not an H sample")
    da = space.dists_from(path.anchor_x)
    h_mask = space.h_mask
    points = np.asarray(path.points, dtype=int)
    tangential = path.kind == "tangential"
    if tangential:
        if path.eps is None:
            raise ValueError("tangential paths need an eps ratio cap")
        dist_h, _ = space.nearest_h(points)
    prev = np.inf
    for j, x in enumerate(points.tolist()):
        if h_mask[x]:
            raise ValueError(f"path point {x} lies in H")
        if not da[x] < prev:
            raise ValueError(f"d(x_j, a) is not strictly decreasing at point {x}")
        prev = da[x]
        if tangential and dist_h[j] > path.eps * da[x]:
            raise ValueError(
                f"tangential ratio {dist_h[j] / da[x]:.3f} exceeds eps={path.eps} at point {x}"
            )


def _decay_status(values: np.ndarray, ok_tail: bool) -> str:
    """Envelope rule shared by the decay checks: the later half of the trace
    must not peak above the earlier half, otherwise the quantity is growing
    and the check fails outright."""
    half = len(values) // 2
    if half >= 1 and float(values[half:].max()) > float(values[:half].max()):
        return "fail"
    return "pass" if ok_tail else "inconclusive"


def check_nt(field_: ExtensionField, path: ApproachPath, tol: float = 5e-2) -> CertReport:
    """Non-tangential quotient decay q_j = ||g - f(a)|| dist/d along the path."""
    validate_path(field_.space, path)
    rows = np.array([field_.row_of(int(x)) for x in path.points])
    q_all = nt_quotient(field_, path.anchor_y)
    rhs_all = alp5_rhs(field_, path.anchor_y)
    da = field_.space.dists_from(path.anchor_x)
    trace = [
        {
            "step": j,
            "d": float(da[int(path.points[j])]),
            "dist_h": float(field_.dist_h[r]),
            "n": int(field_.n_of_x[r]),
            "q": float(q_all[r]),
            "alp5_rhs": float(rhs_all[r]),
        }
        for j, r in enumerate(rows)
    ]
    q = q_all[rows]
    tail = q[-max(1, len(q) // 3):]
    status = _decay_status(q, bool(tail.min() < tol))
    return CertReport(
        prop="NT",
        status=status,
        tolerance=tol,
        trace=trace,
        details={"anchor_x": path.anchor_x, "kind": path.kind, "final_q": float(q[-1])},
    )


def check_continuity(
    field_: ExtensionField,
    path: ApproachPath,
    tol: float = 5e-2,
    declared_continuity: Optional[Sequence[int]] = None,
) -> CertReport:
    """||g_smooth(x_j) - f(a)|| decay at a declared continuity point a."""
    if declared_continuity is not None and path.anchor_y not in set(
        int(i) for i in declared_continuity
    ):
        raise ValueError(
            f"anchor (H sample {path.anchor_y}) is not a declared continuity point"
        )
    if field_.g_smooth is None:
        raise ValueError("smooth_extension has not been run")
    validate_path(field_.space, path)
    rows = np.array([field_.row_of(int(x)) for x in path.points])
    dev = np.atleast_1d(norm(field_.g_smooth[rows] - field_.f_h[path.anchor_y], field_.norm_tag))
    trace = [{"step": j, "deviation": float(v)} for j, v in enumerate(dev)]
    third = max(1, len(dev) // 3)
    ok = bool((dev[third:] < tol).all()) if len(dev) > third else bool(dev[-1] < tol)
    status = _decay_status(dev, ok)
    return CertReport(
        prop="C",
        status=status,
        tolerance=tol,
        trace=trace,
        details={"anchor_x": path.anchor_x, "kind": path.kind, "final_dev": float(dev[-1])},
    )


def check_boundedness(
    field_: ExtensionField,
    anchor_y: int,
    r: float,
    sup_cert_p0: Optional[float],
) -> CertReport:
    """sup ||g_smooth|| over sampled B(a, r) \\ H against the certified chain
    p0 -> p0 + 1 + 1/r (radius-field cap) -> + 2 (blend slack).

    ``sup_cert_p0 = None`` means the scenario cannot certify f bounded on
    B(a, 12r) (hypothesis not met): the check reports inconclusive.
    """
    if sup_cert_p0 is None:
        return CertReport(
            prop="B",
            status="inconclusive",
            details={
                "anchor_y": int(anchor_y),
                "r": r,
                "reason": "hypothesis-not-met: no certified sup of ||f|| on B(a, 12r)",
            },
        )
    if field_.g_smooth is None:
        raise ValueError("smooth_extension has not been run")
    rows = np.flatnonzero(field_.anchor_dists(anchor_y) < r)
    bound = sup_cert_p0 + 1.0 + 1.0 / r + 2.0
    if rows.size == 0:
        return CertReport(
            prop="B",
            status="inconclusive",
            details={"anchor_y": int(anchor_y), "r": r, "reason": "no sampled queries in B(a, r)"},
        )
    sup = float(norm(field_.g_smooth[rows], field_.norm_tag).max())
    status = "pass" if sup <= bound + 1e-12 else "fail"
    return CertReport(
        prop="B",
        status=status,
        trace=[{"sup_g_smooth": sup, "bound": bound, "n_queries": int(rows.size)}],
        details={"anchor_y": int(anchor_y), "r": r, "p0": sup_cert_p0},
    )


def check_ucpc(
    hspace: SampledSpace,
    values_seq: np.ndarray,
    f_values: np.ndarray,
    y0: int,
    tag: str = "linf",
) -> CertReport:
    """Uniform convergence at y0: for each eps of ``DEFAULT_EPS_GRID`` find
    (k0, rho) with rho in ``DEFAULT_RHO_GRID`` and ||f_k(y) - f(y0)|| < eps
    for all k >= k0 and sampled y in B(y0, rho)."""
    values_seq = np.asarray(values_seq, dtype=float)
    k_max = len(values_seq)
    d0 = hspace.dists_from(int(y0))
    dev = norm(values_seq - f_values[int(y0)], tag)  # (k_max, nY)
    witnesses = []
    for eps in DEFAULT_EPS_GRID:
        found = None
        for rho in DEFAULT_RHO_GRID:
            s = d0 < rho
            if not s.any():
                continue
            per_k = dev[:, s].max(axis=1)
            suffix = np.maximum.accumulate(per_k[::-1])[::-1]
            hits = np.flatnonzero(suffix < eps)
            if hits.size:
                found = {"eps": eps, "k0": int(hits[0]) + 1, "rho": rho}
                break
        if found is None:
            rho = min(DEFAULT_RHO_GRID)
            s = d0 < rho
            # no witness even at the smallest rho: the final index already
            # violates (its suffix max is itself), so report (eps, k_max, y*)
            y_bad = int(np.flatnonzero(s)[int(dev[k_max - 1, s].argmax())])
            return CertReport(
                prop="UCPC",
                status="fail",
                trace=witnesses,
                details={
                    "y0": int(y0),
                    "eps": eps,
                    "k": k_max,
                    "y": y_bad,
                    "value_dev": float(dev[k_max - 1, y_bad]),
                },
            )
        witnesses.append(found)
    return CertReport(prop="UCPC", status="pass", trace=witnesses, details={"y0": int(y0)})


def oscillation(
    space: SampledSpace, values: np.ndarray, y: int, radius: float, tag: str = "linf"
) -> float:
    """Max pairwise value distance over samples in the open ball B(y, radius)."""
    s = np.flatnonzero(space.dists_from(int(y)) < radius)
    if s.size < 2:
        return 0.0
    diffs = norm(values[s][:, None, :] - values[s][None, :, :], tag)
    return float(diffs.max())
