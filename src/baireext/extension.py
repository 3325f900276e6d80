"""Extension operator: builds g on X \\ H from the pipeline output on H and
smooths it to a continuous blend g_smooth.

Per query x the operator picks the nearest H sample u(x), the scale index
n(x) = the largest n whose certified local Lipschitz constant K_{x,n} of item
n around u(x) still satisfies dist(x,H) < 1/(n K_{x,n} (n M_n + 2)), and sets
g(x) = f_{n(x)}(u(x)) with f_0 = 0.  The smoothing step blends g values over
the cover {B(x_a, dist(x_a,H)/3)} with partition-of-unity weights.

dist(x,H) and u(x) come from ``SampledSpace.nearest_h``, for the queries and
for the midpoint centers alike.  The field keeps no (queries x H) table: the
NT quotient and the boundedness check read one anchor column
(``ExtensionField.anchor_dists``), and the inequality diagnostics stream their
distance rows in ``_ROW_BLOCK`` blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .pipeline import FunSeqItem, m_bound
from .space import _ROW_BLOCK, CoverageError, SampledSpace
from .target import norm

__all__ = [
    "ExtensionField",
    "m_bound",
    "local_lip_K",
    "select_ceiling",
    "select_n",
    "build_extension",
    "smooth_extension",
    "nt_quotient",
    "alp5_rhs",
    "general_inequality_slacks",
    "branch_condition_violations",
    "factor4_ratio_range",
    "field_rows",
    "field_to_csv",
]


def _k_values(items: list[FunSeqItem], n: int, u_y: np.ndarray, dist_h: np.ndarray) -> np.ndarray:
    """K_{x,n} per query: item n's bound over the ball around u(x) of radius
    (n M_n + 2) dist(x,H), floored at 1 (fmax gives 1 over NaN, as max does)."""
    return np.fmax(1.0, items[n - 1].lip_bound(u_y, (n * m_bound(n) + 2.0) * dist_h))


def local_lip_K(items: list[FunSeqItem], n: int, u_y: int, dist_h: float) -> float:
    """K_{x,n}: certified Lipschitz bound of item n over the ball around u(x)
    of radius (n M_n + 2) dist(x,H), floored at 1; may be infinite."""
    if n < 1:
        raise ValueError("K is defined for n >= 1")
    return float(_k_values(items, n, np.array([u_y]), np.array([dist_h]))[0])


def _passes(n: int, k, dist_h):
    """The selection inequality dist < 1/(n K (n M_n + 2)), per query; an
    infinite K fails it (the 1/inf = 0 convention)."""
    return ~np.isinf(k) & (dist_h < 1.0 / (n * k * (n * m_bound(n) + 2.0)))


def select_ceiling(dist_h: float) -> int:
    """Largest n that could pass the selection test even with K = 1; any
    satisfying n obeys n (n (n+2) + 2) < 1/dist, so the scan starts here."""
    n = 0
    while (n + 1) * ((n + 1) * (n + 3) + 2) * dist_h < 1.0:
        n += 1
    return n


def _scan(items: list[FunSeqItem], u_y: np.ndarray, dist_h: np.ndarray):
    """Descending scan from each query's analytic ceiling; returns n(x) and
    the K table per query.

    The satisfying set need not be an interval, so a query stops at its first
    (hence largest) passing n, or ends at 0.  Each level n makes one oracle
    call over the queries still pending.
    """
    ceilings = []
    for d in dist_h.tolist():
        if not d > 0:
            raise ValueError("selection needs dist(x, H) > 0")
        ceilings.append(select_ceiling(d))
        if ceilings[-1] > len(items):
            raise ValueError(
                f"selection ceiling {ceilings[-1]} exceeds the {len(items)} built items; "
                "increase the sequence length"
            )
    ceilings = np.array(ceilings, dtype=int)
    n_of = np.zeros(len(ceilings), dtype=int)
    tables: list[dict[int, float]] = [{} for _ in ceilings]
    for n in range(int(ceilings.max(initial=0)), 0, -1):
        rows = np.flatnonzero((n_of == 0) & (ceilings >= n))
        k = _k_values(items, n, u_y[rows], dist_h[rows])
        for q, kq in zip(rows.tolist(), k.tolist()):
            tables[q][n] = kq
        n_of[rows[_passes(n, k, dist_h[rows])]] = n
    return n_of, tables


def select_n(
    items: list[FunSeqItem], u_y: int, dist_h: float
) -> tuple[int, dict[int, float]]:
    """The descending scan for one query; returns (n(x), K table)."""
    n_of, tables = _scan(items, np.array([u_y]), np.array([dist_h], dtype=float))
    return int(n_of[0]), tables[0]


@dataclass
class ExtensionField:
    """g and g_smooth over a finite query set in X \\ H, with diagnostics."""

    space: SampledSpace
    items: list[FunSeqItem]
    f_h: np.ndarray  # (nH, m) limit values in H-sample order
    norm_tag: str
    query_idx: np.ndarray  # (nq,) X sample indices
    dist_h: np.ndarray  # (nq,)
    u_x: np.ndarray  # (nq,) X index of the nearest H sample
    u_y: np.ndarray  # (nq,) same, in H-sample order
    n_of_x: np.ndarray  # (nq,)
    g: np.ndarray  # (nq, m)
    k_tables: list[dict[int, float]]
    # smoothing data (filled by smooth_extension)
    center_pos: Optional[np.ndarray] = None  # coords (nc, dim) or X indices (nc,)
    center_g: Optional[np.ndarray] = None
    center_dist_h: Optional[np.ndarray] = None
    contributors: Optional[list[np.ndarray]] = None
    contrib_w: Optional[list[np.ndarray]] = None
    g_smooth: Optional[np.ndarray] = None

    @property
    def n_queries(self) -> int:
        return len(self.query_idx)

    def row_of(self, x_idx: int) -> int:
        rows = np.flatnonzero(self.query_idx == x_idx)
        if rows.size == 0:
            raise KeyError(f"sample {x_idx} is not a query of this field")
        return int(rows[0])

    def anchor_dists(self, anchor_y: int) -> np.ndarray:
        """d(x, a) for every query x, for the H sample a = ``anchor_y``."""
        a = self.space.h_idx[[anchor_y]]
        return self.space.cross_dists(self.query_idx, a)[:, 0]


def _extend_rows(items, f_h, dist_h, u_y):
    """Core per-query extension given dist(x,H) and u(x): (n(x), g, K tables)."""
    n_of, tables = _scan(items, u_y, dist_h)
    g = np.zeros((len(dist_h), f_h.shape[1]))
    for n in np.unique(n_of[n_of > 0]).tolist():
        rows = n_of == n
        g[rows] = items[n - 1].values[u_y[rows]]
    return n_of, g, tables


def build_extension(
    space: SampledSpace,
    items: list[FunSeqItem],
    f_h: np.ndarray,
    query_idx: np.ndarray,
    norm_tag: str = "linf",
) -> ExtensionField:
    """Run the extension at every query sample (all must lie off H)."""
    query_idx = np.asarray(query_idx, dtype=int)
    dist_h, u_y = space.nearest_h(query_idx)
    if not np.all(dist_h > 0):
        bad = int(query_idx[int(np.argmin(dist_h))])
        raise ValueError(f"query {bad} lies on a sampled H point")
    n_of, g, tables = _extend_rows(items, f_h, dist_h, u_y)
    return ExtensionField(
        space=space,
        items=items,
        f_h=f_h,
        norm_tag=norm_tag,
        query_idx=query_idx,
        dist_h=dist_h,
        u_x=space.h_idx[u_y],
        u_y=u_y,
        n_of_x=n_of,
        g=g,
        k_tables=tables,
    )


def smooth_extension(field: ExtensionField, extra_midpoints: bool = True) -> ExtensionField:
    """Fill g_smooth: blend of g values over {B(x_a, dist(x_a,H)/3)}.

    Centers are the queries themselves (each query covers itself, so coverage
    holds by construction) plus, on coordinate spaces, the midpoints between
    each query and its nearest H sample, which refine the cover toward H.
    """
    space = field.space
    items, f_h = field.items, field.f_h

    if space.coords is not None:
        pos = [space.coords[field.query_idx]]
        cg = [field.g]
        cdh = [field.dist_h]
        if extra_midpoints:
            mids = (space.coords[field.query_idx] + space.coords[field.u_x]) / 2.0
            mdh, mu = space.nearest_h(mids)
            _, mg, _ = _extend_rows(items, f_h, mdh, mu)
            keep = mdh > 0
            pos.append(mids[keep])
            cg.append(mg[keep])
            cdh.append(mdh[keep])
        center_pos = np.concatenate(pos)
        center_g = np.concatenate(cg)
        center_dh = np.concatenate(cdh)
        qpos = space.coords[field.query_idx]

        def dists_to_centers(q: int) -> np.ndarray:
            return np.linalg.norm(center_pos - qpos[q], axis=1)
    else:
        center_pos = field.query_idx.copy()
        center_g = field.g.copy()
        center_dh = field.dist_h.copy()

        def dists_to_centers(q: int) -> np.ndarray:
            return space.dists_from(int(field.query_idx[q]))[center_pos]

    # one query's row of center distances at a time: the smoothing balls are
    # local, so a dense (queries x centers) table would be almost all misses
    radii = center_dh / 3.0
    contributors, weights = [], []
    g_smooth = np.zeros_like(field.g)
    for q in range(field.n_queries):
        w = radii - dists_to_centers(q)
        inside = w > 0
        if not inside.any():
            raise CoverageError(
                f"query {int(field.query_idx[q])} is covered by no smoothing ball"
            )
        idx = np.flatnonzero(inside)
        wv = w[idx]
        lam = wv / wv.sum()
        contributors.append(idx)
        weights.append(lam)
        g_smooth[q] = lam @ center_g[idx]
    return replace(
        field,
        center_pos=center_pos,
        center_g=center_g,
        center_dist_h=center_dh,
        contributors=contributors,
        contrib_w=weights,
        g_smooth=g_smooth,
    )


# ---------------------------------------------------------------------------
# inequality diagnostics
# ---------------------------------------------------------------------------

def nt_quotient(field: ExtensionField, anchor_y: int) -> np.ndarray:
    """q(x) = ||g(x) - f(a)|| dist(x,H)/d(x,a) per query, for anchor a in H."""
    dev = norm(field.g - field.f_h[anchor_y], field.norm_tag)
    return dev * field.dist_h / field.anchor_dists(anchor_y)


def alp5_rhs(field: ExtensionField, anchor_y: int) -> np.ndarray:
    """Right-hand side 1/n + ||f(a)||/n + ||f_n(a) - f(a)|| per query; +inf on
    queries with n(x) = 0, where g = 0 and the bound is not asserted."""
    out = np.full(field.n_queries, np.inf)
    fa = field.f_h[anchor_y]
    fa_n = float(norm(fa, field.norm_tag))
    for n in np.unique(field.n_of_x):
        if n == 0:
            continue
        rows = field.n_of_x == n
        dev_n = float(norm(field.items[n - 1].values[anchor_y] - fa, field.norm_tag))
        out[rows] = 1.0 / n + fa_n / n + dev_n
    return out


def _query_blocks(field: ExtensionField):
    """(first query, d(x, a) rows) for every ``_ROW_BLOCK`` block of queries;
    row i of a block is the query ``first + i`` against every H sample."""
    for a in range(0, field.n_queries, _ROW_BLOCK):
        yield a, field.space.h_dists(field.query_idx[a:a + _ROW_BLOCK])


def general_inequality_slacks(field: ExtensionField) -> dict[str, float]:
    """Worst-case slacks of dist(x,H) <= d(x,a) and d(a,u(x)) <= 3 d(a,x) over
    every (query, H sample) pair; both must be >= 0."""
    d_ua = field.space.h_space().dense_matrix()  # (nH, nH)
    slack1, slack2 = np.inf, np.inf
    for a, d_xa in _query_blocks(field):
        b = slice(a, a + len(d_xa))
        slack1 = min(slack1, float((d_xa - field.dist_h[b, None]).min()))
        slack2 = min(slack2, float((3.0 * d_xa - d_ua[field.u_y[b]]).min()))
    return {"dist_le_d": slack1, "dau_le_3dax": slack2}


def branch_condition_violations(field: ExtensionField) -> int:
    """Count of (query, a) pairs violating: dist/d > 1/(n M_n) implies
    d(u(x), a) < 1/(n K_{x,n}); pairs with K = inf are skipped."""
    d_ua = field.space.h_space().dense_matrix()
    bad = 0
    for a, d_xa in _query_blocks(field):
        for q, row in enumerate(d_xa, start=a):
            n = int(field.n_of_x[q])
            if n == 0:
                continue
            k = field.k_tables[q][n]
            if np.isinf(k):
                continue
            hot = field.dist_h[q] / row > 1.0 / (n * m_bound(n))
            bad += int(np.count_nonzero(hot & ~(d_ua[field.u_y[q]] < 1.0 / (n * k))))
    return bad


def factor4_ratio_range(field: ExtensionField) -> tuple[float, float]:
    """Range of (dist(x_a,H)/d(x_a,a')) / (dist(x,H)/d(x,a')) over every
    (query, contributing center, sampled a') triple; must stay in [1/4, 4]."""
    if field.contributors is None:
        raise ValueError("smooth_extension has not been run")
    lo, hi = np.inf, -np.inf
    for a, d_xa in _query_blocks(field):
        for q, row in enumerate(d_xa, start=a):
            cs = field.contributors[q]
            ratio_c = field.center_dist_h[cs, None] / field.space.h_dists(field.center_pos[cs])
            rr = ratio_c / (field.dist_h[q] / row)[None, :]
            lo = min(lo, float(rr.min()))
            hi = max(hi, float(rr.max()))
    return lo, hi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def field_rows(field: ExtensionField, anchor_y: int) -> list[dict]:
    """One dict per query: x (coords, or [X index] without coordinates),
    dist_h, n_of_x, u_index, g, g_smooth (NaN before smoothing), q_nt,
    alp5_rhs, alp5_slack (NT columns vs the given anchor), in column order."""
    coords = field.space.coords
    q_nt = nt_quotient(field, anchor_y)
    rhs = alp5_rhs(field, anchor_y)
    gs = field.g_smooth if field.g_smooth is not None else np.full_like(field.g, np.nan)
    rows = []
    for q in range(field.n_queries):
        x = int(field.query_idx[q])
        rows.append(
            {
                "x": [float(c) for c in coords[x]] if coords is not None else [x],
                "dist_h": float(field.dist_h[q]),
                "n_of_x": int(field.n_of_x[q]),
                "u_index": int(field.u_x[q]),
                "g": [float(v) for v in field.g[q]],
                "g_smooth": [float(v) for v in gs[q]],
                "q_nt": float(q_nt[q]),
                "alp5_rhs": float(rhs[q]),
                "alp5_slack": float(rhs[q] - q_nt[q]),
            }
        )
    return rows


def field_to_csv(field: ExtensionField, anchor_y: int) -> str:
    """The ``field_rows`` table as CSV: x0.. (or x_index), dist_h, n_of_x,
    u_index, g.., g_smooth.., q_nt, alp5_rhs, alp5_slack.  Cells are ``repr``
    text: the shortest round-trip float form, bit-stable across runs."""
    m = field.f_h.shape[1]
    coords = field.space.coords
    cols = (
        ([f"x{i}" for i in range(coords.shape[1])] if coords is not None else ["x_index"])
        + ["dist_h", "n_of_x", "u_index"]
        + [f"g{i}" for i in range(m)]
        + [f"g_smooth{i}" for i in range(m)]
        + ["q_nt", "alp5_rhs", "alp5_slack"]
    )
    lines = [",".join(cols)]
    for row in field_rows(field, anchor_y):
        cells = [v for val in row.values() for v in (val if isinstance(val, list) else [val])]
        lines.append(",".join(map(repr, cells)))
    return "\n".join(lines) + "\n"
