"""Extension operator: builds g on X \\ H from the pipeline output on H and
smooths it to a continuous blend g_smooth.

Per query x the operator picks the nearest H sample u(x), the scale index
n(x) = the largest n whose certified local Lipschitz constant K_{x,n} of item
n around u(x) still satisfies dist(x,H) < 1/(n K_{x,n} (n M_n + 2)), and sets
g(x) = f_{n(x)}(u(x)) with f_0 = 0.  The smoothing step blends g values over
the cover {B(x_a, dist(x_a,H)/3)} with partition-of-unity weights.

``build_extension`` also chooses and extends the cover's centers x_a: the
queries and, on coordinate spaces, the midpoints (x + u(x))/2.  Queries and
midpoints go through one selection scan, one oracle call per level; each K
value depends only on its own point, so the scan gives every point the n and
g a scan of its own set would.  Of the K values the field keeps two counts
over the queries: how many the scan evaluated and how many were infinite.
``smooth_extension`` then only blends, and the field keeps g_smooth alone:
``_smooth_blocks`` recomputes the contributing centers on demand.

dist(x,H) and u(x) come from ``SampledSpace.nearest_h``, for the queries and
for the midpoint centers alike (a scenario may hand over the queries' pair it
already computed).  The field keeps no (queries x H) table: the NT quotient
and the boundedness check read one anchor column
(``ExtensionField.anchor_dists``), and the inequality diagnostics stream their
distance rows in ``_ROW_BLOCK`` blocks.

The smoothing search evaluates d(q, c) only for candidate centers: the box
of half-width dist(q,H)/2 that the contributor lemma allows (a band of
dist(c,H) on a metric matrix), cut on coordinate spaces to the run of centers
whose ball extent y_c +- dist(c,H)/3 can hold y_q (``_search_ranges``).  Along
a line dist(., H) is 1-Lipschitz, so both ball ends are nondecreasing and the
run holds little more than the contributors.  Each block of candidates is
sorted once into (query, center) order before its distances are taken.  The
field table is written column by column, byte for byte the text of the
``field_rows`` dicts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .pipeline import FunSeqItem, m_bound
from .space import _PAIR_BLOCK, _ROW_BLOCK, CoverageError, SampledSpace
from .target import _l2_rows, norm

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
    "field_to_json",
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


def _ceilings(dist_h: np.ndarray, n_items: int) -> np.ndarray:
    """``select_ceiling`` of every point, in one loop over n on the points
    whose ceiling is still rising (an int below 2^53 times a float is the
    same float in numpy as in Python).  Refuses the first point in order
    with dist(x, H) <= 0 or a ceiling above ``n_items``."""
    ceilings = np.zeros(len(dist_h), dtype=int)
    rows = np.flatnonzero(dist_h > 0)
    n = 0
    while rows.size and n <= n_items:
        n += 1
        rows = rows[n * (n * (n + 2) + 2) * dist_h[rows] < 1.0]
        ceilings[rows] = n
    bad = ~(dist_h > 0) | (ceilings > n_items)
    if bad.any():
        d = float(dist_h[np.argmax(bad)])
        if not d > 0:
            raise ValueError("selection needs dist(x, H) > 0")
        raise ValueError(
            f"selection ceiling {select_ceiling(d)} exceeds the {n_items} built items; "
            "increase the sequence length"
        )
    return ceilings


def _scan(items: list[FunSeqItem], u_y: np.ndarray, dist_h: np.ndarray, n_count: int):
    """Descending scan from each point's analytic ceiling; returns n(x) and,
    over the first ``n_count`` points, the number of K_{x,n} evaluations and
    how many of them were infinite.

    The satisfying set need not be an interval, so a point stops at its first
    (hence largest) passing n, or ends at 0.  Each level n makes one oracle
    call over the points still pending.
    """
    ceilings = _ceilings(dist_h, len(items))
    n_of = np.zeros(len(ceilings), dtype=int)
    k_evals = k_inf = 0
    for n in range(int(ceilings.max(initial=0)), 0, -1):
        rows = np.flatnonzero((n_of == 0) & (ceilings >= n))
        k = _k_values(items, n, u_y[rows], dist_h[rows])
        counted = k[:np.searchsorted(rows, n_count)]
        k_evals += len(counted)
        k_inf += int(np.count_nonzero(np.isinf(counted)))
        n_of[rows[_passes(n, k, dist_h[rows])]] = n
    return n_of, k_evals, k_inf


def select_n(items: list[FunSeqItem], u_y: int, dist_h: float) -> int:
    """The descending scan for one query; returns n(x)."""
    return int(_scan(items, np.array([u_y]), np.array([dist_h], dtype=float), 0)[0][0])


@dataclass
class ExtensionField:
    """g and g_smooth over a finite query set in X \\ H, with diagnostics.

    Besides g, the field keeps what the checks and the field table read: the
    smoothing centers with their g and dist(., H), and g_smooth (neither the
    contributors nor the blend weights)."""

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
    k_evals: int  # K_{x,n} evaluations of the selection scan over the queries
    k_inf: int  # how many of them were infinite
    # the smoothing centers, queries first (filled by build_extension)
    center_pos: Optional[np.ndarray] = None  # coords (nc, dim) or X indices (nc,)
    center_g: Optional[np.ndarray] = None
    center_dist_h: Optional[np.ndarray] = None
    g_smooth: Optional[np.ndarray] = None  # the blend (filled by smooth_extension)

    @property
    def n_queries(self) -> int:
        return len(self.query_idx)

    @property
    def contributors(self) -> list[np.ndarray]:
        """Each query's contributors, rebuilt by ``_smooth_blocks`` on every
        read; kept only while the benchmark tracer's ``extension.smooth_hits``
        counts them from the field."""
        return [c[s:t] for _, _, bd, c, _ in _smooth_blocks(self) for s, t in zip(bd, bd[1:])]

    def row_of(self, x_idx: int) -> int:
        rows = np.flatnonzero(self.query_idx == x_idx)
        if rows.size == 0:
            raise KeyError(f"sample {x_idx} is not a query of this field")
        return int(rows[0])

    def anchor_dists(self, anchor_y: int) -> np.ndarray:
        """d(x, a) for every query x, for the H sample a = ``anchor_y``."""
        a = self.space.h_idx[[anchor_y]]
        return self.space.cross_dists(self.query_idx, a)[:, 0]


def _extend_rows(items, f_h, dist_h, u_y, n_count):
    """Core per-point extension given dist(x,H) and u(x): (n(x), g, and the
    K evaluation and infinite-K counts over the first ``n_count`` points)."""
    n_of, k_evals, k_inf = _scan(items, u_y, dist_h, n_count)
    g = np.zeros((len(dist_h), f_h.shape[1]))
    for n in (np.flatnonzero(np.bincount(n_of)[1:]) + 1).tolist():
        rows = n_of == n
        g[rows] = items[n - 1].values[u_y[rows]]
    return n_of, g, k_evals, k_inf


def build_extension(
    space: SampledSpace,
    items: list[FunSeqItem],
    f_h: np.ndarray,
    query_idx: np.ndarray,
    norm_tag: str = "linf",
    near: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> ExtensionField:
    """Run the extension at every query sample (all must lie off H) and at
    the smoothing centers, in one selection scan; the K counts cover the
    queries only.  ``near`` is the queries' (dist_h, u_y) from
    ``SampledSpace.nearest_h`` when the caller has it already.

    The centers are the queries themselves (each query covers itself, so
    coverage holds by construction) plus, on coordinate spaces, the midpoints
    between each query and its nearest H sample, which refine the cover
    toward H."""
    query_idx = np.asarray(query_idx, dtype=int)
    dist_h, u_y = space.nearest_h(query_idx) if near is None else near
    if not np.all(dist_h > 0):
        bad = int(query_idx[int(np.argmin(dist_h))])
        raise ValueError(f"query {bad} lies on a sampled H point")
    nq = len(query_idx)
    if space.coords is None:
        center_pos = query_idx
    else:
        center_pos = space.coords[query_idx]
        mids = (center_pos + space.coords[space.h_idx[u_y]]) / 2.0
        # no midpoint lies on H: dist(mid, H) >= dist(x, H)/2 > 0
        mdh, mu = space.nearest_h(mids)
        center_pos = np.concatenate([center_pos, mids])
        dist_h, u_y = np.concatenate([dist_h, mdh]), np.concatenate([u_y, mu])
    n_of, g, k_evals, k_inf = _extend_rows(items, f_h, dist_h, u_y, nq)
    return ExtensionField(
        space=space,
        items=items,
        f_h=f_h,
        norm_tag=norm_tag,
        query_idx=query_idx,
        dist_h=dist_h[:nq],
        u_x=space.h_idx[u_y[:nq]],
        u_y=u_y[:nq],
        n_of_x=n_of[:nq],
        g=g[:nq],
        k_evals=k_evals,
        k_inf=k_inf,
        center_pos=center_pos,
        center_g=g,
        center_dist_h=dist_h,
    )


def _search_ranges(field: ExtensionField, q_pos: np.ndarray, center_pos, center_dh):
    """Candidate centers per query from the contributor lemma and, on
    coordinate spaces, from the ball extents.

    Returns ``order``, a permutation of the centers, and entries (q, lo, hi):
    every center that can contribute to query q sits in ``order[lo:hi]`` for
    one of q's entries.  Entries are sorted by query, and the ranges of one
    query are disjoint.  ``q_pos`` holds the query coordinates (read on
    coordinate spaces only).

    On coordinate spaces each entry is one column of centers in search order
    (ascending search coordinate y).  A contributor c of q has
    y_c - r_c < y_q < y_c + r_c with r_c = dist(c,H)/3, since |y_q - y_c| is
    at most d(q,c).  Along the column the running maximum of y_c + r_c and the
    running minimum from the end of y_c - r_c are nondecreasing, so two
    searches bound the run of centers whose extent can hold y_q.  That run is
    a superset of the contributors whatever the extents look like; the
    extents are widened by the relative slack of ``reach`` for rounding.
    """
    # the contributor half-width dist(q,H)/2, widened for rounding and for
    # the 1e-12 triangle tolerance of ``load_space_json`` metrics
    reach = field.dist_h * (0.5 + 1e-9) + 1e-11
    nq, nc = field.n_queries, len(center_dh)
    col = np.zeros(nc, dtype=np.int64)
    c_lo = c_hi = np.zeros(nq, dtype=np.int64)
    if field.space.coords is None:
        # dist(., H) is 1-Lipschitz: |dist(c,H) - dist(q,H)| <= d(q,c) < reach
        y_c, y_q = center_dh, field.dist_h
    else:
        # the box of half-width reach: about sqrt(nc)/2 columns of coordinate
        # 0 (for dim > 1), and the exact range of coordinate 1 (or 0) in each
        ax = min(1, q_pos.shape[1] - 1)
        y_c, y_q = center_pos[:, ax], q_pos[:, ax]
        if ax and nc:
            x0, ext = center_pos[:, 0].min(), np.ptp(center_pos[:, 0])
            ncol = int(np.ceil(np.sqrt(nc) / 2.0))
            # one column when ncol / ext would overflow (ext 0 or subnormal)
            scale = ncol / ext if ext > ncol / np.finfo(float).max else 0.0

            def column(x):
                # clipped first: a float beyond int64 has no defined cast
                return np.clip(np.floor((x - x0) * scale), -1, ncol - 1).astype(np.int64)

            col = column(center_pos[:, 0])
            c_lo = np.maximum(column(q_pos[:, 0] - reach), 0)
            c_hi = column(q_pos[:, 0] + reach)
    # sort by (column, rank of y); a y range is then a rank range per column
    ys = np.sort(y_c)
    key = col * nc + np.searchsorted(ys, y_c, "left")
    order = np.argsort(key, kind="stable")
    key = key[order]
    y_lo = np.searchsorted(ys, y_q - reach, "left")
    y_hi = np.searchsorted(ys, y_q + reach, "right")
    span = np.maximum(c_hi - c_lo + 1, 0)
    eq = np.repeat(np.arange(nq), span)
    ecol = c_lo[eq] + np.arange(len(eq)) - np.repeat(np.cumsum(span) - span, span)
    lo = np.searchsorted(key, ecol * nc + y_lo[eq], "left")
    hi = np.searchsorted(key, ecol * nc + y_hi[eq], "left")
    if field.space.coords is not None:
        # the envelopes as keys (column, rank of the value), so one search
        # over every column stays exact; a key of a later column is larger
        # than every key of an earlier one, so each running extreme restarts
        # at its column's border
        width = nc + 1
        col_s, y_s = col[order], y_c[order]
        ext = center_dh[order] / 3.0 * (1.0 + 2e-9) + 1e-11
        top, bottom = np.sort(y_s + ext), np.sort(y_s - ext)
        rise = np.maximum.accumulate(col_s * width + np.searchsorted(top, y_s + ext, "left"))
        fall = col_s * width + np.searchsorted(bottom, y_s - ext, "right")
        fall = np.minimum.accumulate(fall[::-1])[::-1]
        # first center with max(y + r) > y_q, first with min(y - r) >= y_q
        yq, base = y_q[eq], ecol * width
        lo = np.maximum(lo, np.searchsorted(rise, base + np.searchsorted(top, yq, "right"), "left"))
        hi = np.minimum(hi, np.searchsorted(fall, base + np.searchsorted(bottom, yq, "left"), "right"))
        hi = np.maximum(hi, lo)
    return order, eq, lo, hi


def _pair_dists(space: SampledSpace, q_pos: np.ndarray, c_pos: np.ndarray) -> np.ndarray:
    """d(q, c) per pair of rows of ``q_pos`` and ``c_pos`` (coordinate rows, or
    sample indices on a metric matrix)."""
    if space.coords is None:
        return space.dmat[q_pos, c_pos]
    return _l2_rows(c_pos, q_pos)


def _smooth_blocks(field: ExtensionField):
    """Yields (a, b, bounds, c, w) per pair block: query q of a..b-1 has the
    contributors ``c[bounds[q - a]:bounds[q - a + 1]]``, ascending, with the
    weights dist(c,H)/3 - d(q,c) > 0 in ``w``.  Raises ``CoverageError``.

    Contributor lemma: a center c reaches a query q when d(q,c) < dist(c,H)/3,
    and dist(c,H) <= d(q,c) + dist(q,H), so every contributor has
    d(q,c) < dist(q,H)/2 and |dist(c,H) - dist(q,H)| < dist(q,H)/2 (the
    triangle argument behind the factor-4 ratio).  The search looks only
    there: on coordinate spaces inside the box of half-width dist(q,H)/2, read
    from columns of coordinate 0 with each column sorted by coordinate 1; on a
    metric matrix inside that band of the centers sorted by dist(c,H).  On
    coordinate spaces each column is cut to the run of centers whose ball
    extent y_c +- r_c along the search coordinate can hold the query (the
    envelope search of ``_search_ranges``).
    Distances and weights are evaluated for blocks of at most ``_PAIR_BLOCK``
    candidate pairs (a single query may exceed it).  A block's candidates
    are sorted once on the key q nc + c, unique since one query's ranges are
    disjoint, so every query's candidates, and the contributors that pass
    ``w > 0``, come in ascending center order.
    """
    space = field.space
    center_pos, center_dh = field.center_pos, field.center_dist_h
    nq, nc = field.n_queries, len(center_dh)
    radii = center_dh / 3.0
    q_pos = field.query_idx if space.coords is None else space.coords[field.query_idx]
    order, eq, lo, hi = _search_ranges(field, q_pos, center_pos, center_dh)
    first = np.searchsorted(eq, np.arange(nq + 1))  # each query's first entry
    before = np.concatenate([[0], np.cumsum(hi - lo)])[first]  # pairs ahead of q
    a = 0
    while a < nq:
        # queries a..b-1 bring at most _PAIR_BLOCK candidate pairs (or a alone)
        b = max(a + 1, int(np.searchsorted(before, before[a] + _PAIR_BLOCK, "right")) - 1)
        e = slice(first[a], first[b])
        span = hi[e] - lo[e]
        at = np.repeat(lo[e] - (np.cumsum(span) - span), span) + np.arange(span.sum())
        # the sorted keys q nc + c leave each query's candidates in its own run
        edges = before[a : b + 1] - before[a]
        count = np.diff(edges)
        base = np.repeat(np.arange(a, b) * nc, count)
        c = np.sort(base + order[at]) - base
        w = radii.take(c) - _pair_dists(
            space, np.repeat(q_pos[a:b], count, axis=0), center_pos.take(c, axis=0)
        )
        keep = w > 0
        bounds = np.concatenate([[0], np.cumsum(keep)])[edges]
        empty = np.flatnonzero(bounds[1:] == bounds[:-1])
        if empty.size:
            q = int(field.query_idx[a + empty[0]])
            raise CoverageError(f"query {q} is covered by no smoothing ball")
        yield a, b, bounds.tolist(), c[keep], w[keep]
        a = b


def smooth_extension(field: ExtensionField) -> ExtensionField:
    """Fill g_smooth: blend of g over {B(x_a, dist(x_a,H)/3)} with the weights
    of ``_smooth_blocks``.  Each query's own weight sum and product with its
    rows of the gathered g give the float a scan over every center gives."""
    g_smooth = np.zeros_like(field.g)
    for a, b, bounds, c, w in _smooth_blocks(field):
        gc = field.center_g.take(c, axis=0)  # a query's rows are one C-contiguous slice
        for q, s, t in zip(range(a, b), bounds, bounds[1:]):
            wv = w[s:t]
            g_smooth[q] = np.divide(wv, np.add.reduce(wv), out=wv) @ gc[s:t]
    return replace(field, g_smooth=g_smooth)


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
    for n in (np.flatnonzero(np.bincount(field.n_of_x)[1:]) + 1).tolist():
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
    d(u(x), a) < 1/(n K_{x,n}); pairs with K = inf are skipped.  K_{x,n(x)}
    comes from one oracle call per selected level."""
    d_ua = field.space.h_space().dense_matrix()
    k = np.full(field.n_queries, np.inf)
    for n in (np.flatnonzero(np.bincount(field.n_of_x)[1:]) + 1).tolist():
        rows = field.n_of_x == n
        k[rows] = _k_values(field.items, n, field.u_y[rows], field.dist_h[rows])
    bad = 0
    for a, d_xa in _query_blocks(field):
        for q, row in enumerate(d_xa, start=a):
            n = int(field.n_of_x[q])
            if np.isinf(k[q]):  # also every query with n(x) = 0
                continue
            hot = field.dist_h[q] / row > 1.0 / (n * m_bound(n))
            bad += int(np.count_nonzero(hot & ~(d_ua[field.u_y[q]] < 1.0 / (n * k[q]))))
    return bad


def factor4_ratio_range(field: ExtensionField) -> tuple[float, float]:
    """Range of (dist(x_a,H)/d(x_a,a')) / (dist(x,H)/d(x,a')) over every
    (query, contributing center, sampled a') triple of ``_smooth_blocks``;
    must stay in [1/4, 4]."""
    if field.g_smooth is None:
        raise ValueError("smooth_extension has not been run")
    lo, hi = np.inf, -np.inf
    for a, b, bounds, c, _ in _smooth_blocks(field):
        ratio_q = field.dist_h[a:b, None] / field.space.h_dists(field.query_idx[a:b])
        ratio_c = field.center_dist_h[c, None] / field.space.h_dists(field.center_pos[c])
        rr = ratio_c / np.repeat(ratio_q, np.diff(bounds), axis=0)
        lo = min(lo, float(rr.min()))
        hi = max(hi, float(rr.max()))
    return lo, hi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _field_columns(field: ExtensionField, anchor_y: int) -> list[tuple]:
    """The field table by column, in column order: (key, values, CSV heads),
    where ``values`` is (nq,) for one number per row and (nq, k) for a list of
    k.  The NT columns are read against the given anchor."""
    coords = field.space.coords
    q_nt = nt_quotient(field, anchor_y)
    rhs = alp5_rhs(field, anchor_y)
    gs = field.g_smooth if field.g_smooth is not None else np.full_like(field.g, np.nan)
    if coords is not None:
        x, x_heads = coords[field.query_idx], [f"x{i}" for i in range(coords.shape[1])]
    else:
        x, x_heads = field.query_idx[:, None], ["x_index"]
    m = field.g.shape[1]
    return [
        ("x", x, x_heads),
        ("dist_h", field.dist_h, ["dist_h"]),
        ("n_of_x", field.n_of_x, ["n_of_x"]),
        ("u_index", field.u_x, ["u_index"]),
        ("g", field.g, [f"g{i}" for i in range(m)]),
        ("g_smooth", gs, [f"g_smooth{i}" for i in range(m)]),
        ("q_nt", q_nt, ["q_nt"]),
        ("alp5_rhs", rhs, ["alp5_rhs"]),
        ("alp5_slack", rhs - q_nt, ["alp5_slack"]),
    ]


def _cell_text(values: np.ndarray, special: Optional[dict] = None) -> list[list[str]]:
    """``repr`` of every value, one list per component (one for a (nq,)
    column): the shortest round-trip float form.  ``special`` respells the
    non-finite floats."""
    out = []
    for comp in (values,) if values.ndim == 1 else values.T:
        text = list(map(repr, comp.tolist()))
        if special and not np.isfinite(comp).all():
            text = [special.get(t, t) for t in text]
        out.append(text)
    return out


# json's spellings of the non-finite floats
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def field_rows(field: ExtensionField, anchor_y: int) -> list[dict]:
    """One dict per query: x (coords, or [X index] without coordinates),
    dist_h, n_of_x, u_index, g, g_smooth (NaN before smoothing), q_nt,
    alp5_rhs, alp5_slack (NT columns vs the given anchor), in column order."""
    cols = _field_columns(field, anchor_y)
    keys = [key for key, _, _ in cols]
    return [dict(zip(keys, row)) for row in zip(*(v.tolist() for _, v, _ in cols))]


def field_to_csv(field: ExtensionField, anchor_y: int) -> str:
    """The ``field_rows`` table as CSV: x0.. (or x_index), dist_h, n_of_x,
    u_index, g.., g_smooth.., q_nt, alp5_rhs, alp5_slack.  Cells are ``repr``
    text: the shortest round-trip float form, bit-stable across runs."""
    heads, text = [], []
    for _, values, col_heads in _field_columns(field, anchor_y):
        heads += col_heads
        text += _cell_text(values)
    return "\n".join([",".join(heads), *map(",".join, zip(*text))]) + "\n"


def field_to_json(field: ExtensionField, anchor_y: int) -> str:
    """``json.dumps(field_rows(field, anchor_y), sort_keys=True)``, written
    column by column: keys in sorted order, floats in ``repr`` form and
    NaN, Infinity and -Infinity spelled as json spells them."""
    parts, text = [], []
    for key, values, _ in sorted(_field_columns(field, anchor_y), key=lambda c: c[0]):
        cells = _cell_text(values, _JSON_FLOATS)
        slots = ", ".join(["%s"] * len(cells))
        parts.append(f'"{key}": ' + (slots if values.ndim == 1 else f"[{slots}]"))
        text += cells
    row = "{" + ", ".join(parts) + "}"
    return "[" + ", ".join(row % cells for cells in zip(*text)) + "]"
