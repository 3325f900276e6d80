"""Turns a pointwise-convergent sequence {h_n} on Y = H into a sequence {f_n}
of bounded locally Lipschitz functions that converges uniformly at the
continuity points of the limit (UCPC) and is uniformly bounded on balls where
the limit is bounded.

Stage order: selection transform (finite mode) -> global bounding by radial
projection -> local uniform boundedness via the radius field r(y) -> blending
over a fine ball cover with partition-of-unity weights.

Every item carries a certified upper-bound oracle for its local Lipschitz
constants; "certified" means valid for every sampled pair inside the queried
ball.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .space import (
    _ROW_BLOCK,
    CoverSystem,
    SampledSpace,
    _rows_cols,
    ball_depth,
    ball_multiplicity,
    build_refinement,
    dense_weights,
    partition_of_unity,
)
from .target import _intersection_points, norm, radial_project, retraction_factor
from .target import ball_intersection_point  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "FunSeqItem",
    "FunctionBundle",
    "SelectionState",
    "BoundRadiusField",
    "bound_sequence",
    "local_bound_radius",
    "enforce_local_uniform_boundedness",
    "ucpc_transform",
    "lipschitz_mollify",
    "baire_approximate",
    "sampled_lip_oracle",
    "m_bound",
    "monotone_lip_envelope",
]

# A Lipschitz oracle ``lip(cs, rho)`` bounds the difference quotients of an
# item over sampled pairs in closed balls B_Y(c, rho).  ``cs`` is a 1-D int
# array of centers and ``rho`` one radius or one radius per center; the result
# is a float array with one bound per center, and entry i depends only on
# (cs[i], rho[i]), never on the other centers of the call, so an oracle may
# ask another about a subset of its rows and get the same floats.  An oracle
# is a function of the inputs it was built from, so ``baire_approximate``
# hands one object to every item of a run of equal inputs: a memoizing
# envelope then fills its cache once per run, and every answer is the same float.
LipOracle = Callable[[np.ndarray, float | np.ndarray], np.ndarray]

def monotone_lip_envelope(raw: LipOracle, r_top: float, res: float) -> LipOracle:
    """Monotone-nondecreasing envelope of a certified Lipschitz-bound oracle.

    The raw oracle is evaluated on a fixed geometric radius grid and a query
    at rho returns the minimum over grid radii >= rho (a bound certified on a
    larger ball also bounds the smaller one).  Snapping to the grid makes the
    result nondecreasing in rho by construction and lets the evaluations be
    memoized per center.  A query fills the (center, level) pairs it needs
    and the cache lacks with ``raw`` calls of up to ``_ROW_BLOCK`` pairs,
    one grid radius per pair.

    An envelope on the same (r_top, res) grid comes back as it is: E(E(raw))
    = E(raw), since a grid radius snaps to its own level and the minimum over
    levels >= lo of the suffix minima is the suffix minimum at lo.  At most
    the sign of a zero bound differs, which ``fmax(1, K)`` cannot see.
    """
    if getattr(raw, "envelope_grid", None) == (r_top, res):
        return raw
    grid = [res]
    while grid[-1] < r_top:
        grid.append(grid[-1] * 2.0)
    cache: dict[tuple[int, int], float] = {}

    def lip(cs, rho):
        # per center: the first grid level at or above its radius
        lo = np.broadcast_to(np.minimum(np.searchsorted(grid, rho), len(grid) - 1), cs.shape)
        # the distinct centers in order of first appearance, and per center
        # the lowest level any of its queries needs
        slot: dict[int, int] = {}
        inv = np.array([slot.setdefault(c, len(slot)) for c in cs.tolist()], dtype=int)
        first = np.full(len(slot), len(grid))
        np.minimum.at(first, inv, lo)
        missing = [
            (c, j) for c, f in zip(slot, first.tolist()) for j in range(f, len(grid))
            if (c, j) not in cache
        ]
        for i in range(0, len(missing), _ROW_BLOCK):
            part = missing[i:i + _ROW_BLOCK]
            vals = raw(np.array([c for c, _ in part]), np.array([grid[j] for _, j in part]))
            cache.update(zip(part, vals.tolist()))
        levels = [[cache.get((c, j), np.inf) for j in range(len(grid))] for c in slot]
        table = np.array(levels, dtype=float).reshape(len(slot), len(grid))
        # min over the levels from lo up; fmin skips a NaN bound, and the
        # final fmin with inf turns an all-NaN suffix into inf
        suffix = np.fmin.accumulate(table[:, ::-1], axis=1)[:, ::-1]
        return np.fmin(suffix[inv, lo], np.inf)

    lip.envelope_grid = (r_top, res)
    return lip


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bit for bit equal floats (0.0 and -0.0 differ)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class FunSeqItem:
    """One member of a function sequence on the sampled set Y = H.

    ``values`` holds the evaluations at the Y samples; ``lip_bound(cs, rho)``
    upper-bounds, per center c in the int array ``cs``, the difference
    quotients over sampled pairs inside the closed ball B_Y(c, rho), with one
    radius or one radius per center (``LipOracle``); ``sup_bound`` dominates
    the sup norm of the values.  An item carries nothing else: each stage
    reads only its predecessor's values and bounds, and the stages' own
    objects (covers, radius field, selection state) stay with the stages.
    """

    n: int
    values: np.ndarray  # (nY, m)
    sup_bound: float
    lip_bound: LipOracle
    norm_tag: str = "linf"


@dataclass
class FunctionBundle:
    """Scenario-supplied data: the raw sequence, its limit and certificates."""

    hspace: SampledSpace  # Y = H with a dense distance matrix
    norm_tag: str
    h_values: np.ndarray  # (n_seq, nY, m)
    f_values: np.ndarray  # (nY, m)
    # (n, centers, rho) -> one Lipschitz bound of h_n per center, as a LipOracle
    h_lip: Optional[Callable[[int, np.ndarray, float | np.ndarray], np.ndarray]]
    conv_mask: np.ndarray  # (nY,) pointwise convergence certified
    ucpc_certified: bool = False
    continuity_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def n_seq(self) -> int:
        return len(self.h_values)


def sampled_lip_oracle(space: SampledSpace, values: np.ndarray, tag: str) -> LipOracle:
    """Exact maximum difference quotient over sampled pairs in a ball.

    In finite mode the samples are the whole space, so this is the true local
    Lipschitz constant; in sampled mode it is only a lower estimate of the
    continuum constant, so the pipeline builds it in finite mode only.

    A call builds one quotient table over the union of its balls, upper
    triangle only (the metric is symmetric), reading the dense matrix itself
    when the union is every sample.  A ball whose samples are a run of
    consecutive union positions (every ball of a 1-D space sampled in order)
    reads its maximum from one entry of the table's running maxima,
    rightward along the rows and then upward along the columns; any other
    ball takes the maximum of its own block.  Max is exact, so the answer is
    the same float either way.

    A call compares its balls with ``D`` ``_ROW_BLOCK`` centers at a time,
    so a mollify run's call, k copies of every center, builds one table.
    """
    D = space.dense_matrix()
    nY = len(D)

    def lip(cs: np.ndarray, rho) -> np.ndarray:
        rho = np.broadcast_to(rho, cs.shape)
        # 0 stands for a pair at distance 0, which no quotient is taken over,
        # and for a ball of fewer than two samples
        out = np.zeros(len(cs))
        union = np.zeros(nY, dtype=bool)
        size, first, last = (np.zeros(len(cs), dtype=int) for _ in range(3))
        for a in range(0, len(cs), _ROW_BLOCK):
            b = slice(a, a + _ROW_BLOCK)
            balls = D[cs[b]] <= rho[b, None]
            union |= balls.any(axis=0)
            size[b] = balls.sum(axis=1)
            first[b], last[b] = balls.argmax(axis=1), nY - 1 - balls[:, ::-1].argmax(axis=1)
        big = np.flatnonzero(size >= 2)
        if not big.size:
            return out
        u = np.flatnonzero(union)
        dd = _rows_cols(D, u, u)
        vals = values[u]
        quot = np.zeros(dd.shape)
        col = np.arange(len(u))
        for a in range(0, len(u), _ROW_BLOCK):
            b = slice(a, a + _ROW_BLOCK)
            vd = norm(vals[b, None, :] - vals[None, :, :], tag)
            keep = (dd[b] > 0) & (col > col[b, None])
            np.divide(vd, dd[b], out=quot[b], where=keep)
        pos = np.cumsum(union) - 1
        first, last = pos[first[big]], pos[last[big]]
        run = last - first + 1 == size[big]
        for i in big[~run].tolist():
            p = pos[D[cs[i]] <= rho[i]]
            out[i] = quot[p[:, None], p].max()
        # quot[a, h] becomes the max over a <= a' <= b' <= h of the old table
        np.maximum.accumulate(quot, axis=1, out=quot)
        np.maximum.accumulate(quot[::-1], axis=0, out=quot[::-1])
        out[big[run]] = quot[first[run], last[run]]
        return out

    return lip


# ---------------------------------------------------------------------------
# selection transform (finite mode)
# ---------------------------------------------------------------------------

@dataclass
class SelectionState:
    """What the pipeline reads of the selection transform: per level k the
    matched set C_k, and the selected outputs.  The level covers are built
    and consumed inside ``ucpc_transform``."""

    c_masks: list[np.ndarray]  # per level: y in C_k
    outputs: np.ndarray  # (n_seq, nY, m)


def _preimage_radii(D: np.ndarray, fdiff: np.ndarray, k: int, cap: float) -> np.ndarray:
    """Largest metric-ball radius around each y inside the preimage of the
    target ball B_Z(f(y), 2^-k), at most ``cap`` (``D.max() + 1``)."""
    rho = D.min(axis=1, where=fdiff >= 2.0 ** (-k), initial=np.inf)
    return np.minimum(rho, cap)


@dataclass
class _CoverRun:
    """Consecutive levels ``first``..``last`` with bit for bit equal preimage
    radii ``rho``: one refined cover, as ``ball_depth`` pairs (sample ``ys``,
    target center ``zs``, ``depth``); level i gives pair z the ball B_Z(z, 2^-i)."""

    rho: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    depth: np.ndarray
    first: int
    last: int


def ucpc_transform(bundle: FunctionBundle) -> SelectionState:
    """Selection transform on a finite space, one level per raw item.

    Level k builds a refined ball cover whose balls G satisfy
    f(G) c B_Z(z_G, 2^-k); the constraint set at y intersects the closed balls
    of all levels i <= k containing y.  The output keeps h_k(y) where it
    already satisfies the full constraint set (y in C_k) and otherwise picks a
    point within 2^-k of the margin-1/k constraint set.

    The cover depends on k only through which gaps ||f(y) - f(y')|| reach
    2^-k, so once 2^-k is below f's smallest positive gap the preimage radii
    repeat.  A run of levels with equal radii shares one cover and one set of
    (sample, ball) pairs (``_CoverRun``).  Only a ball holding y constrains
    y, and a run's balls around one center are concentric, its last level's
    the smallest, so C_k is one comparison per run against 2^-last (exact:
    the radii are powers of two).

    Each sample off C_k gets a point within 2^-k of its margin-1/k balls,
    every level's copy of its run's balls in level-then-ball order: one
    grouped ``_intersection_points`` call per level gives every sample the
    point its own ``ball_intersection_point`` call gives.  Only C_k and the
    outputs are returned.
    """
    space = bundle.hspace
    if space.mode != "finite":
        raise ValueError("the selection transform runs in finite mode only")
    n_seq = bundle.n_seq
    tag = bundle.norm_tag
    nY, m = bundle.f_values.shape
    D = space.dense_matrix()
    fdiff = norm(bundle.f_values[:, None, :] - bundle.f_values[None, :, :], tag)
    cap = D.max() + 1.0

    c_masks: list[np.ndarray] = []
    outputs = np.zeros((n_seq, nY, m))
    runs: list[_CoverRun] = []

    for k in range(1, n_seq + 1):
        rho = _preimage_radii(D, fdiff, k, cap)
        if runs and _same_bits(rho, runs[-1].rho):
            runs[-1].last = k
        else:
            refined = build_refinement(space, CoverSystem(centers=np.arange(nY), radii=rho))
            ys, bs, depth = ball_depth(space, refined.centers, refined.radii)
            runs.append(_CoverRun(rho, ys, bundle.f_values[refined.centers[bs]], depth, k, k))

        # C_k: h_k(y) lies in every constraint ball of the full system
        hk = bundle.h_values[k - 1]
        in_c = np.ones(nY, dtype=bool)
        for run in runs:
            in_c[run.ys[norm(hk[run.ys] - run.zs, tag) > 2.0 ** (-run.last)]] = False
        c_masks.append(in_c)

        outputs[k - 1] = hk
        if in_c.all():
            continue
        # every level's copy of the margin balls off C_k, stably grouped by sample
        py, pz, pr = [], [], []
        for run in runs:
            keep = np.flatnonzero((run.depth >= 1.0 / k) & ~in_c[run.ys])
            levels = np.arange(run.first, run.last + 1)
            py.append(np.tile(run.ys[keep], len(levels)))
            pz.append(np.tile(run.zs[keep], (len(levels), 1)))
            pr.append(np.repeat(np.ldexp(1.0, -levels), len(keep)))  # 2^-i, exactly
        py, pz, pr = map(np.concatenate, (py, pz, pr))
        order = np.argsort(py, kind="stable")
        bounds = np.searchsorted(py[order], np.arange(nY + 1))
        off = np.flatnonzero(~in_c)
        # the margin balls hold the samples off C_k alone, so their starts split them
        pts, ok = _intersection_points(pz[order], pr[order], bounds[off], 2.0 ** (-k), tag)
        if not ok.all():
            # f(y) is in every constraint ball, so this cannot happen
            raise RuntimeError(f"empty constraint set at level {k}, sample {off[~ok][0]}")
        outputs[k - 1, off] = pts

    return SelectionState(c_masks=c_masks, outputs=outputs)


# ---------------------------------------------------------------------------
# global boundedness
# ---------------------------------------------------------------------------

def bound_sequence(items: list[FunSeqItem]) -> list[FunSeqItem]:
    """Compose item n with the radial projection onto the ball of radius n.
    Consecutive items that scale one oracle by one factor share the scaled
    oracle."""
    out = []
    old = factor = scaled = None
    for it in items:
        n = it.n
        new_vals = radial_project(it.values, float(n), it.norm_tag)
        if it.sup_bound <= n:
            lip = it.lip_bound  # projection is the identity on the range
        else:
            f = retraction_factor(it.norm_tag, it.values.shape[1])
            if it.lip_bound is not old or f != factor:
                old, factor = it.lip_bound, f
                scaled = lambda c, rho, _old=old, _f=f: _f * _old(c, rho)
            lip = scaled
        out.append(
            replace(it, values=new_vals, sup_bound=min(it.sup_bound, float(n)), lip_bound=lip)
        )
    return out


# ---------------------------------------------------------------------------
# local uniform boundedness via the radius field r(y)
# ---------------------------------------------------------------------------

@dataclass
class BoundRadiusField:
    """The radius field r(y) = inf_n [ (n+1) + 1/dist(y, Y \\ O_n) ] and the
    data needed to certify its local Lipschitz constants.

    O_n is the (scale-delta, in sampled mode) interior of the set where
    pointwise convergence is certified and ||f|| < n.  The infimum saturates:
    beyond n_sat the sets O_n stop growing and the candidates only increase.
    """

    r: np.ndarray  # (nY,)
    o_masks: np.ndarray  # (n_sat, nY)
    d_compl: np.ndarray  # (n_sat, nY) dist(y, Y \\ O_n), inf if complement empty
    n_sat: int
    D: np.ndarray  # pairwise distances on Y

    def lip_r(self, cs: np.ndarray, rho) -> np.ndarray:
        """Upper bound for difference quotients of r over sampled pairs in
        B(c, rho) per center c; 0 where r is certifiably infinite or constant
        (a ``LipOracle``)."""
        rho = np.broadcast_to(rho, cs.shape)
        dc = self.d_compl[:, cs]
        lvl = self._levels
        inf_dc = np.isinf(dc)
        clear = ~inf_dc & (dc > rho)
        # certified sup of r over the ball: the min over levels n with c in O_n
        # of n + 2 (O_n's complement empty) or (n + 2) + 1/(dc - rho) (dc > rho)
        inv = np.divide(1.0, dc - rho, out=np.zeros_like(dc), where=clear)
        cand = np.where(inf_dc, lvl, np.where(clear, lvl + inv, np.inf))
        r_sup = np.where(self.o_masks[:, cs], cand, np.inf).min(axis=0)
        # candidates above the sup are never the minimum; the others add
        # 0 (constant), 1/(dc - rho)^2 (clear of the ball) or 2 r_sup^2 (the
        # O_n boundary may cross the ball)
        kept = lvl <= r_sup
        gap = np.where(kept & clear, dc - rho, np.inf).min(axis=0)
        crossed = (kept & ~inf_dc & ~clear).any(axis=0)
        # scalar powers, as in the per-level formula: the array square x*x
        # and pow(x, 2) differ in the last bit for some x.  1/gap^2 is the
        # largest clear term, since pow and 1/x are monotone
        best = [
            max(0.0, 1.0 / g**2, 2.0 * r**2 if x else 0.0)
            for g, r, x in zip(gap, r_sup, crossed)
        ]
        out = np.where(np.isinf(r_sup), np.inf, best)
        # a ball outside every O_n has r = inf on all of it
        out[~self._ball_meets_o(cs, rho)] = 0.0
        return out

    @cached_property
    def _levels(self) -> np.ndarray:
        return np.arange(self.n_sat, dtype=float)[:, None] + 2.0

    @cached_property
    def _o_cols(self) -> np.ndarray:
        return np.flatnonzero(self.o_masks.any(axis=0))

    def _ball_meets_o(self, cs: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Per center: does B(c, rho) hold a sample of some O_n.  Compared in
        row blocks, so no len(cs) x nY copy of D is built."""
        cols = self._o_cols
        hit = np.zeros(len(cs), dtype=bool)
        for i in range(0, len(cs), _ROW_BLOCK):
            block = slice(i, i + _ROW_BLOCK)
            hit[block] = (self.D[cs[block, None], cols] <= rho[block, None]).any(axis=1)
        return hit


def local_bound_radius(bundle: FunctionBundle) -> BoundRadiusField:
    """Compute r(y) on all samples from the convergence certificate and f."""
    space = bundle.hspace
    tag = bundle.norm_tag
    nY = len(bundle.f_values)
    D = space.dense_matrix()
    fn = norm(bundle.f_values, tag)
    certified = np.asarray(bundle.conv_mask, dtype=bool)
    if certified.any():
        n_sat = int(np.floor(fn[certified].max())) + 1
    else:
        n_sat = 1
    n_sat = max(n_sat, 1)

    o_masks = np.zeros((n_sat, nY), dtype=bool)
    d_compl = np.full((n_sat, nY), np.inf)
    phi = np.full((n_sat, nY), np.inf)
    for n in range(1, n_sat + 1):
        s = certified & (fn < n)
        if space.mode == "sampled" and (~s).any():
            margin = D[:, ~s].min(axis=1)
            o = s & (margin >= space.delta)
        else:
            o = s
        o_masks[n - 1] = o
        if (~o).any():
            d_compl[n - 1] = D[:, ~o].min(axis=1)
        phi[n - 1, o] = (n + 1.0) + 1.0 / d_compl[n - 1, o]
    r = phi.min(axis=0)
    return BoundRadiusField(r=r, o_masks=o_masks, d_compl=d_compl, n_sat=n_sat, D=D)


def enforce_local_uniform_boundedness(
    items: list[FunSeqItem], bundle: FunctionBundle, rad: Optional[BoundRadiusField] = None
) -> tuple[list[FunSeqItem], BoundRadiusField]:
    """Compose each item with the pointwise radial projection P_{r(y)}.
    Consecutive items with one input oracle share its envelope."""
    if rad is None:
        rad = local_bound_radius(bundle)
    tag = bundle.norm_tag
    r_min = float(rad.r.min())
    factor = retraction_factor(tag, bundle.f_values.shape[1])
    finite = np.isfinite(rad.r)
    out = []
    old = env = None
    for it in items:
        vals = it.values.copy()
        vals[finite] = radial_project(it.values[finite], rad.r[finite], tag)
        if it.sup_bound <= r_min:
            lip = it.lip_bound  # every projection is the identity on the range
        else:
            if it.lip_bound is not old:
                old = it.lip_bound

                def raw(c, rho, _old=old, _rad=rad, _f=factor):
                    return _f * (_old(c, rho) + _rad.lip_r(c, rho))

                # lip_r is not monotone across its branch switches; re-establish
                # the nondecreasing-in-radius invariant with the envelope
                env = monotone_lip_envelope(
                    raw, float(rad.D.max()), bundle.hspace.resolution()
                )
            lip = env
        out.append(replace(it, values=vals, lip_bound=lip))
    return out, rad


# ---------------------------------------------------------------------------
# mollification: partition-of-unity blend over a fine ball cover
# ---------------------------------------------------------------------------

def m_bound(n: int) -> float:
    """Certified sup bound M_n = n + 2 for the finished item n (radial bound n
    plus blend error 2/n <= 2); the extension's selection test uses it too."""
    return float(n + 2)


def _mollify_radii(space: SampledSpace, run: list[FunSeqItem]) -> np.ndarray:
    """delta(y) per sample, one row per item n of a run with one oracle: the
    radius on which the item oscillates by at most 1/n, floored at the
    resolution.  One oracle call answers the whole run; by the ``LipOracle``
    contract each delta is the float a call for its item alone gives."""
    lip = run[0].lip_bound
    if lip is None:
        raise ValueError("mollification needs a Lipschitz-bound oracle")
    k, nY = len(run), len(run[0].values)
    n = np.array([[it.n] for it in run], dtype=float)
    lip_at = np.asarray(lip(np.tile(np.arange(nY), k), np.repeat(1.0 / n, nY)), dtype=float)
    if lip_at.shape != (k * nY,):
        raise ValueError("the Lipschitz-bound oracle must map an array of centers to an array")
    lip_at = lip_at.reshape(k, nY)
    with np.errstate(divide="ignore"):
        delta = np.minimum(1.0 / n, np.where(lip_at > 0, 1.0 / (n * lip_at), np.inf))
    return np.maximum(delta, space.resolution())  # such balls are singletons


def _mollified_sup(item: FunSeqItem, n: int) -> float:
    """The blend moves no value by more than 2/n, and M_n caps the bound."""
    return min(item.sup_bound + 2.0 / n, m_bound(n))


def lipschitz_mollify(
    space: SampledSpace, item: FunSeqItem, n: int, delta: np.ndarray
) -> FunSeqItem:
    """Blend item values over a cover of balls B(x, delta(x)/2) where the item
    oscillates by at most 1/n on B(x, delta(x)) (``_mollify_radii``); the
    result is within 2/n of the input at every sample.

    The blend and its oracle depend on the input only through its values,
    its oracle and the radii delta; n enters through delta and the sup
    bound alone.  The oracle is l_rho, the input's bound, on a ball with
    no blend error, and bounds the cover only for the other balls.  A blend
    that moved no sample keeps the input's oracle under the envelope,
    which returns an envelope on its own grid as it is (E(E(raw)) = E(raw)).
    """
    tag = item.norm_tag
    D = space.dense_matrix()
    res = space.resolution()

    refined = build_refinement(space, CoverSystem(centers=np.arange(len(delta)), radii=delta))
    pou = partition_of_unity(space, refined)
    anchors = item.values[refined.centers]
    # the dense product, as one table for this item alone: a sum over the
    # nonzeros only, or over row blocks, can round differently
    values = dense_weights(pou) @ anchors
    err = norm(values - item.values, tag)

    old = item.lip_bound
    centers, radii = refined.centers, refined.radii

    def lip(cs: np.ndarray, rho) -> np.ndarray:
        rho = np.broadcast_to(rho, cs.shape)
        Dc = D[cs]
        s = Dc <= rho[:, None]  # D[c, c] = 0: no ball is empty
        e = np.where(s, err, -np.inf).max(axis=1, initial=-np.inf)
        answer = old(cs, rho)  # l_rho: the blend is the identity on a ball without error
        hot = np.flatnonzero(e != 0.0)  # NaN != 0: a NaN error is hot
        if not hot.size:
            return answer
        Dc, s, e, rho, cs, l_rho = Dc[hot], s[hot], e[hot], rho[hot], cs[hot], answer[hot]
        active = Dc[:, centers] <= rho[:, None] + radii
        rad_max = np.where(active, radii, 0.0).max(axis=1, initial=0.0)
        near = Dc <= (rho + rad_max)[:, None]
        # multiplicity: the most active balls holding one sample near the ball
        counts = ball_multiplicity(pou.weights, active)
        mult = np.where(near, counts, 0.0).max(axis=1, initial=0.0)
        n_pair = 2.0 * np.maximum(mult, 1.0)
        w_min = np.where(s, pou.weight_sum, np.inf).min(axis=1, initial=np.inf)
        d_max = np.maximum(2.0 * rho, res)
        lb = old(cs, rho + 2.0 * rad_max)
        # quotient <= min(a(d), l_rho + 2E/d) with a(d) = alpha*(rad_max+d);
        # alpha carries the weight-sum variation (1 + N*rad_max/W) and the
        # max over pair distances d in [res, d_max] sits at the crossover
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha = 2.0 * n_pair * lb / w_min * (1.0 + n_pair * rad_max / w_min)
            bq = alpha * rad_max - l_rho
            d_star = (-bq + np.sqrt(bq * bq + 8.0 * alpha * e)) / (2.0 * alpha)
            dc = np.clip(d_star, res, d_max)
            # min(a, b) and max(bound, 0) as the scalar formula takes them:
            # the first operand unless the second is strictly smaller/larger
            a, b = alpha * (rad_max + dc), l_rho + 2.0 * e / dc
            bound = np.where(b < a, b, a)
            out = np.where(0.0 > bound, 0.0, bound)
        # the branches in order of precedence, the first one last
        out = np.where(alpha == 0.0, l_rho, out)
        out = np.where(~np.isfinite(lb) | (w_min <= 0), l_rho + 2.0 * e / res, out)
        answer = answer.copy()
        answer[hot] = out
        return answer

    return replace(
        item,
        values=values,
        sup_bound=_mollified_sup(item, n),
        # the crossover bound is not monotone where the blend error first
        # appears; the envelope restores the nondecreasing-in-radius invariant
        lip_bound=monotone_lip_envelope(lip if err.any() else old, float(D.max()), res),
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def baire_approximate(
    bundle: FunctionBundle, diag: Optional[Callable[[dict], None]] = None
) -> list[FunSeqItem]:
    """Full pipeline: selection transform (finite mode), radial bounding,
    local uniform boundedness, then mollification of every item; one item
    per raw item of the bundle.

    The items carry only values and bounds.  ``diag`` gets one line per
    stage and item with the measured ``max_violation``; for mollify that is
    the largest blend error ||f_n - pre-blend item|| over the samples.

    A stage reuses its result for the previous item when this item's input
    matches that item's: a selection output bit for bit equal to its
    predecessor shares its ``sampled_lip_oracle``, the bound stages wrap
    each oracle object once per run of items, and one oracle call gives the
    mollify radii delta of a run of inputs with one oracle and equal values;
    an input whose delta equals its predecessor's shares that item's blend
    and post-blend oracle, with its own n and sup bound.  The reuse is
    exact: an oracle depends only on the inputs it was built from
    (``LipOracle``), and so do the blend and its cover.  On a finite H the
    selection outputs repeat in long runs once h_n has settled at every
    sample; the reuse holds one run's radii of extra state."""
    n_seq = bundle.n_seq
    tag = bundle.norm_tag
    space = bundle.hspace

    def emit(stage, n, violation):
        # no stage builds an uncertified item: every line says certified
        if diag is not None:
            diag({"stage": stage, "n": n, "max_violation": violation, "certified": True})

    if space.mode == "finite":
        state = ucpc_transform(bundle)
        items = []
        for k in range(1, n_seq + 1):
            vals = state.outputs[k - 1]
            if items and _same_bits(vals, items[-1].values):
                lip = items[-1].lip_bound
            else:
                lip = sampled_lip_oracle(space, vals, tag)
            sup = float(norm(vals, tag).max())
            items.append(FunSeqItem(n=k, values=vals, sup_bound=sup, lip_bound=lip, norm_tag=tag))
            on_c = state.c_masks[k - 1]
            dev = float(norm(vals[on_c] - bundle.h_values[k - 1][on_c], tag).max()) if on_c.any() else 0.0
            emit("ucpc_transform", k, dev)
    else:
        if not bundle.ucpc_certified:
            raise ValueError(
                "sampled-continuum mode needs a UCPC certificate for the raw "
                "sequence (or discretize to finite mode first)"
            )
        if bundle.h_lip is None:
            raise ValueError("sampled-continuum mode needs a raw Lipschitz oracle")
        emit("ucpc_transform", 0, 0.0)  # skipped: raw sequence certified
        items = []
        for k in range(1, n_seq + 1):
            vals = bundle.h_values[k - 1]
            lip = partial(bundle.h_lip, k)
            sup = float(norm(vals, tag).max())
            items.append(FunSeqItem(n=k, values=vals, sup_bound=sup, lip_bound=lip, norm_tag=tag))

    items = bound_sequence(items)
    for it in items:
        excess = float(norm(it.values, tag).max()) - it.n
        emit("bound", it.n, max(0.0, excess))

    items, rad = enforce_local_uniform_boundedness(items, bundle)
    finite = np.isfinite(rad.r)
    for it in items:
        excess = norm(it.values[finite], tag) - rad.r[finite]
        emit("enforce_bound", it.n, float(excess.max(initial=0.0)))

    # runs of consecutive inputs with one oracle object and equal values
    starts = [
        i for i, it in enumerate(items)
        if not i or it.lip_bound is not items[i - 1].lip_bound
        or not _same_bits(it.values, items[i - 1].values)
    ]
    out = []
    for a, b in zip(starts, starts[1:] + [len(items)]):
        deltas = _mollify_radii(space, items[a:b])
        for j, (it, delta) in enumerate(zip(items[a:b], deltas)):
            if j and _same_bits(delta, deltas[j - 1]):
                mo = replace(out[-1], n=it.n, sup_bound=_mollified_sup(it, it.n))
            else:
                mo = lipschitz_mollify(space, it, it.n, delta)
            out.append(mo)
            emit("mollify", mo.n, float(norm(mo.values - it.values, tag).max()))
    return out
