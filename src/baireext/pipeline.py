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
from .target import EMPTY, ball_intersection_point, norm, radial_project, retraction_factor

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
# (cs[i], rho[i]), never on the other centers of the call.
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
    """
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

    return lip


@dataclass
class FunSeqItem:
    """One member of a function sequence on the sampled set Y = H.

    ``values`` holds the evaluations at the Y samples; ``lip_bound(cs, rho)``
    upper-bounds, per center c in the int array ``cs``, the difference
    quotients over sampled pairs inside the closed ball B_Y(c, rho), with one
    radius or one radius per center (``LipOracle``); ``sup_bound`` dominates
    the sup norm of the values.
    """

    n: int
    values: np.ndarray  # (nY, m)
    sup_bound: float
    lip_bound: LipOracle
    certified: bool = True
    norm_tag: str = "linf"
    extras: dict = field(default_factory=dict)


@dataclass
class FunctionBundle:
    """Scenario-supplied data: the raw sequence, its limit and certificates."""

    hspace: SampledSpace  # Y = H with a dense distance matrix
    m: int
    norm_tag: str
    h_values: np.ndarray  # (n_seq, nY, m)
    f_values: np.ndarray  # (nY, m)
    # (n, centers, rho) -> one Lipschitz bound of h_n per center, as a LipOracle
    h_lip: Optional[Callable[[int, np.ndarray, float | np.ndarray], np.ndarray]]
    conv_mask: np.ndarray  # (nY,) pointwise convergence certified
    ucpc_certified: bool = False
    continuity_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    discontinuity_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def n_seq(self) -> int:
        return len(self.h_values)


def sampled_lip_oracle(space: SampledSpace, values: np.ndarray, tag: str) -> LipOracle:
    """Exact maximum difference quotient over sampled pairs in a ball.

    In finite mode the samples are the whole space, so this is the true local
    Lipschitz constant; in sampled mode it is only a lower estimate of the
    continuum constant and callers must flag the result as non-certified.

    A call builds one quotient table over the union of its balls, upper
    triangle only (the metric is symmetric), reading the dense matrix itself
    when the union is every sample.  A ball whose samples are a run of
    consecutive union positions (every ball of a 1-D space sampled in order)
    reads its maximum from one entry of the table's running maxima,
    rightward along the rows and then upward along the columns; any other
    ball takes the maximum of its own block.  Max is exact, so the answer is
    the same float either way.
    """
    D = space.dense_matrix()

    def lip(cs: np.ndarray, rho) -> np.ndarray:
        # 0 stands for a pair at distance 0, which no quotient is taken over,
        # and for a ball of fewer than two samples
        out = np.zeros(len(cs))
        balls = D[cs] <= np.broadcast_to(rho, cs.shape)[:, None]
        union = balls.any(axis=0)
        u = np.flatnonzero(union)
        size = balls.sum(axis=1)
        big = np.flatnonzero(size >= 2)
        if not big.size:
            return out
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
        first = pos[balls[big].argmax(axis=1)]
        last = pos[len(D) - 1 - balls[big, ::-1].argmax(axis=1)]
        run = last - first + 1 == size[big]
        for i in big[~run].tolist():
            p = pos[balls[i]]
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
class LevelCover:
    """Refined cover at one selection level k: metric balls with target-space
    centers z such that f maps each ball into B_Z(z, 2^-k)."""

    k: int
    cover: CoverSystem
    z: np.ndarray  # (nb, m) target-space centers
    member: np.ndarray  # (nY, nb) open-ball membership
    depth: np.ndarray  # (nY, nb) dist(y, complement of ball); inf if none


@dataclass
class SelectionState:
    """Per-level covers, the matched sets C_k and the selected outputs."""

    levels: list[LevelCover]
    c_masks: list[np.ndarray]  # per level: y in C_k
    outputs: np.ndarray  # (n_seq, nY, m)


def _preimage_radii(D: np.ndarray, fdiff: np.ndarray, k: int) -> np.ndarray:
    """Largest metric-ball radius around each y inside the preimage of the
    target ball B_Z(f(y), 2^-k)."""
    cap = D.max() + 1.0
    far = fdiff >= 2.0 ** (-k)
    rho = np.where(far, D, np.inf).min(axis=1)
    return np.minimum(rho, cap)


def _append(buf: np.ndarray, used: int, new: np.ndarray) -> np.ndarray:
    """``buf`` with ``new`` written after its first ``used`` rows, in a copy
    of twice the size when it does not fit."""
    if used + len(new) > len(buf):
        grown = np.empty((max(2 * len(buf), used + len(new)),) + buf.shape[1:], buf.dtype)
        grown[:used] = buf[:used]
        buf = grown
    buf[used:used + len(new)] = new
    return buf


def ucpc_transform(bundle: FunctionBundle, n_seq: Optional[int] = None) -> SelectionState:
    """Selection transform on a finite space.

    Level k builds a refined ball cover whose balls G satisfy
    f(G) c B_Z(z_G, 2^-k); the constraint set at y intersects the closed balls
    of all levels i <= k containing y.  The output keeps h_k(y) where it
    already satisfies the full constraint set (y in C_k) and otherwise picks a
    point within 2^-k of the margin-1/k constraint set.

    The constraint balls of every level built so far are held as stacked
    arrays of their (sample, ball) membership pairs, in level-then-sample
    order: the sample, the ball's target center and radius, and the depth
    of the sample in the ball.  Each array doubles when it is full.  Only a
    ball holding y constrains y, and a ball has depth 0 at a sample outside
    it, so C_k is one comparison over the pairs, and each sample off C_k
    passes its margin-1/k balls, in level-then-ball order, to one
    ``ball_intersection_point`` call.
    """
    space = bundle.hspace
    if space.mode != "finite":
        raise ValueError("the selection transform runs in finite mode only")
    n_seq = bundle.n_seq if n_seq is None else n_seq
    tag = bundle.norm_tag
    nY, m = bundle.f_values.shape
    D = space.dense_matrix()
    fdiff = norm(bundle.f_values[:, None, :] - bundle.f_values[None, :, :], tag)

    levels: list[LevelCover] = []
    c_masks: list[np.ndarray] = []
    outputs = np.zeros((n_seq, nY, m))
    pair_y, pair_z = np.zeros(0, dtype=np.intp), np.zeros((0, m))
    pair_r, pair_depth = np.zeros(0), np.zeros(0)
    n_pairs = 0

    for k in range(1, n_seq + 1):
        rho = _preimage_radii(D, fdiff, k)
        raw = CoverSystem(
            centers=np.arange(nY), radii=rho, covered=np.arange(nY)
        )
        refined = build_refinement(space, raw, rho)
        member, depth = ball_depth(space, refined.centers, refined.radii)
        z = bundle.f_values[refined.centers]
        levels.append(LevelCover(k=k, cover=refined, z=z, member=member, depth=depth))
        ys, bs = np.nonzero(member)  # row-major: a sample's balls ascend
        pair_y = _append(pair_y, n_pairs, ys)
        pair_z = _append(pair_z, n_pairs, z[bs])
        pair_r = _append(pair_r, n_pairs, np.full(len(ys), 2.0 ** (-k)))
        pair_depth = _append(pair_depth, n_pairs, depth[ys, bs])
        n_pairs += len(ys)
        py = pair_y[:n_pairs]

        # C_k: h_k(y) lies in every constraint ball of the full system
        hk = bundle.h_values[k - 1]
        viol = norm(hk[py] - pair_z[:n_pairs], tag) > pair_r[:n_pairs]
        in_c = np.ones(nY, dtype=bool)
        in_c[py[viol]] = False
        c_masks.append(in_c)

        outputs[k - 1] = hk
        if in_c.all():
            continue
        # the margin balls of the samples off C_k, grouped by sample
        sel = np.flatnonzero((pair_depth[:n_pairs] >= 1.0 / k) & ~in_c[py])
        sel = sel[np.argsort(py[sel], kind="stable")]
        bounds = np.searchsorted(py[sel], np.arange(nY + 1))
        for y in np.flatnonzero(~in_c).tolist():
            b = sel[bounds[y]:bounds[y + 1]]
            pt = ball_intersection_point(pair_z[b], pair_r[b], 2.0 ** (-k), tag)
            if pt is EMPTY:
                # f(y) is in every constraint ball, so this cannot happen
                raise RuntimeError(f"empty constraint set at level {k}, sample {y}")
            outputs[k - 1, y] = pt

    return SelectionState(levels=levels, c_masks=c_masks, outputs=outputs)


# ---------------------------------------------------------------------------
# global boundedness
# ---------------------------------------------------------------------------

def bound_sequence(items: list[FunSeqItem]) -> list[FunSeqItem]:
    """Compose item n with the radial projection onto the ball of radius n."""
    out = []
    for it in items:
        n = it.n
        new_vals = radial_project(it.values, float(n), it.norm_tag)
        if it.sup_bound <= n:
            lip = it.lip_bound  # projection is the identity on the range
        else:
            factor = retraction_factor(it.norm_tag, it.values.shape[1])
            old = it.lip_bound
            lip = lambda c, rho, _old=old, _f=factor: _f * _old(c, rho)
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
    """Compose each item with the pointwise radial projection P_{r(y)}."""
    if rad is None:
        rad = local_bound_radius(bundle)
    tag = bundle.norm_tag
    m = bundle.m
    r_min = float(rad.r.min())
    factor = retraction_factor(tag, m)
    finite = np.isfinite(rad.r)
    out = []
    for it in items:
        vals = it.values.copy()
        vals[finite] = radial_project(it.values[finite], rad.r[finite], tag)
        if it.sup_bound <= r_min:
            lip = it.lip_bound  # every projection is the identity on the range
        else:
            old = it.lip_bound

            def raw(c, rho, _old=old, _rad=rad, _f=factor):
                return _f * (_old(c, rho) + _rad.lip_r(c, rho))

            # lip_r is not monotone across its branch switches; re-establish
            # the nondecreasing-in-radius invariant with the envelope
            lip = monotone_lip_envelope(
                raw, float(rad.D.max()), bundle.hspace.resolution()
            )
        out.append(replace(it, values=vals, lip_bound=lip))
    return out, rad


# ---------------------------------------------------------------------------
# mollification: partition-of-unity blend over a fine ball cover
# ---------------------------------------------------------------------------

def m_bound(n: int) -> float:
    """Certified sup bound M_n = n + 2 for the finished item n (radial bound n
    plus blend error 2/n <= 2); the extension's selection test uses it too."""
    return float(n + 2)


def lipschitz_mollify(space: SampledSpace, item: FunSeqItem, n: int) -> FunSeqItem:
    """Blend item values over a cover of balls B(x, delta(x)/2) where the item
    oscillates by at most 1/n on B(x, delta(x)); the result is within 2/n of
    the input at every sample.
    """
    if item.lip_bound is None:
        raise ValueError("mollification needs a Lipschitz-bound oracle")
    tag = item.norm_tag
    D = space.dense_matrix()
    nY = len(item.values)
    res = space.resolution()

    lip_at = np.asarray(item.lip_bound(np.arange(nY), 1.0 / n), dtype=float)
    if lip_at.shape != (nY,):
        raise ValueError("the Lipschitz-bound oracle must map an array of centers to an array")
    with np.errstate(divide="ignore"):
        delta = np.minimum(1.0 / n, np.where(lip_at > 0, 1.0 / (n * lip_at), np.inf))
    delta = np.maximum(delta, res)  # floor at resolution: such balls are singletons

    raw = CoverSystem(centers=np.arange(nY), radii=delta, covered=np.arange(nY))
    refined = build_refinement(space, raw, delta)
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
        active = Dc[:, centers] <= rho[:, None] + radii
        rad_max = np.where(active, radii, 0.0).max(axis=1, initial=0.0)
        near = Dc <= (rho + rad_max)[:, None]
        # multiplicity: the most active balls holding one sample near the ball
        counts = ball_multiplicity(pou.weights, active)
        mult = np.where(near, counts, 0.0).max(axis=1, initial=0.0)
        n_pair = 2.0 * np.maximum(mult, 1.0)
        w_min = np.where(s, pou.weight_sum, np.inf).min(axis=1, initial=np.inf)
        d_max = np.maximum(2.0 * rho, res)
        l_rho = old(cs, rho)
        blended = e != 0.0  # elsewhere the blend is the identity on the ball
        lb = np.full(len(cs), np.inf)
        lb[blended] = old(cs[blended], (rho + 2.0 * rad_max)[blended])
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
        return np.where(blended, out, l_rho)

    extras = dict(item.extras)
    extras.update(
        mollify_pou=pou,
        mollify_err=err,
        mollify_delta=delta,
        pre_blend_values=item.values,
    )
    return replace(
        item,
        values=values,
        sup_bound=min(item.sup_bound + 2.0 / n, m_bound(n)),
        # the crossover bound is not monotone where the blend error first
        # appears; the envelope restores the nondecreasing-in-radius invariant
        lip_bound=monotone_lip_envelope(lip, float(D.max()), res),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def baire_approximate(
    bundle: FunctionBundle,
    n_seq: Optional[int] = None,
    diag: Optional[Callable[[dict], None]] = None,
) -> list[FunSeqItem]:
    """Full pipeline: selection transform (finite mode), radial bounding,
    local uniform boundedness, then mollification of every item."""
    n_seq = bundle.n_seq if n_seq is None else n_seq
    if n_seq > bundle.n_seq:
        raise ValueError(f"bundle supplies only {bundle.n_seq} raw items")
    tag = bundle.norm_tag

    def emit(stage, n, violation, certified):
        if diag is not None:
            diag({"stage": stage, "n": n, "max_violation": violation, "certified": certified})

    if bundle.hspace.mode == "finite":
        state = ucpc_transform(bundle, n_seq)
        items = []
        for k in range(1, n_seq + 1):
            vals = state.outputs[k - 1]
            lip = sampled_lip_oracle(bundle.hspace, vals, tag)
            sup = float(norm(vals, tag).max())
            items.append(
                FunSeqItem(
                    n=k, values=vals, sup_bound=sup, lip_bound=lip, norm_tag=tag,
                    extras={"selection_state": state},
                )
            )
            on_c = state.c_masks[k - 1]
            dev = float(norm(vals[on_c] - bundle.h_values[k - 1][on_c], tag).max()) if on_c.any() else 0.0
            emit("ucpc_transform", k, dev, True)
    else:
        if not bundle.ucpc_certified:
            raise ValueError(
                "sampled-continuum mode needs a UCPC certificate for the raw "
                "sequence (or discretize to finite mode first)"
            )
        if bundle.h_lip is None:
            raise ValueError("sampled-continuum mode needs a raw Lipschitz oracle")
        emit("ucpc_transform", 0, 0.0, True)  # skipped: raw sequence certified
        items = []
        for k in range(1, n_seq + 1):
            vals = bundle.h_values[k - 1]
            lip = partial(bundle.h_lip, k)
            sup = float(norm(vals, tag).max())
            items.append(FunSeqItem(n=k, values=vals, sup_bound=sup, lip_bound=lip, norm_tag=tag))

    items = bound_sequence(items)
    for it in items:
        excess = float(norm(it.values, tag).max()) - it.n
        emit("bound", it.n, max(0.0, excess), it.certified)

    items, rad = enforce_local_uniform_boundedness(items, bundle)
    finite = np.isfinite(rad.r)
    for it in items:
        it.extras["bound_radius"] = rad
        excess = norm(it.values[finite], tag) - rad.r[finite]
        emit("enforce_bound", it.n, float(excess.max(initial=0.0)), it.certified)

    out = []
    for it in items:
        mo = lipschitz_mollify(bundle.hspace, it, it.n)
        out.append(mo)
        emit("mollify", mo.n, float(mo.extras["mollify_err"].max()), mo.certified)
    return out
