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
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .space import CoverSystem, SampledSpace, ball_depth, build_refinement, partition_of_unity
from .target import TargetBall, ball_intersection_point, norm, radial_project, retraction_factor

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
    "map_centers",
    "monotone_lip_envelope",
]

# A Lipschitz oracle ``lip(c, rho)`` bounds the difference quotients of an
# item over sampled pairs in the closed ball B_Y(c, rho).  ``c`` is one center
# (an int), which gives a float, or a 1-D int array of centers, which gives a
# float array; entry i of a batch equals the scalar call at c[i] bit for bit.
LipOracle = Callable[[int | np.ndarray, float], float | np.ndarray]


def map_centers(scalar: Callable[[int, float], float]) -> LipOracle:
    """A ``LipOracle`` whose batch calls apply the scalar body per center."""

    def lip(c, rho):
        if not isinstance(c, np.ndarray):
            return scalar(c, rho)
        return np.array([scalar(ci, rho) for ci in c.tolist()], dtype=float)

    return lip


def monotone_lip_envelope(raw: LipOracle, r_top: float, res: float) -> LipOracle:
    """Monotone-nondecreasing envelope of a certified Lipschitz-bound oracle.

    The raw oracle is evaluated on a fixed geometric radius grid and a query
    at rho returns the minimum over grid radii >= rho (a bound certified on a
    larger ball also bounds the smaller one).  Snapping to the grid makes the
    result nondecreasing in rho by construction and lets the evaluations be
    memoized per center.  A batch query makes one ``raw`` batch call per grid
    level that still misses some of its centers.
    """
    grid = [res]
    while grid[-1] < r_top:
        grid.append(grid[-1] * 2.0)
    cache: dict[tuple[int, int], float] = {}

    def lip(c, rho):
        lo = 0
        while lo < len(grid) - 1 and grid[lo] < rho:
            lo += 1
        if isinstance(c, np.ndarray):
            return lip_batch(c.tolist(), lo)
        best = np.inf
        for j in range(lo, len(grid)):
            key = (c, j)
            if key not in cache:
                cache[key] = raw(c, grid[j])
            best = min(best, cache[key])
        return float(best)

    def lip_batch(cs: list[int], lo: int) -> np.ndarray:
        best = np.full(len(cs), np.inf)
        for j in range(lo, len(grid)):
            missing = [c for c in dict.fromkeys(cs) if (c, j) not in cache]
            if missing:
                vals = raw(np.array(missing), grid[j])
                cache.update(((c, j), v) for c, v in zip(missing, vals.tolist()))
            # fmin keeps the current value over a NaN, as the scalar min does
            best = np.fmin(best, [cache[(c, j)] for c in cs])
        return best

    return lip


@dataclass
class FunSeqItem:
    """One member of a function sequence on the sampled set Y = H.

    ``values`` holds the evaluations at the Y samples; ``lip_bound(c, rho)``
    upper-bounds the difference quotients over sampled pairs inside the closed
    ball B_Y(c, rho), for one center or an array of them (``LipOracle``);
    ``sup_bound`` dominates the sup norm of the values.
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
    h_lip: Optional[Callable[[int, int, float], float]]  # (n, center, rho) -> L
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
    """
    D = space.dense_matrix()

    def lip(c, rho):
        if isinstance(c, np.ndarray):
            return lip_batch(c, rho)
        s = np.flatnonzero(D[c] <= rho)
        if len(s) < 2:
            return 0.0
        dd = D[np.ix_(s, s)]
        vd = norm(values[s][:, None, :] - values[s][None, :, :], tag)
        mask = dd > 0
        if not mask.any():
            return 0.0
        return float((vd[mask] / dd[mask]).max())

    def lip_batch(cs: np.ndarray, rho: float) -> np.ndarray:
        # one quotient table over the union of the balls; each center takes
        # the max of its own sub-block (0 stands for a pair at distance 0,
        # below every quotient, as the scalar call's mask leaves it out)
        balls = [np.flatnonzero(D[c] <= rho) for c in cs.tolist()]
        union = np.zeros(len(D), dtype=bool)
        for s in balls:
            union[s] = True
        u = np.flatnonzero(union)
        pos = np.cumsum(union) - 1
        dd = D[np.ix_(u, u)]
        vd = norm(values[u][:, None, :] - values[u][None, :, :], tag)
        quot = np.divide(vd, dd, out=np.zeros_like(dd), where=dd > 0)
        out = np.zeros(len(balls))
        for i, s in enumerate(balls):
            if len(s) >= 2:
                p = pos[s]
                lo, hi = p[0], p[-1] + 1
                # a run of consecutive positions is a view, not a copy
                block = quot[lo:hi, lo:hi] if hi - lo == len(p) else quot[p[:, None], p]
                out[i] = block.max()
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
    """Per-level covers, constraint systems and the matched sets C_k."""

    levels: list[LevelCover]
    c_masks: list[np.ndarray]  # per level: y in C_k
    outputs: np.ndarray  # (n_seq, nY, m)

    def constraint_balls(self, k: int, y: int, j: Optional[int] = None) -> list[TargetBall]:
        """Closed target balls defining the constraint set at level k for y.

        ``j=None`` gives the full constraint set (all containing balls); a
        finite ``j`` keeps only balls holding y with interior margin >= 1/j.
        """
        out = []
        for lev in self.levels[:k]:
            if j is None:
                idx = np.flatnonzero(lev.member[y])
            else:
                idx = np.flatnonzero(lev.depth[y] >= 1.0 / j)
            out.extend(TargetBall(lev.z[b], 2.0 ** (-lev.k)) for b in idx)
        return out


def _preimage_radii(D: np.ndarray, fdiff: np.ndarray, k: int) -> np.ndarray:
    """Largest metric-ball radius around each y inside the preimage of the
    target ball B_Z(f(y), 2^-k)."""
    cap = D.max() + 1.0
    far = fdiff >= 2.0 ** (-k)
    rho = np.where(far, D, np.inf).min(axis=1)
    return np.minimum(rho, cap)


def ucpc_transform(bundle: FunctionBundle, n_seq: Optional[int] = None):
    """Selection transform on a finite space: returns (outputs, state).

    Level k builds a refined ball cover whose balls G satisfy
    f(G) c B_Z(z_G, 2^-k); the constraint set at y intersects the closed balls
    of all levels i <= k containing y.  The output keeps h_k(y) where it
    already satisfies the full constraint set (y in C_k) and otherwise picks a
    point within 2^-k of the margin-1/k constraint set.
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

    for k in range(1, n_seq + 1):
        rho = _preimage_radii(D, fdiff, k)
        raw = CoverSystem(
            centers=np.arange(nY), radii=rho, covered=np.arange(nY)
        )
        refined = build_refinement(space, raw, rho)
        member = np.zeros((nY, refined.n_balls), dtype=bool)
        depth = np.zeros((nY, refined.n_balls))
        for b, (c, r) in enumerate(zip(refined.centers, refined.radii)):
            member[:, b], depth[:, b] = ball_depth(space, c, r)
        z = bundle.f_values[refined.centers]
        levels.append(LevelCover(k=k, cover=refined, z=z, member=member, depth=depth))

        # C_k: h_k(y) lies in every constraint ball of the full system
        in_c = np.ones(nY, dtype=bool)
        hk = bundle.h_values[k - 1]
        for lev in levels:
            vd = norm(hk[:, None, :] - lev.z[None, :, :], tag)
            viol = lev.member & (vd > 2.0 ** (-lev.k))
            in_c &= ~viol.any(axis=1)
        c_masks.append(in_c)

        slack = 2.0 ** (-k)
        state_view = SelectionState(levels=levels, c_masks=c_masks, outputs=outputs)
        for y in range(nY):
            if in_c[y]:
                outputs[k - 1, y] = hk[y]
            else:
                balls = state_view.constraint_balls(k, y, j=k)
                pt = ball_intersection_point(balls, slack=slack, tag=tag, m=m)
                if pt is None:
                    # f(y) is in every constraint ball, so this cannot happen
                    raise RuntimeError(f"empty constraint set at level {k}, sample {y}")
                outputs[k - 1, y] = pt

    return outputs, SelectionState(levels=levels, c_masks=c_masks, outputs=outputs)


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

_ROW_BLOCK = 256  # centers per distance-row block in batched oracles


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

    def lip_r(self, c, rho: float):
        """Upper bound for difference quotients of r over sampled pairs in
        B(c, rho); 0 where r is certifiably infinite or constant.  ``c`` is
        one center or a 1-D array of centers (see ``LipOracle``)."""
        cs = np.atleast_1d(c)
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
        return out if isinstance(c, np.ndarray) else float(out[0])

    @cached_property
    def _levels(self) -> np.ndarray:
        return np.arange(self.n_sat, dtype=float)[:, None] + 2.0

    @cached_property
    def _o_cols(self) -> np.ndarray:
        return np.flatnonzero(self.o_masks.any(axis=0))

    def _ball_meets_o(self, cs: np.ndarray, rho: float) -> np.ndarray:
        """Per center: does B(c, rho) hold a sample of some O_n.  Compared in
        row blocks, so no len(cs) x nY copy of D is built."""
        cols = self._o_cols
        hit = np.zeros(len(cs), dtype=bool)
        for i in range(0, len(cs), _ROW_BLOCK):
            rows = cs[i:i + _ROW_BLOCK, None]
            hit[i:i + _ROW_BLOCK] = (self.D[rows, cols] <= rho).any(axis=1)
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
    values = pou.weights @ anchors
    err = norm(values - item.values, tag)

    member = refined.membership(space)
    old = item.lip_bound
    centers, radii = refined.centers, refined.radii

    def lip(c: int, rho: float) -> float:
        s = np.flatnonzero(D[c] <= rho)
        if s.size == 0:
            return 0.0
        e = float(err[s].max())
        if e == 0.0:
            return old(c, rho)  # blend is the identity on these samples
        active = np.flatnonzero(D[c][centers] <= rho + radii)
        rad_max = float(radii[active].max()) if active.size else 0.0
        lb = old(c, rho + 2.0 * rad_max)
        l_rho = old(c, rho)
        near = np.flatnonzero(D[c] <= rho + rad_max)
        mult = int(member[np.ix_(near, active)].sum(axis=1).max()) if active.size else 1
        n_pair = 2.0 * max(mult, 1)
        w_min = float(pou.weight_sum[s].min())
        d_max = max(2.0 * rho, res)
        if not np.isfinite(lb) or w_min <= 0:
            return l_rho + 2.0 * e / res
        # quotient <= min(a(d), l_rho + 2E/d) with a(d) = alpha*(rad_max+d);
        # alpha carries the weight-sum variation (1 + N*rad_max/W) and the
        # max over pair distances d in [res, d_max] sits at the crossover
        alpha = 2.0 * n_pair * lb / w_min * (1.0 + n_pair * rad_max / w_min)
        if alpha == 0.0:
            return l_rho
        bq = alpha * rad_max - l_rho
        d_star = (-bq + np.sqrt(bq * bq + 8.0 * alpha * e)) / (2.0 * alpha)
        dc = float(np.clip(d_star, res, d_max))
        bound = min(alpha * (rad_max + dc), l_rho + 2.0 * e / dc)
        return max(bound, 0.0)

    extras = dict(item.extras)
    extras.update(
        mollify_cover=refined,
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
        lip_bound=monotone_lip_envelope(map_centers(lip), float(D.max()), res),
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
        outputs, state = ucpc_transform(bundle, n_seq)
        items = []
        for k in range(1, n_seq + 1):
            vals = outputs[k - 1]
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
            # the scenario's h_lip takes one center; batches map it
            lip = map_centers(lambda c, rho, _n=k: bundle.h_lip(_n, c, rho))
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
