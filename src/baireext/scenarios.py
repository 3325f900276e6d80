"""Built-in scenarios: concrete spaces, function sequences, query sets and
verification plans exercising the approximation pipeline and the extension
operator end to end.

S0  constant            smoke test; every check passes trivially
S1  jump-segment        2D grid, H a segment, jump limit; NT + continuity
S2  moving-bump         finite mode on [0,1]; raw sequence converges only
                        pointwise near 0, the pipeline restores uniformity
S3  boundary-blowup     1D grid, H = {0} u {1/k}; boundedness bookkeeping
                        with an unbounded limit near the accumulation point
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .extension import select_ceiling
from .pipeline import FunctionBundle
from .space import _ROW_BLOCK, SampledSpace
from .target import NORM_TAGS, _l2_rows, norm
from .verify import ApproachPath

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "PlannedCheck",
    "ScenarioData",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "list_scenarios",
]


class ConfigError(ValueError):
    """A run configuration refused before anything is built; the CLI prints
    its message as one line and exits with code 2."""


@dataclass(frozen=True)
class ScenarioConfig:
    grid: int = 201
    norm: str = "linf"
    mode: Optional[str] = None  # None = scenario default
    tol: float = 5e-2
    steps: int = 12
    seed: int = 0

    def __post_init__(self):
        """Refuse a config that no scenario can run, before anything is built.
        Values may come from a JSON file, so the types are checked first."""
        for key in ("grid", "steps", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, not {value!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ConfigError(f"tol must be a real number, not {self.tol!r}")
        if not (self.mode is None or isinstance(self.mode, str)):
            raise ConfigError(f"mode must be a string or null, not {self.mode!r}")
        if not self.steps >= 1:
            raise ConfigError(f"steps must be at least 1, not {self.steps!r}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, not {self.tol!r}")
        if not math.isfinite(self.tol):  # an infinite tol passes every decay check
            raise ConfigError(f"tol must be finite, not {self.tol!r}")
        if self.norm not in NORM_TAGS:
            raise ConfigError(f"norm must be one of {NORM_TAGS}, not {self.norm!r}")


@dataclass
class PlannedCheck:
    kind: str  # nt | continuity | boundedness | ucpc
    path: Optional[ApproachPath] = None
    anchor_y: Optional[int] = None
    r: Optional[float] = None
    sup_cert: Optional[float] = None  # p0, or None = hypothesis not certified
    y0: Optional[int] = None


@dataclass
class ScenarioData:
    space: SampledSpace
    bundle: FunctionBundle
    query_idx: np.ndarray
    plan: list[PlannedCheck]
    primary_anchor_y: int
    grid: int  # the grid the scenario ran at, after its clamps
    # (dist_h, u_y) of the queries from ``SampledSpace.nearest_h``
    query_near: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def n_seq(self) -> int:
        """The sequence length: the bundle's count of raw items."""
        return self.bundle.n_seq


@dataclass(frozen=True)
class Scenario:
    name: str
    title: str
    summary: str
    properties: tuple[str, ...]
    default_mode: str
    supported_modes: tuple[str, ...]
    build: Callable[[ScenarioConfig], ScenarioData] = field(compare=False)


# points of a scenario closer than this are one sample
_DEDUP_TOL = 1e-9


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct sample indices of ``ids``, ascending: ``np.unique``'s
    answer without its first-call import of ``numpy.ma``."""
    return np.flatnonzero(np.bincount(ids))


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Ids 0..k-1 of the distinct rows of a 2-D array, one sort per column;
    the ids stay below the row count, so their combination cannot wrap."""
    ids = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        vals, rank = np.unique(col, return_inverse=True)
        ids = np.unique(ids * len(vals) + rank, return_inverse=True)[1]
    return ids


class _PointSet:
    """Append-only point list with tolerance-based deduplication.

    A new point takes the index of the nearest stored point (the lowest index
    on a tie) when that one lies within ``tol``, and is appended otherwise.
    Stored points are hashed into cells of side 2 tol, so every point within
    ``tol`` sits in one of the 3^dim cells around the new point's cell, with
    room to spare for the rounding of the cell coordinates.

    A batch is read in numpy first: a new point with no stored point and no
    other new point in its 3^dim cells is appended, and the relation is
    symmetric, so no other point can merge into it.  Runs of such points are
    appended in bulk, in batch order; the other points take the scalar rule
    one at a time.
    """

    def __init__(self, dim: int, tol: float = _DEDUP_TOL):
        self._buf = np.zeros((16, dim))  # grows geometrically
        self._n = 0
        self.tol = tol
        self._cells: dict[tuple, list[int]] = {}
        self._around = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=dim)))

    @property
    def pts(self) -> np.ndarray:
        return self._buf[: self._n]

    def add(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cells = np.floor(pts / (2.0 * self.tol))
        free = self._uncontested(cells)
        out = np.empty(len(pts), dtype=int)
        cuts = [0, *(np.flatnonzero(np.diff(free)) + 1).tolist(), len(pts)]
        for s, t in zip(cuts, cuts[1:]):
            if free[s]:
                out[s:t] = self._append(pts[s:t], cells[s:t])
            else:
                out[s:t] = [self._add_one(pts[i], cells[i]) for i in range(s, t)]
        return out

    def _uncontested(self, cells: np.ndarray) -> np.ndarray:
        """Per new point: no stored point and no other new point lies in its
        3^dim neighbour cells."""
        k = len(self._around)
        stored = np.floor(self.pts / (2.0 * self.tol))
        near = (cells[:, None, :] + self._around).reshape(-1, cells.shape[1])
        ids = _row_ids(np.concatenate([stored, near]))
        taken = np.zeros(len(ids), dtype=bool)
        taken[ids[: len(stored)]] = True
        near_ids = ids[len(stored):].reshape(-1, k)
        count = np.bincount(near_ids[:, k // 2], minlength=len(ids))  # new points per cell
        return ~taken[near_ids].any(axis=1) & (count[near_ids].sum(axis=1) == 1)

    def _add_one(self, p: np.ndarray, cell: np.ndarray) -> int:
        """The scalar rule for one point."""
        near = (cell + self._around).tolist()
        cand = sorted(j for c in near for j in self._cells.get(tuple(c), ()))
        if cand:
            d = _l2_rows(self._buf[cand], p)
            j = int(np.argmin(d))
            if d[j] <= self.tol:
                return cand[j]
        return int(self._append(p[None], cell[None])[0])

    def _append(self, pts: np.ndarray, cells: np.ndarray) -> np.ndarray:
        n, k = self._n, len(pts)
        cap = len(self._buf)
        while cap < n + k:
            cap *= 2
        if cap > len(self._buf):
            buf = np.zeros((cap, self._buf.shape[1]))
            buf[:n] = self._buf[:n]
            self._buf = buf
        self._buf[n : n + k] = pts
        for j, cell in enumerate(cells.tolist(), start=n):
            self._cells.setdefault(tuple(cell), []).append(j)
        self._n += k
        return np.arange(n, n + k)


def _validate_continuity_declarations(
    hspace: SampledSpace, f_values: np.ndarray, idx: np.ndarray, scale: float, tag: str
) -> None:
    """Declared continuity points must show oscillation shrinking to zero as
    the probe radius drops through grid scale.

    ``verify.oscillation`` at each radius comes from one value-difference
    table per point: with the largest ball's samples sorted by distance, each
    smaller ball is a prefix, and its oscillation a running maximum.  Points
    go ``_ROW_BLOCK`` at a time.  Each ball size is one count per radius on
    the block's distance rows; the tables are built per group of points
    whose largest balls hold the same number of samples, so no table is
    padded, and a largest ball of fewer than two samples has oscillation 0
    at every radius.  The first failing point in ``idx`` order is named."""
    # the probe balls are open and a grid neighbour can sit at exactly k*scale,
    # where linspace rounding puts it a few ulps inside or outside; shrinking
    # the radius by a relative 1e-9 keeps such a point out of the ball
    shrink = 1.0 - 1e-9
    radii = np.array([k * scale * shrink for k in (8, 4, 2, 1)])
    idx = np.asarray(idx, dtype=int)
    everyone = np.arange(hspace.n_points)
    for a in range(0, len(idx), _ROW_BLOCK):
        ys = idx[a:a + _ROW_BLOCK]
        rows = hspace.cross_dists(ys, everyone)
        # samples strictly inside each ball
        sizes = np.stack([np.count_nonzero(rows < r, axis=1) for r in radii], axis=1)
        # each largest ball's samples by distance, ties by index
        order = np.where(rows < radii[0], rows, np.inf).argsort(axis=1, kind="stable")
        oscs = np.zeros(sizes.shape)
        for width in np.flatnonzero(np.bincount(sizes[:, 0])).tolist():
            if width < 2:
                continue
            g = np.flatnonzero(sizes[:, 0] == width)
            vals = f_values[order[g, :width]]
            diffs = norm(vals[:, :, None, :] - vals[:, None, :, :], tag)
            prefix_max = np.maximum.accumulate(np.tril(diffs).max(axis=2, initial=0.0), axis=1)
            at = np.take_along_axis(prefix_max, np.maximum(sizes[g] - 1, 0), axis=1)
            oscs[g] = np.where(sizes[g] >= 2, at, 0.0)
        bad = (oscs[:, 1:] > oscs[:, :-1] + 1e-12).any(axis=1) | (oscs[:, -1] > 1e-9)
        if bad.any():
            p = int(bad.argmax())
            raise ValueError(
                f"declared continuity point {int(ys[p])} has oscillation profile "
                f"{oscs[p].tolist()}"
            )


def _sequence_length(dist_h: np.ndarray) -> int:
    """Items needed so the selection scan can start at its analytic ceiling
    for every query (``dist_h`` holds their distances to H) and for the
    midpoint smoothing centers, whose distance to H is at least half the
    query's."""
    if len(dist_h) == 0:
        return 1
    # the ceiling is nonincreasing in the distance: the nearest query decides
    return max(1, select_ceiling(float(dist_h.min()) / 2.0))


def _geometric_radii(t0: float, steps: int, clearance: float = 1.0) -> np.ndarray:
    """Path radii t0 2^-k for k = 1..steps.  The last path point lies
    ``clearance`` times the last radius from its nearest other sample; a
    config that would merge the two under the ``_PointSet`` tolerance is
    refused before anything is built."""
    last = t0 * 0.5**steps
    if clearance * last <= _DEDUP_TOL:
        raise ConfigError(
            f"steps {steps} puts a path point {clearance * last:.3g} from another "
            f"sample (path radius {last:.3g}), within the sample dedup tolerance "
            f"{_DEDUP_TOL:g}"
        )
    return t0 * 0.5 ** np.arange(1, steps + 1)


# ---------------------------------------------------------------------------
# S0: constant limit
# ---------------------------------------------------------------------------

def _build_s0(cfg: ScenarioConfig) -> ScenarioData:
    g = min(max(cfg.grid, 21), 81)
    axis = np.linspace(-1.0, 1.0, g)
    spacing = 2.0 / (g - 1)
    mode = cfg.mode or "finite"
    c = np.array([0.5, -0.25])
    radii = _geometric_radii(0.25, cfg.steps)

    ps = _PointSet(1)
    h_idx_all = ps.add(axis[axis <= 1e-15][:, None])
    anchor_x = int(ps.add(np.array([[0.0]]))[0])
    nH = len(ps.pts)
    path_idx = ps.add(radii[:, None])
    grid_q = ps.add(axis[axis > 1e-15][:, None])
    query_idx = _distinct(np.concatenate([path_idx, grid_q]))
    if (query_idx < nH).any():
        raise ValueError("an S0 query collided with an H sample")

    space = SampledSpace(
        coords=ps.pts,
        dmat=None,
        h_idx=np.arange(nH),
        mode=mode,
        delta=spacing if mode == "sampled" else 0.0,
    )
    hspace = space.h_space()
    query_near = space.nearest_h(query_idx)
    n_seq = _sequence_length(query_near[0])
    f_values = np.tile(c, (nH, 1))
    h_values = np.tile(c, (n_seq, nH, 1))
    bundle = FunctionBundle(
        hspace=hspace,
        norm_tag=cfg.norm,
        h_values=h_values,
        f_values=f_values,
        h_lip=(lambda n, cs, rho: np.zeros(len(cs))) if mode == "sampled" else None,
        conv_mask=np.ones(nH, dtype=bool),
        ucpc_certified=True,
        continuity_idx=np.arange(nH),
    )
    scale = spacing
    _validate_continuity_declarations(hspace, f_values, bundle.continuity_idx, scale, cfg.norm)

    path = ApproachPath(anchor_x=anchor_x, anchor_y=anchor_x, points=path_idx, kind="radial")
    plan = [
        PlannedCheck(kind="nt", path=path),
        PlannedCheck(kind="continuity", path=path),
        PlannedCheck(kind="boundedness", anchor_y=anchor_x, r=0.25, sup_cert=1.0),
        PlannedCheck(kind="ucpc", y0=nH // 2),
    ]
    return ScenarioData(
        space=space,
        bundle=bundle,
        query_idx=query_idx,
        query_near=query_near,
        plan=plan,
        primary_anchor_y=anchor_x,
        grid=g,
    )


# ---------------------------------------------------------------------------
# S1: jump along a segment in the plane
# ---------------------------------------------------------------------------

def _build_s1(cfg: ScenarioConfig) -> ScenarioData:
    g = max(cfg.grid, 41)
    if g % 2 == 0:
        g += 1  # keep 0 on the axis
    axis = np.linspace(-1.0, 1.0, g)
    delta = 2.0 / (g - 1)
    steps = cfg.steps
    t0 = 0.02
    sin_t = 0.199
    cos_t = math.sqrt(1.0 - sin_t * sin_t)
    # a tangential path point lies r sin_t above its foot on H
    radii = _geometric_radii(t0, steps, clearance=sin_t)

    ps = _PointSet(2)
    ps.add(np.column_stack([axis, np.zeros(g)]))  # the H segment samples
    a0 = int(ps.add(np.array([[0.0, 0.0]]))[0])
    ap = int(ps.add(np.array([[0.5, 0.0]]))[0])
    am = int(ps.add(np.array([[-0.5, 0.0]]))[0])
    ps.add(np.column_stack([radii * cos_t, np.zeros(steps)]))  # tangential feet
    nH = len(ps.pts)

    # approach paths (queries off H)
    p_rad = ps.add(np.column_stack([np.zeros(steps), radii]))
    p_tan = ps.add(np.column_stack([radii * cos_t, radii * sin_t]))
    p_cp = ps.add(np.column_stack([np.full(steps, 0.5), radii]))
    p_cm = ps.add(np.column_stack([np.full(steps, -0.5), radii]))
    # thinned background grid
    off = cfg.seed % 5
    tx = axis[off::5]
    ty = axis[off::5]
    ty = ty[np.abs(ty) > 1e-12]
    gx, gy = np.meshgrid(tx, ty)
    p_grid = ps.add(np.column_stack([gx.ravel(), gy.ravel()]))
    query_idx = _distinct(np.concatenate([p_rad, p_tan, p_cp, p_cm, p_grid]))
    if (query_idx < nH).any():
        raise ValueError("an S1 query collided with an H sample")

    space = SampledSpace(
        coords=ps.pts, dmat=None, h_idx=np.arange(nH), mode="sampled", delta=delta
    )
    hspace = space.h_space()
    t = hspace.coords[:, 0]
    f_values = np.column_stack([np.where(t >= -1e-15, 1.0, -1.0), np.zeros(nH)])
    query_near = space.nearest_h(query_idx)
    n_seq = _sequence_length(query_near[0])
    h_values = np.zeros((n_seq, nH, 2))
    for n in range(1, n_seq + 1):
        h_values[n - 1, :, 0] = np.clip(n * t + 1.0, -1.0, 1.0)

    def h_lip(n: int, cs: np.ndarray, rho) -> np.ndarray:
        # the ramp of h_n lives on (-2/n, 0); outside it the value is constant
        tc = t[cs]
        flat = (tc - rho >= 0.0) | (tc + rho <= -2.0 / n)
        return np.where(flat, 0.0, float(n))

    cont = np.flatnonzero(np.abs(t) > 1e-12)
    bundle = FunctionBundle(
        hspace=hspace,
        norm_tag=cfg.norm,
        h_values=h_values,
        f_values=f_values,
        h_lip=h_lip,
        conv_mask=np.ones(nH, dtype=bool),
        ucpc_certified=True,
        continuity_idx=cont,
    )
    _validate_continuity_declarations(hspace, f_values, cont, delta, cfg.norm)

    plan = [
        PlannedCheck(kind="nt", path=ApproachPath(a0, a0, p_rad, kind="radial")),
        PlannedCheck(kind="nt", path=ApproachPath(a0, a0, p_tan, kind="tangential", eps=0.2)),
        PlannedCheck(kind="continuity", path=ApproachPath(ap, ap, p_cp, kind="radial")),
        PlannedCheck(kind="continuity", path=ApproachPath(am, am, p_cm, kind="radial")),
        PlannedCheck(kind="boundedness", anchor_y=ap, r=0.25, sup_cert=2.0),
        PlannedCheck(kind="ucpc", y0=ap),
    ]
    return ScenarioData(
        space=space,
        bundle=bundle,
        query_idx=query_idx,
        query_near=query_near,
        plan=plan,
        primary_anchor_y=a0,
        grid=g,
    )


# ---------------------------------------------------------------------------
# S2: moving bump with a slow pedestal at 0 (finite mode)
# ---------------------------------------------------------------------------

_S2_K0 = 200.0
_S2_PEDESTAL_RADIUS = 0.05


def s2_raw_value(k: int, y: np.ndarray) -> np.ndarray:
    """Raw h_k: tent of height 1 at 1/k plus a pedestal at 0 of height
    0.75*K0/(K0+k) — pointwise null, but stuck above 1/2 at y=0 for small k."""
    w = 1.0 / (4.0 * k * (k + 1))
    tent = np.maximum(0.0, 1.0 - np.abs(y - 1.0 / k) / w)
    v = 0.75 * _S2_K0 / (_S2_K0 + k)
    pedestal = v * np.maximum(0.0, 1.0 - y / _S2_PEDESTAL_RADIUS)
    return tent + pedestal


def _build_s2(cfg: ScenarioConfig) -> ScenarioData:
    nY = min(max(cfg.grid, 41), 201)
    ys = np.linspace(0.0, 1.0, nY)
    space = SampledSpace(
        coords=ys[:, None], dmat=None, h_idx=np.arange(nY), mode="finite", delta=0.0
    )
    n_seq = 10
    h_values = np.stack([s2_raw_value(k, ys)[:, None] for k in range(1, n_seq + 1)])
    f_values = np.zeros((nY, 1))
    bundle = FunctionBundle(
        hspace=space,
        norm_tag=cfg.norm,
        h_values=h_values,
        f_values=f_values,
        h_lip=None,
        conv_mask=np.ones(nY, dtype=bool),
        ucpc_certified=False,
        continuity_idx=np.arange(nY),
    )
    _validate_continuity_declarations(
        space, f_values, bundle.continuity_idx, space.resolution(), cfg.norm
    )
    plan = [
        PlannedCheck(kind="ucpc", y0=0),
        PlannedCheck(kind="ucpc", y0=nY // 2),
        PlannedCheck(kind="ucpc", y0=nY - 1),
    ]
    return ScenarioData(
        space=space,
        bundle=bundle,
        query_idx=np.array([], dtype=int),
        plan=plan,
        primary_anchor_y=0,
        grid=nY,
    )


# ---------------------------------------------------------------------------
# S3: blowup of f at the accumulation point of H = {0} u {1/k}
# ---------------------------------------------------------------------------

_S3_KMAX = 10


def _build_s3(cfg: ScenarioConfig) -> ScenarioData:
    g = max(cfg.grid, 101)
    if g % 2 == 0:
        g += 1
    axis = np.linspace(-1.0, 1.0, g)
    delta = 2.0 / (g - 1)
    radii = _geometric_radii(0.02, cfg.steps)

    ps = _PointSet(1)
    h_vals = np.array([1.0 / k for k in range(1, _S3_KMAX + 1)] + [0.0])
    ps.add(h_vals[:, None])
    nH = len(ps.pts)  # = KMAX + 1
    a_half = 1  # index of 1/2
    a_zero = _S3_KMAX  # index of 0

    p_rad = ps.add((0.5 + radii)[:, None])
    grid_q = ps.add(axis[:, None])
    query_idx = _distinct(np.concatenate([p_rad, grid_q]))
    query_idx = query_idx[query_idx >= nH]

    space = SampledSpace(
        coords=ps.pts, dmat=None, h_idx=np.arange(nH), mode="sampled", delta=delta
    )
    # H itself is a genuinely finite set, so Y runs in finite mode
    hspace = SampledSpace(
        coords=ps.pts[:nH].copy(), dmat=None, h_idx=np.arange(nH), mode="finite", delta=0.0
    )
    f_values = np.array([[float(k)] for k in range(1, _S3_KMAX + 1)] + [[0.0]])
    query_near = space.nearest_h(query_idx)
    n_seq = _sequence_length(query_near[0])
    h_values = np.zeros((n_seq, nH, 1))
    for n in range(1, n_seq + 1):
        for k in range(1, _S3_KMAX + 1):
            h_values[n - 1, k - 1, 0] = float(k) if k <= n else 0.0

    cont = np.arange(_S3_KMAX)  # every 1/k is isolated in H
    bundle = FunctionBundle(
        hspace=hspace,
        norm_tag=cfg.norm,
        h_values=h_values,
        f_values=f_values,
        h_lip=None,
        conv_mask=np.ones(nH, dtype=bool),
        ucpc_certified=True,
        continuity_idx=cont,
    )
    _validate_continuity_declarations(hspace, f_values, cont, hspace.resolution(), cfg.norm)

    path = ApproachPath(anchor_x=a_half, anchor_y=a_half, points=p_rad, kind="radial")
    plan = [
        PlannedCheck(kind="nt", path=path),
        PlannedCheck(kind="continuity", path=path),
        PlannedCheck(kind="boundedness", anchor_y=a_half, r=0.125, sup_cert=float(_S3_KMAX) + 1.0),
        PlannedCheck(kind="boundedness", anchor_y=a_zero, r=0.125, sup_cert=None),
        PlannedCheck(kind="ucpc", y0=a_half),
    ]
    return ScenarioData(
        space=space,
        bundle=bundle,
        query_idx=query_idx,
        query_near=query_near,
        plan=plan,
        primary_anchor_y=a_half,
        grid=g,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {
    "S0": Scenario(
        name="S0",
        title="constant limit",
        summary=(
            "f is constant on a half-line H; every item of the sequence equals f. "
            "Smoke test: the non-tangential limit, continuity, boundedness and "
            "uniform-convergence checks all pass trivially."
        ),
        properties=("NT", "C", "B", "UCPC"),
        default_mode="finite",
        supported_modes=("finite", "sampled"),
        build=_build_s0,
    ),
    "S1": Scenario(
        name="S1",
        title="jump along a segment",
        summary=(
            "X = [-1,1]^2, H the segment y=0, f jumps from (-1,0) to (+1,0) at "
            "the origin. Exercises the non-tangential limit at the jump (radial "
            "and tangential approach) and continuity preservation away from it."
        ),
        properties=("NT", "C", "B"),
        default_mode="sampled",
        supported_modes=("sampled",),
        build=_build_s1,
    ),
    "S2": Scenario(
        name="S2",
        title="moving bump (finite mode)",
        summary=(
            "Y = H = a grid on [0,1]; h_k is a unit tent at 1/k plus a slowly "
            "decaying pedestal at 0, f = 0. The raw sequence converges only "
            "pointwise near 0; the selection transform restores uniform "
            "convergence at every continuity point (UCPC)."
        ),
        properties=("UCPC",),
        default_mode="finite",
        supported_modes=("finite",),
        build=_build_s2,
    ),
    "S3": Scenario(
        name="S3",
        title="boundary blowup",
        summary=(
            "X = [-1,1], H = {0} u {1/k : k <= 10}, f(1/k) = k grows without "
            "bound toward the accumulation point 0. Exercises the local "
            "boundedness bookkeeping: the bound certificate exists at a = 1/2 "
            "and is reported as not-met at a = 0."
        ),
        properties=("B", "NT", "C"),
        default_mode="sampled",
        supported_modes=("sampled",),
        build=_build_s3,
    ),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}") from None


def list_scenarios() -> list[Scenario]:
    return [SCENARIOS[k] for k in sorted(SCENARIOS)]
