"""Metric-space substrate: point samples, the nearest-H kernel, ball covers,
greedy refinements and partitions of unity.

A space is a finite list of sample points together with a metric.  Two modes
are supported:

* ``finite`` -- the samples *are* the space.  Every subset is open and
  "interior at scale 1/j" means distance to the sampled complement >= 1/j.
* ``sampled`` -- the samples discretize a continuum at resolution ``delta``;
  interiors are only trusted at scale delta.

The cover kernels follow a cover's nonzeros.  ``SampledSpace.neighbour_order``
lists, per sample, every sample by distance (a stable argsort of the dense
row), built on first use and kept.  ``_near_pairs`` finds the samples within
a threshold of some rows: a row's hits are a prefix of its order, so a row
with fewer hits than one window of its order reads only that window, and any
other row is compared in full, as a dense compare would.  Every hit is the
same comparison on the same dense-matrix entry.

``_depth_pairs`` is the one place that applies the mode rule to balls: for
the (sample, ball) pairs of a cover's open balls, taken from the centers'
rows, it gives the depth dist(y, X \\ B), which is both the
partition-of-unity weight and the interior margin of the selection
transform.  Sampled mode takes r - d(y, c); finite mode reads the start of
y's neighbour order, whose first sample outside the ball is the nearest, or
for a ball holding more than half the samples one (inside x outside) block.
``ball_depth`` gives the dense (samples x balls) form.

``partition_of_unity`` keeps a cover's weights in CSR form, a ``Csr`` triple
(indptr, indices, data) in plain numpy, built from those pairs: row y lists
the balls holding sample y in ascending order, with their normalised
weights.  A locally finite cover puts each sample in a few balls, so the
triple grows with the nonzeros, not with samples x balls; only the weight
totals W(y) are summed over a dense block, to keep their summation order.
``dense_weights`` gives the dense table and ``ball_multiplicity`` counts,
per sample, the balls of a mask that hold it.  On S1 at grid 201 (213 H
samples) a mollify cover has about one pair per sample, where the dense
tables held 213 x 208 entries; over its 126 covers a traced benchmark pass
spends 0.020-0.032 s in ``partition_of_unity`` (0.042-0.065 s with the
dense tables).

``build_refinement`` computes the greedy refinement of a ball cover from the
dense distance matrix: one (covered x covered) comparison block says which
point's ball would contain which later point, a Python step is taken only
for a point some earlier ball can reach, and one (centers x raw balls) block
gives every center its parent.  It keeps the dense blocks: read through
``_near_pairs`` its scan took 6-9 ms less over S1's 126 covers at grid 201
(about 2% of a pass) and 1-3 ms more over S2's denser covers.

``SampledSpace.nearest_h`` is the one place that computes dist(x, H) and a
nearest H sample u(x).  It streams the distances to the H samples in blocks
of ``_ROW_BLOCK`` rows, so no caller holds a (points x H) table.

All objects are immutable after construction and all operations are pure.
A coordinate-only space builds its dense distance matrix on the first
``dense_matrix()`` call and keeps it, read-only, for the later calls; every
space likewise keeps its ``resolution()`` and its ``neighbour_order()``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "SampledSpace",
    "CoverSystem",
    "Csr",
    "SpaceConfigError",
    "RefinementError",
    "CoverageError",
    "ball_depth",
    "ball_multiplicity",
    "build_refinement",
    "dense_weights",
    "partition_of_unity",
    "load_space_json",
]

# rows per block of a row-streamed kernel: bounds its (rows x samples)
# temporaries
_ROW_BLOCK = 256
# first window of a sorted-neighbour scan: a row with fewer hits reads only
# its first _WINDOW sorted samples
_WINDOW = 8
# spaces of at most this many samples compare every row in full.  On random
# 2-D clouds, with n balls at the nearest-neighbour distance, the window
# read beats the full compare from about 96 samples on (128: 55 against
# 84 us; 256: 76 against 320 us); with balls holding most samples it costs
# about a fifth more (256: 836 against 700 us)
_PROBE_MIN = 128
# candidate (query, center) pairs per block of the smoothing search: bounds
# its pair-sized distance and weight temporaries
_PAIR_BLOCK = 4096


class SpaceConfigError(ValueError):
    """Invalid space definition (empty H, bad matrix, broken triangle...)."""


class RefinementError(ValueError):
    """A point's rule radius does not fit inside any raw ball."""


class CoverageError(ValueError):
    """A declared point is not covered by any ball of a cover."""


@dataclass(frozen=True)
class SampledSpace:
    """A finite point sample of a metric space with a marked closed subset H.

    Either ``coords`` (Euclidean metric) or ``dmat`` (explicit distance
    matrix) must be given.  ``h_idx`` are the indices of the samples of H.
    """

    coords: Optional[np.ndarray]  # (N, dim) or None
    dmat: Optional[np.ndarray]  # (N, N) or None
    h_idx: np.ndarray  # sorted indices into the sample list
    mode: str = "sampled"  # "finite" | "sampled"
    delta: float = 0.0  # resolution; required > 0 in sampled mode
    labels: Optional[tuple] = None
    _dense: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _resolution: Optional[float] = field(default=None, init=False, repr=False, compare=False)
    _order: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coords is None and self.dmat is None:
            raise SpaceConfigError("need coords or an explicit distance matrix")
        if len(self.h_idx) == 0:
            raise SpaceConfigError("H must be nonempty")
        if self.mode not in ("finite", "sampled"):
            raise SpaceConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and not self.delta > 0:
            raise SpaceConfigError("sampled mode requires delta > 0")

    # -- basic geometry -------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.coords) if self.coords is not None else len(self.dmat)

    @property
    def h_mask(self) -> np.ndarray:
        m = np.zeros(self.n_points, dtype=bool)
        m[self.h_idx] = True
        return m

    def dists_from(self, i: int) -> np.ndarray:
        """Distances from sample ``i`` to every sample."""
        if self.dmat is not None:
            return self.dmat[i]
        return np.linalg.norm(self.coords - self.coords[i], axis=1)

    def dists_coords(self, q: np.ndarray, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Distances from free coordinate points ``q`` (k, dim) to samples.

        Only available for Euclidean spaces.
        """
        if self.coords is None:
            raise SpaceConfigError("coordinate queries need a Euclidean space")
        pts = self.coords if idx is None else self.coords[idx]
        q = np.atleast_2d(np.asarray(q, dtype=float))
        # the arithmetic of np.linalg.norm(diff, axis=2), bit for bit, without
        # its second (k, n, dim) temporary
        diff = q[:, None, :] - pts[None, :, :]
        diff *= diff
        return np.sqrt(np.add.reduce(diff, axis=2))

    def cross_dists(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances (len(rows), len(cols)) between two lists of samples, in a
        fresh array; entry [i, j] is bit-equal to
        ``dists_from(rows[i])[cols[j]]``."""
        if self.dmat is not None:
            rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
            return self.dmat.take(rows, axis=0).take(cols, axis=1)
        return self.dists_coords(self.coords[rows], cols)

    def h_dists(self, x: np.ndarray) -> np.ndarray:
        """Distances (len(x), nH) to the H samples from the samples ``x`` (a
        1-D index array) or from free coordinate points ``x`` (k, dim), which
        only Euclidean spaces accept."""
        if np.ndim(x) == 2:
            return self.dists_coords(x, self.h_idx)
        return self.cross_dists(np.asarray(x, dtype=int), self.h_idx)

    def nearest_h(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dist_h, u_y) for every sample or free point of ``x`` (as in
        ``h_dists``): dist(x, H) over the sampled H, and the H-sample-order
        index of the nearest H sample, the lowest one on a tie.  The exact
        nearest sample meets the slack contract d(x, u(x)) <= 2 dist(x, H)
        with room to spare.  Rows are processed ``_ROW_BLOCK`` at a time."""
        dist_h = np.empty(len(x))
        u_y = np.empty(len(x), dtype=np.intp)
        for a in range(0, len(x), _ROW_BLOCK):
            b = slice(a, a + _ROW_BLOCK)
            d = self.h_dists(x[b])
            dist_h[b] = d.min(axis=1)
            u_y[b] = d.argmin(axis=1)
        return dist_h, u_y

    def dense_matrix(self) -> np.ndarray:
        if self.dmat is not None:
            return self.dmat
        if self._dense is None:
            m = self.dists_coords(self.coords)
            m.flags.writeable = False
            object.__setattr__(self, "_dense", m)
        return self._dense

    def neighbour_order(self) -> np.ndarray:
        """(N, N) sample indices: row i lists every sample by its distance
        from sample i, nearest first and ties in index order (a stable
        argsort of the dense row), built on the first call and kept,
        read-only."""
        if self._order is None:
            order = np.argsort(self.dense_matrix(), axis=1, kind="stable")
            order.flags.writeable = False
            object.__setattr__(self, "_order", order)
        return self._order

    def resolution(self) -> float:
        """Smallest positive pairwise distance among the samples, computed on
        the first call and kept."""
        if self._resolution is None:
            m = self.dense_matrix()
            pos = m[m > 0]
            object.__setattr__(self, "_resolution", float(pos.min()) if pos.size else np.inf)
        return self._resolution

    def restrict(self, indices: np.ndarray) -> "SampledSpace":
        """Subspace on ``indices`` with a dense distance matrix; every point of
        the restriction is marked as belonging to H."""
        indices = np.asarray(indices)
        return SampledSpace(
            coords=self.coords[indices] if self.coords is not None else None,
            dmat=self.cross_dists(indices, indices),
            h_idx=np.arange(len(indices)),
            mode=self.mode,
            delta=self.delta,
        )

    def h_space(self) -> "SampledSpace":
        return self.restrict(self.h_idx)


class Csr(NamedTuple):
    """A sparse (rows x columns) matrix in compressed sparse row form: the
    nonzeros of row i are ``data[indptr[i]:indptr[i + 1]]``, in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which ascend."""

    indptr: np.ndarray  # (rows + 1,)
    indices: np.ndarray  # (nnz,)
    data: np.ndarray  # (nnz,)


@dataclass(frozen=True)
class CoverSystem:
    """A finite family of metric balls with optional refinement links and
    partition-of-unity weights.

    ``weights`` (when filled) is an (n_points x n_balls) ``Csr`` whose
    nonzeros are the (sample, ball) pairs with the sample in the open ball;
    row sums are 1 on covered points.  ``weight_sum`` holds the row totals
    W(y) before normalization.
    """

    centers: np.ndarray  # (nb,) sample indices
    radii: np.ndarray  # (nb,)
    covered: np.ndarray  # indices of points the cover must contain
    parents: Optional[np.ndarray] = None  # (nb,) index into parent cover
    parent: Optional["CoverSystem"] = None
    weights: Optional[Csr] = None
    weight_sum: Optional[np.ndarray] = None

    @property
    def n_balls(self) -> int:
        return len(self.centers)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _near_pairs(
    space: SampledSpace, rows: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(r, s) for every sample s with d(rows[r], s) < t[r], in no fixed
    order.  Each hit is decided by the same comparison on the same
    dense-matrix entry as a compare of the full rows.

    A row's hits are a prefix of its ``neighbour_order``, since the sorted
    distances do not decrease.  So a row whose ``_WINDOW``-th sorted sample
    is no hit reads only its first ``_WINDOW`` sorted samples; any other
    row, and every row of a space of at most ``_PROBE_MIN`` samples, is
    compared in full, in place.
    """
    dense = space.dense_matrix()
    rows = np.asarray(rows, dtype=np.intp)
    t = np.asarray(t, dtype=float)
    if len(dense) <= _PROBE_MIN:
        return np.nonzero(dense[rows] < t[:, None])
    order = space.neighbour_order()
    wide = dense[rows, order[rows, _WINDOW - 1]] < t
    few, many = np.flatnonzero(~wide), np.flatnonzero(wide)
    near = order[rows[few], :_WINDOW]
    r, c = np.nonzero(dense[rows[few, None], near] < t[few, None])
    fr, fs = np.nonzero(dense[rows[many]] < t[many, None])
    return np.concatenate([few[r], many[fr]]), np.concatenate([near[r, c], fs])


def build_refinement(
    space: SampledSpace,
    raw: CoverSystem,
    radius_rule: np.ndarray,
) -> CoverSystem:
    """Greedy locally finite refinement of ``raw``.

    The points of ``raw.covered`` are scanned in order; a point that no
    earlier emitted ball contains emits the ball B(p, rule[p]/2), linked to
    the first raw ball that contains it with slack >= rule[p]/2, where
    ``radius_rule`` holds one radius per point of the space.

    The scan is decided on one (covered x covered) block ``reach``: entry
    [i, j], for scan positions i < j, says that the ball point i would emit
    contains point j.  A point no earlier ball can reach is a center outright;
    only the contested points need the scan, which jumps from one uncovered
    contested point to the next.
    """
    pts = np.asarray(raw.covered, dtype=int)
    rule = np.asarray(radius_rule, dtype=float)[pts]
    half = rule / 2.0

    dense = space.dense_matrix()
    reach = np.triu(_rows_cols(dense, pts, pts) < half[:, None], 1)
    is_center = ~reach.any(axis=0)
    todo = ~is_center
    todo &= ~reach[is_center].any(axis=0)
    for k in np.flatnonzero(todo).tolist():
        if todo[k]:  # reach[k] marks only later positions
            is_center[k] = True
            todo[reach[k]] = False

    at = np.flatnonzero(is_center)
    fits = _rows_cols(dense, pts[at], raw.centers) + half[at, None] <= raw.radii
    has_fit = fits.any(axis=1)
    if not has_fit.all():
        k = at[int(has_fit.argmin())]
        raise RefinementError(
            f"point {int(pts[k])} (rule radius {rule[k]}) fits in no raw ball"
        )
    return CoverSystem(
        centers=pts[at],
        radii=half[at],
        covered=pts,
        parents=fits.argmax(axis=1) if len(at) else np.zeros(0, dtype=int),
        parent=raw,
    )


def _rows_cols(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``m[np.ix_(rows, cols)]``, read without a copy along an axis whose
    index list is every position in order."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    if not _is_every(rows, m.shape[0]):
        m = m.take(rows, axis=0)
    if not _is_every(cols, m.shape[1]):
        m = m.take(cols, axis=1)
    return m


def _is_every(idx: np.ndarray, n: int) -> bool:
    return len(idx) == n and bool((idx == np.arange(n)).all())


def _depth_pairs(
    space: SampledSpace, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, b, depth) for every sample y in the open ball B(centers[b],
    radii[b]), in no fixed order: the ``_near_pairs`` of the centers' rows,
    with depth dist(y, X \\ B).

    Sampled mode uses the analytic distance r - d(y, c).  Finite mode takes
    the distance to the sampled complement, inf when the ball holds every
    sample.  For a ball of at most half the samples, each sample y inside
    reads the start of y's ``neighbour_order``: its first sample outside the
    ball is the nearest.  A larger ball reads one (inside x outside) block.
    """
    dense = space.dense_matrix()
    centers = np.asarray(centers, dtype=int)
    radii = np.asarray(radii, dtype=float)
    b, y = _near_pairs(space, centers, radii)
    if space.mode == "sampled":
        return y, b, radii[b] - dense[y, centers[b]]
    depth = np.full(len(y), np.inf)
    size = np.bincount(b, minlength=len(centers))
    # a ball of at most half the samples: among the neighbours of a sample
    # inside, the first one outside is the nearest, and it is at most size + 1
    # places in, so one window as wide as the largest such ball plus one
    # settles every pair
    k = np.flatnonzero(2 * size[b] <= len(dense))
    if k.size:
        near = space.neighbour_order()[y[k], :size[b[k]].max() + 1]
        outside = ~(dense[centers[b[k, None]], near] < radii[b[k, None]])
        depth[k] = dense[y[k], near[np.arange(len(k)), outside.argmax(axis=1)]]
    # a larger ball: one (inside x outside) block
    big = 2 * size > len(dense)
    k = np.flatnonzero(big[b])
    k = k[np.argsort(b[k], kind="stable")]
    ends = np.cumsum(size[big]).tolist()
    for c, r, a, e in zip(centers[big], radii[big], [0] + ends, ends):
        ins = y[k[a:e]]
        depth[k[a:e]] = dense[ins][:, ~(dense[c] < r)].min(axis=1, initial=np.inf)
    return y, b, depth


def ball_depth(
    space: SampledSpace, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(inside, depth), each (n_points, n_balls), for the open balls
    B(centers[b], radii[b]) of a cover: the membership mask and
    dist(y, X \\ B) for every sample y and ball b, 0 outside the ball.  The
    dense form of ``_depth_pairs``, which applies the mode rule."""
    y, b, d = _depth_pairs(space, centers, radii)
    inside = np.zeros((space.n_points, len(centers)), dtype=bool)
    inside[y, b] = True
    depth = np.zeros(inside.shape)
    depth[y, b] = d
    return inside, depth


def partition_of_unity(space: SampledSpace, cover: CoverSystem) -> CoverSystem:
    """Fill normalized weights w_U(y)/W(y) with w_U(y) = dist(y, complement of
    U) capped at the radius, as a ``Csr`` over the open-ball pairs of
    ``_depth_pairs``, and keep the totals W(y) as ``weight_sum``.  W(y) is
    summed over the dense (samples x balls) block, whose summation order a
    sum over the nonzeros would not keep."""
    radii = np.asarray(cover.radii, dtype=float)
    y, b, depth = _depth_pairs(space, cover.centers, radii)
    rowwise = np.argsort(y * cover.n_balls + b)  # rows, then balls, ascend
    y, b = y[rowwise], b[rowwise]
    w = np.minimum(depth[rowwise], radii[b])
    block = np.zeros((space.n_points, cover.n_balls))
    block[y, b] = w
    tot = block.sum(axis=1)
    covered = np.asarray(cover.covered, dtype=int)
    bad = covered[tot[covered] <= 0]
    if bad.size:
        raise CoverageError(f"point {int(bad[0])} is not covered by any ball")
    norm = np.where(tot > 0, tot, 1.0)
    indptr = np.zeros(space.n_points + 1, dtype=np.intp)
    np.cumsum(np.bincount(y, minlength=space.n_points), out=indptr[1:])
    return replace(cover, weights=Csr(indptr, b, w / norm[y]), weight_sum=tot)


def dense_weights(cover: CoverSystem) -> np.ndarray:
    """The (n_points, n_balls) table of ``cover.weights``: w_U(y)/W(y) on the
    open-ball pairs and 0 elsewhere."""
    indptr, indices, data = cover.weights
    out = np.zeros((len(indptr) - 1, cover.n_balls))
    out[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), indices] = data
    return out


def ball_multiplicity(weights: Csr, active: np.ndarray) -> np.ndarray:
    """(len(active), n_points) counts: entry [i, y] is the number of balls b
    with ``active[i, b]`` whose open ball holds sample y, which is
    ``active @ (dense weights > 0).T``.  A row without balls counts 0; each
    count is the difference of a running sum over the row's segment."""
    indptr, indices, _ = weights
    run = np.zeros((len(active), len(indices) + 1), dtype=np.intp)
    np.cumsum(active[:, indices], axis=1, out=run[:, 1:])
    return run[:, indptr[1:]] - run[:, indptr[:-1]]


# ---------------------------------------------------------------------------
# explicit finite metric spaces from JSON
# ---------------------------------------------------------------------------

def _expand_lower_triangular(tri: Sequence[float], n: int) -> np.ndarray:
    need = n * (n + 1) // 2
    if len(tri) != need:
        raise SpaceConfigError(
            f"lower-triangular matrix for {n} points needs {need} entries, got {len(tri)}"
        )
    m = np.zeros((n, n), dtype=float)
    k = 0
    for i in range(n):
        for j in range(i + 1):
            m[i, j] = m[j, i] = tri[k]
            k += 1
    return m


def validate_metric(m: np.ndarray) -> None:
    """Check symmetry, nonnegativity, zero diagonal and the triangle
    inequality; raise naming the first violating triple."""
    n = len(m)
    if np.any(np.diag(m) != 0):
        raise SpaceConfigError("metric has a nonzero diagonal entry")
    if np.any(m < 0):
        raise SpaceConfigError("metric has a negative entry")
    if np.any(m != m.T):
        raise SpaceConfigError("metric is not symmetric")
    for i in range(n):
        # d(i,k) <= d(i,j) + d(j,k) for all j, k
        slack = m[i][None, :] - (m[i][:, None] + m)
        bad = np.argwhere(slack > 1e-12)
        if bad.size:
            j, k = int(bad[0][0]), int(bad[0][1])
            raise SpaceConfigError(
                f"triangle inequality fails on triple ({i}, {j}, {k}): "
                f"d({i},{k})={m[i, k]} > d({i},{j})+d({j},{k})={m[i, j] + m[j, k]}"
            )


def load_space_json(text: str, mode: str = "finite", delta: float = 0.0) -> SampledSpace:
    """Load a finite metric space from a JSON document.

    Schema: {"points": [labels], "dist": row-major lower-triangular matrix,
    "H": [indices]}.
    """
    doc = json.loads(text)
    labels = tuple(doc["points"])
    m = _expand_lower_triangular(doc["dist"], len(labels))
    validate_metric(m)
    h = np.array(sorted(doc["H"]), dtype=int)
    if h.size and (h[0] < 0 or h[-1] >= len(labels)):
        raise SpaceConfigError("H index out of range")
    return SampledSpace(coords=None, dmat=m, h_idx=h, mode=mode, delta=delta, labels=labels)
