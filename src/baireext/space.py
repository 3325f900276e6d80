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

``ball_depth`` is the one place that applies the mode rule to balls: for
the (sample, ball) pairs of a cover's open balls, taken from the centers'
rows and listed by sample, then ball, it gives the depth dist(y, X \\ B),
which is both the partition-of-unity weight and the interior margin of the
selection transform.  Sampled mode takes r - d(y, c); finite mode reads the
start of y's neighbour order, whose first sample outside the ball is the
nearest, or for a ball holding more than half the samples one
(inside x outside) block.

``partition_of_unity`` keeps a cover's weights in CSR form, a ``Csr`` triple
(indptr, indices, data) in plain numpy, built from those pairs: row y lists
the balls holding sample y in ascending order, with their normalised
weights.  A locally finite cover puts each sample in a few balls, so the
triple grows with the nonzeros, not with samples x balls (on S1 at grid 201
about one pair per sample, against 213 x 208 dense entries); only the weight
totals W(y) are summed over a dense block, to keep their summation order.
``dense_weights`` gives the dense table and ``ball_multiplicity`` counts,
per sample, the balls of a mask that hold it.

``build_refinement`` refines the raw cover {B(y, r_y)}, one ball per sample,
into the balls B(p, r_p/2) of a greedy scan in sample order; each lies in
p's own raw ball, so no parent links are kept.  One (samples x samples)
block decides the scan: ``D < r/2`` on the dense distance matrix, masked in
place by the space's kept ``upper_triangle()`` (n^2 bytes: 45 KB at S1's
213 H samples).  It keeps that block: read through ``_near_pairs`` its
scan took 6-9 ms less over S1's 126 covers at grid 201 (about 2% of a
pass) and 1-3 ms more over S2's denser covers.

``SampledSpace.cross_dists(x, cols)`` is the one distance method: from
samples or free coordinate points to some samples (or all), reading
``dmat`` rows for samples when the space has one.  ``SampledSpace.nearest_h``
is the one place that computes dist(x, H) and a nearest H sample u(x).  It
streams the distances to the H samples in blocks of ``_ROW_BLOCK`` rows, so
no caller holds a (points x H) table.

Euclidean distances come from the row-norm kernel ``target._l2_rows``, one
coordinate column at a time: below 8 coordinates these are the floats of
``np.linalg.norm``, with no (rows x samples x dim) difference array.

All objects are immutable after construction and all operations are pure.
A space keeps four values, each built on first use and then read-only
(``SampledSpace._kept``): a coordinate-only space's ``dense_matrix()``, and
every space's ``resolution()``, ``neighbour_order()`` and
``upper_triangle()``.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .target import _l2_rows

__all__ = [
    "SampledSpace",
    "CoverSystem",
    "Csr",
    "SpaceConfigError",
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


class SpaceConfigError(ValueError):
    """Invalid space definition (empty H, bad matrix, broken triangle...)."""


class CoverageError(ValueError):
    """A sample is not covered by any ball of a cover."""


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
        return _l2_rows(self.coords, self.coords[i])

    def cross_dists(self, x: np.ndarray, cols: Optional[np.ndarray] = None) -> np.ndarray:
        """Distances (len(x), len(cols)) from the samples ``x`` (a 1-D index
        array, read from ``dmat`` rows when the space has one) or from free
        coordinate points ``x`` (k, dim), which only Euclidean spaces accept,
        to the samples ``cols`` (every sample when None), in a fresh array.
        For samples, entry [i, j] is bit-equal to ``dists_from(x[i])[cols[j]]``."""
        if np.ndim(x) == 1:
            x = np.asarray(x, dtype=int)
            if self.dmat is not None:
                rows = self.dmat.take(x, axis=0)
                return rows if cols is None else rows.take(np.asarray(cols, dtype=int), axis=1)
            x = self.coords[x]
        elif self.coords is None:
            raise SpaceConfigError("coordinate queries need a Euclidean space")
        pts = self.coords if cols is None else self.coords[cols]
        return _l2_rows(np.asarray(x, dtype=float)[:, None, :], pts[None, :, :])

    def nearest_h(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dist_h, u_y) for every sample or free point of ``x`` (as in
        ``cross_dists``): dist(x, H) over the sampled H, and the H-sample-order
        index of the nearest H sample, the lowest one on a tie.  The exact
        nearest sample meets the slack contract d(x, u(x)) <= 2 dist(x, H)
        with room to spare.  Rows are processed ``_ROW_BLOCK`` at a time."""
        dist_h = np.empty(len(x))
        u_y = np.empty(len(x), dtype=np.intp)
        for a in range(0, len(x), _ROW_BLOCK):
            b = slice(a, a + _ROW_BLOCK)
            d = self.cross_dists(x[b], self.h_idx)
            dist_h[b] = d.min(axis=1)
            u_y[b] = d.argmin(axis=1)
        return dist_h, u_y

    def _kept(self, key: str, build):
        """The value kept under ``key`` in the instance dict, from ``build()``
        on the first call; an array is kept read-only.  A key must not be a
        method's name, or the kept value would shadow the method."""
        kept = self.__dict__
        if key not in kept:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            kept[key] = value
        return kept[key]

    def dense_matrix(self) -> np.ndarray:
        if self.dmat is not None:
            return self.dmat
        return self._kept("_dense", lambda: self.cross_dists(self.coords))

    def neighbour_order(self) -> np.ndarray:
        """(N, N) sample indices: row i lists every sample by its distance
        from sample i, nearest first and ties in index order (a stable
        argsort of the dense row), kept."""
        return self._kept("_order", lambda: np.argsort(self.dense_matrix(), axis=1, kind="stable"))

    def upper_triangle(self) -> np.ndarray:
        """(N, N) booleans, True at [i, j] for i < j, kept."""
        n = self.n_points
        return self._kept("_upper", lambda: np.arange(n)[:, None] < np.arange(n))

    def resolution(self) -> float:
        """Smallest positive pairwise distance among the samples, kept."""

        def build():
            m = self.dense_matrix()
            pos = m[m > 0]
            return float(pos.min()) if pos.size else np.inf

        return self._kept("_resolution", build)

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
    """A finite family of metric balls with optional partition-of-unity
    weights.

    ``weights`` (when filled) is an (n_points x n_balls) ``Csr`` whose
    nonzeros are the (sample, ball) pairs with the sample in the open ball;
    every row sums to 1.  ``weight_sum`` holds the row totals W(y) before
    normalization.
    """

    centers: np.ndarray  # (nb,) sample indices
    radii: np.ndarray  # (nb,)
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


def build_refinement(space: SampledSpace, raw: CoverSystem) -> CoverSystem:
    """Greedy locally finite refinement of the raw cover {B(y, r_y)}, given
    as ``raw`` with one ball per sample in sample order (any other cover is
    a ``ValueError``).  In index order, a sample p that no earlier emitted
    ball contains emits B(p, r_p/2), which lies in B(p, r_p).

    The scan is decided on one (samples x samples) block ``reach``: entry
    [i, j], for i < j, says that the ball sample i would emit contains
    sample j.  A sample no earlier ball can reach is a center outright;
    only the contested samples need the scan, which jumps from one
    uncovered contested sample to the next.
    """
    n = space.n_points
    if not (_is_every(raw.centers, n) and np.shape(raw.radii) == (n,)):
        raise ValueError("build_refinement needs one raw ball per sample, in sample order")
    half = np.asarray(raw.radii, dtype=float) / 2.0

    reach = space.dense_matrix() < half[:, None]
    reach &= space.upper_triangle()
    is_center = ~reach.any(axis=0)
    todo = ~is_center
    todo &= ~reach[is_center].any(axis=0)
    for k in np.flatnonzero(todo).tolist():
        if todo[k]:  # reach[k] marks only later samples
            is_center[k] = True
            todo[reach[k]] = False

    at = np.flatnonzero(is_center)
    return CoverSystem(centers=at, radii=half[at])


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


def ball_depth(
    space: SampledSpace, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, b, depth) for every sample y in the open ball B(centers[b],
    radii[b]), rows first, then balls, ascending: the ``_near_pairs`` of the
    centers' rows, with depth dist(y, X \\ B).

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
    rowwise = np.argsort(y * len(centers) + b)
    y, b = y[rowwise], b[rowwise]
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


def partition_of_unity(space: SampledSpace, cover: CoverSystem) -> CoverSystem:
    """Fill normalized weights w_U(y)/W(y) with w_U(y) = dist(y, complement of
    U) capped at the radius, as a ``Csr`` over the open-ball pairs of
    ``ball_depth``, and keep the totals W(y) as ``weight_sum``.  Every sample
    must lie in some ball.  W(y) is summed over the dense (samples x balls)
    block, whose summation order a sum over the nonzeros would not keep."""
    radii = np.asarray(cover.radii, dtype=float)
    y, b, depth = ball_depth(space, cover.centers, radii)
    w = np.minimum(depth, radii[b])
    block = np.zeros((space.n_points, cover.n_balls))
    block[y, b] = w
    tot = block.sum(axis=1)
    bad = np.flatnonzero(tot <= 0)
    if bad.size:
        raise CoverageError(f"point {int(bad[0])} is not covered by any ball")
    indptr = np.zeros(space.n_points + 1, dtype=np.intp)
    np.cumsum(np.bincount(y, minlength=space.n_points), out=indptr[1:])
    return replace(cover, weights=Csr(indptr, b, w / tot[y]), weight_sum=tot)


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
    i, j = np.tril_indices(n)
    m[i, j] = m[j, i] = np.asarray(tri, dtype=float)
    return m


def validate_metric(m: np.ndarray) -> None:
    """Check finiteness, symmetry, nonnegativity, zero diagonal and the
    triangle inequality; raise naming the first violating entry or triple."""
    n = len(m)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise SpaceConfigError(f"metric entry d({i},{j}) = {m[i, j]} is not finite")
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
    "H": [indices]}; a label is a string or a number.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpaceConfigError(f"space document is not JSON: {err}") from None
    for key in ("points", "dist", "H"):
        if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
            raise SpaceConfigError(f"space document needs a list under key {key!r}")
    labels = tuple(doc["points"])
    for k, e in enumerate(labels):
        if isinstance(e, bool) or not isinstance(e, (str, int, float)):
            raise SpaceConfigError(f"point label {k} is {e!r}, not a string or a number")
    for k, e in enumerate(doc["dist"]):
        if isinstance(e, bool) or not isinstance(e, (int, float)):
            raise SpaceConfigError(f"dist entry {k} is {e!r}, not a number")
        if isinstance(e, int) and abs(e) > sys.float_info.max:
            raise SpaceConfigError(f"dist entry {k} is an integer beyond the float range")
    m = _expand_lower_triangular(doc["dist"], len(labels))
    validate_metric(m)
    for e in doc["H"]:
        if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < len(labels):
            raise SpaceConfigError(f"H entry {e!r} is not a sample index in 0..{len(labels) - 1}")
    h = np.array(sorted(doc["H"]), dtype=int)
    repeated = h[1:][h[1:] == h[:-1]]
    if repeated.size:
        raise SpaceConfigError(f"H entry {int(repeated[0])} is repeated")
    return SampledSpace(coords=None, dmat=m, h_idx=h, mode=mode, delta=delta, labels=labels)
