"""The target normed space Z = R^m: norms, radial projections and
slack intersections of closed balls.

A family of closed balls is two stacked arrays: the centers, one row per
ball, and the radii.  The default norm is l-infinity, under which every ball
intersection is a box and the selection surrogate is exact.  l2 is supported
through a cyclic projection solver that exploits the slack the selection
step grants.  Both run over groups of balls at once
(``_intersection_points``: one group per sample off C_k in the selection
transform), and ``ball_intersection_point`` is the one-group call.

Every Euclidean row norm of the package, here and in ``space`` and
``extension``, goes through ``_l2_rows``, the step distances of the cyclic
projection included.  It sums the squares one column at a time, left to
right, and takes the square root.  Below 8 columns
numpy's ``add.reduce`` over the last axis also sums left to right, so the
kernel gives the bits of ``np.linalg.norm(z, axis=-1)`` (up to the sign of a
NaN) without a reduction per row and, for a difference of two arrays,
without the difference array itself.  From 8 columns on numpy sums in
pairwise blocks, so there, and for 0 columns, the kernel takes numpy's path.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "norm",
    "radial_project",
    "retraction_factor",
    "ball_intersection_point",
    "EMPTY",
    "UndecidedIntersection",
]

NORM_TAGS = ("l2", "linf")

#: sentinel returned when the slack-inflated intersection is certified empty
EMPTY = None


class UndecidedIntersection(RuntimeError):
    """The l2 feasibility solver exhausted its sweeps without a certificate."""


def _check_tag(tag: str) -> None:
    if tag not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {tag!r}")


def _l2_rows(a: np.ndarray, b: np.ndarray | None = None) -> float | np.ndarray:
    """The Euclidean norm over the last axis of ``a - b`` (of ``a`` when ``b``
    is None), with ``b`` broadcast against ``a``: the bits of
    ``np.linalg.norm(a - b, axis=-1)`` for every non-NaN result, and NaN
    wherever numpy gives NaN.  IEEE 754 leaves the sign of a NaN result open,
    and the two can differ in it; ``repr`` and json spell every NaN alike."""
    m = np.shape(a)[-1]
    if not 0 < m < 8:
        z = a if b is None else a - b
        return np.sqrt(np.add.reduce(z * z, axis=-1))

    def square(c):
        d = a[..., c] if b is None else a[..., c] - b[..., c]
        return d * d

    sq = square(0)
    for c in range(1, m):
        sq += square(c)
    return np.sqrt(sq)


def norm(z: np.ndarray, tag: str = "linf") -> float | np.ndarray:
    """l2 or l-infinity norm; vectorized over the leading axes."""
    _check_tag(tag)
    z = np.asarray(z, dtype=float)
    if tag == "l2":
        return _l2_rows(z)
    # the max over the last axis one column at a time: the floats of
    # np.abs(z).max(axis=-1), NaN where it gives NaN, without a reduction
    # per row
    a = np.abs(z)
    out = a[..., 0]
    for c in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., c])
    return out[()]  # a scalar for one vector, as max gives


def radial_project(
    z: np.ndarray, r: float | np.ndarray, tag: str = "linf"
) -> np.ndarray:
    """Radial projection onto the closed ball of radius r >= 1 (r = inf is the
    identity): z itself inside the ball, r*z/||z|| outside.

    ``r`` may also be an array with one radius per row of ``z``.
    """
    if not np.all(np.asarray(r) >= 1):
        raise ValueError(f"radial projection needs r >= 1, got {np.min(r)}")
    z = np.asarray(z, dtype=float)
    if np.ndim(r) == 0 and np.isinf(r):
        return z.copy()
    nz = norm(z, tag)
    if np.ndim(nz) == 0:
        return z.copy() if nz <= r else z * (r / nz)
    scale = np.where(nz > r, r / np.where(nz > 0, nz, 1.0), 1.0)
    return z * scale[..., None]


def retraction_factor(tag: str, m: int) -> float:
    """Certified Lipschitz factor of (z, r) -> P_r(z) w.r.t. ||dz|| + |dr|.

    1 for l2 (and for any norm in dimension one); 2 for l-infinity in higher
    dimension, where the radial retraction is only 2-Lipschitz.
    """
    _check_tag(tag)
    if tag == "l2" or m <= 1:
        return 1.0
    return 2.0


def _box_intersection(
    centers: np.ndarray, radii: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per group of l-infinity balls (rows ``starts[i]`` up to the next
    start; no group may be empty): the midpoint of the box
    [max(c - r), min(c + r)] and whether it is nonempty.  Max and min are
    exact, so a group's floats do not depend on the other groups."""
    lo = np.maximum.reduceat(centers - radii[:, None], starts, axis=0)
    hi = np.minimum.reduceat(centers + radii[:, None], starts, axis=0)
    return (lo + hi) / 2.0, (lo <= hi).all(axis=1)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rows): the rows lo[i] up to hi[i] for every i in turn, and
    the i each row belongs to."""
    lens = hi - lo
    owner = np.repeat(np.arange(len(lo)), lens)
    return owner, np.arange(len(owner)) + np.repeat(lo - (np.cumsum(lens) - lens), lens)


def _projection_intersection(
    centers: np.ndarray, radii: np.ndarray, starts: np.ndarray, slack: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per group of l2 balls (rows ``starts[i]`` up to the next start; no
    group may be empty): a point within ``slack`` of the intersection of the
    closed balls, and whether one was found, by cyclic projections.

    A group is certified empty when two of its centers are farther apart
    than their slack-inflated radius sum; it is not projected.  Every other
    group starts from its first center and projects onto its balls in row
    order, sweep after sweep, until its point is within ``slack`` of every
    ball; from then on it is frozen while the others sweep on.  A sweep
    moves the point only at a ball it lies outside of, so each pass of the
    sweep loop measures the point against every ball ahead of it and
    projects onto the first it lies outside of: the floats of a ball-by-ball
    walk.  A group reads only its own point and balls, so its floats do not
    depend on the other groups.  UndecidedIntersection is raised when a
    group runs out of sweeps, or when a sweep left its point where it was
    and it still violates.
    """
    ends = np.append(starts[1:], len(centers))
    group = np.repeat(np.arange(len(starts)), ends - starts)

    # pairwise emptiness certificate over the (i, j) pairs of each group
    i, j = _ranges(starts[group], ends[group])
    far = _l2_rows(centers[i], centers[j]) > radii[i] + radii[j] + slack
    found = np.ones(len(starts), dtype=bool)
    found[group[i[far]]] = False

    z = centers[starts]
    live = found.copy()
    for _ in range(max_sweeps):
        rows = np.flatnonzero(live[group])
        if not rows.size:
            break
        gid = group[rows]
        # a sweep's first pass measures every ball, so it holds the slack
        # test's distances for each group the sweep then leaves in place
        dist = d = _l2_rows(z[gid], centers[rows])
        moved = np.zeros(len(starts), dtype=bool)
        at, g = rows, gid
        while True:
            out = np.flatnonzero(d > radii[at])
            if not out.size:
                break
            first = out[np.diff(g[out], prepend=-1) != 0]  # per group
            g, b = g[first], at[first]
            z[g] = centers[b] + (z[g] - centers[b]) * (radii[b] / d[first])[:, None]
            moved[g] = True
            more = b + 1 < ends[g]
            own, at = _ranges(b[more] + 1, ends[g[more]])
            g = g[more][own]
            d = _l2_rows(z[g], centers[at])
        again = np.flatnonzero(moved[gid])
        dist[again] = _l2_rows(z[gid[again]], centers[rows[again]])
        unmet = np.zeros(len(starts), dtype=bool)
        unmet[gid[~(dist <= radii[rows] + slack)]] = True
        if (unmet & ~moved).any():  # fixed point that still violates: cannot happen, guard
            break
        live = unmet
    if live.any():
        raise UndecidedIntersection(
            f"no feasible point within slack {slack} after {max_sweeps} sweeps"
        )
    return z, found


def _intersection_points(
    centers: np.ndarray,
    radii: np.ndarray,
    starts: np.ndarray,
    slack: float,
    tag: str,
    max_sweeps: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Per group of balls (rows ``starts[i]`` up to the next start, the last
    group up to the end; a group may be empty): a point within ``slack`` of
    the intersection of its closed balls, and whether one was found.  A
    group without balls is the whole space and gets the origin.  In
    l-infinity the point is the midpoint of the slack-inflated box, in l2
    the cyclic projection of ``_projection_intersection``."""
    starts = np.asarray(starts, dtype=np.intp)
    pts = np.zeros((len(starts), centers.shape[1]))
    ok = np.ones(len(starts), dtype=bool)
    has = np.flatnonzero(np.diff(starts, append=len(centers)) > 0)
    if has.size and tag == "linf":
        pts[has], ok[has] = _box_intersection(centers, radii + slack, starts[has])
    elif has.size:
        pts[has], ok[has] = _projection_intersection(
            centers, radii, starts[has], slack, max_sweeps
        )
    return pts, ok


def ball_intersection_point(
    centers: np.ndarray,
    radii: np.ndarray,
    slack: float = 0.0,
    tag: str = "linf",
    max_sweeps: int = 10_000,
):
    """A point within ``slack`` of the intersection of the closed balls
    B_Z(centers[i], radii[i]), or EMPTY.

    ``centers`` is (n_balls, m) and ``radii`` (n_balls,); radius 0 is
    allowed.  No balls means the whole space (the origin of R^m is
    returned).  The l-infinity path is an exact coordinate-wise box
    intersection.  The l2 path runs cyclic projections from the first
    center; it certifies emptiness only when two centers are farther apart
    than the slack-inflated radius sum, and raises UndecidedIntersection
    otherwise when the sweep budget runs out.  This is the one-group call of
    ``_intersection_points``.
    """
    _check_tag(tag)
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0):
        raise ValueError("ball radius must be nonnegative")
    [pt], [ok] = _intersection_points(centers, radii, [0], slack, tag, max_sweeps)
    return pt if ok else EMPTY
