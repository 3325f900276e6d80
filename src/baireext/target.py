"""The target normed space Z = R^m: norms, radial projections and
slack intersections of closed balls.

A family of closed balls is two stacked arrays: the centers, one row per
ball, and the radii.  The default norm is l-infinity, under which every ball
intersection is a box and the selection surrogate is exact.  l2 is supported
through a cyclic projection solver that exploits the slack the selection
step grants.
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


def norm(z: np.ndarray, tag: str = "linf") -> float | np.ndarray:
    """l2 or l-infinity norm; vectorized over the leading axes."""
    _check_tag(tag)
    z = np.asarray(z, dtype=float)
    if tag == "l2":
        return np.linalg.norm(z, axis=-1)
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


def _box_intersection(centers: np.ndarray, radii: np.ndarray):
    lo = (centers - radii[:, None]).max(axis=0)
    hi = (centers + radii[:, None]).min(axis=0)
    if np.all(lo <= hi):
        return (lo + hi) / 2.0
    return EMPTY


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
    otherwise when the sweep budget runs out.
    """
    _check_tag(tag)
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0):
        raise ValueError("ball radius must be nonnegative")
    if not len(centers):
        return np.zeros(centers.shape[1])

    if tag == "linf":
        return _box_intersection(centers, radii + slack)

    # pairwise emptiness certificate
    gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    if np.any(gaps > radii[:, None] + radii[None, :] + slack):
        return EMPTY

    z = centers[0].copy()
    for _ in range(max_sweeps):
        moved = False
        for c, r in zip(centers, radii):
            v = z - c
            d = np.linalg.norm(v)
            if d > r:
                z = c + v * (r / d)
                moved = True
        dists = np.linalg.norm(z - centers, axis=1)
        if np.all(dists <= radii + slack):
            return z
        if not moved:  # fixed point that still violates: cannot happen, guard
            break
    raise UndecidedIntersection(
        f"no feasible point within slack {slack} after {max_sweeps} sweeps"
    )
