"""Target-space geometry: norms, radial projections onto balls, and slack
intersections of closed ball families."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from baireext.target import (
    EMPTY,
    UndecidedIntersection,
    ball_intersection_point,
    norm,
    radial_project,
    retraction_factor,
)

vectors = hnp.arrays(
    np.float64, st.tuples(st.just(3)), elements=st.floats(-50, 50, allow_nan=False)
)


class TestNorm:
    def test_zero(self):
        assert norm(np.zeros(2), "l2") == 0.0
        assert norm(np.zeros(2), "linf") == 0.0

    def test_examples(self):
        assert norm(np.array([3.0, 4.0]), "l2") == pytest.approx(5.0)
        assert norm(np.array([3.0, -4.0]), "linf") == 4.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="norm tag"):
            norm(np.zeros(2), "l1")

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_linf_matches_the_row_reduction(self, z):
        """The column-at-a-time linf norm gives the floats of the reduction
        over the last axis, infinities and signed zeros included, NaN where
        that gives NaN (whose payload bits may differ), and a scalar for one
        vector."""
        got, want = norm(z, "linf"), np.abs(z).max(axis=-1)
        assert type(got) is type(want)

        def bits(x):
            x = np.asarray(x)
            return np.where(np.isnan(x), np.nan, x).tobytes()

        assert bits(got) == bits(want)


class TestRadialProject:
    def test_inside_is_identity(self):
        z = np.array([1.0, 0.0])
        assert np.array_equal(radial_project(z, 2.0, "l2"), z)

    def test_outside_scales_to_sphere(self):
        out = radial_project(np.array([3.0, 4.0]), 1.0, "l2")
        assert np.allclose(out, [0.6, 0.8])

    def test_infinite_radius_is_identity(self):
        z = np.array([100.0, -7.0])
        assert np.array_equal(radial_project(z, np.inf, "linf"), z)

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError, match="r >= 1"):
            radial_project(np.ones(2), 0.5)

    @settings(max_examples=80, deadline=None)
    @given(vectors, st.floats(1.0, 20.0), st.sampled_from(["l2", "linf"]))
    def test_idempotent_and_bounded(self, z, r, tag):
        p = radial_project(z, r, tag)
        assert norm(p, tag) <= r + 1e-12
        assert np.allclose(radial_project(p, r, tag), p, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(vectors, vectors, st.floats(1.0, 10.0), st.floats(1.0, 10.0))
    def test_l2_joint_one_lipschitz(self, z, w, r, s):
        gap = np.linalg.norm(radial_project(z, r, "l2") - radial_project(w, s, "l2"))
        assert gap <= np.linalg.norm(z - w) + abs(r - s) + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(vectors, vectors, st.floats(1.0, 10.0), st.floats(1.0, 10.0))
    def test_linf_joint_factor_two(self, z, w, r, s):
        factor = retraction_factor("linf", 3)
        gap = norm(
            radial_project(z, r, "linf") - radial_project(w, s, "linf"), "linf"
        )
        bound = factor * (norm(z - w, "linf") + abs(r - s))
        assert gap <= bound + 1e-9

    def test_linf_retraction_exceeds_one_lipschitz(self):
        # witness that the l-infinity radial retraction is not 1-Lipschitz
        eps = 1e-3
        z = np.array([1.0, 1.0])
        w = np.array([1.0 + eps, 1.0 - eps])
        gap = norm(radial_project(z, 1.0, "linf") - radial_project(w, 1.0, "linf"), "linf")
        assert gap > norm(z - w, "linf")
        assert retraction_factor("linf", 2) == 2.0
        assert retraction_factor("l2", 2) == 1.0
        assert retraction_factor("linf", 1) == 1.0


def balls_of(pts_radii):
    """(centers, radii) arrays of a family given as (center, radius) pairs."""
    centers = np.array([c for c, _ in pts_radii], dtype=float)
    radii = np.array([r for _, r in pts_radii], dtype=float)
    return centers, radii


class TestBallIntersection:
    def test_empty_family_gives_origin(self):
        z = ball_intersection_point(np.zeros((0, 2)), np.zeros(0))
        assert np.array_equal(z, np.zeros(2))

    def test_two_unit_intervals(self):
        centers, radii = balls_of([([0.0], 1.0), ([1.0], 1.0)])
        z = ball_intersection_point(centers, radii, tag="linf")
        assert z == pytest.approx(0.5)

    def test_l2_certified_empty(self):
        centers, radii = balls_of([([0.0, 0.0], 1.0), ([3.0, 0.0], 1.0)])
        assert ball_intersection_point(centers, radii, slack=0.0, tag="l2") is EMPTY

    def test_linf_certified_empty(self):
        centers, radii = balls_of([([0.0, 0.0], 1.0), ([3.0, 0.0], 1.0)])
        assert ball_intersection_point(centers, radii, tag="linf") is EMPTY

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            ball_intersection_point(np.zeros((0, 1)), np.zeros(0), slack=-0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                st.floats(0.1, 4.0),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(0.0, 0.5),
        st.sampled_from(["l2", "linf"]),
    )
    def test_returned_point_respects_slack(self, fam, slack, tag):
        centers, radii = balls_of(fam)
        try:
            z = ball_intersection_point(centers, radii, slack=slack, tag=tag)
        except UndecidedIntersection:
            return
        if z is EMPTY:
            return
        assert np.all(norm(z - centers, tag) <= radii + slack + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
                st.floats(0.1, 4.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_linf_agrees_with_box_oracle(self, fam):
        centers, radii = balls_of(fam)
        lo = np.max([np.asarray(c) - r for c, r in fam], axis=0)
        hi = np.min([np.asarray(c) + r for c, r in fam], axis=0)
        z = ball_intersection_point(centers, radii, tag="linf")
        if np.all(lo <= hi):
            assert z is not EMPTY
            assert np.all(lo - 1e-12 <= z) and np.all(z <= hi + 1e-12)
        else:
            assert z is EMPTY

    def test_l2_undecided_raises(self):
        # pairwise intersecting but jointly empty: equilateral triangle of
        # side 1.9 with unit radii, zero slack
        side = 1.9
        centers = [
            [0.0, 0.0],
            [side, 0.0],
            [side / 2, side * np.sqrt(3) / 2],
        ]
        centers, radii = balls_of([(c, 1.0) for c in centers])
        with pytest.raises(UndecidedIntersection):
            ball_intersection_point(centers, radii, slack=0.0, tag="l2", max_sweeps=50)
        # a generous slack makes the same family feasible
        z = ball_intersection_point(centers, radii, slack=0.5, tag="l2", max_sweeps=5000)
        assert np.all(np.linalg.norm(z - centers, axis=1) <= radii + 0.5 + 1e-9)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ball_intersection_point(np.zeros((2, 1)), np.array([1.0, -1.0]))
