"""Target-space geometry: norms, radial projections onto balls, and slack
intersections of closed ball families."""
import numpy as np
import pytest
from conftest import point_by_projection
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from baireext.target import (
    EMPTY,
    UndecidedIntersection,
    _intersection_points,
    _l2_rows,
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

    def test_linf_boxes_that_touch_meet_in_a_point(self):
        centers, radii = balls_of([([0.0, 0.0], 1.0), ([2.0, 0.5], 1.0)])
        z = ball_intersection_point(centers, radii, tag="linf")
        assert np.array_equal(z, [1.0, 0.25])

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


def triangle(side, m, angle=0.0, shift=0.0):
    """Three unit balls centered on an equilateral triangle in the first two
    of m >= 2 coordinates.  Their intersection is small for a side near
    sqrt(3), so cyclic projections take several sweeps to reach it."""
    tri = side * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    centers = np.zeros((3, m))
    centers[:, :2] = tri @ rot.T
    return centers + shift, np.ones(3)


@st.composite
def ball_groups(draw):
    """(m, groups): 1-5 families of 0-6 balls in R^m, m = 1-3, each a list
    of (center, radius) pairs; from m = 2 on some are ``triangle`` families
    with sides of 1.6-1.72, which need 2 to 25 l2 sweeps."""
    m = draw(st.integers(1, 3))
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        if m >= 2 and draw(st.booleans()):
            centers, radii = triangle(
                draw(st.floats(1.6, 1.72)), m, draw(st.floats(0, 2 * np.pi)),
                draw(hnp.arrays(float, m, elements=st.floats(-3, 3))),
            )
        else:
            n = draw(st.integers(0, 6))
            centers = draw(hnp.arrays(float, (n, m), elements=st.floats(-5, 5)))
            radii = draw(hnp.arrays(float, n, elements=st.floats(0.1, 4.0)))
        groups.append(list(zip(centers, radii)))
    return m, groups


def stacked(m, groups):
    """(centers, radii, starts) of the families, one after another."""
    centers = np.array([c for g in groups for c, _ in g], dtype=float).reshape(-1, m)
    radii = np.array([r for g in groups for _, r in g], dtype=float)
    return centers, radii, np.cumsum([0] + [len(g) for g in groups[:-1]])


class TestGroupedIntersection:
    """``_intersection_points`` against one ``ball_intersection_point`` call
    per group, and that call against the ball-by-ball walk."""

    @settings(max_examples=200, deadline=None)
    @given(
        ball_groups(),
        st.one_of(st.floats(0.0, 0.5), st.sampled_from([0.0, 1e-6, 1e-3, 1e-2])),
        st.sampled_from(["l2", "linf"]),
        st.sampled_from([1, 3, 10_000]),
    )
    def test_each_group_gets_the_bits_of_its_own_call(self, case, slack, tag, max_sweeps):
        m, groups = case
        own, undecided = [], False
        for g in groups:
            centers, radii, _ = stacked(m, [g])
            try:
                pt = ball_intersection_point(centers, radii, slack, tag, max_sweeps)
            except UndecidedIntersection:
                undecided = True
                with pytest.raises(UndecidedIntersection):
                    point_by_projection(g, slack, tag, m, max_sweeps)
                continue
            want = point_by_projection(g, slack, tag, m, max_sweeps)
            assert (pt is EMPTY) == (want is None)
            assert pt is EMPTY or pt.tobytes() == want.tobytes()
            own.append(pt)
        if undecided:  # one group out of sweeps stops the whole call
            with pytest.raises(UndecidedIntersection):
                _intersection_points(*stacked(m, groups), slack, tag, max_sweeps)
            return
        pts, ok = _intersection_points(*stacked(m, groups), slack, tag, max_sweeps)
        assert pts.shape == (len(groups), m)
        for pt, got, found in zip(own, pts, ok):
            assert found == (pt is not EMPTY)
            assert pt is EMPTY or got.tobytes() == pt.tobytes()

    def test_a_converged_group_keeps_its_point_while_another_sweeps(self):
        """At slack 0.01 the side-1.55 triangle is met in one sweep by a
        point just outside its second ball, which another sweep would move;
        the side-1.7 triangle needs three sweeps."""
        quick, slow = triangle(1.55, 2), triangle(1.7, 2)
        one = ball_intersection_point(*quick, slack=0.01, tag="l2", max_sweeps=1)
        assert _l2_rows(one, quick[0])[1] > 1.0
        with pytest.raises(UndecidedIntersection):
            ball_intersection_point(*slow, slack=0.01, tag="l2", max_sweeps=2)
        three = ball_intersection_point(*slow, slack=0.01, tag="l2", max_sweeps=3)
        for groups in ([quick, slow], [slow, quick]):
            centers = np.concatenate([c for c, _ in groups])
            radii = np.concatenate([r for _, r in groups])
            pts, ok = _intersection_points(centers, radii, [0, 3], 0.01, "l2", max_sweeps=3)
            assert ok.all()
            assert [p.tobytes() for p in pts] == [
                (one if c is quick[0] else three).tobytes() for c, _ in groups
            ]
            with pytest.raises(UndecidedIntersection):
                _intersection_points(centers, radii, [0, 3], 0.01, "l2", max_sweeps=2)

    def test_a_group_without_balls_gets_the_origin(self):
        centers, radii = balls_of([([3.0, 4.0], 1.0)])
        for tag in ("l2", "linf"):
            pts, ok = _intersection_points(centers, radii, [0, 0, 1], 0.0, tag)
            assert ok.all()
            assert np.array_equal(pts, [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])


@st.composite
def rows_and_row(draw, elements):
    """(z, w): rows of 0-10 columns under at most two leading axes, and one
    row of the same width, broadcast along them."""
    width = draw(st.integers(0, 10))
    lead = draw(st.lists(st.integers(1, 5), max_size=2))
    z = draw(hnp.arrays(np.float64, (*lead, width), elements=elements))
    w = draw(hnp.arrays(np.float64, (width,), elements=elements))
    return z, w


class TestL2RowsKernel:
    """The one Euclidean row-norm kernel against ``np.linalg.norm``, bit for
    bit up to the sign of a NaN: column-wise below 8 columns, numpy's own
    reduction from 8 on and at width 0."""

    # subnormal to 1e150 (squares stay finite), signed zeros, NaN and inf
    values = st.one_of(
        st.floats(min_value=5e-324, max_value=1e150),
        st.floats(min_value=-1e150, max_value=-5e-324),
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e150]),
    )

    @staticmethod
    def assert_same_bits(got, ref):
        """The bits of ``ref`` wherever it is a number, and NaN wherever it is
        NaN: IEEE 754 does not fix the sign of a NaN result, and no artifact
        can show it (``repr`` and json spell every NaN alike)."""
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == ref[~nan].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(pair=rows_and_row(values))
    # z - w is [+NaN, -NaN]; the kernel's NaN has its sign bit set, numpy's not
    @example(pair=(np.array([np.inf, np.inf]), np.array([np.nan, np.inf])))
    def test_bit_equal_to_numpy(self, pair):
        z, w = pair
        self.assert_same_bits(_l2_rows(z), np.linalg.norm(z, axis=-1))
        # a difference of two arrays, the second broadcast along the leading axes
        with np.errstate(invalid="ignore", over="ignore"):
            self.assert_same_bits(_l2_rows(z, w), np.linalg.norm(z - w, axis=-1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_l2_norm_bit_equal_to_numpy(self, data):
        m = data.draw(st.integers(1, 10), label="m")
        shape = data.draw(st.sampled_from([(m,), (3, m), (2, 4, m)]), label="shape")
        z = data.draw(hnp.arrays(np.float64, shape, elements=self.values), label="z")
        self.assert_same_bits(norm(z, "l2"), np.linalg.norm(z, axis=-1))

    def test_wide_rows_take_the_pairwise_sum(self):
        """From 8 columns on numpy's sum differs from a left-to-right one on
        some rows; the kernel follows numpy there."""
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2000, 9)) * rng.uniform(0, 1e3, (2000, 9))
        left_to_right = np.sqrt(sum(z[:, c] * z[:, c] for c in range(9)))
        ref = np.linalg.norm(z, axis=-1)
        assert not np.array_equal(left_to_right, ref)
        self.assert_same_bits(_l2_rows(z), ref)
