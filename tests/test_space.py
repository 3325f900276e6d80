"""Metric substrate: the nearest-H kernel, refinements, partitions of unity
and finite-metric loading."""
import json

import numpy as np
import pytest
from conftest import raw_cover
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from baireext.space import (
    CoverageError,
    CoverSystem,
    SampledSpace,
    SpaceConfigError,
    _expand_lower_triangular,
    build_refinement,
    dense_weights,
    load_space_json,
    partition_of_unity,
    validate_metric,
)


def line_space(pts, h, mode="finite", delta=0.0):
    pts = np.asarray(pts, dtype=float)
    return SampledSpace(
        coords=pts[:, None], dmat=None, h_idx=np.array(sorted(h)), mode=mode, delta=delta
    )


def pair_dist(space, i, j):
    """d(i, j) of a coordinate space, written out for one pair."""
    return float(np.linalg.norm(space.coords[i] - space.coords[j], axis=-1))


def dist_to_set(space, x):
    """dist(x, H) of the sample x."""
    return float(space.nearest_h(np.array([x]))[0][0])


def nearest(space, x):
    """X index of the nearest H sample to the sample x."""
    return int(space.h_idx[space.nearest_h(np.array([x]))[1][0]])


clouds = hnp.arrays(
    np.float64,
    st.tuples(st.integers(4, 12), st.just(3)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestDistToSet:
    def test_single_point_h(self):
        sp = line_space([-1.0, 0.0, 1.0], h=[1])
        assert dist_to_set(sp, 2) == 1.0

    def test_zero_on_h(self):
        sp = line_space([-1.0, 0.0, 1.0], h=[1])
        assert dist_to_set(sp, 1) == 0.0

    def test_segment_in_plane(self):
        ts = np.linspace(-1, 1, 21)
        coords = np.column_stack([ts, np.zeros_like(ts)])
        coords = np.vstack([coords, [[0.5, 0.2]]])
        sp = SampledSpace(
            coords=coords, dmat=None, h_idx=np.arange(21), mode="finite", delta=0.0
        )
        # brute-force minimum over the H samples
        brute = np.linalg.norm(coords[:21] - coords[21], axis=1).min()
        assert dist_to_set(sp, 21) == pytest.approx(0.2)
        assert dist_to_set(sp, 21) == brute

    def test_empty_h_rejected(self):
        with pytest.raises(SpaceConfigError):
            line_space([0.0, 1.0], h=[])


class TestNearestWithSlack:
    def test_simple(self):
        sp = line_space([0.0, 0.7], h=[0])
        u = nearest(sp, 1)
        assert u == 0
        assert pair_dist(sp, 1, u) <= 2 * dist_to_set(sp, 1)

    def test_tie_breaks_to_lowest_index(self):
        sp = line_space([-1.0, 0.0, 1.0], h=[0, 2])
        assert nearest(sp, 1) == 0

    @settings(max_examples=60, deadline=None)
    @given(clouds)
    def test_general_inequalities_on_random_clouds(self, pts):
        n = len(pts)
        sp = SampledSpace(coords=pts, dmat=None, h_idx=np.arange(n // 2), mode="finite")
        for x in range(n // 2, n):
            dh = dist_to_set(sp, x)
            if dh == 0.0:
                continue  # duplicated sample landed on H
            u = nearest(sp, x)
            assert pair_dist(sp, x, u) <= 2 * dh
            for a in sp.h_idx:
                a = int(a)
                # 1-ulp slack: the kernel and pair_dist may reduce the same
                # coordinates in different orders
                assert dh <= pair_dist(sp, x, a) + 1e-12
                assert pair_dist(sp, a, u) <= 3 * pair_dist(sp, a, x) + 1e-12


def test_triangle_inequality_on_many_random_triples():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5, 5, size=(60, 3))
    sp = SampledSpace(coords=pts, dmat=None, h_idx=np.array([0]), mode="finite")
    m = sp.dense_matrix()
    idx = rng.integers(0, 60, size=(12_000, 3))
    i, j, k = idx.T
    assert np.all(m[i, k] <= m[i, j] + m[j, k] + 1e-12)
    # exact checks: symmetry and zero diagonal
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0)


class TestBuildRefinement:
    def test_one_huge_ball(self):
        sp = line_space([0.0, 2.0, 4.0], h=[0])
        ref = build_refinement(sp, raw_cover(np.full(3, 100.0)))
        assert np.array_equal(ref.centers, [0])
        assert np.array_equal(ref.radii, [50.0])

    def test_greedy_scan_merges_close_points(self):
        sp = line_space([0.0, 0.1, 0.2], h=[0])
        ref = build_refinement(sp, raw_cover(np.full(3, 1.0)))
        assert ref.n_balls == 1
        assert ref.centers[0] == 0

    def test_empty_point_set(self):
        """A raw cover without balls is no cover of the samples: refused."""
        sp = line_space([0.0, 1.0], h=[0])
        raw = CoverSystem(centers=np.zeros(0, dtype=int), radii=np.zeros(0))
        with pytest.raises(ValueError, match="one raw ball per sample"):
            build_refinement(sp, raw)

    @pytest.mark.parametrize(
        "centers, radii",
        [([0], [5.0]), ([1, 0], [1.0, 1.0]), ([0, 0], [1.0, 1.0]), ([0, 1, 2], [1.0, 1.0, 1.0]),
         ([0, 1], [1.0])],
    )
    def test_refuses_a_raw_cover_not_one_ball_per_sample(self, centers, radii):
        sp = line_space([0.0, 1.0], h=[0])
        raw = CoverSystem(centers=np.array(centers), radii=np.array(radii))
        with pytest.raises(ValueError, match="one raw ball per sample, in sample order"):
            build_refinement(sp, raw)

    def test_refined_ball_inside_parent(self):
        """Each emitted ball B(p, r_p/2) lies in p's own raw ball B(p, r_p)."""
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(30, 2))
        sp = SampledSpace(coords=pts, dmat=None, h_idx=np.array([0]), mode="finite")
        raw = raw_cover(rng.uniform(0.1, 0.6, size=30))
        ref = build_refinement(sp, raw)
        assert np.array_equal(ref.radii, raw.radii[ref.centers] / 2)
        for c, r in zip(ref.centers, ref.radii):
            inside = sp.dists_from(int(c)) < r
            assert np.all(sp.dists_from(int(c))[inside] < raw.radii[c])

    @settings(max_examples=60, deadline=None)
    @given(clouds, st.sampled_from(["finite", "sampled"]), st.data())
    def test_positive_rule_radii_cover_every_sample(self, pts, mode, data):
        """With every rule radius positive each sample lies in an emitted open
        ball, so the refinement's partition of unity does not raise."""
        n = len(pts)
        sp = SampledSpace(coords=pts, dmat=None, h_idx=np.array([0]), mode=mode, delta=0.5)
        radii = data.draw(hnp.arrays(float, n, elements=st.floats(1e-9, 40.0)))
        ref = build_refinement(sp, raw_cover(radii))
        member = np.stack([sp.dists_from(int(c)) < r for c, r in zip(ref.centers, ref.radii)], axis=1)
        assert member.any(axis=1).all()
        w = dense_weights(partition_of_unity(sp, ref))
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)


class TestPartitionOfUnity:
    def test_single_ball_gives_weight_one(self):
        sp = line_space([0.0, 0.3, 0.6], h=[0], mode="sampled", delta=0.1)
        cover = CoverSystem(centers=np.array([0]), radii=np.array([1.0]))
        pou = partition_of_unity(sp, cover)
        assert np.allclose(dense_weights(pou), 1.0)

    def test_symmetric_midpoint(self):
        sp = line_space([0.0, 0.25, 0.5], h=[0], mode="sampled", delta=0.1)
        cover = CoverSystem(centers=np.array([0, 2]), radii=np.array([0.6, 0.6]))
        w = dense_weights(partition_of_unity(sp, cover))
        assert w[1, 0] == pytest.approx(0.5)
        assert w[1, 1] == pytest.approx(0.5)

    def test_rule_value_overlapping_balls(self):
        sp = line_space([0.0, 0.25, 0.5], h=[0], mode="sampled", delta=0.1)
        cover = CoverSystem(centers=np.array([0, 2]), radii=np.array([1.0, 1.0]))
        pou = partition_of_unity(sp, cover)
        # raw weights at y=0.25 are radius - d(center, y) = (0.75, 0.75)
        assert dense_weights(pou)[1, 0] == pytest.approx(0.75 / 1.5)

    @settings(max_examples=40, deadline=None)
    @given(clouds, st.sampled_from(["finite", "sampled"]))
    def test_sums_to_one_and_vanishes_outside(self, pts, mode):
        n = len(pts)
        sp = SampledSpace(
            coords=pts, dmat=None, h_idx=np.array([0]), mode=mode, delta=0.5
        )
        cover = CoverSystem(centers=np.arange(n), radii=np.full(n, 50.0))
        w = dense_weights(partition_of_unity(sp, cover))
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
        member = np.stack(
            [sp.dists_from(int(c)) < r for c, r in zip(cover.centers, cover.radii)], axis=1
        )
        assert np.all(w[~member] == 0.0)

    def test_uncovered_point_is_named(self):
        sp = line_space([0.0, 10.0], h=[0], mode="sampled", delta=0.1)
        cover = CoverSystem(centers=np.array([0]), radii=np.array([1.0]))
        with pytest.raises(CoverageError, match="point 1"):
            partition_of_unity(sp, cover)


class TestFiniteMetricLoading:
    def test_roundtrip(self):
        doc = {"points": ["a", "b", "c"], "dist": [0, 1, 0, 2, 1.5, 0], "H": [0]}
        sp = load_space_json(json.dumps(doc))
        assert sp.n_points == 3
        assert sp.dists_from(0)[2] == 2
        assert sp.dists_from(2)[1] == 1.5
        assert sp.labels == ("a", "b", "c")

    def test_triangle_violation_names_triple(self):
        m = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(SpaceConfigError, match="triangle"):
            validate_metric(m)

    def test_wrong_triangular_length(self):
        doc = {"points": ["a", "b"], "dist": [0, 1], "H": [0]}
        with pytest.raises(SpaceConfigError, match="entries"):
            load_space_json(json.dumps(doc))

    def test_asymmetric_matrix_rejected(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(SpaceConfigError, match="symmetric"):
            validate_metric(m)

    @staticmethod
    def load_error(**changes):
        """The one-line refusal of the three-point document with ``changes``."""
        doc = {"points": ["a", "b", "c"], "dist": [0, 1, 0, 2, 1.5, 0], "H": [0]}
        with pytest.raises(SpaceConfigError) as got:
            load_space_json(json.dumps({**doc, **changes}))
        assert "\n" not in str(got.value)
        return str(got.value)

    @pytest.mark.parametrize("text, key", [
        ("{}", "points"),
        ("[]", "points"),
        ('"points"', "points"),
        ('{"points": ["a", "b", "c"], "dist": [0, 1, 0, 2, 1.5, 0]}', "H"),
    ])
    def test_missing_key_rejected(self, text, key):
        """A document that is not an object, or lacks a key, is refused by
        the first key it lacks, not with a KeyError or TypeError."""
        with pytest.raises(SpaceConfigError) as got:
            load_space_json(text)
        assert str(got.value) == f"space document needs a list under key {key!r}"

    @pytest.mark.parametrize("key, value", [
        ("points", "abc"), ("points", 3), ("dist", 5), ("dist", "0"), ("dist", None),
        ("H", 0), ("H", "0"), ("H", {"0": 1}),
    ])
    def test_non_list_key_rejected(self, key, value):
        """A string is refused too, though it iterates: "abc" would load as
        three labels."""
        assert self.load_error(**{key: value}) == f"space document needs a list under key {key!r}"

    @pytest.mark.parametrize(
        "text", ["{", "", '{"points": ["a"],', "[1, 2", '{"H": [0]} x', "nan?"]
    )
    def test_malformed_json_rejected(self, text):
        """Text that is not JSON is refused with a one-line SpaceConfigError,
        not json's JSONDecodeError (a ValueError of another type)."""
        with pytest.raises(SpaceConfigError) as got:
            load_space_json(text)
        assert str(got.value).startswith("space document is not JSON: ")
        assert "\n" not in str(got.value)

    @pytest.mark.parametrize("label, shown", [
        ([1], "[1]"), ({"a": 1}, "{'a': 1}"), (None, "None"), (True, "True"),
    ])
    def test_non_scalar_label_rejected(self, label, shown):
        """A label is a string or a number; a list, an object, null or a
        bool is refused by its index."""
        assert self.load_error(points=["a", label, "c"]) == (
            f"point label 1 is {shown}, not a string or a number"
        )

    def test_number_labels_load(self):
        doc = {"points": [0, 1.5, "c"], "dist": [0, 1, 0, 2, 1.5, 0], "H": [0]}
        sp = load_space_json(json.dumps(doc))
        assert sp.labels == (0, 1.5, "c")

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
    def test_lower_triangular_expansion_matches_row_loop(self, n):
        """Row-major lower-triangular entries fill both triangles, bit for
        bit as the (i, j <= i) loop writes them; ints and floats alike."""
        rng = np.random.default_rng(n)
        tri = [float(v) if p % 3 else int(10 * v) for p, v in enumerate(rng.random(n * (n + 1) // 2))]
        want = np.zeros((n, n))
        pos = 0
        for i in range(n):
            for j in range(i + 1):
                want[i, j] = want[j, i] = tri[pos]
                pos += 1
        assert _expand_lower_triangular(tri, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry, shown", [(0.7, "0.7"), (True, "True"), ("1", "'1'")])
    def test_non_integer_h_entry_rejected(self, entry, shown):
        assert self.load_error(H=[0, entry]) == f"H entry {shown} is not a sample index in 0..2"

    def test_repeated_h_entry_rejected(self):
        assert self.load_error(H=[1, 0, 1]) == "H entry 1 is repeated"

    @pytest.mark.parametrize("entry", [3, -1])
    def test_out_of_range_h_entry_rejected(self, entry):
        assert self.load_error(H=[0, entry]) == f"H entry {entry} is not a sample index in 0..2"

    def test_infinite_distance_rejected(self):
        # the triangle check alone misses it: inf - inf is NaN
        assert self.load_error(dist=[0, 1, 0, float("inf"), 1.5, 0]) == (
            "metric entry d(0,2) = inf is not finite"
        )

    def test_nan_distance_rejected_as_not_finite(self):
        assert self.load_error(dist=[0, float("nan"), 0, 2, 1.5, 0]) == (
            "metric entry d(0,1) = nan is not finite"
        )

    @pytest.mark.parametrize("entry, shown", [
        ("1", "'1'"), ("x", "'x'"), (False, "False"), (True, "True"), (None, "None"),
        ([1], "[1]"), ([[1.0, 2.0]], "[[1.0, 2.0]]"), ({"d": 1}, "{'d': 1}"),
    ])
    def test_non_number_dist_entry_rejected(self, entry, shown):
        """A string, a bool, null or a nested value is refused by its index,
        where numpy would convert "1" and False or raise its own error."""
        assert self.load_error(dist=[0, 1, 0, entry, 1.5, 0]) == f"dist entry 3 is {shown}, not a number"

    def test_integer_beyond_float_range_rejected(self):
        """json reads a long integer literal exactly; numpy cannot store it."""
        assert self.load_error(dist=[0, 1, 0, 10**400, 1.5, 0]) == (
            "dist entry 3 is an integer beyond the float range"
        )
