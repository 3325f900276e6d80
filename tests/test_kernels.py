"""Row-sized distance kernels, the sorted-neighbour cover kernels, the
smoothing contributor search, the cover-level ball depth, the shared weight
and field-row code, the selection transform on stacked ball arrays and the
array-only Lipschitz oracles: each one is compared bit for bit with the
per-pair, per-query, per-ball, dense all-pairs, per-caller, per-sample or
per-center formula it replaced, written out here."""
import hashlib
import json
import re
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from conftest import (
    blend_calls,
    dense_ball_depth,
    raw_cover,
    recorded_calls,
    run_scenario_objects,
    run_selection,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from baireext import extension, pipeline, scenarios
from baireext import space as space_mod
from baireext.extension import (
    branch_condition_violations,
    build_extension,
    factor4_ratio_range,
    field_rows,
    field_to_csv,
    field_to_json,
    general_inequality_slacks,
    local_lip_K,
    m_bound,
    select_ceiling,
    smooth_extension,
)
from baireext.pipeline import (
    BoundRadiusField,
    FunctionBundle,
    FunSeqItem,
    baire_approximate,
    enforce_local_uniform_boundedness,
    local_bound_radius,
    monotone_lip_envelope,
    sampled_lip_oracle,
)
from baireext.scenarios import (
    ScenarioConfig,
    _PointSet,
    _sequence_length,
    _validate_continuity_declarations,
    get_scenario,
)
from baireext.space import (
    _PAIR_BLOCK,
    _ROW_BLOCK,
    _near_pairs,
    CoverageError,
    CoverSystem,
    Csr,
    SampledSpace,
    SpaceConfigError,
    ball_depth,
    ball_multiplicity,
    build_refinement,
    dense_weights,
    load_space_json,
    partition_of_unity,
)
from baireext.target import EMPTY, ball_intersection_point, norm, radial_project
from baireext.verify import oscillation


def cloud_space(n, dim, seed):
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, dim))
    return SampledSpace(coords=pts, dmat=None, h_idx=np.arange(n // 3), mode="finite")


def json_line_space(xs, h):
    """A finite space loaded from JSON whose metric is |x_i - x_j|."""
    xs = np.asarray(xs, dtype=float)
    m = np.abs(xs[:, None] - xs[None, :])
    tri = [float(m[i, j]) for i in range(len(xs)) for j in range(i + 1)]
    doc = {"points": [str(x) for x in xs], "dist": tri, "H": list(h)}
    return load_space_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# the sorted-neighbour kernel
# ---------------------------------------------------------------------------

@contextmanager
def scan_windows(window, probe_min):
    """The cover kernels with another window and another largest space
    compared in full, so that spaces of a few samples read windows of their
    order too."""
    with patch.multiple(space_mod, _WINDOW=window, _PROBE_MIN=probe_min):
        yield


# (window, largest space compared in full): windows from one sample wide,
# each on every space wider than the window, and the module's own setting
WINDOWS = st.sampled_from([(1, 0), (2, 1), (4, 3), (space_mod._WINDOW, space_mod._PROBE_MIN)])


# ---------------------------------------------------------------------------
# build_refinement
# ---------------------------------------------------------------------------

def pair_dist(space, i, j):
    """d(i, j) for one pair: a matrix entry, or the norm of one coordinate
    difference (an explicit axis keeps numpy off a BLAS dot, which may round
    differently)."""
    if space.dmat is not None:
        return float(space.dmat[i, j])
    return float(np.linalg.norm(space.coords[i] - space.coords[j], axis=-1))


def refine_by_pairs(space, raw):
    """The greedy refinement as a scan over the samples in index order, with
    one scalar pair distance per sample."""
    centers, radii = [], []
    covered = np.zeros(space.n_points, dtype=bool)
    for p in range(space.n_points):
        if covered[p]:
            continue
        r_new = raw.radii[p] / 2.0
        centers.append(p)
        radii.append(r_new)
        covered |= np.array([pair_dist(space, p, q) for q in range(space.n_points)]) < r_new
    return np.array(centers, dtype=int), np.array(radii)


def assert_cover_is(cover, expected):
    for got, want in zip((cover.centers, cover.radii), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


_COORDS = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]),  # duplicate points and distance ties
    st.floats(-1.0, 1.0, allow_nan=False),
)


@st.composite
def finite_spaces(draw):
    """A finite space of 1 to 24 samples: a coordinate cloud of dim 1-3 or a
    JSON metric on a line, with duplicate points and distance ties."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        pts = draw(hnp.arrays(float, (n, dim), elements=_COORDS))
        return SampledSpace(coords=pts, dmat=None, h_idx=np.array([0]), mode="finite")
    return json_line_space(draw(hnp.arrays(float, n, elements=_COORDS)), h=[0])


def radius_scales(space):
    """Radii from 0 and the resolution to above the diameter."""
    diam = float(space.dense_matrix().max())
    return [0.0, space.resolution() if diam > 0 else 1.0, diam / 3, diam, 2 * diam + 1.0]


def row_lists(draw, n):
    """Row lists of n samples: every sample in order, a permutation, with
    repeats, a subset, or none."""
    kind = draw(st.sampled_from(["all", "permuted", "repeats", "subset", "empty"]))
    if kind == "all":
        return np.arange(n)
    if kind == "permuted":
        return np.array(draw(st.permutations(range(n))), dtype=int)
    if kind == "repeats":
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    if kind == "subset":
        return np.array(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1)), dtype=int)
    return np.array([], dtype=int)


@st.composite
def refinement_cases(draw):
    """(space, raw) for ``build_refinement``: a coordinate cloud or a JSON
    metric, and the raw cover of rule radii from zero and below the
    resolution to above the diameter, or with rule/2 exactly a distance."""
    space = draw(finite_spaces())
    n = space.n_points
    dense = space.dense_matrix()
    diam = float(dense.max())
    scale = draw(st.sampled_from([
        space.resolution() / 4 if diam > 0 else 1.0,  # all singletons
        diam / 3,
        4 * diam + 1.0,  # one ball holds everything
    ]))
    rule = scale * draw(hnp.arrays(float, n, elements=st.floats(0.5, 1.5)))
    if draw(st.booleans()):  # rule/2 exactly a distance: a point on the sphere
        rule = 2.0 * dense[np.arange(n), draw(hnp.arrays(int, n, elements=st.integers(0, n - 1)))]
    rule[draw(hnp.arrays(bool, n))] = 0.0
    return space, raw_cover(rule)


class TestRefinementKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pair_dist_matches_distance_rows(self, dim):
        sp = cloud_space(40, dim, seed=dim)
        for i in range(sp.n_points):
            row = np.array([pair_dist(sp, i, j) for j in range(sp.n_points)])
            assert np.array_equal(row, sp.dists_from(i))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_scalar_pair_loop_on_coordinates(self, dim):
        sp = cloud_space(80, dim, seed=10 + dim)
        n = sp.n_points
        raw = raw_cover(np.random.default_rng(dim).uniform(0.2, 0.8, size=n))
        ref = build_refinement(sp, raw)
        assert ref.n_balls > 1
        assert_cover_is(ref, refine_by_pairs(sp, raw))

    def test_matches_scalar_pair_loop_on_mollify_covers(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            hspace = run.bundle.hspace
            assert len(run.mollify_raw) == len(run.mollify_pou) == len(run.items)
            for raw, pou in zip(run.mollify_raw, run.mollify_pou):
                assert_cover_is(pou, refine_by_pairs(hspace, raw))

    def test_matches_scalar_pair_loop_on_selection_covers(self, s2_run, s3_run):
        for run in (s2_run, s3_run):
            hspace, bundle = run.bundle.hspace, run.bundle
            levels = run.levels
            assert len(levels) == len(run.items)
            D = hspace.dense_matrix()
            fdiff = norm(bundle.f_values[:, None, :] - bundle.f_values[None, :, :], bundle.norm_tag)
            for lev in levels:
                raw = raw_cover(pipeline._preimage_radii(D, fdiff, lev.k))
                assert_cover_is(lev.cover, refine_by_pairs(hspace, raw))

    @settings(max_examples=300, deadline=None)
    @given(refinement_cases())
    def test_matches_scalar_pair_loop_on_any_cover(self, case):
        space, raw = case
        assert_cover_is(build_refinement(space, raw), refine_by_pairs(space, raw))


@st.composite
def threshold_cases(draw):
    """(space, rows, t) for ``_near_pairs``: any list of rows, and per row a
    threshold of 0, about the resolution, above the diameter, or exactly
    the distance to some sample."""
    space = draw(finite_spaces())
    n = space.n_points
    rows = row_lists(draw, n)
    scales = radius_scales(space)
    t = [
        space.dense_matrix()[r, draw(st.integers(0, n - 1))] if draw(st.booleans())
        else draw(st.sampled_from(scales)) * draw(st.sampled_from([0.5, 1.0, 1.5]))
        for r in rows.tolist()
    ]
    return space, rows, np.array(t, dtype=float)


class TestNearPairs:
    """``_near_pairs`` against the dense compare of the full rows."""

    @staticmethod
    def assert_pairs_are(space, rows, t, r, s):
        """(r, s) holds each hit of the dense compare d(rows[r], s) < t[r]
        once."""
        want = np.flatnonzero(space.dense_matrix()[rows] < t[:, None])
        assert np.array_equal(np.sort(r * space.n_points + s), want)

    @settings(max_examples=300, deadline=None)
    @given(threshold_cases(), WINDOWS)
    def test_hits_match_the_dense_compare(self, case, windows):
        space, rows, t = case
        with scan_windows(*windows):
            r, s = _near_pairs(space, rows, t)
        self.assert_pairs_are(space, rows, t, r, s)

    def test_module_setting_on_400_samples(self):
        """Thresholds that the window settles, that send every row to the
        full compare, and a mix of both."""
        sp = cloud_space(400, 2, seed=4)
        rows = np.arange(400)
        assert sp.n_points > space_mod._PROBE_MIN
        for t in (np.full(400, sp.resolution()), np.full(400, 10.0),
                  np.where(rows % 2 == 0, 0.05, 0.5)):
            self.assert_pairs_are(sp, rows, t, *_near_pairs(sp, rows, t))


# ---------------------------------------------------------------------------
# restrict and the dense-matrix memo
# ---------------------------------------------------------------------------

class TestRestrictKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coordinate_space_block(self, dim):
        sp = cloud_space(60, dim, seed=20 + dim)
        idx = np.array([0, 3, 4, 17, 31, 59, 42])
        sub = sp.restrict(idx)
        assert np.array_equal(sub.dmat, sp.dense_matrix()[np.ix_(idx, idx)])
        assert np.array_equal(sub.coords, sp.coords[idx])
        assert np.array_equal(sub.h_idx, np.arange(len(idx)))

    def test_dmat_space_block(self):
        sp = json_line_space([0.0, 0.25, 0.5, 1.0, 1.75, 3.0], h=[0, 2])
        idx = np.array([1, 3, 4, 5])
        sub = sp.restrict(idx)
        assert sub.coords is None
        assert np.array_equal(sub.dmat, sp.dense_matrix()[np.ix_(idx, idx)])
        assert np.array_equal(sp.h_space().dmat, sp.dmat[np.ix_([0, 2], [0, 2])])

    def test_neighbour_order_is_built_once_and_reused(self, monkeypatch):
        """One stable argsort per space, read-only, reused by the depth and
        weight kernels; a restriction builds its own."""
        sp = cloud_space(30, 2, seed=5)
        builds = []
        argsort = np.argsort

        def counted(a, *args, **kwargs):
            if a is sp.dense_matrix():
                builds.append(1)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(space_mod.np, "argsort", counted)
        first = sp.neighbour_order()
        refined = build_refinement(sp, raw_cover(np.full(30, 0.3)))
        partition_of_unity(sp, refined)
        ball_depth(sp, refined.centers, refined.radii)
        assert sp.neighbour_order() is first and len(builds) == 1
        assert not first.flags.writeable
        assert np.array_equal(first, argsort(sp.dense_matrix(), axis=1, kind="stable"))
        sub = sp.restrict(np.arange(10))
        assert sub.neighbour_order() is not first and sub.neighbour_order().shape == (10, 10)

    def test_dense_matrix_is_built_once_and_read_only(self):
        sp = cloud_space(30, 2, seed=5)
        first = sp.dense_matrix()
        assert sp.dense_matrix() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 1] = 1.0
        c = sp.coords
        assert np.array_equal(first, np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2))


# ---------------------------------------------------------------------------
# query-to-H distances and the nearest-H kernel
# ---------------------------------------------------------------------------

def stacked_h_rows(space, query_idx):
    return np.stack([space.dists_from(int(x))[space.h_idx] for x in query_idx])


def nearest_by_rows(rows):
    """dist(x, H) and the argmin, lowest index on a tie, of distance rows."""
    return rows.min(axis=1), rows.argmin(axis=1)


def assert_nearest_matches(space, x, rows):
    dist_h, u_y = space.nearest_h(x)
    ref_d, ref_u = nearest_by_rows(rows)
    assert u_y.dtype == ref_u.dtype
    assert np.array_equal(dist_h, ref_d)
    assert np.array_equal(u_y, ref_u)


class TestNearestH:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_samples_match_the_per_sample_formula(self, dim):
        sp = cloud_space(3 * _ROW_BLOCK + 40, dim, seed=40 + dim)
        x = np.arange(sp.n_points)[::-1]
        assert len(x) > 2 * _ROW_BLOCK
        assert_nearest_matches(sp, x, stacked_h_rows(sp, x))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_free_points_match_the_per_point_formula(self, dim):
        sp = cloud_space(90, dim, seed=50 + dim)
        pts = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(_ROW_BLOCK + 7, dim))
        rows = np.stack([np.linalg.norm(sp.coords[sp.h_idx] - p, axis=1) for p in pts])
        assert_nearest_matches(sp, pts, rows)

    def test_dmat_space_matches_the_per_sample_formula(self):
        xs = np.random.default_rng(3).uniform(0.0, 4.0, size=_ROW_BLOCK + 30)
        sp = json_line_space(xs, h=range(0, len(xs), 5))
        x = np.arange(sp.n_points)
        assert_nearest_matches(sp, x, stacked_h_rows(sp, x))

    def test_exact_tie_takes_the_lowest_index(self):
        # H samples 0 and 2 sit at distance 1 from sample 1
        sp = SampledSpace(
            coords=np.array([[-1.0], [0.0], [1.0]]), dmat=None, h_idx=np.array([0, 2]),
            mode="finite",
        )
        dist_h, u_y = sp.nearest_h(np.array([1, 1]))
        assert dist_h.tolist() == [1.0, 1.0] and u_y.tolist() == [0, 0]
        # duplicated H coordinates tie at every row, past the first block too
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2 * _ROW_BLOCK, 2))
        pts[1] = pts[0]
        twin = SampledSpace(coords=pts, dmat=None, h_idx=np.array([0, 1]), mode="finite")
        x = np.arange(2, len(pts))
        assert np.all(twin.nearest_h(x)[1] == 0)
        assert_nearest_matches(twin, x, stacked_h_rows(twin, x))

    def test_empty_input_and_points_on_a_metric_matrix(self):
        sp = json_line_space([0.0, 1.0, 2.5], h=[1])
        dist_h, u_y = sp.nearest_h(np.array([], dtype=int))
        assert dist_h.shape == u_y.shape == (0,)
        with pytest.raises(SpaceConfigError, match="Euclidean"):
            sp.nearest_h(np.zeros((2, 1)))


class TestQueryToH:
    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_cross_dists_match_distance_rows(self, dim):
        sp = cloud_space(50, dim, seed=30 + dim)
        rows = np.array([49, 3, 17, 3])
        assert np.array_equal(sp.cross_dists(rows, sp.h_idx), stacked_h_rows(sp, rows))

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([4, 0, 5, 2], [3, 1, 0]),  # unsorted
            ([2, 2, 5, 2], [1, 1, 4]),  # repeated
            ([], [0, 3]),
            ([1, 4], []),
            ([], []),
            (np.arange(6), np.arange(6)),
        ],
    )
    def test_cross_dists_on_a_metric_matrix(self, rows, cols):
        sp = json_line_space([0.0, 0.25, 0.5, 1.0, 1.75, 3.0], h=[0, 2])
        got = sp.cross_dists(rows, cols)
        assert np.array_equal(got, sp.dmat[np.ix_(rows, cols)])
        assert got.shape == (len(rows), len(cols))
        got[...] = -1.0  # a fresh block: callers may write into it
        assert sp.dmat.min() == 0.0

    def test_build_extension_rows(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            f = run.field
            rows = stacked_h_rows(f.space, f.query_idx)
            dist_h, u_y = nearest_by_rows(rows)
            assert np.array_equal(f.dist_h, dist_h)
            assert np.array_equal(f.u_y, u_y)
            assert np.array_equal(f.u_x, f.space.h_idx[u_y])
            for a in (0, run.data.primary_anchor_y, len(f.space.h_idx) - 1):
                assert np.array_equal(f.anchor_dists(a), rows[:, a])

    def test_build_extension_holds_no_query_by_h_table(self, s1_run):
        """Peak traced memory of building S1's field stays below one
        (queries x H) float64 table."""
        f = s1_run.field
        table_bytes = f.n_queries * len(f.space.h_idx) * 8
        tracemalloc.start()
        try:
            build_extension(f.space, f.items, f.f_h, f.query_idx, f.norm_tag)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table_bytes > 2_000_000
        assert peak < table_bytes

    def test_sequence_length_matches_per_query_scan(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            space, q = run.data.space, run.data.query_idx
            worst = 1
            for x in q:
                d = float(space.dists_from(int(x))[space.h_idx].min())
                worst = max(worst, select_ceiling(d / 2.0))
            assert _sequence_length(space.nearest_h(q)[0]) == worst == run.data.n_seq


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def smooth_by_table(field, dqc):
    """The smoothing loop over the rows of a (queries x centers) table, or
    over the rows ``center_rows`` computes one query at a time."""
    radii = field.center_dist_h / 3.0
    contributors = []
    g_smooth = np.zeros_like(field.g)
    for q, row in enumerate(dqc):
        w = radii - row
        idx = np.flatnonzero(w > 0)
        if idx.size == 0:
            raise CoverageError(
                f"query {int(field.query_idx[q])} is covered by no smoothing ball"
            )
        wv = w[idx]
        contributors.append(idx)
        g_smooth[q] = (wv / wv.sum()) @ field.center_g[idx]
    return contributors, g_smooth


def coordinate_dqc(field, block=256):
    """The stacked nq x nc x dim formula, evaluated on blocks of queries so
    the reference itself stays small."""
    qpos = field.space.coords[field.query_idx]
    cpos = field.center_pos
    return np.concatenate(
        [
            np.linalg.norm(qpos[a : a + block, None, :] - cpos[None, :, :], axis=2)
            for a in range(0, len(qpos), block)
        ]
    )


def center_rows(field):
    """The smoothing loop's distances before the contributor search: one
    query's row of distances to every center at a time (``np.linalg.norm``
    over the coordinate differences, or the metric row)."""
    space = field.space
    for x in field.query_idx.tolist():
        if space.coords is not None:
            yield np.linalg.norm(field.center_pos - space.coords[x], axis=1)
        else:
            yield space.dists_from(x)[field.center_pos]


def assert_same_smoothing(field, dqc):
    contributors, g_smooth = smooth_by_table(field, dqc)
    assert np.array_equal(field.g_smooth, g_smooth)
    got = field.contributors  # one read: every read rebuilds the list
    assert len(got) == len(contributors) == field.n_queries
    for a, b in zip(got, contributors):
        assert np.array_equal(a, b)


# dyadic points, scaled so that every query gets a selection index n(x) >= 1
# and some smoothing balls hold more than their own center
DYADIC_XS = [
    x * 2.0**-7 for x in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.0625, 1.125, 1.5, 2.0, 2.25, 3.0)
]
DYADIC_H = [0, 3, 9]


def constant_lip_items(count, nY, lip=1.0):
    """Items with distinct values per H sample and a constant Lipschitz bound."""
    base = np.arange(1.0, nY + 1.0)[:, None]
    return [
        FunSeqItem(
            n=n, values=base / (n + 1.0), sup_bound=float(nY),
            lip_bound=lambda cs, rho: np.full(len(cs), lip),
        )
        for n in range(1, count + 1)
    ]


def ceiling_product(n):
    """n (n (n+2) + 2): the selection test's factor at K = 1."""
    return n * (n * (n + 2) + 2)


# distances at which a ceiling product times the distance is exactly 1.0,
# where the strict test ``< 1.0`` flips
AT_ONE = [1.0 / ceiling_product(n) for n in range(1, 400)]
AT_ONE = [d for n, d in enumerate(AT_ONE, start=1) if ceiling_product(n) * d == 1.0]


@st.composite
def ceiling_cases(draw):
    """(dist_h, n_items) for ``extension._ceilings``: distances whose
    product is exactly 1.0 and their float neighbours, any distance down to
    1e-8, and now and then a non-positive or NaN distance or too few items."""
    at_one = st.sampled_from(AT_ONE)
    dist = st.one_of(
        at_one,
        at_one.map(lambda d: float(np.nextafter(d, 0.0))),
        at_one.map(lambda d: float(np.nextafter(d, 1.0))),
        st.floats(1e-8, 2.0),
    )
    if draw(st.integers(0, 9)) == 0:
        dist = st.one_of(dist, st.sampled_from([0.0, -0.0, -1e-3, float("nan")]))
    dists = draw(st.lists(dist, max_size=40))
    n_items = draw(st.integers(0, 520))
    return np.array(dists, dtype=float), n_items


class TestSelectionCeilings:
    """``extension._ceilings`` against ``select_ceiling`` point by point."""

    def test_products_hit_one_exactly(self):
        assert len(AT_ONE) > 100
        assert [select_ceiling(d) for d in AT_ONE[:3]] == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(ceiling_cases())
    def test_matches_select_ceiling_per_point(self, case):
        dist_h, n_items = case
        want, error = [], None
        for d in dist_h.tolist():
            if not d > 0:
                error = "selection needs dist(x, H) > 0"
                break
            want.append(select_ceiling(d))
            if want[-1] > n_items:
                error = (
                    f"selection ceiling {want[-1]} exceeds the {n_items} built items; "
                    "increase the sequence length"
                )
                break
        if error is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                extension._ceilings(dist_h, n_items)
        else:
            got = extension._ceilings(dist_h, n_items)
            assert got.dtype == int and got.tolist() == want


class TestSmoothingKernel:
    def test_coordinate_branch_matches_stacked_table(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            assert_same_smoothing(run.field, coordinate_dqc(run.field))

    def test_dmat_branch_matches_stacked_table(self):
        xs, h = DYADIC_XS, DYADIC_H
        sp = json_line_space(xs, h)
        q = np.array([i for i in range(len(xs)) if i not in h])
        items = constant_lip_items(12, len(h))
        f_h = items[-1].values
        field = smooth_extension(build_extension(sp, items, f_h, q))
        dqc = np.stack([sp.dists_from(int(x))[q] for x in q])
        assert_same_smoothing(field, dqc)
        assert np.array_equal(field.center_pos, q)
        assert np.all(field.n_of_x >= 1)
        assert max(len(c) for c in field.contributors) > 1

    def test_dmat_branch_matches_coordinate_twin(self):
        """The same 1-D space as a JSON metric and as coordinates gives the
        same field: |x - y| is exact both ways on these dyadic points."""
        xs, h = DYADIC_XS, DYADIC_H
        q = np.array([i for i in range(len(xs)) if i not in h])
        items = constant_lip_items(12, len(h))
        f_h = items[-1].values
        sp_d = json_line_space(xs, h)
        sp_c = SampledSpace(
            coords=np.asarray(xs)[:, None], dmat=None, h_idx=np.array(h), mode="finite"
        )
        fd = smooth_extension(build_extension(sp_d, items, f_h, q))
        fc = smooth_extension(without_midpoints(build_extension(sp_c, items, f_h, q)))
        for name in ("dist_h", "u_x", "n_of_x", "g", "g_smooth"):
            assert np.array_equal(getattr(fd, name), getattr(fc, name)), name

    def test_field_keeps_only_g_smooth(self, s1_run):
        """Smoothing S1@201 leaves the field holding g_smooth and a small
        constant besides (the new field object, about 1 KiB), nothing per
        contributor: its 85,992 contributors as int32 indices alone would
        take 344 KB."""
        f = s1_run.field
        field = build_extension(f.space, f.items, f.f_h, f.query_idx, f.norm_tag)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            smoothed = smooth_extension(field)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        hits = sum(len(ix) for ix in smoothed.contributors)
        assert (smoothed.n_queries, hits) == (1688, 85_992)
        assert held <= smoothed.g_smooth.nbytes + 4096

    def test_no_dense_query_center_temporary(self):
        """Peak traced memory of smoothing S3 at grid 1601 stays below the
        nq x nc float64 table the dense formula needed.  What it frees again
        stays within a few pair blocks plus the per-query and per-center
        search arrays: every candidate pair at once (about 640k here) would
        take some 30 MB."""
        cfg = ScenarioConfig(grid=1601)
        data = get_scenario("S3").build(cfg)
        items = baire_approximate(data.bundle)
        field = build_extension(
            data.space, items, data.bundle.f_values, data.query_idx, data.bundle.norm_tag
        )
        tracemalloc.start()
        try:
            smoothed = smooth_extension(field)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nq, nc = field.n_queries, len(smoothed.center_pos)
        dense_bytes = nq * nc * 8
        assert dense_bytes > 20_000_000
        assert peak < dense_bytes
        assert peak - held < 8 * (32 * _PAIR_BLOCK + 16 * (nq + nc))


def run_field(name, grid):
    data = get_scenario(name).build(ScenarioConfig(grid=grid))
    items = baire_approximate(data.bundle)
    return build_extension(
        data.space, items, data.bundle.f_values, data.query_idx, data.bundle.norm_tag
    )


def without_midpoints(field):
    """``field`` with its queries as the only smoothing centers, the centers
    ``build_extension`` takes on a metric matrix."""
    nq = field.n_queries
    return replace(
        field,
        center_pos=field.center_pos[:nq],
        center_g=field.center_g[:nq],
        center_dist_h=field.center_dist_h[:nq],
    )


def cloud_field(pts, h_mask, midpoints=True):
    """Smoothed field of a coordinate cloud, queries = every sample off H;
    without ``midpoints`` the queries are the only smoothing centers."""
    sp = SampledSpace(coords=pts, dmat=None, h_idx=np.flatnonzero(h_mask), mode="sampled", delta=1.0)
    q = np.flatnonzero(~h_mask)
    items = constant_lip_items(_sequence_length(sp.nearest_h(q)[0]), len(sp.h_idx))
    field = build_extension(sp, items, items[-1].values, q)
    return smooth_extension(field if midpoints else without_midpoints(field))


def lattice_cloud(dim, seed):
    """Points of the lattice (Z/4)^dim in a box, H = the points with x0 = 0.
    Every point's nearest H sample is its projection, so dist(x,H) is a
    multiple of 1/4, and a center at x0 = 3/4 has radius 1/4: axis neighbours
    sit exactly on its sphere, where the open-ball weight is 0."""
    rng = np.random.default_rng(seed)
    axes = [np.arange(0, 7)] + [np.arange(-3, 4)] * (dim - 1)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    on_h = grid[:, 0] == 0
    keep = on_h | np.isin(grid[:, 0], (3, 4)) | (rng.random(len(grid)) < 0.6)
    pts = grid[keep] / 4.0
    return pts, on_h[keep]


def exact_sphere_pairs(field):
    """(query, center) pairs with d(x_q, c) == dist(c,H)/3 exactly."""
    radii = field.center_dist_h / 3.0
    space = field.space
    count = 0
    for q in range(field.n_queries):
        d = np.linalg.norm(field.center_pos - space.coords[field.query_idx[q]], axis=1)
        count += int(np.count_nonzero(d == radii))
    return count


class TestSmoothingSearch:
    """The contributor search against the per-query loop over every center."""

    def test_scenario_fields(self):
        """S1 at grid 201 is checked against the stacked table above."""
        for name, grid in (("S1", 41), ("S3", 401)):
            field = smooth_extension(run_field(name, grid))
            assert_same_smoothing(field, center_rows(field))

    @staticmethod
    def metric_line():
        """(space, queries, items) of 61 points on a line as a JSON metric,
        4 of them in H."""
        rng = np.random.default_rng(7)
        xs = np.sort(rng.choice(np.arange(1, 400), size=60, replace=False)) / 64.0
        xs = np.concatenate([[0.0], xs])
        h = [0, 5, 17, 40]
        sp = json_line_space(xs, h)
        q = np.array([i for i in range(len(xs)) if i not in h])
        return sp, q, constant_lip_items(_sequence_length(sp.nearest_h(q)[0]), len(h))

    @pytest.mark.parametrize("case", ["S1", "S3", "metric"])
    def test_blocks_yield_the_table_contributors(self, case):
        """``_smooth_blocks`` covers the queries in consecutive blocks and
        yields each query's contributors in ascending order, the centers the
        loop over every center finds, with its weights bit for bit."""
        if case == "metric":
            sp, q, items = self.metric_line()
            field = build_extension(sp, items, items[-1].values, q)
        else:
            field = run_field(case, {"S1": 41, "S3": 401}[case])
        radii = field.center_dist_h / 3.0
        rows = list(center_rows(field))
        want = smooth_by_table(field, rows)[0]
        start = 0
        for a, b, bounds, c, w in extension._smooth_blocks(field):
            assert a == start < b and len(bounds) == b - a + 1
            assert bounds[0] == 0 and bounds[-1] == len(c) == len(w)
            for q, s, t in zip(range(a, b), bounds[:-1], bounds[1:]):
                assert np.all(np.diff(c[s:t]) > 0)
                assert np.array_equal(c[s:t], want[q])
                assert np.array_equal(w[s:t], radii[want[q]] - rows[q][want[q]])
            start = b
        assert start == field.n_queries

    def test_metric_matrix_field(self):
        sp, q, items = self.metric_line()
        field = smooth_extension(build_extension(sp, items, items[-1].values, q))
        assert field.space.coords is None
        assert max(len(c) for c in field.contributors) > 3
        assert_same_smoothing(field, center_rows(field))

    @pytest.mark.parametrize("case", ["S1", "S3", "metric"])
    def test_shuffled_queries(self, case):
        """Queries in shuffled order, so the center index order (queries,
        then their midpoints) disagrees with the search order among the
        queries and among the midpoints: each query's contributors still come
        in ascending center order, and g_smooth has the loop's bits."""
        rng = np.random.default_rng(19)
        if case == "metric":
            sp, q, items = self.metric_line()
            f_h, tag = items[-1].values, "linf"
        else:
            data = get_scenario(case).build(ScenarioConfig(grid={"S1": 41, "S3": 401}[case]))
            sp, q, items = data.space, data.query_idx, baire_approximate(data.bundle)
            f_h, tag = data.bundle.f_values, data.bundle.norm_tag
        field = smooth_extension(build_extension(sp, items, f_h, rng.permutation(q), tag))
        q_pos = field.query_idx if sp.coords is None else sp.coords[field.query_idx]
        order = extension._search_ranges(field, q_pos, field.center_pos, field.center_dist_h)[0]
        nq = field.n_queries
        assert np.any(np.diff(order[order < nq]) < 0)
        if sp.coords is not None:
            assert np.any(np.diff(order[order >= nq]) < 0)
        assert_same_smoothing(field, center_rows(field))

    def test_keys_past_int32(self):
        """A line of k = 46,400 queries at 2i + 1/2 with H at the even
        integers, the queries its only centers, puts the last queries' keys
        q nc + c past 2^31.  Each query's ball of radius 1/6 holds itself
        alone, and the pair search reads none of the K data."""
        k = 46_400
        xs = np.arange(2 * k) + np.tile([0.0, -0.5], k)
        sp = SampledSpace(
            coords=xs[:, None], dmat=None, h_idx=np.arange(0, 2 * k, 2), mode="sampled", delta=1.0
        )
        q, half = np.arange(1, 2 * k, 2), np.full(k, 0.5)
        g = np.random.default_rng(k).uniform(-1.0, 1.0, (k, 1))
        field = extension.ExtensionField(
            space=sp, items=[], f_h=np.zeros((k, 1)), norm_tag="linf", query_idx=q,
            dist_h=half, u_x=q - 1, u_y=np.arange(k), n_of_x=np.ones(k, dtype=int), g=g,
            k_evals=0, k_inf=0, center_pos=sp.coords[q], center_g=g, center_dist_h=half,
        )
        assert (k - 1) * k >= 2**31
        field = smooth_extension(field)
        assert np.array_equal(np.concatenate(field.contributors), np.arange(k))
        assert np.array_equal(field.g_smooth, g)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lattice_clouds_with_centers_on_the_sphere(self, dim):
        pts, on_h = lattice_cloud(dim, seed=dim)
        for mids in (True, False):
            field = cloud_field(pts, on_h, midpoints=mids)
            assert exact_sphere_pairs(field) > 0
            assert_same_smoothing(field, center_rows(field))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_clouds(self, dim):
        rng = np.random.default_rng(10 + dim)
        pts = rng.uniform(-1.0, 1.0, size=(700, dim))
        on_h = rng.random(700) < 0.1
        field = cloud_field(pts, on_h)
        assert_same_smoothing(field, center_rows(field))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_no_queries(self, dim):
        pts, on_h = lattice_cloud(dim, seed=0)
        sp = SampledSpace(coords=pts, dmat=None, h_idx=np.flatnonzero(on_h), mode="sampled", delta=1.0)
        items = constant_lip_items(3, len(sp.h_idx))
        field = smooth_extension(build_extension(sp, items, items[-1].values, np.array([], dtype=int)))
        assert field.contributors == []
        assert field.g_smooth.shape == (0, 1)

    @pytest.mark.parametrize("coords", [True, False])
    def test_uncovered_query_message(self, coords):
        """A query whose own ball is empty (dist(x,H) forced to 0) and that
        no other ball reaches gives the same CoverageError as the loop."""
        xs, h = DYADIC_XS, DYADIC_H
        q = np.array([i for i in range(len(xs)) if i not in h])
        items = constant_lip_items(12, len(h))
        if coords:
            sp = SampledSpace(
                coords=np.asarray(xs)[:, None], dmat=None, h_idx=np.array(h), mode="finite"
            )
        else:
            sp = json_line_space(xs, h)
        field = without_midpoints(build_extension(sp, items, items[-1].values, q))
        assert np.array_equal(field.center_pos, sp.coords[q] if coords else q)
        assert np.array_equal(field.center_g, field.g)
        dist_h = field.dist_h.copy()
        dist_h[-1] = 0.0
        broken = replace(field, dist_h=dist_h, center_dist_h=dist_h)
        with pytest.raises(CoverageError) as ref:
            smooth_by_table(broken, center_rows(broken))
        with pytest.raises(CoverageError) as got:
            smooth_extension(broken)
        assert str(got.value) == str(ref.value) == f"query {int(q[-1])} is covered by no smoothing ball"

    @staticmethod
    def counted_pairs(field, monkeypatch):
        """(candidate pairs whose distance was evaluated, contributors, the
        largest pair block) of smoothing ``field``."""
        calls = []
        pair_dists = extension._pair_dists

        def counting(space, q_pos, c_pos):
            calls.append(len(q_pos))
            return pair_dists(space, q_pos, c_pos)

        contributors = sum(len(c) for c in field.contributors)
        monkeypatch.setattr(extension, "_pair_dists", counting)
        smooth_extension(field)
        return sum(calls), contributors, max(calls)

    def test_distance_count_on_s1_201(self, s1_run, monkeypatch):
        """Every center of the field is 5.70M (query, center) distances; the
        box of half-width dist(x,H)/2 cut to the runs the ball extents allow
        holds 179k pairs, for 86k contributors."""
        field = s1_run.field
        assert s1_run.cfg.seed == 0
        assert field.n_queries * len(field.center_pos) > 5_000_000
        pairs, contributors, block = self.counted_pairs(field, monkeypatch)
        assert contributors <= pairs <= 200_000
        assert block <= _PAIR_BLOCK

    def test_distance_count_on_s3_201(self, s3_run, monkeypatch):
        """On a line the ball extents leave few candidates that are not
        contributors: 5,508 pairs for 5,355 contributors (the box alone
        gave 9,072)."""
        pairs, contributors, _ = self.counted_pairs(s3_run.field, monkeypatch)
        assert contributors <= pairs <= 1.05 * contributors

    @pytest.mark.parametrize("pts", [
        [[2.4562799292038146e-253] * 2, [0.0, 1.0]],  # centers 1.2e-253 apart in x
        [[1.0, 0.0], [2.2250738585072014e-309, 0.0], [0.0, 0.0]],  # a subnormal x extent
    ])
    def test_extreme_column_scales_stay_finite(self, pts):
        """A tiny x extent of the centers makes the column scale huge, and a
        subnormal one would overflow it: the scale falls back to one column,
        and the query box edges are clipped to the columns before the int64
        cast, so no float overflows or is cast out of range (numpy warns on
        either)."""
        pts = np.array(pts)
        for mids in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                field = cloud_field(pts, np.arange(len(pts)) < 1, midpoints=mids)
            assert_same_smoothing(field, center_rows(field))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_layouts_match_the_table(self, data):
        """Coordinate clouds on a line or in the plane whose coordinates
        repeat or nearly repeat (a few ulps or 1e-12 apart), so centers tie
        or nearly tie in the search coordinate and in their ball extents;
        with few samples some columns hold one center."""
        dim = data.draw(st.integers(1, 2), label="dim")
        base = data.draw(
            st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=6), label="base"
        )
        nudge = st.sampled_from([0.0, 1e-12, -1e-12, 4e-16, -4e-16])
        value = st.builds(lambda b, e: b + e, st.sampled_from(base), nudge)
        coord = st.one_of(value, st.floats(-1.0, 1.0, allow_nan=False))
        n_h = data.draw(st.integers(1, 3), label="n_h")
        n_q = data.draw(st.integers(1, 30), label="n_q")
        h_pts = data.draw(hnp.arrays(float, (n_h, dim), elements=coord), label="h")
        q_pts = data.draw(hnp.arrays(float, (n_q, dim), elements=coord), label="q")
        # queries at least 1e-3 from H keep the selection ceiling small
        d = np.linalg.norm(q_pts[:, None, :] - h_pts[None, :, :], axis=2).min(axis=1)
        q_pts = q_pts[d >= 1e-3]
        pts = np.concatenate([h_pts, q_pts])
        on_h = np.arange(len(pts)) < n_h
        for mids in (True, False):
            field = cloud_field(pts, on_h, midpoints=mids)
            assert_same_smoothing(field, center_rows(field))


# ---------------------------------------------------------------------------
# streamed inequality diagnostics
# ---------------------------------------------------------------------------

def diagnostics_by_tables(field):
    """The three inequality diagnostics over whole (queries x H) and
    (centers x H) distance tables, in the form they took before streaming."""
    space = field.space
    qh = stacked_h_rows(space, field.query_idx)
    d_au = space.h_space().dense_matrix()[field.u_y]
    slacks = {
        "dist_le_d": float((qh - field.dist_h[:, None]).min()),
        "dau_le_3dax": float((3.0 * qh - d_au).min()),
    }
    bad = 0
    for q in range(field.n_queries):
        n = int(field.n_of_x[q])
        if n == 0:
            continue
        k = local_lip_K(field.items, n, int(field.u_y[q]), float(field.dist_h[q]))
        if np.isinf(k):
            continue
        hot = field.dist_h[q] / qh[q] > 1.0 / (n * m_bound(n))
        bad += int(np.count_nonzero(hot & ~(d_au[q] < 1.0 / (n * k))))
    center_qh = qh
    if space.coords is not None:
        # the query centers come first, then the midpoint centers
        mids = field.center_pos[field.n_queries:]
        hpts = space.coords[space.h_idx]
        mqh = np.linalg.norm(mids[:, None, :] - hpts[None, :, :], axis=2)
        center_qh = np.concatenate([qh, mqh])
    ratio_q = field.dist_h[:, None] / qh
    ratio_c = field.center_dist_h[:, None] / center_qh
    lo, hi = np.inf, -np.inf
    for q, cs in enumerate(smooth_by_table(field, center_rows(field))[0]):
        rr = ratio_c[cs] / ratio_q[q][None, :]
        lo = min(lo, float(rr.min()))
        hi = max(hi, float(rr.max()))
    return slacks, bad, (lo, hi)


class TestStreamedDiagnostics:
    def dyadic_field(self):
        xs, h = DYADIC_XS, DYADIC_H
        q = np.array([i for i in range(len(xs)) if i not in h])
        items = constant_lip_items(12, len(h))
        return smooth_extension(build_extension(json_line_space(xs, h), items, items[-1].values, q))

    def test_match_the_whole_table_formulas(self, s1_run, s3_run):
        assert s1_run.field.n_queries > 2 * _ROW_BLOCK
        for field in (s1_run.field, s3_run.field, self.dyadic_field()):
            slacks, bad, ratios = diagnostics_by_tables(field)
            assert general_inequality_slacks(field) == slacks
            assert branch_condition_violations(field) == bad
            assert factor4_ratio_range(field) == ratios


# ---------------------------------------------------------------------------
# vectorised P_{r(y)}
# ---------------------------------------------------------------------------

class TestRadialProjectRows:
    @pytest.mark.parametrize("tag", ["linf", "l2"])
    def test_matches_per_row_calls(self, tag):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=4.0, size=(200, 2))
        z[:5] = 0.0
        r = rng.uniform(1.0, 6.0, size=200)
        r[10:20] = np.inf
        rows = np.stack([radial_project(z[y], float(r[y]), tag) for y in range(200)])
        assert np.array_equal(radial_project(z, r, tag), rows)

    def test_rejects_any_radius_below_one(self):
        with pytest.raises(ValueError, match="r >= 1"):
            radial_project(np.ones((3, 2)), np.array([2.0, 0.5, 3.0]))
        with pytest.raises(ValueError, match="r >= 1"):
            radial_project(np.ones((2, 2)), np.array([2.0, np.nan]))

    @pytest.mark.parametrize("tag", ["linf", "l2"])
    def test_local_bound_matches_per_row_projection(self, s3_run, tag):
        bundle = s3_run.bundle
        rad = local_bound_radius(bundle)
        nY = bundle.hspace.n_points
        vals = np.random.default_rng(3).normal(scale=20.0, size=(nY, 1))
        item = FunSeqItem(
            n=1, values=vals, sup_bound=float(np.abs(vals).max()),
            lip_bound=lambda cs, rho: np.zeros(len(cs)), norm_tag=tag,
        )
        out, _ = enforce_local_uniform_boundedness([item], bundle, rad)
        rows = vals.copy()
        for y in np.flatnonzero(np.isfinite(rad.r)):
            rows[y] = radial_project(vals[y], float(rad.r[y]), tag)
        assert not np.array_equal(rows, vals)
        assert np.array_equal(out[0].values, rows)


# ---------------------------------------------------------------------------
# ball depth and partition-of-unity weights
# ---------------------------------------------------------------------------

def depth_by_mode(space, c, r):
    """The finite-mode depth loop of the selection transform and the
    sampled-mode weight of the partition of unity, per ball."""
    d = space.dists_from(int(c))
    inside = d < r
    if space.mode == "finite":
        outside = ~inside
        depth = np.full(space.n_points, np.inf)
        if outside.any():
            depth = space.dense_matrix()[:, outside].min(axis=1)
        return inside, depth
    depth = np.zeros(space.n_points)
    depth[inside] = r - d[inside]
    return inside, depth


def depth_by_ball(space, centers, radii):
    """The finite branch of ``ball_depth`` one ball at a time: each ball's
    minimum over its sampled complement, inf when it holds every sample."""
    inside = space.cross_dists(np.arange(space.n_points), centers) < radii
    depth = np.full(inside.shape, np.inf)
    for b in range(len(radii)):
        outside = ~inside[:, b]
        if outside.any():
            depth[:, b] = space.dense_matrix()[:, outside].min(axis=1)
    return inside, depth


@st.composite
def depth_cases(draw):
    """(space, centers, radii) for the finite branch of ``ball_depth``:
    repeated centers, covers without balls, and radii from 0 (an empty open
    ball) to above the diameter (a ball holding every sample), or exactly
    the distance from the center to some sample."""
    space = draw(finite_spaces())
    n = space.n_points
    balls = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.sampled_from(radius_scales(space)),
            st.sampled_from([1.0, 0.5, 1.5]),
            st.one_of(st.none(), st.integers(0, n - 1)),
        ),
        max_size=2 * n,
    ))
    dense = space.dense_matrix()
    centers = np.array([c for c, _, _, _ in balls], dtype=int)
    radii = np.array(
        [r * f if s is None else dense[c, s] for c, r, f, s in balls], dtype=float
    )
    return space, centers, radii


def in_mode(space, mode):
    """The same samples and metric in ``mode``."""
    return replace(space, mode=mode, delta=1.0 if mode == "sampled" else 0.0)


def weights_by_loop(space, cover):
    """The unnormalised partition-of-unity weights, one ball at a time."""
    n = space.n_points
    w = np.zeros((n, cover.n_balls))
    for b, (c, r) in enumerate(zip(cover.centers, cover.radii)):
        d = space.dists_from(int(c))
        inside = d < r
        if space.mode == "finite":
            outside = ~inside
            if outside.any():
                wb = space.dense_matrix()[:, outside].min(axis=1)
            else:
                wb = np.full(n, r)
            w[inside, b] = np.minimum(wb[inside], r)
        else:
            w[inside, b] = r - d[inside]
    return w


def open_ball_members(space, cover):
    """(n_points, n_balls): the sample lies in the open ball, one ball at a time."""
    member = np.zeros((space.n_points, cover.n_balls), dtype=bool)
    for b, (c, r) in enumerate(zip(cover.centers, cover.radii)):
        member[:, b] = space.dists_from(int(c)) < r
    return member


def mollify_covers(run):
    return run.mollify_pou[:: max(1, len(run.items) // 6)]


class TestBallDepth:
    def test_matches_mode_formulas(self, s1_run, s2_run, s3_run):
        """S1's covers are sampled, S2's and S3's finite."""
        for run in (s1_run, s2_run, s3_run):
            space = run.bundle.hspace
            for cover in mollify_covers(run):
                inside, depth = dense_ball_depth(space, cover.centers, cover.radii)
                assert inside.shape == depth.shape == (space.n_points, cover.n_balls)
                for b, (c, r) in enumerate(zip(cover.centers, cover.radii)):
                    ref_inside, ref_depth = depth_by_mode(space, c, r)
                    assert np.array_equal(inside[:, b], ref_inside)
                    assert np.array_equal(depth[:, b], ref_depth)

    def test_ball_holding_every_sample_is_infinitely_deep(self):
        sp = json_line_space([0.0, 0.25, 0.5, 1.0], h=[0, 2])
        inside, depth = dense_ball_depth(sp, np.array([1, 0]), np.array([5.0, 0.3]))
        assert inside[:, 0].all()
        assert np.all(np.isinf(depth[:, 0]))
        assert np.array_equal(inside[:, 1], [True, True, False, False])
        assert np.array_equal(depth[:, 1], [0.5, 0.25, 0.0, 0.0])

    def test_selection_levels_match_membership_and_depth_loop(self, s2_run, s3_run):
        for run in (s2_run, s3_run):
            space = run.bundle.hspace
            for lev in run.levels:
                member, depth = depth_by_ball(space, lev.cover.centers, lev.cover.radii)
                assert np.array_equal(member, open_ball_members(space, lev.cover))
                got_member, got_depth = dense_ball_depth(space, lev.cover.centers, lev.cover.radii)
                assert np.array_equal(got_member, member)
                assert np.array_equal(got_depth, depth)

    @settings(max_examples=300, deadline=None)
    @given(depth_cases(), WINDOWS)
    def test_finite_branch_matches_ball_loop(self, case, windows):
        space, centers, radii = case
        with scan_windows(*windows):
            inside, depth = dense_ball_depth(space, centers, radii)
        ref_inside, ref_depth = depth_by_ball(space, centers, radii)
        assert inside.shape == depth.shape == (space.n_points, len(centers))
        assert np.array_equal(inside, ref_inside)
        assert depth.tobytes() == ref_depth.tobytes()  # bit-equal, signed zeros included

    @settings(max_examples=300, deadline=None)
    @given(depth_cases(), st.sampled_from(["finite", "sampled"]), WINDOWS)
    def test_both_modes_match_the_per_ball_formulas(self, case, mode, windows):
        space, centers, radii = case
        space = in_mode(space, mode)
        with scan_windows(*windows):
            inside, depth = dense_ball_depth(space, centers, radii)
        assert inside.shape == depth.shape == (space.n_points, len(centers))
        for b, (c, r) in enumerate(zip(centers, radii)):
            ref_inside, ref_depth = depth_by_mode(space, c, r)
            assert np.array_equal(inside[:, b], ref_inside)
            assert depth[:, b].tobytes() == np.where(ref_inside, ref_depth, 0.0).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(depth_cases(), st.sampled_from(["finite", "sampled"]), WINDOWS)
    def test_partition_weights_match_ball_loop_on_any_cover(self, case, mode, windows):
        """The CSR triple holds the open-ball pairs row by row, balls
        ascending; the totals and the refusal of an uncovered point are
        those of the dense table."""
        space, centers, radii = case
        space = in_mode(space, mode)
        cover = CoverSystem(centers=centers, radii=radii)
        w = weights_by_loop(space, cover)
        tot = w.sum(axis=1)
        if (tot <= 0).any():  # a random cover that misses a sample
            with pytest.raises(CoverageError, match=f"point {int(np.argmax(tot <= 0))} "):
                with scan_windows(*windows):
                    partition_of_unity(space, cover)
            return
        with scan_windows(*windows):
            pou = partition_of_unity(space, cover)
        assert np.array_equal(pou.weight_sum, tot)
        assert np.array_equal(dense_weights(pou), w / np.where(tot > 0, tot, 1.0)[:, None])
        indptr, indices, _ = pou.weights
        rows = np.repeat(np.arange(space.n_points), np.diff(indptr))
        assert np.array_equal(np.lexsort((indices, rows)), np.arange(len(indices)))
        assert np.array_equal(np.argwhere(w > 0), np.stack([rows, indices], axis=1).reshape(-1, 2))

    def test_finite_call_holds_row_blocks_not_tables(self, s2_run):
        """A finite call holds no (samples x samples) table: beyond its
        pair outputs and pair-sized temporaries it stays within two blocks of
        ``_ROW_BLOCK`` distance rows and their masks, the bound of the
        pair form that read one distance row per (inside sample, ball)
        pair."""
        space = s2_run.bundle.hspace
        nY = space.n_points
        assert nY == 201 and space.mode == "finite"
        block = _ROW_BLOCK * nY * (8 + 1)  # a block's distance rows and its mask
        for cover in s2_run.mollify_pou:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                y, b, depth = ball_depth(space, cover.centers, cover.radii)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # (y, b, depth), plus the unsorted (b, y) pairs, their sort keys and order
            outputs = 7 * 8 * len(y)
            assert peak - base <= 2 * block + outputs

    def test_positive_weights_mark_the_open_balls(self, s1_run, s2_run, s3_run):
        """The mollify oracle counts ball multiplicity over the stored
        nonzeros, which must be the open-ball pairs."""
        for run in (s1_run, s2_run, s3_run):
            space = run.bundle.hspace
            for pou in run.mollify_pou:
                assert np.array_equal(dense_weights(pou) > 0, open_ball_members(space, pou))

    def test_partition_weights_match_ball_loop(self, s1_run, s2_run, s3_run):
        """S2 and S3 are finite spaces, S1 a sampled one."""
        assert s2_run.bundle.hspace.mode == s3_run.bundle.hspace.mode == "finite"
        assert s1_run.bundle.hspace.mode == "sampled"
        for run in (s1_run, s2_run, s3_run):
            space = run.bundle.hspace
            for cover in mollify_covers(run):
                w = weights_by_loop(space, cover)
                pou = partition_of_unity(space, cover)
                tot = w.sum(axis=1)
                assert np.array_equal(pou.weight_sum, tot)
                assert np.array_equal(
                    dense_weights(pou), w / np.where(tot > 0, tot, 1.0)[:, None]
                )


@st.composite
def multiplicity_cases(draw):
    """(space, centers, radii, active) for ``ball_multiplicity``: the covers
    of ``depth_cases``, often cut to one ball, whose radius-0 balls leave
    samples in no ball, and a few rows of active-ball masks."""
    space, centers, radii = draw(depth_cases())
    if draw(st.booleans()):
        centers, radii = centers[:1], radii[:1]
    active = draw(hnp.arrays(bool, (draw(st.integers(0, 4)), len(centers))))
    return space, centers, radii, active


def open_ball_csr(space, cover):
    """The ``Csr`` structure ``partition_of_unity`` gives a cover, with every
    weight 1: row y lists the balls holding sample y, ascending.  Unlike
    ``partition_of_unity`` it accepts a cover that leaves a sample in no
    ball."""
    y, b, _ = ball_depth(space, cover.centers, cover.radii)
    indptr = np.zeros(space.n_points + 1, dtype=np.intp)
    np.cumsum(np.bincount(y, minlength=space.n_points), out=indptr[1:])
    return Csr(indptr, b, np.ones(len(b)))


class TestSparseWeights:
    """The partition-of-unity weights are kept as a CSR triple; the mollify
    oracle reads its ball multiplicity from the triple's structure."""

    @settings(max_examples=300, deadline=None)
    @given(multiplicity_cases())
    def test_csr_multiplicity_matches_dense_product(self, case):
        """Equal to ``active @ member.T`` over the dense open-ball table,
        covers without balls and samples in no ball included."""
        space, centers, radii, active = case
        cover = CoverSystem(centers=centers, radii=radii)
        weights = open_ball_csr(space, cover)
        assert len(weights.indptr) == space.n_points + 1
        member = open_ball_members(space, cover)
        got = ball_multiplicity(weights, active)
        assert got.shape == (len(active), space.n_points)
        assert np.array_equal(got, np.matmul(active, member.T, dtype=float))

    def test_multiplicity_of_a_sample_in_no_ball_is_zero(self):
        sp = json_line_space([0.0, 0.25, 0.5, 1.0], h=[0])
        cover = CoverSystem(centers=np.array([1]), radii=np.array([0.3]))
        weights = open_ball_csr(sp, cover)
        assert np.array_equal(weights.indptr, [0, 1, 2, 3, 3])
        got = ball_multiplicity(weights, np.array([[True], [False]]))
        assert np.array_equal(got, [[1, 1, 1, 0], [0, 0, 0, 0]])
        assert np.array_equal(dense_weights(replace(cover, weights=weights)), [[1], [1], [1], [0]])
        with pytest.raises(CoverageError, match="point 3 "):
            partition_of_unity(sp, cover)

    def test_items_retain_the_nonzeros_not_the_table(self):
        """S1@201's 126 items keep 32,735 nonzero weights out of 34.6 MB of
        dense tables; with the tables the items held 41.9 MB."""
        data = get_scenario("S1").build(ScenarioConfig(grid=201, seed=0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            items = baire_approximate(data.bundle)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(items) == 126
        assert held <= 10e6


# ---------------------------------------------------------------------------
# the selection transform on stacked ball arrays
# ---------------------------------------------------------------------------

def level_tables(space, levels):
    """Per selection level, its (member, depth) tables."""
    return [dense_ball_depth(space, lev.cover.centers, lev.cover.radii) for lev in levels]


def constraint_balls(levels, tables, k, y):
    """The margin-1/k constraint balls of sample y at level k, walked level
    by level: one (center, radius) per ball of levels 1..k whose depth at y
    is at least 1/k."""
    balls = []
    for lev, (_, depth) in zip(levels[:k], tables):
        for b in np.flatnonzero(depth[y] >= 1.0 / k):
            balls.append((lev.z[b], 2.0 ** (-lev.k)))
    return balls


def point_by_projection(balls, slack, tag, m, max_sweeps=10_000):
    """A point within ``slack`` of the closed balls' intersection: the whole
    space's origin for no balls, the box midpoint in linf, cyclic
    projections from the first center in l2; None when certified empty."""
    if not balls:
        return np.zeros(m)
    centers = np.array([c for c, _ in balls], dtype=float)
    radii = np.array([r for _, r in balls], dtype=float)
    if tag == "linf":
        lo = (centers - (radii + slack)[:, None]).max(axis=0)
        hi = (centers + (radii + slack)[:, None]).min(axis=0)
        return (lo + hi) / 2.0 if np.all(lo <= hi) else None
    for i in range(len(balls)):
        for j in range(len(balls)):
            if np.linalg.norm(centers[i] - centers[j]) > radii[i] + radii[j] + slack:
                return None
    z = centers[0].copy()
    for _ in range(max_sweeps):
        for c, r in zip(centers, radii):
            d = np.linalg.norm(z - c)
            if d > r:
                z = c + (z - c) * (r / d)
        if all(np.linalg.norm(z - c) <= r + slack for c, r in zip(centers, radii)):
            return z
    raise AssertionError("cyclic projections found no point")


def selection_by_sample(bundle, levels):
    """(outputs, c_masks) of the selection transform over the given level
    covers, one level and one sample at a time: C_k from a loop over the
    levels up to k, and for each sample off C_k a walk for its margin-1/k
    balls and a box or cyclic projection of its own."""
    tag = bundle.norm_tag
    nY, m = bundle.f_values.shape
    tables = level_tables(bundle.hspace, levels)
    outputs = np.zeros((len(levels), nY, m))
    c_masks = []
    for k in range(1, len(levels) + 1):
        hk = bundle.h_values[k - 1]
        in_c = np.ones(nY, dtype=bool)
        for lev, (member, _) in zip(levels[:k], tables):
            vd = norm(hk[:, None, :] - lev.z[None, :, :], tag)
            in_c &= ~(member & (vd > 2.0 ** (-lev.k))).any(axis=1)
        c_masks.append(in_c)
        for y in range(nY):
            if in_c[y]:
                outputs[k - 1, y] = hk[y]
            else:
                balls = constraint_balls(levels, tables, k, y)
                pt = point_by_projection(balls, 2.0 ** (-k), tag, m)
                assert pt is not None
                outputs[k - 1, y] = pt
    return outputs, c_masks


class TestSelectionArrays:
    @pytest.mark.parametrize("tag", ["linf", "l2"])
    @pytest.mark.parametrize(
        "name, grid, steps",
        [("S2", 41, 12), ("S2", 201, 12), ("S3", 201, 12), ("S3", 3201, 12), ("S0", 201, 20)],
    )
    def test_matches_per_sample_walk(self, monkeypatch, name, grid, steps, tag):
        data = get_scenario(name).build(ScenarioConfig(grid=grid, norm=tag, steps=steps))
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return ball_intersection_point(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ball_intersection_point", counted)
        state, levels = run_selection(data.bundle)
        outputs, c_masks = selection_by_sample(data.bundle, levels)
        assert len(levels) == len(state.c_masks) == data.n_seq
        assert np.array_equal(state.outputs, outputs)
        for got, want in zip(state.c_masks, c_masks):
            assert np.array_equal(got, want)
        # in l2 one intersection call per sample off C_k, with its margin
        # balls; linf takes the boxes of every sample in one pass
        off = [(k, y) for k, mask in enumerate(c_masks, start=1) for y in np.flatnonzero(~mask)]
        tables = level_tables(data.bundle.hspace, levels)
        per_sample = [len(constraint_balls(levels, tables, k, y)) for k, y in off]
        assert calls == (per_sample if tag == "l2" else [])
        assert off or name == "S0"  # S0's raw sequence lies in every C_k

    @settings(max_examples=60, deadline=None)
    @given(finite_spaces(), st.integers(1, 3), st.integers(1, 6), st.data())
    def test_linf_points_match_per_sample_calls(self, space, m, n_seq, data):
        """In linf each sample off C_k gets the point of its own
        ``ball_intersection_point`` call over its margin balls, the origin
        for a sample without one.  Dyadic values, so box edges tie exactly."""
        n = space.n_points
        dyadic = st.sampled_from(np.arange(-16, 17) / 16.0)
        f = data.draw(hnp.arrays(float, (n, m), elements=dyadic))
        h = f + data.draw(hnp.arrays(float, (n_seq, n, m), elements=dyadic))
        bundle = FunctionBundle(
            hspace=space, norm_tag="linf", h_values=h, f_values=f, h_lip=None,
            conv_mask=np.ones(n, dtype=bool),
        )
        with patch.object(pipeline, "ball_intersection_point", None):  # linf makes no call
            state, levels = run_selection(bundle)
        tables = level_tables(space, levels)
        for k, mask in enumerate(state.c_masks, start=1):
            for y in np.flatnonzero(~mask):
                balls = constraint_balls(levels, tables, k, y)
                centers = np.array([c for c, _ in balls], dtype=float).reshape(len(balls), m)
                radii = np.array([r for _, r in balls], dtype=float)
                want = ball_intersection_point(centers, radii, 2.0 ** (-k), "linf")
                assert state.outputs[k - 1, y].tobytes() == want.tobytes()

    @pytest.mark.parametrize("tag", ["linf", "l2"])
    def test_an_empty_set_names_its_first_sample(self, monkeypatch, tag):
        """Were every nonempty constraint family empty, the error would name
        the first level and sample off C_k with a margin ball."""
        data = get_scenario("S2").build(ScenarioConfig(grid=41, norm=tag))
        state, levels = run_selection(data.bundle)
        tables = level_tables(data.bundle.hspace, levels)
        k, y = next(
            (k, y) for k, mask in enumerate(state.c_masks, start=1)
            for y in np.flatnonzero(~mask) if constraint_balls(levels, tables, k, y)
        )
        box = pipeline._box_intersection
        monkeypatch.setattr(pipeline, "_box_intersection", lambda *a: (box(*a)[0], False))
        point = pipeline.ball_intersection_point
        monkeypatch.setattr(
            pipeline, "ball_intersection_point", lambda c, *a: EMPTY if len(c) else point(c, *a)
        )
        with pytest.raises(RuntimeError, match=rf"^empty constraint set at level {k}, sample {y}$"):
            pipeline.ucpc_transform(data.bundle)


# ---------------------------------------------------------------------------
# field rows and the CSV writer
# ---------------------------------------------------------------------------

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


class TestFieldRows:
    def test_csv_bytes_match_benchmark_references(self, s0_run, s1_run, s2_run, s3_run):
        """The default config is the benchmark gate's seed 0 at grid 201; the
        S3 runs at grid 3201 are the blowup1d workload's JSON fields."""
        refs = json.loads(REFERENCES.read_text())["runs"]
        runs = {f"S{k}@201/linf/csv": run for k, run in enumerate((s0_run, s1_run, s2_run, s3_run))}
        for tag in ("linf", "l2"):
            runs[f"S3@3201/{tag}/json"] = run_scenario_objects(
                "S3", ScenarioConfig(grid=3201, norm=tag)
            )
        for key, run in runs.items():
            want = refs[key]["0"]["field_sha256"]
            if run.field is None:
                assert want is None
                continue
            if key.endswith("csv"):
                text = field_to_csv(run.field, run.data.primary_anchor_y)
            else:
                text = field_to_json(run.field, run.data.primary_anchor_y)
            assert hashlib.sha256(text.encode()).hexdigest() == want, key

    def dmat_field(self, smooth=True):
        xs, h = DYADIC_XS, DYADIC_H
        sp = json_line_space(xs, h)
        q = np.array([i for i in range(len(xs)) if i not in h])
        items = constant_lip_items(12, len(h))
        field = build_extension(sp, items, items[-1].values, q)
        return smooth_extension(field) if smooth else field

    def test_csv_and_json_rows_agree_without_coordinates(self):
        field = self.dmat_field()
        rows = field_rows(field, 1)
        lines = field_to_csv(field, 1).splitlines()
        assert lines[0] == (
            "x_index,dist_h,n_of_x,u_index,g0,g_smooth0,q_nt,alp5_rhs,alp5_slack"
        )
        assert len(lines) - 1 == len(rows) == field.n_queries
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            for i in (0, 2, 3):  # x_index, n_of_x, u_index
                assert cells[i] == str(int(cells[i]))
            assert [int(cells[0])] == row["x"]
            assert int(cells[2]) == row["n_of_x"]
            assert int(cells[3]) == row["u_index"]
            floats = [float(c) for c in cells[4:]]
            assert floats[:2] == row["g"] + row["g_smooth"]
            assert [float(cells[1])] + floats[2:] == [
                row["dist_h"], row["q_nt"], row["alp5_rhs"], row["alp5_slack"]
            ]
        assert json.loads(json.dumps(rows)) == rows

    def test_unsmoothed_field_writes_nan(self):
        field = self.dmat_field(smooth=False)
        rows = field_rows(field, 1)
        assert all(np.isnan(r["g_smooth"][0]) for r in rows)
        assert all(line.split(",")[5] == "nan" for line in field_to_csv(field, 1).splitlines()[1:])

    def far_query_field(self):
        """A line with H = {0, 1/4}: the queries past 0.4 are too far from H
        for any selection index, so n(x) = 0 and alp5_rhs = inf there."""
        xs = np.concatenate([[0.0, 0.25], np.linspace(0.01, 0.9, 40)])
        on_h = np.arange(len(xs)) < 2
        return cloud_field(xs[:, None], on_h)

    def test_writers_match_the_row_loop(self, s1_run):
        """Three fields: without coordinates and unsmoothed (g_smooth NaN),
        with n(x) = 0 queries (alp5_rhs Infinity), and S1 at grid 41 (m = 2).
        The JSON text is ``json.dumps`` of the rows, the CSV the rows' repr
        cells, and the rows those of the per-query loop."""
        s1_41 = run_scenario_objects("S1", ScenarioConfig(grid=41)).field
        far = self.far_query_field()
        spelled = far.g_smooth.copy()
        spelled[::3], spelled[1::3] = -np.inf, np.nan
        fields = [
            (self.dmat_field(smooth=False), 1),
            (far, 1),
            (s1_41, 0),
            (replace(far, g_smooth=spelled), 1),  # every non-finite spelling
        ]
        for field, anchor in fields:
            want = rows_by_query(field, anchor)
            rows = field_rows(field, anchor)
            assert json.dumps(rows) == json.dumps(want)
            text = field_to_json(field, anchor)
            assert text == json.dumps(rows, sort_keys=True) == json.dumps(want, sort_keys=True)
            assert field_to_csv(field, anchor) == csv_by_rows(field, want)
        assert "NaN" in field_to_json(*fields[0])
        assert "Infinity" in field_to_json(*fields[1])
        assert "-Infinity" in field_to_json(*fields[3])
        assert 0 in fields[1][0].n_of_x and fields[1][0].n_of_x.max() > 0
        assert s1_41.g.shape[1] == 2

    def test_empty_field_writers(self):
        pts, on_h = lattice_cloud(1, seed=0)
        sp = SampledSpace(coords=pts, dmat=None, h_idx=np.flatnonzero(on_h), mode="sampled", delta=1.0)
        items = constant_lip_items(3, len(sp.h_idx))
        field = build_extension(sp, items, items[-1].values, np.array([], dtype=int))
        assert field_rows(field, 0) == []
        assert field_to_json(field, 0) == json.dumps([]) == "[]"
        assert field_to_csv(field, 0) == csv_by_rows(field, [])


def rows_by_query(field, anchor_y):
    """The field rows one query at a time, as one dict per row."""
    coords = field.space.coords
    q_nt = extension.nt_quotient(field, anchor_y)
    rhs = extension.alp5_rhs(field, anchor_y)
    gs = field.g_smooth if field.g_smooth is not None else np.full_like(field.g, np.nan)
    rows = []
    for q in range(field.n_queries):
        x = int(field.query_idx[q])
        rows.append(
            {
                "x": [float(c) for c in coords[x]] if coords is not None else [x],
                "dist_h": float(field.dist_h[q]),
                "n_of_x": int(field.n_of_x[q]),
                "u_index": int(field.u_x[q]),
                "g": [float(v) for v in field.g[q]],
                "g_smooth": [float(v) for v in gs[q]],
                "q_nt": float(q_nt[q]),
                "alp5_rhs": float(rhs[q]),
                "alp5_slack": float(rhs[q] - q_nt[q]),
            }
        )
    return rows


def csv_by_rows(field, rows):
    """The CSV text of a list of field rows: a header, then each row's
    values flattened and written with repr."""
    m = field.f_h.shape[1]
    coords = field.space.coords
    cols = (
        ([f"x{i}" for i in range(coords.shape[1])] if coords is not None else ["x_index"])
        + ["dist_h", "n_of_x", "u_index"]
        + [f"g{i}" for i in range(m)]
        + [f"g_smooth{i}" for i in range(m)]
        + ["q_nt", "alp5_rhs", "alp5_slack"]
    )
    lines = [",".join(cols)]
    for row in rows:
        cells = [v for val in row.values() for v in (val if isinstance(val, list) else [val])]
        lines.append(",".join(map(repr, cells)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# array-only Lipschitz oracles
# ---------------------------------------------------------------------------

def quotients_by_center(space, values, tag, cs, rho):
    """The largest sampled difference quotient in each ball B(c, rho), one
    ball at a time (0 for a ball without a pair at positive distance)."""
    D = space.dense_matrix()
    out = []
    for c, r in zip(cs.tolist(), np.broadcast_to(rho, cs.shape).tolist()):
        s = np.flatnonzero(D[c] <= r)
        dd = D[np.ix_(s, s)]
        vd = norm(values[s][:, None, :] - values[s][None, :, :], tag)
        mask = dd > 0
        out.append(float((vd[mask] / dd[mask]).max()) if mask.any() else 0.0)
    return np.array(out, dtype=float)


def oracle_rhos(space):
    res = space.resolution()
    diam = float(space.dense_matrix().max())
    return [0.0, res, 1.5 * res, 0.1 * diam, 0.5, 1.0 / 3.0, diam, 2.0 * diam]


def mixed_rhos(rhos, n):
    """One radius per center, cycling through ``rhos``."""
    return np.resize(np.asarray(rhos, dtype=float), n)


@st.composite
def oracle_cases(draw):
    """(space, values, tag, cs, rho) for ``sampled_lip_oracle``: repeated and
    missing centers, one radius or one per center, from below 0 (an empty
    ball) to above the diameter."""
    space = draw(finite_spaces())
    n = space.n_points
    m = draw(st.integers(1, 3))
    values = draw(hnp.arrays(float, (n, m), elements=st.floats(-4.0, 4.0)))
    cs = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=int)
    radii = st.sampled_from([-1.0] + radius_scales(space))
    if draw(st.booleans()):
        rho = draw(radii)
    else:
        rho = np.array(draw(st.lists(radii, min_size=len(cs), max_size=len(cs))), dtype=float)
    return space, values, draw(st.sampled_from(["linf", "l2"])), cs, rho


class TestSampledLipOracleBatch:
    """``sampled_lip_oracle`` against the per-ball quotient loop that its
    scalar calls ran."""

    def assert_matches_ball_loop(self, space, vals, tag, cs_list):
        lip = sampled_lip_oracle(space, vals, tag)
        rhos = oracle_rhos(space)
        for cs in cs_list:
            for rho in rhos + [mixed_rhos(rhos, len(cs))]:
                got = lip(cs, rho)
                assert got.shape == cs.shape
                assert np.array_equal(got, quotients_by_center(space, vals, tag, cs, rho))

    @pytest.mark.parametrize("tag", ["linf", "l2"])
    def test_matches_scalar_calls_on_scenario_items(self, s2_run, s3_run, tag):
        for run in (s2_run, s3_run):
            space = run.bundle.hspace
            assert space.mode == "finite"
            cs = np.arange(space.n_points)
            for i in (1, -1):
                it = run.items[i]
                for vals in (run.pre_blend[i], it.values):
                    lip = sampled_lip_oracle(space, vals, tag)
                    rhos = oracle_rhos(space)[:-2] + [1.0 / it.n]
                    for rho in rhos + [mixed_rhos(rhos, len(cs))]:
                        want = quotients_by_center(space, vals, tag, cs, rho)
                        assert np.array_equal(lip(cs, rho), want)

    @pytest.mark.parametrize("dim,m,tag", [(1, 1, "linf"), (2, 2, "l2"), (3, 3, "linf"), (2, 3, "l2")])
    def test_matches_scalar_calls_on_random_clouds(self, dim, m, tag):
        rng = np.random.default_rng(10 * dim + m)
        pts = rng.uniform(-1.0, 1.0, size=(40, dim))
        pts[30:] = pts[:10]  # repeated points give pairs at distance 0
        space = SampledSpace(coords=pts, dmat=None, h_idx=np.arange(40), mode="finite")
        vals = rng.normal(size=(40, m))
        cs_list = (np.arange(40), rng.permutation(40)[:13], np.array([5, 5, 35]), np.array([], dtype=int))
        self.assert_matches_ball_loop(space, vals, tag, cs_list)

    @pytest.mark.parametrize("tag", ["linf", "l2"])
    def test_balls_that_are_not_runs(self, tag):
        """Shuffled samples on a line, as coordinates and as a JSON metric:
        a ball's samples are no longer consecutive in sample order."""
        rng = np.random.default_rng(7)
        xs = rng.permutation(np.linspace(-1.0, 1.0, 30))
        xs[25:] = xs[:5]  # repeated points
        vals = rng.normal(size=(30, 2))
        cs_list = (np.arange(30), rng.permutation(30)[:11], np.array([3, 3, 27]))
        for space in (
            SampledSpace(coords=xs[:, None], dmat=None, h_idx=np.arange(30), mode="finite"),
            json_line_space(xs, h=[0]),
            json_line_space(np.sort(xs), h=[0]),
        ):
            self.assert_matches_ball_loop(space, vals, tag, cs_list)

    def test_edge_calls(self):
        space = json_line_space([0.0, 0.25, 0.5, 1.0, 1.75, 3.0], h=[0, 2])
        vals = np.array([[0.0], [1.0], [1.0], [4.0], [4.0], [5.0]])
        lip = sampled_lip_oracle(space, vals, "linf")
        empty = lip(np.array([], dtype=int), 1.0)
        assert empty.shape == (0,) and empty.dtype == float
        assert np.array_equal(lip(np.array([], dtype=int), np.array([])), empty)
        assert np.array_equal(lip(np.arange(6), -1.0), np.zeros(6))  # every ball empty
        assert np.array_equal(lip(np.arange(6), 0.0), np.zeros(6))  # one sample each
        assert np.array_equal(lip(np.array([1, 1, 1]), 0.3), [4.0, 4.0, 4.0])
        assert np.array_equal(lip(np.array([0, 5]), 10.0), [6.0, 6.0])  # the whole space
        assert np.array_equal(lip(np.array([0, 5, 3]), np.array([10.0, -1.0, 0.75])), [6.0, 0.0, 6.0])

    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_matches_ball_loop_on_any_call(self, case):
        space, vals, tag, cs, rho = case
        with np.errstate(over="ignore"):  # a subnormal distance gives an inf quotient
            lip = sampled_lip_oracle(space, vals, tag)
            got = lip(cs, rho)
            want = quotients_by_center(space, vals, tag, cs, rho)
            assert got.shape == cs.shape
            assert got.tobytes() == want.tobytes()
            got[...] = -1.0  # the caller owns the answer: the repeat is untouched
            assert lip(cs, rho).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        oracle_cases(),
        st.lists(st.integers(1, 40), min_size=1, max_size=12),
        st.sampled_from([3, _ROW_BLOCK]),
    )
    def test_run_calls_match_calls_per_item(self, case, ns, block):
        """A run's radii delta, from one call at every sample once per item,
        equal bit for bit the one-item-per-call formula; and a call with k
        copies of the centers equals its k slices called one at a time.
        ``block`` rows at a time, so the tiled calls span several blocks."""
        space, vals, tag, cs, rho = case
        nY = space.n_points
        res = space.resolution()
        rhos = [np.broadcast_to(rho, cs.shape) * (j + 1) / len(ns) for j in range(len(ns))]
        with np.errstate(over="ignore"), patch.object(pipeline, "_ROW_BLOCK", block):
            lip = sampled_lip_oracle(space, vals, tag)
            run = [FunSeqItem(n=n, values=vals, sup_bound=4.0, lip_bound=lip, norm_tag=tag) for n in ns]
            deltas = pipeline._mollify_radii(space, run)
            tiled = lip(np.tile(cs, len(ns)), np.concatenate(rhos))
            slices = [lip(cs, r) for r in rhos]
        assert len(deltas) == len(ns)
        for n, delta in zip(ns, deltas):
            with np.errstate(over="ignore"):
                lip_at = sampled_lip_oracle(space, vals, tag)(np.arange(nY), 1.0 / n)
            want = [max(min(1.0 / n, 1.0 / (n * x) if x > 0 else np.inf), res) for x in lip_at.tolist()]
            assert delta.tobytes() == np.array(want, dtype=float).tobytes()
        assert tiled.tobytes() == np.concatenate([np.zeros(0)] + slices).tobytes()

    def test_repeated_query_is_compared_by_value(self):
        """A call reads its centers and radii when it is made: a repeated
        query gets the same answer, and a centers or radii array changed in
        place after a call is a new query."""
        space = json_line_space([0.0, 0.25, 0.5, 1.0, 1.75, 3.0], h=[0, 2])
        vals = np.array([[0.0], [1.0], [1.0], [4.0], [4.0], [5.0]])
        lip = sampled_lip_oracle(space, vals, "linf")
        cs, rho = np.array([1, 3]), np.array([0.3, 0.8])
        for _ in range(2):
            assert np.array_equal(lip(cs, rho), [4.0, 6.0])
        cs[0] = 5
        assert np.array_equal(lip(cs, rho), [0.0, 6.0])
        rho[1] = 0.3
        assert np.array_equal(lip(cs, rho), [0.0, 0.0])
        assert np.array_equal(lip(cs, 1.3), [0.8, 6.0])

    def test_batch_call_leaves_no_table_behind(self, s2_run):
        """The union table of a batch (nY x nY at rho = 1) is freed on return,
        and at most six tables of its size are alive during the call, also
        for a mollify run's call of k = 10 items: every sample k times, at
        radii 1/n for n = 1..k."""
        space = s2_run.bundle.hspace
        nY = space.n_points
        assert nY == 201
        lip = sampled_lip_oracle(space, s2_run.pre_blend[0], "linf")
        table = nY * nY * 8
        for k in (1, 10):
            cs, rho = np.tile(np.arange(nY), k), np.repeat(1.0 / np.arange(1.0, k + 1), nY)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = lip(cs, rho)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 6 * table >= peak - base >= table  # the table was built ...
            assert held - base < table // 8  # ... and nothing of its size is kept
            assert out.shape == (k * nY,)


def lip_r_by_levels(rad, c, rho):
    """``BoundRadiusField.lip_r`` as three Python loops over the levels."""
    ball_free = True
    for n in range(rad.n_sat):
        on = rad.o_masks[n]
        if on.any() and (rad.D[c][on] <= rho).any():
            ball_free = False
            break
    if ball_free:
        return 0.0
    r_sup = np.inf
    for n in range(rad.n_sat):
        dc = rad.d_compl[n, c]
        if not rad.o_masks[n, c]:
            continue
        if np.isinf(dc):
            r_sup = min(r_sup, n + 2.0)
        elif dc > rho:
            r_sup = min(r_sup, (n + 2.0) + 1.0 / (dc - rho))
    if np.isinf(r_sup):
        return np.inf
    best = 0.0
    for n in range(rad.n_sat):
        if n + 2.0 > r_sup:
            continue
        dc = rad.d_compl[n, c]
        if np.isinf(dc):
            term = 0.0
        elif dc > rho:
            term = 1.0 / (dc - rho) ** 2
        else:
            term = 2.0 * r_sup**2
        best = max(best, term)
    return best


def partly_certified_field(mode):
    """A radius field on [0, 1] with f = 3y, certified only on y <= 0.7."""
    ts = np.linspace(0.0, 1.0, 41)
    space = SampledSpace(
        coords=ts[:, None], dmat=None, h_idx=np.arange(41), mode=mode,
        delta=0.025 if mode == "sampled" else 0.0,
    )
    f = 3.0 * ts[:, None]
    bundle = FunctionBundle(
        hspace=space, norm_tag="linf", h_values=f[None], f_values=f, h_lip=None,
        conv_mask=ts <= 0.7,
    )
    return local_bound_radius(bundle)


class TestLipRBatch:
    def check(self, rad, rhos):
        cs = np.arange(len(rad.r))
        for rho in rhos:
            want = np.array([lip_r_by_levels(rad, int(c), rho) for c in cs])
            assert np.array_equal(rad.lip_r(cs, rho), want)
            assert np.array_equal(rad.lip_r(cs[::-3], rho), want[::-3])
        mixed = mixed_rhos(rhos, len(cs))
        want_mixed = np.array([lip_r_by_levels(rad, int(c), r) for c, r in zip(cs, mixed)])
        assert np.array_equal(rad.lip_r(cs, mixed), want_mixed)
        return want

    def test_matches_level_loops_on_s3(self, s3_run):
        rad = local_bound_radius(s3_run.bundle)
        assert isinstance(rad, BoundRadiusField)
        finite_dc = np.unique(rad.d_compl[np.isfinite(rad.d_compl)])
        assert np.isinf(rad.d_compl).any()  # a level whose complement is empty
        # rho equal to some dc takes the branch where O_n's boundary may cross
        rhos = [0.0, 1e-3, 0.01, 0.05, 0.3, 1.0, 2.0] + finite_dc[:: max(1, len(finite_dc) // 5)].tolist()
        self.check(rad, rhos)

    @pytest.mark.parametrize("mode", ["finite", "sampled"])
    def test_ball_free_and_infinite_sup_cases(self, mode):
        rad = partly_certified_field(mode)
        rhos = [0.0, 0.01, 0.025, 0.05, 0.1, 0.3, 0.5, 1.5]
        rhos += np.unique(rad.d_compl[np.isfinite(rad.d_compl)])[:6].tolist()
        seen = set()
        for rho in rhos:
            want = self.check(rad, [rho])
            seen |= {"zero" if w == 0.0 else "inf" if np.isinf(w) else "finite" for w in want}
        assert seen == {"zero", "inf", "finite"}

    def test_random_fields(self):
        """Thousands of distinct gaps dc - rho and sups: where x*x and pow(x, 2)
        round apart, only the per-level formula's pow matches."""
        rng = np.random.default_rng(7)
        n_sat, nY = 30, 300
        pts = rng.uniform(0.0, 1.0, size=(nY, 1))
        d_compl = rng.uniform(0.0, 0.5, size=(n_sat, nY))
        d_compl[rng.uniform(size=d_compl.shape) < 0.1] = np.inf
        rad = BoundRadiusField(
            r=np.zeros(nY), o_masks=rng.uniform(size=(n_sat, nY)) < 0.7, d_compl=d_compl,
            n_sat=n_sat, D=np.abs(pts - pts.T),
        )
        self.check(rad, rng.uniform(0.0, 0.3, size=12).tolist())

    def test_batch_spanning_two_row_blocks(self):
        rad = partly_certified_field("finite")
        cs = np.tile(np.arange(41), 8)  # 328 centers, two row blocks
        for rho in (0.1, mixed_rhos([0.0, 0.05, 0.1, 0.3, 0.6], len(cs))):
            r = np.broadcast_to(rho, cs.shape)
            want = np.array([lip_r_by_levels(rad, int(c), rc) for c, rc in zip(cs, r)])
            assert np.array_equal(rad.lip_r(cs, rho), want)


def radius_grid(res, r_top):
    """The envelope's radius levels res, 2 res, ... up to the first >= r_top."""
    grid = [res]
    while grid[-1] < r_top:
        grid.append(grid[-1] * 2.0)
    return grid


def envelope_by_levels(body, grid, c, rho):
    """The envelope of one center: the min of ``body`` over the grid radii
    from the first one >= rho (the top radius when rho is above the grid)."""
    lo = 0
    while lo < len(grid) - 1 and grid[lo] < rho:
        lo += 1
    return min(body(c, g) for g in grid[lo:])


class TestEnvelopeBatch:
    @staticmethod
    def body(c, rho):
        return float((c * 7919) % 13) / (1.0 + rho) + rho

    def raw(self, log):
        def lip(cs, rho):
            rhos = np.broadcast_to(rho, cs.shape).tolist()
            log.append(list(zip(cs.tolist(), rhos)))
            return np.array([self.body(c, r) for c, r in zip(cs.tolist(), rhos)], dtype=float)

        return lip

    def test_batch_fills_missing_levels_with_one_raw_call_each(self):
        """A query fills the (center, level) pairs the cache lacks, per
        center in order of first appearance the levels from the lowest its
        radii reach, with one raw call per block of ``_ROW_BLOCK`` pairs and
        one grid radius per pair."""
        batches = []
        res, r_top = 0.01, 1.0
        env = monotone_lip_envelope(self.raw(batches), r_top, res)
        grid = radius_grid(res, r_top)
        filled = set()

        def query(cs, rho):
            rhos = np.broadcast_to(rho, (len(cs),)).tolist()
            los = [next((j for j, g in enumerate(grid) if g >= r), len(grid) - 1) for r in rhos]
            first = {}
            for c, lo in zip(cs, los):
                first[c] = min(first.get(c, lo), lo)
            pairs = [(c, j) for c, lo in first.items() for j in range(lo, len(grid))]
            pairs = [p for p in pairs if p not in filled]
            filled.update(pairs)
            before = len(batches)
            got = env(np.array(cs, dtype=int), rho)
            blocks = [pairs[i:i + _ROW_BLOCK] for i in range(0, len(pairs), _ROW_BLOCK)]
            assert batches[before:] == [[(c, grid[j]) for c, j in b] for b in blocks]
            want = [envelope_by_levels(self.body, grid, c, r) for c, r in zip(cs, rhos)]
            assert np.array_equal(got, want)

        query(list(range(10)), 0.3)
        query(list(range(10)), 0.3)  # every entry cached: no raw call
        query([3, 12, 3, 0, 15], 0.05)
        query(list(range(16)), 0.0)
        query([40], 5.0)  # above the grid: the top level only
        query([41, 7, 41, 42, 43], np.array([0.5, 0.0, 0.02, 5.0, 0.3]))  # a radius per center
        query(list(range(100, 160)), 0.0)  # 60 x 8 pairs: more than one block
        query([], 0.3)

    def test_per_center_radii_share_the_cache(self):
        """Level values fetched for a center at one radius serve every later
        call: a call whose levels are all cached makes no raw call."""
        calls = []
        env = monotone_lip_envelope(self.raw(calls), 1.0, 0.01)
        grid = radius_grid(0.01, 1.0)
        cs = np.arange(6)
        rhos = np.array([0.02, 0.3, 0.02, 0.0, 0.7, 0.3])
        want = np.array([envelope_by_levels(self.body, grid, c, r) for c, r in zip(cs, rhos)])
        assert np.array_equal(env(cs, rhos), want)
        n_calls = len(calls)
        pick = np.array([4, 1, 1, 0, 3])
        assert np.array_equal(env(cs[pick], rhos[pick]), want[pick])
        at_half = [envelope_by_levels(self.body, grid, c, 0.5) for c in range(3)]
        assert np.array_equal(env(cs[:3], 0.5), at_half)
        assert len(calls) == n_calls


def mollify_calls(run):
    """Call ``run()``, which returns items, and record its
    ``lipschitz_mollify`` calls: per item the input of the call that built
    its blend, the item itself and the call's partition of unity."""
    with recorded_calls("lipschitz_mollify", "partition_of_unity") as calls:
        items = run()
    pous = [c.result for c in calls["partition_of_unity"] if c.caller == "lipschitz_mollify"]
    return [
        (calls["lipschitz_mollify"][j].args[1], it, pous[j])
        for j, it in zip(blend_calls(calls, items), items)
    ]


def post_blend_by_center(space, item, mo, pou, seen):
    """The post-blend crossover bound of one ball at a time, as scalar code:
    ``item`` went into ``lipschitz_mollify``, ``mo`` came out and ``pou`` is
    the cover it blended over.  Each call adds the name of the branch it took
    to ``seen``."""
    D = space.dense_matrix()
    res = space.resolution()
    err = norm(mo.values - item.values, item.norm_tag)
    member = open_ball_members(space, pou)
    centers, radii = pou.centers, pou.radii

    def old(c, rho):
        return float(item.lip_bound(np.array([c]), np.array([rho]))[0])

    def body(c, rho):
        s = np.flatnonzero(D[c] <= rho)
        e = float(err[s].max())
        if e == 0.0:
            seen.add("identity")
            return old(c, rho)
        active = np.flatnonzero(D[c][centers] <= rho + radii)
        rad_max = float(radii[active].max())
        lb = old(c, rho + 2.0 * rad_max)
        l_rho = old(c, rho)
        near = np.flatnonzero(D[c] <= rho + rad_max)
        mult = int(member[np.ix_(near, active)].sum(axis=1).max())
        n_pair = 2.0 * max(mult, 1)
        w_min = float(pou.weight_sum[s].min())
        d_max = max(2.0 * rho, res)
        if not np.isfinite(lb) or w_min <= 0:
            seen.add("unbounded")
            return l_rho + 2.0 * e / res
        alpha = 2.0 * n_pair * lb / w_min * (1.0 + n_pair * rad_max / w_min)
        if alpha == 0.0:
            seen.add("flat")
            return l_rho
        seen.add("crossover")
        bq = alpha * rad_max - l_rho
        d_star = (-bq + np.sqrt(bq * bq + 8.0 * alpha * e)) / (2.0 * alpha)
        dc = float(np.clip(d_star, res, d_max))
        return max(min(alpha * (rad_max + dc), l_rho + 2.0 * e / dc), 0.0)

    return body


class TestPostBlendOracle:
    @staticmethod
    def check(space, calls, seen):
        res = space.resolution()
        grid = radius_grid(res, float(space.dense_matrix().max()))
        cs = np.arange(space.n_points)
        rhos = [0.0, res, 0.05, 0.3]
        for item, mo, pou in calls:
            body = post_blend_by_center(space, item, mo, pou, seen)
            for rho in rhos + [mixed_rhos(rhos, len(cs))]:
                r = np.broadcast_to(rho, cs.shape)
                want = [envelope_by_levels(body, grid, int(c), rc) for c, rc in zip(cs, r)]
                assert np.array_equal(mo.lip_bound(cs, rho), want)

    @pytest.mark.parametrize(
        "name,grid,branches",
        [("S1", 41, {"identity", "crossover"}), ("S2", 41, {"identity", "crossover"}),
         ("S3", 101, {"identity"})],
    )
    def test_matches_the_crossover_bound_per_ball(self, name, grid, branches):
        data = get_scenario(name).build(ScenarioConfig(grid=grid))
        calls = mollify_calls(lambda: baire_approximate(data.bundle))
        assert len(calls) == data.n_seq  # one per item
        seen = set()
        # the first items carry the blend error; the last is the finest
        self.check(data.bundle.hspace, calls[:3] + calls[-1:], seen)
        assert seen == branches

    def test_flat_and_unbounded_input_bounds(self):
        """An input bound of 0 makes alpha = 0; one that is finite at the cover
        radius 1/n but infinite on the widened ball falls back to
        l_rho + 2E/res."""
        ys = np.linspace(0.0, 1.0, 21)
        space = SampledSpace(coords=ys[:, None], dmat=None, h_idx=np.arange(21), mode="finite")
        vals = ys[:, None] ** 2

        def flat(cs, rho):
            return np.zeros(len(cs))

        def steep(cs, rho):
            return np.where(np.broadcast_to(rho, cs.shape) > 0.6, np.inf, 1.0)

        for lip, branch in ((flat, "flat"), (steep, "unbounded")):
            item = FunSeqItem(n=2, values=vals, sup_bound=1.0, lip_bound=lip)
            seen = set()
            [delta] = pipeline._mollify_radii(space, [item])
            self.check(space, mollify_calls(lambda: [pipeline.lipschitz_mollify(space, item, 2, delta)]), seen)
            assert branch in seen, seen


class TestScenarioHLip:
    def test_h_lip_matches_the_scenario_formulas(self):
        """S1's h_lip is the ramp bound per center and S0's sampled h_lip is
        0; ``baire_approximate`` hands them center arrays."""
        s1 = get_scenario("S1").build(ScenarioConfig(grid=41)).bundle
        s0 = get_scenario("S0").build(ScenarioConfig(mode="sampled")).bundle
        seen = []

        def h_lip(n, cs, rho):
            seen.append(type(cs))
            return s1.h_lip(n, cs, rho)

        baire_approximate(replace(s1, h_values=s1.h_values[:3], h_lip=h_lip))
        assert seen and all(issubclass(t, np.ndarray) for t in seen)
        t = s1.hspace.coords[:, 0]
        cs = np.arange(len(t))
        cs0 = np.arange(s0.hspace.n_points)
        rhos = [0.0, 0.02, 0.05, 0.3, 1.5]
        for n in (1, 2, 5):
            for rho in rhos + [mixed_rhos(rhos, len(cs))]:
                r = np.broadcast_to(rho, cs.shape)
                want = [
                    0.0 if t[c] - r[c] >= 0.0 or t[c] + r[c] <= -2.0 / n else float(n) for c in cs
                ]
                assert np.array_equal(s1.h_lip(n, cs, rho), want)
            for rho in (0.0, mixed_rhos(rhos, len(cs0))):
                assert np.array_equal(s0.h_lip(n, cs0, rho), np.zeros(len(cs0)))


# ---------------------------------------------------------------------------
# scenario build helpers
# ---------------------------------------------------------------------------

class PointSetByStacking:
    """The point set that re-stacked its array for every new point."""

    def __init__(self, dim, tol=1e-9):
        self.pts = np.zeros((0, dim))
        self.tol = tol

    def add(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = []
        for p in pts:
            if len(self.pts):
                d = np.linalg.norm(self.pts - p, axis=1)
                j = int(np.argmin(d))
                if d[j] <= self.tol:
                    out.append(j)
                    continue
            self.pts = np.vstack([self.pts, p[None, :]])
            out.append(len(self.pts) - 1)
        return np.array(out, dtype=int)


def validate_by_point(hspace, f_values, idx, scale, tag):
    """The continuity validator one declared point at a time: a distance
    row, a sort and an (s x s) value-difference table per point."""
    shrink = 1.0 - 1e-9
    radii = [k * scale * shrink for k in (8, 4, 2, 1)]
    for y in idx:
        row = hspace.dists_from(int(y))
        s = np.flatnonzero(row < radii[0])
        s = s[np.argsort(row[s], kind="stable")]
        diffs = norm(f_values[s][:, None, :] - f_values[s][None, :, :], tag)
        prefix_max = np.maximum.accumulate(np.tril(diffs).max(axis=1, initial=0.0))
        sizes = np.searchsorted(row[s], radii)
        oscs = [float(prefix_max[k - 1]) if k >= 2 else 0.0 for k in sizes.tolist()]
        if any(b > a + 1e-12 for a, b in zip(oscs, oscs[1:])) or oscs[-1] > 1e-9:
            raise ValueError(
                f"declared continuity point {int(y)} has oscillation profile {oscs}"
            )


def validation_error(validate, *args):
    """The message a validator raises, or None when it passes."""
    try:
        validate(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestScenarioHelpers:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_point_set_matches_stacking(self, dim, monkeypatch):
        """Batches of repeats, then batches that mix runs of fresh points
        (appended in bulk) with repeats inside the batch, points within tol
        of a stored point and points on cell borders (multiples of 2 tol)."""
        rng = np.random.default_rng(dim)
        grid = np.round(rng.uniform(-1.0, 1.0, size=(300, dim)), 1)  # many repeats
        fresh = rng.uniform(-1.0, 1.0, size=(200, dim))
        border = np.round(rng.uniform(-1.0, 1.0, size=(20, dim)) / 2e-9) * 2e-9
        mixed = np.concatenate([
            fresh[:30], fresh[5:6], fresh[30:60], grid[7:9] + 0.4e-9, fresh[60:61] + 1e-9,
            fresh[61:90], border, border[:3] - 0.3e-9, fresh[90:100], fresh[95:96] + 2e-9,
        ])
        chunks = [
            grid[:1], grid[1:40], grid[40:41], grid[41:], grid[:50] + 1e-10,
            mixed, fresh[100:], fresh[:10] - 0.9e-9, fresh[150:160] + 1.1e-9,
        ]
        scalar = []
        add_one = _PointSet._add_one
        monkeypatch.setattr(
            _PointSet, "_add_one", lambda self, p, cell: scalar.append(1) or add_one(self, p, cell)
        )
        ps, ref = _PointSet(dim), PointSetByStacking(dim)
        for chunk in chunks:
            assert np.array_equal(ps.add(chunk), ref.add(chunk))
            assert np.array_equal(ps.pts, ref.pts)
        # the fresh points went in bulk, the repeats by the scalar rule
        assert 0 < len(scalar) < sum(map(len, chunks)) - 150

    @pytest.mark.parametrize("dim", [1, 2])
    def test_point_set_edge_cases_match_the_linear_scan(self, dim):
        """tol = 5/16 with dyadic points (all distances exact): points at
        exactly tol, ties between two stored points (the lower index wins),
        a repeat of a point appended earlier in the same batch, and points on
        the borders of the hash cells (multiples of 2 tol = 10/16)."""
        tol = 5.0 / 16.0
        line = [
            [0, 10, 20, -10],
            [5, 15, 25, 30, 30, -15, -5],
            [10, 20.5, 35, 40],
            # runs of lone points around a repeat, a point at exactly tol from
            # a stored one, a cell-border pair and a point near a lone one
            [100, 120, 140, 100, 160, 45, 180, 200, 220, 230, 250, 255.5],
        ]
        extra = [
            [], [[3, 4], [7, 4], [-3, -4], [0, 10], [0, 5], [10, -10]], [[0, 10], [3, 14]],
            [[100, 100], [120, 100], [100, 100.5], [140, 140]],
        ]
        ps, ref = _PointSet(dim, tol=tol), PointSetByStacking(dim, tol=tol)
        for xs, more in zip(line, extra):
            batch = np.zeros((len(xs), dim))
            batch[:, 0] = xs
            if dim == 2 and more:
                batch = np.concatenate([batch, np.array(more, dtype=float)])
            batch /= 16.0
            assert np.array_equal(ps.add(batch), ref.add(batch))
            assert np.array_equal(ps.pts, ref.pts)
        assert len(ps.pts) < sum(map(len, line))

    @pytest.mark.parametrize("name", ["S0", "S1", "S2", "S3"])
    def test_continuity_check_matches_point_loop(self, name, monkeypatch):
        """The call each build makes, then the same space and points with
        value fields that fail: a jump at the median coordinate, a jump at
        every sample, noise above and below the 1e-9 tolerance, at the
        build's scale and at 1.5 resolutions, where the smallest probe ball
        of the closest pair holds a neighbour.  The points go in declared
        order, reversed, and three times over, so the first failure in
        ``idx`` order falls in a later block."""
        calls = []
        real = scenarios._validate_continuity_declarations
        monkeypatch.setattr(
            scenarios, "_validate_continuity_declarations",
            lambda *args: (calls.append(args), real(*args)),
        )
        get_scenario(name).build(ScenarioConfig())
        ((hspace, f_values, idx, scale, tag),) = calls
        assert len(idx) and hspace.coords is not None
        x = hspace.coords[:, :1]
        noise = np.random.default_rng(0).normal(size=f_values.shape)
        fields = [
            f_values,
            f_values + np.where(x > np.median(x), 1.0, 0.0),
            f_values + np.arange(len(x))[:, None] % 2,
            f_values + 1e-8 * noise,
            f_values + 1e-12 * noise,
        ]
        verdicts = set()
        for vals in fields:
            for sc in (scale, 1.5 * hspace.resolution()):
                for order in (idx, idx[::-1], np.tile(idx, 3)):
                    args = (hspace, vals, order, sc, tag)
                    want = validation_error(validate_by_point, *args)
                    assert validation_error(real, *args) == want
                    verdicts.add(want is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_continuity_check_matches_oscillation_calls(self, name):
        data = get_scenario(name).build(ScenarioConfig(grid=81))
        b = data.bundle
        spacing = b.hspace.delta if b.hspace.mode == "sampled" else b.hspace.resolution()
        # at 1.5 spacings the smallest probe ball holds a neighbour, so points
        # next to the jump fail the check
        scale = 1.5 * spacing
        # a jump between the two closest samples, plus rounding-size noise:
        # the points next to the jump fail, the others pass
        x = np.sort(b.hspace.coords[:, 0])
        i = int(np.argmin(np.diff(x)))
        noise = np.random.default_rng(0).normal(size=(len(x), 1)) * 1e-14
        vals = np.where(b.hspace.coords[:, :1] > (x[i] + x[i + 1]) / 2.0, 1.0, 0.0) + noise
        outcomes = set()
        for y in b.continuity_idx:
            oscs = [
                oscillation(b.hspace, vals, int(y), k * scale * (1.0 - 1e-9), b.norm_tag)
                for k in (8, 4, 2, 1)
            ]
            fails = any(q > p + 1e-12 for p, q in zip(oscs, oscs[1:])) or oscs[-1] > 1e-9
            one = np.array([y])
            outcomes.add(fails)
            if fails:
                with pytest.raises(ValueError, match=f"point {int(y)} has oscillation profile"):
                    _validate_continuity_declarations(b.hspace, vals, one, scale, b.norm_tag)
                with pytest.raises(ValueError, match=re.escape(repr(oscs))):
                    _validate_continuity_declarations(b.hspace, vals, one, scale, b.norm_tag)
            else:
                _validate_continuity_declarations(b.hspace, vals, one, scale, b.norm_tag)
        assert outcomes == {True, False}
