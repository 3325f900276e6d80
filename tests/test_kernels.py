"""Row-sized distance kernels and the shared ball-depth, weight and field-row
code: each one is compared bit for bit with the per-pair, dense all-pairs or
per-caller formula it replaced, written out here."""
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from baireext.extension import (
    build_extension,
    field_rows,
    field_to_csv,
    select_ceiling,
    smooth_extension,
)
from baireext.pipeline import (
    FunSeqItem,
    baire_approximate,
    enforce_local_uniform_boundedness,
)
from baireext.scenarios import ScenarioConfig, _sequence_length, get_scenario
from baireext.space import (
    CoverSystem,
    SampledSpace,
    ball_depth,
    build_refinement,
    load_space_json,
    partition_of_unity,
)
from baireext.target import radial_project


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
# build_refinement
# ---------------------------------------------------------------------------

def refine_by_pairs(space, raw, rule):
    """The greedy refinement with one scalar pair_dist call per raw ball."""
    pts = np.asarray(raw.covered)
    rule = np.asarray(rule, dtype=float)[pts]
    centers, radii, parents = [], [], []
    covered = np.zeros(space.n_points, dtype=bool)
    for k, p in enumerate(pts):
        if covered[p]:
            continue
        r_new = rule[k] / 2.0
        d_raw = np.array([space.pair_dist(int(p), int(c)) for c in raw.centers])
        fits = np.flatnonzero(d_raw + r_new <= raw.radii)
        centers.append(int(p))
        radii.append(r_new)
        parents.append(int(fits[0]))
        covered |= space.dists_from(int(p)) < r_new
    return np.array(centers), np.array(radii), np.array(parents)


class TestRefinementKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pair_dist_matches_distance_rows(self, dim):
        sp = cloud_space(40, dim, seed=dim)
        for i in range(sp.n_points):
            row = np.array([sp.pair_dist(i, j) for j in range(sp.n_points)])
            assert np.array_equal(row, sp.dists_from(i))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_scalar_pair_loop_on_coordinates(self, dim):
        sp = cloud_space(80, dim, seed=10 + dim)
        n = sp.n_points
        radii = np.random.default_rng(dim).uniform(0.2, 0.8, size=n)
        raw = CoverSystem(centers=np.arange(n), radii=radii, covered=np.arange(n))
        ref = build_refinement(sp, raw, radii)
        centers, rr, parents = refine_by_pairs(sp, raw, radii)
        assert ref.n_balls > 1
        assert np.array_equal(ref.centers, centers)
        assert np.array_equal(ref.radii, rr)
        assert np.array_equal(ref.parents, parents)

    def test_matches_scalar_pair_loop_on_mollify_covers(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            hspace = run.bundle.hspace
            nY = hspace.n_points
            for it in run.items[:: max(1, len(run.items) // 6)]:
                delta = it.extras["mollify_delta"]
                raw = CoverSystem(centers=np.arange(nY), radii=delta, covered=np.arange(nY))
                centers, rr, parents = refine_by_pairs(hspace, raw, delta)
                cover = it.extras["mollify_cover"]
                assert np.array_equal(cover.centers, centers)
                assert np.array_equal(cover.radii, rr)
                assert np.array_equal(cover.parents, parents)


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
# query-to-H distances
# ---------------------------------------------------------------------------

def stacked_h_rows(space, query_idx):
    return np.stack([space.dists_from(int(x))[space.h_idx] for x in query_idx])


class TestQueryToH:
    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_cross_dists_match_distance_rows(self, dim):
        sp = cloud_space(50, dim, seed=30 + dim)
        rows = np.array([49, 3, 17, 3])
        assert np.array_equal(sp.cross_dists(rows, sp.h_idx), stacked_h_rows(sp, rows))

    def test_build_extension_rows(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            f = run.field
            assert np.array_equal(f.qh, stacked_h_rows(f.space, f.query_idx))

    def test_sequence_length_matches_per_query_scan(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            space, q = run.data.space, run.data.query_idx
            worst = 1
            for x in q:
                d = float(space.dists_from(int(x))[space.h_idx].min())
                worst = max(worst, select_ceiling(d / 2.0))
            assert _sequence_length(space, q) == worst == run.data.n_seq


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def smooth_by_table(field, dqc):
    """The smoothing loop over a precomputed (queries x centers) table."""
    radii = field.center_dist_h / 3.0
    contributors, weights = [], []
    g_smooth = np.zeros_like(field.g)
    for q in range(field.n_queries):
        w = radii - dqc[q]
        idx = np.flatnonzero(w > 0)
        wv = w[idx]
        lam = wv / wv.sum()
        contributors.append(idx)
        weights.append(lam)
        g_smooth[q] = lam @ field.center_g[idx]
    return contributors, weights, g_smooth


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


def assert_same_smoothing(field, dqc):
    contributors, weights, g_smooth = smooth_by_table(field, dqc)
    assert np.array_equal(field.g_smooth, g_smooth)
    assert len(field.contributors) == len(contributors)
    for a, b in zip(field.contributors, contributors):
        assert np.array_equal(a, b)
    for a, b in zip(field.contrib_w, weights):
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
            n=n, values=base / (n + 1.0), sup_bound=float(nY), lip_bound=lambda c, rho: lip
        )
        for n in range(1, count + 1)
    ]


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
        fc = smooth_extension(build_extension(sp_c, items, f_h, q), extra_midpoints=False)
        for name in ("qh", "dist_h", "u_x", "n_of_x", "g", "g_smooth"):
            assert np.array_equal(getattr(fd, name), getattr(fc, name)), name

    def test_no_dense_query_center_temporary(self):
        """Peak traced memory of smoothing S3 at grid 1601 stays below the
        nq x nc float64 table the dense formula needed."""
        cfg = ScenarioConfig(grid=1601)
        data = get_scenario("S3").build(cfg)
        items = baire_approximate(data.bundle, data.n_seq)
        field = build_extension(
            data.space, items, data.bundle.f_values, data.query_idx, data.bundle.norm_tag
        )
        tracemalloc.start()
        try:
            smoothed = smooth_extension(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = field.n_queries * len(smoothed.center_pos) * 8
        assert dense_bytes > 20_000_000
        assert peak < dense_bytes


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
        rad = s3_run.items[0].extras["bound_radius"]
        nY = bundle.hspace.n_points
        vals = np.random.default_rng(3).normal(scale=20.0, size=(nY, 1))
        item = FunSeqItem(
            n=1, values=vals, sup_bound=float(np.abs(vals).max()),
            lip_bound=lambda c, rho: 0.0, norm_tag=tag,
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


def mollify_covers(run):
    return [it.extras["mollify_cover"] for it in run.items[:: max(1, len(run.items) // 6)]]


class TestBallDepth:
    def test_matches_mode_formulas(self, s1_run, s2_run):
        for run in (s1_run, s2_run):
            space = run.bundle.hspace
            for cover in mollify_covers(run):
                for c, r in zip(cover.centers, cover.radii):
                    inside, depth = ball_depth(space, c, r)
                    ref_inside, ref_depth = depth_by_mode(space, c, r)
                    assert np.array_equal(inside, ref_inside)
                    assert np.array_equal(depth, ref_depth)

    def test_ball_holding_every_sample_is_infinitely_deep(self):
        sp = json_line_space([0.0, 0.25, 0.5, 1.0], h=[0, 2])
        inside, depth = ball_depth(sp, 1, 5.0)
        assert inside.all()
        assert np.all(np.isinf(depth))

    def test_selection_levels_match_membership_and_depth_loop(self, s2_run):
        space = s2_run.bundle.hspace
        state = s2_run.items[0].extras["selection_state"]
        for lev in state.levels:
            member = lev.cover.membership(space)
            depth = np.full(member.shape, np.inf)
            for b in range(lev.cover.n_balls):
                outside = ~member[:, b]
                if outside.any():
                    depth[:, b] = space.dense_matrix()[:, outside].min(axis=1)
            assert np.array_equal(lev.member, member)
            assert np.array_equal(lev.depth, depth)

    def test_partition_weights_match_ball_loop(self, s1_run, s2_run):
        """S2 is a finite space, S1 a sampled one."""
        assert s2_run.bundle.hspace.mode == "finite"
        assert s1_run.bundle.hspace.mode == "sampled"
        for run in (s1_run, s2_run):
            space = run.bundle.hspace
            for cover in mollify_covers(run):
                w = weights_by_loop(space, cover)
                pou = partition_of_unity(space, cover)
                tot = w.sum(axis=1)
                assert np.array_equal(pou.weight_sum, tot)
                assert np.array_equal(pou.weights, w / np.where(tot > 0, tot, 1.0)[:, None])


# ---------------------------------------------------------------------------
# field rows and the CSV writer
# ---------------------------------------------------------------------------

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


class TestFieldRows:
    def test_csv_bytes_match_benchmark_references(self, s0_run, s1_run, s2_run, s3_run):
        """The default config is the benchmark gate's seed 0 at grid 201."""
        refs = json.loads(REFERENCES.read_text())["runs"]
        for k, run in enumerate((s0_run, s1_run, s2_run, s3_run)):
            want = refs[f"S{k}@201/linf/csv"]["0"]["field_sha256"]
            if run.field is None:
                assert want is None
                continue
            text = field_to_csv(run.field, run.data.primary_anchor_y)
            assert hashlib.sha256(text.encode()).hexdigest() == want, f"S{k}"

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
