"""Extension operator: scale-index selection, the g field, smoothing, and the
inequality diagnostics."""
from dataclasses import replace

import numpy as np
import pytest

from baireext.extension import (
    _extend_rows,
    alp5_rhs,
    branch_condition_violations,
    build_extension,
    factor4_ratio_range,
    field_to_csv,
    general_inequality_slacks,
    local_lip_K,
    m_bound,
    nt_quotient,
    select_ceiling,
    select_n,
)
from baireext.pipeline import FunSeqItem
from baireext.target import norm
from conftest import selection_passes


def flat_items(count, lip_value=0.0, m=1, nY=4):
    """Items with constant values and a constant Lipschitz-bound oracle."""
    return [
        FunSeqItem(
            n=n,
            values=np.zeros((nY, m)),
            sup_bound=0.0,
            lip_bound=lambda cs, rho, _l=lip_value: np.full(len(cs), _l),
        )
        for n in range(1, count + 1)
    ]


def counting_items(items, calls):
    """Copies of ``items`` whose oracles log (n, centers, bounds) per call."""

    def counted(it):
        def lip(cs, rho):
            bounds = it.lip_bound(cs, rho)
            calls.append((it.n, cs.tolist(), bounds))
            return bounds

        return replace(it, lip_bound=lip)

    return [counted(it) for it in items]


def scan_by_query(items, u_y, dist_h):
    """The selection scan of one query, one n and one oracle call at a time."""
    table = {}
    for n in range(select_ceiling(dist_h), 0, -1):
        radius = (n * (n + 2.0) + 2.0) * dist_h
        k = max(1.0, float(items[n - 1].lip_bound(np.array([u_y]), np.array([radius]))[0]))
        table[n] = k
        if not np.isinf(k) and dist_h < 1.0 / (n * k * (n * (n + 2.0) + 2.0)):
            return n, table
    return 0, table


class TestSelection:
    def test_k_floors_at_one_for_constant_items(self):
        items = flat_items(3)
        assert local_lip_K(items, 2, 0, 0.01) == 1.0

    def test_k_reports_global_constant(self):
        items = flat_items(3, lip_value=7.5)
        assert local_lip_K(items, 1, 0, 0.01) == 7.5

    def test_k_rejects_n_zero(self):
        with pytest.raises(ValueError, match="n >= 1"):
            local_lip_K(flat_items(1), 0, 0, 0.01)

    def test_ceiling_examples(self):
        # n (n (n+2) + 2) < 1/dist with K = 1
        assert select_ceiling(0.049) == 2  # 2*10 = 20 < 1/0.049; 3*17 = 51 is not
        assert select_ceiling(0.2) == 0  # even n=1 needs 5*dist < 1
        assert select_ceiling(1e-3) == 9

    def test_select_example_near_one_twentieth(self):
        items = flat_items(3)
        assert select_n(items, 0, 0.049) == 2
        assert local_lip_K(items, 2, 0, 0.049) == 1.0
        # n = 3 genuinely fails the test at this distance
        assert not selection_passes(items, 3, 0, 0.049)
        assert selection_passes(items, 2, 0, 0.049)

    def test_boundary_distance_is_excluded(self):
        # at dist = 1/20 exactly, n = 2 fails the strict inequality
        items = flat_items(3)
        assert select_n(items, 0, 0.05) < 2

    def test_infinite_k_gives_n_zero(self):
        items = [
            FunSeqItem(
                n=1, values=np.zeros((4, 1)), sup_bound=0.0,
                lip_bound=lambda cs, rho: np.full(len(cs), np.inf),
            )
        ]
        assert select_n(items, 0, 0.15) == 0
        assert np.isinf(local_lip_K(items, 1, 0, 0.15))

    def test_select_evaluates_k_once_per_scanned_index(self):
        calls = []
        items = counting_items(flat_items(3, lip_value=2.0), calls)
        n = select_n(items, 0, 0.049)
        assert [(lvl, cs) for lvl, cs, _ in calls] == [(2, [0]), (1, [0])]
        assert n == 1

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError, match="dist"):
            select_n(flat_items(1), 0, 0.0)

    def test_ceiling_above_item_count_raises(self):
        with pytest.raises(ValueError, match="ceiling"):
            select_n(flat_items(1), 0, 1e-3)

    @pytest.mark.parametrize("which", ["s1", "s3"])
    def test_batched_scan_matches_the_scan_per_query(self, which, s1_run, s3_run):
        """One oracle call per level for the queries and the midpoint centers
        together, in strictly descending levels from the highest ceiling.
        Each level's call holds, in point order, every point whose scan
        reaches that level: the same n(x) and g as a scan of the queries
        alone and a scan of the midpoints alone, and the same levels, n and
        K values as a scan run point by point, for sampled queries and
        sampled midpoints.  The field's K counts are those of the calls'
        query rows."""
        field = {"s1": s1_run, "s3": s3_run}[which].field
        nq = field.n_queries
        calls = []
        items = counting_items(field.items, calls)
        batch = build_extension(field.space, items, field.f_h, field.query_idx, field.norm_tag)
        mids = batch.center_pos[nq:]
        assert len(mids) == nq  # a coordinate space: one midpoint per query
        mid_dh, mid_u = field.space.nearest_h(mids)
        assert np.array_equal(batch.center_dist_h, np.concatenate([field.dist_h, mid_dh]))
        ceilings = np.array([select_ceiling(d) for d in batch.center_dist_h])
        levels = [n for n, _, _ in calls]
        assert levels == sorted(set(levels), reverse=True) and levels[0] == ceilings.max()
        mid_n, mid_g, mid_evals, _ = _extend_rows(field.items, field.f_h, mid_dh, mid_u, len(mid_dh))
        assert np.array_equal(batch.n_of_x, field.n_of_x)
        assert np.array_equal(batch.g, field.g)
        assert np.array_equal(batch.center_g, np.concatenate([field.g, mid_g]))
        # a point is pending at every level from its ceiling down to its n(x)
        n_all = np.concatenate([field.n_of_x, mid_n])
        u_all = np.concatenate([field.u_y, mid_u])
        sampled = np.concatenate([np.arange(0, nq, 7), nq + np.arange(0, nq, 7)])
        tables = {int(p): {} for p in sampled}
        k_evals = k_inf = 0
        for n, cs, bounds in calls:
            rows = np.flatnonzero((ceilings >= n) & (n_all <= n))
            assert cs == u_all[rows].tolist()
            k = np.fmax(1.0, bounds)
            on_q = rows < nq
            k_evals += int(on_q.sum())
            k_inf += int(np.isinf(k[on_q]).sum())
            for i in np.flatnonzero(np.isin(rows, sampled)).tolist():
                tables[int(rows[i])][n] = float(k[i])
        assert (batch.k_evals, batch.k_inf) == (k_evals, k_inf)
        assert sum(len(cs) for _, cs, _ in calls) == k_evals + mid_evals
        for p, table in tables.items():
            u, dh = int(u_all[p]), float(batch.center_dist_h[p])
            n, by_query = scan_by_query(field.items, u, dh)
            assert n == n_all[p]
            assert list(table.items()) == list(by_query.items())
            assert all(local_lip_K(field.items, lvl, u, dh) == k for lvl, k in table.items())
            g = field.items[n - 1].values[u] if n else np.zeros(field.f_h.shape[1])
            assert np.array_equal(batch.center_g[p], g)

    @pytest.mark.parametrize("which", ["s1", "s3"])
    def test_selected_index_is_maximal(self, which, s1_run, s3_run):
        run = {"s1": s1_run, "s3": s3_run}[which]
        field = run.field
        rng = np.random.default_rng(2)
        rows = rng.choice(field.n_queries, size=min(25, field.n_queries), replace=False)
        for q in rows:
            q = int(q)
            n = int(field.n_of_x[q])
            ceiling = select_ceiling(float(field.dist_h[q]))
            u, dh = int(field.u_y[q]), float(field.dist_h[q])
            if n > 0:
                assert selection_passes(field.items, n, u, dh)
            for n2 in range(n + 1, ceiling + 1):
                assert not selection_passes(field.items, n2, u, dh)


class TestField:
    def test_g_is_zero_where_n_is_zero(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            zero = run.field.n_of_x == 0
            assert np.all(run.field.g[zero] == 0.0)

    def test_g_comes_from_selected_item(self, s1_run):
        field = s1_run.field
        for q in range(0, field.n_queries, 37):
            n = int(field.n_of_x[q])
            if n > 0:
                expect = field.items[n - 1].values[int(field.u_y[q])]
                assert np.array_equal(field.g[q], expect)

    def test_extend_point_matches_batch(self, s1_run):
        """Extending at one query alone gives that query's row of the batch."""
        field = s1_run.field
        one = build_extension(
            field.space, field.items, field.f_h, field.query_idx[3:4], field.norm_tag
        )
        assert one.dist_h[0] == field.dist_h[3]
        assert one.u_y[0] == field.u_y[3]
        assert one.n_of_x[0] == field.n_of_x[3]
        assert np.array_equal(one.g[0], field.g[3])
        _, table = scan_by_query(field.items, int(field.u_y[3]), float(field.dist_h[3]))
        assert (one.k_evals, one.k_inf) == (len(table), sum(map(np.isinf, table.values())))

    def test_query_on_h_rejected(self, s1_run):
        field = s1_run.field
        h0 = int(field.space.h_idx[0])
        with pytest.raises(ValueError, match="lies on"):
            build_extension(
                field.space, field.items, field.f_h, np.array([h0]), field.norm_tag
            )

    def test_selection_index_grows_along_radial_path(self, s1_run):
        # n(x) -> infinity as x -> a is the mechanism behind the NT limit
        path = s1_run.data.plan[0].path
        rows = [s1_run.field.row_of(int(x)) for x in path.points]
        ns = s1_run.field.n_of_x[rows]
        assert ns[-1] > ns[0]
        assert np.all(np.diff(ns) >= 0)


class TestSmoothing:
    def test_smooth_is_convex_combination(self, s1_run, s3_run):
        """g_smooth is the blend over the contributors with weights
        dist(c,H)/3 - d(x,c), all positive, normalised to sum 1."""
        for run in (s1_run, s3_run):
            field = run.field
            q_pos = field.space.coords[field.query_idx]
            # one read of the list, which every read rebuilds
            for q, cs in enumerate(field.contributors):
                d = np.linalg.norm(field.center_pos[cs] - q_pos[q], axis=1)
                w = field.center_dist_h[cs] / 3.0 - d
                assert np.all(w > 0)
                contrib = field.center_g[cs]
                assert np.allclose(field.g_smooth[q], (w / w.sum()) @ contrib, rtol=0.0, atol=1e-12)
                cap = float(norm(contrib, field.norm_tag).max())
                assert float(norm(field.g_smooth[q], field.norm_tag)) <= cap + 1e-12

    def test_every_query_covers_itself(self, s1_run):
        field = s1_run.field
        contributors = field.contributors
        assert len(contributors) == field.n_queries
        for q, cs in enumerate(contributors):
            # center q is the query itself; its ball of radius dist/3 holds it
            assert q in set(cs.tolist())

    def test_factor4_ratio_range(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            lo, hi = factor4_ratio_range(run.field)
            assert lo >= 0.25 - 1e-12
            assert hi <= 4.0 + 1e-12

    def test_factor4_requires_smoothing(self, s1_run):
        field = s1_run.field
        bare = build_extension(
            field.space, field.items, field.f_h, field.query_idx[:4], field.norm_tag
        )
        with pytest.raises(ValueError, match="smooth_extension"):
            factor4_ratio_range(bare)


class TestInequalities:
    def test_general_inequality_slacks(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            slacks = general_inequality_slacks(run.field)
            assert slacks["dist_le_d"] >= -1e-12
            assert slacks["dau_le_3dax"] >= -1e-12

    def test_branch_condition_holds(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            assert branch_condition_violations(run.field) == 0

    def test_alp5_bounds_nt_quotient(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            field = run.field
            for a in (run.data.primary_anchor_y, 0):
                q = nt_quotient(field, a)
                rhs = alp5_rhs(field, a)
                sel = field.n_of_x > 0
                assert np.all(q[sel] <= rhs[sel] + 1e-12)

    def test_m_bound(self):
        assert m_bound(3) == 5.0


class TestCsv:
    def test_column_order_and_row_count(self, s1_run):
        field = s1_run.field
        text = field_to_csv(field, s1_run.data.primary_anchor_y)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "x0,x1,dist_h,n_of_x,u_index,g0,g1,g_smooth0,g_smooth1,"
            "q_nt,alp5_rhs,alp5_slack"
        )
        assert len(lines) == field.n_queries + 1
        first = lines[1].split(",")
        assert float(first[2]) == float(field.dist_h[0])
        assert int(first[3]) == int(field.n_of_x[0])
