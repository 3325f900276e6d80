"""Pipeline stages: selection transform, radial bounding, the local bound
radius field, mollification, and the certified Lipschitz oracles."""
from dataclasses import replace

import numpy as np
import pytest
from conftest import dense_ball_depth, run_selection

from baireext import pipeline
from baireext.pipeline import (
    FunctionBundle,
    FunSeqItem,
    baire_approximate,
    bound_sequence,
    enforce_local_uniform_boundedness,
    lipschitz_mollify,
    local_bound_radius,
    sampled_lip_oracle,
    ucpc_transform,
)
from baireext.scenarios import ScenarioConfig, get_scenario
from baireext.space import SampledSpace, dense_weights
from baireext.target import norm


def finite_line(ts):
    ts = np.asarray(ts, dtype=float)
    n = len(ts)
    return SampledSpace(
        coords=ts[:, None], dmat=None, h_idx=np.arange(n), mode="finite", delta=0.0
    )


def constant_bundle(space, value, n_seq=3, tag="linf"):
    nY = space.n_points
    f = np.tile(np.asarray(value, dtype=float), (nY, 1))
    return FunctionBundle(
        hspace=space,
        norm_tag=tag,
        h_values=np.tile(f, (n_seq, 1, 1)),
        f_values=f,
        h_lip=None,
        conv_mask=np.ones(nY, dtype=bool),
        ucpc_certified=True,
        continuity_idx=np.arange(nY),
    )


class TestBoundSequence:
    def test_projects_onto_ball_of_radius_n(self):
        space = finite_line([0.0, 1.0])
        vals = np.tile([5.0, 0.0], (2, 1))
        item = FunSeqItem(
            n=1, values=vals, sup_bound=5.0,
            lip_bound=sampled_lip_oracle(space, vals, "l2"), norm_tag="l2",
        )
        (out,) = bound_sequence([item])
        assert np.allclose(out.values, [[1.0, 0.0], [1.0, 0.0]])
        assert out.sup_bound == 1.0

    def test_identity_when_already_bounded(self):
        space = finite_line([0.0, 1.0])
        vals = np.array([[0.5, 0.0], [1.5, 0.0]])
        lip = sampled_lip_oracle(space, vals, "linf")
        item = FunSeqItem(n=2, values=vals, sup_bound=1.5, lip_bound=lip, norm_tag="linf")
        (out,) = bound_sequence([item])
        assert np.array_equal(out.values, vals)
        assert out.lip_bound is lip  # oracle passes through untouched
        assert out.sup_bound == 1.5


class TestLocalBoundRadius:
    def test_bounded_limit_on_whole_space(self):
        space = finite_line(np.linspace(0, 1, 9))
        bundle = constant_bundle(space, [0.0])
        rad = local_bound_radius(bundle)
        # ||f|| < 1 everywhere and O_1 has empty complement: r = (1+1) + 0
        assert np.all(rad.r == 2.0)
        assert rad.n_sat == 1

    def test_uncertified_points_give_infinite_radius(self):
        space = finite_line([0.0, 1.0])
        bundle = constant_bundle(space, [0.0])
        bundle.conv_mask = np.zeros(2, dtype=bool)
        rad = local_bound_radius(bundle)
        assert np.all(np.isinf(rad.r))
        # r is constant (infinite) on the ball
        assert np.array_equal(rad.lip_r(np.array([0, 1]), 10.0), [0.0, 0.0])

    def test_radius_shrinks_near_blowup(self, s3_run):
        rad = local_bound_radius(s3_run.bundle)
        # r explodes toward the accumulation point 0 (last H index)
        assert rad.r[-1] > rad.r[0]


class TestEnforceLocalBound:
    def test_identity_when_sup_below_min_radius(self):
        space = finite_line(np.linspace(0, 1, 5))
        bundle = constant_bundle(space, [0.0])
        vals = np.tile([1.5], (5, 1))
        lip = sampled_lip_oracle(space, vals, "linf")
        item = FunSeqItem(n=1, values=vals, sup_bound=1.5, lip_bound=lip, norm_tag="linf")
        out, rad = enforce_local_uniform_boundedness([item], bundle)
        assert out[0].lip_bound is lip
        assert np.array_equal(out[0].values, vals)

    def test_values_respect_radius_field(self, s3_run):
        rad = local_bound_radius(s3_run.bundle)
        for it, pre in zip(s3_run.items, s3_run.pre_blend):
            nv = norm(pre, it.norm_tag)
            finite = np.isfinite(rad.r)
            assert np.all(nv[finite] <= rad.r[finite] + 1e-12)


class TestUcpcTransform:
    def test_exact_sequence_is_kept(self):
        space = finite_line(np.linspace(0, 1, 7))
        bundle = constant_bundle(space, [0.25, -0.5], n_seq=4)
        state = ucpc_transform(bundle)
        assert all(mask.all() for mask in state.c_masks)
        assert np.array_equal(state.outputs, bundle.h_values)

    def test_rejects_sampled_mode(self, s1_run):
        with pytest.raises(ValueError, match="finite mode"):
            ucpc_transform(s1_run.bundle)

    def test_target_centers_cover_f_tightly(self, s2_run):
        # every refined ball G at level k satisfies f(G) inside B_Z(z_G, 2^-k)
        f = s2_run.bundle.f_values
        tag = s2_run.bundle.norm_tag
        assert len(s2_run.levels) == s2_run.bundle.n_seq
        for lev in s2_run.levels:
            member, _ = dense_ball_depth(s2_run.bundle.hspace, lev.cover.centers, lev.cover.radii)
            vd = norm(f[:, None, :] - lev.z[None, :, :], tag)
            assert np.all(vd[member] < 2.0 ** (-lev.k))

    def test_constraint_systems_are_monotone(self, s2_run):
        nY = len(s2_run.bundle.f_values)
        n_levels = len(s2_run.levels)
        space = s2_run.bundle.hspace
        depths = [dense_ball_depth(space, lev.cover.centers, lev.cover.radii)[1] for lev in s2_run.levels]

        def idx_set(k, y, j):
            out = set()
            for i, depth in enumerate(depths[:k]):
                for b in np.flatnonzero(depth[y] >= 1.0 / j):
                    out.add((i, int(b)))
            return out

        rng = np.random.default_rng(11)
        for y in rng.choice(nY, size=12, replace=False):
            y = int(y)
            for k in range(1, n_levels):
                for j in (1, 2, 5):
                    assert idx_set(k, y, j) <= idx_set(k + 1, y, j)
                    assert idx_set(k, y, j) <= idx_set(k, y, j + 1)

    def test_kept_values_match_raw_sequence(self, s2_run):
        state = ucpc_transform(s2_run.bundle)
        h = s2_run.bundle.h_values
        for k, mask in enumerate(state.c_masks, start=1):
            assert np.array_equal(state.outputs[k - 1][mask], h[k - 1][mask])

    def test_outputs_nearly_satisfy_margin_constraints(self, s2_run):
        # every output lies within slack 2^-k of each margin-1/k constraint ball
        state, levels = run_selection(s2_run.bundle)
        tag = s2_run.bundle.norm_tag
        space = s2_run.bundle.hspace
        depths = [dense_ball_depth(space, lev.cover.centers, lev.cover.radii)[1] for lev in levels]
        for k in range(1, len(levels) + 1):
            out_k = state.outputs[k - 1]
            for lev, depth in zip(levels[:k], depths):
                sel = depth >= 1.0 / k  # (nY, nb)
                vd = norm(out_k[:, None, :] - lev.z[None, :, :], tag)
                assert np.all(vd[sel] <= 2.0 ** (-lev.k) + 2.0 ** (-k) + 1e-12)


def mollify_alone(space, item):
    """``lipschitz_mollify`` of one item, with the radii delta of a
    ``_mollify_radii`` call for that item alone."""
    [delta] = pipeline._mollify_radii(space, [item])
    return lipschitz_mollify(space, item, item.n, delta)


class TestMollify:
    def test_constant_item_is_unchanged(self):
        space = finite_line(np.linspace(0, 1, 9))
        vals = np.tile([0.3, -0.7], (9, 1))
        item = FunSeqItem(
            n=3, values=vals, sup_bound=0.7,
            lip_bound=sampled_lip_oracle(space, vals, "linf"), norm_tag="linf",
        )
        out = mollify_alone(space, item)
        assert np.allclose(out.values, vals, atol=1e-15)
        assert np.all(norm(out.values - vals, "linf") == 0.0)

    def test_blend_error_within_two_over_n(self, s1_run, s2_run, s3_run):
        for run in (s1_run, s2_run, s3_run):
            tag = run.bundle.norm_tag
            assert len(run.pre_blend) == len(run.items)
            for it, pre in zip(run.items, run.pre_blend):
                err = norm(it.values - pre, tag)
                assert float(err.max()) <= 2.0 / it.n + 1e-12

    def test_blend_reevaluates_from_stored_cover(self, s1_run):
        for i in (0, -1):
            it, pou, pre = s1_run.items[i], s1_run.mollify_pou[i], s1_run.pre_blend[i]
            redo = dense_weights(pou) @ pre[pou.centers]
            assert np.allclose(redo, it.values, atol=1e-12)

    def test_requires_oracle(self):
        space = finite_line([0.0, 1.0])
        item = FunSeqItem(n=1, values=np.zeros((2, 1)), sup_bound=0.0, lip_bound=None)
        with pytest.raises(ValueError, match="oracle"):
            mollify_alone(space, item)


class TestFullPipeline:
    def test_pointwise_error_is_preserved_up_to_blend(self, s1_run):
        f = s1_run.bundle.f_values
        tag = s1_run.bundle.norm_tag
        for it in s1_run.items:
            raw = norm(s1_run.bundle.h_values[it.n - 1] - f, tag)
            fin = norm(it.values - f, tag)
            assert np.all(fin <= raw + 2.0 / it.n + 1e-12)

    def test_final_errors_decay_at_continuity_point(self, s1_run):
        # uniform convergence is local: check at y = (0.5, 0), away from the jump
        f = s1_run.bundle.f_values
        tag = s1_run.bundle.norm_tag
        t = s1_run.bundle.hspace.coords[:, 0]
        y = int(np.argmin(np.abs(t + 0.05)))
        errs = [float(norm(it.values[y] - f[y], tag)) for it in s1_run.items]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 2.0 / s1_run.items[-1].n + 1e-12

    def test_sup_bounds_hold_and_cap_at_n_plus_two(self, s1_run, s2_run, s3_run):
        for run in (s1_run, s2_run, s3_run):
            for it in run.items:
                observed = float(norm(it.values, it.norm_tag).max())
                assert observed <= it.sup_bound + 1e-12
                assert it.sup_bound <= it.n + 2.0

    def test_diag_stages_emitted(self, s1_run, s2_run):
        assert {d["stage"] for d in s1_run.diags} == {
            "ucpc_transform", "bound", "enforce_bound", "mollify",
        }
        assert {d["stage"] for d in s2_run.diags} == {
            "ucpc_transform", "bound", "enforce_bound", "mollify",
        }

    def test_sampled_mode_requires_certificate(self, s1_run):
        bundle = replace(s1_run.bundle, ucpc_certified=False)
        with pytest.raises(ValueError, match="certificate"):
            baire_approximate(bundle)

    def test_mollify_diag_reports_the_blend_error(self, s1_run, s2_run):
        """The mollify line's ``max_violation`` is the largest blend error
        ||f_n - pre-blend item|| over the samples."""
        for run in (s1_run, s2_run):
            lines = [d for d in run.diags if d["stage"] == "mollify"]
            assert [d["n"] for d in lines] == [it.n for it in run.items]
            for d, it, pre in zip(lines, run.items, run.pre_blend):
                assert d["max_violation"] == float(norm(it.values - pre, it.norm_tag).max())


def items_without_reuse(bundle):
    """The finite-mode items with every stage run on one item at a time, so
    that no item shares an oracle, an envelope, its radii call or a blend
    with another."""
    tag, space = bundle.norm_tag, bundle.hspace
    rad = local_bound_radius(bundle)
    out = []
    for n, vals in enumerate(ucpc_transform(bundle).outputs, start=1):
        sup = float(norm(vals, tag).max())
        lip = sampled_lip_oracle(space, vals, tag)
        [it] = bound_sequence([FunSeqItem(n=n, values=vals, sup_bound=sup, lip_bound=lip, norm_tag=tag)])
        [it], _ = enforce_local_uniform_boundedness([it], bundle, rad)
        out.append(mollify_alone(space, it))
    return out


class TestItemReuse:
    @pytest.mark.parametrize("tag", ["linf", "l2"])
    @pytest.mark.parametrize("name,grid,distinct", [("S3", 201, 10), ("S2", 121, 10)])
    def test_items_equal_those_built_without_reuse(self, name, grid, distinct, tag):
        """Items that share a predecessor's oracle and blend are the items a
        run without reuse builds: bit for bit equal values, the same n and
        sup bound, and the same bound, hence the same K, at seeded (c, rho)
        pairs from below the resolution to beyond the diameter.  S3's 73
        items per norm come from 10 mollify calls."""
        bundle = get_scenario(name).build(ScenarioConfig(grid=grid, norm=tag)).bundle
        items = baire_approximate(bundle)
        fresh = items_without_reuse(bundle)
        assert len({id(it.lip_bound) for it in items}) == distinct
        assert len(items) == len(fresh) == bundle.n_seq
        space = bundle.hspace
        rng = np.random.default_rng(11)
        cs = rng.integers(0, space.n_points, size=64)
        top = 1.5 * float(space.dense_matrix().max())
        rhos = np.concatenate([rng.uniform(0.0, top, size=48), rng.uniform(0.0, 4.0 * space.resolution(), size=16)])
        for it, ref in zip(items, fresh):
            assert (it.n, it.sup_bound) == (ref.n, ref.sup_bound)
            assert it.values.tobytes() == ref.values.tobytes()
            assert it.lip_bound(cs, rhos).tobytes() == ref.lip_bound(cs, rhos).tobytes()


    @pytest.mark.parametrize("tag", ["linf", "l2"])
    def test_one_oracle_call_per_mollify_run(self, monkeypatch, tag):
        """The mollify stage splits its inputs into maximal runs of one
        oracle object and equal values and asks each run's
        ``sampled_lip_oracle`` once, at every sample once per item.  S2 at
        grid 121 builds 8 oracles for its 10 items in either norm, and each
        is one run."""
        bundle = get_scenario("S2").build(ScenarioConfig(grid=121, norm=tag)).bundle
        nY = bundle.hspace.n_points
        runs, calls, built = [], [], []
        oracle, radii = pipeline.sampled_lip_oracle, pipeline._mollify_radii

        def counted_oracle(space, values, tag):
            lip = oracle(space, values, tag)
            built.append(lip)

            def counted(cs, rho):
                calls.append((len(runs), len(cs)))  # the number of runs asked so far
                return lip(cs, rho)

            return counted

        def recorded_radii(space, run):
            runs.append(run)
            return radii(space, run)

        monkeypatch.setattr(pipeline, "sampled_lip_oracle", counted_oracle)
        monkeypatch.setattr(pipeline, "_mollify_radii", recorded_radii)
        items = baire_approximate(bundle)
        assert [it.n for run in runs for it in run] == [it.n for it in items]
        for run in runs:
            assert all(it.lip_bound is run[0].lip_bound for it in run)
            assert all(it.values.tobytes() == run[0].values.tobytes() for it in run)
        for a, b in zip(runs, runs[1:]):
            assert a[-1].lip_bound is not b[0].lip_bound or a[-1].values.tobytes() != b[0].values.tobytes()
        assert len(runs) == len(built) == 8
        assert calls == [(j, len(run) * nY) for j, run in enumerate(runs, start=1)]


class TestLipOracles:
    def test_sampled_oracle_exact_on_line(self):
        space = finite_line([0.0, 1.0, 3.0])
        vals = np.array([[0.0], [2.0], [2.0]])
        lip = sampled_lip_oracle(space, vals, "linf")
        # pair (0, 1); all pairs; only the flat pair (1, 2); a singleton ball
        got = lip(np.array([0, 0, 2, 0]), np.array([1.0, 3.0, 1.5, 0.5]))
        assert np.array_equal(got, [2.0, 2.0, 0.0, 0.0])

    @pytest.mark.parametrize("which", ["s1", "s3"])
    def test_oracle_honesty_on_final_items(self, which, s1_run, s3_run):
        run = {"s1": s1_run, "s3": s3_run}[which]
        space = run.bundle.hspace
        D = space.dense_matrix()
        tag = run.bundle.norm_tag
        rng = np.random.default_rng(5)
        for it in (run.items[0], run.items[len(run.items) // 2], run.items[-1]):
            # (c, rho) drawn in turn, one pair at a time
            cs, rhos = np.zeros(20, dtype=int), np.zeros(20)
            for i in range(20):
                cs[i] = rng.integers(0, space.n_points)
                rhos[i] = rng.uniform(space.resolution(), 0.5)
            for c, rho, bound in zip(cs, rhos, it.lip_bound(cs, rhos)):
                s = np.flatnonzero(D[c] <= rho)
                if len(s) < 2:
                    continue
                dd = D[np.ix_(s, s)]
                vd = norm(it.values[s][:, None, :] - it.values[s][None, :, :], tag)
                mask = dd > 0
                if mask.any():
                    q = float((vd[mask] / dd[mask]).max())
                    assert q <= bound + 1e-9

    def test_oracle_monotone_in_radius(self, s1_run, s3_run):
        for run in (s1_run, s3_run):
            it = run.items[-1]
            res = run.bundle.hspace.resolution()
            rhos = np.array([res, 2 * res, 0.1, 0.25, 0.5])
            for c in (0, run.bundle.hspace.n_points // 2):
                vals = it.lip_bound(np.full(len(rhos), c), rhos)
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestBoundDiagnostics:
    @staticmethod
    def violations(bundle, stage):
        diags = []
        baire_approximate(bundle, diag=diags.append)
        return [d["max_violation"] for d in diags if d["stage"] == stage]

    def test_enforce_bound_reports_the_measured_excess(self, s3_run):
        lines = [d for d in s3_run.diags if d["stage"] == "enforce_bound"]
        assert len(lines) == len(s3_run.items)
        rad = local_bound_radius(s3_run.bundle)
        fin = np.isfinite(rad.r)
        for d, it, pre in zip(lines, s3_run.items, s3_run.pre_blend):
            want = max(0.0, float((norm(pre[fin], it.norm_tag) - rad.r[fin]).max()))
            assert d["n"] == it.n
            assert d["max_violation"] == want
            assert 0.0 <= want <= 1e-12  # P_{r(y)} holds up to rounding

    def test_lines_report_a_missing_projection(self, monkeypatch):
        """With the radial projections made the identity, ``bound`` reports
        max ||v|| - n and ``enforce_bound`` max ||v|| - r instead of 0."""
        import baireext.pipeline as pipeline

        ts = np.linspace(0.0, 1.0, 5)[:, None]
        space = SampledSpace(coords=ts, dmat=None, h_idx=np.arange(5), mode="sampled", delta=0.25)
        bundle = constant_bundle(space, [2.5], n_seq=3)
        # sampled mode keeps the raw values: ||h_n|| = 7.5 against r = 4
        bundle = replace(bundle, h_values=3.0 * bundle.h_values, h_lip=lambda n, cs, rho: np.zeros(len(cs)))
        assert self.violations(bundle, "bound") == [0.0, 0.0, 0.0]
        assert self.violations(bundle, "enforce_bound") == [0.0, 0.0, 0.0]
        monkeypatch.setattr(pipeline, "radial_project", lambda z, r, tag="linf": z)
        assert self.violations(bundle, "bound") == [6.5, 5.5, 4.5]
        assert self.violations(bundle, "enforce_bound") == [3.5, 3.5, 3.5]
