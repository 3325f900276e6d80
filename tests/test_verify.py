"""Certification harness: path validation, decay verdicts, boundedness
bookkeeping, uniform-convergence witnesses and oscillation probes."""
import numpy as np
import pytest

from baireext.extension import ExtensionField
from baireext.pipeline import FunSeqItem
from baireext.space import SampledSpace
from baireext.verify import (
    ApproachPath,
    check_boundedness,
    check_continuity,
    check_nt,
    check_ucpc,
    oscillation,
    validate_path,
)


def synthetic_field(g_values):
    """A 1D radial approach toward H = {0} with prescribed g = g_smooth values
    (f = 0, so the NT quotient equals |g| on this radial path)."""
    g = np.asarray(g_values, dtype=float)[:, None]
    steps = len(g)
    radii = 0.5 * 0.5 ** np.arange(steps)
    coords = np.concatenate([[0.0], radii])[:, None]
    space = SampledSpace(
        coords=coords, dmat=None, h_idx=np.array([0]), mode="sampled", delta=0.01
    )
    query_idx = np.arange(1, steps + 1)
    items = [
        FunSeqItem(n=1, values=np.zeros((1, 1)), sup_bound=0.0, lip_bound=lambda cs, r: np.zeros(len(cs)))
    ]
    field = ExtensionField(
        space=space,
        items=items,
        f_h=np.zeros((1, 1)),
        norm_tag="linf",
        query_idx=query_idx,
        dist_h=radii,
        u_x=np.zeros(steps, dtype=int),
        u_y=np.zeros(steps, dtype=int),
        n_of_x=np.ones(steps, dtype=int),
        g=g,
        k_evals=steps,
        k_inf=0,
        g_smooth=g.copy(),
    )
    path = ApproachPath(anchor_x=0, anchor_y=0, points=query_idx, kind="radial")
    return field, path


class TestValidatePath:
    def test_anchor_must_be_in_h(self):
        field, path = synthetic_field([0.1] * 4)
        bad = ApproachPath(anchor_x=2, anchor_y=0, points=path.points[1:])
        with pytest.raises(ValueError, match="not an H sample"):
            validate_path(field.space, bad)

    def test_anchor_y_must_be_the_anchors_h_position(self):
        # H = {1, 3}: sample 3 is H sample 1, and H sample 0 is another point
        space = SampledSpace(
            coords=np.arange(5.0)[:, None], dmat=None, h_idx=np.array([1, 3]), mode="finite"
        )
        validate_path(space, ApproachPath(anchor_x=3, anchor_y=1, points=np.array([0, 4])))
        bad = ApproachPath(anchor_x=3, anchor_y=0, points=np.array([0, 4]))
        with pytest.raises(ValueError, match="anchor_y 0 .* anchor_x 3"):
            validate_path(space, bad)

    def test_path_point_in_h_rejected(self):
        field, path = synthetic_field([0.1] * 4)
        bad = ApproachPath(anchor_x=0, anchor_y=0, points=np.array([1, 0]))
        with pytest.raises(ValueError, match="lies in H"):
            validate_path(field.space, bad)

    def test_distances_must_decrease(self):
        field, path = synthetic_field([0.1] * 4)
        bad = ApproachPath(anchor_x=0, anchor_y=0, points=path.points[::-1])
        with pytest.raises(ValueError, match="strictly decreasing"):
            validate_path(field.space, bad)

    def test_tangential_needs_eps(self):
        field, path = synthetic_field([0.1] * 4)
        bad = ApproachPath(anchor_x=0, anchor_y=0, points=path.points, kind="tangential")
        with pytest.raises(ValueError, match="eps"):
            validate_path(field.space, bad)

    def test_tangential_ratio_enforced(self):
        # on this 1D space dist(x,H) = d(x,a), so the ratio is 1 > 0.2
        field, path = synthetic_field([0.1] * 4)
        bad = ApproachPath(
            anchor_x=0, anchor_y=0, points=path.points, kind="tangential", eps=0.2
        )
        with pytest.raises(ValueError, match="ratio"):
            validate_path(field.space, bad)


class TestDecayVerdicts:
    def test_nt_pass_on_geometric_decay(self):
        field, path = synthetic_field(0.5 * 0.5 ** np.arange(12))
        rep = check_nt(field, path, tol=5e-2)
        assert rep.status == "pass"
        assert rep.trace[-1]["q"] == pytest.approx(0.5 * 0.5**11)

    def test_nt_fail_on_regrowth(self):
        field, path = synthetic_field([0.4, 0.1, 0.05, 0.2, 0.5, 0.9])
        rep = check_nt(field, path, tol=5e-2)
        assert rep.status == "fail"

    def test_nt_inconclusive_on_plateau(self):
        field, path = synthetic_field([0.2] * 8)
        rep = check_nt(field, path, tol=5e-2)
        assert rep.status == "inconclusive"

    def test_continuity_pass(self):
        field, path = synthetic_field(0.5 * 0.5 ** np.arange(12))
        rep = check_continuity(field, path, tol=5e-2, declared_continuity=[0])
        assert rep.status == "pass"
        assert rep.prop == "C"

    def test_continuity_misuse_at_discontinuity(self):
        field, path = synthetic_field([0.1] * 4)
        with pytest.raises(ValueError, match="continuity point"):
            check_continuity(field, path, declared_continuity=[7])

    def test_continuity_misuse_on_s1_jump(self, s1_run):
        # anchor (0, 0) is a declared discontinuity of the S1 limit
        nt_path = s1_run.data.plan[0].path
        with pytest.raises(ValueError, match="continuity point"):
            check_continuity(
                s1_run.field,
                nt_path,
                declared_continuity=s1_run.bundle.continuity_idx,
            )


class TestBoundedness:
    def test_missing_certificate_is_inconclusive(self):
        field, _ = synthetic_field([0.1] * 4)
        rep = check_boundedness(field, anchor_y=0, r=0.125, sup_cert_p0=None)
        assert rep.status == "inconclusive"
        assert rep.details["reason"].startswith("hypothesis-not-met")

    def test_certified_chain_passes(self):
        field, _ = synthetic_field([0.1] * 4)
        rep = check_boundedness(field, anchor_y=0, r=1.0, sup_cert_p0=1.0)
        assert rep.status == "pass"
        assert rep.trace[0]["bound"] == pytest.approx(1.0 + 1.0 + 1.0 + 2.0)

    def test_violated_chain_fails(self):
        field, _ = synthetic_field([100.0] * 4)
        rep = check_boundedness(field, anchor_y=0, r=1.0, sup_cert_p0=1.0)
        assert rep.status == "fail"

    def test_no_queries_in_ball_is_inconclusive(self):
        field, _ = synthetic_field([0.1] * 4)
        rep = check_boundedness(field, anchor_y=0, r=1e-9, sup_cert_p0=1.0)
        assert rep.status == "inconclusive"
        assert "no sampled queries" in rep.details["reason"]


class TestCheckUcpc:
    def test_constant_sequence_passes_with_k0_one(self):
        space = SampledSpace(
            coords=np.linspace(0, 1, 9)[:, None],
            dmat=None,
            h_idx=np.arange(9),
            mode="finite",
        )
        f = np.full((9, 1), 0.25)
        seq = np.tile(f, (5, 1, 1))
        rep = check_ucpc(space, seq, f, y0=4)
        assert rep.status == "pass"
        assert all(w["k0"] == 1 for w in rep.trace)

    def test_s2_raw_sequence_fails_at_zero(self, s2_run):
        rep = check_ucpc(
            s2_run.bundle.hspace,
            s2_run.bundle.h_values,
            s2_run.bundle.f_values,
            y0=0,
            tag=s2_run.bundle.norm_tag,
        )
        assert rep.status == "fail"
        assert rep.details["y"] == 0  # the pedestal at y = 0 is the witness
        assert rep.details["value_dev"] > 0.5

    def test_s2_pipeline_output_passes_at_zero(self, s2_run):
        seq = np.stack([it.values for it in s2_run.items])
        rep = check_ucpc(
            s2_run.bundle.hspace,
            seq,
            s2_run.bundle.f_values,
            y0=0,
            tag=s2_run.bundle.norm_tag,
        )
        assert rep.status == "pass"


class TestOscillation:
    def test_constant_values(self):
        space = SampledSpace(
            coords=np.linspace(0, 1, 5)[:, None], dmat=None, h_idx=np.arange(5), mode="finite"
        )
        vals = np.full((5, 1), 3.0)
        assert oscillation(space, vals, 2, 10.0) == 0.0

    def test_s1_jump_oscillation_is_two(self, s1_run):
        hs = s1_run.bundle.hspace
        t = hs.coords[:, 0]
        y0 = int(np.argmin(np.abs(t)))
        delta = s1_run.data.space.delta
        assert oscillation(hs, s1_run.bundle.f_values, y0, 3 * delta) == 2.0

    def test_s1_flat_region_oscillation_is_zero(self, s1_run):
        hs = s1_run.bundle.hspace
        t = hs.coords[:, 0]
        y0 = int(np.argmin(np.abs(t - 0.5)))
        assert oscillation(hs, s1_run.bundle.f_values, y0, 0.1) == 0.0
