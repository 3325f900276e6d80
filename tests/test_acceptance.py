"""Acceptance suite: one test per release criterion, each recording a single
pass/fail line that the terminal-summary hook prints at the end of the run."""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from baireext.cli import run_scenario
from baireext.extension import (
    alp5_rhs,
    factor4_ratio_range,
    general_inequality_slacks,
    nt_quotient,
    select_ceiling,
)
from baireext.pipeline import ucpc_transform
from baireext.scenarios import ScenarioConfig
from baireext.target import EMPTY, ball_intersection_point, norm
from baireext.verify import (
    DEFAULT_EPS_GRID,
    DEFAULT_RHO_GRID,
    check_boundedness,
    check_continuity,
    check_nt,
    check_ucpc,
)

from conftest import dense_ball_depth, run_scenario_objects, selection_passes

EXACT = 1e-12

#: per-criterion verdict lines, echoed by the terminal-summary hook in
#: conftest.py (plain prints are swallowed by pytest's capture)
RESULTS: list[str] = []


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        RESULTS.append(f"ACCEPTANCE {label}: FAIL")
        print(RESULTS[-1], flush=True)
        raise
    RESULTS.append(f"ACCEPTANCE {label}: PASS")
    print(RESULTS[-1], flush=True)


# ---------------------------------------------------------------------------
# 1. inequality suite (exact / 1e-12, < 10 s)
# ---------------------------------------------------------------------------

def test_criterion_1_inequality_suite(s1_run, s2_run, s3_run):
    with criterion("1 inequality-suite"):
        t0 = time.monotonic()
        for run in (s1_run, s3_run):
            field = run.field
            nq = field.n_queries

            # nearest-point slack factor 2 and the general inequalities
            d_xu = np.empty(nq)
            for a in np.unique(field.u_y):
                rows = field.u_y == a
                d_xu[rows] = field.anchor_dists(a)[rows]
            assert np.all(d_xu <= 2.0 * field.dist_h + EXACT)
            slacks = general_inequality_slacks(field)
            assert slacks["dist_le_d"] >= -EXACT
            assert slacks["dau_le_3dax"] >= -EXACT

            # selected index is maximal among all candidates up to the ceiling
            for q in range(nq):
                n = int(field.n_of_x[q])
                u, dh = int(field.u_y[q]), float(field.dist_h[q])
                if n > 0:
                    assert selection_passes(field.items, n, u, dh)
                for n2 in range(n + 1, select_ceiling(dh) + 1):
                    assert not selection_passes(field.items, n2, u, dh)

            # NT quotient dominated by the certified right-hand side at every
            # (query, anchor) pair with a positive selection index
            sel = field.n_of_x > 0
            for a in range(field.f_h.shape[0]):
                q = nt_quotient(field, a)
                rhs = alp5_rhs(field, a)
                assert np.all(q[sel] <= rhs[sel] + EXACT)

            # smoothing-cover comparability within the factor-4 window
            lo, hi = factor4_ratio_range(field)
            assert lo >= 0.25 - EXACT and hi <= 4.0 + EXACT

        # selection-transform invariants on the finite-mode scenarios
        for run in (s2_run, s3_run):
            state = ucpc_transform(run.bundle)
            f = run.bundle.f_values
            h = run.bundle.h_values
            tag = run.bundle.norm_tag
            assert len(run.levels) == len(state.c_masks) == run.bundle.n_seq
            for lev in run.levels:
                member, _ = dense_ball_depth(run.bundle.hspace, lev.cover.centers, lev.cover.radii)
                vd = norm(f[:, None, :] - lev.z[None, :, :], tag)
                assert np.all(vd[member] < 2.0 ** (-lev.k))  # target-ball cover
            for k, mask in enumerate(state.c_masks, start=1):
                kept = norm(state.outputs[k - 1][mask] - h[k - 1][mask], tag)
                assert kept.size == 0 or float(kept.max()) < 2.0 ** (-k)

        # blend stays within 2/n of its input at every sample
        for run in (s1_run, s2_run, s3_run):
            tag = run.bundle.norm_tag
            for it, pre in zip(run.items, run.pre_blend):
                err = norm(it.values - pre, tag)
                assert np.all(err <= 2.0 / it.n)

        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. non-tangential limit at the S1 jump (< 30 s)
# ---------------------------------------------------------------------------

def test_criterion_2_nt_at_jump():
    with criterion("2 nt-limit"):
        t0 = time.monotonic()
        run = run_scenario_objects("S1")
        radial, tangential = run.data.plan[0].path, run.data.plan[1].path
        assert tangential.kind == "tangential" and tangential.eps == 0.2
        for path in (radial, tangential):
            rep = check_nt(run.field, path, tol=5e-2)
            assert rep.status == "pass"
            for step in rep.trace:
                assert step["q"] <= step["alp5_rhs"] + EXACT
        assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. continuity preservation at (+-0.5, 0)
# ---------------------------------------------------------------------------

def test_criterion_3_continuity(s1_run):
    with criterion("3 continuity"):
        for chk in s1_run.data.plan:
            if chk.kind != "continuity":
                continue
            rep = check_continuity(
                s1_run.field, chk.path, tol=5e-2,
                declared_continuity=s1_run.bundle.continuity_idx,
            )
            assert rep.status == "pass"
            devs = [step["deviation"] for step in rep.trace]
            assert all(d < 5e-2 for d in devs[4:])


# ---------------------------------------------------------------------------
# 4. boundedness bookkeeping on S3
# ---------------------------------------------------------------------------

def test_criterion_4_boundedness(s3_run):
    with criterion("4 boundedness"):
        checks = [c for c in s3_run.data.plan if c.kind == "boundedness"]
        certified = [c for c in checks if c.sup_cert is not None]
        missing = [c for c in checks if c.sup_cert is None]
        assert certified and missing

        rep = check_boundedness(
            s3_run.field, certified[0].anchor_y, certified[0].r, certified[0].sup_cert
        )
        assert rep.status == "pass"
        sup = rep.trace[0]["sup_g_smooth"]
        chain = certified[0].sup_cert + 1.0 + 1.0 / certified[0].r + 2.0
        assert np.isfinite(sup) and sup <= chain

        rep0 = check_boundedness(
            s3_run.field, missing[0].anchor_y, missing[0].r, missing[0].sup_cert
        )
        assert rep0.status == "inconclusive"
        assert rep0.details["reason"].startswith("hypothesis-not-met")


# ---------------------------------------------------------------------------
# 5. uniform convergence at continuity points on S2
# ---------------------------------------------------------------------------

def _brute_ucpc_verdict(hspace, seq, f, y0, tag):
    """Exhaustive (k, y) scan mirroring the UCPC definition directly."""
    d0 = hspace.dists_from(int(y0))
    k_max = len(seq)
    n = len(f)
    for eps in DEFAULT_EPS_GRID:
        witnessed = False
        for rho in DEFAULT_RHO_GRID:
            members = [y for y in range(n) if d0[y] < rho]
            if not members:
                continue
            for k0 in range(1, k_max + 1):
                good = True
                for k in range(k0, k_max + 1):
                    for y in members:
                        if float(norm(seq[k - 1][y] - f[y0], tag)) >= eps:
                            good = False
                            break
                    if not good:
                        break
                if good:
                    witnessed = True
                    break
            if witnessed:
                break
        if not witnessed:
            return "fail"
    return "pass"


def test_criterion_5_ucpc(s2_run):
    with criterion("5 ucpc"):
        hspace = s2_run.bundle.hspace
        f = s2_run.bundle.f_values
        tag = s2_run.bundle.norm_tag
        raw = s2_run.bundle.h_values
        out = np.stack([it.values for it in s2_run.items])

        # the raw sequence demonstrably fails at y0 = 0, with a witness
        rep = check_ucpc(hspace, raw, f, y0=0, tag=tag)
        assert rep.status == "fail"
        assert {"eps", "k", "y", "value_dev"} <= set(rep.details)

        # the pipeline output passes at every declared continuity point,
        # recording a k0 witness for each eps
        for y0 in s2_run.bundle.continuity_idx:
            rep = check_ucpc(hspace, out, f, y0=int(y0), tag=tag)
            assert rep.status == "pass"
            assert len(rep.trace) == len(DEFAULT_EPS_GRID)
            assert all("k0" in w and "rho" in w for w in rep.trace)

        # exhaustive brute-force scan agrees with the checker verdict exactly
        nY = len(f)
        probes = [0, nY // 2, nY - 1] + list(
            np.random.default_rng(17).choice(nY, size=8, replace=False)
        )
        for y0 in probes:
            y0 = int(y0)
            for seq in (raw, out):
                fast = check_ucpc(hspace, seq, f, y0=y0, tag=tag).status
                assert fast == _brute_ucpc_verdict(hspace, seq, f, y0, tag)


# ---------------------------------------------------------------------------
# 6. oracle equivalence
# ---------------------------------------------------------------------------

def _reblend_at(run, i, y):
    """Independent re-evaluation of item i's blend at sample y from its
    recorded cover, reimplementing the weight rule from its definition."""
    space = run.bundle.hspace
    cover = run.mollify_pou[i]
    pre = run.pre_blend[i]
    D = space.dense_matrix()
    num = np.zeros(pre.shape[1])
    tot = 0.0
    for c, r in zip(cover.centers, cover.radii):
        c = int(c)
        d = float(D[y, c])
        if not d < r:
            continue
        if space.mode == "finite":
            outside = D[c] >= r
            w = float(D[y, outside].min()) if outside.any() else float(r)
            w = min(w, float(r))
        else:
            w = float(r) - d
        num += w * pre[c]
        tot += w
    return num / tot


def test_criterion_6_oracle_equivalence(s1_run, s3_run):
    with criterion("6 oracle-equivalence"):
        rng = np.random.default_rng(23)

        # 50 random blend re-evaluations match the pipeline values to 1e-12
        for _ in range(50):
            run = (s1_run, s3_run)[int(rng.integers(2))]
            i = int(rng.integers(len(run.items)))
            it = run.items[i]
            y = int(rng.integers(len(it.values)))
            redo = _reblend_at(run, i, y)
            assert float(np.abs(redo - it.values[y]).max()) <= EXACT

        # 100 random l-infinity families agree exactly with the box oracle
        for _ in range(100):
            m = int(rng.integers(1, 4))
            count = int(rng.integers(1, 7))
            centers = rng.uniform(-3, 3, size=(count, m))
            radii = rng.uniform(0.1, 3.0, size=count)
            z = ball_intersection_point(centers, radii, tag="linf")
            lo = (centers - radii[:, None]).max(axis=0)
            hi = (centers + radii[:, None]).min(axis=0)
            if np.all(lo <= hi):
                assert z is not EMPTY
                assert np.array_equal(z, (lo + hi) / 2.0)
            else:
                assert z is EMPTY


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    with criterion("7 determinism"):
        for name, files in (
            ("S0", ("field.csv", "manifest.json", "diag.jsonl")),
            ("S2", ("manifest.json", "diag.jsonl")),
        ):
            a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            for out in (a, b):
                manifest, code = run_scenario(name, ScenarioConfig(), out_dir=out)
                assert code == 0
            for suffix in files:
                fa = (a / f"{name}_{suffix}").read_bytes()
                fb = (b / f"{name}_{suffix}").read_bytes()
                assert fa == fb
