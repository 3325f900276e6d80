"""Session-scoped end-to-end runs of the built-in scenarios, shared by the
unit, property and acceptance tests."""
from types import SimpleNamespace

import numpy as np
import pytest

from baireext.extension import build_extension, smooth_extension
from baireext.pipeline import baire_approximate
from baireext.scenarios import ScenarioConfig, get_scenario
from baireext.space import CoverSystem, ball_depth


def run_scenario_objects(name: str, cfg: ScenarioConfig | None = None) -> SimpleNamespace:
    """Build a scenario and run the pipeline + extension, returning the live
    objects (not serialized artifacts) for inspection."""
    cfg = cfg or ScenarioConfig()
    data = get_scenario(name).build(cfg)
    diags: list[dict] = []
    items = baire_approximate(data.bundle, data.n_seq, diag=diags.append)
    field = None
    if len(data.query_idx):
        field = build_extension(
            data.space, items, data.bundle.f_values, data.query_idx, data.bundle.norm_tag
        )
        field = smooth_extension(field)
    return SimpleNamespace(
        cfg=cfg, data=data, bundle=data.bundle, items=items, field=field, diags=diags
    )


def raw_cover(radii):
    """The pipeline's raw cover {B(y, radii[y])}: one ball per sample."""
    radii = np.asarray(radii, dtype=float)
    return CoverSystem(centers=np.arange(len(radii)), radii=radii)


def dense_ball_depth(space, centers, radii):
    """(member, depth), each (n_points, n_balls): the pairs of ``ball_depth``
    scattered into the open-ball membership table and the depth
    dist(y, X \\ B), 0 outside the ball.  For a selection level, pass
    ``lev.cover.centers`` and ``lev.cover.radii``."""
    y, b, d = ball_depth(space, centers, radii)
    member = np.zeros((space.n_points, len(centers)), dtype=bool)
    member[y, b] = True
    depth = np.zeros(member.shape)
    depth[y, b] = d
    return member, depth


def selection_passes(items, n, u_y, dist_h):
    """The selection test at one index n for one query, written out:
    K = max(1, item n's bound over B(u(x), (n M_n + 2) dist)) with M_n = n + 2,
    and dist < 1/(n K (n M_n + 2)); an infinite K fails."""
    radius = (n * (n + 2.0) + 2.0) * dist_h
    k = max(1.0, float(items[n - 1].lip_bound(np.array([u_y]), np.array([radius]))[0]))
    return not np.isinf(k) and dist_h < 1.0 / (n * k * (n * (n + 2.0) + 2.0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the test summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def s0_run():
    return run_scenario_objects("S0")


@pytest.fixture(scope="session")
def s1_run():
    return run_scenario_objects("S1")


@pytest.fixture(scope="session")
def s2_run():
    return run_scenario_objects("S2")


@pytest.fixture(scope="session")
def s3_run():
    return run_scenario_objects("S3")
