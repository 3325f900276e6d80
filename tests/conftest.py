"""Session-scoped end-to-end runs of the built-in scenarios, shared by the
unit, property and acceptance tests."""
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from baireext import pipeline
from baireext.extension import build_extension, smooth_extension
from baireext.scenarios import ScenarioConfig, get_scenario
from baireext.space import CoverSystem, ball_depth
from baireext.target import UndecidedIntersection


@contextmanager
def recorded_calls(*names):
    """Record the calls made through the given ``pipeline`` module
    attributes (the stages look them up there, as the benchmark tracer
    relies on).  Yields per name a list, in call order, of records with
    ``args``, ``result`` and ``caller``: the innermost recorded call that
    was running, or None."""
    calls = {name: [] for name in names}
    running: list[str] = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            caller = running[-1] if running else None
            running.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                running.pop()
            calls[name].append(SimpleNamespace(args=args, result=result, caller=caller))
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(pipeline, name, wrap(name, getattr(pipeline, name)))
        yield calls


def selection_levels(calls, bundle) -> list[SimpleNamespace]:
    """The levels of the ``ucpc_transform`` run in ``calls`` (recorded with
    ``_preimage_radii`` and ``build_refinement``), in level order: level k's
    refined cover and its target centers z = f(center), so that f maps each
    ball into B_Z(z, 2^-k).  A level refines a cover only when its preimage
    radii differ from its predecessor's, so level k's cover is the one
    refined from radii equal to its own."""
    built = {
        c.args[1].radii.tobytes(): c.result
        for c in calls["build_refinement"] if c.caller == "ucpc_transform"
    }
    radii = [c.result for c in calls["_preimage_radii"] if c.caller == "ucpc_transform"]
    covers = [built[rho.tobytes()] for rho in radii]
    return [
        SimpleNamespace(k=k, cover=cover, z=bundle.f_values[cover.centers])
        for k, cover in enumerate(covers, start=1)
    ]


SELECTION_CALLS = ("ucpc_transform", "_preimage_radii", "build_refinement")


def run_selection(bundle):
    """``ucpc_transform(bundle)`` and the selection levels it built."""
    with recorded_calls(*SELECTION_CALLS) as calls:
        state = pipeline.ucpc_transform(bundle)
    return state, selection_levels(calls, bundle)


def blend_calls(calls, items) -> list[int]:
    """Per item, the index of the recorded ``lipschitz_mollify`` call that
    built its blend.  The pipeline calls it once per distinct input and an
    item with its predecessor's input shares that call's values array, so
    the array names the call.  The oracle does not: a blend that moved no
    sample may hand on its input's oracle, which other calls share."""
    built = {id(c.result.values): j for j, c in enumerate(calls["lipschitz_mollify"])}
    return [built[id(it.values)] for it in items]


def run_scenario_objects(name: str, cfg: ScenarioConfig | None = None) -> SimpleNamespace:
    """Build a scenario and run the pipeline + extension, returning the live
    objects (not serialized artifacts) for inspection.

    The stage objects the items do not carry are recorded from the calls the
    pipeline makes: per item, from the call that built its blend
    (``blend_calls``), its pre-blend values (the input of
    ``lipschitz_mollify``), the raw mollify cover {B(y, delta(y))} and the
    weighted refined cover (``mollify_raw``, ``mollify_pou``); in finite
    mode the selection ``levels``."""
    cfg = cfg or ScenarioConfig()
    data = get_scenario(name).build(cfg)
    diags: list[dict] = []
    stages = (*SELECTION_CALLS, "lipschitz_mollify", "partition_of_unity")
    with recorded_calls(*stages) as calls:
        items = pipeline.baire_approximate(data.bundle, diag=diags.append)
    field = None
    if len(data.query_idx):
        field = build_extension(
            data.space, items, data.bundle.f_values, data.query_idx, data.bundle.norm_tag
        )
        field = smooth_extension(field)
    # each lipschitz_mollify call refines one raw cover and weights it once
    raws = [c.args[1] for c in calls["build_refinement"] if c.caller == "lipschitz_mollify"]
    pous = [c.result for c in calls["partition_of_unity"] if c.caller == "lipschitz_mollify"]
    at = blend_calls(calls, items)
    return SimpleNamespace(
        cfg=cfg, data=data, bundle=data.bundle, items=items, field=field, diags=diags,
        pre_blend=[calls["lipschitz_mollify"][j].args[1].values for j in at],
        mollify_raw=[raws[j] for j in at],
        mollify_pou=[pous[j] for j in at],
        levels=selection_levels(calls, data.bundle),
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


def l2_left_to_right(v):
    """The Euclidean norm of one vector with its squares summed left to
    right: the arithmetic of ``target._l2_rows`` below 8 columns."""
    return np.sqrt(sum(x * x for x in v))


def point_by_projection(balls, slack, tag, m, max_sweeps=10_000):
    """A point within ``slack`` of the closed balls' intersection: the whole
    space's origin for no balls, the box midpoint in linf, cyclic
    projections from the first center in l2, one ball at a time; None when
    certified empty, UndecidedIntersection when the sweeps run out."""
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
            if l2_left_to_right(centers[i] - centers[j]) > radii[i] + radii[j] + slack:
                return None
    z = centers[0].copy()
    for _ in range(max_sweeps):
        for c, r in zip(centers, radii):
            d = l2_left_to_right(z - c)
            if d > r:
                z = c + (z - c) * (r / d)
        if all(l2_left_to_right(z - c) <= r + slack for c, r in zip(centers, radii)):
            return z
    raise UndecidedIntersection(f"no point within slack {slack} after {max_sweeps} sweeps")


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


def pytest_collection_modifyitems(items):
    """Ignore, in every test, the one DeprecationWarning that libcst's import
    of ``mypy_extensions`` raises.  A failing hypothesis property imports
    libcst to write its patch, and under ``-W error`` that warning would end
    the session in an INTERNALERROR before the falsifying example is shown.
    A mark is applied after the ``-W`` options, so it wins over them; an
    ini ``filterwarnings`` entry would not."""
    ignore = pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )
    for item in items:
        item.add_marker(ignore)
