"""Locally Lipschitz approximation of pointwise limits on sampled metric
spaces, extension off a closed subset with non-tangential limits, and a
numerical certification harness."""

from .extension import (
    ExtensionField,
    build_extension,
    field_to_csv,
    local_lip_K,
    select_n,
    smooth_extension,
)
from .pipeline import (
    FunctionBundle,
    FunSeqItem,
    baire_approximate,
    bound_sequence,
    enforce_local_uniform_boundedness,
    lipschitz_mollify,
    local_bound_radius,
    ucpc_transform,
)
from .scenarios import SCENARIOS, Scenario, ScenarioConfig, get_scenario, list_scenarios
from .space import (
    CoverSystem,
    SampledSpace,
    build_refinement,
    load_space_json,
    partition_of_unity,
)
from .target import ball_intersection_point, norm, radial_project
from .verify import (
    ApproachPath,
    CertReport,
    check_boundedness,
    check_continuity,
    check_nt,
    check_ucpc,
    oscillation,
)

__version__ = "0.1.0"
