"""Numerical lab for circle-action quotients of the round 3-sphere.

Samples quotient metrics exactly (up to floating point) from weighted
circle actions commuting with a finite orthogonal group, then measures
extents, diameters, double branched covers, and the smallness battery.
"""

from types import ModuleType as _ModuleType

from .actions import (
    IsometricActionSpec,
    gamma_binary_dihedral,
    gamma_cyclic,
    gamma_trivial,
    parse_gamma,
    validate_gamma,
)
from .condition_q import CheckItem, ConditionQPrimeReport, check_condition_qprime
from .cover import (
    ConvergenceError,
    CoverCertificate,
    GraphDisconnectedError,
    double_branched_cover,
)
from .engine import DistanceEngine
from .extents import ExtentReport, SMALL_BOUND, extent, is_small
from .io import read_distance_matrix, write_distance_matrix
from .spaces import (
    MarkedPoint,
    MetricValidationError,
    SampledMetricSpace,
    discover_marked,
    regenerate,
    sample_quotient,
    validate_metric,
)

# the names imported above, not the submodules they bring along
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
