"""Numerical lab for circle-action quotients of the round 3-sphere.

Samples quotient metrics exactly (up to floating point) from weighted
circle actions commuting with a finite orthogonal group, then measures
extents, diameters, double branched covers, and the smallness battery.

The names of the cover stage (``double_branched_cover``, its errors and
certificate, and the ``check_condition_qprime`` battery built on it) load
lazily: ``cover`` needs scipy, whose import costs about as much as the
rest of the lab, and sampling or measuring extents never builds a cover.
Each lookup reads the name from its submodule afresh, so a function
rebound there is what the package hands out.
"""

from types import ModuleType as _ModuleType

from .._lazy import lazy_attributes as _lazy_attributes
from .actions import (
    MAX_MATRIX_BYTES,
    IsometricActionSpec,
    check_matrix_budget,
    gamma_binary_dihedral,
    gamma_cyclic,
    gamma_trivial,
    largest_matrix_bytes,
    parse_gamma,
    validate_gamma,
)
from .engine import DistanceEngine
from .extents import ExtentReport, SMALL_BOUND, check_tol, extent, is_small
from .spaces import (
    MarkedPoint,
    MetricValidationError,
    SampledMetricSpace,
    discover_marked,
    regenerate,
    sample_quotient,
    validate_metric,
)

# lazy name -> the submodule that defines it
_LAZY = {
    "CheckItem": "condition_q",
    "ConditionQPrimeReport": "condition_q",
    "check_condition_qprime": "condition_q",
    "ConvergenceError": "cover",
    "CoverCertificate": "cover",
    "GraphDisconnectedError": "cover",
    "double_branched_cover": "cover",
}

# the names imported above, not the submodules they bring along, and the
# lazy ones
__all__ = sorted(
    [
        name
        for name in dir()
        if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
    ]
    + list(_LAZY)
)

__getattr__, __dir__ = _lazy_attributes(__name__, _LAZY, globals())
