"""Circle actions on positively curved 4-spaces: exact invariant algebra,
orbit-graph classification, and a sampled-quotient extent laboratory."""

from types import ModuleType as _ModuleType

from .invariants import (
    EquivalenceMove,
    InvariantTuple,
    Reversal,
    Rotation,
    Translation,
    apply_move,
    are_equivalent,
    canonicalize,
    cyclic_differences,
    euler_sum,
    is_realizable,
)
from .seifert import (
    INFINITE,
    BoundaryLabel,
    BoundaryRecognition,
    GroupPresentation,
    SeifertPresentation,
    abelian_order_two_fibers,
    euler_number,
    fundamental_group,
    normalize,
    recognize_boundary,
)
from .wcp import (
    QuotientDescriptor,
    WeightTriple,
    verify_kernel,
    weights_from_invariants,
)
from .classifier import (
    CIRCLE,
    ClassificationResult,
    Edge,
    FixedPointHomogeneous,
    GraphValidation,
    LoopAndSpur,
    Rejected,
    SingularGraph,
    Suspension,
    WCPQuotient,
    classify,
    loop_and_spur_pi1,
    validate_graph,
    virtual_edge_completion,
)

__version__ = "0.1.0"

# the names imported above, not the submodules they bring along
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
