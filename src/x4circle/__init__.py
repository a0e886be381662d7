"""Circle actions on positively curved 4-spaces: exact invariant algebra,
orbit-graph classification, and a sampled-quotient extent laboratory.

The public names load lazily, each from the submodule that defines it:
importing the package, or `x4circle.cli` for one command, compiles none
of the algebra layers, and `from x4circle import canonicalize` loads
`invariants` alone.
"""

from ._lazy import lazy_attributes as _lazy_attributes

__version__ = "0.1.0"

# lazy name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(
        ("InvariantTuple", "Rejected", "are_equivalent", "canonicalize", "cyclic_differences",
         "euler_sum", "is_realizable"),
        "invariants",
    ),
    **dict.fromkeys(
        ("BoundaryLabel", "BoundaryRecognition", "GroupPresentation", "SeifertPresentation",
         "abelian_order_two_fibers", "euler_number", "fundamental_group", "normalize",
         "recognize_boundary"),
        "seifert",
    ),
    **dict.fromkeys(
        ("QuotientDescriptor", "WeightTriple", "verify_kernel", "weights_from_invariants"),
        "wcp",
    ),
    **dict.fromkeys(
        ("CIRCLE", "ClassificationResult", "Edge", "FixedPointHomogeneous", "LoopAndSpur",
         "SingularGraph", "Suspension", "WCPQuotient", "classify", "loop_and_spur_pi1",
         "validate_graph", "virtual_edge_completion"),
        "classifier",
    ),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = _lazy_attributes(__name__, _LAZY, globals())
