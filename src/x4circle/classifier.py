"""Classification of circle actions from the multigraph of singular orbits.

The orbit space of an isometric circle action on a positively curved
4-space is a 2- or 3-sphere; fixed points become vertices and codimension-2
components of finite isotropy become edges (a loop when the closure of a
component passes through a single fixed point twice).  Positive curvature
leaves very few admissible pictures: at most three vertices, degree at most
three, no two loops at distinct vertices, and at most one edge per pair
once three vertices are present.  The classifier validates a graph against
these constraints, completes it with virtual (order 1) edges, and then
dispatches to one of four structure results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .invariants import (
    PAIRWISE_UNEQUAL,
    TAG_PAIRWISE_UNEQUAL,
    InvariantTuple,
    Rejected,
    is_realizable,
)
from .seifert import (
    BoundaryLabel,
    BoundaryRecognition,
    GroupPresentation,
    SeifertPresentation,
    check_word_letters,
    recognize_boundary,
)
from .wcp import QuotientDescriptor, weights_from_invariants


# Machine-readable citation tags for rejected configurations; the eleventh,
# TAG_PAIRWISE_UNEQUAL, is imported from invariants beside is_realizable.
TAG_AT_LEAST_TWO = "at-least-two-fixed-points"
TAG_THREE_POINT_BOUND = "three-point-bound"
TAG_DEGREE_BOUND = "degree-bound"
TAG_NO_FREE_CURVES = "no-closed-curves"
TAG_FIG5_DG = "fig5-dg"
TAG_THREE_POINT_LOOP = "three-point-loop"
TAG_THREE_POINT_MULTIEDGE = "three-point-multi-edge"
TAG_S2XS1 = "s2xs1-inadmissible"
TAG_K_PLUS_ONE = "k-plus-one-fixed-points"
TAG_LOOP_ORDER_BOUND = "loop-order-bound"

CIRCLE = "circle"


@dataclass(frozen=True)
class Edge:
    """Edge of the singular multigraph.

    u == v encodes a loop; u is None (with v None) encodes a closed curve
    of finite isotropy missing every vertex, which the validator rejects.
    Isotropy orders are >= 2 except on virtual edges, which have order 1.
    beta is optional section data for the fiber pair (order, beta).
    """

    u: Optional[int]
    v: Optional[int]
    order: int
    virtual: bool = False
    beta: Optional[int] = None

    def __post_init__(self):
        if (self.u is None) != (self.v is None):
            raise ValueError("edge endpoints must both be vertices or both be absent")
        if self.virtual:
            if self.order != 1:
                raise ValueError("virtual edges have isotropy order 1")
        elif self.order < 2:
            raise ValueError("real edges need isotropy order >= 2")
        if self.beta is not None and gcd(self.order, self.beta) != 1:
            raise ValueError(f"fiber pair ({self.order}, {self.beta}) is not coprime")

    @property
    def is_loop(self) -> bool:
        return self.u is not None and self.u == self.v

    @property
    def is_free_curve(self) -> bool:
        return self.u is None


@dataclass(frozen=True)
class SingularGraph:
    vertex_count: int
    edges: tuple[Edge, ...]
    has_boundary_fixed_set: bool = False
    soul_isotropy: Union[int, str, None] = None  # order k >= 1, or CIRCLE

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in self.edges:
            if e.u is not None and not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise ValueError(f"edge ({e.u}, {e.v}) has a dangling endpoint")
        s = self.soul_isotropy
        if s is not None and s != CIRCLE and (not isinstance(s, int) or s < 1):
            raise ValueError("soul isotropy must be an order >= 1 or 'circle'")

    def degree(self, vertex: int) -> int:
        d = 0
        for e in self.edges:
            if e.is_free_curve:
                continue
            if e.u == vertex:
                d += 1
            if e.v == vertex:
                d += 1
        return d


def validate_graph(g: SingularGraph) -> Optional[Rejected]:
    """Check a singular multigraph against the positive-curvature constraints.

    Checks run in a fixed order and the first failure is returned as a
    Rejected with its citation tag; a valid graph gives None.  A graph with
    a boundary fixed set is always valid here; it bypasses the vertex bounds
    and is handled by the fixed-point homogeneous branch of classify.
    """
    if g.has_boundary_fixed_set:
        return None
    if g.vertex_count < 2:
        return Rejected(
            "an action with no boundary fixed set has at least two isolated fixed points",
            TAG_AT_LEAST_TWO,
        )
    if g.vertex_count > 3:
        return Rejected(
            "a positively curved 4-space admits at most three isolated fixed points",
            TAG_THREE_POINT_BOUND,
        )
    for vtx in range(g.vertex_count):
        if g.degree(vtx) > 3:
            return Rejected(
                f"vertex {vtx} meets more than three curve ends (loops count twice)",
                TAG_DEGREE_BOUND,
            )
    for e in g.edges:
        if e.is_free_curve:
            return Rejected(
                "a closed curve of finite isotropy must pass through a fixed point",
                TAG_NO_FREE_CURVES,
            )
    loop_vertices = {e.u for e in g.edges if e.is_loop}
    if len(loop_vertices) >= 2:
        return Rejected("loops at two distinct fixed points cannot occur", TAG_FIG5_DG)
    if g.vertex_count == 3:
        if loop_vertices:
            return Rejected(
                "with three fixed points every closed singular curve passes through all three",
                TAG_THREE_POINT_LOOP,
            )
        seen = set()
        for e in g.edges:
            key = frozenset((e.u, e.v))
            if key in seen:
                return Rejected(
                    "with three fixed points at most one singular curve joins each pair",
                    TAG_THREE_POINT_MULTIEDGE,
                )
            seen.add(key)
    return None


def virtual_edge_completion(g: SingularGraph) -> SingularGraph:
    """Fill in the order-1 virtual edges the geometry guarantees.

    Three vertices are completed to a triangle; two vertices with a loop
    receive the spur edge joining them when it is missing.  Graphs without
    loops on two vertices are already complete.  Requires a valid graph
    without a boundary fixed set.
    """
    rejected = validate_graph(g)
    if rejected is not None:
        raise ValueError(f"cannot complete an invalid graph: {rejected.reason}")
    if g.has_boundary_fixed_set:
        raise ValueError("completion does not apply to boundary-fixed-set actions")
    edges = list(g.edges)
    if g.vertex_count == 3:
        present = {frozenset((e.u, e.v)) for e in edges}
        for pair in (frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))):
            if pair not in present:
                u, v = sorted(pair)
                edges.append(Edge(u, v, order=1, virtual=True))
    elif g.vertex_count == 2:
        if any(e.is_loop for e in edges) and not any(not e.is_loop for e in edges):
            edges.append(Edge(0, 1, order=1, virtual=True))
    return SingularGraph(
        vertex_count=g.vertex_count,
        edges=tuple(edges),
        has_boundary_fixed_set=False,
        soul_isotropy=g.soul_isotropy,
    )


@dataclass(frozen=True)
class FixedPointHomogeneous:
    """Action with a fixed 2-sphere boundary component in the orbit space."""

    lens_order: Optional[int]
    note: str = ""


@dataclass(frozen=True)
class Suspension:
    """Two isolated fixed points: the space is a suspension of the common
    space of directions, a Seifert manifold with the edge orders as
    exceptional fibers."""

    orders: tuple[int, ...]
    presentation: Optional[SeifertPresentation]
    boundary: Optional[BoundaryRecognition]

    @property
    def type_only(self) -> bool:
        return self.presentation is None


@dataclass(frozen=True)
class WCPQuotient:
    """Three isolated fixed points: quotient of a weighted projective space."""

    descriptor: QuotientDescriptor
    invariants: InvariantTuple


@dataclass(frozen=True)
class LoopAndSpur:
    """Loop at one fixed point plus a spur to the second.

    The orbifold fundamental group is cyclic of order k|beta| and only
    k = 2 with beta != 0 is admissible.  The space is the quotient by an
    involution of a weighted projective space (divided by a cyclic group
    of order |beta| when |beta| > 1); double_cover records that projective
    space, whose weights (2a, -1, -1) depend only on the spur order a.
    """

    k: int
    spur: tuple[int, Optional[int]]
    orbifold_pi1_order: Optional[int]
    double_cover: QuotientDescriptor

    @property
    def type_only(self) -> bool:
        return self.spur[1] is None


K_PLUS_ONE = Rejected(
    reason="the three-fold cover would acquire four fixed points",
    tag=TAG_K_PLUS_ONE,
)

ClassificationResult = Union[FixedPointHomogeneous, Suspension, WCPQuotient, LoopAndSpur, Rejected]


def _loop_spur_presentation(k: int, beta: int) -> GroupPresentation:
    """Presentation of the orbifold group: < q1, h | [h, q1], q1^k h^-1, h^beta >."""
    check_word_letters(4 + (k + 1) + abs(beta))
    h_word = (2,) * beta if beta >= 0 else (-2,) * (-beta)
    return GroupPresentation(
        generators=("q1", "h"),
        relators=(
            (2, 1, -2, -1),
            (1,) * k + (-2,),
            h_word,
        ),
    )


def _double_cover_descriptor(spur_order: int) -> QuotientDescriptor:
    t = InvariantTuple((Fraction(0), Fraction(-1, spur_order), Fraction(1, spur_order)))
    return weights_from_invariants(t)


def loop_and_spur_pi1(k: int, spur: tuple[int, Optional[int]]) -> Union[LoopAndSpur, Rejected]:
    """The loop-and-spur picture with orbifold fundamental group of order k*|beta|.

    The order is recomputed from the abelianized presentation via Smith
    normal form and must agree with the closed formula.  beta = 0 is
    rejected because the link would be S^2 x S^1, and k = 3 is always
    rejected (the three-fold cover would have k + 1 = 4 fixed points).
    A section beta of None means the type only: the result carries no
    order, and k = 3 is still rejected.
    """
    if k not in (2, 3):
        raise ValueError("loop isotropy order must be 2 or 3")
    alpha, beta = spur
    if alpha < 1:
        raise ValueError("spur order must be >= 1")
    order = None
    if beta is not None:
        if gcd(alpha, beta) != 1:
            raise ValueError(f"spur pair ({alpha}, {beta}) is not coprime")
        inv = _loop_spur_presentation(k, beta).abelian_invariants()
        if beta == 0:
            if inv.finite:
                raise AssertionError("abelianization must be infinite when beta = 0")
            return Rejected(
                reason="the link of the loop vertex would be S^2 x S^1 (beta = 0)",
                tag=TAG_S2XS1,
            )
        order = k * abs(beta)
        if inv.order != order:
            raise AssertionError(
                f"presentation pipeline gave order {inv.order}, closed formula {order}"
            )
    if k == 3:
        return K_PLUS_ONE
    return LoopAndSpur(
        k=k,
        spur=(alpha, beta),
        orbifold_pi1_order=order,
        double_cover=_double_cover_descriptor(alpha),
    )


def classify(
    g: SingularGraph, invariants: Optional[InvariantTuple] = None
) -> ClassificationResult:
    """Classify an action from its singular multigraph.

    The invariant triple is required (and must be realizable) exactly when
    the completed graph is a triangle on three vertices; its denominators
    must then match the edge isotropy orders as multisets (virtual edges
    count as order 1).
    """
    rejected = validate_graph(g)
    if rejected is not None:
        return rejected

    if g.has_boundary_fixed_set:
        soul = g.soul_isotropy
        if soul is None:
            raise ValueError("soul isotropy is required for the boundary-fixed-set branch")
        if soul == CIRCLE:
            return FixedPointHomogeneous(
                lens_order=None,
                note=(
                    "finite quotient of a weighted projective space; "
                    "the weights are not determined by the orbit graph"
                ),
            )
        return FixedPointHomogeneous(lens_order=int(soul))

    completed = virtual_edge_completion(g)

    if completed.vertex_count == 3:
        if invariants is None:
            raise ValueError("an invariant triple is required for the three-fixed-point branch")
        if len(invariants) != 3:
            raise ValueError("the invariant tuple must have exactly three entries")
        if not is_realizable(invariants):
            return PAIRWISE_UNEQUAL
        edge_orders = sorted(e.order for e in completed.edges)
        denominators = sorted(e.denominator for e in invariants.entries)
        if edge_orders != denominators:
            raise ValueError(
                f"edge isotropy orders {edge_orders} do not match invariant denominators {denominators}"
            )
        descriptor = weights_from_invariants(invariants)
        return WCPQuotient(descriptor=descriptor, invariants=invariants)

    loops = [e for e in completed.edges if e.is_loop]
    if loops:
        loop = loops[0]
        spur = next(e for e in completed.edges if not e.is_loop)
        k = loop.order
        if k > 3:
            return Rejected(
                reason=(
                    f"a loop of isotropy order {k} leaves no spherical space of directions "
                    "at its fixed point"
                ),
                tag=TAG_LOOP_ORDER_BOUND,
            )
        beta = spur.beta
        if beta is None and spur.virtual:
            # a virtual spur carries no finite isotropy; the smallest section
            # gauge (1, 1) applies and the orbifold group has order k
            beta = 1
        return loop_and_spur_pi1(k, (spur.order, beta))

    # two vertices, no loop: suspension of the common space of directions
    orders = tuple(e.order for e in completed.edges)
    betas = [e.beta for e in completed.edges]
    if completed.edges and all(b is not None for b in betas):
        presentation = SeifertPresentation([(e.order, e.beta) for e in completed.edges])
        boundary = recognize_boundary(presentation)
        if boundary.label == BoundaryLabel.S2XS1:
            return Rejected(
                reason="the space of directions would be S^2 x S^1, which is not spherical",
                tag=TAG_S2XS1,
            )
        return Suspension(orders=orders, presentation=presentation, boundary=boundary)
    return Suspension(orders=orders, presentation=None, boundary=None)
