"""Weight vectors of the projective 4-spaces attached to three-fixed-point data.

A realizable invariant triple (b1/a1, b2/a2, b3/a3) determines a two-row
integer matrix

    p = [[a1, a2, a3],
         [b1, b2, b3]]

of full rank.  The circle that collapses to the three-fixed-point space is
the integer kernel of p, a primitive vector (w1, w2, w3) with all entries
nonzero; the space is the corresponding weighted projective 4-space divided
by the residual finite group Z_abar x Z_bbar, where abar = gcd(a1, a2, a3)
and bbar = gcd(b1, b2, b3) (gcds taken ignoring zero entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import intlinalg
from .invariants import InvariantTuple, is_realizable


@dataclass(frozen=True)
class WeightTriple:
    """Primitive integer weight vector with all entries nonzero."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0 or self.c == 0:
            raise ValueError("weights must be nonzero")
        if gcd(self.a, self.b, self.c) != 1:
            raise ValueError("weights must have gcd 1")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class QuotientDescriptor:
    """Weighted projective space plus the residual cyclic factors."""

    weights: WeightTriple
    alpha_bar: int
    beta_bar: int


def _rows_from_invariants(t: InvariantTuple) -> tuple[list[int], list[int]]:
    if len(t) != 3:
        raise ValueError("exactly three invariants required")
    alphas = [e.denominator for e in t.entries]
    betas = [e.numerator for e in t.entries]
    return alphas, betas


def weights_from_invariants(t: InvariantTuple) -> QuotientDescriptor:
    """Kernel weights and residual factors of a realizable invariant triple.

    The weight vector is the primitive cross product of the two rows of p,
    computed exactly in integers.  Realizability (cyclically consecutive
    entries unequal, which for triples is pairwise unequal) guarantees all
    three kernel entries are nonzero; a zero entry is reported as an error
    rather than silently fixed.
    """
    if not is_realizable(t):
        raise ValueError("invariant triple is not realizable (entries must be pairwise unequal)")
    alphas, betas = _rows_from_invariants(t)
    a1, a2, a3 = alphas
    b1, b2, b3 = betas
    cross = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    if any(x == 0 for x in cross):
        raise ValueError("kernel has a zero weight; the triple does not span a projective space")
    w = intlinalg.primitive(cross)
    weights = WeightTriple(*w)
    return QuotientDescriptor(
        weights=weights,
        # gcd ignores zero entries; all zero gives 1
        alpha_bar=gcd(*alphas) or 1,
        beta_bar=gcd(*betas) or 1,
    )


def verify_kernel(weights: WeightTriple, t: InvariantTuple) -> bool:
    """Exact check that the weight vector kills both rows of p."""
    alphas, betas = _rows_from_invariants(t)
    w = weights.as_tuple()
    return (
        sum(a * x for a, x in zip(alphas, w)) == 0
        and sum(b * x for b, x in zip(betas, w)) == 0
    )
