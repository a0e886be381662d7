"""Seifert presentations of closed oriented 3-manifolds fibered over S^2.

A presentation {g; (a1, b1), ..., (an, bn)} is kept unnormalized: the pairs
are coprime with a_i > 0 but the b_i are unconstrained, and the generalized
Euler number e = -(b1/a1 + ... + bn/an) is the complete gauge invariant.
The genus is always zero in this toolkit (base orbifold a 2-sphere).

The module treats presentations as given: it never flips fiber signs or
reorders fibers silently.  Orientation conventions therefore ride along
with the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .intlinalg import AbelianInvariants, abelian_invariants


INFINITE = inf


@dataclass(frozen=True)
class SeifertPresentation:
    """Unnormalized Seifert invariants {0; (a1, b1), ..., (an, bn)}."""

    genus: int
    fibers: tuple[tuple[int, int], ...]
    trivial_fibration: bool = False

    def __init__(self, genus, fibers, trivial_fibration=False):
        if genus != 0:
            raise ValueError("only genus 0 presentations are supported")
        fibers = tuple((int(a), int(b)) for a, b in fibers)
        for a, b in fibers:
            if a <= 0:
                raise ValueError(f"fiber order must be positive, got {a}")
            if gcd(a, b) != 1:
                raise ValueError(f"fiber pair ({a}, {b}) is not coprime")
        if not fibers and not trivial_fibration:
            raise ValueError(
                "empty fiber list is only allowed when flagged as the trivial fibration"
            )
        object.__setattr__(self, "genus", 0)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "trivial_fibration", bool(trivial_fibration))

    def __repr__(self) -> str:
        inner = ",".join(f"({a},{b})" for a, b in self.fibers)
        return f"{{0; {inner}}}"


def euler_number(p: SeifertPresentation) -> Fraction:
    """Generalized Euler number e = -(sum of b_i / a_i), exact."""
    return -sum((Fraction(b, a) for a, b in p.fibers), Fraction(0))


def normalize(p: SeifertPresentation) -> SeifertPresentation:
    """Normalized form: 0 < b_i < a_i for all exceptional fibers, plus one
    accumulated (1, b) fiber chosen so the Euler number is unchanged."""
    out = []
    e = euler_number(p)
    acc = Fraction(0)
    for a, b in p.fibers:
        if a == 1:
            continue
        r = b % a  # in (0, a) since gcd(a, b) = 1 and a > 1
        out.append((a, r))
        acc += Fraction(r, a)
    b_acc = -e - acc
    if b_acc.denominator != 1:
        raise AssertionError("normalization residue must be an integer")
    out.append((1, int(b_acc)))
    return SeifertPresentation(0, out)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation: generator names and relator words.

    A word is a tuple of signed 1-based generator indices (+i for the i-th
    generator, -i for its inverse).
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def relator_strings(self) -> list[str]:
        out = []
        for word in self.relators:
            parts = []
            i = 0
            while i < len(word):
                j = i
                while j < len(word) and word[j] == word[i]:
                    j += 1
                idx = abs(word[i]) - 1
                exp = (j - i) * (1 if word[i] > 0 else -1)
                parts.append(f"{self.generators[idx]}^{exp}")
                i = j
            out.append(" ".join(parts) if parts else "1")
        return out

    def abelianized_relations(self) -> list[list[int]]:
        """Exponent-sum matrix, one row per relator."""
        rows = []
        for word in self.relators:
            row = [0] * len(self.generators)
            for letter in word:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows

    def abelian_invariants(self) -> AbelianInvariants:
        return abelian_invariants(self.abelianized_relations(), len(self.generators))


def fundamental_group(p: SeifertPresentation) -> GroupPresentation:
    """Fundamental group of the Seifert manifold (genus 0):

      < q1, ..., qn, h | [q_i, h] = 1,  q_i^{a_i} h^{b_i} = 1,  q1...qn = 1 >

    Exactly n + 1 generators and 2n + 1 relators, in that order.
    """
    n = len(p.fibers)
    gens = tuple(f"q{i + 1}" for i in range(n)) + ("h",)
    h = n + 1
    relators = []
    for i in range(1, n + 1):
        relators.append((i, h, -i, -h))
    for i, (a, b) in enumerate(p.fibers, start=1):
        word = (i,) * a + ((h,) * b if b >= 0 else (-h,) * (-b))
        relators.append(word)
    relators.append(tuple(range(1, n + 1)))
    return GroupPresentation(generators=gens, relators=tuple(relators))


def abelian_order_two_fibers(p: SeifertPresentation) -> int | float:
    """Order of pi_1 for a two-fiber presentation: |a1*b2 + a2*b1|.

    Returns INFINITE when the determinant vanishes (the manifold is then
    S^2 x S^1 and the group is Z).  The determinant vanishes exactly when
    b1/a1 = -b2/a2, the equal-fraction degeneration in the orientation
    convention where the second fiber enters with opposite sign.
    """
    if len(p.fibers) != 2:
        raise ValueError("exactly two fibers required")
    (a1, b1), (a2, b2) = p.fibers
    d = abs(a1 * b2 + a2 * b1)
    if d == 0:
        return INFINITE
    return d


class BoundaryLabel:
    """Homeomorphism types recognized for links of fixed points."""

    SPHERE = "Sphere"
    LENS = "LensSpace"
    S2XS1 = "S2xS1"
    PRISM = "Prism"
    TETRAHEDRAL = "Tetrahedral"
    OTHER = "Other"


@dataclass(frozen=True)
class BoundaryRecognition:
    label: str
    order: int | None  # cyclic pi_1 order for LensSpace, else None
    admissible: bool | None  # None when unknown

    def describe(self) -> str:
        if self.label == BoundaryLabel.LENS:
            return f"LensSpace({self.order})"
        return self.label


def _pi1_finite(p: SeifertPresentation) -> bool:
    """Finiteness of pi_1 for genus-0 presentations with <= 3 exceptional fibers.

    pi_1 is finite iff the Euler number is nonzero and the base orbifold is
    spherical: with exceptional orders (a, b, c), all >= 2, this needs
    1/a + 1/b + 1/c > 1; with at most two exceptional fibers it is automatic.
    """
    if euler_number(p) == 0:
        return False
    orders = [a for a, _ in p.fibers if a > 1]
    if len(orders) <= 2:
        return True
    if len(orders) == 3:
        a, b, c = orders
        return Fraction(1, a) + Fraction(1, b) + Fraction(1, c) > 1
    return False


def recognize_boundary(p: SeifertPresentation) -> BoundaryRecognition:
    """Recognize the manifold of a presentation with at most three fibers.

    Two or fewer fibers resolve through the cyclic order |a1*b2 + a2*b1|
    (padding with (1, 0)): 0 -> S2xS1, 1 -> Sphere, d -> LensSpace(d).
    Three fibers are matched against the shape {(k, -1), (k, 1), (a, b)}:
    with a = 1 the manifold is a lens space of order k^2*|b| (or S2xS1 when
    b = 0); with a >= 2 it is Prism for k = 2 and Tetrahedral for k = 3.
    Admissibility means pi_1 is finite, which is what a link of a fixed
    point in a positively curved space requires.  Any unmatched shape is
    reported as Other with admissibility unknown rather than guessed.
    """
    fibers = list(p.fibers)
    if len(fibers) > 3:
        return BoundaryRecognition(BoundaryLabel.OTHER, None, None)

    if len(fibers) <= 2:
        while len(fibers) < 2:
            fibers.append((1, 0))
        two = SeifertPresentation(0, fibers)
        d = abelian_order_two_fibers(two)
        if d == INFINITE:
            return BoundaryRecognition(BoundaryLabel.S2XS1, None, False)
        if d == 1:
            return BoundaryRecognition(BoundaryLabel.SPHERE, 1, True)
        return BoundaryRecognition(BoundaryLabel.LENS, int(d), True)

    # three fibers: look for the loop-and-spur shape {(k,-1), (k,1), (a,b)}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            (ka, kb) = fibers[i]
            (kc, kd) = fibers[j]
            if ka != kc or ka < 2 or (kb, kd) != (-1, 1):
                continue
            k = ka
            (a, b) = [fibers[t] for t in range(3) if t not in (i, j)][0]
            if b == 0:
                # coprimality forces a = 1; Euler number vanishes
                return BoundaryRecognition(BoundaryLabel.S2XS1, None, False)
            if a == 1:
                return BoundaryRecognition(BoundaryLabel.LENS, k * k * abs(b), True)
            if k == 2:
                return BoundaryRecognition(BoundaryLabel.PRISM, None, _pi1_finite(p))
            if k == 3:
                return BoundaryRecognition(BoundaryLabel.TETRAHEDRAL, None, _pi1_finite(p))
            return BoundaryRecognition(BoundaryLabel.OTHER, None, None)
    return BoundaryRecognition(BoundaryLabel.OTHER, None, None)
