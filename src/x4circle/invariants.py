"""Exact invariant tuples of circle actions with three or more fixed points.

An action with n isolated fixed points is encoded by an ordered tuple of
rationals (b1/a1, ..., bn/an), one fraction per arc of finite isotropy in
the cyclic arrangement around the orbit 2-sphere (order 1 arcs contribute
integer entries).  Two tuples describe the same action when they differ by
a composition of three moves:

  * rotation       -- (t1, t2, ..., tn) -> (t2, ..., tn, t1),
  * reversal       -- (t1, ..., tn) -> (-tn, ..., -t1),
  * translation by k -- (t1, ..., tn) -> (t1 + k, ..., tn + k), k an integer.

Everything here is exact rational arithmetic (`fractions.Fraction`); no
floats appear anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterable, Union


@dataclass(frozen=True)
class InvariantTuple:
    """Ordered tuple of rational invariants, length >= 2.

    Entries are Fractions; a string entry is read by `Fraction` ("p/q" or
    "p", surrounding spaces allowed), and `str` of an entry writes it back.
    """

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Union[Fraction, int, str]]):
        parsed = tuple(Fraction(e) for e in entries)
        if len(parsed) < 2:
            raise ValueError("an invariant tuple needs at least two entries")
        object.__setattr__(self, "entries", parsed)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self) -> str:
        return f"InvariantTuple({', '.join(self.as_strings())})"

    def as_strings(self) -> list[str]:
        return [str(e) for e in self.entries]


def _dihedral_images(t: InvariantTuple) -> list[tuple[Fraction, ...]]:
    """All rotations of t and of its reversal (at most 2n distinct tuples)."""
    e = t.entries
    n = len(e)
    rev = tuple(-x for x in reversed(e))
    out = []
    for base in (e, rev):
        for s in range(n):
            out.append(base[s:] + base[:s])
    return out


def canonicalize(t: InvariantTuple) -> InvariantTuple:
    """Canonical representative of the equivalence class of t.

    Among the <= 2n rotation/reversal images, each translated by the unique
    integer putting its first entry into [0, 1), the lexicographically least
    tuple is returned.  The map is idempotent and constant on classes.
    """
    best = None
    for image in _dihedral_images(t):
        k = -floor(image[0])
        shifted = tuple(x + k for x in image)
        if best is None or shifted < best:
            best = shifted
    return InvariantTuple(best)


def are_equivalent(a: InvariantTuple, b: InvariantTuple) -> bool:
    """Whether a and b differ by rotations, reversals, and integer translations."""
    if len(a) != len(b):
        return False
    return canonicalize(a) == canonicalize(b)


def is_realizable(t: InvariantTuple) -> bool:
    """Whether the tuple can occur for an action with isolated fixed points.

    Cyclically consecutive entries must be unequal: equal neighbours would
    merge the two fixed points joined by the corresponding arc.  For n = 3
    this is the same as all entries being pairwise unequal.
    """
    e = t.entries
    n = len(e)
    return all(e[i] != e[(i + 1) % n] for i in range(n))


@dataclass(frozen=True)
class Rejected:
    """A configuration the positive-curvature constraints refuse, with the
    reason and the machine-readable citation tag that reports carry."""

    reason: str
    tag: str


TAG_PAIRWISE_UNEQUAL = "pairwise-unequal"
PAIRWISE_UNEQUAL = Rejected(
    reason="invariant entries must be pairwise unequal to bound three fixed points",
    tag=TAG_PAIRWISE_UNEQUAL,
)


def euler_sum(t: InvariantTuple) -> Fraction:
    """Generalized Euler number e = -(t1 + ... + tn), exact."""
    return -sum(t.entries, Fraction(0))


def cyclic_differences(t: InvariantTuple) -> tuple[Fraction, ...]:
    """Multiset of consecutive differences t_{i+1} - t_i (indices mod n).

    Returned sorted so that equal multisets compare equal.  The multiset is
    invariant under all three equivalence moves and always sums to zero.
    """
    e = t.entries
    n = len(e)
    diffs = [e[(i + 1) % n] - e[i] for i in range(n)]
    return tuple(sorted(diffs))
