"""Exact integer linear algebra over arbitrary-precision integers.

Provides the invariant factors of an integer matrix (the diagonal of its
Smith normal form, without the unimodular transforms) and the
abelian-group invariants of integer relation matrices.  All arithmetic
uses Python ints, so nothing overflows.  The reduction runs modulo a
nonzero minor of maximal order, found by fraction-free elimination, so
every entry stays below that minor; the matrices are small (relation
matrices of group presentations and 2x3 weight matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod


Matrix = list[list[int]]


def _rank_and_minor(rows: Matrix, cols: int) -> tuple[int, int]:
    """Rank r of the matrix and |det| of one nonsingular r x r submatrix.

    Fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of the input, so no entry outgrows the Hadamard bound.  The
    empty or zero matrix has rank 0 and minor 1.
    """
    m = [row[:] for row in rows]
    rank, prev = 0, 1
    for c in range(cols):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pivot = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            for j in range(c + 1, cols):
                row[j] = (row[j] * pivot[c] - row[c] * pivot[j]) // prev
            row[c] = 0
        prev = pivot[c]
        rank += 1
    return rank, abs(prev)


def smith_normal_form(a: Matrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form: d1 | d2 | ... >= 0.

    Returns the min(rows, cols) invariant factors of the matrix, nonzero
    ones first.  With r the rank and N a nonzero r x r minor, every
    nonzero factor divides N, so the row lattice L may be enlarged to
    L + N Z^cols: its quotient is the sum of Z/d_k (k <= r) and cols - r
    copies of Z/N, from which the d_k are read off.  That lets the row
    and column reduction run modulo N, so no entry grows past N; reducing
    over the integers instead lets entries grow doubly exponentially in
    the number of pivot changes (thousands of digits on 7 x 4 inputs).
    """
    cols = len(a[0]) if a else 0
    nonzero = [row for row in a if any(row)]
    rank, modulus = _rank_and_minor(nonzero, cols)
    m = [[x % modulus for x in row] for row in nonzero]
    rows = len(m)

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        # dst += f * src
        m[dst] = [(x + f * y) % modulus for x, y in zip(m[dst], m[src])]

    def add_col(src, dst, f):
        for row in m:
            row[dst] = (row[dst] + f * row[src]) % modulus

    limit = min(rows, cols)
    factors = [modulus] * cols
    for t in range(limit):
        # pivot with minimal nonzero residue in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] and (pivot is None or m[i][j] < m[pivot[0]][pivot[1]]):
                    pivot = (i, j)
        if pivot is None:
            break
        m[t], m[pivot[0]] = m[pivot[0]], m[t]
        swap_cols(t, pivot[1])
        # clear the pivot column, then the pivot row; a nonzero remainder
        # (smaller than the pivot) becomes the pivot and restarts the sweep
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    add_row(t, i, -(m[i][t] // m[t][t]))
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    add_col(t, j, -(m[t][j] // m[t][t]))
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
        factors[t] = gcd(m[t][t], modulus)

    # Z/a + Z/b = Z/gcd + Z/lcm: fold the cyclic orders into a chain
    for i in range(cols):
        for j in range(i + 1, cols):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors[:rank]) + (0,) * (min(len(a), cols) - rank)


def primitive(vec: list[int]) -> list[int]:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = gcd(*vec)
    if g <= 1:
        return list(vec)
    return [x // g for x in vec]


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors of Z^gens / rowspace(relations)."""

    torsion: tuple[int, ...]
    free_rank: int

    @property
    def finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return prod(self.torsion) if self.finite else None


def abelian_invariants(relations: Matrix, generators: int) -> AbelianInvariants:
    """Structure of the abelian group with the given relation rows.

    Rows are relator exponent vectors over `generators` unknowns.  Invariant
    factors equal to 1 are dropped from the torsion list.
    """
    if not relations:
        return AbelianInvariants(torsion=(), free_rank=generators)
    if any(len(row) != generators for row in relations):
        raise ValueError("relation rows must have one entry per generator")
    nonzero = [d for d in smith_normal_form(relations) if d != 0]
    rank = len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return AbelianInvariants(torsion=torsion, free_rank=generators - rank)
