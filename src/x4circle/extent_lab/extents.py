"""q-extents of sampled metric spaces.

The q-extent is the maximum, over q-tuples of points (repetition allowed),
of the average pairwise distance.  xt_2 is exact trivially (maximum
entry); xt_3 is computed exactly up to 300 points and otherwise estimated
by seeded exchange ascent from 64 random starts.  Everything is a
deterministic function of the space and its seed.

The 64 restarts ascend together: each sweep over the q positions scores
every candidate index for all restarts at once, as the sum of the rows of
the other q - 1 indices, and moves a restart to its first best index
only when that is strictly better.  A restart whose last sweep moved
nothing is unchanged by further sweeps, so this is the same arithmetic,
and gives the same value and witness, as ascending each restart alone.
The sweep holds two (RESTARTS, n) arrays, about 2 * RESTARTS * n * 8
bytes (1 MB at n = 1000), where one restart at a time held O(n).

The exact xt_3 is a branch-and-bound search.  Farthest-point traversal
splits the points into at most round(sqrt(n)) non-empty cells, and M[a, b]
is the largest distance between cell a and cell b.  For cells a <= b <= c,
(M[a, b] + M[a, c]) + M[b, c] bounds the summed distances of every point
triple drawn from them.  Floating-point addition is monotone, so the bound
needs no triangle inequality and holds for any symmetric matrix.  The cell
triple with the largest bound is enumerated first, which gives a lower
bound; then each cell pair (a, b), best bound first, is enumerated against
every cell c whose bound still reaches the running best, in broadcast
blocks of at most BLOCK elements.  Triples within a few rounding slacks of
the best are recomputed in the order of the brute-force scan this replaces,
((d[i, j] + d[i, k]) + d[j, k]) / 3 over sorted i <= j <= k, and the
largest value with the lexicographically smallest triple is returned: the
same value and witness, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import pi, sqrt

import numpy as np

from .spaces import SampledMetricSpace


SMALL_BOUND = pi / 3.0
EXACT_LIMIT = 300
RESTARTS = 64
SLACK = 1e-12  # summation-order rounding allowance, relative to max |d|
BLOCK = 1 << 18  # elements in one broadcast block of the exact xt_3 search


def _pairwise_mean(d: np.ndarray, idx) -> float:
    """Mean of d over the pairs a < b of the index tuple, summed in order."""
    pairs = list(combinations(idx, 2))
    if not pairs:
        return 0.0
    return sum((d[a, b] for a, b in pairs), 0.0) / len(pairs)


@dataclass
class ExtentReport:
    q: int
    value: float
    witness: tuple[int, ...]
    method: str  # "exact" or "heuristic"
    restarts: int | None
    sample_size: int

    def witness_average(self, space: SampledMetricSpace) -> float:
        return _pairwise_mean(space.dist, self.witness)


def _extent_two(space: SampledMetricSpace) -> ExtentReport:
    d = space.dist
    flat = int(np.argmax(d))
    i, j = divmod(flat, len(d))
    return ExtentReport(
        q=2,
        value=float(d[i, j]),
        witness=(min(i, j), max(i, j)),
        method="exact",
        restarts=None,
        sample_size=len(d),
    )


def _cells(d: np.ndarray, count: int) -> list[np.ndarray]:
    """Split the points into at most `count` cells by farthest-point traversal.

    Each point joins its nearest centre, the first on ties.  A centre is at
    positive distance from every other, so it joins its own cell and no cell
    is empty.  Once every point is at distance 0 from a centre, a further
    centre would repeat one and own no point, so the traversal stops.
    """
    centers = [0]
    near = d[0].copy()
    for _ in range(1, count):
        far = int(np.argmax(near))
        if near[far] == 0:
            break
        centers.append(far)
        np.minimum(near, d[far], out=near)
    labels = np.argmin(d[centers], axis=0)
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])


def _block_sums(d: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(d[i, j] + d[i, k]) + d[j, k] over the block i x j x k."""
    i = i[:, None]
    return (d[i, j][:, :, None] + d[i, k][:, None, :]) + d[j[:, None], k][None, :, :]


class _TripleSearch:
    """Running maximum of the three-point average over enumerated blocks.

    `top` is the largest block sum seen.  Each block keeps the triples whose
    sum is within 2 * tol of the running top and recomputes their average in
    the brute force's order over the sorted triple.  A block sum differs from
    that recomputation by a few ulps, far below tol, so every maximising
    triple is recomputed, whatever order its block summed it in.
    """

    def __init__(self, d: np.ndarray, tol: float):
        self.d = d
        self.tol = tol
        self.top = -np.inf
        self.value = -np.inf
        self.witness = (0, 0, 0)

    def scan(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> None:
        """Every triple of i x j x k, in broadcast blocks of at most BLOCK
        elements (while len(j) <= BLOCK)."""
        k_step = max(1, BLOCK // len(j))
        i_step = max(1, BLOCK // (len(j) * min(len(k), k_step)))
        for k0 in range(0, len(k), k_step):
            for i0 in range(0, len(i), i_step):
                self._reduce(i[i0:i0 + i_step], j, k[k0:k0 + k_step])

    def _reduce(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> None:
        sums = _block_sums(self.d, i, j, k)
        block_top = float(sums.max())
        if block_top < self.top - 2 * self.tol:
            return
        self.top = max(self.top, block_top)
        p, q, r = np.nonzero(sums >= self.top - 2 * self.tol)
        t = np.sort(np.stack([i[p], j[q], k[r]]), axis=0)
        d = self.d
        vals = ((d[t[0], t[1]] + d[t[0], t[2]]) + d[t[1], t[2]]) / 3.0
        best = vals.max()
        tied = t[:, vals == best]
        witness = tuple(int(v) for v in tied[:, np.lexsort(tied[::-1])[0]])
        if best > self.value or (best == self.value and witness < self.witness):
            self.value = float(best)
            self.witness = witness


def _extent_three_exact(space: SampledMetricSpace) -> ExtentReport:
    d = space.dist
    n = len(d)
    cells = _cells(d, round(sqrt(n)))
    starts = np.cumsum([0] + [len(cell) for cell in cells[:-1]])
    order = np.concatenate(cells)
    m = np.maximum.reduceat(
        np.maximum.reduceat(d[np.ix_(order, order)], starts, axis=0), starts, axis=1
    )
    r = np.arange(len(cells))
    a, b, c = np.nonzero((r[:, None, None] <= r[None, :, None]) & (r[None, :, None] <= r[None, None, :]))
    # summed in the order _block_sums sums a triple from cells (a, b, c);
    # fl(x + y) is monotone in x and y, so no such block sum exceeds it
    bound = (m[a, b] + m[a, c]) + m[b, c]
    search = _TripleSearch(d, SLACK * float(np.abs(d).max()))
    t = int(np.argmax(bound))
    search.scan(cells[a[t]], cells[b[t]], cells[c[t]])
    # (a, b, c) come in lexicographic order, so each cell pair is one run;
    # the running top only rises, so the first pair below it ends the search
    first = np.nonzero(np.diff(a * len(cells) + b, prepend=-1))[0]
    pair_bound = np.maximum.reduceat(bound, first)
    runs = np.split(np.arange(len(bound)), first[1:])
    for g in np.argsort(-pair_bound, kind="stable"):
        if pair_bound[g] < search.top - search.tol:
            break
        run = runs[g][bound[runs[g]] >= search.top - search.tol]
        k = np.concatenate([cells[x] for x in c[run]])
        search.scan(cells[a[run[0]]], cells[b[run[0]]], k)
    return ExtentReport(
        q=3,
        value=search.value,
        witness=search.witness,
        method="exact",
        restarts=None,
        sample_size=n,
    )


def _extent_heuristic(space: SampledMetricSpace, q: int) -> ExtentReport:
    d = space.dist
    n = len(d)
    rng = np.random.default_rng(space.seed + 7919 * q)
    # one draw per restart, as the restarts were drawn one at a time
    idx = np.array([rng.integers(0, n, size=q) for _ in range(RESTARTS)])
    restarts = np.arange(RESTARTS)
    score = np.empty((RESTARTS, n), dtype=d.dtype)
    row = np.empty_like(score)
    improved = True
    while improved:
        improved = False
        for pos in range(q):
            # d[o1] + d[o2] + ... over the other positions, left to right:
            # for a symmetric d, d[:, others].sum(axis=1) of every restart
            others = np.delete(idx, pos, axis=1)
            # mode="clip" takes into out directly; "raise" would buffer it
            d.take(others[:, 0], axis=0, out=score, mode="clip")
            for col in others.T[1:]:
                score += d.take(col, axis=0, out=row, mode="clip")
            best = score.argmax(axis=1)
            moves = score[restarts, best] > score[restarts, idx[:, pos]]
            if moves.any():
                idx[moves, pos] = best[moves]
                improved = True
    best_val = -1.0
    best_idx = np.zeros(q, dtype=int)
    for ascended in idx:
        val = _pairwise_mean(d, ascended)
        if val > best_val + 1e-15:
            best_val = val
            best_idx = ascended
    witness = tuple(sorted(int(v) for v in best_idx))
    return ExtentReport(
        q=q,
        value=float(_pairwise_mean(d, witness)),
        witness=witness,
        method="heuristic",
        restarts=RESTARTS,
        sample_size=n,
    )


def extent(space: SampledMetricSpace, q: int, method: str | None = None) -> ExtentReport:
    """q-extent of a sampled space.

    q = 2 is the exact maximum distance.  q = 3 is exact for up to 300
    points and estimated beyond by exchange ascent seeded from the space's
    seed and q; pass method="heuristic" to force the ascent (used to
    certify it against the exact value), or method="exact" to force the
    exact search at any size.  q >= 4 always uses the ascent.  Any other
    method raises ValueError.

    The exact xt_3 is the branch-and-bound cell search described in the
    module docstring.  It returns the largest ((d[i, j] + d[i, k]) +
    d[j, k]) / 3 over sorted i <= j <= k, with the lexicographically
    smallest such triple as witness.  Its cost is the point triples of the
    cell triples whose bound reaches xt_3: about 0.1% of all triples on a
    203-point Hopf/D3* quotient, but as many as the brute force on a round
    2-sphere, where a bound tight enough to prune needs cells far smaller
    than sqrt(n) of them can be.
    """
    if method not in (None, "exact", "heuristic"):
        raise ValueError(f"unknown extent method {method!r}")
    if q < 2:
        raise ValueError("extent order q must be at least 2")
    if space.size == 0:
        raise ValueError("empty space")
    if q == 2 and method != "heuristic":
        return _extent_two(space)
    if q == 3 and method != "heuristic" and (
        method == "exact" or space.size <= EXACT_LIMIT
    ):
        return _extent_three_exact(space)
    if method == "exact":
        raise ValueError("exact enumeration is only available for q in {2, 3}")
    return _extent_heuristic(space, q)


def check_tol(tol: float) -> None:
    """Refuse a tolerance outside (0, 1) radians, NaN included."""
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1) radians")


def is_small(xt3: float, tol: float = 0.02) -> tuple[bool, float]:
    """Whether xt_3 <= pi/3 + tol, together with the margin pi/3 - xt_3."""
    return xt3 <= SMALL_BOUND + tol, float(SMALL_BOUND - xt3)
