"""q-extents of sampled metric spaces.

The q-extent is the maximum, over q-tuples of points (repetition allowed),
of the average pairwise distance.  xt_2 is half-exact trivially (maximum
entry); xt_3 is enumerated exactly up to 300 points and otherwise estimated
by seeded exchange ascent from 64 random starts.  Everything is a
deterministic function of the space and its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .spaces import SampledMetricSpace


SMALL_BOUND = pi / 3.0
EXACT_LIMIT = 300
RESTARTS = 64


@dataclass
class ExtentReport:
    q: int
    value: float
    witness: tuple[int, ...]
    method: str  # "exact" or "heuristic"
    restarts: int | None
    sample_size: int

    def witness_average(self, space: SampledMetricSpace) -> float:
        idx = self.witness
        total = 0.0
        pairs = 0
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                total += space.dist[idx[a], idx[b]]
                pairs += 1
        return total / pairs if pairs else 0.0


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


def _extent_three_exact(space: SampledMetricSpace) -> ExtentReport:
    d = space.dist
    n = len(d)
    best_val = -1.0
    best = (0, 0, 0)
    for i in range(n):
        row = d[i]
        # averages over triples (i, j, k) with i <= j <= k
        avg = (row[:, None] + row[None, :] + d) / 3.0
        sub = avg[i:, i:]
        flat = int(np.argmax(np.triu(sub)))
        j_off, k_off = divmod(flat, len(sub))
        val = float(sub[j_off, k_off])
        if val > best_val:
            best_val = val
            best = (i, i + j_off, i + k_off)
    return ExtentReport(
        q=3,
        value=best_val,
        witness=best,
        method="exact",
        restarts=None,
        sample_size=n,
    )


def _ascend(d: np.ndarray, idx: np.ndarray) -> tuple[float, np.ndarray]:
    """Single-point exchange ascent on the average pairwise distance."""
    q = len(idx)
    idx = idx.copy()
    improved = True
    while improved:
        improved = False
        for pos in range(q):
            others = np.delete(idx, pos)
            score = d[:, others].sum(axis=1)
            best = int(np.argmax(score))
            if score[best] > score[idx[pos]] + 0.0:
                if best != idx[pos]:
                    idx[pos] = best
                    improved = True
    total = 0.0
    for a in range(q):
        for b in range(a + 1, q):
            total += d[idx[a], idx[b]]
    return total / (q * (q - 1) / 2), idx


def _extent_heuristic(
    space: SampledMetricSpace, q: int, restarts: int, seed: int
) -> ExtentReport:
    d = space.dist
    n = len(d)
    rng = np.random.default_rng(seed)
    best_val = -1.0
    best_idx = np.zeros(q, dtype=int)
    for _ in range(restarts):
        start = rng.integers(0, n, size=q)
        val, idx = _ascend(d, start)
        if val > best_val + 1e-15:
            best_val = val
            best_idx = idx
    witness = tuple(sorted(int(v) for v in best_idx))
    return ExtentReport(
        q=q,
        value=float(best_val),
        witness=witness,
        method="heuristic",
        restarts=restarts,
        sample_size=n,
    )


def extent(
    space: SampledMetricSpace,
    q: int,
    seed: int | None = None,
    restarts: int = RESTARTS,
    method: str | None = None,
) -> ExtentReport:
    """q-extent of a sampled space.

    q = 2 is the exact maximum distance.  q = 3 is enumerated exactly for up
    to 300 points and estimated by seeded exchange ascent beyond; pass
    method="heuristic" to force the ascent (used to certify it against the
    exact value), or method="exact" to force enumeration.  q >= 4 always
    uses the ascent.
    """
    if q < 2:
        raise ValueError("extent order q must be at least 2")
    if space.size == 0:
        raise ValueError("empty space")
    if seed is None:
        seed = space.seed + 7919 * q
    if q == 2 and method != "heuristic":
        return _extent_two(space)
    if q == 3 and method != "heuristic" and (
        method == "exact" or space.size <= EXACT_LIMIT
    ):
        return _extent_three_exact(space)
    if method == "exact":
        raise ValueError("exact enumeration is only available for q in {2, 3}")
    return _extent_heuristic(space, q, restarts, seed)


def is_small(space: SampledMetricSpace, tol: float = 0.02) -> tuple[bool, float]:
    """Whether xt_3 <= pi/3 + tol, together with the margin pi/3 - xt_3."""
    report = extent(space, 3)
    margin = SMALL_BOUND - report.value
    return report.value <= SMALL_BOUND + tol, float(margin)

