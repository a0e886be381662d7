"""Sampled metric models of circle-action quotients.

sample_quotient draws N quasi-uniform seeded points on S^3, appends exact
representatives of the singular orbits (the coordinate circles z2 = 0 and
z1 = 0, plus, at unit weights, the eigenlines of one element per rotation
of Gamma bar other than the identity: the circles fixed by some R(theta)
gamma), and evaluates the full quotient distance matrix with the action's
one orbit-distance engine, which the space keeps.  Sampling at 2N reuses
the same Gaussian stream, so the first N random points of the finer space
coincide with the coarser ones; the branched-cover certificate relies on
that prefix property.  regenerate also reuses the coarser space's
engine and distances: the block among its random points and marks is
copied, which saves aligning the pairs it holds only at weights other
than (+-1, +-1): unit weights evaluate every row chunk whole.  The
engine's alignment is not bit-symmetric in its two points, so each
computed pair keeps the orientation a fresh sample gives it, the lower
index as the row; the regenerated matrix is then bit-identical to a fresh
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, tau

import numpy as np

from .actions import IsometricActionSpec
from .engine import SINGULAR_TOL, DistanceEngine


TRIANGLE_TOL = 1e-9
# entries the complete triangle scan may read before the sampled check is
# cheaper: both took about 35 ms on a 2-vCPU Xeon VM (one BLAS thread), the
# scan at about 3 ns per entry against the RANDOM_TRIPLES draws
FULL_SCAN_ENTRIES = 12 * 10**6
RANDOM_TRIPLES = 10**6
TRIPLE_CHUNK = 1 << 16


class MetricValidationError(ValueError):
    """A produced distance matrix violated a metric-space invariant."""


@dataclass
class MarkedPoint:
    """A distinguished sample: index into the point list, a human-readable
    label, and the order of its finite isotropy group (1 means principal)."""

    index: int
    label: str
    isotropy: int


@dataclass(eq=False)
class SampledMetricSpace:
    """Points with their full distance matrix and marked samples.

    A space is a quotient exactly when spec, the action spec it was sampled
    from, is set, and engine, the action's distance engine, with it;
    spec.samples is then its requested sample count.  A branched cover sets
    sheet_swap, the index array of its sheet swap sigma: point i and point
    sheet_swap[i] are the two lifts of one base point (a branch point is its
    own image), and validate_metric requires the distances to be exactly
    invariant under it.
    """

    points: np.ndarray
    dist: np.ndarray
    marked: list[MarkedPoint]
    seed: int = 0
    spec: IsometricActionSpec | None = None
    engine: DistanceEngine | None = None
    sheet_swap: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    def finite_isotropy_marks(self) -> list[MarkedPoint]:
        return [m for m in self.marked if m.isotropy >= 2]

    def diameter(self) -> float:
        return float(self.dist.max())


def validate_metric(space: SampledMetricSpace) -> None:
    """Enforce the metric invariants: finite entries, symmetry, zero
    diagonal, entries in [0, pi], exact invariance under the sheet swap when
    the space has one, and the triangle inequality: a complete scan when it
    reads at most FULL_SCAN_ENTRIES entries (sum over its passes i of
    (n - 1 - i)^2: about n^3/3, up to 330 points; with a sheet swap about
    n^3/6, up to about 415), a million seeded random triples beyond.  The
    complete scan checks every triple the sampled one draws.

    Every space is scanned as one with a sheet swap sigma, a plain space
    with the trivial swap sigma = arange(n), by `_worst_full_slack` on d
    in `_orbit_order(sigma)`; the trivial swap's order is the identity, so
    a plain space's d is read in place.  A given sheet swap must be an
    involution of the point indices with d[sigma[i], sigma[j]] == d[i, j]
    bit for bit; it is compared TRIPLE_CHUNK entries at a time.

    The random triples are drawn and checked TRIPLE_CHUNK at a time, so the
    check holds O(TRIPLE_CHUNK) extra memory however large the matrix is.
    The generator carries its state from one chunk to the next, so the
    chunks are the same triples as one draw of all of them, and the worst
    slack they reach is the same number.
    """
    d = space.dist
    n = len(d)
    if d.shape != (n, n) or n != len(space.points):
        raise MetricValidationError("distance matrix shape mismatch")
    # NaN fails every comparison below, so it must be refused first; with
    # finite entries, equality tests give the same verdicts as differences
    if not np.all(np.isfinite(d)):
        raise MetricValidationError("distance matrix has non-finite entries")
    if not np.array_equal(d, d.T):
        raise MetricValidationError("distance matrix is not symmetric")
    if np.diag(d).any():
        raise MetricValidationError("distance matrix has a nonzero diagonal")
    if d.min() < 0 or d.max() > pi + 1e-9:
        raise MetricValidationError("distance entries out of range")
    if space.sheet_swap is not None:
        _check_sheet_swap(d, space.sheet_swap)
    order, passes = _orbit_order(np.arange(n) if space.sheet_swap is None else space.sheet_swap)
    if np.sum((n - 1 - passes) ** 2) > FULL_SCAN_ENTRIES:
        worst = _worst_sampled_slack(d, space.seed)
    elif space.sheet_swap is None:
        # the trivial swap's order is the identity: d is read in place
        worst = _worst_full_slack(d, passes)
    else:
        worst = _worst_full_slack(d[np.ix_(order, order)], passes)
    if worst > TRIANGLE_TOL:
        raise MetricValidationError("triangle inequality violated")


def _check_sheet_swap(d: np.ndarray, sigma: np.ndarray) -> None:
    """Refuse a sheet swap that is not an involution of the indices of d,
    or under which d is not exactly invariant."""
    n = len(d)
    sigma = np.asarray(sigma)
    if (
        sigma.shape != (n,)
        or not np.issubdtype(sigma.dtype, np.integer)
        or np.any((sigma < 0) | (sigma >= n))
        or not np.array_equal(sigma[sigma], np.arange(n))
    ):
        raise MetricValidationError("sheet swap is not an involution of the points")
    # one row per orbit: the condition at row sigma(i) is the one at row i
    # with the columns read through sigma
    rows = np.flatnonzero(np.arange(n) <= sigma)
    step = max(1, TRIPLE_CHUNK // max(n, 1))
    for r0 in range(0, len(rows), step):
        r = rows[r0 : r0 + step]
        if not np.array_equal(d[sigma[r]].take(sigma, axis=1), d[r]):
            raise MetricValidationError("distance matrix is not invariant under its sheet swap")


def _worst_full_slack(d: np.ndarray, passes: np.ndarray) -> float:
    """Largest d[i, j] - d[i, k] - d[k, j] over all triples with i != k,
    from the passes at the rows in passes.

    One pass per row i over the entries (k, j) with k, j > i: d is exactly
    symmetric, so |d[i, j] - d[k, j]| - d[i, k] checks the long sides ij
    and kj of the triangle i, j, k.  An inequality d[x, y] <= d[x, z] +
    d[z, y] of three distinct points is reached in the pass
    i = min(x, y, z): at (k, j) = (x, y) when i = z is the middle point,
    and at (k, j) = (z, y) when i = x is an end of the long side.  Columns
    j < i would only repeat inequalities of earlier passes.  j = k gives
    the slack 0 of a repeated point.  passes = arange(n - 1) runs every
    pass; `_orbit_order` skips those a sheet swap makes redundant.

    The differences are written into one work buffer of 2 (n - 1)^2
    entries, and passes i and i + 1, when both are asked for,
    are one (2, m, m) call on pass i's block of side m = n - 1 - i.  Pass
    i + 1 gains a row k = i + 1, whose slack is |x - x| - 0, and a column
    j = i + 1, whose |d[k, i + 1] - 0| equals the d[i + 1, k] that j = k
    already gives: every slack stays what pass i + 1 alone computes, bit
    for bit, for the exactly symmetric d that `validate_metric` checks
    first.
    """
    n = len(d)
    work = np.empty(2 * (n - 1) ** 2)
    worst = -np.inf
    t = 0
    while t < len(passes):
        i = int(passes[t])
        count = 2 if t + 1 < len(passes) and passes[t + 1] == i + 1 else 1
        rows = d[i : i + count, i + 1 :]
        m = n - 1 - i
        diff = work[: count * m * m].reshape(count, m, m)
        np.abs(np.subtract(d[i + 1 :, i + 1 :], rows[:, None, :], out=diff), out=diff)
        worst = max(worst, float((diff.max(axis=2) - rows).max()))
        t += count
    return worst


def _orbit_order(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, passes) of the triangle scan under the involution sigma:
    each orbit {x, sigma x} in adjacent positions, ordered by its smaller
    index, and the first position of each orbit that has a pass; for the
    trivial sigma = arange(n), the identity and the passes 0 ... n - 2.

    Let d be exactly sigma-invariant and permuted into this order.  Then
    sigma swaps the two positions of each orbit, and every position after
    the second one of an orbit lies in a later orbit.  So sigma maps each
    triangle of the pass at a second position i to a triangle whose
    smallest position is i - 1, and the pass at i - 1 evaluates the same
    expression of the same entries at (sigma k, sigma j): a skipped pass
    cannot exceed the kept one, and `_worst_full_slack` over these passes
    is that over every pass of the permuted matrix, bit for bit.  It may
    differ in the last bits from the scan of d in its own order, since the
    pass that reaches a triangle fixes which of its short sides is
    subtracted first.
    """
    n = len(sigma)
    key = np.minimum(np.arange(n), sigma)
    order = np.lexsort((np.arange(n), key))
    # the last position's pass is empty
    return order, np.flatnonzero(np.diff(key[order][:-1], prepend=-1))


def _worst_sampled_slack(d: np.ndarray, seed: int) -> float:
    """Largest d[i, j] - d[i, k] - d[k, j] over RANDOM_TRIPLES seeded
    triples (i, j, k), drawn TRIPLE_CHUNK rows at a time."""
    n = len(d)
    flat = d.ravel()
    rng = np.random.default_rng(seed ^ 0x7A11E)
    worst = -np.inf
    for start in range(0, RANDOM_TRIPLES, TRIPLE_CHUNK):
        rows = min(TRIPLE_CHUNK, RANDOM_TRIPLES - start)
        i, j, k = rng.integers(0, n, size=(rows, 3)).T
        slack = flat.take(i * n + j) - flat.take(i * n + k) - flat.take(k * n + j)
        worst = max(worst, float(slack.max()))
    return worst


def _sphere_points(count: int, seed: int) -> np.ndarray:
    gauss = np.random.default_rng(seed).standard_normal((count, 4))
    return gauss / np.linalg.norm(gauss, axis=1, keepdims=True)


# -- singular-orbit discovery ---------------------------------------------


def _eigenlines(engine: DistanceEngine) -> list[np.ndarray]:
    """Unit vectors spanning the isolated circles fixed by some R(theta)
    gamma, gamma the first element of each rotation other than the identity
    (engine.first_elements), in the order of Gamma, then of theta in [0, 2 pi).

    Every gamma commutes with the circle.  When |p| != |q| the circle's
    centralizer in SO(4) is the diagonal torus, so Gamma is diagonal, and
    R(theta) gamma fixes a point off the coordinate circles only when it is
    I: there is no other fixed circle.  At unit weights, with
    c = diag(1, 1, 1, -1) when p = -q and c = I otherwise, c R(theta) c is
    the scalar e^{i p theta}, so c gamma c is complex-linear in (z1, z2), a
    unitary 2 x 2 matrix M.  An eigenvector v of M with eigenvalue lambda
    spans a circle fixed by R(theta) gamma at theta = -arg(lambda) / p, with
    representative c (Re v1, Im v1, Re v2, Im v2).  The elements of one
    rotation differ by a scalar, so they share their two eigenlines, and
    the kernel, the identity rotation, fixes every orbit.
    """
    if engine.max_weight != 1:
        return []
    p, q = engine.p, engine.q
    moving = np.max(np.abs(engine.rotations - np.eye(3)), axis=(1, 2)) > SINGULAR_TOL
    c = np.diag([1.0, 1.0, 1.0, -1.0 if p == -q else 1.0])
    moved = c @ engine.gammas[engine.first_elements[moving]] @ c
    # column b of M is the image of the b-th complex basis vector
    eigvals, eigvecs = np.linalg.eig(moved[:, 0::2, 0::2] + 1j * moved[:, 1::2, 0::2])
    reps: list[np.ndarray] = []
    for thetas, vecs in zip(np.mod(-np.angle(eigvals) / p, tau), eigvecs):
        for k in np.argsort(thetas):
            v1, v2 = vecs[:, k]
            rep = c @ np.array([v1.real, v1.imag, v2.real, v2.imag])
            reps.append(rep / np.linalg.norm(rep))
    return reps


def discover_marked(engine: DistanceEngine) -> tuple[np.ndarray, list[MarkedPoint]]:
    """Representatives of the singular orbits, one per row, and their
    marks: one MarkedPoint per row, whose index is that row.

    The coordinate circles come first; at unit weights the eigenlines
    (`_eigenlines`) follow.  An orbit's isotropy order is the number of
    pairs (gamma, theta) with R(theta) gamma x = x over the order of the
    kernel K, the gamma that are some R(theta).  Both are read off the
    group's image, which the engine holds, with no distance computed.  At
    unit weights that image is engine.rotations, Gamma bar acting on Hopf
    images: a candidate is dropped when some rotation carries the Hopf
    image of an earlier kept one onto its own, and a kept one's isotropy
    order is the number of rotations that fix its Hopf image (within
    SINGULAR_TOL, entry by entry).  At other weights Gamma is diagonal, the
    coordinate circles are the only candidates, and every gamma fixes
    z2 = 0 at |p| thetas: its order is |p| |Gamma| / |K| = |p| engine.cosets,
    and that of z1 = 0 is |q| engine.cosets.
    """
    circles = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    if engine.max_weight != 1:
        return circles, [
            MarkedPoint(index=0, label="z2=0", isotropy=abs(engine.p) * engine.cosets),
            MarkedPoint(index=1, label="z1=0", isotropy=abs(engine.q) * engine.cosets),
        ]
    reps = np.vstack([circles, *_eigenlines(engine)])
    keep: list[int] = []
    marks = []
    # the images of the kept marks' Hopf points under every rotation
    images = np.empty((0, 3))
    for i, h in enumerate(engine.hopf(reps)):
        if np.any(np.max(np.abs(images - h), axis=1) <= SINGULAR_TOL):
            continue
        orbit = engine.rotations @ h
        images = np.concatenate([images, orbit])
        fixing = int(np.count_nonzero(np.max(np.abs(orbit - h), axis=1) <= SINGULAR_TOL))
        label = ("z2=0", "z1=0")[i] if i < 2 else f"singular:{sum(k >= 2 for k in keep)}"
        marks.append(MarkedPoint(index=len(keep), label=label, isotropy=fixing))
        keep.append(i)
    return reps[keep], marks


# -- quotient sampling ------------------------------------------------------


def sample_quotient(spec: IsometricActionSpec) -> SampledMetricSpace:
    """Sample the quotient of S^3/Gamma by the weighted circle action.

    Returns N quasi-uniform points plus exact singular-orbit representatives,
    with the full matrix of quotient distances.  The result is validated as
    a metric space before it is returned, and keeps the engine built here.
    """
    engine = DistanceEngine(spec.weights, spec.gamma)
    return _quotient_space(spec, engine, *discover_marked(engine))


def _quotient_space(
    spec: IsometricActionSpec,
    engine: DistanceEngine,
    marked_reps: np.ndarray,
    marks: list[MarkedPoint],
    known=None,
) -> SampledMetricSpace:
    """The validated quotient of spec sampled by engine, which it keeps, the
    singular orbits marked_reps appended after its random points, the k-th
    row marked as marks[k]; known is passed to the engine."""
    random_points = _sphere_points(spec.samples, spec.seed)
    points = np.vstack([random_points, marked_reps])
    dist = engine.distance_matrix(points, known=known)
    marked = [
        MarkedPoint(index=spec.samples + k, label=m.label, isotropy=m.isotropy)
        for k, m in enumerate(marks)
    ]
    space = SampledMetricSpace(
        points=points,
        dist=dist,
        marked=marked,
        seed=spec.seed,
        spec=spec,
        engine=engine,
    )
    validate_metric(space)
    return space


def regenerate(space: SampledMetricSpace, samples: int) -> SampledMetricSpace:
    """Rebuild the same space at a different sampling resolution.

    The random draw extends the original Gaussian stream, so the first
    min(N, N') random points of the two spaces agree exactly.  A quotient
    keeps the marked singular orbits and the engine of space: they depend
    only on the action, not on the sampling, so neither is built again.
    The distances among those shared random points and the marks are
    copied from space.dist; at weights other than (+-1, +-1) only pairs
    that touch a fresh point are aligned, while at unit weights the
    engine evaluates every row chunk whole and the copy changes no bit.
    Every pair keeps its orientation in a fresh sample (marks
    come last, so the lower index is the row in both), which makes the
    result bit-identical to sample_quotient(spec.with_samples(samples)).
    Only quotients carry an action spec; any other space raises ValueError.
    """
    if space.spec is None:
        raise ValueError("cannot regenerate a space without an action spec")
    spec = space.spec.with_samples(samples)
    rows = [m.index for m in space.marked]
    shared = min(space.spec.samples, samples)
    old = np.r_[:shared, rows]
    block = space.dist if shared == space.spec.samples else space.dist[np.ix_(old, old)]
    known = (np.r_[:shared, samples : samples + len(rows)], block)
    return _quotient_space(spec, space.engine, space.points[rows], space.marked, known)
