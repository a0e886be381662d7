"""Sampled metric models of circle-action quotients and round spheres.

sample_quotient draws N quasi-uniform seeded points on S^3, appends exact
representatives of the singular orbits (the coordinate circles z2 = 0 and
z1 = 0, plus every locus fixed by some R(theta) gamma), and evaluates the
full quotient distance matrix with the orbit-distance engine.  Sampling at
2N reuses the same Gaussian stream, so the first N random points of the
finer space coincide with the coarser ones; the branched-cover certificate
relies on that prefix property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, tau

import numpy as np

from .actions import IsometricActionSpec, circle_matrix
from .engine import DistanceEngine, golden_max


MERGE_TOL = 1e-6
ROOT_TOL = 1e-7
MATCH_TOL = 1e-6
TRIANGLE_TOL = 1e-9
FULL_CHECK_LIMIT = 300
RANDOM_TRIPLES = 10**6


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
    points: np.ndarray
    dist: np.ndarray
    marked: list[MarkedPoint]
    kind: str = "quotient"
    seed: int = 0
    requested_samples: int = 0
    spec: IsometricActionSpec | None = None
    certificate: object | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    def finite_isotropy_marks(self) -> list[MarkedPoint]:
        return [m for m in self.marked if m.isotropy >= 2]

    def diameter(self) -> float:
        return float(self.dist.max())


def validate_metric(space: SampledMetricSpace, max_entry: float = pi) -> None:
    """Enforce the metric invariants: symmetry, zero diagonal, entry range,
    and the triangle inequality (full scan up to 300 points, a million
    seeded random triples beyond)."""
    d = space.dist
    n = len(d)
    if d.shape != (n, n) or n != len(space.points):
        raise MetricValidationError("distance matrix shape mismatch")
    if np.max(np.abs(d - d.T)) > 0:
        raise MetricValidationError("distance matrix is not symmetric")
    if np.max(np.abs(np.diag(d))) > 0:
        raise MetricValidationError("distance matrix has a nonzero diagonal")
    if d.min() < 0 or d.max() > max_entry + 1e-9:
        raise MetricValidationError("distance entries out of range")
    if n <= FULL_CHECK_LIMIT:
        for i in range(n):
            slack = d[i][None, :] - d[i][:, None] - d
            if slack.max() > TRIANGLE_TOL:
                raise MetricValidationError("triangle inequality violated")
    else:
        rng = np.random.default_rng(space.seed ^ 0x7A11E)
        idx = rng.integers(0, n, size=(RANDOM_TRIPLES, 3))
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        if np.max(d[i, j] - d[i, k] - d[k, j]) > TRIANGLE_TOL:
            raise MetricValidationError("triangle inequality violated")


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / norms


def _sphere_points(count: int, seed: int, dim: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _unit_rows(rng.standard_normal((count, dim)))


def sample_round_two_sphere(samples: int, seed: int = 0) -> SampledMetricSpace:
    """Quasi-uniform samples of the unit round 2-sphere, embedded in R^4."""
    if samples < 50:
        raise ValueError("at least 50 sample points are required")
    pts3 = _sphere_points(samples, seed, dim=3)
    points = np.hstack([pts3, np.zeros((samples, 1))])
    gram = pts3 @ pts3.T
    gram = (gram + gram.T) / 2.0
    dist = np.arccos(np.clip(gram, -1.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    space = SampledMetricSpace(
        points=points,
        dist=dist,
        marked=[],
        kind="round-s2",
        seed=seed,
        requested_samples=samples,
    )
    validate_metric(space)
    return space


# -- singular-orbit discovery ---------------------------------------------


def _theta_roots(spec: IsometricActionSpec) -> list[np.ndarray]:
    """Unit vectors spanning loci fixed by R(theta) gamma for some theta.

    Scans the smallest singular value of R(theta) gamma - I over theta for
    each gamma, polishes every detected valley at once with the engine's
    golden-section solver (maximizing -sigma_min), and keeps genuine roots
    whose fixed set is a circle (kernel elements fixing all of S^3 are
    skipped; they contribute to isotropy normalization instead).  Roots
    come in the order of spec.gamma, then of theta.
    """
    p, q = spec.weights
    max_w = max(abs(p), abs(q))
    k_grid = 2048 * max_w
    h = tau / k_grid
    eye = np.eye(4)

    def sigma_min(theta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        rot = np.zeros((len(theta), 4, 4))
        rot[:, 0, 0] = rot[:, 1, 1] = np.cos(p * theta)
        rot[:, 1, 0] = np.sin(p * theta)
        rot[:, 0, 1] = -rot[:, 1, 0]
        rot[:, 2, 2] = rot[:, 3, 3] = np.cos(q * theta)
        rot[:, 3, 2] = np.sin(q * theta)
        rot[:, 2, 3] = -rot[:, 3, 2]
        return np.linalg.svd(rot @ gamma - eye, compute_uv=False)[:, -1]

    thetas = np.arange(k_grid) * h
    detect = 8.0 * max_w * pi / k_grid + 1e-9
    valleys = []
    for gamma in spec.gamma:
        sigma = sigma_min(thetas, gamma)
        valley = (sigma <= np.roll(sigma, 1)) & (sigma <= np.roll(sigma, -1))
        valleys.append(valley & (sigma < detect))
    owner, t_idx = np.nonzero(valleys)
    gammas = spec.gamma[owner]
    centers = thetas[t_idx]
    neg_sigma, roots = golden_max(
        lambda theta: -sigma_min(theta, gammas), centers - h, centers + h, 60
    )

    reps: list[np.ndarray] = []
    for value, theta_star, gamma in zip(neg_sigma, roots, gammas):
        if -value > ROOT_TOL:
            continue
        fixed = circle_matrix(p, q, theta_star) @ gamma
        if np.max(np.abs(fixed - eye)) < 1e-6:
            continue  # kernel element: fixes everything
        _, svals, vt = np.linalg.svd(fixed - eye)
        if svals[-2] > 1e-5:
            continue  # isolated +1 eigenvector cannot happen in SO(4)
        rep = vt[-1]
        lead = np.nonzero(np.abs(rep) > 1e-8)[0][0]
        if rep[lead] < 0:
            rep = -rep
        reps.append(rep / np.linalg.norm(rep))
    return reps


def _stabilizer_count(spec: IsometricActionSpec, x: np.ndarray) -> int:
    """Number of pairs (gamma, theta) with R(theta) gamma x = x."""
    p, q = spec.weights
    x1 = complex(x[0], x[1])
    x2 = complex(x[2], x[3])
    count = 0
    for gamma in spec.gamma:
        w = gamma @ x
        w1 = complex(w[0], w[1])
        w2 = complex(w[2], w[3])
        if abs(x1) >= abs(x2):
            lead_x, lead_w, weight = x1, w1, p
        else:
            lead_x, lead_w, weight = x2, w2, q
        if abs(abs(lead_w) - abs(lead_x)) > MATCH_TOL:
            continue
        base = (np.angle(lead_x) - np.angle(lead_w)) / weight
        for k in range(abs(weight)):
            theta = base + tau * k / weight
            image = circle_matrix(p, q, theta) @ w
            if np.max(np.abs(image - x)) < MATCH_TOL:
                count += 1
    return count


_GENERIC_PROBES = (
    np.array([0.5377519909, -0.3616707624, 0.6612823052, 0.3678327414]),
    np.array([0.1739406507, 0.8325569561, -0.2881956200, 0.4401225868]),
    np.array([-0.6218804037, 0.2905338206, 0.5148500216, 0.5115842666]),
)


def _kernel_count(spec: IsometricActionSpec) -> int:
    counts = []
    for probe in _GENERIC_PROBES:
        counts.append(_stabilizer_count(spec, probe / np.linalg.norm(probe)))
    kernel = min(counts)
    if kernel < 1:
        raise RuntimeError("action kernel count must be at least 1")
    return kernel


def discover_marked(
    spec: IsometricActionSpec, engine: DistanceEngine
) -> tuple[np.ndarray, list[str], list[int]]:
    """Representatives, labels, and isotropy orders of the singular orbits.

    The coordinate circles are always marked first; loci fixed by nontrivial
    joint rotations follow.  Representatives at quotient distance below 1e-6
    are merged, keeping the earliest label.
    """
    roots = _theta_roots(spec)
    reps = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])] + roots
    labels = ["z2=0", "z1=0"] + ["singular"] * len(roots)
    stacked = np.array(reps)
    dist = engine.distance_matrix(stacked)
    keep: list[int] = []
    for i in range(len(reps)):
        if all(dist[i, j] > MERGE_TOL for j in keep):
            keep.append(i)
    kernel = _kernel_count(spec)
    final_reps = []
    final_labels = []
    isotropies = []
    singular_counter = 0
    for i in keep:
        stab = _stabilizer_count(spec, reps[i])
        if stab % kernel != 0:
            raise RuntimeError("stabilizer count is not a kernel multiple")
        label = labels[i]
        if label == "singular":
            label = f"singular:{singular_counter}"
            singular_counter += 1
        final_reps.append(reps[i])
        final_labels.append(label)
        isotropies.append(stab // kernel)
    return np.array(final_reps), final_labels, isotropies


# -- quotient sampling ------------------------------------------------------


def sample_quotient(spec: IsometricActionSpec) -> SampledMetricSpace:
    """Sample the quotient of S^3/Gamma by the weighted circle action.

    Returns N quasi-uniform points plus exact singular-orbit representatives,
    with the full matrix of quotient distances.  The result is validated as
    a metric space before it is returned.
    """
    engine = DistanceEngine(spec.weights, spec.gamma)
    random_points = _sphere_points(spec.samples, spec.seed)
    marked_reps, labels, isotropies = discover_marked(spec, engine)
    points = np.vstack([random_points, marked_reps])
    dist = engine.distance_matrix(points)
    marked = [
        MarkedPoint(index=spec.samples + i, label=labels[i], isotropy=isotropies[i])
        for i in range(len(labels))
    ]
    space = SampledMetricSpace(
        points=points,
        dist=dist,
        marked=marked,
        kind="quotient",
        seed=spec.seed,
        requested_samples=spec.samples,
        spec=spec,
    )
    validate_metric(space)
    return space


def regenerate(space: SampledMetricSpace, samples: int) -> SampledMetricSpace:
    """Rebuild the same space at a different sampling resolution.

    The random draw extends the original Gaussian stream, so the first
    min(N, N') random points of the two spaces agree exactly.
    """
    if space.kind == "quotient":
        if space.spec is None:
            raise ValueError("space carries no action spec to regenerate from")
        return sample_quotient(space.spec.with_samples(samples))
    if space.kind == "round-s2":
        return sample_round_two_sphere(samples, seed=space.seed)
    raise ValueError(f"cannot regenerate a space of kind {space.kind!r}")
