"""Weighted circle actions on the unit 3-sphere and their finite extensions.

The circle acts on S^3 in C^2 = R^4 by theta . (z1, z2) =
(e^{i p theta} z1, e^{i q theta} z2) with coprime nonzero weights (p, q).
A finite isometry group Gamma is accepted when every element commutes with
the circle: conjugation must fix the infinitesimal generator J.  The lab
samples S^3/Gamma with the circle acting on it; lifted to S^3, the circle
and Gamma normalize each other, and a connected group that normalizes a
finite group centralizes it.  An element with gamma J gamma^T = -J is
refused, since the circle would not act on S^3/Gamma.  The joint
transformations {R(theta) gamma} form a compact group, so the orbit
distance is a true metric on the quotient.

Presets: the trivial group; the cyclic group of order m acting by
(z1, z2) -> (zeta z1, conj(zeta) z2); and the binary dihedral group of
order 4m.  Both presets are right quaternion multiplications, which commute
with the Hopf weights (1, 1).  The cyclic preset is diagonal, so it commutes
with every weight pair; the binary dihedral preset commutes with no other
weights, and at (1, -1) its commuting embedding is c gamma c with
c = diag(1, 1, 1, -1).
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from math import cos, gcd, pi, sin

import numpy as np

from .engine import GRID_PER_WEIGHT, GROUP_TOL, first_of_each


ORTHOGONALITY_TOL = 1e-12
# most elements of a group: the closure check of validate_gamma takes
# |Gamma| Gram products of 16 |Gamma|^2 flops each, about 0.8 s and 2.4 MB
# at this bound on a 2-vCPU VM (one BLAS thread)
MAX_GROUP_ORDER = 512
# most Gram entries of one closure call of validate_gamma: the products of
# max(1, this // |Gamma|^2) elements with every element are formed at once,
# so a group of more than 256 elements still takes one element per call
CLOSURE_GRAM_ENTRIES = 2**16
# most grid cells the distance engine scans per pair of points,
# |Gamma| GRID_PER_WEIGHT max(|p|, |q|), at weights other than (+-1, +-1):
# unit weights scan no grid, and the trivial group fits up to
# max(|p|, |q|) = 4096
MAX_GRID_CELLS = 2**18
# most bytes of the largest distance matrix one `extent` or `check-q`
# request may allocate (`largest_matrix_bytes`); the whole request peaks
# at a few times this
MAX_MATRIX_BYTES = 2**29


def rotation_block(phi: float) -> np.ndarray:
    c, s = cos(phi), sin(phi)
    return np.array([[c, -s], [s, c]])


def circle_generator(p: int, q: int) -> np.ndarray:
    """Infinitesimal generator J = d/dtheta R(theta) at theta = 0."""
    out = np.zeros((4, 4))
    out[0, 1], out[1, 0] = -p, p
    out[2, 3], out[3, 2] = -q, q
    return out


def gamma_trivial() -> np.ndarray:
    return np.eye(4)[None, :, :].copy()


def gamma_cyclic(m: int) -> np.ndarray:
    """Order m, generated by (z1, z2) -> (zeta z1, conj(zeta) z2)."""
    if m < 1:
        raise ValueError("cyclic order must be >= 1")
    out = np.zeros((m, 4, 4))
    for k in range(m):
        phi = 2 * pi * k / m
        out[k, :2, :2] = rotation_block(phi)
        out[k, 2:, 2:] = rotation_block(-phi)
    return out


def _right_j_matrix() -> np.ndarray:
    # right quaternion multiplication by j: (z1, z2) -> (-z2, z1)
    out = np.zeros((4, 4))
    out[0, 2] = out[1, 3] = -1.0
    out[2, 0] = out[3, 1] = 1.0
    return out


def gamma_binary_dihedral(m: int) -> np.ndarray:
    """Order 4m: right multiplications by e^{i k pi / m} and e^{i k pi / m} j."""
    if m < 1:
        raise ValueError("binary dihedral parameter must be >= 1")
    cyc = gamma_cyclic(2 * m)
    return np.concatenate([cyc, _right_j_matrix() @ cyc])


def _check_group_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} exceeds the limit of {MAX_GROUP_ORDER} elements")


def parse_gamma(value) -> np.ndarray:
    """Parse the JSON form: "trivial" | "cyclic:m" | "binary-dihedral:m" |
    {"matrices": [...]}, m in ASCII digits without a leading zero.  A
    preset of order (m, or 4m) above MAX_GROUP_ORDER is refused unbuilt."""
    if isinstance(value, str):
        if value == "trivial":
            return gamma_trivial()
        preset = re.fullmatch(r"(cyclic|binary-dihedral):([1-9][0-9]*)", value)
        if preset is None:
            raise ValueError(f"unknown group preset {value!r}")
        cyclic, m = preset[1] == "cyclic", int(preset[2])
        _check_group_order(m if cyclic else 4 * m)
        return gamma_cyclic(m) if cyclic else gamma_binary_dihedral(m)
    if isinstance(value, dict) and "matrices" in value:
        return np.asarray(value["matrices"], dtype=float)
    raise ValueError("gamma must be a preset string or {'matrices': [...]}")


def validate_gamma(gammas: np.ndarray, p: int, q: int) -> None:
    """Reject element lists that do not define a group extending the action.

    Checks, in order: shape, at most MAX_GROUP_ORDER elements, finite
    entries, orthogonality (1e-12), orientation preservation, presence of
    the identity, distinctness, closure under composition, and
    commutation with the circle (gamma J gamma^T = J, within GROUP_TOL).
    Closure is checked on the products of a block of elements with every
    element, at most CLOSURE_GRAM_ENTRIES Gram entries per block, so at most
    a 512 KB Gram array; the verdict does not depend on the block size.
    """
    if gammas.ndim != 3 or gammas.shape[1:] != (4, 4):
        raise ValueError("gamma must have shape (count, 4, 4)")
    _check_group_order(len(gammas))
    # NaN fails every comparison below, so it must be refused first
    if not np.all(np.isfinite(gammas)):
        raise ValueError("gamma entries must be finite")
    g = len(gammas)
    if g == 0:
        raise ValueError("gamma must contain at least the identity")
    eye = np.eye(4)
    # an entry clipped to +-2 leaves its column's norm at least 2, so the
    # same elements fail, and products of huge entries cannot overflow
    bounded = np.clip(gammas, -2.0, 2.0)
    square = bounded.transpose(0, 2, 1) @ bounded
    not_orthogonal = np.max(np.abs(square - eye), axis=(1, 2)) > ORTHOGONALITY_TOL
    wrong_det = np.abs(np.linalg.det(bounded) - 1.0) > GROUP_TOL
    # the first element that fails either test decides the message, and
    # orthogonality is tested first on each element
    failing = np.flatnonzero(not_orthogonal | wrong_det)
    if len(failing):
        if not_orthogonal[failing[0]]:
            raise ValueError("gamma element is not orthogonal to 1e-12")
        raise ValueError("gamma element must preserve orientation (det +1)")
    if not np.any(np.max(np.abs(gammas - eye), axis=(1, 2)) <= GROUP_TOL):
        raise ValueError("gamma must contain the identity")
    if not first_of_each(gammas.reshape(g, 16)).all():
        raise ValueError("gamma contains duplicate elements")
    # orthogonal a, b have <a, b> = 4 - |a - b|^2 / 2 (Frobenius), so an
    # element within GROUP_TOL of a product, entry by entry, has inner
    # product above 4 - 8 GROUP_TOL^2 with it: only the elements above
    # 4 - 1e-6 are compared entry by entry
    flat = gammas.reshape(g, 16)
    step = max(1, CLOSURE_GRAM_ENTRIES // g**2)
    for i in range(0, g, step):
        prod = (gammas[i : i + step, None] @ gammas).reshape(-1, 16)
        j, k = np.nonzero(prod @ flat.T > 4.0 - 1e-6)
        matched = np.zeros(len(prod), dtype=bool)
        matched[j[np.max(np.abs(prod[j] - flat[k]), axis=1) <= GROUP_TOL]] = True
        if not matched.all():
            raise ValueError("gamma is not closed under composition")
    j_gen = circle_generator(p, q)
    if np.any(np.abs(gammas @ j_gen @ gammas.transpose(0, 2, 1) - j_gen) > GROUP_TOL):
        raise ValueError(
            "gamma element does not commute with the circle action "
            "(gamma J gamma^T must be J)"
        )


@dataclass(eq=False)
class IsometricActionSpec:
    """A weighted circle action on S^3/Gamma plus sampling parameters.

    weights: coprime nonzero pair (p, q).
    gamma: (count, 4, 4) array of orthogonal matrices forming a finite group
      that commutes with the circle; validated at construction, once the
      engine's grid is found to fit in MAX_GRID_CELLS.
    samples: number of quasi-uniform sample points (at least 50).
    seed: RNG seed; together with the rest of the spec it determines every
      reported number bit for bit.
    """

    weights: tuple[int, int]
    gamma: np.ndarray = field(default_factory=gamma_trivial)
    samples: int = 800
    seed: int = 0

    def __post_init__(self):
        p, q = self.weights
        p, q = int(p), int(q)
        if p == 0 or q == 0:
            raise ValueError("circle weights must be nonzero")
        if gcd(p, q) != 1:
            raise ValueError(f"weights {(p, q)} are not coprime")
        self.weights = (p, q)
        self.gamma = np.asarray(self.gamma, dtype=float)
        # before validate_gamma, whose last check builds J from the weights
        count = len(self.gamma) if self.gamma.ndim == 3 else 0
        cells = count * GRID_PER_WEIGHT * max(abs(p), abs(q))
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"weights {(p, q)} with {count} group elements need {cells} "
                f"engine grid cells per pair, over the limit of {MAX_GRID_CELLS}"
            )
        validate_gamma(self.gamma, p, q)
        self.samples = _sample_count(self.samples)
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")

    def with_samples(self, samples: int) -> "IsometricActionSpec":
        """This action at another sample count.  Its gamma, validated at
        construction, is shared and not checked again."""
        out = copy.copy(self)
        out.samples = _sample_count(samples)
        return out


def _sample_count(samples) -> int:
    samples = int(samples)
    if samples < 50:
        raise ValueError("at least 50 sample points are required")
    return samples


def largest_matrix_bytes(command: str, samples: int, group_order: int) -> int:
    """Bytes of the largest distance matrix `x4 <command>` allocates for N =
    samples points and a group of group_order elements: the quotient of
    N + marks points for `extent`, each branched cover over the 2N base,
    at most 2 (2N + marks) points, for `check-q`.  Marks are at most the
    two coordinate circles and two eigenlines per group element."""
    marks = 2 + 2 * group_order
    points = samples + marks if command == "extent" else 2 * (2 * samples + marks)
    return 8 * points**2


def check_matrix_budget(command: str, spec: IsometricActionSpec) -> None:
    """Raise ValueError if `x4 <command>` on spec would allocate a distance
    matrix over MAX_MATRIX_BYTES; cheap, so it runs before any sampling."""
    need = largest_matrix_bytes(command, spec.samples, len(spec.gamma))
    if need > MAX_MATRIX_BYTES:
        raise ValueError(
            f"{command} at {spec.samples} samples needs a distance matrix of about "
            f"{need} bytes, over the limit of {MAX_MATRIX_BYTES}"
        )
