"""Smallness battery for sampled circle-action quotients.

A positively curved quotient passes when the quotient itself is small
(third extent at most pi/3), every double branched cover over a pair of
finite-isotropy marked points is small, and, when exactly three such
marked points exist, the diameter is at most pi/4.  Each item reports a
margin (positive means passed with room) so near-threshold geometries are
visible in the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import pi

from .actions import IsometricActionSpec
from .cover import BaseGraphs, double_branched_cover
from .extents import SMALL_BOUND, check_tol, extent, is_small
from .spaces import regenerate, sample_quotient


@dataclass
class CheckItem:
    name: str
    applicable: bool
    passed: bool
    margin: float
    details: str = ""


@dataclass
class ConditionQPrimeReport:
    checks: list[CheckItem]
    cone_points: int
    diameter: float
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


def check_condition_qprime(
    spec: IsometricActionSpec, tol: float = 0.02
) -> ConditionQPrimeReport:
    """Run the full smallness battery on the quotient sampled from spec;
    a tol outside (0, 1) raises ValueError before anything is sampled."""
    check_tol(tol)
    space = sample_quotient(spec)
    small, margin = is_small(extent(space, 3).value, tol)
    checks = [
        CheckItem(
            name="quotient-small",
            applicable=True,
            passed=small,
            margin=margin,
            details=f"xt3 = {SMALL_BOUND - margin:.6f}",
        )
    ]

    finite = space.finite_isotropy_marks()
    high_base = None
    if len(finite) >= 2:
        high_base = regenerate(space, 2 * spec.samples)
    # every pair's covers share the two bases' neighbor graphs and fields;
    # only the certificate is kept, so no cover outlives its pair
    graphs = BaseGraphs()
    for a, b in combinations(finite, 2):
        certificate = double_branched_cover(
            space, (a.index, b.index), tol=tol, high_base=high_base, graphs=graphs
        )[1]
        c_small, c_margin = is_small(certificate.xt3_high, tol)
        checks.append(
            CheckItem(
                name=f"cover-small:{a.label}|{b.label}",
                applicable=True,
                passed=c_small,
                margin=c_margin,
                details=(
                    f"xt3 = {SMALL_BOUND - c_margin:.6f}, drift = "
                    f"{certificate.drift:.6f}"
                ),
            )
        )

    diameter = space.diameter()
    three = len(finite) == 3
    checks.append(
        CheckItem(
            name="three-cone-diameter",
            applicable=three,
            passed=(diameter <= pi / 4.0 + tol) if three else True,
            margin=pi / 4.0 - diameter,
            details=f"diameter = {diameter:.6f}",
        )
    )
    return ConditionQPrimeReport(
        checks=checks, cone_points=len(finite), diameter=diameter, tol=tol
    )
