"""Curvature bounds that every sampled quotient must obey.

At unit weights the quotient is S^2(1/2)/Gamma bar, of curvature 4, and a
space of curvature >= 4 has every triangle's perimeter at most pi and its
diameter at most pi/2 (the extent comparison of Grove-Markvorsen, J. Amer.
Math. Soc. 1995).  A sampled matrix restricts the true metric, so its
exact xt3 is at most pi/3 and its diameter at most pi/2, up to rounding.
At other weights two exact identities hold instead: d(x, z2=0) =
arccos |z1|, so d(x, z2=0) + d(x, z1=0) = pi/2 for every x, and the two
coordinate circles are pi/2 apart.

Covers are left out: the graph cover breaks the unit-weight bound even on
pairs of cone points of isotropy >= 2, where the exact cover obeys it.
"""

from math import pi

import numpy as np
import pytest

from x4circle.extent_lab import IsometricActionSpec, extent, parse_gamma, sample_quotient

ROUNDING = 1e-12
CYCLIC = ["trivial"] + [f"cyclic:{k}" for k in (2, 3, 4, 5, 6, 8)]
UNIT_ACTIONS = (
    [((1, 1), g) for g in CYCLIC + [f"binary-dihedral:{m}" for m in range(2, 6)]]
    + [((1, -1), g) for g in CYCLIC]
)
GENERAL_WEIGHTS = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 5), (-2, 3)]
GENERAL_ACTIONS = [(w, g) for w in GENERAL_WEIGHTS for g in ("trivial", "cyclic:2", "cyclic:3")]


def quotient(weights, group, seed=0):
    return sample_quotient(
        IsometricActionSpec(weights=weights, gamma=parse_gamma(group), samples=60, seed=seed)
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("weights, group", UNIT_ACTIONS, ids=str)
def test_unit_weight_quotient_obeys_curvature_four(weights, group, seed):
    space = quotient(weights, group, seed)
    assert extent(space, 3, method="exact").value <= pi / 3 + ROUNDING
    assert space.diameter() <= pi / 2 + ROUNDING


@pytest.mark.parametrize("weights, group", GENERAL_ACTIONS, ids=str)
def test_general_weight_poles_split_every_distance(weights, group):
    space = quotient(weights, group)
    marks = {m.label: m.index for m in space.marked}
    to_z2, to_z1 = space.dist[marks["z2=0"]], space.dist[marks["z1=0"]]
    assert to_z2[marks["z1=0"]] == pytest.approx(pi / 2, abs=ROUNDING)
    assert np.max(np.abs(to_z2 + to_z1 - pi / 2)) <= ROUNDING
