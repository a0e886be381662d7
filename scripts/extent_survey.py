"""Survey extents across a family of circle-action quotients.

Prints one row per action: the number of cone points, the three-point
extent, the diameter (which is also the two-point extent), and the margin
against the pi/3 smallness bound.  The row set covers the weighted
footballs, a few cyclic refinements, and the binary dihedral quotients
whose covers the smallness battery exercises.  A sample count whose
largest distance matrix passes the lab's `MAX_MATRIX_BYTES` (the `x4
extent` estimate) is a usage error, refused before anything is sampled.

Usage:
    python3 scripts/extent_survey.py [--samples 400] [--seed 0]
"""

import argparse
from math import pi

from x4circle.extent_lab import (
    IsometricActionSpec,
    check_matrix_budget,
    extent,
    gamma_binary_dihedral,
    gamma_cyclic,
    gamma_trivial,
    is_small,
    sample_quotient,
)

SURVEY = [
    ("hopf", (1, 1), gamma_trivial()),
    ("football-2", (1, 2), gamma_trivial()),
    ("football-3", (1, 3), gamma_trivial()),
    ("football-2:3", (2, 3), gamma_trivial()),
    ("hopf/Z2", (1, 1), gamma_cyclic(2)),
    ("hopf/Z3", (1, 1), gamma_cyclic(3)),
    ("football-2/Z3", (1, 2), gamma_cyclic(3)),
    ("hopf/D2*", (1, 1), gamma_binary_dihedral(2)),
    ("hopf/D3*", (1, 1), gamma_binary_dihedral(3)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        specs = [
            IsometricActionSpec(
                weights=weights, gamma=gamma, samples=args.samples, seed=args.seed
            )
            for _, weights, gamma in SURVEY
        ]
        for spec in specs:
            check_matrix_budget("extent", spec)
    except ValueError as exc:
        parser.error(str(exc))

    header = f"{'action':<16} {'cones':>5} {'xt3':>9} {'diam':>9} {'margin':>9}"
    print(header)
    print("-" * len(header))
    for (name, _, _), spec in zip(SURVEY, specs):
        space = sample_quotient(spec)
        xt3 = extent(space, 3).value
        cones = len(space.finite_isotropy_marks())
        _, margin = is_small(xt3)
        print(
            f"{name:<16} {cones:>5d} {xt3:>9.5f} "
            f"{space.diameter():>9.5f} {margin:>+9.5f}"
        )
    print(f"\nsmallness bound pi/3 = {pi / 3:.5f}; positive margin means small")


if __name__ == "__main__":
    main()
