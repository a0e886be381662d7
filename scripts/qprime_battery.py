"""Run the quotient-smallness battery over a list of circle actions.

The table has ten rows: the Hopf action and the weighted footballs (1, 2),
(1, 3) and (2, 3); the Hopf action divided by Z2, Z3 and Z4; the (1, 2)
football divided by Z3; and the binary dihedral quotients D2* and D3*.
For each action the battery samples the quotient, measures cone points
and diameter, checks three-point extents of the quotient and of every
double branched cover over a pair of cone points, and prints a verdict
line: the action's name first and the verdict last, with the quotient's
own three-point extent (xt3=) and diameter (diam=) before the verdict.
With --json each full report is dumped as one JSON object per line,
suitable for jq or for archiving alongside the sampled matrices.
An action whose cover certificate fails (drift above 2 * tol) gets a FAIL
line with the drift, or an object with an "error" string under --json, and
the battery goes on with the next action; any failure makes the exit code 1.
A --tol outside (0, 1) and a sample count whose largest distance matrix
passes the lab's `MAX_MATRIX_BYTES` (the `x4 check-q` estimate) are usage
errors (exit 2), refused before anything is sampled.

Usage:
    python3 scripts/qprime_battery.py [--samples 220] [--seed 5] [--tol 0.02] [--json]
"""

import argparse
import sys

from x4circle.extent_lab import (
    SMALL_BOUND,
    ConvergenceError,
    IsometricActionSpec,
    check_condition_qprime,
    check_matrix_budget,
    check_tol,
    gamma_binary_dihedral,
    gamma_cyclic,
    gamma_trivial,
)
from x4circle.serialize import dumps_canonical, encode_qprime_report

BATTERY = [
    ("hopf", (1, 1), gamma_trivial()),
    ("football-2", (1, 2), gamma_trivial()),
    ("football-3", (1, 3), gamma_trivial()),
    ("football-2:3", (2, 3), gamma_trivial()),
    ("hopf/Z2", (1, 1), gamma_cyclic(2)),
    ("hopf/Z3", (1, 1), gamma_cyclic(3)),
    ("hopf/Z4", (1, 1), gamma_cyclic(4)),
    ("football-2/Z3", (1, 2), gamma_cyclic(3)),
    ("hopf/D2*", (1, 1), gamma_binary_dihedral(2)),
    ("hopf/D3*", (1, 1), gamma_binary_dihedral(3)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=220)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--tol", type=float, default=0.02)
    parser.add_argument("--json", action="store_true", help="one report object per line")
    args = parser.parse_args()

    try:
        check_tol(args.tol)
        specs = [
            IsometricActionSpec(
                weights=weights, gamma=gamma, samples=args.samples, seed=args.seed
            )
            for _, weights, gamma in BATTERY
        ]
        for spec in specs:
            check_matrix_budget("check-q", spec)
    except ValueError as exc:
        parser.error(str(exc))

    failures = 0
    for (name, _, _), spec in zip(BATTERY, specs):
        try:
            report = check_condition_qprime(spec, tol=args.tol)
        except ConvergenceError as exc:
            failures += 1
            if args.json:
                sys.stdout.write(dumps_canonical({"name": name, "error": str(exc)}))
            else:
                print(f"{name:<14} cover drift={exc.certificate.drift:.6f} FAIL")
            continue
        failures += not report.all_passed
        if args.json:
            payload = {"name": name, "report": encode_qprime_report(report)}
            sys.stdout.write(dumps_canonical(payload))
            continue
        verdict = "pass" if report.all_passed else "FAIL"
        applicable = [c for c in report.checks if c.applicable]
        worst = min((c.margin for c in applicable), default=float("nan"))
        quotient = next(c for c in report.checks if c.name == "quotient-small")
        print(
            f"{name:<14} cones={report.cone_points} "
            f"checks={len(applicable)} worst_margin={worst:+.5f} "
            f"xt3={SMALL_BOUND - quotient.margin:.5f} diam={report.diameter:.5f} {verdict}"
        )
        for item in applicable:
            if not item.passed:
                print(f"  failed: {item.name} margin={item.margin:+.5f}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
