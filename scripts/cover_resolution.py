"""Study double-branched-cover statistics across sampling resolutions.

Builds the quotient of a binary dihedral action at a ladder of sample
counts, takes the double cover branched over two of its cone points at
each rung, and reports how the certified statistics (diameter and
three-point extent of the cover) drift between consecutive rungs.  The
drift column is the evidence that the glued metric is converging rather
than depending on the mesh.  A rung whose drift exceeds 2 * tol prints its
failed certificate as a FAIL row, and the script then exits 1.  A --tol
outside (0, 1), an --m whose group order passes the lab's
`MAX_GROUP_ORDER`, and a rung whose largest distance matrix passes the
lab's `MAX_MATRIX_BYTES` (the `x4 check-q` estimate) are usage errors
(exit 2), refused before the group is built or anything is sampled.

With --export DIR the cover distance matrix at each rung is written as a
NumPy `.npy` file, which `np.load` reads back, next to a small JSON
sidecar with the certificate, so later runs can reload them without
resampling.

Usage:
    python3 scripts/cover_resolution.py [--ladder 150,300,600] [--seed 42]
        [--m 3] [--tol 0.05] [--export DIR]
"""

import argparse
import json
import pathlib

import numpy as np

from x4circle.extent_lab import (
    ConvergenceError,
    IsometricActionSpec,
    check_matrix_budget,
    check_tol,
    double_branched_cover,
    parse_gamma,
    sample_quotient,
)


def branch_pair(space, labels=("singular:0", "singular:1")):
    marks = {m.label: m.index for m in space.finite_isotropy_marks()}
    return marks[labels[0]], marks[labels[1]]


def ladder(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ladder", type=ladder, default="150,300,600")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--m", type=int, default=3, help="binary dihedral order parameter")
    parser.add_argument("--tol", type=float, default=0.05)
    parser.add_argument("--export", type=pathlib.Path, default=None)
    args = parser.parse_args()

    try:
        check_tol(args.tol)
        gamma = parse_gamma(f"binary-dihedral:{args.m}")
        specs = [
            IsometricActionSpec(weights=(1, 1), gamma=gamma, samples=n, seed=args.seed)
            for n in args.ladder
        ]
        for spec in specs:
            check_matrix_budget("check-q", spec)
    except ValueError as exc:
        parser.error(str(exc))

    header = f"{'N':>6} {'diam':>9} {'xt3':>9} {'drift':>9} {'cert':>6}"
    print(header)
    print("-" * len(header))
    failures = 0
    for spec in specs:
        n = spec.samples
        base = sample_quotient(spec)
        try:
            cover, cert = double_branched_cover(base, branch_pair(base), tol=args.tol)
        except ConvergenceError as exc:
            cover, cert = None, exc.certificate
            failures += 1
        print(
            f"{n:>6d} {cert.diameter_high:>9.5f} {cert.xt3_high:>9.5f} "
            f"{cert.drift:>9.6f} {'ok' if cert.passed else 'FAIL':>6}"
        )
        if args.export is not None and cover is not None:
            args.export.mkdir(parents=True, exist_ok=True)
            stem = args.export / f"cover_m{args.m}_n{n}_s{args.seed}"
            np.save(stem.with_suffix(".npy"), cover.dist)
            sidecar = {
                "samples": n,
                "seed": args.seed,
                "m": args.m,
                "drift": cert.drift,
                "passed": cert.passed,
                "diameter": cert.diameter_high,
                "xt3": cert.xt3_high,
            }
            stem.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")
            print(f"       wrote {stem}.npy")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
