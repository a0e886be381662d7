"""Print one sha256 per benchmark workload over every answer of its pool.

Every request in the pools of perfbench/workloads.py (both sampling seeds
of each lab workload, and the 512 exact-algebra requests) goes through
`x4circle.cli.main` in this process, with its payload on stdin.  The digest
of a workload covers, in pool order, each request's pool key, exit code,
stdout and stderr.  Two checkouts that print the same digests give
byte-identical answers to every pool request, so running the script at a
parent and at a change checks a change that must keep every report.  Run
both sides with the same BLAS thread count.  All four pools take about
4 s on a 2-vCPU VM with one BLAS thread; --workload runs one pool.

Usage:
    PYTHONPATH=src python3 scripts/pool_digest.py [--workload NAME]
"""

import argparse
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def answer(cli, request: workloads.Request) -> list:
    """[key, exit code, stdout, stderr] of one request; a crash is recorded
    by its exception, as the benchmark worker records it."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(request.payload), out, err
    try:
        code = cli.main(list(request.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = f"crash: {type(exc).__name__}: {exc}"
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return [request.key, code, out.getvalue(), err.getvalue()]


def digest(cli, workload: str) -> str:
    sha = hashlib.sha256()
    for request in workloads.pool(workload):
        sha.update(json.dumps(answer(cli, request)).encode() + b"\n")
    return sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="digest this pool only")
    args = parser.parse_args()

    from x4circle import cli

    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        print(f"{workload:<20} {digest(cli, workload)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
