"""Time `x4 extent` and `x4 check-q` at the default sample count, layer by layer.

Four requests go through `x4circle.cli.main` once each: `extent` (q = 3)
and `check-q`, on Hopf weights (1, 1) with the binary dihedral group D3*
and on weights (2, 3), at SAMPLES = 800 points (the CLI default) and
sampling seed 0.  Each request runs under the span tracer of
perfbench/tracing.py, so its wall time comes with the seconds, calls and
work counts of every layer beneath it.  Before each request the lab
calibration kernel of perfbench/calibrate.py is timed a few times; the
host slowdown, its mean time over its time on the reference host, is
stored beside the run as a note on the host.  It is not divided out: a
few milliseconds of kernel timings cannot track the load during a
request of 10-20 s.  These are single recorded runs, not gated
closed-loop runs: on a shared host the same request can take 30-100%
longer from one minute to the next, so the wall times of two runs are
no measured gain, and runs from different sessions are not comparable
at all.  The per-layer work counts do not depend on the host, so they
compare across runs.

Each case is also timed as a one-shot call, `python -m x4circle <command>`
in a fresh process on the same payload, sample count and seed, from spawn
to exit and untraced: that is what an `x4` user pays, imports included,
and it is stored as oneshot_wall_s beside the in-process wall_s.  The
one-shot calls roughly double the run time of the script, mostly through
the two `check-q` cases.

The run is stored in BENCH_<pr>.json under --label, beside the runs the
file already holds, so one file can keep a parent run and a change run,
recorded one after the other: run the script once with PYTHONPATH
pointing at each checkout's src.  Reports are not checked here; the exit
code of each request is recorded.

Usage:
    PYTHONPATH=src python3 scripts/bench_default.py --pr N [--label change] [--out DIR]
"""

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import calibrate  # noqa: E402
import tracing  # noqa: E402

HOPF_D3 = {"weights": [1, 1], "gamma": "binary-dihedral:3"}
FOOTBALL_23 = {"weights": [2, 3]}
CASES = {
    "extent/hopf-d3": ("extent", {"action": HOPF_D3, "q": 3}),
    "check-q/hopf-d3": ("check-q", {"action": HOPF_D3}),
    "extent/football-23": ("extent", {"action": FOOTBALL_23, "q": 3}),
    "check-q/football-23": ("check-q", {"action": FOOTBALL_23}),
}
CALIBRATIONS = 5  # kernel timings before each request
SAMPLES = 800


def _argv(command: str) -> list[str]:
    return [command, "--samples", str(SAMPLES), "--seed", "0"]


def run_case(cli, command: str, payload: dict) -> tuple[object, float]:
    """(exit code, wall seconds) of one request, its report discarded."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(json.dumps(payload)), io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.main(_argv(command))
    except SystemExit as exc:
        code = exc.code
    finally:
        wall = time.perf_counter() - t0
        sys.stdin, sys.stdout = saved
    return code, wall


def run_oneshot(cli, command: str, payload: dict) -> tuple[int, float]:
    """(exit code, wall seconds) of the same request as one `python -m
    x4circle` process on the package `cli` came from, its report discarded."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "x4circle", *_argv(command)], input=json.dumps(payload),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, text=True,
    )
    return done.returncode, time.perf_counter() - t0


def bench() -> dict:
    """One traced request per case, with the host slowdown around them."""
    # load every traced module first: a module first imported while the
    # tracer installs keeps wrappers that uninstalling does not restore
    import jsonschema  # noqa: F401

    import x4circle.classifier  # noqa: F401  (and the algebra layers it imports)
    import x4circle.extent_lab.condition_q  # noqa: F401
    import x4circle.extent_lab.cover  # noqa: F401
    from x4circle import cli

    calibrator = calibrate.Calibrator("lab")
    requests = {}
    for name, (command, payload) in CASES.items():
        for _ in range(CALIBRATIONS):
            calibrator.measure()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.request = 0
            code, wall = run_case(cli, command, payload)
        finally:
            tracer.uninstall()
        layers, absent = tracer.summarize(1)
        oneshot_code, oneshot_wall = run_oneshot(cli, command, payload)
        requests[name] = {
            "exit_code": code, "wall_s": wall, "layers": layers, "absent": absent,
            "oneshot_exit_code": oneshot_code, "oneshot_wall_s": oneshot_wall,
        }
    return {
        "host_slowdown": statistics.fmean(calibrator.samples) / calibrate.REFERENCE_S["lab"],
        "calibrations": len(calibrator.samples),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "requests": requests,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--label", default="change", help="name of this run in the file")
    parser.add_argument("--out", type=pathlib.Path, default=ROOT, help="directory of the file")
    args = parser.parse_args()

    path = args.out / f"BENCH_{args.pr}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"runs": {}}
    data["cases"] = list(CASES)
    data["runs"][args.label] = run = bench()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, outcome in run["requests"].items():
        print(
            f"{name:<22} exit {outcome['exit_code']}  {outcome['wall_s']:8.3f} s"
            f"  one-shot exit {outcome['oneshot_exit_code']}  {outcome['oneshot_wall_s']:8.3f} s"
        )
    print(f"host slowdown {run['host_slowdown']:.3g}x; wrote {path}")
    codes = [o[key] for o in run["requests"].values() for key in ("exit_code", "oneshot_exit_code")]
    return 0 if not any(codes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
