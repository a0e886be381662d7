"""One workload's closed loop, in a fresh interpreter.

Started by run.py with the BLAS thread variables and PYTHONPATH already in
its environment, so numpy reads them when it is first imported here.  Each
request goes through ``x4circle.cli.main(argv)`` with its JSON payload on
stdin; the report and diagnostics are captured, not checked, here.  The
last line of stdout is one JSON object with every request's outcome and
timing, the calibration kernel's times (sampled during an untraced run, see
calibrate.py), the process's peak RSS and, when traced, the layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
    python3 perfbench/worker.py --workload NAME --pool      # every pool request once
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import workloads


def effective_blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if numpy brought one in."""
    if "numpy" not in sys.modules:
        return None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:  # no /proc: not Linux
        return None
    counts = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def send(cli, request: workloads.Request, sampler: calibrate.Sampler) -> dict:
    """One request through cli.main; returns its outcome and cost.

    The cost leaves out the time the sampler's kernel took meanwhile.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(request.payload), out, err
    spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = cli.main(list(request.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed run
        code = f"crash: {type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0 - (sampler.spent_wall - spent_wall)
        cpu = time.process_time() - c0 - (sampler.spent_cpu - spent_cpu)
        sys.stdin, sys.stdout, sys.stderr = saved
    return {"key": request.key, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "wall_s": wall, "cpu_s": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    parser.add_argument("--pool", action="store_true", help="send every pool request once")
    args = parser.parse_args(argv)
    requests = (workloads.pool(args.workload) if args.pool
                else workloads.round_for(args.workload, args.seed))

    # import what the command loads before the clock starts; run.py times
    # these imports separately as setup_s
    from x4circle import cli

    import jsonschema  # noqa: F401

    # a traced run loads the lab too, so every layer is wrapped and one
    # module set serves all workloads
    if workloads.is_lab(args.workload) or args.trace:
        import x4circle.extent_lab  # noqa: F401

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # host speed is sampled in untraced timed runs only, so that spans and
    # recorded references see the program alone
    calibrator = calibrate.Calibrator("lab" if workloads.is_lab(args.workload) else "python")
    sampler = calibrate.Sampler(calibrator)
    results = []
    rounds = 0
    with contextlib.ExitStack() as stack:
        if tracer is None and not args.pool:
            stack.enter_context(sampler)
        deadline = time.perf_counter() + args.seconds
        while True:
            for request in requests:
                if tracer is not None:
                    tracer.request = len(results)
                results.append(send(cli, request, sampler))
            rounds += 1
            if args.pool or time.perf_counter() >= deadline:
                break

    output = {
        "rounds": rounds,
        "requests": results,
        "calib_kind": calibrator.kind,
        "calib_s": calibrator.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": effective_blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    if tracer is not None:
        tracer.uninstall()
        layers, absent = tracer.summarize(len(results))
        layers["trace.request_p50_s"] = statistics.median(r["wall_s"] for r in results)
        output["layers"] = layers
        output["absent"] = absent
        output["count_errors"] = tracer.count_errors
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(output) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
