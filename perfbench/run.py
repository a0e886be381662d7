"""x4circle benchmark: closed-loop CLI workloads with a layer-by-layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --record [--workload NAME]

One run starts a fresh worker interpreter (perfbench/worker.py) that sends
the workload's requests through ``x4circle.cli.main`` one at a time for
``--seconds`` seconds, then checks every report against the recorded
references in perfbench/reference/.  With ``--trace 0`` it also times the
workload's imports in fresh interpreters (setup_s) and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a traced run and writes its spans to .perfbench-out/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

``--workload all`` runs every workload untraced and traced and prints the
tracing overhead.  ``--record`` re-records the references from the code in
this checkout; run it only when an answer is meant to change.

Run from the root of a checkout holding src/x4circle.  Workloads, metrics
and the layer predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 100  # beyond --seconds: one lab request plus imports
P99_MIN_SAMPLES = 1000  # p99 needs at least ten samples beyond it
# One BLAS thread: on a shared 2-vCPU host a second thread bought about 15%
# wall time for 60% more CPU, and its spin-waits made wall and CPU time of
# one repeated request vary 17% instead of 5%.
BLAS_THREADS = 1


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_units() -> dict:
    """Unit of every end-to-end and per-layer metric, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def worker_env() -> dict:
    """Environment for every child: the checkout's src and BLAS_THREADS."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(source: str) -> float:
    """Wall time of a fresh interpreter running ``python -c source``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", source], cwd=ROOT, env=worker_env())
    # a blocking wait, not wait(timeout=...), which polls in 50 ms steps
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise BenchmarkError(f"{source!r} exited with {code}")
    return elapsed


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Import times of what the command loads, each in a fresh interpreter.

    Returns the times as measured and the times scaled to the reference
    host speed: each import is timed between two runs of the reference
    import (calibrate.REFERENCE_IMPORT), which swing with the host alike.
    """
    modules = "x4circle.cli, jsonschema"
    if workloads.is_lab(workload):
        modules += ", x4circle.extent_lab"
    refs = [_probe(calibrate.REFERENCE_IMPORT)]
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        times.append(_probe(f"import {modules}"))
        refs.append(_probe(calibrate.REFERENCE_IMPORT))
        scaled.append(times[-1] * calibrate.REFERENCE_IMPORT_S / statistics.fmean(refs[-2:]))
    return times, scaled


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    refs = check.load_references(name)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    spans = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        args += ["--spans", str(spans)]
    data = run_worker(args, timeout=seconds + WORKER_GRACE_S)

    outcomes = data["requests"]
    failures = []
    for outcome in outcomes:
        ref = refs.get(outcome["key"])
        why = "no reference recorded" if ref is None else check.mismatch(ref, outcome)
        if why:
            failures.append(f"{outcome['key']}: {why}")

    result = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": len(outcomes), "failed": len(failures), "failures": failures[:5],
        "rounds": data["rounds"], "blas_threads": data["blas_threads"],
        "blas_env": data["blas_env"],
    }
    if trace:
        result["metrics"] = data["layers"]
        result["absent"] = data["absent"]
        result["count_errors"] = data["count_errors"]
        result["spans"] = str(spans.relative_to(ROOT))
        return result

    walls = [o["wall_s"] for o in outcomes]
    setup_measured, setup = setup_seconds(name)
    # host slowdown against the calibration kernel's reference time
    slowdown = statistics.fmean(data["calib_s"]) / calibrate.REFERENCE_S[data["calib_kind"]]
    result["metrics"] = {
        "request_ref_s": statistics.fmean(walls) / slowdown,
        "cpu_ref_s": statistics.fmean(o["cpu_s"] for o in outcomes) / slowdown,
        "peak_rss_mb": data["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    result["samples"] = {"request_ref_s": len(walls), "cpu_ref_s": len(walls),
                         "peak_rss_mb": 1, "setup_s": len(setup)}
    # the plain wall times as measured: printed, not gated
    result["info"] = {"request_mean_s": statistics.fmean(walls),
                      "request_p50_s": statistics.median(walls),
                      "setup_measured_s": statistics.median(setup_measured)}
    if len(walls) >= P99_MIN_SAMPLES:
        result["info"]["request_p99_s"] = statistics.quantiles(walls, n=100)[98]
    result["slowdown"] = (slowdown, len(data["calib_s"]))
    return result


def report(result: dict, units: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    mode = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']} seed={result['seed']} {mode}: {result['attempted']} requests "
          f"in {result['rounds']} rounds, closed loop with 1 client, "
          f"blas_threads={result['blas_threads']} env={result['blas_env']}")
    if result["trace"]:
        for metric, value in sorted(result["metrics"].items()):
            print(f"  {metric:<42} {value:.6g} {units[metric]}")
        for metric in result["absent"]:
            print(f"  {metric:<42} absent")
        for span, why in result["count_errors"].items():
            print(f"  counts of {span} unavailable: {why}")
        print(f"  spans written to {result['spans']}")
    else:
        for metric, value in result["metrics"].items():
            print(f"  {metric:<20} {value:.6g} {units[metric]:<3} "
                  f"(n={result['samples'][metric]})")
        n = result["attempted"]
        for metric, value in result["info"].items():
            samples = result["samples"]["setup_s"] if metric.startswith("setup") else n
            print(f"  {metric:<20} {value:.6g} s   (n={samples}, not gated)")
        slowdown, calibrations = result["slowdown"]
        print(f"  {'host slowdown':<20} {slowdown:.4g}x  (n={calibrations} calibrations)")
        if "request_p99_s" not in result["info"]:
            print(f"  {'request_p99_s':<20} not reported: {n} requests, needs {P99_MIN_SAMPLES}")
    print(f"  {'failed_ratio':<20} {result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:.6g}")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def run_all(seed: int, seconds: float, units: dict) -> bool:
    """Every workload untraced and traced; True when every request was correct."""
    correct = True
    for name in workloads.WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        for result in (plain, traced):
            report(result, units)
            correct = correct and result["failed"] == 0
        overhead = traced["metrics"]["trace.request_p50_s"] - plain["info"]["request_p50_s"]
        print(f"  {'tracing overhead':<20} {overhead:+.6g} s per request "
              f"(traced p50 - untraced p50)")
    return correct


def record(names) -> None:
    for name in names:
        data = run_worker(["--workload", name, "--pool"], timeout=3600)
        bad = [o["key"] for o in data["requests"] if not isinstance(o["code"], int)]
        if bad:
            raise BenchmarkError(f"{name}: pool requests crashed, nothing recorded: {bad}")
        check.write_references(name, data["requests"])
        print(f"recorded {len(data['requests'])} references for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference reports for the workload's pool")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None and not args.record:
        parser.error("--workload is required")

    if not (ROOT / "src" / "x4circle" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/x4circle to benchmark", file=sys.stderr)
        return 2
    try:
        if args.record:
            everything = args.workload in (None, "all")
            record(workloads.WORKLOADS if everything else [args.workload])
            return 0
        units = metric_units()
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds, units) else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
