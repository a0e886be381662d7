"""Tests of the benchmark itself: reference checks, trace wrappers, repeatability.

    python3 -m pytest perfbench/tests -q

The same-seed tests run real workloads (under a minute in all).
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "ratio")}


# -- reference comparison ---------------------------------------------------


def _outcome(report: dict, code: int = 0, stderr: str = "") -> dict:
    return {"code": code, "stdout": json.dumps(report), "stderr": stderr}


REPORT = {
    "result": {
        "cone_points": 3,
        "checks": [{"name": "quotient-small", "passed": True, "margin": 0.25,
                    "details": "xt3 = 0.797"}],
        "extent": {"value": 0.8, "witness": [3, 17, 40]},
    }
}


def _changed(path: list, value) -> dict:
    report = json.loads(json.dumps(REPORT))
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return report


def test_reference_match_rules():
    ref = _outcome(REPORT)
    assert check.mismatch(ref, _outcome(REPORT)) is None
    # floats within 1e-9, free-text details ignored
    assert check.mismatch(ref, _outcome(_changed(["result", "extent", "value"], 0.8 + 1e-10))) is None
    details = _changed(["result", "checks", 0, "details"], "xt3 = 0.798")
    assert check.mismatch(ref, _outcome(details)) is None
    # everything else exactly
    for path, value in (
        (["result", "extent", "value"], 0.8 + 1e-8),
        (["result", "extent", "witness"], [3, 17, 41]),
        (["result", "checks", 0, "passed"], False),
        (["result", "checks", 0, "name"], "cover-small"),
        (["result", "cone_points"], 2),
    ):
        assert check.mismatch(ref, _outcome(_changed(path, value))) is not None, path
    assert check.mismatch(ref, _outcome(REPORT, code=3)) is not None


def test_rejection_tags_compare_exactly():
    ref = _outcome({"result": {"tag": "fig5-dg"}}, 2, "rejected: fig5-dg\n")
    assert check.mismatch(ref, dict(ref)) is None
    assert check.mismatch(ref, {**ref, "stderr": "rejected: degree-bound\n"}) is not None
    schema = {"code": 1, "stdout": "", "stderr": "payload rejected by schema: [1] is too short\n"}
    assert check.mismatch(schema, {**schema, "stderr": "payload rejected by schema: other\n"}) is None
    assert check.mismatch(schema, {**schema, "stderr": "ValueError: bad\n"}) is not None


def test_references_cover_every_pool_request():
    for name in workloads.WORKLOADS:
        refs = check.load_references(name)
        assert {r.key for r in workloads.pool(name)} == set(refs)
        assert all(isinstance(r["code"], int) for r in refs.values())
        assert workloads.round_for(name, 5) == workloads.round_for(name, 5)
    assert workloads.round_for("algebra-mix", 5) != workloads.round_for("algebra-mix", 6)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer = [m[0] for m in tracing.LAYER_METRICS]
    assert set(layer) <= {m["name"] for m in BENCHMARK["per_layer"]}


# -- trace wrappers ---------------------------------------------------------


def test_wrappers_rebind_every_alias():
    import jsonschema
    import scipy.sparse.csgraph

    import x4circle.cli  # noqa: F401
    from x4circle.extent_lab import condition_q, cover, engine, extents, spaces

    originals = (extents.extent, spaces.sample_quotient, scipy.sparse.csgraph.dijkstra,
                 jsonschema.validate, engine.DistanceEngine._refine)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for alias in (cover.extent, condition_q.extent, extents.extent):
            assert alias.__wrapped__ is originals[0]
        for alias in (cover.regenerate, condition_q.regenerate, cover.validate_metric):
            assert hasattr(alias, "__wrapped__")
        assert condition_q.sample_quotient.__wrapped__ is originals[1]
        assert cover.dijkstra.__wrapped__ is originals[2]
        assert jsonschema.validate.__wrapped__ is originals[3]
        assert engine.DistanceEngine._refine.__wrapped__ is originals[4]
    finally:
        tracer.uninstall()
    assert (extents.extent, spaces.sample_quotient, cover.dijkstra, jsonschema.validate,
            engine.DistanceEngine._refine) == originals
    assert cover.extent is originals[0]


def test_missing_stage_is_reported_absent():
    target = tracing.Target("engine.refine", "x4circle.extent_lab.engine:DistanceEngine",
                            "_no_such_stage")
    tracer = tracing.Tracer(targets=(target,))
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracer.summarize(1)
    assert tracer.absent == ["engine.refine"]
    assert {"engine.refine.s", "engine.refine.candidates", "engine.coarse.s",
            "engine.refine.candidates_per_pair"} <= set(absent)
    assert "engine.refine.s" not in metrics


# -- host speed calibration -------------------------------------------------


def test_sampler_times_the_kernel_inside_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    calibrator = calibrate.Calibrator("python")
    with calibrate.Sampler(calibrator) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * calibrate.PERIOD_S + 0.1:
            pass
    assert len(calibrator.samples) >= 3
    assert sampler.spent_wall == pytest.approx(sum(calibrator.samples))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- whole runs -------------------------------------------------------------


def _worker(name: str, trace: int) -> dict:
    return run.run_worker(["--workload", name, "--seed", "11", "--seconds", "0.1",
                           "--trace", str(trace)], timeout=300)


@pytest.mark.parametrize("name", ["algebra-mix", "checkq-hopf-d3"])
def test_same_seed_repeats_counts_and_tracing_changes_no_report(name):
    first, second = _worker(name, 1), _worker(name, 1)
    plain = _worker(name, 0)

    assert first["absent"] == [] and first["count_errors"] == {}
    assert set(first["layers"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = {k: v for k, v in first["layers"].items() if k in COUNT_METRICS}
    assert counts == {k: v for k, v in second["layers"].items() if k in COUNT_METRICS}

    traced = {(r["key"], r["code"], r["stdout"]) for r in first["requests"]}
    untraced = {(r["key"], r["code"], r["stdout"]) for r in plain["requests"]}
    assert traced == untraced
    refs = check.load_references(name)
    assert all(check.mismatch(refs[r["key"]], r) is None for r in plain["requests"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
