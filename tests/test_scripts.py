"""Smoke tests of the experiment scripts at their smallest sizes.

Each script's main() runs in-process with a patched argv; the tests check
one output row per action and the documented exit codes.
"""

import ast
import importlib.util
import json
import pathlib
import re
import sys

import numpy as np
import pytest

import x4circle.extent_lab
from x4circle import cli
from x4circle.extent_lab import (
    MAX_MATRIX_BYTES,
    IsometricActionSpec,
    actions,
    condition_q,
    extent,
    largest_matrix_bytes,
    sample_quotient,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_module(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(name: str):
    return load_module(name, SCRIPTS / f"{name}.py")


def run_main(monkeypatch, capsys, name, *args):
    """Run scripts/<name>.py main() with argv; returns (module, result, stdout lines)."""
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    result = module.main()
    return module, result, capsys.readouterr().out.splitlines()


def test_cover_resolution(monkeypatch, capsys, tmp_path):
    _, result, lines = run_main(
        monkeypatch, capsys, "cover_resolution",
        "--ladder", "50,100", "--tol", "0.1", "--export", str(tmp_path),
    )
    assert result == 0
    rows = [line.split() for line in lines[2:] if "wrote" not in line]
    assert [int(row[0]) for row in rows] == [50, 100]
    assert all(row[-1] == "ok" for row in rows)
    for row in rows:
        sidecar = json.loads((tmp_path / f"cover_m3_n{row[0]}_s42.json").read_text())
        assert f"{sidecar['xt3']:.5f}" == row[2]
        # the exported matrix is the certified cover's: its largest entry
        # is the certificate's diameter
        dist = np.load(tmp_path / f"cover_m3_n{row[0]}_s42.npy")
        assert dist.max() == sidecar["diameter"]


def test_cover_resolution_reports_failed_certificate(monkeypatch, capsys, tmp_path):
    # at 50 samples the drift (about 0.0037) exceeds 2 * tol = 0.002
    _, result, lines = run_main(
        monkeypatch, capsys, "cover_resolution",
        "--ladder", "50", "--tol", "0.001", "--export", str(tmp_path),
    )
    assert result == 1
    (row,) = [line.split() for line in lines[2:]]
    assert row[0] == "50" and row[-1] == "FAIL"
    assert float(row[3]) > 0.002
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_qprime_battery(monkeypatch, capsys, extra):
    module, result, lines = run_main(
        monkeypatch, capsys, "qprime_battery", "--samples", "50", *extra
    )
    if extra:
        reports = [json.loads(line) for line in lines]
        verdicts = {r["name"]: "pass" if r["report"]["all_passed"] else "FAIL" for r in reports}
    else:
        rows = [line.split() for line in lines if not line.startswith(" ")]
        verdicts = {row[0]: row[-1] for row in rows}
        # each row prints its quotient's xt3 and diameter, as measured alone
        for row, (_, weights, gamma) in zip(rows, module.BATTERY):
            fields = dict(token.split("=") for token in row[1:-1])
            space = sample_quotient(
                IsometricActionSpec(weights=weights, gamma=gamma, samples=50, seed=5)
            )
            assert fields["xt3"] == f"{extent(space, 3).value:.5f}"
            assert fields["diam"] == f"{space.diameter():.5f}"
    assert list(verdicts) == [name for name, _, _ in module.BATTERY]
    # at 50 samples the hopf/Z4 cover is not yet small, so the battery exits 1
    assert verdicts["hopf/Z4"] == "FAIL"
    assert result == 1


def test_qprime_battery_continues_after_failed_certificate(monkeypatch, capsys):
    # hopf/D3* at 50 samples drifts by about 0.004 > 2 * tol; the free hopf
    # action after it has no cover and still gets its row
    module = load_script("qprime_battery")
    battery = {entry[0]: entry for entry in module.BATTERY}
    monkeypatch.setattr(module, "BATTERY", [battery["hopf/D3*"], battery["hopf"]])
    monkeypatch.setattr(sys, "argv", ["qprime_battery.py", "--samples", "50", "--tol", "0.001"])
    result = module.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["hopf/D3*", "hopf"]
    name, cover, drift, verdict = rows[0]
    assert (cover, verdict) == ("cover", "FAIL")
    assert float(drift.removeprefix("drift=")) > 0.002
    assert rows[1][-1] == "pass"
    assert result == 1


# the scripts that only drive the lab; bench_default and pool_digest drive
# x4circle.cli.main on purpose
LAB_SCRIPTS = ["qprime_battery", "cover_resolution"]


def _usage_error(monkeypatch, capsys, name, args) -> str:
    """stderr of a script run that must end in an argparse usage error
    before anything is sampled."""

    def refuse(*args, **kwargs):
        raise AssertionError("sampled before refusing the request")

    # the scripts bind these at load: an over-budget size must never reach them
    monkeypatch.setattr(x4circle.extent_lab, "sample_quotient", refuse)
    monkeypatch.setattr(condition_q, "check_condition_qprime", refuse)
    with pytest.raises(SystemExit) as exit_info:
        run_main(monkeypatch, capsys, name, *args)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ")
    return err


def _over_budget(command: str, samples: int, group_order: int) -> str:
    need = largest_matrix_bytes(command, samples, group_order)
    assert need > MAX_MATRIX_BYTES
    return (
        f"{command} at {samples} samples needs a distance matrix of about "
        f"{need} bytes, over the limit of {MAX_MATRIX_BYTES}"
    )


@pytest.mark.parametrize("name, args, message", [
    ("cover_resolution", ["--ladder", "40"], "at least 50 sample points are required"),
    ("cover_resolution", ["--ladder", "60,,120"],
     "argument --ladder: invalid ladder value: '60,,120'"),
    ("qprime_battery", ["--samples", "10"], "at least 50 sample points are required"),
    # the largest matrix of each estimate passes MAX_MATRIX_BYTES; the
    # battery's first action has the trivial group, the ladder's D3* has 12
    ("qprime_battery", ["--samples", "4000"], _over_budget("check-q", 4000, 1)),
    ("cover_resolution", ["--ladder", "60,4000"], _over_budget("check-q", 4000, 12)),
    # --m names the group binary-dihedral:m, refused as `x4` refuses it
    ("cover_resolution", ["--m", "200000"],
     "group order 800000 exceeds the limit of 512 elements"),
    ("cover_resolution", ["--m", "0"], "unknown group preset 'binary-dihedral:0'"),
], ids=["cover_resolution-small", "cover_resolution-empty", "qprime_battery",
        "qprime_battery-huge", "cover_resolution-huge",
        "cover_resolution-huge-group", "cover_resolution-no-group"])
def test_bad_size_is_a_usage_error(monkeypatch, capsys, name, args, message):
    # each of these ended in a traceback or ran past the memory budget
    if "--m" in args:
        # the group is refused by its order, before any of it is built

        def refuse(*args, **kwargs):
            raise AssertionError("built the group before refusing it")

        monkeypatch.setattr(actions, "gamma_cyclic", refuse)
    err = _usage_error(monkeypatch, capsys, name, args)
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("name", LAB_SCRIPTS)
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_u64_is_a_usage_error(monkeypatch, capsys, name, seed):
    # -1 ended in numpy's traceback in sample_quotient, and 2**64 sampled,
    # where `x4` refuses both
    err = _usage_error(monkeypatch, capsys, name, ["--seed", seed])
    assert err.endswith("error: seed must be an unsigned 64-bit integer\n")


@pytest.mark.parametrize("name", LAB_SCRIPTS)
def test_lab_scripts_do_not_import_the_cli(name):
    path = SCRIPTS / f"{name}.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert [module for module in imported if module.split(".")[:2] == ["x4circle", "cli"]] == []


@pytest.mark.parametrize("name", ["qprime_battery", "cover_resolution"])
@pytest.mark.parametrize("tol", ["-1", "0", "1", "nan"])
def test_tol_outside_the_open_unit_interval_is_a_usage_error(monkeypatch, capsys, name, tol):
    # these ran and reported every cover as a failed certificate
    err = _usage_error(monkeypatch, capsys, name, ["--tol", tol])
    assert err.endswith("error: tol must lie in (0, 1) radians\n")


def test_readme_lists_every_script():
    # the scripts/<name>.py names of the README's "Experiment scripts"
    # section are exactly the files in scripts/
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"scripts/(\w+)\.py", section))
    assert documented == {path.stem for path in SCRIPTS.glob("*.py")}


def test_bench_default(monkeypatch, capsys, tmp_path):
    from x4circle.extent_lab import cover, extents

    traced = cover._build_cover, extents.extent
    module = load_script("bench_default")
    monkeypatch.setattr(module, "SAMPLES", 50)
    for label in ("a", "b"):
        monkeypatch.setattr(
            sys, "argv", ["bench_default.py", "--pr", "7", "--out", str(tmp_path), "--label", label]
        )
        assert module.main() == 0
    data = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert set(data) == {"cases", "runs"}
    assert data["cases"] == list(module.CASES)
    # a second label is added beside the first
    assert set(data["runs"]) == {"a", "b"}
    for run in data["runs"].values():
        assert set(run) == {"host_slowdown", "calibrations", "blas_env", "requests"}
        assert run["host_slowdown"] > 0 and run["calibrations"] == 5 * len(module.CASES)
        assert set(run["requests"]) == set(data["cases"])
        for name, outcome in run["requests"].items():
            assert set(outcome) == {
                "exit_code", "wall_s", "layers", "absent", "oneshot_exit_code", "oneshot_wall_s",
            }
            assert outcome["exit_code"] == 0 and outcome["absent"] == []
            assert outcome["oneshot_exit_code"] == 0 and outcome["oneshot_wall_s"] > 0
            layers = outcome["layers"]
            assert layers["cli.main.s"] <= outcome["wall_s"]
            assert layers["extents.extent.calls"] >= 1
            covers = layers["cover.double_branched_cover.calls"]
            assert covers == 0 if name.startswith("extent/") else covers > 0
    # the tracer is gone once the run ends
    assert (cover._build_cover, extents.extent) == traced


def test_pool_digest_repeats(monkeypatch, capsys):
    # the algebra pool answers its 512 requests in about 2 s
    digests = []
    for _ in range(2):
        _, result, lines = run_main(monkeypatch, capsys, "pool_digest", "--workload", "algebra-mix")
        assert result == 0
        ((workload, digest),) = [line.split() for line in lines]
        assert workload == "algebra-mix" and len(digest) == 64
        digests.append(digest)
    assert digests[0] == digests[1]


def test_every_pool_answer_matches_its_reference():
    # every request of the four benchmark pools (518 in all, about 3 s),
    # answered in-process and compared with perfbench/reference/ by the
    # benchmark's own rules
    pool_digest = load_script("pool_digest")
    check = load_module("check", ROOT / "perfbench" / "check.py")
    workloads = pool_digest.workloads
    answered, mismatches = 0, {}
    for workload in workloads.WORKLOADS:
        refs = check.load_references(workload)
        for request in workloads.pool(workload):
            key, code, stdout, stderr = pool_digest.answer(cli, request)
            outcome = {"code": code, "stdout": stdout, "stderr": stderr}
            why = check.mismatch(refs[key], outcome)
            if why is not None:
                mismatches[f"{workload}/{key}"] = why
            answered += 1
    assert mismatches == {}
    assert answered == 518
