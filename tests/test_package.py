"""The public namespaces of the package and of its numerical lab."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

import x4circle
import x4circle.extent_lab

# the names the README's library section imports from the lab
README_LAB_NAMES = {
    "IsometricActionSpec",
    "check_condition_qprime",
    "double_branched_cover",
    "extent",
    "gamma_binary_dihedral",
    "sample_quotient",
    "DistanceEngine",
    "is_small",
    "ConvergenceError",
    "read_distance_matrix",
    "write_distance_matrix",
}


def test_all_names_resolve_to_non_modules():
    assert x4circle.__all__
    for name in x4circle.__all__:
        assert not isinstance(getattr(x4circle, name), types.ModuleType), name
    assert {"classify", "InvariantTuple", "fundamental_group"} <= set(x4circle.__all__)


def test_lab_names_resolve_to_non_modules():
    lab = x4circle.extent_lab
    for name in lab.__all__:
        assert not isinstance(getattr(lab, name), types.ModuleType), name
    assert README_LAB_NAMES <= set(lab.__all__)
    # the round 2-sphere sampler is a test oracle, not part of the lab
    assert "sample_round_two_sphere" not in lab.__all__


LAZY_LAB_NAMES = {
    "CheckItem": "condition_q",
    "ConditionQPrimeReport": "condition_q",
    "check_condition_qprime": "condition_q",
    "ConvergenceError": "cover",
    "CoverCertificate": "cover",
    "GraphDisconnectedError": "cover",
    "double_branched_cover": "cover",
}


@pytest.mark.parametrize("name", sorted(LAZY_LAB_NAMES))
def test_lazy_lab_names_are_the_submodule_attributes(name):
    lab = x4circle.extent_lab
    submodule = importlib.import_module(f"x4circle.extent_lab.{LAZY_LAB_NAMES[name]}")
    assert getattr(lab, name) is getattr(submodule, name)
    assert name in lab.__all__
    assert name in dir(lab)


def test_lazy_lab_names_are_looked_up_afresh(monkeypatch):
    # a function rebound on its submodule, as the benchmark's tracer does,
    # is what the package hands out, even after an earlier lookup
    lab = x4circle.extent_lab
    from x4circle.extent_lab import cover

    assert lab.double_branched_cover is cover.double_branched_cover
    rebound = object()
    monkeypatch.setattr(cover, "double_branched_cover", rebound)
    assert lab.double_branched_cover is rebound


def test_unknown_lab_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        x4circle.extent_lab.no_such_name  # noqa: B018


# every algebra command, then one schema reject, then the lab commands; runs
# in a fresh interpreter, since the test session has loaded numpy and scipy
BOUNDARY_PROBE = """
import io, json, sys
from x4circle import cli

requests = [
    ("canon", {"invariants": ["0", "-1/2", "1/2"]}),
    ("equiv", {"left": ["0", "1/2"], "right": ["1/2", "0"]}),
    ("euler", {"invariants": ["1/2", "1/3"]}),
    ("seifert-pi1", {"seifert": {"fibers": [[2, 1], [3, 1]]}}),
    ("seifert-recognize", {"seifert": {"fibers": [[2, 1], [2, -1]]}}),
    ("wcp", {"invariants": ["0", "-1/2", "1/2"]}),
    ("classify", {"graph": {"vertices": 2, "edges": [{"loop": 0, "order": 2}]}}),
    ("canon", {"invariants": ["1/2"]}),
]
out = sys.stdout
for command, payload in requests:
    sys.stdin, sys.stdout = io.StringIO(json.dumps(payload)), io.StringIO()
    code = cli.main([command])
    sys.stdout = out
    print(command, code, "numpy" in sys.modules)

import x4circle.extent_lab

payload = json.dumps({"action": {"weights": [1, 1], "gamma": "binary-dihedral:3"}})
for argv in (["extent", "--samples", "50"], ["check-q", "--samples", "50"]):
    sys.stdin, sys.stdout = io.StringIO(payload), io.StringIO()
    code = cli.main(argv)
    sys.stdout = out
    print(argv[0], code, "scipy" in sys.modules)
"""


@pytest.fixture(scope="module")
def boundary_probe() -> list[str]:
    src = pathlib.Path(x4circle.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", BOUNDARY_PROBE], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")


def test_algebra_commands_never_load_numpy(boundary_probe):
    assert boundary_probe[:8] == [
        "canon 0 False",
        "equiv 0 False",
        "euler 0 False",
        "seifert-pi1 0 False",
        "seifert-recognize 0 False",
        "wcp 0 False",
        "classify 0 False",
        "canon 1 False",
    ]


def test_only_a_cover_loads_scipy(boundary_probe):
    assert boundary_probe[8:] == ["extent 0 False", "check-q 0 True", ""]


def test_only_the_lab_is_imported_inside_functions():
    # every other layer is imported once, at the top of its module
    root = pathlib.Path(x4circle.__file__).parent
    local = []
    for path in sorted(root.rglob("*.py")):
        package = ".".join(path.relative_to(root.parent).parent.parts)
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    local += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    parts = package.split(".")[: len(package.split(".")) + 1 - node.level]
                    name = node.module if not node.level else ".".join(parts + [node.module])
                    local.append((path.name, name))
    assert {name for _, name in local} == {"x4circle.extent_lab"}, local
    assert sorted(file for file, _ in local) == ["cli.py", "cli.py", "serialize.py"]
