"""The public namespaces of the package and of its numerical lab."""

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


# runs in a fresh interpreter: the test session has loaded scipy already
SCIPY_PROBE = """
import io, json, sys
import x4circle.extent_lab
from x4circle import cli

payload = json.dumps({"action": {"weights": [1, 1], "gamma": "binary-dihedral:3"}})
out = sys.stdout
for argv in (["extent", "--samples", "50"], ["check-q", "--samples", "50"]):
    sys.stdin, sys.stdout = io.StringIO(payload), io.StringIO()
    code = cli.main(argv)
    sys.stdout = out
    print(argv[0], code, "scipy" in sys.modules)
"""


def test_only_a_cover_loads_scipy():
    src = pathlib.Path(x4circle.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["extent 0 False", "check-q 0 True", ""]
