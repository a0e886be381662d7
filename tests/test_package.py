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

# the names the README's library section imports from the lab or documents
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
    "MAX_MATRIX_BYTES",
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


# lazy name -> the submodule that defines it, for the lab's cover stage and
# one or two names of each algebra layer of the package
LAZY_NAMES = {
    "CheckItem": "x4circle.extent_lab.condition_q",
    "ConditionQPrimeReport": "x4circle.extent_lab.condition_q",
    "check_condition_qprime": "x4circle.extent_lab.condition_q",
    "ConvergenceError": "x4circle.extent_lab.cover",
    "CoverCertificate": "x4circle.extent_lab.cover",
    "GraphDisconnectedError": "x4circle.extent_lab.cover",
    "double_branched_cover": "x4circle.extent_lab.cover",
    "InvariantTuple": "x4circle.invariants",
    "canonicalize": "x4circle.invariants",
    "abelian_order_two_fibers": "x4circle.seifert",
    "fundamental_group": "x4circle.seifert",
    "weights_from_invariants": "x4circle.wcp",
    "CIRCLE": "x4circle.classifier",
    "classify": "x4circle.classifier",
}
PACKAGES = (x4circle, x4circle.extent_lab)


@pytest.mark.parametrize("name", sorted(LAZY_NAMES))
def test_lazy_lab_names_are_the_submodule_attributes(name):
    package_name, _, _ = LAZY_NAMES[name].rpartition(".")
    package = importlib.import_module(package_name)
    submodule = importlib.import_module(LAZY_NAMES[name])
    assert getattr(package, name) is getattr(submodule, name)
    assert name in package.__all__
    assert name in dir(package)
    # read afresh on each lookup, never cached in the package namespace
    assert name not in vars(package)


def test_lazy_lab_names_are_looked_up_afresh(monkeypatch):
    # a function rebound on its submodule, as the benchmark's tracer does,
    # is what the package hands out, even after an earlier lookup
    from x4circle import invariants
    from x4circle.extent_lab import cover

    for package, submodule, name in (
        (x4circle.extent_lab, cover, "double_branched_cover"),
        (x4circle, invariants, "canonicalize"),
    ):
        assert getattr(package, name) is getattr(submodule, name)
        rebound = object()
        monkeypatch.setattr(submodule, name, rebound)
        assert getattr(package, name) is rebound


def test_unknown_lab_name_raises_attribute_error():
    for package in PACKAGES:
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


SOURCES = sorted(pathlib.Path(x4circle.__file__).parent.rglob("*.py"))


def test_no_module_reaches_a_private_name_of_another():
    # a helper that two modules share is public: no module imports another
    # one's _name, or reads <imported name>._name
    crossings = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if isinstance(node, ast.ImportFrom) and _private(alias.name):
                        crossings.append(f"{path.name}: imports {alias.name}")
                    imported.add(alias.asname or alias.name.partition(".")[0])
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
                and _private(node.attr)
            ):
                crossings.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    assert crossings == []


# deliberate re-exports: (module file, name) -> why nothing in it reads the name
REEXPORTS = {
    ("classifier.py", "TAG_PAIRWISE_UNEQUAL"): "classifier names all eleven citation tags",
}


def _module_imports(tree):
    """(bound name, line) of each module-level import, those under a
    top-level `if` such as `if TYPE_CHECKING:` included; `from __future__`
    binds nothing."""
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            body += node.body + node.orelse
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


def test_every_module_import_is_used():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _module_imports(tree)
            if name not in read and (path.name, name) not in REEXPORTS
        ]
    assert unused == []


def test_only_sample_quotient_builds_a_distance_engine():
    # an action's one engine is built with its quotient and read from the
    # space by every later stage: "<module>.<function>" of each call
    builders = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.partition('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "DistanceEngine":
                    builders.append(owner)
            visit(child, owner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert builders == ["spaces.sample_quotient"]


# every algebra command, then one schema reject, then the lab commands; runs
# in a fresh interpreter, since the test session has loaded numpy and scipy.
# On stderr, one line per step names the algebra modules that step loaded:
# they are dropped again after each command, so each starts from the state
# `import x4circle.cli` leaves
BOUNDARY_PROBE = """
import io, json, sys
import x4circle
from x4circle import cli

ALGEBRA = ("classifier", "intlinalg", "invariants", "seifert", "wcp")
out, err = sys.stdout, sys.stderr


def report_loads(step):
    loaded = [name for name in ALGEBRA if sys.modules.pop(f"x4circle.{name}", None)]
    for name in loaded:
        # else `from . import intlinalg` would take the stale attribute
        delattr(x4circle, name)
    print(step, *loaded, file=err)


def run(argv, payload):
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload), io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = out, err
    report_loads(argv[0])
    return code


report_loads("import-cli")
requests = [
    ("canon", {"invariants": ["0", "-1/2", "1/2"]}),
    ("equiv", {"left": ["0", "1/2"], "right": ["1/2", "0"]}),
    ("euler", {"invariants": ["1/2", "1/3"]}),
    ("seifert-pi1", {"seifert": {"fibers": [[2, 1], [3, 1]]}}),
    ("seifert-recognize", {"seifert": {"fibers": [[2, 1], [2, -1]]}}),
    ("wcp", {"invariants": ["0", "-1/2", "1/2"]}),
    ("wcp", {"invariants": ["0", "0", "1/2"]}),
    ("classify", {"graph": {"vertices": 2, "edges": [{"loop": 0, "order": 2}]}}),
    ("canon", {"invariants": ["1/2"]}),
]
for command, payload in requests:
    code = run([command], json.dumps(payload))
    print(command, code, "numpy" in sys.modules)

import x4circle.extent_lab

report_loads("import-lab")
payload = json.dumps({"action": {"weights": [1, 1], "gamma": "binary-dihedral:3"}})
for argv in (["extent", "--samples", "50"], ["check-q", "--samples", "50"]):
    code = run(argv, payload)
    print(argv[0], code, "scipy" in sys.modules)
"""


@pytest.fixture(scope="module")
def boundary_run() -> subprocess.CompletedProcess:
    src = pathlib.Path(x4circle.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", BOUNDARY_PROBE], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture(scope="module")
def boundary_probe(boundary_run) -> list[str]:
    return boundary_run.stdout.split("\n")


def test_algebra_commands_never_load_numpy(boundary_probe):
    assert boundary_probe[:9] == [
        "canon 0 False",
        "equiv 0 False",
        "euler 0 False",
        "seifert-pi1 0 False",
        "seifert-recognize 0 False",
        "wcp 0 False",
        "wcp 2 False",
        "classify 0 False",
        "canon 1 False",
    ]


def test_only_a_cover_loads_scipy(boundary_probe):
    assert boundary_probe[9:] == ["extent 0 False", "check-q 0 True", ""]


def test_each_command_loads_only_its_algebra_layers(boundary_run):
    assert boundary_run.stderr.splitlines() == [
        "import-cli",
        "canon invariants",
        "equiv invariants",
        "euler invariants",
        "seifert-pi1 intlinalg seifert",
        "seifert-recognize intlinalg seifert",
        "wcp intlinalg invariants wcp",
        "wcp intlinalg invariants wcp",
        "classify classifier intlinalg invariants seifert wcp",
        "canon",
        "import-lab",
        "extent",
        "check-q",
    ]
