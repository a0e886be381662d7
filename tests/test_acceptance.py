"""Acceptance battery: ten criteria, one `ACCEPTANCE n: PASS/FAIL` line each.

Each criterion is its own test so the verbose run shows one status line
per criterion.  The printed summary lines carry the measured values and
margins; they bypass output capture so a plain verbose run shows them.
"""

import time
from fractions import Fraction
from math import gcd, pi

import numpy as np
import pytest

from x4circle import intlinalg
from x4circle.classifier import (
    Edge,
    LoopAndSpur,
    Rejected,
    SingularGraph,
    classify,
    loop_and_spur_pi1,
    validate_graph,
)
from x4circle.invariants import InvariantTuple, are_equivalent
from x4circle.seifert import (
    SeifertPresentation,
    abelian_order_two_fibers,
    fundamental_group,
)
from x4circle.wcp import weights_from_invariants
from x4circle.extent_lab import (
    IsometricActionSpec,
    check_condition_qprime,
    double_branched_cover,
    extent,
    gamma_binary_dihedral,
    gamma_cyclic,
    sample_quotient,
)

from oracles import bfs_equivalent, random_move_image, random_tuple, sample_round_two_sphere


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_lines(request):
    # route emit() around fd-level capture so the status lines reach the terminal
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def emit(n, ok, detail):
    line = f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


QUOTIENT_CATALOG = [
    ((1, 1), None),
    ((1, 2), None),
    ((2, 3), None),
    ((1, 3), ("cyclic", 2)),
    ((1, 1), ("cyclic", 3)),
    ((2, 5), None),
    ((1, 2), ("cyclic", 4)),
    ((1, 1), ("dihedral", 2)),
    ((3, 4), None),
    ((1, 1), ("dihedral", 3)),
]


def build_catalog_space(index, samples=300):
    weights, group = QUOTIENT_CATALOG[index]
    if group is None:
        gamma = None
    elif group[0] == "cyclic":
        gamma = gamma_cyclic(group[1])
    else:
        gamma = gamma_binary_dihedral(group[1])
    kwargs = {} if gamma is None else {"gamma": gamma}
    return sample_quotient(
        IsometricActionSpec(weights=weights, samples=samples, seed=index, **kwargs)
    )


@pytest.fixture(scope="module")
def catalog_spaces():
    return [build_catalog_space(i) for i in range(len(QUOTIENT_CATALOG))]


def test_criterion_01_equivalence_oracle():
    rng = np.random.default_rng(20260819)
    start = time.monotonic()
    mismatches = 0
    for trial in range(500):
        a = random_tuple(rng, 3)
        b = random_move_image(rng, a) if trial % 2 == 0 else random_tuple(rng, 3)
        if are_equivalent(a, b) != bfs_equivalent(a, b):
            mismatches += 1
    elapsed = time.monotonic() - start
    emit(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"500 random triples, {mismatches} oracle mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_football_weights():
    bad = []
    for n in range(2, 11):
        t = InvariantTuple((Fraction(0), Fraction(-1, n), Fraction(1, n)))
        got = weights_from_invariants(t).weights.as_tuple()
        if got != (2 * n, -1, -1):
            bad.append((n, got))
    emit(2, not bad, f"weights (2n,-1,-1) for n=2..10, deviations: {bad}")


def test_criterion_03_two_fiber_order_oracle():
    rng = np.random.default_rng(31337)
    start = time.monotonic()
    checked = 0
    mismatches = 0
    while checked < 1000:
        a1, a2 = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        b1, b2 = int(rng.integers(-12, 13)), int(rng.integers(-12, 13))
        if gcd(a1, abs(b1)) != 1 or gcd(a2, abs(b2)) != 1:
            continue
        p = SeifertPresentation([(a1, b1), (a2, b2)])
        closed = abelian_order_two_fibers(p)
        snf = fundamental_group(p).abelian_invariants().order
        # both are None for an infinite group
        agree = snf == closed
        mismatches += 0 if agree else 1
        checked += 1
    elapsed = time.monotonic() - start
    emit(
        3,
        mismatches == 0 and elapsed < 5.0,
        f"1000 two-fiber presentations, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_04_loop_and_spur():
    rng = np.random.default_rng(4040)
    bad = []
    count = 0
    while count < 100:
        beta = int(rng.integers(-50, 51))
        if beta == 0:
            continue
        group = loop_and_spur_pi1(2, (1, beta))
        # independent abelianization: <q,h | [h,q], q^2 h^-1, h^beta>
        rows = [[0, 0], [2, -1], [0, beta]]
        pipeline = intlinalg.abelian_invariants(rows, 2).order
        if not (
            isinstance(group, LoopAndSpur)
            and group.orbifold_pi1_order == 2 * abs(beta) == pipeline
        ):
            bad.append(beta)
        count += 1
    k3 = loop_and_spur_pi1(3, (1, 5))
    k3_graph = classify(
        SingularGraph(vertex_count=2, edges=(Edge(0, 0, 3), Edge(0, 1, 5, beta=2)))
    )
    tag_ok = (
        isinstance(k3, Rejected)
        and k3.tag == "k-plus-one-fixed-points"
        and isinstance(k3_graph, Rejected)
        and k3_graph.tag == "k-plus-one-fixed-points"
    )
    emit(
        4,
        not bad and tag_ok,
        f"100 loop-and-spur orders match 2|beta|, k=3 tagged, deviations: {bad}",
    )


def test_criterion_05_figure_gate():
    accepted = {
        "a": SingularGraph(2, ()),
        "b": SingularGraph(2, (Edge(0, 1, 2),)),
        "c": SingularGraph(2, (Edge(0, 1, 2), Edge(0, 1, 3))),
        "e": SingularGraph(2, (Edge(0, 0, 2),)),
        "f": SingularGraph(2, (Edge(0, 0, 2), Edge(0, 1, 5))),
        "h": SingularGraph(2, (Edge(0, 1, 2), Edge(0, 1, 3), Edge(0, 1, 5))),
    }
    rejected = {
        "d": (SingularGraph(2, (Edge(0, 0, 2), Edge(1, 1, 2))), "fig5-dg"),
        "g": (
            SingularGraph(2, (Edge(0, 0, 2), Edge(1, 1, 3), Edge(0, 1, 5))),
            "fig5-dg",
        ),
        "one-vertex": (
            SingularGraph(1, (Edge(0, 0, 2),)),
            "at-least-two-fixed-points",
        ),
        "four-vertex": (SingularGraph(4, (Edge(0, 1, 2),)), "three-point-bound"),
    }
    failures = []
    for name, g in accepted.items():
        if validate_graph(g) is not None:
            failures.append(name)
    for name, (g, tag) in rejected.items():
        verdict = validate_graph(g)
        if not isinstance(verdict, Rejected) or verdict.tag != tag:
            failures.append(name)
    emit(5, not failures, f"figure gate verdicts, failures: {failures}")


def test_criterion_06_extent_numerics():
    start = time.monotonic()
    sphere = sample_round_two_sphere(1500, seed=42)
    xt2_s = extent(sphere, 2).value
    xt3_s = extent(sphere, 3).value
    sphere_elapsed = time.monotonic() - start

    start = time.monotonic()
    hopf = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=1500, seed=42))
    xt3_h = extent(hopf, 3).value
    xt2_h = extent(hopf, 2).value
    hopf_elapsed = time.monotonic() - start

    gaps = (
        abs(xt2_s - pi),
        abs(xt3_s - 2 * pi / 3),
        abs(xt3_h - pi / 3),
        abs(xt2_h - pi / 2),
    )
    ok = (
        all(g <= 0.02 for g in gaps)
        and sphere_elapsed < 60.0
        and hopf_elapsed < 60.0
    )
    emit(
        6,
        ok,
        "sphere gaps ({:.4f}, {:.4f}) in {:.1f}s; hopf gaps ({:.4f}, {:.4f}) in {:.1f}s".format(
            gaps[0], gaps[1], sphere_elapsed, gaps[2], gaps[3], hopf_elapsed
        ),
    )


def test_criterion_07_heuristic_equals_exact(catalog_spaces):
    worst = 0.0
    for space in catalog_spaces:
        exact = extent(space, 3, method="exact").value
        heuristic = extent(space, 3, method="heuristic").value
        worst = max(worst, abs(exact - heuristic))
    emit(7, worst <= 1e-12, f"10 spaces at N=300, worst heuristic gap {worst:.2e}")


def test_criterion_08_monotone_and_curvature_bound(catalog_spaces):
    failures = []
    for i, space in enumerate(catalog_spaces):
        xt2 = extent(space, 2).value
        xt3 = extent(space, 3).value
        if not (xt3 <= xt2 + 1e-12 and xt3 <= 2 * pi / 3 + 0.02):
            failures.append(i)
    emit(8, not failures, f"xt3 <= xt2 and xt3 <= 2pi/3 + 0.02, failures: {failures}")


def test_criterion_09_dihedral_battery():
    report = check_condition_qprime(
        IsometricActionSpec(
            weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=500, seed=42
        ),
        tol=0.02,
    )
    diameter_gap = abs(report.diameter - pi / 4)
    ok = report.cone_points == 3 and diameter_gap <= 0.02 and report.all_passed
    emit(
        9,
        ok,
        f"cone points {report.cone_points}, diameter gap {diameter_gap:.2e}, "
        f"all checks passed: {report.all_passed}",
    )


def test_criterion_10_branched_cover_sanity():
    space = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=800, seed=42))
    marks = {m.label: m.index for m in space.marked}
    branch = (marks["z2=0"], marks["z1=0"])
    base_distance = space.dist[branch[0], branch[1]]

    start = time.monotonic()
    cover, cert = double_branched_cover(space, branch, tol=0.02)
    elapsed = time.monotonic() - start

    labels = {m.label: m.index for m in cover.marked}
    lifted = cover.dist[labels["z2=0+0"], labels["z1=0+0"]]
    lift_error = abs(lifted - base_distance)
    ok = lift_error <= 1e-6 and cert.passed and elapsed < 120.0
    emit(
        10,
        ok,
        f"lift error {lift_error:.2e}, certificate drift {cert.drift:.6f} at "
        f"({cert.samples_low},{cert.samples_high}), {elapsed:.1f}s",
    )
