"""Tests for quotient sampling, the distance engine, extents, and matrix IO.

The free-action quotient of the unit 3-sphere by the diagonal circle is a
round 2-sphere of radius 1/2, whose distances have the closed form
arccos |<x, y>| in the complex inner product.  The engine computes unit
weights on that sphere, through the Hopf map and the rotations Gamma
induces there, and every other weight pair by a grid scan with Newton
polish; the tests check each path against the other, against an
independent theta scan built from the circle matrices, against a finer
grid with golden-section polish and a Hopf-map evaluation in
np.longdouble in tests/oracles.py, against the S^3 matrices the sphere
path replaced, and against arccos |<x, y>| written out here.  The singular orbits read off the
eigenlines of each group element are checked against the
smallest-singular-value scan in tests/oracles.py, the exact three-point
extent against the brute force there, and the metric check's chunked
random triples against one draw of all of them, and its full scan against
one that takes every ordered triple and, on plain quotients, against the
direct row scan there bit for bit.  On branched covers, which carry
their sheet swap, the scan that keeps one pass per sheet-swap orbit is
checked against the scan of every pass.  The batched group checks on gamma
are checked against the one-element-at-a-time loop there.
"""

import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
from itertools import combinations
from math import gcd, pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import x4circle
from x4circle import cli
from x4circle.extent_lab import (
    DistanceEngine,
    IsometricActionSpec,
    SMALL_BOUND,
    check_condition_qprime,
    extent,
    gamma_binary_dihedral,
    gamma_cyclic,
    gamma_trivial,
    is_small,
    parse_gamma,
    regenerate,
    sample_quotient,
    validate_gamma,
    validate_metric,
)
from x4circle.extent_lab import actions, extents, spaces
from x4circle.extent_lab.actions import (
    GROUP_TOL,
    MAX_GRID_CELLS,
    MAX_GROUP_ORDER,
)
from x4circle.extent_lab.cover import BaseGraphs, _build_cover
from x4circle.extent_lab.engine import GRID_PER_WEIGHT, ROW_CHUNK
from x4circle.extent_lab.spaces import SampledMetricSpace

from oracles import (
    MaskScanEngine,
    brute_force_extent_three,
    circle_matrix,
    full_triangle_slack,
    golden_grid_alignments,
    golden_max,
    hopf_distance_matrix,
    hopf_long,
    hopf_rotations,
    loop_validate_gamma,
    probe_kernel_count,
    row_scan_slack,
    sample_round_two_sphere,
    sampled_triangle_slack,
    sampled_triples,
    serial_heuristic_extent,
    stabilizer_count,
    svd_theta_roots,
    two_sided_matrix,
    winner_path_distance_matrix,
)


def count_alignments(monkeypatch):
    """Patch the engine to record the number of pairs each `_grid_alignments`
    call, the pair-list entry of a general-weight `distance_matrix`, aligns;
    returns the list it appends to."""
    aligned = []
    original = DistanceEngine._grid_alignments

    def counting(self, a1, a2, v1, v2, cols):
        aligned.append(len(cols))
        return original(self, a1, a2, v1, v2, cols)

    monkeypatch.setattr(DistanceEngine, "_grid_alignments", counting)
    return aligned


def equilateral_space(n: int, seed: int) -> SampledMetricSpace:
    """n points at mutual distance 1/2: a triangle of three distinct points
    has slack -1/2, one with a repeated point slack 0."""
    dist = np.full((n, n), 0.5)
    np.fill_diagonal(dist, 0.0)
    return SampledMetricSpace(points=np.zeros((n, 4)), dist=dist, marked=[], seed=seed)


def plain_scan_limit() -> int:
    """The most points whose complete triangle scan without a sheet swap
    reads at most FULL_SCAN_ENTRIES entries: (n - 1 - i)^2 in pass i."""
    n = 2
    while n * (n + 1) * (2 * n + 1) // 6 <= spaces.FULL_SCAN_ENTRIES:
        n += 1
    return n


def battery_covers(spec: IsometricActionSpec) -> list[SampledMetricSpace]:
    """The one-resolution covers over every pair of cone points of spec's
    quotient, as check-q builds them."""
    base = sample_quotient(spec)
    pairs = combinations(base.finite_isotropy_marks(), 2)
    return [_build_cover(base, (a.index, b.index), BaseGraphs()) for a, b in pairs]


def orbit_adjacent_order(sigma: np.ndarray) -> list[int]:
    """Each orbit {x, sigma x} of an involution in adjacent positions,
    smaller index first, the orbits in the order of their smaller index."""
    order = []
    for x, y in enumerate(sigma):
        if x < y:
            order += [x, int(y)]
        elif x == y:
            order.append(x)
    return order


@pytest.fixture(scope="module")
def hopf_cover():
    """(base size, cover) of the first two cone points of Hopf/D3* at 50
    samples: a 104-node cover."""
    spec = IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=50)
    base = sample_quotient(spec)
    branch = tuple(m.index for m in base.finite_isotropy_marks()[:2])
    return base.size, _build_cover(base, branch, BaseGraphs())


def hopf_distance(x, y):
    zx, wx = x[0] + 1j * x[1], x[2] + 1j * x[3]
    zy, wy = y[0] + 1j * y[1], y[2] + 1j * y[3]
    inner = zx * np.conj(zy) + wx * np.conj(wy)
    return float(np.arccos(np.clip(abs(inner), -1.0, 1.0)))


def _reflection() -> np.ndarray:
    # orthogonal with det -1
    return np.diag([-1.0, 1.0, 1.0, 1.0])


def _skewed() -> np.ndarray:
    # det +1 to 1e-9 but not orthogonal to 1e-12
    m = np.eye(4)
    m[0, 1] = 1e-6
    return m


def _swap_planes() -> np.ndarray:
    # (z1, z2) -> (z2, z1): an involution that carries weights (2, 3) to (3, 2)
    return np.eye(4)[[2, 3, 0, 1]]


# conjugates both coordinates: det +1 and gamma J gamma^T = -J
MIRROR = np.diag([1.0, -1.0, 1.0, -1.0])
# conjugates z2: at weights (p, -p), c R(theta) c is the scalar e^{i p theta}
CONJ_Z2 = np.diag([1.0, 1.0, 1.0, -1.0])


def commuting(weights, gammas):
    """A group of right quaternion multiplications, which commute with the
    circle at weights (p, p), as one that commutes at unit weights: its
    conjugate by CONJ_Z2 when the weights have opposite signs."""
    return CONJ_Z2 @ gammas @ CONJ_Z2 if weights[0] == -weights[1] else gammas


# (elements, weights, the start of the message; None for a valid group)
GAMMA_CASES = {
    "shape": (np.zeros((2, 3, 3)), (1, 1), "gamma must have shape"),
    "not-finite": (np.stack([np.eye(4), np.full((4, 4), np.nan)]), (1, 1), "gamma entries"),
    "empty": (np.zeros((0, 4, 4)), (1, 1), "gamma must contain at least"),
    "not-orthogonal": (np.stack([np.eye(4), _skewed()]), (1, 1), "gamma element is not"),
    "orientation": (np.stack([np.eye(4), _reflection()]), (1, 1), "gamma element must"),
    "orientation-first": (
        np.stack([np.eye(4), _reflection(), _skewed()]), (1, 1), "gamma element must"
    ),
    "orthogonality-first": (
        np.stack([np.eye(4), _skewed(), _reflection()]), (1, 1), "gamma element is not"
    ),
    "no-identity": (-gamma_cyclic(3), (1, 1), "gamma must contain the identity"),
    "duplicate": (
        np.concatenate([gamma_cyclic(3), gamma_cyclic(3)[1:2]]), (1, 1), "gamma contains"
    ),
    "dropped-element": (gamma_binary_dihedral(3)[:-1], (1, 1), "gamma is not closed"),
    # a turn by pi + t squares to a turn by 2 t, which misses I by sin(2 t)
    "near-miss": (
        np.stack([np.eye(4), circle_matrix(1, -1, pi + GROUP_TOL)]), (1, 1), "gamma is not closed"
    ),
    "within-tolerance": (
        np.stack([np.eye(4), circle_matrix(1, -1, pi + GROUP_TOL / 4)]), (1, 1), None
    ),
    "not-normalizing": (np.stack([np.eye(4), _swap_planes()]), (2, 3), "gamma element does"),
    # gamma J gamma^T = -J: the circle would not act on S^3/Gamma
    "anticommuting": (np.stack([np.eye(4), MIRROR]), (1, 1), "gamma element does not commute"),
    "binary-dihedral": (gamma_binary_dihedral(3), (1, 1), None),
    "binary-dihedral-48": (gamma_binary_dihedral(12), (1, 1), None),
    "swap-hopf": (np.stack([np.eye(4), _swap_planes()]), (1, 1), None),
    # a list past the order bound is refused before its closure check; one
    # at the bound reaches the later checks
    "oversized": (
        np.repeat(np.eye(4)[None], MAX_GROUP_ORDER + 1, axis=0), (1, 1),
        f"group order {MAX_GROUP_ORDER + 1} exceeds the limit",
    ),
    "at-the-bound": (
        np.repeat(np.eye(4)[None], MAX_GROUP_ORDER, axis=0), (1, 1), "gamma contains duplicate",
    ),
}


def _rejection(check, gammas, weights):
    try:
        check(gammas, *weights)
    except ValueError as exc:
        return str(exc)
    return None


class TestActionSpec:
    def test_weights_must_be_coprime_nonzero(self):
        IsometricActionSpec(weights=(2, 3), samples=50)
        with pytest.raises(ValueError):
            IsometricActionSpec(weights=(2, 4), samples=50)
        with pytest.raises(ValueError):
            IsometricActionSpec(weights=(0, 1), samples=50)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            IsometricActionSpec(weights=(1, 1), samples=20)

    def test_gamma_presets(self):
        assert len(gamma_trivial()) == 1
        assert len(gamma_cyclic(5)) == 5
        assert len(gamma_binary_dihedral(3)) == 12
        assert len(parse_gamma("binary-dihedral:2")) == 8
        assert np.allclose(parse_gamma("cyclic:4"), gamma_cyclic(4))

    # ASCII digits without a leading zero, after an exact preset name
    @pytest.mark.parametrize("preset", [
        "cyclic:0", "binary-dihedral:0", "cyclic:007", "cyclic:\u0663", "cyclic:\u00b3",
        "cyclic:", "cyclic:+3", "cyclic:-3", "cyclic:3 ", "cyclic:3\n", " cyclic:3",
        "Cyclic:3", "dihedral:3", "cyclic:3:1", "trivial:1",
    ])
    def test_gamma_preset_grammar(self, preset):
        with pytest.raises(ValueError, match="^unknown group preset"):
            parse_gamma(preset)

    def test_gamma_preset_order_bound(self):
        assert len(parse_gamma(f"cyclic:{MAX_GROUP_ORDER}")) == MAX_GROUP_ORDER
        assert len(parse_gamma(f"binary-dihedral:{MAX_GROUP_ORDER // 4}")) == MAX_GROUP_ORDER
        for preset, order in (
            (f"cyclic:{MAX_GROUP_ORDER + 1}", MAX_GROUP_ORDER + 1),
            (f"binary-dihedral:{MAX_GROUP_ORDER // 4 + 1}", MAX_GROUP_ORDER + 4),
        ):
            with pytest.raises(ValueError, match=f"^group order {order} exceeds"):
                parse_gamma(preset)

    def test_gamma_matrix_form(self):
        mats = [m.tolist() for m in gamma_cyclic(3)]
        parsed = parse_gamma({"matrices": mats})
        assert np.allclose(parsed, gamma_cyclic(3))

    def test_gamma_validation_rejects_junk(self):
        bad = gamma_cyclic(3).copy()
        bad[1, 0, 0] += 0.01  # breaks orthogonality
        with pytest.raises(ValueError):
            validate_gamma(bad, 1, 1)
        # closure failure: drop one element of a cyclic group of order 3
        with pytest.raises(ValueError):
            validate_gamma(gamma_cyclic(3)[:2], 1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gamma_validation_rejects_non_finite(self, bad):
        # NaN fails every tolerance comparison, so it needs its own check
        gammas = np.stack([np.eye(4), np.eye(4)])
        gammas[1, 3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            validate_gamma(gammas, 2, 3)

    @pytest.mark.parametrize("case", list(GAMMA_CASES))
    def test_gamma_checks_match_the_loop(self, case):
        gammas, weights, start = GAMMA_CASES[case]
        message = _rejection(validate_gamma, gammas, weights)
        assert message == _rejection(loop_validate_gamma, gammas, weights)
        if start is None:
            assert message is None
        else:
            assert message is not None and message.startswith(start)

    def test_closure_check_memory_is_bounded(self):
        # each product meets only the elements of Gram inner product above
        # 4 - 1e-6; a (|Gamma|, |Gamma|, 4, 4) gap array per element peaked
        # at 67 MB here; the spec also checks that the engine grid of every
        # preset fits at unit weights
        gammas = gamma_binary_dihedral(MAX_GROUP_ORDER // 4)
        tracemalloc.start()
        try:
            IsometricActionSpec(weights=(1, 1), gamma=gammas, samples=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 10**6

    def test_theta_cell_budget(self):
        # specs at the budget of engine grid cells are constructed, never
        # sampled
        top = MAX_GRID_CELLS // GRID_PER_WEIGHT
        assert top == 4096
        for gammas, weight in ((gamma_trivial(), top), (gamma_cyclic(8), top // 8)):
            IsometricActionSpec(weights=(1, weight), gamma=gammas, samples=50)
            with pytest.raises(ValueError, match="engine grid cells per pair, over the limit"):
                IsometricActionSpec(weights=(1, weight + 1), gamma=gammas, samples=50)


class TestSampling:
    def test_round_sphere_metric(self):
        sp = sample_round_two_sphere(120, seed=1)
        assert sp.size == 120
        assert sp.diameter() <= pi + 1e-12
        validate_metric(sp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_metric_validation_rejects_non_finite(self, bad):
        sp = sample_round_two_sphere(60, seed=1)
        sp.dist[3, 7] = sp.dist[7, 3] = bad
        with pytest.raises(spaces.MetricValidationError, match="finite"):
            validate_metric(sp)

    def test_metric_validation_rejects_shape_mismatch(self):
        sp = sample_round_two_sphere(60, seed=1)
        sp.points = sp.points[:-1]
        with pytest.raises(spaces.MetricValidationError, match="shape mismatch"):
            validate_metric(sp)

    @pytest.mark.parametrize(
        "cells, entry, message",
        [
            (((3, 7),), lambda x: np.nextafter(x, 4.0), "not symmetric"),
            (((5, 5),), lambda x: 5e-324, "nonzero diagonal"),
            (((3, 7), (7, 3)), lambda x: pi + 2e-9, "out of range"),
            (((3, 7), (7, 3)), lambda x: -5e-324, "out of range"),
        ],
    )
    def test_metric_validation_refusals(self, cells, entry, message):
        sp = sample_round_two_sphere(60, seed=1)
        for cell in cells:
            sp.dist[cell] = entry(sp.dist[cell])
        with pytest.raises(spaces.MetricValidationError, match=message):
            validate_metric(sp)

    # either side of the scan's entry budget, and of the fixed 300-point
    # limit it replaced, which the budget must not lower
    @pytest.mark.parametrize("n", [300, 301, plain_scan_limit(), plain_scan_limit() + 1])
    @pytest.mark.parametrize("excess, refused", [(1e-12, True), (-1e-12, False)])
    def test_planted_triangle_violation(self, n, excess, refused):
        sp = equilateral_space(n, seed=4)
        # a drawn triple of distinct points, so the random path visits it
        i, j, k = next(t for t in sampled_triples(n, sp.seed) if len(set(t)) == 3)
        long_side = sp.dist[i, k] + sp.dist[k, j] + spaces.TRIANGLE_TOL + excess
        sp.dist[i, j] = sp.dist[j, i] = long_side
        if refused:
            with pytest.raises(spaces.MetricValidationError, match="triangle"):
                validate_metric(sp)
        else:
            validate_metric(sp)

    def test_scan_choice_follows_the_entry_budget(self, monkeypatch):
        taken = []
        full, sampled = spaces._worst_full_slack, spaces._worst_sampled_slack

        def recording_full(d, passes):
            taken.append("full")
            return full(d, passes)

        def recording_sampled(d, seed):
            taken.append("sampled")
            return sampled(d, seed)

        monkeypatch.setattr(spaces, "_worst_full_slack", recording_full)
        monkeypatch.setattr(spaces, "_worst_sampled_slack", recording_sampled)
        limit = plain_scan_limit()
        assert limit >= 300  # never fewer complete scans than a fixed 300
        for n in (limit, limit + 1):
            validate_metric(equilateral_space(n, seed=0))
        assert taken == ["full", "sampled"]

        # two copies of one space swapped by sigma: the orbit scan takes the
        # passes 0, 2, 4, ... of the orbit-adjacent order
        def entries(n):
            return sum((n - 1 - i) ** 2 for i in range(0, n, 2))

        half = next(
            h for h in range(limit // 2, limit) if entries(2 * h + 2) > spaces.FULL_SCAN_ENTRIES
        )
        assert 2 * half > limit
        taken.clear()
        for h in (half, half + 1):
            d = equilateral_space(h, seed=0).dist
            validate_metric(SampledMetricSpace(
                points=np.zeros((2 * h, 4)), dist=np.block([[d, d], [d, d]]), marked=[],
                sheet_swap=np.roll(np.arange(2 * h), h),
            ))
        assert taken == ["full", "sampled"]

    def test_random_path_reaches_the_last_triple(self):
        n = 1200
        sp = equilateral_space(n, seed=4)
        idx = sampled_triples(n, sp.seed)
        # only a triple led by the pair {i, j} sees the planted long side:
        # plant on the last one whose pair leads no other triple
        pair = np.sort(idx[:, :2], axis=1) @ np.array([n, 1])
        alone = np.bincount(pair, minlength=n * n)[pair] == 1
        distinct = (idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2]) & (idx[:, 1] != idx[:, 2])
        i, j, k = idx[np.nonzero(alone & distinct)[0][-1]]
        long_side = sp.dist[i, k] + sp.dist[k, j] + 2 * spaces.TRIANGLE_TOL
        sp.dist[i, j] = sp.dist[j, i] = long_side
        with pytest.raises(spaces.MetricValidationError, match="triangle"):
            validate_metric(sp)

    def test_chunked_triples_are_one_draw(self):
        n, seed = 402, 0
        rng = np.random.default_rng(seed ^ 0x7A11E)
        chunks = [
            rng.integers(0, n, size=(min(spaces.TRIPLE_CHUNK, spaces.RANDOM_TRIPLES - s), 3))
            for s in range(0, spaces.RANDOM_TRIPLES, spaces.TRIPLE_CHUNK)
        ]
        assert len(chunks) > 1
        assert np.array_equal(np.concatenate(chunks), sampled_triples(n, seed))

    def test_sampled_slack_on_cover_matches_one_draw(self):
        # the 402-node high cover of check-q on (2, 3) at 100 samples
        low = sample_quotient(IsometricActionSpec(weights=(2, 3), samples=100, seed=0))
        high = regenerate(low, 200)
        marks = {m.label: m.index for m in high.marked}
        cover = _build_cover(high, (marks["z2=0"], marks["z1=0"]), BaseGraphs())
        assert cover.size == 402
        worst = spaces._worst_sampled_slack(cover.dist, cover.seed)
        assert worst == sampled_triangle_slack(cover.dist, cover.seed)

    @pytest.mark.parametrize("n", [803, 1603])
    def test_sampled_slack_matches_one_draw(self, n):
        # a metric's worst slack is the 0 of a triple with a repeated point,
        # whatever was drawn; uniform entries make it the best drawn triple's
        upper = np.triu(np.random.default_rng(n).uniform(0.0, pi, (n, n)), 1)
        d = upper + upper.T
        assert spaces._worst_sampled_slack(d, n) == sampled_triangle_slack(d, n)

    def test_full_slack_on_hopf_covers_matches_oracle(self):
        # the 104- and 204-node covers of check-q on Hopf/D3* at 50 samples
        spec = IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=50)
        low = sample_quotient(spec)
        branch = tuple(m.index for m in low.finite_isotropy_marks()[:2])
        for base, size in ((low, 104), (regenerate(low, 100), 204)):
            cover = _build_cover(base, branch, BaseGraphs())
            assert cover.size == size
            worst = spaces._worst_full_slack(cover.dist, np.arange(size - 1))
            assert abs(worst - full_triangle_slack(cover.dist)) <= 1e-14

    def test_full_slack_on_synthetic_matrices_matches_oracle(self):
        n = plain_scan_limit()
        # a metric, whose worst slack is the rounding left at near-degenerate
        # triples, and uniform entries, whose worst slack is a violation
        upper = np.triu(np.random.default_rng(n).uniform(0.0, pi, (n, n)), 1)
        matrices = [sample_round_two_sphere(n, seed=5).dist, upper + upper.T]
        # one long side on the first or the last pair of indices: every other
        # point is the middle of a violated triple, so a scan that takes one
        # order of each pair misses one of the two
        for i, j in ((0, 1), (n - 2, n - 1)):
            d = equilateral_space(n, seed=0).dist
            d[i, j] = d[j, i] = 1.0 + 1e-3
            matrices.append(d)
        # sides 0.2 + 0.2 < 0.5 leave d[x, y] <= d[x, z] + d[z, y] the one
        # violated inequality; the smallest index is its middle point z, or
        # an end of its long side whose other end is the largest or the
        # middle index
        for z, (x, y) in ((1, (3, 5)), (3, (1, 5)), (5, (1, 3))):
            d = equilateral_space(7, seed=0).dist
            d[x, z] = d[z, x] = d[z, y] = d[y, z] = 0.2
            assert full_triangle_slack(d) == pytest.approx(0.1, abs=1e-15)
            matrices.append(d)
        for d in matrices:
            worst = spaces._worst_full_slack(d, np.arange(len(d) - 1))
            assert abs(worst - full_triangle_slack(d)) <= 1e-14

    @pytest.mark.parametrize("weights, gamma, samples", [
        ((1, 1), gamma_binary_dihedral(3), 50),
        ((1, 1), gamma_binary_dihedral(3), 100),
        ((2, 3), gamma_trivial(), 100),
    ])
    def test_orbit_slack_on_covers_matches_full_scans(self, weights, gamma, samples):
        spec = IsometricActionSpec(weights=weights, gamma=gamma, samples=samples)
        covers = battery_covers(spec)
        assert len(covers) == (3 if len(gamma) > 1 else 1)
        for cover in covers:
            d, sigma = cover.dist, cover.sheet_swap
            order, first = spaces._orbit_order(sigma)
            worst = spaces._worst_full_slack(d[np.ix_(order, order)], first)
            every = np.arange(len(d) - 1)
            adjacent = orbit_adjacent_order(sigma)
            assert worst == spaces._worst_full_slack(d[np.ix_(adjacent, adjacent)], every)
            # the pass that reaches a triangle fixes which short side is
            # subtracted first, so the unpermuted scans agree to rounding
            assert abs(worst - spaces._worst_full_slack(d, every)) <= 1e-14
            assert abs(worst - full_triangle_slack(d)) <= 1e-14

    def test_space_without_sheet_swap_takes_every_pass(self, monkeypatch, hopf_cover):
        n, cover = hopf_cover
        passes = []
        full = spaces._worst_full_slack

        def recording(d, rows):
            passes.append(rows)
            return full(d, rows)

        monkeypatch.setattr(spaces, "_worst_full_slack", recording)
        validate_metric(dataclasses.replace(cover, sheet_swap=None))
        validate_metric(cover)
        plain, orbit = passes
        assert np.array_equal(plain, np.arange(cover.size - 1))
        # one pass per orbit: the two branch points and the n - 2 doubled
        # base points
        assert len(orbit) == n

    @pytest.mark.parametrize("weights, gamma", [
        ((1, 1), gamma_binary_dihedral(3)),
        ((2, 3), gamma_trivial()),
    ])
    def test_plain_quotient_scan_is_the_row_scan(self, monkeypatch, weights, gamma):
        # a plain space is scanned as one with the trivial sheet swap: the
        # identity order and every pass, so its worst slack is that of the
        # direct row scan, bit for bit
        space = sample_quotient(IsometricActionSpec(weights=weights, gamma=gamma, samples=100))
        scans = []
        full = spaces._worst_full_slack

        def recording(d, rows):
            worst = full(d, rows)
            scans.append((d, rows, worst))
            return worst

        monkeypatch.setattr(spaces, "_worst_full_slack", recording)
        validate_metric(space)
        [(scanned, rows, worst)] = scans
        assert np.array_equal(scanned, space.dist)
        assert np.array_equal(rows, np.arange(space.size - 1))
        assert worst == row_scan_slack(space.dist)

    @pytest.mark.parametrize("z", range(8))
    def test_violation_in_sheet_one_is_refused(self, hopf_cover, z):
        n, cover = hopf_cover
        d, sigma = cover.dist.copy(), cover.sheet_swap
        # a sheet-1 point and its two nearest sheet-1 neighbours: each is
        # the second point of its orbit, so no kept pass starts at any of
        # them and only the sigma-image of the triangle is scanned
        z += n
        x, y = n + np.argsort(d[z, n:])[1:3]
        assert all(sigma[v] < v for v in (x, y, z))
        long_side = d[x, z] + d[z, y] + 2 * spaces.TRIANGLE_TOL
        for u, v in ((x, y), (sigma[x], sigma[y])):
            d[u, v] = d[v, u] = long_side
        with pytest.raises(spaces.MetricValidationError, match="triangle"):
            validate_metric(dataclasses.replace(cover, dist=d))

    def test_sigma_asymmetric_edit_is_refused(self, hopf_cover):
        n, cover = hopf_cover
        d = cover.dist.copy()
        d[n, n + 1] = d[n + 1, n] = np.nextafter(d[n, n + 1], np.inf)
        with pytest.raises(spaces.MetricValidationError, match="invariant under its sheet swap"):
            validate_metric(dataclasses.replace(cover, dist=d))
        # still a metric: only the sheet swap refuses it
        validate_metric(dataclasses.replace(cover, dist=d, sheet_swap=None))

    def test_non_involution_is_refused(self, hopf_cover):
        _, cover = hopf_cover
        size = cover.size
        for swap in (np.roll(np.arange(size), 1), cover.sheet_swap[:-1],
                     cover.sheet_swap.astype(float), cover.sheet_swap + size):
            with pytest.raises(spaces.MetricValidationError, match="not an involution"):
                validate_metric(dataclasses.replace(cover, sheet_swap=swap))

    def test_sheet_swap_check_memory_is_bounded(self):
        # two copies of an 803-point metric swapped by sigma; comparing
        # d[np.ix_(sigma, sigma)] with d in one piece would trace 41 MB
        d = sample_round_two_sphere(803, seed=3).dist
        n = len(d)
        space = SampledMetricSpace(
            points=np.zeros((2 * n, 4)),
            dist=np.block([[d, d], [d, d]]),
            marked=[],
            sheet_swap=np.roll(np.arange(2 * n), n),
        )
        tracemalloc.start()
        try:
            validate_metric(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6

    def test_metric_validation_memory_is_bounded(self):
        # the chunks bound it: one draw of all the triples traces 38 MB
        sp = sample_round_two_sphere(803, seed=3)
        tracemalloc.start()
        try:
            validate_metric(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6

    def test_hopf_quotient_against_closed_form(self):
        sp = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=60, seed=11))
        for i in range(0, sp.size, 5):
            for j in range(1, sp.size, 9):
                assert sp.dist[i, j] == pytest.approx(
                    hopf_distance(sp.points[i], sp.points[j]), abs=1e-6
                )
        assert sp.diameter() <= pi / 2 + 1e-9

    def test_marked_coordinate_circles(self):
        sp = sample_quotient(IsometricActionSpec(weights=(1, 2), samples=60, seed=2))
        labels = {m.label: m.isotropy for m in sp.marked}
        # the axis scaled by weight 2 is fixed by the order-2 subgroup
        assert labels["z2=0"] == 1
        assert labels["z1=0"] == 2
        assert len(sp.finite_isotropy_marks()) == 1

    def test_dihedral_marks(self):
        sp = sample_quotient(
            IsometricActionSpec(
                weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=60, seed=2
            )
        )
        isotropies = sorted(m.isotropy for m in sp.finite_isotropy_marks())
        assert isotropies == [2, 2, 3]

    def test_prefix_property(self):
        low = sample_quotient(IsometricActionSpec(weights=(1, 2), samples=60, seed=9))
        high = regenerate(low, 120)
        assert np.array_equal(high.points[:60], low.points[:60])
        assert [m.label for m in high.marked] == [m.label for m in low.marked]

    @pytest.mark.parametrize(
        "weights, gamma",
        [
            ((1, 1), gamma_binary_dihedral(3)),
            ((1, 2), gamma_cyclic(3)),
            ((2, 3), gamma_trivial()),  # grid engine, antipodal marks
        ],
    )
    def test_regenerate_equals_fresh_sample(self, weights, gamma):
        # the reused block and the aligned pairs are both bit-identical
        spec = IsometricActionSpec(weights=weights, gamma=gamma, samples=60, seed=5)
        low = sample_quotient(spec)
        for samples in (120, 90, 50):
            high = regenerate(low, samples)
            fresh = sample_quotient(spec.with_samples(samples))
            # the action's one engine serves every resolution
            assert high.engine is low.engine
            assert np.array_equal(high.points, fresh.points)
            assert np.array_equal(high.dist, fresh.dist)
            assert high.marked == fresh.marked

    def test_regenerate_validates_gamma_once(self, monkeypatch):
        # the spec at the new sample count shares the validated gamma
        low = sample_quotient(
            IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=50)
        )
        calls = []
        check = actions.validate_gamma
        monkeypatch.setattr(actions, "validate_gamma", lambda *a: calls.append(a) or check(*a))
        high = regenerate(low, 100)
        assert calls == []
        assert high.spec.samples == 100 and high.spec.gamma is low.spec.gamma
        # the sample floor is still checked, and the patch is live
        with pytest.raises(ValueError, match="at least 50 sample points"):
            low.spec.with_samples(49)
        IsometricActionSpec(weights=(1, 1), samples=50)
        assert len(calls) == 1

    @pytest.mark.parametrize("low_samples, samples", [(60, 120), (100, 200), (60, 90)])
    def test_regenerate_aligns_only_fresh_pairs(self, monkeypatch, low_samples, samples):
        low = sample_quotient(
            IsometricActionSpec(weights=(2, 3), samples=low_samples, seed=5)
        )
        aligned = count_alignments(monkeypatch)
        high = regenerate(low, samples)
        # every pair with a fresh point, once, and nothing else
        touching = high.size * (high.size - 1) // 2 - low.size * (low.size - 1) // 2
        assert sum(aligned) == touching

    @pytest.mark.parametrize(
        "weights, gamma, samples",
        [((1, 2), gamma_cyclic(3), 200), ((2, 3), gamma_trivial(), 100)],
    )
    def test_distance_matrix_aligns_each_pair_once(self, monkeypatch, weights, gamma, samples):
        spec = IsometricActionSpec(weights=weights, gamma=gamma, samples=samples, seed=0)
        engine = DistanceEngine(spec.weights, spec.gamma)
        points = sample_quotient(spec).points
        aligned = count_alignments(monkeypatch)
        engine.distance_matrix(points)
        n = len(points)
        assert sum(aligned) == n * (n - 1) // 2

    @pytest.mark.parametrize(
        "weights, gamma",
        [((1, 1), gamma_binary_dihedral(3)), ((2, 3), gamma_trivial())],
    )
    def test_scattered_known_block_gives_back_the_matrix(self, weights, gamma):
        # every other point known: known and needed rows alternate in each chunk
        sp = sample_quotient(IsometricActionSpec(weights=weights, gamma=gamma, samples=80, seed=7))
        index = np.arange(0, sp.size, 2)
        engine = DistanceEngine(weights, gamma)
        dist = engine.distance_matrix(sp.points, known=(index, sp.dist[np.ix_(index, index)]))
        assert np.array_equal(dist, sp.dist)

    def test_check_q_discovers_marks_once(self, monkeypatch):
        # the singular orbits depend on the action only, so the 2N base
        # reuses the marks of the N base
        calls = []
        original = spaces.discover_marked

        def counting(engine):
            calls.append(engine)
            return original(engine)

        monkeypatch.setattr(spaces, "discover_marked", counting)
        spec = IsometricActionSpec(
            weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=50, seed=0
        )
        check_condition_qprime(spec)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "weights, gamma, samples",
        [((1, 1), gamma_binary_dihedral(3), 50), ((2, 3), gamma_trivial(), 100)],
    )
    def test_check_q_builds_one_engine(self, monkeypatch, weights, gamma, samples):
        # both resolutions and every azimuth field share the quotient's engine
        built = []
        original = DistanceEngine.__init__

        def counting(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(DistanceEngine, "__init__", counting)
        check_condition_qprime(
            IsometricActionSpec(weights=weights, gamma=gamma, samples=samples, seed=0)
        )
        assert len(built) == 1

    def test_quotient_distances_never_exceed_base(self):
        # projections are 1-Lipschitz: quotient distance <= spherical distance
        sp = sample_quotient(IsometricActionSpec(weights=(2, 3), samples=60, seed=4))
        gram = np.clip(sp.points @ sp.points.T, -1.0, 1.0)
        spherical = np.arccos(gram)
        assert np.all(sp.dist <= spherical + 1e-9)


class TestEngine:
    def test_alignment_realizes_distance(self):
        # Hopf/D3* contains -I = R(pi), so every pair has tied minimizers
        for weights, gamma in (
            ((1, 3), gamma_trivial()),
            ((1, 1), gamma_binary_dihedral(3)),
            ((1, -1), gamma_cyclic(3)),
            ((2, 3), gamma_cyclic(5)),
        ):
            spec = IsometricActionSpec(weights=weights, gamma=gamma, samples=50, seed=6)
            engine = DistanceEngine(spec.weights, spec.gamma)
            sp = sample_quotient(spec)
            for i in (0, 3, 11, sp.size - 1):
                reps = engine.align(sp.points[i], sp.points)
                assert isinstance(reps, np.ndarray) and reps.shape == (sp.size, 4)
                # every aligned representative realizes its matrix entry on
                # S^3; the matrix pins its diagonal to 0, where arccos
                # resolves ~1e-8
                chords = np.arccos(np.clip(reps @ sp.points[i], -1.0, 1.0))
                others = np.arange(sp.size) != i
                assert np.max(np.abs(chords - sp.dist[i])[others]) <= 1e-9
            # a lone ys row
            (rep,) = engine.align(sp.points[0], sp.points[1:2])
            assert abs(np.arccos(np.clip(rep @ sp.points[0], -1.0, 1.0)) - sp.dist[0, 1]) <= 1e-9

    def test_same_orbit_pairs_are_at_distance_zero(self):
        # x and R(0.7) x share an orbit; arccos of their cosine, within
        # rounding of 1, read up to 3e-8
        pts = np.random.default_rng(44).standard_normal((100, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        images = pts @ circle_matrix(2, 3, 0.7).T
        dist = DistanceEngine((2, 3), gamma_trivial()).distance_matrix(np.vstack([pts, images]))
        k = np.arange(100)
        assert np.max(dist[k, 100 + k]) <= 1e-12

    def test_gamma_average_is_metric_quotient(self):
        # adding gamma elements can only shrink distances
        base = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=60, seed=3))
        quot = sample_quotient(
            IsometricActionSpec(weights=(1, 1), gamma=gamma_cyclic(3), samples=60, seed=3)
        )
        assert np.all(quot.dist <= base.dist + 1e-9)


class TestFlatPairs:
    # the coordinate circles z2 = 0 and z1 = 0 make a flat pair: A = B = 0,
    # so f == 0 at every theta and every grid cell ties
    def test_answered_as_refining_every_cell_would(self):
        engine = DistanceEngine((2, 3), gamma_trivial())
        zeros = np.zeros(engine.grid_size)
        _, theta = engine._refine(zeros, zeros, zeros, zeros, np.arange(engine.grid_size))
        x, y = np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0, 0.0]])
        rows = tuple(u.conj() for u in engine._complex_parts(x))
        parts = rows + engine._transformed_parts(y) + (np.arange(1),)
        value, _, won = engine._grid_alignments(*parts)
        # refining every cell ties them all, and the last candidate is kept
        assert value[0] == 0.0 and won[0] == theta[-1]

    def test_discover_marked_refines_no_flat_pair(self, monkeypatch):
        candidates = []
        refine = DistanceEngine._refine

        def counting(self, g0, g1, g2, g3, t_idx):
            candidates.append(len(t_idx))
            return refine(self, g0, g1, g2, g3, t_idx)

        monkeypatch.setattr(DistanceEngine, "_refine", counting)
        spec = IsometricActionSpec(weights=(1, 2), gamma=lens_group(3, 1), samples=50)
        engine = DistanceEngine(spec.weights, spec.gamma)
        # a diagonal group has no eigenline to mark, and the coordinate
        # circles are read off the group without a distance
        reps, _ = spaces.discover_marked(engine)
        assert len(reps) == 2 and candidates == []
        # the oracle's 6 roots lie on the coordinate circles: the 8 x 8
        # matrix aligns its 28 upper pairs only; their 15 flat pairs
        # (A = B = 0) refine no cell, and the other 13 send 69 grid cells
        # to the polish
        engine.distance_matrix(np.vstack([COORDINATE_CIRCLES, svd_theta_roots(spec)]))
        assert sum(candidates) == 69


UNIT_WEIGHTS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
UNIT_GROUPS = {
    "trivial": gamma_trivial(),
    "cyclic:3": gamma_cyclic(3),
    "binary-dihedral:2": gamma_binary_dihedral(2),
    "binary-dihedral:3": gamma_binary_dihedral(3),
}


def theta_scan(weights, gammas, rows, pts, steps):
    """Best <x, R(theta) gamma y> over gamma and `steps` even thetas, for
    every x in rows and y in pts, by the circle matrices."""
    scan = np.full((len(rows), len(pts)), -np.inf)
    for t in np.linspace(0.0, 2.0 * pi, steps, endpoint=False):
        moved = np.einsum("gab,jb->gja", circle_matrix(*weights, t) @ gammas, pts)
        scan = np.maximum(scan, np.einsum("ia,gja->gij", rows, moved).max(axis=0))
    return scan


def check_against_theta_scan(engine, pts, alignments, steps, tol, value_tol):
    """No theta of an independent scan over circle_matrix beats the
    alignments of the first 6 rows by more than tol, and each returned
    (gamma, theta) realizes its value to value_tol."""
    value, gamma_idx, theta = (a.reshape(len(pts), len(pts)) for a in alignments)
    weights, gammas = (engine.p, engine.q), engine.gammas
    rows = pts[:6]
    scan = theta_scan(weights, gammas, rows, pts, steps)
    assert np.max(scan - value[: len(rows)]) <= tol
    for i, x in enumerate(rows):
        for j, y in enumerate(pts):
            move = circle_matrix(*weights, theta[i, j]) @ gammas[gamma_idx[i, j]]
            assert x @ move @ y == pytest.approx(value[i, j], abs=value_tol)


def engine_inputs(weights, gammas, seed):
    """An engine for the action and the pair-list inputs of all 30 x 30
    ordered pairs of 30 random points, row-major."""
    engine = DistanceEngine(weights, gammas)
    n = 30
    pts = np.random.default_rng(seed).standard_normal((n, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    a1, a2 = (u.conj().repeat(n) for u in engine._complex_parts(pts))
    v1, v2 = engine._transformed_parts(pts)
    return engine, pts, (a1, a2, v1, v2, np.tile(np.arange(n), n))


def on_orbit(weights, gammas, rep, y):
    """Whether rep = R(theta) gamma y for some gamma and theta of a
    unit-weight action: theta read from the larger coordinate of rep."""
    p, q = weights
    z1, z2 = complex(rep[0], rep[1]), complex(rep[2], rep[3])
    for moved in gammas @ y:
        w1, w2 = complex(moved[0], moved[1]), complex(moved[2], moved[3])
        theta = np.angle(z1 / w1) / p if abs(z1) >= abs(z2) else np.angle(z2 / w2) / q
        if np.max(np.abs(circle_matrix(p, q, theta) @ moved - rep)) <= 1e-12:
            return True
    return False


class TestClosedForm:
    @pytest.mark.parametrize("group", sorted(UNIT_GROUPS))
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_matches_grid_solver(self, weights, group):
        engine, pts, parts = engine_inputs(weights, UNIT_GROUPS[group], seed=21)
        grid, _, _ = engine._grid_alignments(*parts)
        others = ~np.eye(len(pts), dtype=bool).reshape(-1)
        gap = engine.distance_matrix(pts).reshape(-1) - np.arccos(np.clip(grid, -1, 1))
        assert np.max(np.abs(gap[others])) <= 1e-12

    @pytest.mark.parametrize("group", sorted(UNIT_GROUPS))
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_theta_scan_never_beats_it(self, weights, group):
        gammas = UNIT_GROUPS[group]
        engine, pts, _ = engine_inputs(weights, gammas, seed=22)
        rows = pts[:6]
        dist = engine.distance_matrix(pts)
        for x, row, row_scan in zip(rows, dist, theta_scan(weights, gammas, rows, pts, 1024)):
            reps = engine.align(x, pts)
            # each representative realizes its distance, on y's orbit
            assert np.max(np.abs(reps @ x - np.cos(row))) <= 1e-14
            assert np.max(row_scan - reps @ x) <= 1e-15
            assert all(on_orbit(weights, gammas, rep, y) for rep, y in zip(reps, pts))

    def test_unit_weights_never_refine(self, monkeypatch):
        def refuse(self, g0, g1, g2, g3, t_idx):
            raise AssertionError("unit weights reached the grid solver")

        monkeypatch.setattr(DistanceEngine, "_refine", refuse)
        pts = np.random.default_rng(23).standard_normal((40, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        hopf = DistanceEngine((1, 1), gamma_binary_dihedral(3))
        dist = hopf.distance_matrix(pts)
        chords = np.arccos(np.clip(hopf.align(pts[0], pts) @ pts[0], -1.0, 1.0))
        assert np.max(np.abs(chords - dist[0])[1:]) <= 1e-12
        # the patch is live: general weights still refine
        with pytest.raises(AssertionError, match="grid solver"):
            DistanceEngine((2, 3), gamma_trivial()).distance_matrix(pts)

    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_earliest_gamma_wins_exact_ties(self, weights):
        # -I negates S exactly, so it ties with I on every pair; its
        # representatives R(theta + pi)(-y) differ from R(theta) y in the
        # last bits
        pts = np.random.default_rng(25).standard_normal((50, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        alone = DistanceEngine(weights, gamma_trivial()).align(pts[0], pts)
        tied = DistanceEngine(weights, np.stack([np.eye(4), -np.eye(4)])).align(pts[0], pts)
        assert np.array_equal(alone, tied)


def unit_group(weights, group):
    """UNIT_GROUPS[group] at weights, a binary dihedral group through its
    commuting embedding (`commuting`)."""
    gammas = UNIT_GROUPS[group]
    return commuting(weights, gammas) if group.startswith("binary-dihedral") else gammas


def unit_spec(weights, group, samples):
    return IsometricActionSpec(
        weights=weights, gamma=unit_group(weights, group), samples=samples, seed=31
    )


# distance matrices agree with the S^3 engine they replace to this, off
# the diagonal (both diagonals are 0)
S3_GATE = 1e-12


def assert_within_s3_gate(dist, oracle):
    assert dist.shape == oracle.shape
    assert np.max(np.abs(dist - oracle)) <= S3_GATE


class TestValuePath:
    # unit-weight matrices come from the rotations gbar on S^2; the S^3
    # builder they replace took the largest |S| over Gamma, keeping each
    # pair's winner by masked writes
    @pytest.mark.parametrize("group", sorted(UNIT_GROUPS))
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_fresh_matrix_is_the_winner_paths(self, weights, group):
        # 400 points: six full row chunks and a partial one
        pts = np.random.default_rng(32).standard_normal((400, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        dist = DistanceEngine(weights, UNIT_GROUPS[group]).distance_matrix(pts)
        assert_within_s3_gate(dist, winner_path_distance_matrix(weights, UNIT_GROUPS[group], pts))

    @pytest.mark.parametrize("group", sorted(UNIT_GROUPS))
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_regenerate_is_the_winner_paths(self, weights, group):
        # regenerate copies the distances it has and aligns the rest
        low = sample_quotient(unit_spec(weights, group, 80))
        for space in (low, regenerate(low, 150), regenerate(low, 50)):
            oracle = winner_path_distance_matrix(weights, low.spec.gamma, space.points)
            assert_within_s3_gate(space.dist, oracle)

    @pytest.mark.parametrize("group", sorted(UNIT_GROUPS))
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_scattered_known_block_is_the_winner_paths(self, weights, group):
        gammas = unit_group(weights, group)
        sp = sample_quotient(unit_spec(weights, group, 80))
        index = np.arange(0, sp.size, 2)
        dist = DistanceEngine(weights, gammas).distance_matrix(
            sp.points, known=(index, sp.dist[np.ix_(index, index)])
        )
        assert_within_s3_gate(dist, winner_path_distance_matrix(weights, gammas, sp.points))


HOPF_PRESETS = ["trivial", "cyclic:4", "binary-dihedral:3", "binary-dihedral:5"]


def hopf_preset(weights, preset):
    """A preset as a group that commutes with the circle at unit weights."""
    gammas = parse_gamma(preset)
    return commuting(weights, gammas) if preset.startswith("binary-dihedral") else gammas


def near_pair_points(weights, gammas, seed):
    """150 random unit 4-vectors, then one point on the orbit of each of the
    first 40 under Gamma and the circle: for k < 30 the orbit of a point
    1e-4 away, so the pair (k, 150 + k) lies within 1e-4 in the quotient,
    and for k >= 30 the orbit itself, at distance 0."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((150, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    near = []
    for k in range(40):
        x = pts[k]
        if k < 30:
            nudge = rng.standard_normal(4)
            x = x + 1e-4 * nudge / np.linalg.norm(nudge)
            x /= np.linalg.norm(x)
        move = circle_matrix(*weights, rng.uniform(0.0, 2.0 * pi)) @ gammas[rng.integers(len(gammas))]
        near.append(move @ x)
    return np.vstack([pts, near])


class TestHopfQuotient:
    # unit-weight matrices against the Hopf-map oracle in np.longdouble

    @pytest.mark.parametrize("preset", HOPF_PRESETS)
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_one_rotation_per_kernel_coset(self, weights, preset):
        gammas = hopf_preset(weights, preset)
        spec = IsometricActionSpec(weights=weights, gamma=gammas, samples=50)
        order = len(gammas) // probe_kernel_count(spec)
        assert len(DistanceEngine(weights, gammas).rotations) == order
        assert len(hopf_rotations(weights, gammas)) == order

    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_polarized_forms_are_the_hopf_map(self, weights):
        # x^T H_k x = h_k(c x), against the map from complex coordinates
        x = np.random.default_rng(43).standard_normal((200, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        forms = DistanceEngine(weights, gamma_trivial()).hopf_forms
        quadratic = np.einsum("na,kab,nb->nk", x, forms, x)
        assert np.max(np.abs(quadratic - hopf_long(weights, x).astype(float))) <= 1e-15

    def test_binary_dihedral_three_has_six_rotations(self):
        # -I = R(pi) pairs the 12 elements of D3*
        assert len(DistanceEngine((1, 1), gamma_binary_dihedral(3)).rotations) == 6

    @pytest.mark.parametrize("preset", HOPF_PRESETS)
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_matches_longdouble_oracle(self, weights, preset):
        gammas = hopf_preset(weights, preset)
        pts = near_pair_points(weights, gammas, seed=41)
        oracle = hopf_distance_matrix(weights, gammas, pts)
        k = np.arange(40)
        assert np.all(oracle[k, 150 + k] <= 1e-4)
        dist = DistanceEngine(weights, gammas).distance_matrix(pts)
        others = ~np.eye(len(pts), dtype=bool)
        assert np.max(np.abs(dist - oracle.astype(float))[others]) <= 1e-12

    @pytest.mark.parametrize("n", [ROW_CHUNK + 1, ROW_CHUNK + 2, 2 * ROW_CHUNK + 1])
    def test_chunk_tails_are_the_full_chunks(self, n):
        # the n points inside a larger matrix, where each of their rows is
        # in a full chunk: a product of one row would round differently
        pts = np.random.default_rng(42).standard_normal((n + ROW_CHUNK - 1, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        engine = DistanceEngine((1, 1), gamma_binary_dihedral(3))
        dist = engine.distance_matrix(pts[:n])
        assert np.array_equal(dist, engine.distance_matrix(pts)[:n, :n])

    def test_one_and_two_blas_threads_agree(self, tmp_path):
        # the 203-point Hopf/D3* matrix of extent at 200 samples
        src = pathlib.Path(x4circle.__file__).resolve().parents[1]
        script = (
            "import sys, numpy as np\n"
            "from x4circle.extent_lab import IsometricActionSpec, gamma_binary_dihedral, sample_quotient\n"
            "spec = IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=200)\n"
            "np.save(sys.argv[1], sample_quotient(spec).dist)\n"
        )
        matrices = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            out = tmp_path / f"threads{threads}.npy"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                           timeout=120)
            matrices.append(np.load(out))
        assert matrices[0].shape == (203, 203)
        assert np.array_equal(matrices[0], matrices[1])


def lens_group(m, k):
    """Z_m acting by (zeta z1, zeta^k z2).  Unlike the presets, its quaternion
    pairs have a_1 != 0 and b_1 != 0, so both sine terms of g are exercised."""
    out = np.zeros((m, 4, 4))
    for j in range(m):
        out[j] = circle_matrix(1, k, 2 * pi * j / m)
    return out


# binary-dihedral:2 at weights (1, -1) is its commuting embedding
ORACLE_SPECS = {
    f"{w}/{g}": (w, commuting(w, parse_gamma(g)) if g.startswith("binary") else parse_gamma(g))
    for w, g in [
        ((1, 1), "trivial"),
        ((1, 1), "cyclic:3"),
        ((1, 1), "cyclic:4"),
        ((1, 1), "binary-dihedral:2"),
        ((1, 1), "binary-dihedral:3"),
        ((1, 1), "binary-dihedral:5"),
        ((1, -1), "cyclic:3"),
        ((1, -1), "binary-dihedral:2"),
        ((-1, 1), "cyclic:3"),
        ((2, 3), "trivial"),
        ((1, 2), "trivial"),
        ((1, 2), "cyclic:3"),
        ((1, 3), "trivial"),
        ((3, 5), "cyclic:2"),
        ((2, -3), "cyclic:5"),
    ]
}
ORACLE_SPECS["(2, 3)/lens(5,2)"] = ((2, 3), lens_group(5, 2))
ORACLE_SPECS["(1, 2)/lens(3,1)"] = ((1, 2), lens_group(3, 1))


GENERAL_WEIGHT_SPECS = [name for name, (w, _) in ORACLE_SPECS.items() if max(map(abs, w)) > 1]


class RecordingEngine(DistanceEngine):
    """An engine that records each `_taylor` evaluation: the coefficients,
    the thetas and the values of f."""

    def __init__(self, weights, gammas):
        super().__init__(weights, gammas)
        self.evaluations = []

    def _taylor(self, g0, g1, g2, g3, theta):
        out = super()._taylor(g0, g1, g2, g3, theta)
        self.evaluations.append((np.stack([g0, g1, g2, g3]), theta.copy(), out[0].copy()))
        return out


class TestGridSolver:
    @pytest.mark.parametrize(
        "name",
        [
            "(2, 3)/trivial",
            "(1, 2)/cyclic:3",
            "(3, 5)/cyclic:2",
            "(2, -3)/cyclic:5",
            "(2, 3)/lens(5,2)",
            "(1, 2)/lens(3,1)",
        ],
    )
    def test_theta_scan_never_beats_it(self, name):
        engine, pts, parts = engine_inputs(*ORACLE_SPECS[name], seed=24)
        check_against_theta_scan(
            engine, pts, engine._grid_alignments(*parts), 4096, tol=1e-12, value_tol=1e-12
        )

    @pytest.mark.parametrize("name", GENERAL_WEIGHT_SPECS)
    def test_matches_golden_oracle(self, name):
        weights, gammas = ORACLE_SPECS[name]
        engine, pts, parts = engine_inputs(weights, gammas, seed=25)
        value = engine._grid_alignments(*parts)[0].reshape(len(pts), len(pts))
        oracle = golden_grid_alignments(weights, gammas, pts)
        assert np.max(np.abs(value - oracle)) <= 1e-15
        # arccos resolves ~1e-8 on the diagonal, where x = y
        others = ~np.eye(len(pts), dtype=bool)
        gap = np.arccos(np.clip(value, -1, 1)) - np.arccos(np.clip(oracle, -1, 1))
        assert np.max(np.abs(gap[others])) <= 1e-12

    @given(
        weights=st.tuples(
            st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([-3, -2, -1, 1, 2, 3])
        ),
        coeffs=st.lists(
            st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        cells=st.lists(st.integers(min_value=0, max_value=10**6), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_refine_polishes_within_its_bracket(self, weights, coeffs, cells):
        p, q = weights
        engine = RecordingEngine(weights, gamma_trivial())
        # scaled to |A| + |B| <= 1, as the coefficients of two unit vectors;
        # distinct after scaling (+ 0.0 drops -0.0), so each evaluation
        # names its candidate by its coefficients
        g = np.array(coeffs).T + 0.0
        g = g / np.maximum(1.0, np.hypot(g[0], g[1]) + np.hypot(g[2], g[3]))
        g = np.array(sorted(set(map(tuple, g.T)))).T
        # start at a grid-local maximum of f, as the grid scan does
        grid = engine._taylor(*g[:, :, None], np.arange(engine.grid_size) * engine.step)[0]
        local = (grid >= np.roll(grid, 1, axis=1)) & (grid >= np.roll(grid, -1, axis=1))
        t_idx = np.array([np.nonzero(row)[0][c % row.sum()] for row, c in zip(local, cells)])
        engine.evaluations.clear()
        value, theta = engine._refine(*g, t_idx)
        center = t_idx * engine.step

        def f(x):
            return (
                g[0] * np.cos(p * x) + g[1] * np.sin(p * x)
                + g[2] * np.cos(q * x) + g[3] * np.sin(q * x)
            )

        golden, _ = golden_max(f, center - engine.step, center + engine.step, 48)
        for k in range(len(t_idx)):
            mine = [np.all(c.T == g[:, k], axis=1) for c, _, _ in engine.evaluations]
            seen_t = np.concatenate([t[m] for m, (_, t, _) in zip(mine, engine.evaluations)])
            seen_f = np.concatenate([v[m] for m, (_, _, v) in zip(mine, engine.evaluations)])
            assert seen_t[0] == center[k]
            assert np.all(np.abs(seen_t - center[k]) <= engine.step)
            assert value[k] == seen_f.max()
            assert theta[k] in seen_t[seen_f == value[k]]
            # both are f in double precision, where p theta alone rounds by up
            # to 2e-15; golden's ~50 evaluations near the top keep the most
            # favourable rounding, which beat Newton's ~4 by up to 1.4e-15 in
            # a million random candidates (Newton's theta was the closer one)
            assert value[k] >= golden[k] - 4e-15

    def test_newton_steps_per_candidate(self, monkeypatch):
        # golden-section polish made 50 evaluations per candidate
        candidates, steps = [], []
        refine, taylor = DistanceEngine._refine, DistanceEngine._taylor

        def counting_refine(self, g0, g1, g2, g3, t_idx):
            candidates.append(len(t_idx))
            return refine(self, g0, g1, g2, g3, t_idx)

        def counting_taylor(self, g0, g1, g2, g3, theta):
            steps.append(len(theta))
            return taylor(self, g0, g1, g2, g3, theta)

        monkeypatch.setattr(DistanceEngine, "_refine", counting_refine)
        monkeypatch.setattr(DistanceEngine, "_taylor", counting_taylor)
        pts = np.random.default_rng(26).standard_normal((200, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        DistanceEngine((2, 3), gamma_trivial()).distance_matrix(pts)
        assert sum(candidates) > 19_900  # at least one per pair
        assert sum(steps) < 6 * sum(candidates)


def record_refines(engine):
    """Record the coefficients and grid cells of each `_refine` call of
    engine, as one flat array per call; returns the list."""
    calls = []
    refine = engine._refine

    def recording(g0, g1, g2, g3, t_idx):
        calls.append(np.concatenate([g0, g1, g2, g3, t_idx]))
        return refine(g0, g1, g2, g3, t_idx)

    engine._refine = recording
    return calls


def assert_same_scans(engine, oracle, pts, rows):
    """engine and oracle give the same matrix of pts and alignments of
    pts[rows], bit for bit, from the same candidates in the same order."""
    calls, oracle_calls = record_refines(engine), record_refines(oracle)
    assert np.array_equal(engine.distance_matrix(pts), oracle.distance_matrix(pts))
    for i in rows:
        assert np.array_equal(engine.align(pts[i], pts), oracle.align(pts[i], pts))
    assert len(calls) == len(oracle_calls) > 0
    assert all(np.array_equal(a, b) for a, b in zip(calls, oracle_calls))


class TestThresholdScan:
    """The grid scan's threshold pass against the masked scan of oracles.py,
    bit for bit: the same candidates in the same order, so the same
    matrices, winners and thetas."""

    @pytest.mark.parametrize(
        "weights, gamma",
        [
            ((2, 3), gamma_trivial()),
            ((1, 2), gamma_trivial()),
            ((2, 5), gamma_trivial()),
            ((3, -5), gamma_trivial()),
            ((2, 3), lens_group(5, 2)),
        ],
        ids=["(2,3)", "(1,2)", "(2,5)", "(3,-5)", "(2,3)/lens(5,2)"],
    )
    def test_matches_masked_scan(self, weights, gamma):
        # 70 samples and the marks: two row chunks, and the coordinate
        # circles z2 = 0 and z1 = 0 make a flat pair (A = B = 0)
        sp = sample_quotient(IsometricActionSpec(weights=weights, gamma=gamma, samples=70, seed=3))
        assert sp.size > ROW_CHUNK
        engine, oracle = DistanceEngine(weights, gamma), MaskScanEngine(weights, gamma)
        assert_same_scans(engine, oracle, sp.points, (0, 17, *(m.index for m in sp.marked)))

    def test_flat_pairs_match_masked_scan(self):
        # both coordinate circles twice over, among random points: every
        # pair of z2 = 0 with z1 = 0 points is flat for every gamma of Z_5
        # acting diagonally
        pts = np.random.default_rng(27).standard_normal((40, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        circles = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
        pts = np.concatenate([circles, pts, circles])
        for weights, gamma in (((2, 3), gamma_trivial()), ((2, 3), lens_group(5, 2))):
            engine, oracle = DistanceEngine(weights, gamma), MaskScanEngine(weights, gamma)
            assert_same_scans(engine, oracle, pts, range(4))

    def test_no_pairs(self):
        engine = DistanceEngine((2, 3), gamma_trivial())
        empty = np.zeros(0, dtype=complex)
        v = np.zeros((1, 3), dtype=complex)
        best, gamma_idx, theta = engine._grid_alignments(empty, empty, v, v, np.zeros(0, dtype=int))
        assert best.shape == gamma_idx.shape == theta.shape == (0,)

    def test_matrix_memory_is_bounded(self):
        # one 64-row chunk of a 400-point matrix aligns 23,520 pairs, whose
        # (66, pairs) block is 12.4 MB; the masked scan traced 31.4 MB
        pts = np.random.default_rng(0).standard_normal((400, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        engine = DistanceEngine((2, 3), gamma_trivial())
        tracemalloc.start()
        try:
            engine.distance_matrix(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 10**6


COORDINATE_CIRCLES = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


class TestSingularOrbits:
    @pytest.mark.parametrize("name", ORACLE_SPECS)
    def test_matches_svd_oracle(self, name, monkeypatch):
        weights, gammas = ORACLE_SPECS[name]
        spec = IsometricActionSpec(weights=weights, gamma=gammas, samples=50)
        engine = DistanceEngine(spec.weights, spec.gamma)
        roots = spaces._eigenlines(engine)
        if abs(weights[0]) != abs(weights[1]):
            # Gamma is diagonal: every circle the oracle finds is a
            # coordinate circle, and the isotropy orders scale |Gamma| / |K|
            assert roots == []
            assert engine.cosets == len(gammas) // probe_kernel_count(spec)
            oracle = svd_theta_roots(spec)
            if oracle:
                dist = engine.distance_matrix(np.vstack([COORDINATE_CIRCLES, oracle]))
                assert np.max(np.min(dist[:2, 2:], axis=0)) <= 1e-12
            return
        # the oracle on the first element of every rotation: it skips the
        # identity rotation's, a kernel element, by itself
        firsts = types.SimpleNamespace(weights=weights, gamma=gammas[engine.first_elements])
        oracle = svd_theta_roots(firsts)
        assert len(roots) == len(oracle)
        if roots:
            # the fixed circles are orbits, so each root lies on its oracle's
            dist = engine.distance_matrix(np.vstack([roots, oracle]))
            assert np.max(np.diag(dist[: len(roots), len(roots) :])) <= 1e-12
        # the oracle's circles of every element of Gamma mark the same orbits
        reps, marks = spaces.discover_marked(engine)
        monkeypatch.setattr(spaces, "_eigenlines", lambda engine: svd_theta_roots(spec))
        oracle_reps, oracle_marks = spaces.discover_marked(engine)
        assert marks == oracle_marks
        dist = engine.distance_matrix(np.vstack([reps, oracle_reps]))
        assert np.max(np.diag(dist[: len(reps), len(reps) :])) <= 1e-12

    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("weights", UNIT_WEIGHTS)
    def test_eigenline_marks_in_the_oracle_order(self, weights, m, monkeypatch):
        # D_m*: the coordinate circles are one orbit, the order-m axis, and
        # the two classes of half-turn axes follow in the oracle's theta order
        spec = IsometricActionSpec(
            weights=weights, gamma=commuting(weights, gamma_binary_dihedral(m)), samples=50
        )
        engine = DistanceEngine(spec.weights, spec.gamma)
        _, marks = spaces.discover_marked(engine)
        monkeypatch.setattr(spaces, "_eigenlines", lambda engine: svd_theta_roots(spec))
        _, oracle_marks = spaces.discover_marked(engine)
        got = [(mark.label, mark.isotropy) for mark in marks]
        assert got == [(mark.label, mark.isotropy) for mark in oracle_marks]
        assert got == [("z2=0", m), ("singular:0", 2), ("singular:1", 2)]

    def test_isotropy_matches_the_stabilizer_count(self):
        weights = UNIT_WEIGHTS + [
            (1, 2), (2, 1), (2, 3), (3, 2), (2, -3), (1, 3), (2, 5), (3, 4), (3, 5)
        ]
        cases = [(w, gamma_cyclic(m)) for w in weights for m in range(1, 13)]
        cases += [
            (w, commuting(w, gamma_binary_dihedral(m))) for w in UNIT_WEIGHTS for m in range(1, 9)
        ]
        cases += [(w, g) for g, w, start in GAMMA_CASES.values() if start is None]
        for w, gammas in cases:
            spec = IsometricActionSpec(weights=w, gamma=gammas, samples=50)
            kernel = probe_kernel_count(spec)
            engine = DistanceEngine(w, gammas)
            reps, marks = spaces.discover_marked(engine)
            for rep, mark in zip(reps, marks):
                assert stabilizer_count(spec, rep) == mark.isotropy * kernel, (w, len(gammas))
            # two eigenlines per rotation of Gamma bar = Gamma / K other than
            # the identity, at unit weights
            unit = abs(w[0]) == abs(w[1])
            assert len(spaces._eigenlines(engine)) == 2 * (len(gammas) // kernel - 1) * unit
        # at weights (1, -1) every element of cyclic:m is some R(theta), and
        # at weights (1, 1) so is -I = R(pi), element 3 of D3*, beside I
        for w, gammas, count in (
            ((1, -1), gamma_cyclic(12), 0),
            ((1, 1), gamma_binary_dihedral(3), 2 * 5),
        ):
            assert len(spaces._eigenlines(DistanceEngine(w, gammas))) == count

    @pytest.mark.parametrize(
        "weights, gamma",
        [((1, 1), gamma_binary_dihedral(3)), ((1, -1), gamma_cyclic(4)),
         ((2, 3), lens_group(5, 2)), ((1, 3), gamma_trivial())],
    )
    def test_discovery_computes_no_distance(self, weights, gamma, monkeypatch):
        # the marks are read off the group's image, never from the engine
        def refuse(self, *args, **kwargs):
            raise AssertionError("discover_marked called the distance engine")

        spec = IsometricActionSpec(weights=weights, gamma=gamma, samples=50)
        engine = DistanceEngine(spec.weights, spec.gamma)
        monkeypatch.setattr(DistanceEngine, "distance_matrix", refuse)
        monkeypatch.setattr(DistanceEngine, "align", refuse)
        _, marks = spaces.discover_marked(engine)
        assert marks

    def test_near_identity_element_is_in_the_kernel(self):
        # the identity given as a rotation of the z1 plane by 9e-10 passes
        # validation; its turn 4096 * 9e-10 is above SINGULAR_TOL, but within
        # (|p| + |q|) SINGULAR_TOL
        gamma = circle_matrix(1, 0, 9e-10)[None]
        spec = IsometricActionSpec(weights=(1, 4096), gamma=gamma, samples=50)
        _, marks = spaces.discover_marked(DistanceEngine(spec.weights, spec.gamma))
        assert [(m.label, m.isotropy) for m in marks] == [("z2=0", 1), ("z1=0", 4096)]

    @pytest.mark.parametrize(
        "gammas",
        [gamma_cyclic(m) for m in range(1, 7)]
        + [gamma_binary_dihedral(m) for m in range(1, 6)],
    )
    def test_quaternion_pair_of_presets(self, gammas):
        # every preset element is x -> x conj(b) with b = conj(gamma 1), so
        # the presets commute with the Hopf weights
        for gamma in gammas:
            b = gamma[:, 0] * np.array([1.0, -1.0, -1.0, -1.0])
            assert np.max(np.abs(two_sided_matrix(np.eye(4)[0], b) - gamma)) <= 1e-12
        validate_gamma(gammas, 1, 1)

    @pytest.mark.parametrize("command", ["extent", "check-q"])
    @pytest.mark.parametrize(
        "weights, gamma",
        [
            ((1, 1), {"matrices": [np.eye(4).tolist(), MIRROR.tolist()]}),
            ((1, -1), {"matrices": [np.eye(4).tolist(), MIRROR.tolist()]}),
            ((2, 3), {"matrices": [np.eye(4).tolist(), MIRROR.tolist()]}),
            # 6 of its 12 elements carry J to -J; it sampled an RP^2
            ((1, -1), "binary-dihedral:3"),
        ],
    )
    def test_anticommuting_group_exits_one(self, command, weights, gamma, capsys, monkeypatch):
        action = {"weights": list(weights), "gamma": gamma}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"action": action})))
        assert cli.main([command, "--samples", "50"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "ValueError: gamma element does not commute with the circle action "
            "(gamma J gamma^T must be J)\n"
        )


class TestGoldenMax:
    @given(
        coeffs=st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=7, max_size=7
        ),
        degree=st.integers(min_value=0, max_value=3),
        brackets=st.lists(
            st.tuples(
                st.floats(min_value=-4.0, max_value=4.0),
                st.floats(min_value=1e-6, max_value=3.0),
            ),
            min_size=1,
            max_size=6,
        ),
        iters=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_returns_best_evaluated_point(self, coeffs, degree, brackets, iters):
        # the invariant that lets the oracles drop a running maximum
        c0, *cs = coeffs
        seen_x, seen_f = [], []

        def f(theta):
            out = np.full_like(theta, c0)
            for k in range(1, degree + 1):
                out += cs[2 * k - 2] * np.cos(k * theta) + cs[2 * k - 1] * np.sin(k * theta)
            seen_x.append(theta.copy())
            seen_f.append(out.copy())
            return out

        a = np.array([lo for lo, _ in brackets])
        b = a + np.array([width for _, width in brackets])
        value, arg = golden_max(f, a, b, iters)
        xs, fs = np.array(seen_x), np.array(seen_f)
        assert len(fs) == iters + 2
        assert np.array_equal(value, fs.max(axis=0))
        for k in range(len(a)):
            hits = xs[:, k] == arg[k]
            assert hits.any()
            assert np.all(fs[hits, k] == value[k])
            assert a[k] <= arg[k] <= b[k]


class TestExtents:
    def test_xt2_is_diameter(self):
        sp = sample_round_two_sphere(200, seed=7)
        report = extent(sp, 2)
        assert report.method == "exact"
        assert report.value == pytest.approx(sp.diameter(), abs=1e-15)

    def test_heuristic_matches_exact_small(self):
        sp = sample_quotient(IsometricActionSpec(weights=(1, 2), samples=120, seed=8))
        exact = extent(sp, 3, method="exact")
        heuristic = extent(sp, 3, method="heuristic")
        assert heuristic.value == pytest.approx(exact.value, abs=1e-12)
        assert exact.method == "exact" and heuristic.method == "heuristic"

    def test_monotone_in_q(self):
        sp = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=90, seed=12))
        xt2 = extent(sp, 2).value
        xt3 = extent(sp, 3).value
        xt4 = extent(sp, 4).value
        assert xt4 <= xt3 + 1e-12 <= xt2 + 2e-12

    def test_exact_only_up_to_three(self):
        sp = sample_round_two_sphere(60, seed=1)
        with pytest.raises(ValueError):
            extent(sp, 4, method="exact")

    def test_determinism(self):
        sp = sample_quotient(IsometricActionSpec(weights=(2, 5), samples=320, seed=13))
        a = extent(sp, 3)
        b = extent(sp, 3)
        assert a.method == "heuristic"
        assert a.value == b.value and a.witness == b.witness

    @pytest.mark.parametrize("q, method", [(3, "exacct"), (2, "bogus"), (4, "nonsense")])
    def test_unknown_method_rejected(self, q, method):
        sp = sample_round_two_sphere(60, seed=1)
        with pytest.raises(ValueError, match="unknown extent method"):
            extent(sp, q, method=method)

    # the three of 24 heuristic reports (seeds 0-11) whose ascent-order sum
    # differed from the witness average in the last ulp
    @pytest.mark.parametrize(
        "build",
        [
            lambda: sample_round_two_sphere(320, seed=2),
            lambda: sample_round_two_sphere(320, seed=10),
            lambda: sample_quotient(IsometricActionSpec(weights=(1, 2), samples=310, seed=1)),
        ],
        ids=["round-s2-seed2", "round-s2-seed10", "weights12-seed1"],
    )
    def test_heuristic_value_is_witness_average(self, build):
        sp = build()
        report = extent(sp, 3)
        assert report.method == "heuristic"
        assert report.value == report.witness_average(sp)
        assert type(report.value) is float

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: equilateral_space(1, seed=0),
            lambda: equilateral_space(3, seed=5),
            lambda: matrix_space(symmetric_from(
                np.random.default_rng(4).integers(0, 4, 45).astype(float), 10)),
            lambda: sample_round_two_sphere(60, seed=3),
            lambda: sample_quotient(IsometricActionSpec(weights=(2, 5), samples=320, seed=13)),
        ],
        ids=["one-point", "equilateral-3", "integer-ties-10", "round-s2-60", "weights25-320"],
    )
    def test_heuristic_matches_serial_ascent(self, build, q):
        # with n < q every restart starts at a repeated index
        sp = build()
        report = extent(sp, q, method="heuristic")
        value, witness = serial_heuristic_extent(sp.dist, q, sp.seed, extents.RESTARTS)
        assert report.value == value and report.witness == witness

    def test_heuristic_memory_is_bounded(self):
        # the sweep holds a score and a row block of RESTARTS x n entries;
        # one restart at a time traced 0.04 MB
        n = 1000
        sp = sample_round_two_sphere(n, seed=3)
        for q in (3, 5):
            tracemalloc.start()
            try:
                extent(sp, q, method="heuristic")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * extents.RESTARTS * n * 8

    def test_hopf_is_small(self):
        sp = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=150, seed=1))
        xt3 = extent(sp, 3).value
        small, margin = is_small(xt3)
        assert small
        assert margin == SMALL_BOUND - xt3
        # the verdict allows xt3 up to pi/3 + tol, the margin does not
        assert is_small(SMALL_BOUND + 0.05, tol=0.05)[0]
        assert not is_small(SMALL_BOUND + 0.0501, tol=0.05)[0]


def matrix_space(d) -> SampledMetricSpace:
    d = np.asarray(d, dtype=float)
    return SampledMetricSpace(points=np.zeros((len(d), 4)), dist=d, marked=[])


def symmetric_from(upper, n):
    """Symmetric n x n matrix with zero diagonal from n(n-1)/2 entries."""
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return d + d.T


@st.composite
def distance_matrices(draw):
    """Metric, symmetric non-metric, and tie-heavy matrices.

    Tie-heavy matrices repeat points of a smaller base matrix at distance 0,
    so the farthest-point traversal can run out of points before it has
    made all its cells.  Their entries are
    integers, whose sums are exact, or tenths, whose sums round differently
    in different orders ((0.1 + 0.2) + 0.3 != (0.1 + 0.3) + 0.2): a block
    that sums a triple in another order than the brute force can rank two
    triples the other way round.
    """
    kind = draw(st.sampled_from(["metric", "symmetric", "integer", "tenths"]))
    n = draw(st.integers(1, 36))
    if kind == "metric":
        coords = draw(st.lists(st.floats(-4, 4), min_size=2 * n, max_size=2 * n))
        x = np.reshape(coords, (n, 2))
        return np.linalg.norm(x[:, None] - x[None, :], axis=2)
    if kind == "symmetric":
        size = n * (n - 1) // 2
        return symmetric_from(draw(st.lists(st.floats(0, 3), min_size=size, max_size=size)), n)
    values = [0, 1, 2, 3] if kind == "integer" else [0.1, 0.2, 0.3]
    base_n = draw(st.integers(1, n))
    size = base_n * (base_n - 1) // 2
    base = symmetric_from(
        draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)), base_n
    )
    idx = draw(st.lists(st.integers(0, base_n - 1), min_size=n, max_size=n))
    return base[np.ix_(idx, idx)]


class TestExactExtent:
    """The cell branch-and-bound xt_3 against the brute force in oracles.py."""

    # without the rounding slack, the search ranks (1, 2, 3) above the
    # brute force's (1, 1, 2) here: both average 0.19999999999999998
    @settings(max_examples=400, deadline=None)
    @given(distance_matrices())
    @example(symmetric_from([0.1, 0.1, 0.1, 0.3, 0.2, 0.1], 4))
    def test_matches_brute_force(self, d):
        report = extent(matrix_space(d), 3, method="exact")
        assert (report.value, report.witness) == brute_force_extent_three(d)
        assert report.witness == tuple(sorted(report.witness))

    @pytest.mark.parametrize(
        "d, witness",
        [
            ([[0.0]], (0, 0, 0)),
            ([[0.0, 1.0], [1.0, 0.0]], (0, 0, 1)),
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], (0, 0, 2)),
        ],
    )
    def test_tiny_spaces_repeat_an_index(self, d, witness):
        report = extent(matrix_space(d), 3)
        assert report.witness == witness
        assert (report.value, report.witness) == brute_force_extent_three(np.array(d))

    @staticmethod
    def count_blocks(monkeypatch):
        """Count the point triples summed, and the largest broadcast block."""
        stats = {"triples": 0, "largest": 0}
        block_sums = extents._block_sums

        def counting(d, i, j, k):
            size = len(i) * len(j) * len(k)
            stats["triples"] += size
            stats["largest"] = max(stats["largest"], size)
            return block_sums(d, i, j, k)

        monkeypatch.setattr(extents, "_block_sums", counting)
        return stats

    def test_prunes_hopf_base(self, monkeypatch):
        sp = sample_quotient(
            IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=200, seed=0)
        )
        stats = self.count_blocks(monkeypatch)
        report = extent(sp, 3)
        n = sp.size
        assert report.method == "exact"
        assert 0 < stats["triples"] < 0.01 * n * (n + 1) * (n + 2) / 6

    def test_forced_exact_above_limit(self, monkeypatch):
        sp = sample_quotient(
            IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=800, seed=0)
        )
        assert sp.size > extents.EXACT_LIMIT
        heuristic = extent(sp, 3)
        stats = self.count_blocks(monkeypatch)
        exact = extent(sp, 3, method="exact")
        assert heuristic.method == "heuristic" and exact.method == "exact"
        assert exact.value == heuristic.value
        assert 0 < stats["largest"] <= extents.BLOCK
        assert stats["triples"] < 0.01 * sp.size ** 3 / 6
