"""Tests for quotient sampling, the distance engine, extents, and matrix IO.

The free-action quotient of the unit 3-sphere by the diagonal circle is a
round 2-sphere of radius 1/2, whose distances have the closed form
arccos |<x, y>| in the complex inner product.  That formula is used here
as an oracle only; the engine under test always takes the generic
orbit-alignment scan path.
"""

from math import gcd, pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x4circle.extent_lab import (
    DistanceEngine,
    IsometricActionSpec,
    SMALL_BOUND,
    extent,
    gamma_binary_dihedral,
    gamma_cyclic,
    gamma_trivial,
    is_small,
    parse_gamma,
    read_distance_matrix,
    regenerate,
    sample_quotient,
    sample_round_two_sphere,
    validate_gamma,
    validate_metric,
    write_distance_matrix,
)
from x4circle.extent_lab.engine import golden_max


def hopf_distance(x, y):
    zx, wx = x[0] + 1j * x[1], x[2] + 1j * x[3]
    zy, wy = y[0] + 1j * y[1], y[2] + 1j * y[3]
    inner = zx * np.conj(zy) + wx * np.conj(wy)
    return float(np.arccos(np.clip(abs(inner), -1.0, 1.0)))


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


class TestSampling:
    def test_round_sphere_metric(self):
        sp = sample_round_two_sphere(120, seed=1)
        assert sp.size == 120
        assert sp.diameter() <= pi + 1e-12
        validate_metric(sp)

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

    def test_quotient_distances_never_exceed_base(self):
        # projections are 1-Lipschitz: quotient distance <= spherical distance
        sp = sample_quotient(IsometricActionSpec(weights=(2, 3), samples=60, seed=4))
        gram = np.clip(sp.points @ sp.points.T, -1.0, 1.0)
        spherical = np.arccos(gram)
        assert np.all(sp.dist <= spherical + 1e-9)


class TestEngine:
    def test_alignment_realizes_distance(self):
        # Hopf/D3* contains -I = R(pi), so every pair has tied minimizers
        for weights, gamma in (((1, 3), gamma_trivial()), ((1, 1), gamma_binary_dihedral(3))):
            spec = IsometricActionSpec(weights=weights, gamma=gamma, samples=50, seed=6)
            engine = DistanceEngine(spec.weights, spec.gamma)
            sp = sample_quotient(spec)
            for i in (0, 3, 11, sp.size - 1):
                dist, reps = engine.align(sp.points[i], sp.points)
                # the matrix pins its diagonal to 0; arccos resolves ~1e-8 there
                others = np.arange(sp.size) != i
                assert np.max(np.abs(dist - sp.dist[i])[others]) <= 1e-12
                # every aligned representative realizes its distance on S^3
                chords = np.arccos(np.clip(reps @ sp.points[i], -1.0, 1.0))
                assert np.max(np.abs(chords - dist)[others]) <= 1e-9

    def test_gamma_average_is_metric_quotient(self):
        # adding gamma elements can only shrink distances
        base = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=60, seed=3))
        quot = sample_quotient(
            IsometricActionSpec(weights=(1, 1), gamma=gamma_cyclic(3), samples=60, seed=3)
        )
        assert np.all(quot.dist <= base.dist + 1e-9)


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
        # the invariant that lets the engine drop a running maximum
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

    def test_hopf_is_small(self):
        sp = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=150, seed=1))
        small, margin = is_small(sp)
        assert small
        assert margin == pytest.approx(SMALL_BOUND - extent(sp, 3).value, abs=1e-12)


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        sp = sample_round_two_sphere(64, seed=3)
        path = tmp_path / "dist.x4"
        write_distance_matrix(path, sp.dist)
        back = read_distance_matrix(path)
        assert np.array_equal(back, sp.dist)

    def test_header_layout(self, tmp_path):
        sp = sample_round_two_sphere(50, seed=3)
        path = tmp_path / "dist.x4"
        write_distance_matrix(path, sp.dist)
        raw = path.read_bytes()
        assert raw[:6] == b"X4EXT1"
        assert int.from_bytes(raw[8:16], "little") == 50
        assert len(raw) == 16 + 8 * 50 * 50

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.x4"
        path.write_bytes(b"NOTX4!" + bytes(26))
        with pytest.raises(ValueError):
            read_distance_matrix(path)
