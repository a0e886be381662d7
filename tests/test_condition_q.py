"""Tests for the three-part smallness battery on sampled quotients."""

import weakref
from math import pi

import numpy as np
import pytest

from x4circle.extent_lab import (
    IsometricActionSpec,
    check_condition_qprime,
    double_branched_cover,
    gamma_binary_dihedral,
    gamma_cyclic,
    sample_quotient,
)
from x4circle.extent_lab import condition_q as condition_q_module
from x4circle.extent_lab import cover as cover_module


@pytest.fixture(scope="module")
def dihedral_report():
    spec = IsometricActionSpec(
        weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=220, seed=5
    )
    return check_condition_qprime(spec, tol=0.02)


class TestDihedralBattery:
    def test_all_checks_pass(self, dihedral_report):
        assert dihedral_report.all_passed

    def test_three_cone_points(self, dihedral_report):
        assert dihedral_report.cone_points == 3

    def test_diameter(self, dihedral_report):
        assert dihedral_report.diameter == pytest.approx(pi / 4, abs=0.02)

    def test_quotient_smallness_value(self, dihedral_report):
        item = next(c for c in dihedral_report.checks if c.name == "quotient-small")
        assert item.applicable and item.passed
        # xt3 of the order-12 dihedral quotient is 2*pi/9
        assert item.margin == pytest.approx(pi / 3 - 2 * pi / 9, abs=0.01)

    def test_cover_items_enumerate_cone_pairs(self, dihedral_report):
        names = {c.name for c in dihedral_report.checks if c.name.startswith("cover-")}
        assert names == {
            "cover-small:z2=0|singular:0",
            "cover-small:z2=0|singular:1",
            "cover-small:singular:0|singular:1",
        }
        for c in dihedral_report.checks:
            if c.name.startswith("cover-"):
                assert c.applicable and c.passed
                assert "drift" in c.details

    def test_mixed_order_cover_value(self, dihedral_report):
        # branching over the order-3 and an order-2 point yields a football
        # with a flat total angle budget: xt3 = 5*pi/18, resolution-exact
        item = next(
            c
            for c in dihedral_report.checks
            if c.name == "cover-small:z2=0|singular:0"
        )
        assert item.margin == pytest.approx(pi / 3 - 5 * pi / 18, abs=1e-6)

    def test_three_cone_diameter_item(self, dihedral_report):
        item = next(
            c for c in dihedral_report.checks if c.name == "three-cone-diameter"
        )
        assert item.applicable and item.passed
        # the bound pi/4 is attained exactly by this quotient
        assert item.margin == pytest.approx(0.0, abs=1e-9)


class TestApplicability:
    def test_free_action_has_vacuous_cover_items(self):
        report = check_condition_qprime(
            IsometricActionSpec(weights=(1, 1), samples=120, seed=3), tol=0.02
        )
        assert report.cone_points == 0
        assert not any(c.name.startswith("cover-") for c in report.checks)
        three = next(c for c in report.checks if c.name == "three-cone-diameter")
        assert not three.applicable
        assert report.all_passed

    def test_two_cone_points_skip_diameter_bound(self):
        # cyclic:3 on the diagonal action leaves two order-3 cone points
        report = check_condition_qprime(
            IsometricActionSpec(
                weights=(1, 1), gamma=gamma_cyclic(3), samples=150, seed=4
            ),
            tol=0.02,
        )
        assert report.cone_points == 2
        three = next(c for c in report.checks if c.name == "three-cone-diameter")
        assert not three.applicable
        names = [c.name for c in report.checks if c.name.startswith("cover-")]
        assert len(names) == 1
        assert report.all_passed

    def test_one_cone_point_has_no_cover_items(self):
        spec = IsometricActionSpec(weights=(1, 2), samples=120, seed=6)
        report = check_condition_qprime(spec, tol=0.02)
        # one finite cone point: no pair to branch over
        assert report.cone_points == 1
        assert not any(c.name.startswith("cover-") for c in report.checks)
        assert report.all_passed
        # the battery measures the quotient that sample_quotient draws from the spec
        assert report.diameter == sample_quotient(spec).diameter()


class TestSharedCoverState:
    def test_graphs_and_fields_are_built_once_per_resolution(self, monkeypatch):
        calls = {"_knn_edges": 0, "_azimuth_field": 0}
        for name in calls:

            def counting(*args, _name=name, _original=getattr(cover_module, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cover_module, name, counting)
        built = []
        battery_cover = condition_q_module.double_branched_cover

        def recording(space, branch, **kwargs):
            result = battery_cover(space, branch, **kwargs)
            built.append((space, branch, kwargs["tol"], result))
            return result

        monkeypatch.setattr(condition_q_module, "double_branched_cover", recording)
        spec = IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=50)
        check_condition_qprime(spec)
        # three branch pairs, each covered at 50 and 100 samples: one graph
        # per resolution, and one field per cone point and resolution
        assert len(built) == 3
        assert calls == {"_knn_edges": 2, "_azimuth_field": 6}

        monkeypatch.undo()
        for space, branch, tol, (cover, certificate) in built:
            alone, alone_certificate = double_branched_cover(space, branch, tol=tol)
            assert np.array_equal(alone.dist, cover.dist)
            assert np.array_equal(alone.points, cover.points)
            assert np.array_equal(alone.sheet_swap, cover.sheet_swap)
            assert alone.marked == cover.marked
            assert alone_certificate == certificate

    def test_no_cover_is_alive_when_the_next_is_built(self, monkeypatch):
        # each certificate reads its low cover's diameter and xt3 before the
        # high cover is built, and the battery keeps only the certificates
        built, alive = [], []
        build = cover_module._build_cover

        def tracking(*args):
            alive.append(sum(ref() is not None for ref in built))
            cover = build(*args)
            built.append(weakref.ref(cover))
            return cover

        monkeypatch.setattr(cover_module, "_build_cover", tracking)
        spec = IsometricActionSpec(weights=(1, 1), gamma=gamma_binary_dihedral(3), samples=50)
        check_condition_qprime(spec)
        assert alive == [0] * 6


@pytest.fixture(scope="module")
def hopf_z4_space():
    spec = IsometricActionSpec(weights=(1, 1), gamma=gamma_cyclic(4), samples=50)
    return sample_quotient(spec)


@pytest.mark.parametrize("tol", [-1, 0, 1, 5, float("nan")])
def test_tol_outside_the_open_unit_interval_is_refused(monkeypatch, hopf_z4_space, tol):
    # hopf/Z4 at 50 samples passed every item at tol = 5, although its
    # cover fails at 0.02, and -1, 0 and NaN ended in a ConvergenceError
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before refusing the tol")

    monkeypatch.setattr(condition_q_module, "sample_quotient", refuse)
    monkeypatch.setattr(cover_module, "regenerate", refuse)
    monkeypatch.setattr(cover_module, "_build_cover", refuse)
    branch = tuple(m.index for m in hopf_z4_space.finite_isotropy_marks())
    assert len(branch) == 2
    message = r"^tol must lie in \(0, 1\) radians$"
    with pytest.raises(ValueError, match=message):
        check_condition_qprime(hopf_z4_space.spec, tol=tol)
    with pytest.raises(ValueError, match=message):
        double_branched_cover(hopf_z4_space, branch, tol=tol)
