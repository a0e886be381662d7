"""The public namespaces of the package and of its numerical lab."""

import types

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
