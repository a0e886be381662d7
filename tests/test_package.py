"""The package's public namespace."""

import types

import x4circle


def test_all_names_resolve_to_non_modules():
    assert x4circle.__all__
    for name in x4circle.__all__:
        assert not isinstance(getattr(x4circle, name), types.ModuleType), name
    assert {"classify", "InvariantTuple", "fundamental_group"} <= set(x4circle.__all__)
