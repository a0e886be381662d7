"""Seifert presentations: normalization, groups, recognition."""

from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x4circle.seifert import (
    INFINITE,
    BoundaryLabel,
    SeifertPresentation,
    abelian_order_two_fibers,
    euler_number,
    fundamental_group,
    normalize,
    recognize_boundary,
)


coprime_pairs = st.tuples(
    st.integers(min_value=1, max_value=12), st.integers(min_value=-12, max_value=12)
).filter(lambda ab: gcd(ab[0], ab[1]) == 1)


def P(*fibers):
    return SeifertPresentation(0, fibers)


class TestConstruction:
    def test_rejects_positive_genus(self):
        with pytest.raises(ValueError):
            SeifertPresentation(1, [(2, 1)])

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            P((4, 2))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            P((0, 1))
        with pytest.raises(ValueError):
            P((-2, 1))

    def test_empty_needs_trivial_flag(self):
        with pytest.raises(ValueError):
            SeifertPresentation(0, [])
        p = SeifertPresentation(0, [], trivial_fibration=True)
        assert p.fibers == ()


class TestEulerAndNormalize:
    def test_euler_example(self):
        assert euler_number(P((2, 1), (3, -1))) == F(-1, 6)

    def test_normalize_frozen(self):
        assert normalize(P((2, -1))).fibers == ((2, 1), (1, -1))
        assert normalize(P((3, 4))).fibers == ((3, 1), (1, 1))
        assert normalize(P((1, 0))).fibers == ((1, 0),)

    @given(st.lists(coprime_pairs, min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_normalize_preserves_euler_number(self, fibers):
        p = P(*fibers)
        q = normalize(p)
        assert euler_number(q) == euler_number(p)
        *exceptional, last = q.fibers
        assert last[0] == 1
        for a, b in exceptional:
            assert a > 1 and 0 < b < a


class TestFundamentalGroup:
    def test_shape(self):
        g = fundamental_group(P((2, 1), (3, -1), (5, 2)))
        assert len(g.generators) == 4  # n + 1
        assert len(g.relators) == 7  # 2n + 1
        assert g.generators == ("q1", "q2", "q3", "h")

    def test_relator_strings(self):
        g = fundamental_group(P((2, 1)))
        assert g.relator_strings() == ["q1^1 h^1 q1^-1 h^-1", "q1^2 h^1", "q1^1"]

    def test_frozen_groups(self):
        # {0; (1,1)} is the 3-sphere
        inv = fundamental_group(P((1, 1))).abelian_invariants()
        assert inv.order == 1
        # {0; (1,0)} is S^2 x S^1
        inv = fundamental_group(P((1, 0))).abelian_invariants()
        assert inv.free_rank == 1
        # {0; (2,1), (2,1)} has first homology of order 4
        inv = fundamental_group(P((2, 1), (2, 1))).abelian_invariants()
        assert inv.order == 4


class TestTwoFiberOrder:
    def test_frozen(self):
        assert abelian_order_two_fibers(P((2, 1), (3, 1))) == 5
        assert abelian_order_two_fibers(P((2, 1), (2, -1))) == INFINITE
        assert abelian_order_two_fibers(P((1, 0), (1, 1))) == 1

    def test_requires_two_fibers(self):
        with pytest.raises(ValueError):
            abelian_order_two_fibers(P((2, 1)))

    def test_matches_smith_normal_form_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            a1, a2 = (int(x) for x in rng.integers(1, 13, size=2))
            b1, b2 = (int(x) for x in rng.integers(-12, 13, size=2))
            if gcd(a1, b1) != 1 or gcd(a2, b2) != 1:
                continue
            p = P((a1, b1), (a2, b2))
            closed = abelian_order_two_fibers(p)
            inv = fundamental_group(p).abelian_invariants()
            if closed == INFINITE:
                assert not inv.finite
            else:
                assert inv.order == closed
            checked += 1


class TestRecognizeBoundary:
    def test_spheres_and_lenses(self):
        r = recognize_boundary(P((1, 1)))
        assert (r.label, r.admissible) == (BoundaryLabel.SPHERE, True)
        r = recognize_boundary(P((2, 1), (3, 1)))
        assert (r.label, r.order, r.admissible) == (BoundaryLabel.LENS, 5, True)
        r = recognize_boundary(SeifertPresentation(0, [], trivial_fibration=True))
        assert (r.label, r.admissible) == (BoundaryLabel.S2XS1, False)

    def test_s2xs1_is_inadmissible(self):
        r = recognize_boundary(P((2, 1), (2, -1)))
        assert (r.label, r.admissible) == (BoundaryLabel.S2XS1, False)

    def test_prism_and_tetrahedral(self):
        r = recognize_boundary(P((2, -1), (2, 1), (3, 1)))
        assert (r.label, r.admissible) == (BoundaryLabel.PRISM, True)
        r = recognize_boundary(P((3, -1), (3, 1), (2, 1)))
        assert (r.label, r.admissible) == (BoundaryLabel.TETRAHEDRAL, True)
        # base orbifold (3,3,5) is not spherical: infinite group, inadmissible
        r = recognize_boundary(P((3, -1), (3, 1), (5, 1)))
        assert (r.label, r.admissible) == (BoundaryLabel.TETRAHEDRAL, False)

    def test_virtual_third_fiber_is_a_lens_space(self):
        r = recognize_boundary(P((2, -1), (2, 1), (1, 3)))
        assert (r.label, r.order, r.admissible) == (BoundaryLabel.LENS, 12, True)
        r = recognize_boundary(P((2, -1), (2, 1), (1, 0)))
        assert (r.label, r.admissible) == (BoundaryLabel.S2XS1, False)

    def test_unmatched_shapes_are_other_unknown(self):
        r = recognize_boundary(P((2, 1), (3, 1), (5, 1)))
        assert (r.label, r.admissible) == (BoundaryLabel.OTHER, None)
        r = recognize_boundary(P((2, 1), (2, 1), (2, 1), (2, 1)))
        assert (r.label, r.admissible) == (BoundaryLabel.OTHER, None)

    def test_descriptions(self):
        assert recognize_boundary(P((2, 1), (3, 1))).describe() == "LensSpace(5)"
        assert recognize_boundary(P((1, 1))).describe() == "Sphere"
