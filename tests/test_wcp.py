"""Weighted projective weight vectors from three-fixed-point invariant data."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x4circle.invariants import InvariantTuple
from x4circle.wcp import (
    QuotientDescriptor,
    WeightTriple,
    verify_kernel,
    weights_from_invariants,
)

from oracles import rational_nullspace


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
triples = st.tuples(rationals, rationals, rationals).filter(
    lambda t: t[0] != t[1] and t[1] != t[2] and t[0] != t[2]
)


class TestWeightTriple:
    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            WeightTriple(0, 1, 1)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            WeightTriple(2, 4, 6)

    def test_as_tuple(self):
        assert WeightTriple(4, -1, -1).as_tuple() == (4, -1, -1)


class TestWeights:
    def test_frozen_example(self):
        d = weights_from_invariants(InvariantTuple(["0", "-1/2", "1/2"]))
        assert d.weights.as_tuple() == (4, -1, -1)
        assert (d.alpha_bar, d.beta_bar) == (1, 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_tangent_family(self, n):
        t = InvariantTuple([0, F(-1, n), F(1, n)])
        d = weights_from_invariants(t)
        assert d.weights.as_tuple() == (2 * n, -1, -1)
        assert (d.alpha_bar, d.beta_bar) == (1, 1)

    def test_residual_factors(self):
        # alphas (2, 2, 2) share 2; betas (1, -1, 3) are coprime
        d = weights_from_invariants(InvariantTuple(["1/2", "-1/2", "3/2"]))
        assert d.alpha_bar == 2
        assert d.beta_bar == 1
        # integer entries: alphas all 1, betas share 3
        d = weights_from_invariants(InvariantTuple([3, -3, 6]))
        assert d.alpha_bar == 1
        assert d.beta_bar == 3

    def test_rejects_unrealizable(self):
        with pytest.raises(ValueError):
            weights_from_invariants(InvariantTuple(["1/2", "1/2", "1/3"]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            weights_from_invariants(InvariantTuple(["1/2", "1/3"]))

    @given(triples)
    @settings(max_examples=300)
    def test_kernel_property(self, entries):
        t = InvariantTuple(entries)
        d = weights_from_invariants(t)
        w = d.weights.as_tuple()
        assert verify_kernel(d.weights, t)
        assert gcd(gcd(abs(w[0]), abs(w[1])), abs(w[2])) == 1
        assert all(x != 0 for x in w)

    @given(triples)
    @settings(max_examples=200)
    def test_matches_integer_kernel_oracle(self, entries):
        # the kernel line over Q, scaled to a primitive integer vector
        t = InvariantTuple(entries)
        w = weights_from_invariants(t).weights.as_tuple()
        rows = [
            [e.denominator for e in t.entries],
            [e.numerator for e in t.entries],
        ]
        kernel = rational_nullspace(rows)
        assert len(kernel) == 1
        v = kernel[0]
        assert v == list(w) or v == [-x for x in w]

    def test_verify_kernel_rejects_wrong_vector(self):
        t = InvariantTuple(["0", "-1/2", "1/2"])
        assert not verify_kernel(WeightTriple(4, -1, 1), t)
