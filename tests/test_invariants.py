"""Invariant tuple algebra: canonical forms, equivalence and invariants
under the test oracle's equivalence moves."""

from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x4circle.invariants import (
    InvariantTuple,
    are_equivalent,
    canonicalize,
    cyclic_differences,
    euler_sum,
    is_realizable,
)

from oracles import (
    bfs_equivalent,
    random_move_image,
    random_tuple,
    reverse,
    rotate,
    translate,
)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
tuples_strategy = st.lists(rationals, min_size=2, max_size=5).map(InvariantTuple)
moves_strategy = st.one_of(
    st.just(rotate),
    st.just(reverse),
    st.integers(min_value=-3, max_value=3).map(lambda k: partial(translate, k=k)),
)


def T(*entries):
    return InvariantTuple(entries)


def moved(t: InvariantTuple, move) -> InvariantTuple:
    """The image of t under one of the oracle's moves."""
    return InvariantTuple(move(t.entries))


class TestMoves:
    def test_rotation(self):
        assert moved(T("0", "1/2", "1/3"), rotate) == T("1/2", "1/3", "0")

    def test_reversal(self):
        assert moved(T("0", "1/2", "1/3"), reverse) == T("-1/3", "-1/2", "0")

    def test_translation(self):
        assert translate(T("0", "1/2", "1/3").entries, 1) == T("1", "3/2", "4/3").entries

    @given(tuples_strategy)
    @settings(max_examples=100)
    def test_rotation_order_n(self, t):
        out = t
        for _ in range(len(t)):
            out = moved(out, rotate)
        assert out == t

    @given(tuples_strategy)
    @settings(max_examples=100)
    def test_reversal_is_involutive(self, t):
        assert moved(moved(t, reverse), reverse) == t

    @given(tuples_strategy, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100)
    def test_translation_inverse(self, t, k):
        assert translate(translate(t.entries, k), -k) == t.entries


class TestCanonical:
    def test_frozen_example(self):
        assert canonicalize(T(0, 1, 2)) == T(0, -2, -1)

    def test_already_minimal(self):
        t = T("0", "-1/2", "1/2")
        assert canonicalize(t) == t

    def test_first_entry_in_unit_interval(self):
        c = canonicalize(T("7/3", "-5/2", "9"))
        assert 0 <= c[0] < 1

    @given(tuples_strategy)
    @settings(max_examples=200)
    def test_idempotent(self, t):
        c = canonicalize(t)
        assert canonicalize(c) == c

    @given(tuples_strategy, moves_strategy)
    @settings(max_examples=300)
    def test_constant_on_orbits(self, t, move):
        assert canonicalize(moved(t, move)) == canonicalize(t)


class TestEquivalence:
    def test_frozen_pairs(self):
        assert are_equivalent(T(0, 1, 2), T(1, 2, 3))
        assert not are_equivalent(T("0", "-1/2", "1/2"), T("0", "1/2", "-1/2"))

    def test_length_mismatch(self):
        assert not are_equivalent(T(0, 1), T(0, 1, 2))

    @given(tuples_strategy)
    @settings(max_examples=100)
    def test_reflexive(self, t):
        assert are_equivalent(t, t)

    def test_matches_bfs_oracle_on_seeded_pairs(self):
        rng = np.random.default_rng(20260819)
        for trial in range(120):
            n = int(rng.integers(2, 5))
            a = random_tuple(rng, n)
            b = random_move_image(rng, a) if trial % 2 == 0 else random_tuple(rng, n)
            assert are_equivalent(a, b) == bfs_equivalent(a, b)


class TestRealizability:
    def test_triples_need_pairwise_unequal(self):
        assert is_realizable(T("0", "-1/2", "1/2"))
        assert not is_realizable(T("1/2", "1/2", "0"))
        assert not is_realizable(T("0", "1/2", "0"))  # wrap-around neighbours equal

    def test_longer_tuples_need_consecutive_unequal(self):
        # repeated entries are fine when not cyclically adjacent
        assert is_realizable(T("0", "1/2", "0", "1/2"))
        assert not is_realizable(T("0", "0", "1/2", "1/3"))

    @given(tuples_strategy, moves_strategy)
    @settings(max_examples=200)
    def test_invariant_under_moves(self, t, move):
        assert is_realizable(moved(t, move)) == is_realizable(t)


class TestNumericalInvariants:
    def test_euler_frozen(self):
        assert euler_sum(T("1/2", "1/3", "1/5")) == F(-31, 30)

    @given(tuples_strategy, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=150)
    def test_euler_translation_law(self, t, k):
        shifted = InvariantTuple(translate(t.entries, k))
        assert euler_sum(shifted) == euler_sum(t) - len(t) * k

    def test_cyclic_differences_frozen(self):
        assert cyclic_differences(T("0", "-1/2", "1/2")) == (F(-1, 2), F(-1, 2), F(1))

    @given(tuples_strategy, moves_strategy)
    @settings(max_examples=300)
    def test_cyclic_differences_invariant(self, t, move):
        assert cyclic_differences(moved(t, move)) == cyclic_differences(t)

    @given(tuples_strategy)
    @settings(max_examples=100)
    def test_cyclic_differences_sum_zero(self, t):
        assert sum(cyclic_differences(t), F(0)) == 0


class TestConstructionAndFormat:
    def test_too_short(self):
        with pytest.raises(ValueError):
            InvariantTuple([F(1)])

    def test_string_parsing(self):
        assert T("0", "-1/2", "1/2") == T(F(0), F(-1, 2), F(1, 2))

    def test_rational_round_trip(self):
        for text in ["0", "-1/2", "7", "22/7", "-9"]:
            assert str(F(text)) == text
            assert T(text, "1").as_strings() == [text, "1"]

    def test_equal_entries_are_one_value(self):
        # the same entries from strings (spaces allowed), ints and Fractions
        forms = [
            T(" -1/2", "3 ", "4/6"),
            T(F(-1, 2), 3, F(2, 3)),
            T(F(-2, 4), F(3), "2/3"),
        ]
        for t in forms:
            assert t == forms[0]
            assert hash(t) == hash(forms[0])
        assert len(set(forms)) == 1
        # never equal to a plain tuple of its entries
        assert forms[0] != (F(-1, 2), F(3), F(2, 3))
        assert forms[0] != T(F(-1, 2), 3, F(1, 3))

    def test_immutability(self):
        t = T(0, 1)
        with pytest.raises(AttributeError):
            t.entries = ()
