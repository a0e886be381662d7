"""Exact integer linear algebra: Smith normal form, abelian invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x4circle.intlinalg import abelian_invariants, primitive, smith_normal_form

from oracles import det, determinantal_divisor_diagonal, rational_nullspace


# up to 7 x 4: the relation shapes that Seifert presentations build
small_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


def is_diagonal_chain(diag):
    for i in range(len(diag) - 1):
        d1, d2 = diag[i], diag[i + 1]
        if d1 == 0 and d2 != 0:
            return False
        if d1 != 0 and d2 % d1 != 0:
            return False
    return all(d >= 0 for d in diag)


@given(small_matrices)
@settings(max_examples=300, deadline=None)
def test_smith_form_is_equivalent_diagonal(a):
    # equivalent matrices share their determinantal divisors, and a
    # diagonal chain is determined by them
    diag = smith_normal_form(a)
    assert diag == determinantal_divisor_diagonal(a)
    assert is_diagonal_chain(diag)


def test_entries_stay_bounded():
    # row and column reduction over the integers, with no modulus, grows
    # the entries of this matrix to hundreds of thousands of digits
    a = [[10, -25, -29, -13], [28, -2, 21, 20], [-23, 25, -14, -22], [11, 3, 22, 11],
         [11, -8, -23, 25], [-21, -13, 24, -29], [-28, -28, -17, 13]]
    assert smith_normal_form(a) == determinantal_divisor_diagonal(a)


def test_rank_deficient_and_zero_rows():
    assert smith_normal_form([[0, 0], [0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[2, 4], [0, 0], [3, 6]]) == (1, 0)
    assert smith_normal_form([[0, 0, 0], [6, 0, 0]]) == (6, 0)
    assert smith_normal_form([[4]]) == (4,)
    assert smith_normal_form([]) == ()


@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_kernel_vectors_annihilate(a):
    basis = rational_nullspace(a)
    for vec in basis:
        for row in a:
            assert sum(x * y for x, y in zip(row, vec)) == 0
    # rank-nullity over Q: the Smith rank is the elimination rank
    rank = sum(1 for d in smith_normal_form(a) if d != 0)
    assert len(basis) == len(a[0]) - rank


def test_det_known_values():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 4], [1, 2]]) == 0
    assert det([]) == 1


def test_primitive():
    assert primitive([4, -2, 6]) == [2, -1, 3]
    assert primitive([0, 0]) == [0, 0]
    assert primitive([5]) == [1]
    assert primitive([0, 7, 0]) == [0, 1, 0]


def test_abelian_invariants_examples():
    # Z/2 x Z/3 = Z/6 in invariant-factor form
    inv = abelian_invariants([[2, 0], [0, 3]], 2)
    assert inv.torsion == (6,)
    assert inv.free_rank == 0
    assert inv.order == 6
    # a free factor survives
    inv = abelian_invariants([[2, 0]], 2)
    assert inv.free_rank == 1
    assert inv.order is None
    # unit factors are dropped
    inv = abelian_invariants([[1, 0], [0, 5]], 2)
    assert inv.torsion == (5,)
    # no relations at all
    inv = abelian_invariants([], 3)
    assert inv.free_rank == 3 and inv.torsion == ()


def test_abelian_invariants_rejects_ragged_rows():
    with pytest.raises(ValueError):
        abelian_invariants([[1, 2, 3]], 2)


@given(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=2, max_size=2).filter(
        lambda r: r != [0, 0]
    )
)
@settings(max_examples=100, deadline=None)
def test_order_of_2x2_group_matches_determinant(row):
    # |Z^2 / <(a, b), (c, d)>| = |ad - bc| when nonzero
    a, b = row
    mat = [[a, b], [-b, a]]
    inv = abelian_invariants(mat, 2)
    d = abs(det(mat))
    if d == 0:
        assert not inv.finite
    else:
        assert inv.order == d
