"""Multigraph validation, virtual completion, and the classification dispatch."""

import pytest

from x4circle.classifier import (
    CIRCLE,
    TAG_AT_LEAST_TWO,
    TAG_DEGREE_BOUND,
    TAG_FIG5_DG,
    TAG_K_PLUS_ONE,
    TAG_LOOP_ORDER_BOUND,
    TAG_NO_FREE_CURVES,
    TAG_PAIRWISE_UNEQUAL,
    TAG_S2XS1,
    TAG_THREE_POINT_BOUND,
    TAG_THREE_POINT_LOOP,
    TAG_THREE_POINT_MULTIEDGE,
    Edge,
    K_PLUS_ONE,
    FixedPointHomogeneous,
    LoopAndSpur,
    Rejected,
    SingularGraph,
    Suspension,
    WCPQuotient,
    classify,
    loop_and_spur_pi1,
    validate_graph,
    virtual_edge_completion,
)
from x4circle.invariants import InvariantTuple
from x4circle.serialize import encode_classification
from x4circle.seifert import MAX_WORD_LETTERS, BoundaryLabel


def graph(n, *edges, **kw):
    return SingularGraph(vertex_count=n, edges=tuple(edges), **kw)


def rejection_tag(verdict):
    """The tag of a Rejected verdict; fails on any other value."""
    assert isinstance(verdict, Rejected), verdict
    return verdict.tag


def validation_tag(g):
    return rejection_tag(validate_graph(g))


class TestEdge:
    def test_loop_and_free_curve_flags(self):
        assert Edge(0, 0, 2).is_loop
        assert not Edge(0, 1, 2).is_loop
        assert Edge(None, None, 2).is_free_curve

    def test_virtual_edges_have_order_one(self):
        Edge(0, 1, 1, virtual=True)
        with pytest.raises(ValueError):
            Edge(0, 1, 2, virtual=True)
        with pytest.raises(ValueError):
            Edge(0, 1, 1)

    def test_beta_must_be_coprime(self):
        Edge(0, 1, 5, beta=3)
        with pytest.raises(ValueError):
            Edge(0, 1, 4, beta=2)

    def test_half_dangling_endpoint(self):
        with pytest.raises(ValueError):
            Edge(0, None, 2)


class TestSingularGraph:
    def test_endpoint_range(self):
        with pytest.raises(ValueError):
            graph(2, Edge(0, 2, 3))

    def test_degree_counts_loops_twice(self):
        g = graph(2, Edge(0, 0, 2), Edge(0, 1, 3))
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_soul_isotropy_validation(self):
        graph(0, has_boundary_fixed_set=True, soul_isotropy=4)
        graph(0, has_boundary_fixed_set=True, soul_isotropy=CIRCLE)
        with pytest.raises(ValueError):
            graph(0, has_boundary_fixed_set=True, soul_isotropy=0)
        with pytest.raises(ValueError):
            graph(0, has_boundary_fixed_set=True, soul_isotropy="line")


class TestValidation:
    def test_admissible_pictures(self):
        # single edge, double edge, loop with spur, triangle
        assert validate_graph(graph(2, Edge(0, 1, 2))) is None
        assert validate_graph(graph(2, Edge(0, 1, 2), Edge(0, 1, 3))) is None
        assert validate_graph(graph(2, Edge(0, 0, 2), Edge(0, 1, 5))) is None
        assert validate_graph(graph(3, Edge(0, 1, 2), Edge(1, 2, 3), Edge(0, 2, 5))) is None
        assert validate_graph(graph(2)) is None

    def test_vertex_count_bounds(self):
        assert validation_tag(graph(1, Edge(0, 0, 2))) == TAG_AT_LEAST_TWO
        assert validation_tag(graph(0)) == TAG_AT_LEAST_TWO
        assert validation_tag(graph(4, Edge(0, 1, 2))) == TAG_THREE_POINT_BOUND

    def test_degree_bound(self):
        four_ends = graph(2, *(Edge(0, 1, k) for k in (2, 3, 5, 7)))
        assert validation_tag(four_ends) == TAG_DEGREE_BOUND
        # two loops at one vertex already violate the degree bound
        assert validation_tag(graph(2, Edge(0, 0, 2), Edge(0, 0, 3))) == TAG_DEGREE_BOUND

    def test_free_closed_curves(self):
        assert validation_tag(graph(2, Edge(None, None, 2))) == TAG_NO_FREE_CURVES

    def test_loops_at_two_vertices(self):
        assert validation_tag(graph(2, Edge(0, 0, 2), Edge(1, 1, 2))) == TAG_FIG5_DG

    def test_three_vertex_restrictions(self):
        assert validation_tag(graph(3, Edge(0, 0, 2))) == TAG_THREE_POINT_LOOP
        double_edge = graph(3, Edge(0, 1, 2), Edge(0, 1, 3))
        assert validation_tag(double_edge) == TAG_THREE_POINT_MULTIEDGE

    def test_first_failure_wins(self):
        # vertex bound is checked before the free-curve rule
        assert validation_tag(graph(4, Edge(None, None, 2))) == TAG_THREE_POINT_BOUND

    def test_boundary_fixed_set_bypasses_bounds(self):
        g = graph(5, has_boundary_fixed_set=True, soul_isotropy=2)
        assert validate_graph(g) is None


class TestCompletion:
    def test_triangle_fill(self):
        g = graph(3, Edge(0, 1, 2), Edge(1, 2, 3))
        c = virtual_edge_completion(g)
        assert len(c.edges) == 3
        added = [e for e in c.edges if e.virtual]
        assert len(added) == 1
        assert {added[0].u, added[0].v} == {0, 2}
        assert added[0].order == 1

    def test_loop_gets_spur(self):
        g = graph(2, Edge(0, 0, 2))
        c = virtual_edge_completion(g)
        assert len(c.edges) == 2
        spur = [e for e in c.edges if not e.is_loop][0]
        assert spur.virtual and spur.order == 1

    def test_complete_graphs_unchanged(self):
        for g in (
            graph(2, Edge(0, 1, 2)),
            graph(2, Edge(0, 0, 2), Edge(0, 1, 5)),
            graph(3, Edge(0, 1, 2), Edge(1, 2, 3), Edge(0, 2, 5)),
        ):
            assert virtual_edge_completion(g).edges == g.edges

    def test_rejects_invalid_and_boundary_graphs(self):
        with pytest.raises(ValueError):
            virtual_edge_completion(graph(4, Edge(0, 1, 2)))
        with pytest.raises(ValueError):
            virtual_edge_completion(graph(0, has_boundary_fixed_set=True, soul_isotropy=2))


class TestLoopSpurGroup:
    def test_frozen_orders(self):
        g = loop_and_spur_pi1(2, (5, 3))
        assert isinstance(g, LoopAndSpur)
        assert (g.k, g.spur, g.orbifold_pi1_order) == (2, (5, 3), 6)
        g = loop_and_spur_pi1(2, (1, 1))
        assert isinstance(g, LoopAndSpur)
        assert (g.k, g.spur, g.orbifold_pi1_order) == (2, (1, 1), 2)

    def test_beta_zero_is_s2xs1(self):
        assert rejection_tag(loop_and_spur_pi1(2, (1, 0))) == TAG_S2XS1

    def test_k_three_inadmissible(self):
        # the order 9 is still checked against the presentation before k = 3 is refused
        assert loop_and_spur_pi1(3, (4, 3)) is K_PLUS_ONE
        assert rejection_tag(K_PLUS_ONE) == TAG_K_PLUS_ONE

    def test_no_section_is_type_only(self):
        g = loop_and_spur_pi1(2, (5, None))
        assert isinstance(g, LoopAndSpur) and g.type_only
        assert (g.k, g.spur, g.orbifold_pi1_order) == (2, (5, None), None)
        assert g.double_cover.weights.as_tuple() == (10, -1, -1)
        assert loop_and_spur_pi1(3, (4, None)) is K_PLUS_ONE
        # classify answers a spur without a section by this one call
        assert classify(graph(2, Edge(0, 0, 2), Edge(0, 1, 5))) == g
        assert classify(graph(2, Edge(0, 0, 3), Edge(0, 1, 4))) is K_PLUS_ONE

    def test_input_validation(self):
        with pytest.raises(ValueError):
            loop_and_spur_pi1(4, (1, 1))
        with pytest.raises(ValueError):
            loop_and_spur_pi1(2, (0, 1))
        with pytest.raises(ValueError):
            loop_and_spur_pi1(2, (6, 3))

    def test_word_budget(self):
        # q1^k h^-1 and h^beta are counted, 7 + |beta| letters with the
        # commutator, before any word is spelled out
        beta = 4611686018427387907
        with pytest.raises(ValueError, match=f"needs {beta + 7} relator letters"):
            loop_and_spur_pi1(2, (5, beta))
        with pytest.raises(ValueError, match="relator letters"):
            loop_and_spur_pi1(2, (1, -(MAX_WORD_LETTERS - 6)))
        beta = MAX_WORD_LETTERS - 7
        assert loop_and_spur_pi1(2, (1, beta)).orbifold_pi1_order == 2 * beta

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("beta", range(-6, 7))
    def test_presentation_pipeline_sweep(self, k, beta):
        # loop_and_spur_pi1 internally asserts Smith normal form == k*|beta|,
        # for k = 3 too, before it refuses the picture
        alpha = 1 if beta % 2 == 0 else 2
        g = loop_and_spur_pi1(k, (alpha, beta))
        if beta == 0:
            assert rejection_tag(g) == TAG_S2XS1
        elif k == 3:
            assert g is K_PLUS_ONE
        else:
            assert g.orbifold_pi1_order == k * abs(beta)


class TestClassifyBoundaryFixedSet:
    def test_finite_soul(self):
        g = graph(0, has_boundary_fixed_set=True, soul_isotropy=7)
        r = classify(g)
        assert isinstance(r, FixedPointHomogeneous)
        assert r.lens_order == 7
        assert encode_classification(r)["wcp_quotient"] is None

    def test_circle_soul_is_type_only(self):
        g = graph(0, has_boundary_fixed_set=True, soul_isotropy=CIRCLE)
        r = classify(g)
        assert isinstance(r, FixedPointHomogeneous)
        assert r.lens_order is None
        assert encode_classification(r)["wcp_quotient"] is None
        assert r.note

    def test_soul_required(self):
        with pytest.raises(ValueError):
            classify(graph(0, has_boundary_fixed_set=True))


class TestClassifySuspension:
    def test_single_edge_with_section(self):
        r = classify(graph(2, Edge(0, 1, 3, beta=1)))
        assert isinstance(r, Suspension)
        assert r.orders == (3,)
        assert not r.type_only
        assert r.boundary.label == BoundaryLabel.SPHERE

    def test_double_edge_lens(self):
        r = classify(graph(2, Edge(0, 1, 2, beta=1), Edge(0, 1, 3, beta=1)))
        assert isinstance(r, Suspension)
        assert (r.boundary.label, r.boundary.order) == (BoundaryLabel.LENS, 5)

    def test_s2xs1_directions_rejected(self):
        r = classify(graph(2, Edge(0, 1, 2, beta=1), Edge(0, 1, 2, beta=-1)))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_S2XS1

    def test_missing_sections_give_type_only(self):
        r = classify(graph(2, Edge(0, 1, 3)))
        assert isinstance(r, Suspension)
        assert r.type_only and r.boundary is None
        r = classify(graph(2))
        assert isinstance(r, Suspension)
        assert r.orders == () and r.type_only


class TestClassifyThreeFixedPoints:
    def test_triangle_goes_to_weighted_projective(self):
        g = graph(3, Edge(0, 1, 2), Edge(1, 2, 2))
        t = InvariantTuple(["0", "-1/2", "1/2"])
        r = classify(g, t)
        assert isinstance(r, WCPQuotient)
        assert r.descriptor.weights.as_tuple() == (4, -1, -1)
        assert r.invariants == t

    def test_invariants_required(self):
        g = graph(3, Edge(0, 1, 2), Edge(1, 2, 2))
        with pytest.raises(ValueError):
            classify(g)
        with pytest.raises(ValueError):
            classify(g, InvariantTuple(["0", "1/2", "-1/2", "1/3"]))

    def test_unrealizable_invariants_rejected(self):
        g = graph(3, Edge(0, 1, 2), Edge(1, 2, 2))
        r = classify(g, InvariantTuple(["1/2", "1/2", "-1/2"]))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_PAIRWISE_UNEQUAL

    def test_orders_must_match_denominators(self):
        g = graph(3, Edge(0, 1, 2), Edge(1, 2, 3))
        with pytest.raises(ValueError):
            classify(g, InvariantTuple(["0", "-1/2", "1/2"]))


class TestClassifyLoopAndSpur:
    def test_loop_with_real_spur(self):
        r = classify(graph(2, Edge(0, 0, 2), Edge(0, 1, 5, beta=3)))
        assert isinstance(r, LoopAndSpur)
        assert (r.k, r.spur, r.orbifold_pi1_order) == (2, (5, 3), 6)
        assert r.double_cover.weights.as_tuple() == (10, -1, -1)
        assert not r.type_only

    def test_bare_loop_defaults_virtual_spur(self):
        r = classify(graph(2, Edge(0, 0, 2)))
        assert isinstance(r, LoopAndSpur)
        assert (r.k, r.spur, r.orbifold_pi1_order) == (2, (1, 1), 2)
        assert r.double_cover.weights.as_tuple() == (2, -1, -1)

    def test_spur_without_section_is_type_only(self):
        r = classify(graph(2, Edge(0, 0, 2), Edge(0, 1, 5)))
        assert isinstance(r, LoopAndSpur)
        assert r.type_only
        assert r.orbifold_pi1_order is None
        assert r.double_cover.weights.as_tuple() == (10, -1, -1)

    def test_k_three_rejected(self):
        r = classify(graph(2, Edge(0, 0, 3), Edge(0, 1, 4, beta=3)))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_K_PLUS_ONE
        r = classify(graph(2, Edge(0, 0, 3), Edge(0, 1, 4)))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_K_PLUS_ONE

    def test_beta_zero_rejected(self):
        r = classify(graph(2, Edge(0, 0, 2), Edge(0, 1, 1, virtual=True, beta=0)))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_S2XS1

    def test_large_loop_order_rejected(self):
        r = classify(graph(2, Edge(0, 0, 4), Edge(0, 1, 3, beta=1)))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_LOOP_ORDER_BOUND

    def test_invalid_graph_comes_back_rejected(self):
        r = classify(graph(1, Edge(0, 0, 2)))
        assert isinstance(r, Rejected)
        assert r.tag == TAG_AT_LEAST_TWO
