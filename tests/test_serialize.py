"""Round-trip and determinism tests for the JSON layer."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from x4circle import serialize
from x4circle.classifier import (
    CIRCLE,
    Edge,
    Rejected,
    SingularGraph,
    classify,
)
from x4circle.invariants import InvariantTuple
from x4circle.seifert import SeifertPresentation, fundamental_group, recognize_boundary
from x4circle.wcp import weights_from_invariants


class TestInvariantCodec:
    def test_round_trip_reduces(self):
        t = InvariantTuple(["2/4", "-6/8", "3"])
        assert t.as_strings() == ["1/2", "-3/4", "3"]
        again = InvariantTuple(t.as_strings())
        assert again == t

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=2,
            max_size=6,
        )
    )
    def test_codec_is_identity(self, entries):
        t = InvariantTuple(Fraction(e) for e in entries)
        assert InvariantTuple(t.as_strings()) == t


class TestSeifertCodec:
    def test_round_trip(self):
        p = SeifertPresentation([(2, 1), (3, -2)])
        obj = serialize.encode_seifert(p)
        assert obj == {"fibers": [[2, 1], [3, -2]]}
        q = serialize.decode_seifert(obj)
        assert q.fibers == p.fibers

    def test_trivial_fibration_flag(self):
        p = SeifertPresentation([], trivial_fibration=True)
        obj = serialize.encode_seifert(p)
        assert obj["trivial_fibration"] is True
        assert serialize.decode_seifert(obj).trivial_fibration

    def test_presentation_tree(self):
        obj = serialize.encode_presentation(
            fundamental_group(SeifertPresentation([(2, 1), (3, 1)]))
        )
        assert obj["generators"] == ["q1", "q2", "h"]
        assert obj["abelian"]["free_rank"] == 0
        assert isinstance(obj["abelian"]["order"], int)

    def test_recognition_tree(self):
        obj = serialize.encode_recognition(
            recognize_boundary(SeifertPresentation([(3, 1), (2, -1)]))
        )
        assert set(obj) == {"label", "order", "admissible", "description"}


class TestGraphCodec:
    def edges(self):
        return (
            Edge(0, 1, 2),
            Edge(1, 1, 3, beta=2),
            Edge(0, 1, 1, virtual=True),
            Edge(None, None, 4),
        )

    def test_edge_forms(self):
        between, loop, virtual, free = map(serialize.encode_edge, self.edges())
        assert between == {"order": 2, "between": [0, 1]}
        assert loop == {"order": 3, "loop": 1, "beta": 2}
        assert virtual == {"order": 1, "between": [0, 1], "virtual": True}
        assert free == {"order": 4, "free_curve": True}

    def test_graph_round_trip(self):
        g = SingularGraph(vertex_count=2, edges=self.edges()[:3])
        back = serialize.decode_graph(serialize.encode_graph(g))
        assert back == g

    def test_soul_isotropy_circle(self):
        g = SingularGraph(
            vertex_count=0,
            edges=(),
            has_boundary_fixed_set=True,
            soul_isotropy=CIRCLE,
        )
        obj = serialize.encode_graph(g)
        assert obj["soul_isotropy"] == "circle"
        assert serialize.decode_graph(obj).soul_isotropy == CIRCLE


class TestClassificationCodec:
    def test_wcp_quotient(self):
        t = InvariantTuple(["0", "-1/2", "1/2"])
        g = SingularGraph(
            vertex_count=3,
            edges=(
                Edge(0, 1, 1, virtual=True),
                Edge(1, 2, 2),
                Edge(0, 2, 2),
            ),
        )
        obj = serialize.encode_classification(classify(g, t))
        assert obj["kind"] == "wcp-quotient"
        assert obj["descriptor"]["weights"] == [4, -1, -1]
        assert obj["invariants"] == ["0", "-1/2", "1/2"]

    def test_rejected(self):
        obj = serialize.encode_classification(Rejected(reason="why", tag="some-tag"))
        assert obj == {"kind": "rejected", "reason": "why", "tag": "some-tag"}

    def test_loop_and_spur(self):
        g = SingularGraph(vertex_count=2, edges=(Edge(0, 0, 2), Edge(0, 1, 3, beta=1)))
        obj = serialize.encode_classification(classify(g))
        assert obj["kind"] == "loop-and-spur"
        assert obj["spur"] == {"order": 3, "beta": 1}
        assert obj["double_cover"]["weights"] == [6, -1, -1]

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            serialize.encode_classification(object())


class TestDescriptorCodec:
    def test_weights_and_residues(self):
        d = weights_from_invariants(InvariantTuple(["0", "-1/3", "1/3"]))
        obj = serialize.encode_descriptor(d)
        assert obj == {"weights": [6, -1, -1], "alpha_bar": 1, "beta_bar": 1}


class TestActionCodec:
    def test_explicit_fields_win_over_options(self):
        action, spec = serialize.decode_action({"weights": [1, 1], "seed": 7}, 60, 5)
        assert action == {"weights": [1, 1], "gamma": "trivial", "samples": 60, "seed": 7}
        assert (spec.weights, spec.samples, spec.seed) == ((1, 1), 60, 7)


class TestCanonicalDump:
    def test_sorted_compact_newline(self):
        text = serialize.dumps_canonical({"b": 1, "a": [1.5, None, True]})
        assert text == '{"a":[1.5,null,true],"b":1}\n'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            serialize.dumps_canonical({"x": float("nan")})


class TestTextRendering:
    def test_deterministic_tree(self):
        text = serialize.render_text({"b": {"y": 2}, "a": [1, "s"], "c": []})
        assert text.splitlines() == [
            "a:",
            "  - 1",
            "  - s",
            "b:",
            "  y: 2",
            "c: []",
        ]


class TestLabReportKeys:
    """Each lab report object carries its dataclass's fields under their own
    names, plus the keys that are not fields."""

    def test_keys_are_the_fields_plus_the_derived_ones(self):
        from dataclasses import fields

        from x4circle.extent_lab import IsometricActionSpec, extent, sample_quotient
        from x4circle.extent_lab.condition_q import CheckItem, ConditionQPrimeReport
        from x4circle.extent_lab.extents import ExtentReport
        from x4circle.extent_lab.spaces import MarkedPoint

        def names(cls, *added):
            return {f.name for f in fields(cls)} | set(added)

        space = sample_quotient(IsometricActionSpec(weights=(1, 1), samples=50))
        marked = serialize.encode_space_summary(space)["marked"]
        assert len(marked) == 2
        assert all(set(m) == names(MarkedPoint) == {"index", "label", "isotropy"} for m in marked)

        report = serialize.encode_extent_report(extent(space, 3), space)
        assert set(report) == names(ExtentReport, "witness_average") == {
            "q", "value", "witness", "witness_average", "method", "restarts", "sample_size"
        }
        assert isinstance(report["witness"], list)

        item = CheckItem("quotient-small", True, False, -0.5, "xt3 1.5")
        qprime = serialize.encode_qprime_report(ConditionQPrimeReport([item], 2, 1.5, 0.02))
        assert set(qprime) == names(ConditionQPrimeReport, "all_passed") == {
            "all_passed", "cone_points", "diameter", "tol", "checks"
        }
        assert qprime["all_passed"] is False
        assert qprime["checks"] == [{
            "name": "quotient-small", "applicable": True, "passed": False,
            "margin": -0.5, "details": "xt3 1.5",
        }]
        assert set(qprime["checks"][0]) == names(CheckItem)
