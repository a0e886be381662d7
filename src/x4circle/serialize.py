"""JSON encoding for payloads and reports.

Exact data (fiber pairs, invariant entries) travels as integers and
reduced fraction strings "p/q"; floats appear only in measured
quantities.  Encoders produce plain JSON trees, decoders rebuild the
domain objects, and `dumps_canonical` fixes one byte representation
(sorted keys, compact separators, trailing newline) so identical
requests yield identical report files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .classifier import (
    CIRCLE,
    Edge,
    FixedPointHomogeneous,
    LoopAndSpur,
    Rejected,
    SingularGraph,
    Suspension,
    WCPQuotient,
)
from .invariants import InvariantTuple, format_rational, parse_rational
from .seifert import (
    BoundaryRecognition,
    GroupPresentation,
    SeifertPresentation,
)
from .wcp import QuotientDescriptor, WeightTriple

RATIONAL_PATTERN = r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$"

_RATIONAL = {"type": "string", "pattern": RATIONAL_PATTERN}
_RATIONAL_LIST = {"type": "array", "items": _RATIONAL, "minItems": 2}
_RATIONAL_TRIPLE = {"type": "array", "items": _RATIONAL, "minItems": 3, "maxItems": 3}

_SEIFERT = {
    "type": "object",
    "properties": {
        "fibers": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "trivial_fibration": {"type": "boolean"},
    },
    "required": ["fibers"],
    "additionalProperties": False,
}

_EDGE = {
    "type": "object",
    "properties": {
        "between": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "loop": {"type": "integer", "minimum": 0},
        "free_curve": {"type": "boolean", "const": True},
        "order": {"type": "integer", "minimum": 1},
        "beta": {"type": "integer"},
        "virtual": {"type": "boolean"},
    },
    "required": ["order"],
    "additionalProperties": False,
    "oneOf": [
        {"required": ["between"]},
        {"required": ["loop"]},
        {"required": ["free_curve"]},
    ],
}

_GRAPH = {
    "type": "object",
    "properties": {
        "vertices": {"type": "integer", "minimum": 0},
        "edges": {"type": "array", "items": _EDGE},
        "boundary_fixed_set": {"type": "boolean"},
        "soul_isotropy": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {"type": "string", "const": "circle"},
            ]
        },
    },
    "required": ["vertices", "edges"],
    "additionalProperties": False,
}

_GAMMA = {
    "oneOf": [
        {"type": "string"},
        {
            "type": "object",
            "properties": {
                "matrices": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 4,
                        "maxItems": 4,
                        "items": {
                            "type": "array",
                            "minItems": 4,
                            "maxItems": 4,
                            "items": {"type": "number"},
                        },
                    },
                }
            },
            "required": ["matrices"],
            "additionalProperties": False,
        },
    ]
}

_ACTION = {
    "type": "object",
    "properties": {
        "weights": {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
        "gamma": _GAMMA,
        "samples": {"type": "integer", "minimum": 50},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["weights"],
    "additionalProperties": False,
}

SCHEMAS: dict[str, dict] = {
    "canon": {
        "type": "object",
        "properties": {"invariants": _RATIONAL_LIST},
        "required": ["invariants"],
        "additionalProperties": False,
    },
    "equiv": {
        "type": "object",
        "properties": {"left": _RATIONAL_LIST, "right": _RATIONAL_LIST},
        "required": ["left", "right"],
        "additionalProperties": False,
    },
    "euler": {
        "type": "object",
        "properties": {"invariants": _RATIONAL_LIST},
        "required": ["invariants"],
        "additionalProperties": False,
    },
    "seifert-pi1": {
        "type": "object",
        "properties": {"seifert": _SEIFERT},
        "required": ["seifert"],
        "additionalProperties": False,
    },
    "seifert-recognize": {
        "type": "object",
        "properties": {"seifert": _SEIFERT},
        "required": ["seifert"],
        "additionalProperties": False,
    },
    "wcp": {
        "type": "object",
        "properties": {"invariants": _RATIONAL_TRIPLE},
        "required": ["invariants"],
        "additionalProperties": False,
    },
    "classify": {
        "type": "object",
        "properties": {"graph": _GRAPH, "invariants": _RATIONAL_TRIPLE},
        "required": ["graph"],
        "additionalProperties": False,
    },
    "extent": {
        "type": "object",
        "properties": {
            "action": _ACTION,
            "q": {"type": "integer", "minimum": 2, "maximum": 16},
            "method": {"type": "string", "enum": ["exact", "heuristic"]},
        },
        "required": ["action"],
        "additionalProperties": False,
    },
    "check-q": {
        "type": "object",
        "properties": {"action": _ACTION},
        "required": ["action"],
        "additionalProperties": False,
    },
}


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# exact-algebra encoders


def encode_rational(value: Fraction) -> str:
    return format_rational(value)


def encode_invariants(t: InvariantTuple) -> list[str]:
    return t.as_strings()


def decode_invariants(entries: list[str]) -> InvariantTuple:
    return InvariantTuple(parse_rational(e) for e in entries)


def encode_seifert(p: SeifertPresentation) -> dict:
    out: dict[str, Any] = {"fibers": [[a, b] for a, b in p.fibers]}
    if p.trivial_fibration:
        out["trivial_fibration"] = True
    return out


def decode_seifert(obj: dict) -> SeifertPresentation:
    return SeifertPresentation(
        genus=0,
        fibers=[tuple(pair) for pair in obj["fibers"]],
        trivial_fibration=obj.get("trivial_fibration", False),
    )


def encode_presentation(g: GroupPresentation) -> dict:
    abelian = g.abelian_invariants()
    return {
        "generators": list(g.generators),
        "relators": [list(word) for word in g.relators],
        "relator_strings": g.relator_strings(),
        "abelian": {
            "torsion": list(abelian.torsion),
            "free_rank": abelian.free_rank,
            "order": abelian.order if abelian.finite else "infinite",
        },
    }


def encode_recognition(r: BoundaryRecognition) -> dict:
    return {
        "label": r.label,
        "order": r.order,
        "admissible": r.admissible,
        "description": r.describe(),
    }


def encode_weights(w: WeightTriple) -> list[int]:
    return list(w.as_tuple())


def encode_descriptor(d: QuotientDescriptor) -> dict:
    return {
        "weights": encode_weights(d.weights),
        "alpha_bar": d.alpha_bar,
        "beta_bar": d.beta_bar,
    }


# ---------------------------------------------------------------------------
# multigraph


def encode_edge(e: Edge) -> dict:
    out: dict[str, Any] = {"order": e.order}
    if e.u is None and e.v is None:
        out["free_curve"] = True
    elif e.u == e.v:
        out["loop"] = e.u
    else:
        out["between"] = [e.u, e.v]
    if e.beta is not None:
        out["beta"] = e.beta
    if e.virtual:
        out["virtual"] = True
    return out


def decode_edge(obj: dict) -> Edge:
    if "free_curve" in obj:
        u = v = None
    elif "loop" in obj:
        u = v = obj["loop"]
    else:
        u, v = obj["between"]
    return Edge(
        u=u,
        v=v,
        order=obj["order"],
        virtual=obj.get("virtual", False),
        beta=obj.get("beta"),
    )


def encode_graph(g: SingularGraph) -> dict:
    out: dict[str, Any] = {
        "vertices": g.vertex_count,
        "edges": [encode_edge(e) for e in g.edges],
    }
    if g.has_boundary_fixed_set:
        out["boundary_fixed_set"] = True
    if g.soul_isotropy is not None:
        out["soul_isotropy"] = g.soul_isotropy
    return out


def decode_graph(obj: dict) -> SingularGraph:
    soul = obj.get("soul_isotropy")
    if soul == "circle":
        soul = CIRCLE
    return SingularGraph(
        vertex_count=obj["vertices"],
        edges=tuple(decode_edge(e) for e in obj["edges"]),
        has_boundary_fixed_set=obj.get("boundary_fixed_set", False),
        soul_isotropy=soul,
    )


# ---------------------------------------------------------------------------
# classification results


def encode_classification(result) -> dict:
    if isinstance(result, Rejected):
        return {"kind": "rejected", "reason": result.reason, "tag": result.tag}
    if isinstance(result, FixedPointHomogeneous):
        return {
            "kind": "fixed-point-homogeneous",
            "lens_order": result.lens_order,
            "wcp_quotient": (
                encode_descriptor(result.wcp_quotient) if result.wcp_quotient else None
            ),
            "note": result.note,
        }
    if isinstance(result, Suspension):
        return {
            "kind": "suspension",
            "orders": list(result.orders),
            "presentation": (
                encode_seifert(result.presentation) if result.presentation else None
            ),
            "boundary": (
                encode_recognition(result.boundary) if result.boundary else None
            ),
            "type_only": result.type_only,
        }
    if isinstance(result, WCPQuotient):
        return {
            "kind": "wcp-quotient",
            "descriptor": encode_descriptor(result.descriptor),
            "invariants": encode_invariants(result.invariants),
        }
    if isinstance(result, LoopAndSpur):
        order, beta = result.spur
        return {
            "kind": "loop-and-spur",
            "k": result.k,
            "spur": {"order": order, "beta": beta},
            "orbifold_pi1_order": result.orbifold_pi1_order,
            "double_cover": encode_descriptor(result.double_cover),
            "type_only": result.type_only,
        }
    raise TypeError(f"unknown classification result {type(result).__name__}")


# ---------------------------------------------------------------------------
# numerical lab reports (imports deferred: numpy stays out of algebra-only runs)


def encode_marked(space) -> list[dict]:
    return [
        {"index": m.index, "label": m.label, "isotropy": m.isotropy}
        for m in space.marked
    ]


def encode_space_summary(space) -> dict:
    return {
        "kind": space.kind,
        "size": space.size,
        "seed": space.seed,
        "diameter": space.diameter(),
        "marked": encode_marked(space),
    }


def encode_extent_report(report, space) -> dict:
    return {
        "q": report.q,
        "value": report.value,
        "witness": list(report.witness),
        "witness_average": report.witness_average(space),
        "method": report.method,
        "restarts": report.restarts,
        "sample_size": report.sample_size,
    }


def encode_certificate(cert) -> dict:
    return {
        "samples_low": cert.samples_low,
        "samples_high": cert.samples_high,
        "diameter_low": cert.diameter_low,
        "diameter_high": cert.diameter_high,
        "xt3_low": cert.xt3_low,
        "xt3_high": cert.xt3_high,
        "drift": cert.drift,
        "tol": cert.tol,
        "passed": cert.passed,
    }


def encode_check_item(item) -> dict:
    return {
        "name": item.name,
        "applicable": item.applicable,
        "passed": item.passed,
        "margin": item.margin,
        "details": item.details,
    }


def encode_qprime_report(report) -> dict:
    return {
        "all_passed": report.all_passed,
        "cone_points": report.cone_points,
        "diameter": report.diameter,
        "tol": report.tol,
        "checks": [encode_check_item(c) for c in report.checks],
    }


def normalize_action(obj: dict, samples: int, seed: int) -> dict:
    """Resolved action payload: explicit fields win over request options."""
    out: dict[str, Any] = {
        "weights": [int(w) for w in obj["weights"]],
        "gamma": obj.get("gamma", "trivial"),
        "samples": int(obj.get("samples", samples)),
        "seed": int(obj.get("seed", seed)),
    }
    return out


def decode_action(obj: dict):
    from .extent_lab import IsometricActionSpec, parse_gamma

    return IsometricActionSpec(
        weights=tuple(int(w) for w in obj["weights"]),
        gamma=parse_gamma(obj.get("gamma", "trivial")),
        samples=int(obj["samples"]),
        seed=int(obj["seed"]),
    )


# ---------------------------------------------------------------------------
# text rendering


def _scalar(value: Any) -> str:
    if isinstance(value, float):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def _render(obj: Any, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _render(value, indent + 1, lines)
            else:
                rendered = "[]" if isinstance(value, list) else (
                    "{}" if isinstance(value, dict) else _scalar(value)
                )
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                _render(value, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")


def render_text(report: dict) -> str:
    lines: list[str] = []
    _render(report, 0, lines)
    return "\n".join(lines) + "\n"
