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
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

# the codecs that build or test domain objects import their layer where
# they use it, so a command loads only the layers it runs
if TYPE_CHECKING:
    from .classifier import Edge, SingularGraph
    from .seifert import BoundaryRecognition, GroupPresentation, SeifertPresentation
    from .wcp import QuotientDescriptor

RATIONAL_PATTERN = r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$"

# canonicalize compares all 2n rotations and reversals of an n-entry tuple,
# so its cost grows quadratically; longer invariant lists are refused by
# the schema
MAX_INVARIANTS = 64


def _object(properties: dict, required: list[str]) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


_RATIONAL = {"type": "string", "pattern": RATIONAL_PATTERN}
_RATIONAL_LIST = {"type": "array", "items": _RATIONAL, "minItems": 2, "maxItems": MAX_INVARIANTS}
_RATIONAL_TRIPLE = {"type": "array", "items": _RATIONAL, "minItems": 3, "maxItems": 3}
_INTEGER_PAIR = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}

_SEIFERT = _object(
    {
        "fibers": {"type": "array", "items": _INTEGER_PAIR},
        "trivial_fibration": {"type": "boolean"},
    },
    ["fibers"],
)

_EDGE = {
    **_object(
        {
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
        ["order"],
    ),
    "oneOf": [
        {"required": ["between"]},
        {"required": ["loop"]},
        {"required": ["free_curve"]},
    ],
}

_GRAPH = _object(
    {
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
    ["vertices", "edges"],
)

_ROW4 = {"type": "array", "minItems": 4, "maxItems": 4, "items": {"type": "number"}}
_MATRIX4 = {"type": "array", "minItems": 4, "maxItems": 4, "items": _ROW4}
_GAMMA = {
    "oneOf": [
        {"type": "string"},
        _object({"matrices": {"type": "array", "minItems": 1, "items": _MATRIX4}}, ["matrices"]),
    ]
}

_ACTION = _object(
    {
        "weights": _INTEGER_PAIR,
        "gamma": _GAMMA,
        "samples": {"type": "integer", "minimum": 50},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    },
    ["weights"],
)

# one schema per payload shape; commands that share a shape share its object
_INVARIANTS = _object({"invariants": _RATIONAL_LIST}, ["invariants"])
_SEIFERT_PAYLOAD = _object({"seifert": _SEIFERT}, ["seifert"])

SCHEMAS: dict[str, dict] = {
    "canon": _INVARIANTS,
    "equiv": _object({"left": _RATIONAL_LIST, "right": _RATIONAL_LIST}, ["left", "right"]),
    "euler": _INVARIANTS,
    "seifert-pi1": _SEIFERT_PAYLOAD,
    "seifert-recognize": _SEIFERT_PAYLOAD,
    "wcp": _object({"invariants": _RATIONAL_TRIPLE}, ["invariants"]),
    "classify": _object({"graph": _GRAPH, "invariants": _RATIONAL_TRIPLE}, ["graph"]),
    "extent": _object(
        {
            "action": _ACTION,
            "q": {"type": "integer", "minimum": 2, "maximum": 16},
            "method": {"type": "string", "enum": ["exact", "heuristic"]},
        },
        ["action"],
    ),
    "check-q": _object({"action": _ACTION}, ["action"]),
}


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# exact-algebra encoders


def encode_seifert(p: SeifertPresentation) -> dict:
    out: dict[str, Any] = {"fibers": [[a, b] for a, b in p.fibers]}
    if p.trivial_fibration:
        out["trivial_fibration"] = True
    return out


def decode_seifert(obj: dict) -> SeifertPresentation:
    from .seifert import SeifertPresentation

    return SeifertPresentation(
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
            "order": "infinite" if abelian.order is None else abelian.order,
        },
    }


def encode_recognition(r: BoundaryRecognition) -> dict:
    return {**asdict(r), "description": r.describe()}


def encode_descriptor(d: QuotientDescriptor) -> dict:
    return {
        "weights": list(d.weights.as_tuple()),
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
    from .classifier import Edge

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
    from .classifier import SingularGraph

    return SingularGraph(
        vertex_count=obj["vertices"],
        edges=tuple(decode_edge(e) for e in obj["edges"]),
        has_boundary_fixed_set=obj.get("boundary_fixed_set", False),
        soul_isotropy=obj.get("soul_isotropy"),
    )


# ---------------------------------------------------------------------------
# classification results


def encode_classification(result) -> dict:
    from .invariants import Rejected

    if isinstance(result, Rejected):
        return {"kind": "rejected", "reason": result.reason, "tag": result.tag}
    from .classifier import FixedPointHomogeneous, LoopAndSpur, Suspension, WCPQuotient

    if isinstance(result, FixedPointHomogeneous):
        return {
            "kind": "fixed-point-homogeneous",
            "lens_order": result.lens_order,
            # the weights are never read off the orbit graph
            "wcp_quotient": None,
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
            "invariants": result.invariants.as_strings(),
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


def encode_space_summary(space) -> dict:
    """Summary of a sampled quotient, the only kind of space a report describes."""
    return {
        "kind": "quotient",
        "size": space.size,
        "seed": space.seed,
        "diameter": space.diameter(),
        "marked": [asdict(m) for m in space.marked],
    }


def encode_extent_report(report, space) -> dict:
    # a list, not asdict's tuple, so the text rendering lists the witness
    return {
        **asdict(report),
        "witness": list(report.witness),
        "witness_average": report.witness_average(space),
    }


def encode_qprime_report(report) -> dict:
    return {**asdict(report), "all_passed": report.all_passed}


def decode_action(obj: dict, samples: int, seed: int):
    """(resolved action payload, spec): explicit fields win over request options."""
    from .extent_lab import IsometricActionSpec, parse_gamma

    action = {
        "weights": [int(w) for w in obj["weights"]],
        "gamma": obj.get("gamma", "trivial"),
        "samples": int(obj.get("samples", samples)),
        "seed": int(obj.get("seed", seed)),
    }
    spec = IsometricActionSpec(
        weights=tuple(action["weights"]),
        gamma=parse_gamma(action["gamma"]),
        samples=action["samples"],
        seed=action["seed"],
    )
    return action, spec


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
