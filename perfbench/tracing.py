"""Span tracing around the calls into each layer, from outside the package.

A Tracer replaces each target function with a wrapper that records a span
(name, start, end, parent span, request id) and the work counts read off
the call's arguments and result.  Spans stay in memory until the run ends.

Wrappers are bound wherever the original is reachable: on its owner, and
under every module-level alias in the loaded ``x4circle`` modules, so that
``from .extents import extent`` copies are traced too.  A target whose
owner or attribute does not exist is skipped and its metrics are reported
as absent, so a refactor that renames a private stage cannot break a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _distance_matrix(a, result) -> dict:
    n = len(a["points"])
    pairs = n * (n - 1) // 2
    return {"pairs": pairs, "gamma_pairs": pairs * len(a["self"].gammas)}


def _dijkstra(a, result) -> dict:
    return {"sources": len(a["indices"]), "graph_edges": a["csgraph"].nnz // 2}


def _extent(a, result) -> dict:
    return {
        "points": result.sample_size,
        "exact_calls": int(result.method == "exact"),
        "heuristic_calls": int(result.method == "heuristic"),
    }


def _cut_crossings(a, result) -> dict:
    return {"candidate_edges": len(a["eu"]), "crossing_edges": int(result.sum())}


@dataclass(frozen=True)
class Target:
    span: str  # "<module>.<function>" as the metrics name it
    owner: str  # module path, or "module:Class" for a method
    attr: str
    counts: Optional[Callable] = None  # (bound arguments, result) -> {quantity: n}
    cpu: bool = False  # also record process CPU time (all threads)


_ENGINE = "x4circle.extent_lab.engine:DistanceEngine"
_SPACES = "x4circle.extent_lab.spaces"
_COVER = "x4circle.extent_lab.cover"

TARGETS = (
    Target("engine.distance_matrix", _ENGINE, "distance_matrix", _distance_matrix, cpu=True),
    Target("engine.refine", _ENGINE, "_refine", lambda a, r: {"candidates": len(a["t_idx"])}),
    Target("engine.align", _ENGINE, "align"),
    Target("spaces.sample_quotient", _SPACES, "sample_quotient", lambda a, r: {"points": r.size}),
    Target("spaces.regenerate", _SPACES, "regenerate"),
    Target("spaces.discover_marked", _SPACES, "discover_marked", lambda a, r: {"marks": len(r[1])}),
    Target("spaces.validate_metric", _SPACES, "validate_metric",
           lambda a, r: {"points": a["space"].size}),
    Target("extents.extent", "x4circle.extent_lab.extents", "extent", _extent),
    Target("cover.double_branched_cover", _COVER, "double_branched_cover"),
    Target("cover.build_cover", _COVER, "_build_cover"),
    Target("cover.knn_edges", _COVER, "_knn_edges", lambda a, r: {"edges": len(r)}),
    Target("cover.azimuth_field", _COVER, "_azimuth_field"),
    Target("cover.cut_crossings", _COVER, "_cut_crossings", _cut_crossings),
    Target("cover.dijkstra", "scipy.sparse.csgraph", "dijkstra", _dijkstra),
    Target("condition_q.check_condition_qprime", "x4circle.extent_lab.condition_q",
           "check_condition_qprime"),
    Target("cli.main", "x4circle.cli", "main"),
    Target("cli.schema", "jsonschema", "validate"),
    Target("cli.parser", "x4circle.cli", "_build_parser"),
    Target("serialize.dumps_canonical", "x4circle.serialize", "dumps_canonical"),
    Target("invariants.canonicalize", "x4circle.invariants", "canonicalize"),
    Target("invariants.are_equivalent", "x4circle.invariants", "are_equivalent"),
    Target("seifert.fundamental_group", "x4circle.seifert", "fundamental_group"),
    Target("seifert.recognize_boundary", "x4circle.seifert", "recognize_boundary"),
    Target("intlinalg.smith_normal_form", "x4circle.intlinalg", "smith_normal_form"),
    Target("wcp.weights_from_invariants", "x4circle.wcp", "weights_from_invariants"),
    Target("classifier.classify", "x4circle.classifier", "classify"),
)

# (metric, span, quantity): per-request means over a traced run.  Quantities
# are "calls", "s" (inclusive wall time), "self_s" (wall time not covered by
# child spans), "cpu_s", or a work count recorded by the target.
LAYER_METRICS = (
    ("engine.distance_matrix.calls", "engine.distance_matrix", "calls"),
    ("engine.distance_matrix.s", "engine.distance_matrix", "s"),
    ("engine.distance_matrix.cpu_s", "engine.distance_matrix", "cpu_s"),
    ("engine.distance_matrix.pairs", "engine.distance_matrix", "pairs"),
    ("engine.distance_matrix.gamma_pairs", "engine.distance_matrix", "gamma_pairs"),
    ("engine.refine.s", "engine.refine", "s"),
    ("engine.refine.candidates", "engine.refine", "candidates"),
    ("engine.align.calls", "engine.align", "calls"),
    ("engine.align.s", "engine.align", "s"),
    ("spaces.sample_quotient.calls", "spaces.sample_quotient", "calls"),
    ("spaces.sample_quotient.s", "spaces.sample_quotient", "s"),
    ("spaces.sample_quotient.points", "spaces.sample_quotient", "points"),
    ("spaces.regenerate.calls", "spaces.regenerate", "calls"),
    ("spaces.regenerate.s", "spaces.regenerate", "s"),
    ("spaces.discover_marked.s", "spaces.discover_marked", "s"),
    ("spaces.discover_marked.marks", "spaces.discover_marked", "marks"),
    ("spaces.validate_metric.calls", "spaces.validate_metric", "calls"),
    ("spaces.validate_metric.s", "spaces.validate_metric", "s"),
    ("spaces.validate_metric.points", "spaces.validate_metric", "points"),
    ("extents.extent.calls", "extents.extent", "calls"),
    ("extents.extent.s", "extents.extent", "s"),
    ("extents.extent.points", "extents.extent", "points"),
    ("extents.extent.exact_calls", "extents.extent", "exact_calls"),
    ("extents.extent.heuristic_calls", "extents.extent", "heuristic_calls"),
    ("cover.double_branched_cover.calls", "cover.double_branched_cover", "calls"),
    ("cover.double_branched_cover.s", "cover.double_branched_cover", "s"),
    ("cover.build_cover.s", "cover.build_cover", "s"),
    ("cover.knn_edges.s", "cover.knn_edges", "s"),
    ("cover.knn_edges.edges", "cover.knn_edges", "edges"),
    ("cover.azimuth_field.calls", "cover.azimuth_field", "calls"),
    ("cover.azimuth_field.s", "cover.azimuth_field", "s"),
    ("cover.cut_crossings.s", "cover.cut_crossings", "s"),
    ("cover.cut_crossings.candidate_edges", "cover.cut_crossings", "candidate_edges"),
    ("cover.cut_crossings.crossing_edges", "cover.cut_crossings", "crossing_edges"),
    ("cover.dijkstra.s", "cover.dijkstra", "s"),
    ("cover.dijkstra.sources", "cover.dijkstra", "sources"),
    ("cover.dijkstra.graph_edges", "cover.dijkstra", "graph_edges"),
    ("condition_q.check_condition_qprime.s", "condition_q.check_condition_qprime", "s"),
    ("condition_q.check_condition_qprime.self_s", "condition_q.check_condition_qprime", "self_s"),
    ("cli.main.s", "cli.main", "s"),
    ("cli.schema.s", "cli.schema", "s"),
    ("cli.parser.s", "cli.parser", "s"),
    ("serialize.dumps_canonical.s", "serialize.dumps_canonical", "s"),
    ("invariants.canonicalize.s", "invariants.canonicalize", "s"),
    ("invariants.are_equivalent.s", "invariants.are_equivalent", "s"),
    ("seifert.fundamental_group.s", "seifert.fundamental_group", "s"),
    ("seifert.recognize_boundary.s", "seifert.recognize_boundary", "s"),
    ("intlinalg.smith_normal_form.calls", "intlinalg.smith_normal_form", "calls"),
    ("intlinalg.smith_normal_form.s", "intlinalg.smith_normal_form", "s"),
    ("wcp.weights_from_invariants.s", "wcp.weights_from_invariants", "s"),
    ("classifier.classify.s", "classifier.classify", "s"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Records spans around TARGETS while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, counts, cpu)
        self.absent: list[str] = []  # spans whose function was not found
        self.count_errors: dict[str, str] = {}  # span -> why its counts are missing
        self.request: Optional[int] = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []  # (namespace, attribute, original)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            owner = _resolve(target.owner)
            original = None if owner is None else vars(owner).get(target.attr)
            if original is None or not callable(original):
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            self._rebind(owner, target.attr, original, wrapper)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "x4circle" or name.startswith("x4circle.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _rebind(self, namespace, attr, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._restore.append((namespace, attr, original))

    def _wrap(self, target: Target, original):
        signature = inspect.signature(original) if target.counts else None
        spans = self.spans
        stack = self._stack
        ids = self._ids
        perf = time.perf_counter
        cpu_clock = time.process_time if target.cpu else None

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0 = cpu_clock() if cpu_clock else 0.0
            t0 = perf()
            returned = False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf()
                cpu = cpu_clock() - c0 if cpu_clock else None
                stack.pop()
                counts = None
                if signature is not None and returned:
                    counts = self._counts(target, signature, args, kwargs, result)
                spans.append((sid, target.span, t0, t1, parent, self.request, counts, cpu))

        return functools.wraps(original)(wrapper)

    def _counts(self, target, signature, args, kwargs, result):
        # a refactor may rename an argument or change a result type; the
        # run goes on and the affected quantities are reported as absent
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return target.counts(bound.arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            self.count_errors[target.span] = f"{type(exc).__name__}: {exc}"
            return None

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, request, counts, cpu in self.spans:
                row = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "request": request}
                if cpu is not None:
                    row["cpu_s"] = cpu
                if counts:
                    row.update(counts)
                fh.write(json.dumps(row) + "\n")

    def summarize(self, requests: int) -> tuple[dict, list[str]]:
        """Per-request layer metrics and the names of absent ones."""
        if requests < 1:
            raise ValueError("a summary needs at least one request")
        by_id = {span[0]: span for span in self.spans}
        child_time: dict[int, float] = {}
        for _sid, _name, t0, t1, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

        def under(sid, ancestor: str) -> bool:
            while sid is not None:
                if by_id[sid][1] == ancestor:
                    return True
                sid = by_id[sid][4]
            return False

        totals: dict[str, dict[str, float]] = {}
        certificate = 0.0
        for sid, name, t0, t1, parent, _req, counts, cpu in self.spans:
            agg = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            if cpu is not None:
                agg["cpu_s"] = agg.get("cpu_s", 0.0) + cpu
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
            if name == "extents.extent" and under(parent, "cover.double_branched_cover"):
                certificate += t1 - t0

        metrics: dict[str, float] = {}
        absent: list[str] = []
        missing_counts = set(self.count_errors)
        for metric, span, quantity in LAYER_METRICS:
            if span in self.absent or (
                span in missing_counts and quantity not in ("calls", "s", "self_s", "cpu_s")
            ):
                absent.append(metric)
                continue
            agg = totals.get(span, {})
            metrics[metric] = agg.get(quantity, 0) / requests

        matrix_s, refine_s = metrics.get("engine.distance_matrix.s"), metrics.get("engine.refine.s")
        if matrix_s is None or refine_s is None:
            absent.append("engine.coarse.s")
        else:
            metrics["engine.coarse.s"] = matrix_s - refine_s
        cand, pairs = metrics.get("engine.refine.candidates"), metrics.get("engine.distance_matrix.pairs")
        if cand is None or pairs is None:
            absent.append("engine.refine.candidates_per_pair")
        else:
            metrics["engine.refine.candidates_per_pair"] = cand / pairs if pairs else 0.0
        if "extents.extent" in self.absent or "cover.double_branched_cover" in self.absent:
            absent.append("cover.certificate.s")
        else:
            metrics["cover.certificate.s"] = certificate / requests
        metrics["trace.spans"] = len(self.spans) / requests
        return metrics, absent
