"""Command-line front end.

One logical request per invocation: a subcommand names the operation,
the JSON payload arrives via --input (file or stdin), and the report is
written to stdout with diagnostics on stderr.  Exit codes: 0 success,
1 invalid input (also a report that cannot be encoded), 2 mathematically
rejected (the report carries the citation tag), 3 numeric non-convergence.

Every report embeds the normalized request; feeding a report file back
through --input re-runs that request and reproduces the report byte for
byte.

Importing this module loads no domain layer: each handler imports the
layers its command runs.  `canon`, `equiv` and `euler` load `invariants`;
`seifert-pi1` and `seifert-recognize` load `seifert` and `intlinalg`;
`wcp` loads `wcp`, `invariants` and `intlinalg`; `classify` loads all five
algebra modules; `extent` and `check-q` load the numerical lab
(`x4circle.extent_lab`, which loads numpy) and no algebra module.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import jsonschema

from . import serialize

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 800
DEFAULT_TOL = 0.02
DEFAULT_FORMAT = "json"


@dataclass
class Options:
    seed: int
    samples: int
    tol: float
    format: str


class _Parser(argparse.ArgumentParser):
    # usage errors are invalid input, not "mathematically rejected"
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="x4",
        description=(
            "Invariant algebra, orbit-graph classification, and extent "
            "measurements for isometric circle actions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", default="-", help="payload JSON path, - for stdin")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (u64)")
        p.add_argument("--samples", type=int, default=None, help="sample count")
        p.add_argument("--tol", type=float, default=None, help="tolerance in radians")
        p.add_argument("--format", choices=("json", "text"), default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built on first use."""
    return _build_parser()


def _load_input(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return json.loads(text)


# ---------------------------------------------------------------------------
# command handlers: (payload, options) -> (normalized payload, result)


def _run_canon(payload, opts):
    from .invariants import InvariantTuple, canonicalize, is_realizable

    t = InvariantTuple(payload["invariants"])
    canonical = canonicalize(t).as_strings()
    # rotated inputs normalize to one payload, so their reports are identical
    return {"invariants": canonical}, {"canonical": canonical, "realizable": is_realizable(t)}


def _run_equiv(payload, opts):
    from .invariants import InvariantTuple, are_equivalent, canonicalize

    left = InvariantTuple(payload["left"])
    right = InvariantTuple(payload["right"])
    normalized = {"left": left.as_strings(), "right": right.as_strings()}
    result = {
        "equivalent": are_equivalent(left, right),
        "canonical_left": canonicalize(left).as_strings(),
        "canonical_right": canonicalize(right).as_strings(),
    }
    return normalized, result


def _run_euler(payload, opts):
    from .invariants import InvariantTuple, cyclic_differences, euler_sum

    t = InvariantTuple(payload["invariants"])
    result = {
        "euler_sum": str(euler_sum(t)),
        "cyclic_differences": [str(d) for d in cyclic_differences(t)],
    }
    return {"invariants": t.as_strings()}, result


def _run_seifert_pi1(payload, opts):
    from .seifert import abelian_order_two_fibers, euler_number, fundamental_group, normalize

    p = serialize.decode_seifert(payload["seifert"])
    result = {
        "presentation": serialize.encode_presentation(fundamental_group(p)),
        "euler_number": str(euler_number(p)),
        "normalized": serialize.encode_seifert(normalize(p)),
    }
    if len(p.fibers) == 2:
        order = abelian_order_two_fibers(p)
        result["two_fiber_order"] = "infinite" if order is None else order
    return {"seifert": serialize.encode_seifert(p)}, result


def _run_seifert_recognize(payload, opts):
    from .seifert import recognize_boundary

    p = serialize.decode_seifert(payload["seifert"])
    result = serialize.encode_recognition(recognize_boundary(p))
    return {"seifert": serialize.encode_seifert(p)}, result


def _run_wcp(payload, opts):
    from .invariants import PAIRWISE_UNEQUAL, InvariantTuple, is_realizable
    from .wcp import verify_kernel, weights_from_invariants

    t = InvariantTuple(payload["invariants"])
    normalized = {"invariants": t.as_strings()}
    if not is_realizable(t):
        return normalized, serialize.encode_classification(PAIRWISE_UNEQUAL)
    descriptor = weights_from_invariants(t)
    result = {
        "descriptor": serialize.encode_descriptor(descriptor),
        "kernel_verified": verify_kernel(descriptor.weights, t),
    }
    return normalized, result


def _run_classify(payload, opts):
    from .classifier import classify
    from .invariants import InvariantTuple

    graph = serialize.decode_graph(payload["graph"])
    invariants = None
    normalized = {"graph": serialize.encode_graph(graph)}
    if "invariants" in payload:
        invariants = InvariantTuple(payload["invariants"])
        normalized["invariants"] = invariants.as_strings()
    return normalized, serialize.encode_classification(classify(graph, invariants))


def _decode_sized_action(command: str, payload, opts):
    """decode_action, refused by check_matrix_budget before anything is sampled."""
    from .extent_lab import check_matrix_budget

    action, spec = serialize.decode_action(payload["action"], opts.samples, opts.seed)
    check_matrix_budget(command, spec)
    return action, spec


def _run_extent(payload, opts):
    from .extent_lab import SMALL_BOUND, extent, is_small, sample_quotient

    action, spec = _decode_sized_action("extent", payload, opts)
    q = int(payload.get("q", 3))
    normalized = {"action": action, "q": q}
    method = payload.get("method")
    if method is not None:
        normalized["method"] = method
    space = sample_quotient(spec)
    report = extent(space, q, method=method)
    result = {
        "space": serialize.encode_space_summary(space),
        "extent": serialize.encode_extent_report(report, space),
    }
    if q == 3:
        small, margin = is_small(report.value, opts.tol)
        result["small"] = {
            "bound": SMALL_BOUND,
            "tol": opts.tol,
            "is_small": small,
            "margin": margin,
        }
    return normalized, result


def _run_check_q(payload, opts):
    from .extent_lab import check_condition_qprime

    action, spec = _decode_sized_action("check-q", payload, opts)
    report = check_condition_qprime(spec, tol=opts.tol)
    return {"action": action}, serialize.encode_qprime_report(report)


# name -> (help text, handler); the parser, the schemas and the README name these
_COMMANDS = {
    "canon": ("canonical form of an invariant tuple under rotation and reversal", _run_canon),
    "equiv": ("decide equivalence of two invariant tuples", _run_equiv),
    "euler": ("euler sum and cyclic differences of an invariant tuple", _run_euler),
    "seifert-pi1": ("fundamental group presentation of a Seifert presentation", _run_seifert_pi1),
    "seifert-recognize": (
        "recognize the boundary type of a Seifert presentation",
        _run_seifert_recognize,
    ),
    "wcp": ("kernel weights of a realizable invariant triple", _run_wcp),
    "classify": ("classify an action from its singular multigraph", _run_classify),
    "extent": ("q-extent of a sampled circle-action quotient", _run_extent),
    "check-q": ("run the full smallness battery on an action", _run_check_q),
}


def _exception_code(exc: Exception) -> int | None:
    """Exit code for a domain failure, None for a genuine crash."""
    names = {base.__name__ for base in type(exc).__mro__}
    if "ConvergenceError" in names or "GraphDisconnectedError" in names:
        return 3
    if isinstance(exc, ValueError):
        return 1
    return None


def _is_integer(value) -> bool:
    """An int that is not a bool (JSON true/false decode to the int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        raw = _load_input(args.input)
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return 1
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        sys.stderr.write(f"input is not valid JSON: {exc}\n")
        return 1

    # a full report (or request envelope) re-runs the request it embeds
    envelope_options = {}
    if isinstance(raw, dict) and isinstance(raw.get("request"), dict):
        raw = raw["request"]
    if isinstance(raw, dict) and "command" in raw and "payload" in raw:
        if raw["command"] != args.command:
            sys.stderr.write(
                f"input embeds command {raw['command']!r}, invoked as {args.command!r}\n"
            )
            return 1
        if isinstance(raw.get("options"), dict):
            envelope_options = raw["options"]
        raw = raw["payload"]

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return envelope_options.get(key, default)

    opts = Options(
        seed=pick(args.seed, "seed", DEFAULT_SEED),
        samples=pick(args.samples, "samples", DEFAULT_SAMPLES),
        tol=pick(args.tol, "tol", DEFAULT_TOL),
        format=pick(args.format, "format", DEFAULT_FORMAT),
    )
    if not (_is_integer(opts.seed) and 0 <= opts.seed < 2**64):
        sys.stderr.write("seed must be an unsigned 64-bit integer\n")
        return 1
    if not (_is_integer(opts.samples) and opts.samples >= 50):
        sys.stderr.write("samples must be an integer >= 50\n")
        return 1
    if not (isinstance(opts.tol, (int, float)) and 0 < opts.tol < 1):
        sys.stderr.write("tol must lie in (0, 1) radians\n")
        return 1
    if opts.format not in ("json", "text"):
        sys.stderr.write("format must be json or text\n")
        return 1

    try:
        jsonschema.validate(raw, serialize.SCHEMAS[args.command])
    except jsonschema.ValidationError as exc:
        sys.stderr.write(f"payload rejected by schema: {exc.message}\n")
        return 1
    except RecursionError:  # nesting that json.loads only just parsed
        sys.stderr.write("payload rejected by schema: nested too deeply\n")
        return 1

    # one boundary for the handler and the encoding: a report that cannot be
    # rendered (say an integer past Python's digit limit) is invalid input
    try:
        normalized, result = _COMMANDS[args.command][1](raw, opts)
        report = {
            "request": {"command": args.command, "payload": normalized, "options": vars(opts)},
            "result": result,
        }
        render = serialize.dumps_canonical if opts.format == "json" else serialize.render_text
        text = render(report)
    except Exception as exc:
        mapped = _exception_code(exc)
        if mapped is None:
            raise
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return mapped

    sys.stdout.write(text)
    if result.get("kind") == "rejected":
        sys.stderr.write(f"rejected: {result['tag']}\n")
        return 2
    return 0

if __name__ == "__main__":
    sys.exit(main())
