"""Workload definitions: the request stream each benchmark run sends.

Every workload is a closed loop with one client: the next request goes to
``x4circle.cli.main`` only after the previous one has returned.  A run
repeats one *round* (a fixed list of requests chosen by the run seed) until
its time is up, and stops only at a round boundary, so per-request work
counts are the same for every run of one seed however many rounds fit.

Requests are drawn from fixed pools whose reference reports are recorded
in ``perfbench/reference/``, so every run is checked against a reference
whatever its seed.  A lab round sends every pool entry once, in an order
the run seed shuffles: the sampling seeds differ in cost by up to a third,
and a run that sent only some of them would measure which ones it drew.

This module imports nothing but the standard library: the worker loads it
before the code under test, and the algebra workload must not pull numpy in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

HOPF_D3 = {"weights": [1, 1], "gamma": "binary-dihedral:3"}

# lab workload -> (command and options, payload); --seed comes from LAB_POOL.
# Why each workload exists, and why the sample counts are below the CLI
# default of 800, is written in BENCHMARK.json and the README.
LAB_REQUESTS = {
    "extent-hopf-d3": (("extent", "--samples", "200"), {"action": HOPF_D3, "q": 3}),
    "checkq-hopf-d3": (("check-q", "--samples", "50"), {"action": HOPF_D3}),
    "checkq-football-23": (("check-q", "--samples", "100"), {"action": {"weights": [2, 3]}}),
}
WORKLOADS = (*LAB_REQUESTS, "algebra-mix")

# sampling seeds with a recorded reference report, per lab workload
LAB_POOL = (0, 1)

# the algebra pool holds the same number of requests for each stratum (a
# command, or a payload the schema refuses), and every round draws the same
# number from each, so the command mix is the same for every seed; only the
# payloads change
ALGEBRA_STRATA = ("canon", "equiv", "euler", "seifert-pi1", "seifert-recognize", "wcp",
                  "classify", "schema-reject")
ALGEBRA_PER_STRATUM = 64
ALGEBRA_ROUND_PER_STRATUM = 48
ALGEBRA_POOL_SEED = 20261017


@dataclass(frozen=True)
class Request:
    key: str  # pool key; the reference report is stored under it
    argv: tuple[str, ...]
    payload: str  # JSON text sent on stdin


def is_lab(workload: str) -> bool:
    """Whether the workload's command loads x4circle.extent_lab (numpy, scipy)."""
    return workload in LAB_REQUESTS


def _lab_request(workload: str, sample_seed: int) -> Request:
    command, payload = LAB_REQUESTS[workload]
    argv = (*command, "--seed", str(sample_seed))
    return Request(f"seed-{sample_seed}", argv, json.dumps(payload, sort_keys=True))


# -- exact-algebra payloads ------------------------------------------------


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _rational(rng: random.Random) -> str:
    den = rng.randint(1, 7)
    num = rng.randint(-9, 9)
    # unreduced spellings exercise the normalization of the request
    if rng.random() < 0.2:
        k = rng.randint(2, 3)
        return f"{num * k}/{den * k}"
    return str(num) if den == 1 else f"{num}/{den}"


def _tuple(rng: random.Random, lo: int, hi: int) -> list[str]:
    return [_rational(rng) for _ in range(rng.randint(lo, hi))]


def _moved(rng: random.Random, entries: list[str]) -> list[str]:
    """An equivalent tuple: random rotations, reversals and translations."""
    e = [Fraction(x) for x in entries]
    for _ in range(rng.randint(1, 4)):
        move = rng.randrange(3)
        if move == 0:
            e = e[1:] + e[:1]
        elif move == 1:
            e = [-x for x in reversed(e)]
        else:
            k = rng.randint(-3, 3)
            e = [x + k for x in e]
    return [_fmt(x) for x in e]


def _fiber(rng: random.Random) -> list[int]:
    while True:
        a = rng.randint(1, 6)
        b = rng.randint(-6, 6)
        if gcd(a, b) == 1:
            return [a, b]


def _fibers(rng: random.Random) -> dict:
    shape = rng.random()
    if shape < 0.3:
        # the loop-and-spur link {(k, -1), (k, 1), (a, b)}
        k = rng.randint(2, 4)
        fibers = [[k, -1], [k, 1], _fiber(rng)]
        rng.shuffle(fibers)
    else:
        fibers = [_fiber(rng) for _ in range(rng.randint(1, 3))]
    return {"fibers": fibers}


def _coprime_beta(rng: random.Random, order: int) -> int:
    while True:
        beta = rng.randint(-5, 5)
        if gcd(order, beta) == 1:
            return beta


def _edge(rng: random.Random, vertices: int) -> dict:
    order = rng.randint(2, 5)
    kind = rng.random()
    if kind < 0.08:
        edge = {"free_curve": True, "order": order}
    elif kind < 0.3 and vertices:
        edge = {"loop": rng.randrange(vertices), "order": rng.randint(2, 4)}
    else:
        u = rng.randrange(max(vertices, 1))
        v = (u + rng.randint(1, max(vertices - 1, 1))) % max(vertices, 1)
        edge = {"between": [u, v], "order": order}
    if rng.random() < 0.5:
        edge["beta"] = _coprime_beta(rng, edge["order"])
    return edge


def _triangle(rng: random.Random) -> dict:
    """Three fixed points with an invariant triple matching the edge orders."""
    while True:
        invariants = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
        if len(set(invariants)) == 3 or rng.random() < 0.15:
            break
    orders = [x.denominator for x in invariants]
    edges = []
    for (u, v), order in zip(((0, 1), (1, 2), (0, 2)), orders):
        if order == 1:
            if rng.random() < 0.5:
                edges.append({"between": [u, v], "order": 1, "virtual": True})
        else:
            edges.append({"between": [u, v], "order": order})
    return {"graph": {"vertices": 3, "edges": edges}, "invariants": [_fmt(x) for x in invariants]}


def _graph(rng: random.Random) -> dict:
    shape = rng.random()
    if shape < 0.25:
        return _triangle(rng)
    if shape < 0.35:
        soul = rng.choice([1, 2, 3, 5, "circle"])
        return {"graph": {"vertices": rng.randint(0, 2), "edges": [],
                          "boundary_fixed_set": True, "soul_isotropy": soul}}
    if shape < 0.6:
        # loop and spur on two fixed points
        loop = {"loop": 0, "order": rng.randint(2, 4)}
        if rng.random() < 0.4:
            loop["beta"] = 1
        edges = [loop]
        if rng.random() < 0.7:
            spur = {"between": [0, 1], "order": rng.randint(2, 6)}
            if rng.random() < 0.6:
                spur["beta"] = _coprime_beta(rng, spur["order"])
            edges.append(spur)
        return {"graph": {"vertices": 2, "edges": edges}}
    vertices = rng.choice([0, 1, 2, 2, 2, 3, 4])
    edges = [_edge(rng, vertices) for _ in range(rng.randint(0, 4))] if vertices else []
    if vertices == 2 and edges and all("beta" in e and "loop" not in e for e in edges):
        # Known defect: a suspension whose edges all carry beta makes
        # `x4 classify` raise AttributeError in serialize.encode_presentation
        # (it is handed a SeifertPresentation).  That input has no defined
        # answer to check against, so one beta is dropped until it is fixed.
        del edges[-1]["beta"]
    return {"graph": {"vertices": vertices, "edges": edges}}


def _schema_reject(rng: random.Random) -> tuple[str, dict]:
    """A payload that JSON-schema validation refuses (exit 1)."""
    case = rng.randrange(6)
    if case == 0:
        return "canon", {"invariants": [_rational(rng)]}
    if case == 1:
        return "euler", {"invariants": [_rational(rng), f"{rng.randint(1, 9)}/0"]}
    if case == 2:
        return "wcp", {"invariants": _tuple(rng, 2, 2)}
    if case == 3:
        return "seifert-pi1", {"seifert": {"fibers": [[rng.randint(1, 5)]]}}
    if case == 4:
        return "equiv", {"left": _tuple(rng, 2, 3)}
    return "classify", {"graph": {"vertices": 2, "edges": [
        {"between": [0, 1], "loop": 0, "order": rng.randint(2, 5)}]}}


def _algebra_payload(rng: random.Random, stratum: str) -> tuple[str, dict]:
    if stratum == "schema-reject":
        return _schema_reject(rng)
    command = stratum
    if command in ("canon", "euler"):
        return command, {"invariants": _tuple(rng, 2, 5)}
    if command == "equiv":
        left = _tuple(rng, 2, 4)
        right = _moved(rng, left) if rng.random() < 0.5 else _tuple(rng, 2, 4)
        return command, {"left": left, "right": right}
    if command in ("seifert-pi1", "seifert-recognize"):
        return command, {"seifert": _fibers(rng)}
    if command == "wcp":
        triple = _tuple(rng, 3, 3)
        if rng.random() < 0.2:
            triple[rng.randrange(3)] = triple[(rng.randrange(2) + 1) % 3]
        return command, {"invariants": triple}
    return command, _graph(rng)


def algebra_pool() -> list[Request]:
    """The fixed pool of exact-algebra requests, independent of the run seed."""
    rng = random.Random(ALGEBRA_POOL_SEED)
    pool = []
    for stratum in ALGEBRA_STRATA:
        for i in range(ALGEBRA_PER_STRATUM):
            command, payload = _algebra_payload(rng, stratum)
            key = f"{stratum}-{i:02d}"
            pool.append(Request(key, (command,), json.dumps(payload, sort_keys=True)))
    return pool


def pool(workload: str) -> list[Request]:
    """Every request the workload can send; references cover exactly these."""
    if workload == "algebra-mix":
        return algebra_pool()
    return [_lab_request(workload, s) for s in LAB_POOL]


def round_for(workload: str, seed: int) -> list[Request]:
    """The round of requests a run with this seed repeats."""
    rng = random.Random(f"{workload}/{seed}")
    entries = pool(workload)
    if workload == "algebra-mix":
        picks = [
            entries[s * ALGEBRA_PER_STRATUM + rng.randrange(ALGEBRA_PER_STRATUM)]
            for s in range(len(ALGEBRA_STRATA))
            for _ in range(ALGEBRA_ROUND_PER_STRATUM)
        ]
        rng.shuffle(picks)
        return picks
    rng.shuffle(entries)
    return entries
