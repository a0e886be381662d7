"""Correctness check of each request's outcome against a recorded reference.

Exit codes and rejection tags must match exactly.  Reports are compared as
JSON trees: every key, string, integer and boolean exactly (verdicts, check
names, witness indices, cone points, marked labels and isotropy orders),
floats (extents, diameters, margins) within FLOAT_TOL, and the free-text
``details`` strings not at all.
"""

from __future__ import annotations

import json
from pathlib import Path

FLOAT_TOL = 1e-9
SKIPPED_KEYS = frozenset({"details"})
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def stderr_tag(code, stderr: str):
    """What of stderr must reproduce: the rejection line or the error kind."""
    lines = [line for line in stderr.splitlines() if line.strip()]
    if code == 0 or not lines:
        return None
    if code == 2:
        return next((line for line in lines if line.startswith("rejected: ")), None)
    # exit 1 and 3: "payload rejected by schema: ...", "ValueError: ..."
    return lines[-1].split(":", 1)[0]


def _tree_diff(ref, got, path: str) -> str | None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{path}: keys {sorted(ref)} != {sorted(got)}"
        for key in ref:
            if key in SKIPPED_KEYS:
                continue
            diff = _tree_diff(ref[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = _tree_diff(a, b, f"{path}[{i}]")
            if diff:
                return diff
        return None
    numeric = (int, float)
    if (
        (isinstance(ref, float) or isinstance(got, float))
        and isinstance(ref, numeric) and isinstance(got, numeric)
        and not isinstance(ref, bool) and not isinstance(got, bool)
    ):
        return None if abs(ref - got) <= FLOAT_TOL else f"{path}: {ref!r} != {got!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {ref!r} != {got!r}"
    return None


def mismatch(reference: dict, outcome: dict) -> str | None:
    """Why an outcome differs from its reference, or None when it matches."""
    if outcome["code"] != reference["code"]:
        return f"exit code {outcome['code']!r}, expected {reference['code']!r}"
    tag, want = stderr_tag(outcome["code"], outcome["stderr"]), stderr_tag(
        reference["code"], reference["stderr"]
    )
    if tag != want:
        return f"stderr tag {tag!r}, expected {want!r}"
    if not reference["stdout"] or not outcome["stdout"]:
        if reference["stdout"] != outcome["stdout"]:
            return "report present on one side only"
        return None
    try:
        got = json.loads(outcome["stdout"])
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    return _tree_diff(json.loads(reference["stdout"]), got, "report")


def load_references(workload: str, directory: Path = REFERENCE_DIR) -> dict:
    """Reference outcomes of a workload's pool, by request key."""
    refs = {}
    with open(directory / f"{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            refs[row["key"]] = row
    return refs


def write_references(workload: str, outcomes: list[dict], directory: Path = REFERENCE_DIR):
    directory.mkdir(exist_ok=True)
    with open(directory / f"{workload}.jsonl", "w", encoding="utf-8") as fh:
        for o in outcomes:
            row = {k: o[k] for k in ("key", "code", "stdout", "stderr")}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
