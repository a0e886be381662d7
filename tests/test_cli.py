"""End-to-end tests of the command-line front end and its exit codes."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import x4circle
from x4circle import cli


def run_cli(capsys, monkeypatch, argv, payload=None):
    """Invoke main() with an optional stdin payload; returns (code, out, err)."""
    if payload is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failed_certificate():
    """A cover certificate whose diameter drifts by 0.1 at tol 0.02."""
    from x4circle.extent_lab import CoverCertificate

    return CoverCertificate(
        samples_low=300,
        samples_high=600,
        diameter_low=1.0,
        diameter_high=1.1,
        xt3_low=0.9,
        xt3_high=0.9,
        tol=0.02,
    )


K3_PAYLOAD = {
    "graph": {
        "vertices": 3,
        "edges": [
            {"between": [0, 1], "order": 1, "virtual": True},
            {"between": [1, 2], "order": 2},
            {"between": [0, 2], "order": 2},
        ],
    },
    "invariants": ["0", "-1/2", "1/2"],
}

TWO_LOOPS_PAYLOAD = {
    "graph": {
        "vertices": 2,
        "edges": [{"loop": 0, "order": 2}, {"loop": 1, "order": 2}],
    }
}


class TestExitCodes:
    def test_classify_k3_succeeds(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], K3_PAYLOAD)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["kind"] == "wcp-quotient"
        assert result["descriptor"]["weights"] == [4, -1, -1]

    def test_two_loops_rejected_with_tag(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["classify"], TWO_LOOPS_PAYLOAD)
        assert code == 2
        result = json.loads(out)["result"]
        assert (result["kind"], result["tag"]) == ("rejected", "fig5-dg")
        assert "fig5-dg" in err

    def test_suspension_with_sections_reports_fibers(self, capsys, monkeypatch):
        edges = [
            {"between": [0, 1], "order": 3, "beta": 1},
            {"between": [0, 1], "order": 2, "beta": 1},
        ]
        payload = {"graph": {"vertices": 2, "edges": edges}}
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], payload)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["kind"] == "suspension"
        assert result["presentation"]["fibers"] == [[e["order"], e["beta"]] for e in edges]

        edges[0] = {"between": [0, 1], "order": 2, "beta": -1}
        code, out, err = run_cli(capsys, monkeypatch, ["classify"], payload)
        assert code == 2
        assert json.loads(out)["result"]["tag"] == "s2xs1-inadmissible"
        assert "s2xs1-inadmissible" in err

    def test_schema_rejection_precedes_dispatch(self, capsys, monkeypatch):
        def bomb(payload, opts):
            raise AssertionError("handler must not run on schema-invalid input")

        monkeypatch.setitem(cli._COMMANDS, "canon", ("help", bomb))
        code, out, err = run_cli(
            capsys, monkeypatch, ["canon"], {"invariants": ["1/2"]}
        )
        assert code == 1
        assert out == ""
        assert "schema" in err

    def test_malformed_json_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        assert cli.main(["canon"]) == 1

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff",  # not UTF-8
            b'{"invariants": [' + b"1" * 5000 + b', "1"]}',  # past the 4300-digit limit
            b"[" * 100_000,  # past the recursion limit
        ],
        ids=["non-utf8", "5000-digit-integer", "deep-nesting"],
    )
    def test_undecodable_input_exits_one(self, capsys, monkeypatch, tmp_path, data):
        path = tmp_path / "payload.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, monkeypatch, ["canon", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("input is not valid JSON: ") and err.count("\n") == 1

    def test_nesting_the_schema_cannot_walk_exits_one(self, capsys, monkeypatch, tmp_path):
        # depths just inside what json.loads parses can exhaust the stack in
        # the schema check instead; which depths do depends on the caller's
        # stack, so every other depth up to past the parser's limit is tried
        path = tmp_path / "payload.json"
        for depth in range(700, 1010, 2):
            edges = "[" * depth + "]" * depth
            path.write_text('{"graph": {"vertices": 1, "edges": %s}}' % edges)
            code, out, err = run_cli(capsys, monkeypatch, ["classify", "--input", str(path)])
            assert code == 1 and out == "", depth
            assert err.count("\n") == 1 and "Traceback" not in err, depth

    def test_missing_file_is_invalid_input(self, capsys, monkeypatch, tmp_path):
        code, _, err = run_cli(
            capsys, monkeypatch, ["canon", "--input", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "cannot read" in err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["canon", "--bogus"])
        assert exc.value.code == 1

    def test_parser_is_built_once(self, capsys, monkeypatch):
        # a usage error after a successful call exits 1 with the stderr of
        # a fresh parser, and --help still prints
        build = cli._build_parser
        builds = []
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(None) or build())
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(["canon", "--bogus"])
        fresh = capsys.readouterr().err
        assert exc.value.code == 1 and "unrecognized arguments: --bogus" in fresh
        code, out, _ = run_cli(capsys, monkeypatch, ["canon"], {"invariants": ["0", "1/2"]})
        assert code == 0 and out
        with pytest.raises(SystemExit) as exc:
            cli.main(["canon", "--bogus"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == fresh
        for argv, text in (["--help"], "usage: x4"), (["extent", "--help"], "--samples"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert text in capsys.readouterr().out
        assert len(builds) == 1

    @pytest.mark.parametrize("in_action", [False, True])
    @pytest.mark.parametrize("command", ["extent", "check-q"])
    def test_samples_over_the_matrix_budget_exit_one_unsampled(
        self, capsys, monkeypatch, command, in_action
    ):
        from x4circle.extent_lab import MAX_MATRIX_BYTES, DistanceEngine, largest_matrix_bytes

        def refuse(*args, **kwargs):
            raise AssertionError("a distance engine was built")

        monkeypatch.setattr(DistanceEngine, "__init__", refuse)
        # the fewest samples whose estimate passes the budget, for D3*
        samples = 50
        while largest_matrix_bytes(command, samples, 12) <= MAX_MATRIX_BYTES:
            samples += 1
        action = {"weights": [1, 1], "gamma": "binary-dihedral:3"}
        argv = [command]
        if in_action:
            action["samples"] = samples
        else:
            argv += ["--samples", str(samples)]
        code, out, err = run_cli(capsys, monkeypatch, argv, {"action": action})
        assert code == 1
        assert out == ""
        need = largest_matrix_bytes(command, samples, 12)
        assert err == (
            f"ValueError: {command} at {samples} samples needs a distance matrix of about "
            f"{need} bytes, over the limit of {MAX_MATRIX_BYTES}\n"
        )

    def test_matrix_estimate_bounds_real_requests(self, monkeypatch):
        # the matrices of small requests, against the estimate at their size
        from x4circle.extent_lab import IsometricActionSpec, check_condition_qprime, cover
        from x4circle.extent_lab import largest_matrix_bytes, parse_gamma, sample_quotient

        for weights, preset in (([1, 1], "binary-dihedral:3"), ([1, 1], "cyclic:5"), ([2, 3], "trivial")):
            gamma = parse_gamma(preset)
            spec = IsometricActionSpec(weights=tuple(weights), gamma=gamma, samples=50)
            size = sample_quotient(spec).size
            assert 8 * size**2 <= largest_matrix_bytes("extent", 50, len(gamma))
        sizes = []
        check = cover.validate_metric
        monkeypatch.setattr(cover, "validate_metric", lambda space: sizes.append(space.size) or check(space))
        d3 = parse_gamma("binary-dihedral:3")
        check_condition_qprime(IsometricActionSpec(weights=(1, 1), gamma=d3, samples=50))
        # three pairs of cone points, each covered at 50 and 100 samples
        assert len(sizes) == 6
        assert 8 * max(sizes) ** 2 <= largest_matrix_bytes("check-q", 50, 12)

    def test_option_bounds(self, capsys, monkeypatch):
        payload = {"invariants": ["0", "1/2"]}
        for argv in (
            ["canon", "--seed", "-1"],
            ["canon", "--samples", "10"],
            ["canon", "--tol", "0"],
            ["canon", "--tol", "2.0"],
        ):
            code, _, _ = run_cli(capsys, monkeypatch, argv, payload)
            assert code == 1

    @pytest.mark.parametrize("seed, expected", [(2**64 - 1, 0), (2**64, 1)])
    def test_action_seed_is_unsigned_64_bit(self, capsys, monkeypatch, seed, expected):
        # the same bound as --seed, so a report never embeds a seed the option refuses
        payload = {"action": {"weights": [1, 1], "seed": seed}, "q": 3}
        code, out, err = run_cli(capsys, monkeypatch, ["extent", "--samples", "50"], payload)
        assert code == expected
        if expected:
            assert out == ""
            assert err.startswith("payload rejected by schema: ")
        else:
            assert json.loads(out)["request"]["payload"]["action"]["seed"] == seed

    def test_non_convergence_exits_three(self, capsys, monkeypatch):
        import x4circle.extent_lab as lab
        from x4circle.extent_lab import condition_q

        def fail(spec, tol=0.02):
            raise lab.ConvergenceError(failed_certificate())

        # on the submodule: undoing a patch of the package's lazy name would
        # leave the name cached in the package namespace
        monkeypatch.setattr(condition_q, "check_condition_qprime", fail)
        code, out, err = run_cli(
            capsys, monkeypatch, ["check-q"], {"action": {"weights": [1, 1]}}
        )
        assert code == 3
        assert out == ""
        assert "ConvergenceError: cover drift 0.100000" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("weights", [[1, 1], [2, 3]])
    def test_non_finite_gamma_exits_one(self, capsys, monkeypatch, weights, bad):
        eye = [[float(i == j) for j in range(4)] for i in range(4)]
        spoiled = [row[:] for row in eye]
        spoiled[3][3] = bad
        payload = {"action": {"weights": weights, "gamma": {"matrices": [eye, spoiled]}}, "q": 3}
        code, out, err = run_cli(capsys, monkeypatch, ["extent", "--samples", "50"], payload)
        assert code == 1
        assert out == ""
        assert "finite" in err and "Traceback" not in err

    # products of such entries overflowed in the orthogonality test, and
    # numpy printed its warning and source line to stderr in a fresh process
    @pytest.mark.parametrize("huge", [1e308, 1e200])
    def test_huge_gamma_entry_prints_one_line(self, huge):
        eye = [[float(i == j) for j in range(4)] for i in range(4)]
        spoiled = [row[:] for row in eye]
        spoiled[3][3] = huge
        payload = {"action": {"weights": [1, 1], "gamma": {"matrices": [eye, spoiled]}}, "q": 3}
        src = pathlib.Path(x4circle.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        done = subprocess.run(
            [sys.executable, "-m", "x4circle", "extent", "--samples", "50"],
            input=json.dumps(payload), capture_output=True, text=True,
            env={**env, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "ValueError: gamma element is not orthogonal to 1e-12\n"

    @pytest.mark.parametrize("preset, order", [
        ("cyclic:1000000000000000", 10**15),
        ("binary-dihedral:1000000000000000", 4 * 10**15),
    ])
    def test_oversized_group_preset_exits_one_unbuilt(self, capsys, monkeypatch, preset, order):
        import numpy as np

        from x4circle.extent_lab import actions

        def refuse(*args, **kwargs):
            raise AssertionError("a group element array was allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        payload = {"action": {"weights": [1, 1], "gamma": preset}, "q": 3}
        code, out, err = run_cli(capsys, monkeypatch, ["extent", "--samples", "50"], payload)
        assert code == 1
        assert out == ""
        assert err == (
            f"ValueError: group order {order} exceeds the limit of "
            f"{actions.MAX_GROUP_ORDER} elements\n"
        )

    def test_oversized_group_list_exits_one(self, capsys, monkeypatch):
        from x4circle.extent_lab.actions import MAX_GROUP_ORDER

        eye = [[float(i == j) for j in range(4)] for i in range(4)]
        gamma = {"matrices": [eye] * (MAX_GROUP_ORDER + 1)}
        payload = {"action": {"weights": [1, 1], "gamma": gamma}}
        code, out, err = run_cli(capsys, monkeypatch, ["check-q", "--samples", "50"], payload)
        assert code == 1
        assert out == ""
        assert err.startswith(f"ValueError: group order {MAX_GROUP_ORDER + 1} exceeds")
        assert err.count("\n") == 1

    # 1000000007 and 2000003 took np.arange(grid_size) in DistanceEngine to a
    # MemoryError, and 10**400 overflowed a float in the circle generator
    @pytest.mark.parametrize("weight", [1000000007, 2000003, 10**400])
    @pytest.mark.parametrize("command", ["extent", "check-q"])
    def test_oversized_weights_exit_one_unsampled(self, capsys, monkeypatch, command, weight):
        from x4circle.extent_lab import DistanceEngine
        from x4circle.extent_lab.actions import MAX_GRID_CELLS

        def refuse(*args, **kwargs):
            raise AssertionError("a distance engine was built")

        monkeypatch.setattr(DistanceEngine, "__init__", refuse)
        payload = {"action": {"weights": [1, weight]}}
        code, out, err = run_cli(capsys, monkeypatch, [command, "--samples", "50"], payload)
        assert code == 1
        assert out == ""
        assert err == (
            f"ValueError: weights {(1, weight)} with 1 group elements need {64 * weight} "
            f"engine grid cells per pair, over the limit of {MAX_GRID_CELLS}\n"
        )

    def test_unencodable_report_exits_one(self, capsys, monkeypatch):
        # the weights of this triple pass Python's 4300-digit int-to-string
        # limit, so the report cannot be written out
        sevens = "7" * 3000
        payload = {"invariants": [f"{sevens}/{sevens}1", f"1/{sevens}3", "0"]}
        for fmt in ("json", "text"):
            code, out, err = run_cli(capsys, monkeypatch, ["wcp", "--format", fmt], payload)
            assert code == 1
            assert out == ""
            assert err.startswith("ValueError: ") and "Traceback" not in err

    def test_exception_mapping(self):
        from x4circle.extent_lab import ConvergenceError, GraphDisconnectedError

        assert cli._exception_code(ConvergenceError(failed_certificate())) == 3
        assert cli._exception_code(GraphDisconnectedError("x")) == 3
        assert cli._exception_code(ValueError("x")) == 1
        assert cli._exception_code(RuntimeError("x")) is None


class TestReportEnvelope:
    def test_canon_rotation_invariant_bytes(self, capsys, monkeypatch):
        _, out_a, _ = run_cli(
            capsys, monkeypatch, ["canon"], {"invariants": ["0", "-1/2", "1/2"]}
        )
        _, out_b, _ = run_cli(
            capsys, monkeypatch, ["canon"], {"invariants": ["-1/2", "1/2", "0"]}
        )
        assert out_a == out_b

    def test_report_rerun_reproduces_bytes(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["equiv", "--seed", "9"],
            {"left": ["2/4", "1"], "right": ["1", "1/2"]},
        )
        assert code == 0
        report_file = tmp_path / "report.json"
        report_file.write_text(out)
        code, out2, _ = run_cli(
            capsys, monkeypatch, ["equiv", "--input", str(report_file)]
        )
        assert code == 0
        assert out2 == out

    def test_numeric_report_rerun_reproduces_bytes(self, capsys, monkeypatch, tmp_path):
        payload = {"action": {"weights": [1, 1]}, "q": 2}
        code, out, _ = run_cli(
            capsys, monkeypatch, ["extent", "--samples", "60", "--seed", "5"], payload
        )
        assert code == 0
        report_file = tmp_path / "report.json"
        report_file.write_text(out)
        code, out2, _ = run_cli(
            capsys, monkeypatch, ["extent", "--input", str(report_file)]
        )
        assert code == 0
        assert out2 == out

    def test_envelope_command_mismatch(self, capsys, monkeypatch, tmp_path):
        _, out, _ = run_cli(capsys, monkeypatch, ["canon"], {"invariants": ["0", "1"]})
        report_file = tmp_path / "report.json"
        report_file.write_text(out)
        code, _, err = run_cli(
            capsys, monkeypatch, ["euler", "--input", str(report_file)]
        )
        assert code == 1
        assert "embeds command" in err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("canon", {"invariants": ["0", "1/2"]}),
            ("extent", {"action": {"weights": [1, 1]}, "q": 2}),
        ],
    )
    @pytest.mark.parametrize("key", ["seed", "samples"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_envelope_boolean_options_rejected(
        self, capsys, monkeypatch, command, payload, key, flag
    ):
        options = {"seed": 0, "samples": 50, key: flag}
        envelope = {"command": command, "options": options, "payload": payload}
        code, out, err = run_cli(capsys, monkeypatch, [command], envelope)
        assert code == 1
        assert out == ""
        assert f"{key} must be" in err

    def test_payload_normalization(self, capsys, monkeypatch):
        _, out, _ = run_cli(
            capsys, monkeypatch, ["euler"], {"invariants": ["2/4", "-2/2"]}
        )
        report = json.loads(out)
        assert report["request"]["payload"]["invariants"] == ["1/2", "-1"]
        assert report["request"]["options"]["tol"] == 0.02


class TestCommandResults:
    def test_equiv(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["equiv"],
            {"left": ["0", "-1/2", "1/2"], "right": ["1", "1/2", "3/2"]},
        )
        assert code == 0
        assert json.loads(out)["result"]["equivalent"] is True

    def test_euler(self, capsys, monkeypatch):
        _, out, _ = run_cli(
            capsys, monkeypatch, ["euler"], {"invariants": ["1/2", "1/3"]}
        )
        assert json.loads(out)["result"]["euler_sum"] == "-5/6"

    def test_seifert_pi1_two_fiber_order(self, capsys, monkeypatch):
        _, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["seifert-pi1"],
            {"seifert": {"fibers": [[2, 1], [3, 1]]}},
        )
        result = json.loads(out)["result"]
        assert result["two_fiber_order"] == 5
        assert result["presentation"]["abelian"]["order"] == 5

    def test_seifert_pi1_infinite_order(self, capsys, monkeypatch):
        # {0; (2,1), (2,-1)} is S^2 x S^1: both orders are written "infinite"
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["seifert-pi1"],
            {"seifert": {"fibers": [[2, 1], [2, -1]]}},
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["two_fiber_order"] == "infinite"
        assert result["presentation"]["abelian"]["order"] == "infinite"
        assert result["presentation"]["abelian"]["free_rank"] == 1

    def test_seifert_pi1_refuses_huge_fiber_order(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            monkeypatch,
            ["seifert-pi1"],
            {"seifert": {"fibers": [[4611686018427387905, 1], [2, 1]]}},
        )
        assert code == 1
        assert out == ""
        assert "4611686018427387919 relator letters" in err and "Traceback" not in err

    def test_classify_refuses_huge_spur_beta(self, capsys, monkeypatch):
        edges = [
            {"loop": 0, "order": 2},
            {"between": [0, 1], "order": 5, "beta": 4611686018427387907},
        ]
        code, out, err = run_cli(
            capsys, monkeypatch, ["classify"], {"graph": {"vertices": 2, "edges": edges}}
        )
        assert code == 1
        assert out == ""
        assert "4611686018427387914 relator letters" in err and "Traceback" not in err

    @pytest.mark.parametrize("count, expected", [(64, 0), (65, 1)])
    def test_seifert_pi1_fiber_budget(self, capsys, monkeypatch, count, expected):
        fibers = [[1, 0]] * count
        code, out, err = run_cli(
            capsys, monkeypatch, ["seifert-pi1"], {"seifert": {"fibers": fibers}}
        )
        assert code == expected
        if expected:
            assert out == ""
            assert err == "ValueError: presentation has 65 fibers, more than MAX_FIBERS = 64\n"

    @pytest.mark.parametrize("count, expected", [(64, 0), (65, 1)])
    @pytest.mark.parametrize("command", ["canon", "euler", "equiv"])
    def test_invariant_budget(self, capsys, monkeypatch, command, count, expected):
        entries = [str(k) for k in range(count)]
        payload = (
            {"left": entries, "right": entries} if command == "equiv" else {"invariants": entries}
        )
        code, out, err = run_cli(capsys, monkeypatch, [command], payload)
        assert code == expected
        if expected:
            assert out == ""
            assert err.startswith("payload rejected by schema: ") and err.count("\n") == 1

    def test_seifert_recognize(self, capsys, monkeypatch):
        _, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["seifert-recognize"],
            {"seifert": {"fibers": [[2, 1], [2, -1]]}},
        )
        assert json.loads(out)["result"]["label"] == "S2xS1"

    def test_wcp_rejects_repeated_entries(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["wcp"], {"invariants": ["1/2", "1/2", "0"]}
        )
        assert code == 2
        assert json.loads(out)["result"]["tag"] == "pairwise-unequal"

    def test_extent_small_block(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["extent", "--samples", "80"],
            {"action": {"weights": [1, 1]}},
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["extent"]["q"] == 3
        assert result["extent"]["method"] == "exact"
        assert result["small"]["is_small"] is True

    def test_text_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["canon", "--format", "text"],
            {"invariants": ["0", "1/2"]},
        )
        assert code == 0
        assert "canonical:" in out
        assert "{" not in out


def readme_section(heading: str) -> str:
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    return readme.read_text().split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_command_set_is_named_once():
    from x4circle.serialize import SCHEMAS

    subparsers = next(
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    section = readme_section("Command line")
    documented = re.findall(r"^\| `([a-z0-9-]+)` *\|", section, flags=re.MULTILINE)
    assert len(documented) == 9
    assert list(subparsers.choices) == list(SCHEMAS) == documented


def test_every_rejection_tag_is_documented():
    from x4circle import classifier

    tags = {value for name, value in vars(classifier).items() if name.startswith("TAG_")}
    section = readme_section("Rejection tags")
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
    documented = [tag for tag, _ in rows]
    assert len(documented) == len(tags) == 11
    assert set(documented) == tags
    assert {tag for tag, commands in rows if "`wcp`" in commands} == {
        classifier.TAG_PAIRWISE_UNEQUAL
    }


# -- fuzzing the exact-algebra commands ---------------------------------------

BIG = 2**62
big_ints = st.integers(min_value=-BIG, max_value=BIG)
# small and moderate values, where the algebra does real work, and the extremes
ints = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-1000, max_value=1000),
    big_ints,
    st.sampled_from([-BIG, -BIG + 1, BIG - 1, BIG]),
)
positive = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=BIG),
    st.sampled_from([BIG - 1, BIG]),
)
# numerators of 2000-4300 digits still parse, but weights built from them can
# pass Python's 4300-digit limit on int-to-string conversion, so some reports
# fail only when they are written out
huge = st.builds(
    lambda digits, lead, tail: lead * 10 ** (digits - 1) + tail,
    st.one_of(st.integers(min_value=2000, max_value=4300), st.just(4300)),
    st.sampled_from([-9, -1, 1, 9]),
    st.integers(min_value=0, max_value=BIG),
)
rationals = st.builds(
    lambda p, q: f"{p}/{q}" if q != 1 else str(p), st.one_of(ints, huge), positive
)
rational_lists = st.lists(rationals, min_size=0, max_size=5)
orders = st.one_of(positive, ints)  # mostly valid, sometimes not
fibers = st.lists(st.tuples(orders, ints).map(list), max_size=6)
seifert = st.fixed_dictionaries(
    {"fibers": fibers}, optional={"trivial_fibration": st.booleans()}
)
edges = st.lists(
    st.fixed_dictionaries(
        {"order": orders},
        optional={
            "between": st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
            "loop": st.integers(min_value=0, max_value=3),
            "free_curve": st.just(True),
            "beta": ints,
            "virtual": st.booleans(),
        },
    ),
    max_size=4,
)
graph = st.fixed_dictionaries(
    {"vertices": st.one_of(st.integers(min_value=0, max_value=4), big_ints), "edges": edges},
    optional={
        "boundary_fixed_set": st.booleans(),
        "soul_isotropy": st.one_of(ints, st.just("circle")),
    },
)
ALGEBRA_REQUESTS = st.one_of(
    st.tuples(st.just("canon"), st.fixed_dictionaries({"invariants": rational_lists})),
    st.tuples(
        st.just("equiv"),
        st.fixed_dictionaries({"left": rational_lists, "right": rational_lists}),
    ),
    st.tuples(st.just("euler"), st.fixed_dictionaries({"invariants": rational_lists})),
    st.tuples(st.just("seifert-pi1"), st.fixed_dictionaries({"seifert": seifert})),
    st.tuples(st.just("seifert-recognize"), st.fixed_dictionaries({"seifert": seifert})),
    st.tuples(
        st.just("wcp"),
        st.fixed_dictionaries({"invariants": st.lists(rationals, min_size=2, max_size=4)}),
    ),
    st.tuples(
        st.just("classify"),
        st.fixed_dictionaries(
            {"graph": graph},
            optional={"invariants": st.lists(rationals, min_size=3, max_size=3)},
        ),
    ),
)


@given(ALGEBRA_REQUESTS)
@settings(max_examples=300, deadline=None)
def test_algebra_commands_never_crash(request):
    # every input ends in an exit code; an uncaught exception fails the test
    command, payload = request
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@given(
    st.sampled_from(["canon", "equiv", "euler", "seifert-pi1", "seifert-recognize", "wcp",
                     "classify"]),
    st.binary(max_size=64),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_arbitrary_input_bytes_never_crash(tmp_path_factory, command, data):
    path = tmp_path_factory.mktemp("payload") / "payload.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", str(path)])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- fuzzing the lab commands ---------------------------------------------------

weights_5 = st.integers(min_value=-5, max_value=5).filter(bool)
LAB_REQUESTS = st.tuples(
    st.sampled_from(["extent", "check-q"]),
    st.tuples(weights_5, weights_5).filter(lambda w: gcd(*w) == 1),
    st.sampled_from(
        ["trivial", "cyclic:2", "cyclic:3", "binary-dihedral:2", "binary-dihedral:3"]
    ),
    st.integers(min_value=0, max_value=9),
)


@given(LAB_REQUESTS)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_lab_commands_never_crash(request):
    # a group that does not commute with the circle is refused with exit 1
    command, weights, gamma, seed = request
    payload = {"action": {"weights": list(weights), "gamma": gamma}}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--samples", "50", "--seed", str(seed)])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
