"""End-to-end tests of the command-line front end and its exit codes."""

import io
import json
import sys

import pytest

from x4circle import cli


def run_cli(capsys, monkeypatch, argv, payload=None):
    """Invoke main() with an optional stdin payload; returns (code, out, err)."""
    if payload is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        monkeypatch.setitem(cli._HANDLERS, "canon", bomb)
        code, out, err = run_cli(
            capsys, monkeypatch, ["canon"], {"invariants": ["1/2"]}
        )
        assert code == 1
        assert out == ""
        assert "schema" in err

    def test_malformed_json_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        assert cli.main(["canon"]) == 1

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

    def test_non_convergence_exits_three(self, capsys, monkeypatch):
        import x4circle.extent_lab as lab

        def fail(spec, tol=0.02):
            raise lab.ConvergenceError("drift exceeded")

        monkeypatch.setattr(lab, "check_condition_qprime", fail)
        code, out, err = run_cli(
            capsys, monkeypatch, ["check-q"], {"action": {"weights": [1, 1]}}
        )
        assert code == 3
        assert out == ""
        assert "ConvergenceError" in err

    def test_exception_mapping(self):
        from x4circle.extent_lab import ConvergenceError, GraphDisconnectedError

        assert cli._exception_code(ConvergenceError("x")) == 3
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


class TestThreadCap:
    def test_x4_threads_applied(self, capsys, monkeypatch):
        for var in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("X4_THREADS", "2")
        run_cli(capsys, monkeypatch, ["canon"], {"invariants": ["0", "1"]})
        import os

        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_bad_x4_threads_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("X4_THREADS", "zero")
        code, _, err = run_cli(capsys, monkeypatch, ["canon"], {"invariants": ["0", "1"]})
        assert code == 0
        assert "X4_THREADS" in err
