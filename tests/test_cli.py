"""End-to-end command tests, driven through main(argv) with captured streams."""

from __future__ import annotations

import io
import json
import sys
from importlib import resources

import pytest

from gallai.cli import (
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    format_table_row,
    format_value,
    main,
)
from gallai.constructions import sporadic
from gallai.formulas import GrResult, evaluate
from gallai.graphs import ColoredComplete, parse_hspec, render_hspec
from gallai.search import verify_witness
from gallai.structure import enumerate_p5free


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exact_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--H", "S4^1", "--k", "3")
        assert code == EXIT_OK
        assert out == '{"kind":"Exact","value":17,"provenance":["th3-6","le3-3"]}\n'

    def test_bounds_json_with_open_upper(self, capsys):
        code, out, _ = run(capsys, "eval", "--H", "K9-M", "--k", "4")
        assert code == EXIT_OK
        assert out == '{"kind":"Bounds","lo":33,"hi":null,"provenance":["lem2-1"]}\n'

    def test_unknown_exits_negative(self, capsys):
        code, out, _ = run(capsys, "eval", "--H", "S13^6", "--k", "4")
        assert code == EXIT_NEGATIVE
        assert out == '{"kind":"Unknown","provenance":[]}\n'

    def test_table_mode_matches_first_golden_row(self, capsys):
        golden = resources.files("gallai").joinpath("data/eval_golden.txt").read_text()
        code, out, _ = run(capsys, "eval", "--H", "S4^1", "--k", "3", "--mode", "table")
        assert code == EXIT_OK
        assert out == golden.splitlines()[0] + "\n"

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--H", "X7", "--k", "3")
        assert code == EXIT_USAGE
        assert "bad target spec" in err


class TestGoldenTable:
    def test_sweep_rows_match_golden_bytes(self):
        """Every row of the shipped value table regenerates byte for byte."""
        data = resources.files("gallai")
        golden = data.joinpath("data/eval_golden.txt").read_bytes()
        rows = []
        for line in data.joinpath("data/eval_sweep.txt").read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            spec, k = line.split()
            H = parse_hspec(spec)
            rows.append(format_table_row(render_hspec(H), int(k), evaluate(H, int(k))))
        assert ("\n".join(rows) + "\n").encode() == golden


class TestFormatHelpers:
    def test_value_rendering(self):
        assert format_value(GrResult.exact(17, ("th3-6",), ())) == "17"
        assert format_value(GrResult.bounds(3, 9, ("x",), ())) == "[3,9]"
        assert format_value(GrResult.bounds(3, None, ("x",), ())) == "[3,?]"
        assert format_value(GrResult.unknown()) == "?"

    def test_row_alignment(self):
        row = format_table_row("S4^1", 3, GrResult.exact(17, ("th3-6", "le3-3"), ()))
        assert row == "S4^1        3  17        th3-6,le3-3"


class TestWitness:
    def test_dispatch_then_replay_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "witness", "--H", "S4^1", "--k", "3")
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["label"] == "F7"
        assert cert["order"] == 15
        assert cert["rainbow_absent"] is True
        path = tmp_path / "cert.json"
        path.write_text(out)
        code2, out2, _ = run(capsys, "verify", "--file", str(path))
        assert code2 == EXIT_OK
        assert out2 == out

    def test_named_construction_with_params(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--H", "S5^1", "--construction", "G3", "--param", "t=5"
        )
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["label"] == "G3"
        assert cert["order"] == 5
        assert cert["target"] == "S5^1"

    def test_unknown_construction_name(self, capsys):
        """An unknown name, a missing or extra parameter and a parameter
        outside the builder's domain are usage errors, not negative answers."""
        for argv in (
            ("--construction", "Q9"),
            ("--construction", "G4"),
            ("--construction", "G1", "--param", "t=3"),
            ("--construction", "G3", "--param", "t=1"),
            ("--construction", "F7", "--param", "t=2"),
        ):
            code, out, err = run(capsys, "witness", "--H", "K3", *argv)
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        assert err.startswith("error: need t >= 3")

    def test_bad_param_syntax(self, capsys):
        code, _, err = run(
            capsys, "witness", "--H", "S5^1", "--construction", "G3", "--param", "t5"
        )
        assert code == EXIT_USAGE
        assert "key=value" in err

    def test_failed_verification(self, capsys):
        # every coloring has a single-color edge, so K2 can never be avoided
        code, _, err = run(capsys, "witness", "--H", "K2", "--construction", "G1")
        assert code == EXIT_NEGATIVE
        assert "verification failed" in err

    def test_no_construction_available(self, capsys):
        code, _, err = run(capsys, "witness", "--H", "K2", "--k", "4")
        assert code == EXIT_NEGATIVE
        assert "no known construction" in err

    def test_k_required_without_construction(self, capsys):
        code, _, err = run(capsys, "witness", "--H", "S4^1")
        assert code == EXIT_USAGE
        assert "--k is required" in err


class TestCheck:
    def test_all_good_order(self, capsys):
        code, out, _ = run(capsys, "check", "--H", "S4^1", "--k", "4", "--n", "6")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["query"] == {"target": "S4^1", "k": 4, "n": 6}
        assert report["status"] == "all-good"
        assert report["counts"]["examined"] >= 1
        assert "witness" not in report

    def test_bad_order_carries_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--H", "S4^1", "--k", "4", "--n", "5")
        assert code == EXIT_NEGATIVE
        report = json.loads(out)
        assert report["status"] == "bad"
        assert report["witness"]["order"] == 5
        assert report["witness"]["colors"] == 4

    def test_no_exact_colorings(self, capsys):
        code, out, _ = run(capsys, "check", "--H", "S4^1", "--k", "11", "--n", "5")
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["status"] == "no-exact-colorings"

    def test_thread_flag_does_not_change_report(self, capsys):
        _, base, _ = run(capsys, "check", "--H", "S4^1", "--k", "4", "--n", "5")
        _, single, _ = run(
            capsys, "check", "--H", "S4^1", "--k", "4", "--n", "5", "--threads", "1"
        )
        a, b = json.loads(base), json.loads(single)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b


class TestSearch:
    def test_exact_threshold(self, capsys):
        code, out, _ = run(capsys, "search", "--H", "S4^1", "--k", "5", "--n-max", "8")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["status"] == "exact"
        assert report["value"] == 5
        assert report["query"] == {"target": "S4^1", "k": 5, "n_max": 8}
        assert report["counts"]["orders_checked"] >= 2
        assert report["witness"]["order"] == 4

    def test_inconclusive_when_top_order_is_bad(self, capsys):
        code, out, _ = run(capsys, "search", "--H", "K9", "--k", "4", "--n-max", "6")
        assert code == EXIT_NEGATIVE
        report = json.loads(out)
        assert report["status"] == "inconclusive"
        assert report["value"] is None


class TestClassify:
    def test_file_mode(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(sporadic("F3").to_json_dict()))
        code, out, _ = run(capsys, "classify", "--file", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["rainbow"] is None
        assert report["cases"] == sorted(report["cases"])
        assert report["cases"]

    def test_stdin_mode(self, capsys, monkeypatch):
        payload = json.dumps(sporadic("F3").to_json_dict())
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "classify")
        assert code == EXIT_OK
        assert json.loads(out)["rainbow"] is None

    def test_rainbow_input_reports_embedding(self, capsys, tmp_path):
        c = ColoredComplete(5, 10, tuple(range(1, 11)))
        path = tmp_path / "rainbow.json"
        path.write_text(json.dumps(c.to_json_dict()))
        code, out, _ = run(capsys, "classify", "--file", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["cases"] == []
        assert len(report["rainbow"]["vertices"]) == 5

    def test_short_path_mode(self, capsys, tmp_path):
        path = tmp_path / "mono.json"
        path.write_text(json.dumps(ColoredComplete.constant(4, 1).to_json_dict()))
        code, out, _ = run(capsys, "classify", "--file", str(path), "--path-edges", "3")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["rainbow"] is None
        assert isinstance(report["case"], str)


class TestEnumerate:
    def test_stream_matches_library(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--k", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        reps = enumerate_p5free(5, 4)
        assert lines == [
            json.dumps(r.to_json_dict(), separators=(",", ":")) for r in reps
        ]
        assert len(lines) == 8

    def test_single_class_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--k", "5")
        assert code == EXIT_OK
        (line,) = out.splitlines()
        c = ColoredComplete.from_json_dict(json.loads(line))
        assert c.n == 5 and c.exact

    def test_thread_flag_does_not_change_stream(self, capsys):
        _, base, _ = run(capsys, "enumerate", "--n", "6", "--k", "4")
        _, single, _ = run(capsys, "enumerate", "--n", "6", "--k", "4", "--threads", "1")
        assert base == single


class TestVerify:
    def test_replay_from_stdin(self, capsys, monkeypatch):
        cert = verify_witness(sporadic("F3"), parse_hspec("S4^1"), label="F3")
        payload = json.dumps(cert.to_json_dict())
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert json.loads(out)["label"] == "F3"

    def test_retargeted_certificate_fails(self, capsys, tmp_path):
        cert = verify_witness(sporadic("F3"), parse_hspec("S4^1"))
        data = cert.to_json_dict()
        data["target"] = "K2"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_NEGATIVE
        assert "verification failed" in err

    def test_flattened_coloring_is_usage_error(self, capsys, tmp_path):
        cert = verify_witness(sporadic("F3"), parse_hspec("S4^1"))
        data = cert.to_json_dict()
        data["coloring"]["edges"] = [
            [i, j, 1] for i, j, _ in data["coloring"]["edges"]
        ]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_USAGE
        assert "error:" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("verify",), "{}"),
            (("classify",), "[]"),
            (("classify", "--file", "MISSING"), None),
            (("eval", "--H", '{"order":4}', "--k", "4"), None),
        ],
        ids=["verify-empty-object", "classify-list", "classify-missing-file", "eval-no-edges"],
    )
    def test_malformed_input_is_usage_error(self, capsys, monkeypatch, tmp_path, argv, stdin):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_subcommand(self, capsys):
        assert run(capsys, *[])[0] == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "eval", "--H", "K5")[0] == EXIT_USAGE


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "PASS constructions",
            "PASS enumeration",
            "PASS classifier",
        ]

    def test_theorem_violation_is_a_fail_line(self, capsys, monkeypatch):
        """A disagreement between the classifier and the rainbow detector is
        reported as a failed suite, and the later suites still run."""
        monkeypatch.setattr("gallai.structure.find_rainbow_path", lambda c, m: None)
        code, out, err = run(capsys, "selftest")
        assert code == EXIT_NEGATIVE
        lines = out.splitlines()
        assert lines[:3] == ["PASS constructions", "PASS enumeration", "FAIL classifier"]
        assert len(lines) == 4 and lines[3].startswith("  cases ")
        assert err == ""
