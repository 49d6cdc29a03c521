"""End-to-end command tests, driven through main(argv) with captured streams."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
import time
from collections import Counter
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from gallai.cli import (
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    format_table_row,
    format_value,
    main,
)
from gallai import cli, constructions, detectors, graphs
from gallai.constructions import BUILDERS, construction_grid, sporadic
from gallai.formulas import KIND_BOUNDS, KIND_EXACT, GrResult, evaluate
from gallai.graphs import ColoredComplete, parse_hspec, render_hspec
from gallai.search import replay_certificate, verify_witness
from gallai.structure import enumerate_p5free, p5free_classes
from golden import assert_rows


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

    def test_huge_target_needs_no_edge_list(self, capsys):
        """Edge counts are closed forms, so a target far beyond any coloring
        order is still answered, at once."""
        start = time.monotonic()
        code, out, _ = run(capsys, "eval", "--H", "K100000", "--k", "4")
        assert time.monotonic() - start < 1.0
        assert code == EXIT_OK
        assert out == '{"kind":"Bounds","lo":9999800002,"hi":null,"provenance":["lem2-1"]}\n'

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--H", "X7", "--k", "3")
        assert code == EXIT_USAGE
        assert "bad target spec" in err

    @pytest.mark.parametrize("c", ["10", "inf", "nan", "-inf", "-1e6"])
    def test_unusable_constant_is_usage_error(self, capsys, c):
        """A c that is not finite, overflows th4-7 or pushes its bound
        below the proven lower bound 31 is the caller's input error."""
        code, out, err = run(capsys, "eval", "--H", "PA7,6", "--k", "5", f"--c={c}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: bad --c: ") and err.count("\n") == 1

    @pytest.mark.parametrize("c", ["-1e-3", "-1", "0.5", "1e-2"])
    def test_constant_after_a_space_reads_as_with_equals(self, capsys, c):
        """A negative value in exponent notation looks like an option to
        argparse; ``--c VALUE`` still reads it as ``--c=VALUE`` does."""
        joined = run(capsys, "eval", "--H", "PA7,6", "--k", "5", f"--c={c}")
        spaced = run(capsys, "eval", "--H", "PA7,6", "--k", "5", "--c", c)
        assert spaced == joined
        assert spaced[0] == EXIT_OK and spaced[1].startswith('{"kind":"Bounds","lo":31,')

    @pytest.mark.parametrize("c", ["-1e6", "-inf"])
    def test_unusable_constant_after_a_space(self, capsys, c):
        code, out, err = run(capsys, "eval", "--H", "PA7,6", "--k", "5", "--c", c)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: bad --c: ") and err.count("\n") == 1

    def test_constant_needs_a_value(self, capsys):
        code, out, err = run(capsys, "eval", "--H", "PA7,6", "--c", "--k", "5")
        assert code == EXIT_USAGE
        assert out == "" and "expected one argument" in err

    @pytest.mark.parametrize("c, hi", [("-1", 3385), ("0.01", 270)])
    def test_usable_constant_bounds(self, capsys, c, hi):
        code, out, _ = run(capsys, "eval", "--H", "PA7,6", "--k", "5", f"--c={c}")
        assert code == EXIT_OK
        assert out == (
            f'{{"kind":"Bounds","lo":31,"hi":{hi},"provenance":["lem2-1","cor4-4","th4-7"]}}\n'
        )


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
        assert format_value(GrResult(KIND_EXACT, 17, 17, ("th3-6",), ())) == "17"
        assert format_value(GrResult(KIND_BOUNDS, 3, 9, ("x",), ())) == "[3,9]"
        assert format_value(GrResult(KIND_BOUNDS, 3, None, ("x",), ())) == "[3,?]"
        assert format_value(GrResult.unknown()) == "?"

    def test_row_alignment(self):
        row = format_table_row("S4^1", 3, GrResult(KIND_EXACT, 17, 17, ("th3-6", "le3-3"), ()))
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
        code, out, err = run(capsys, "witness", "--H", "K3", "--construction", "G99")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unknown construction 'G99'\n"

    def test_duplicate_param_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "witness", "--H", "K3", "--construction", "G5",
            "--param", "t=5", "--param", "k=4", "--param", "t=6",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: duplicate --param t\n"

    def test_bad_param_syntax(self, capsys):
        code, _, err = run(
            capsys, "witness", "--H", "S5^1", "--construction", "G3", "--param", "t5"
        )
        assert code == EXIT_USAGE
        assert "key=value" in err

    @pytest.mark.parametrize("param", ["t=abc", "t=", "t=1.5"])
    def test_non_integer_param_names_itself(self, capsys, param):
        code, out, err = run(
            capsys, "witness", "--H", "K3", "--construction", "G5",
            "--param", param, "--param", "k=3",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: bad --param {param!r}, expected an integer value\n"

    def test_failed_verification(self, capsys):
        # every coloring has a single-color edge, so K2 can never be avoided
        code, _, err = run(capsys, "witness", "--H", "K2", "--construction", "G1")
        assert code == EXIT_NEGATIVE
        assert "verification failed" in err

    def test_failed_verification_prints_the_copy(self, capsys):
        """The stderr line names the copy found by its repr."""
        code, out, err = run(
            capsys, "witness", "--H", "K3", "--construction", "G3", "--param", "t=5"
        )
        assert (code, out) == (EXIT_NEGATIVE, "")
        assert err == (
            "verification failed: monochromatic copy in color 1: Embedding(kind='mono_copy', "
            "vertices=(0, 1, 2), color=1, edges=((0, 1), (0, 2), (1, 2)))\n"
        )

    def test_no_construction_available(self, capsys):
        code, _, err = run(capsys, "witness", "--H", "K2", "--k", "4")
        assert code == EXIT_NEGATIVE
        assert "no known construction" in err

    def test_k_required_without_construction(self, capsys):
        code, _, err = run(capsys, "witness", "--H", "S4^1")
        assert code == EXIT_USAGE
        assert "one of the arguments --k --construction is required" in err

    def test_k_and_construction_exclude_each_other(self, capsys):
        code, out, err = run(
            capsys, "witness", "--H", "S4^1", "--construction", "F3", "--k", "4"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "not allowed with argument" in err

    def test_param_without_construction_is_usage_error(self, capsys):
        """``--param`` only parameterizes ``--construction``; with ``--k`` it
        is refused rather than ignored."""
        code, out, err = run(capsys, "witness", "--H", "K3", "--k", "3", "--param", "t=5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --param needs --construction\n"

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_is_usage_error(self, capsys, k):
        code, out, err = run(capsys, "witness", "--H", "K3", "--k", k)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: need k >= 1, got k={k}\n"


def _inline(order, edges):
    return json.dumps({"order": order, "edges": [list(e) for e in edges]}, separators=(",", ":"))


# Dispatcher queries whose monochromatic-copy searches finish only with
# twin pruning: (target, k, label and order of the answer).
TWIN_PRUNED_QUERIES = [
    ("K8-M", 4, "G4", 21),
    ("K9-M", 4, "G4", 32),
    ("K12-M", 4, "G4", 55),
    ("K12-M", 12, "G3", 12),
    (_inline(12, [(i, (i + 1) % 12) for i in range(12)]), 4, "G5", 12),
    (_inline(10, [(2 * i, 2 * i + 1) for i in range(5)]), 5, "G5", 10),
    (_inline(12, [(2 * i, 2 * i + 1) for i in range(6)]), 5, "G5", 12),
    ("S28^7", 4, "F5", 39),
    ("S36^9", 4, "F5", 51),
    ("S40^10", 4, "F5", 57),
]


class TestSearchBudget:
    @pytest.mark.parametrize(
        ("spec", "k", "label", "order"),
        TWIN_PRUNED_QUERIES,
        ids=["K8-M", "K9-M", "K12-M", "K12-M-k12", "C12", "5K2", "6K2"]
        + ["S28^7", "S36^9", "S40^10"],
    )
    def test_witness_answers_and_replays(self, capsys, tmp_path, spec, k, label, order):
        code, out, err = run(capsys, "witness", "--H", spec, "--k", str(k))
        assert (code, err) == (EXIT_OK, "")
        cert = json.loads(out)
        assert (cert["label"], cert["order"]) == (label, order)
        path = tmp_path / "cert.json"
        path.write_text(out)
        assert run(capsys, "verify", "--file", str(path)) == (EXIT_OK, out, "")

    def test_search_over_budget_is_refused(self, capsys, tmp_path):
        """A 2-coloring of K20: color 1 a seeded random bipartite graph
        between {0..9} and {10..19}, every other edge color 2.  Color 1 has
        no odd cycle, but no degree count or twin class shows that it holds
        no 11-cycle, so the search for one passes the budget (it needs about
        two million nodes to finish)."""
        rng = random.Random(1)
        triples = [
            (a, b, 1 if a < 10 <= b and rng.random() < 0.5 else 2)
            for a, b in itertools.combinations(range(20), 2)
        ]
        data = {
            "coloring": ColoredComplete.from_edge_triples(20, 2, triples).to_json_dict(),
            "target": _inline(11, [(i, (i + 1) % 11) for i in range(11)]),
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: the search for a monochromatic copy passed its budget of "
            f"{graphs.MAX_SEARCH_NODES} nodes in one color class\n"
        )

    def test_clique_search_over_budget_is_refused(self, capsys, tmp_path):
        """A seeded random 2-coloring of K600 checked for K14: the clique
        search counts its nodes against the same budget."""
        rng = random.Random(5)
        colors = [rng.randint(1, 2) for _ in range(600 * 599 // 2)]
        data = {"coloring": ColoredComplete(600, 2, colors).to_json_dict(), "target": "K14"}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: the search for a monochromatic copy passed its budget of "
            f"{graphs.MAX_SEARCH_NODES} nodes in one color class\n"
        )


class TestSearchNodeCounts:
    """Node counts, not timings, of the monochromatic-copy searches over the
    benchmark's certify job list: every grid row's witness and the replay
    of its certificate, then every eval-sweep query through ``eval`` and the
    witness dispatcher.  Each command starts on an empty construction
    table, as in a fresh process: the r35 self-checks inside the F12 and
    F13 builds are 8 of the clique calls and 144 of the nodes, and the
    counts do not depend on which tests ran before."""

    def test_certify_job_list(self, capsys, monkeypatch):
        counts = Counter()
        clique = detectors.find_clique
        matching = detectors._matching_with_pairs

        def counted_clique(state, start, size):
            before = state.left
            try:
                return clique(state, start, size)
            finally:
                counts["clique calls"] += 1
                counts["clique nodes"] += before - state.left

        def counted_matching(*args):
            counts["matching calls"] += 1
            return matching(*args)

        monkeypatch.setattr(detectors, "find_clique", counted_clique)
        monkeypatch.setattr(detectors, "_matching_with_pairs", counted_matching)

        def fresh_run(*argv: str) -> tuple[int, str, str]:
            constructions._built.cache_clear()
            return run(capsys, *argv)

        for row in construction_grid():
            argv = ["witness", "--H", row["target"], "--construction", row["name"]]
            for key, value in row["params"].items():
                argv += ["--param", f"{key}={value}"]
            code, out, _ = fresh_run(*argv)
            assert code == EXIT_OK
            replay_certificate(json.loads(out))
        sweep = resources.files("gallai").joinpath("data/eval_sweep.txt").read_text()
        for line in sweep.splitlines():
            if line.strip() and not line.startswith("#"):
                spec, k = line.split()
                fresh_run("eval", "--H", spec, "--k", k, "--mode", "table")
                fresh_run("witness", "--H", spec, "--k", k)
        # before the clique side skipped twins and failed centres: 652 clique
        # calls, 2,378 clique nodes and 422 matching calls
        assert counts == {"clique calls": 306, "clique nodes": 526, "matching calls": 152}

    def test_search_job_list(self, capsys, monkeypatch):
        """The benchmark's twelve search jobs, five ``search`` and seven
        ``check --n 9`` commands, on a warm class table: every
        ``find_mono_copy_in_color`` call builds one state, 392 in all; 63
        of them build their twin table, and they visit 835 nodes, at most 23
        in one state.  With the degree counts that once cut the K_t search
        and the generic search's first position, 60 tables were built and
        814 nodes visited, at most 13 in one state."""
        c5 = '{"order":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'
        searches = (("S4^1", "4"), ("S4^1", "5"), ("S4^1", "6"), ("S5^1", "4"), ("S5^1", "5"))
        checks = (
            ("S5^1", "4"), ("K5", "4"), ("PA6,5", "4"), ("K6-M", "4"), (c5, "4"),
            ("S4^1", "5"), ("S4^1", "6"),
        )
        jobs = [("search", "--H", spec, "--k", k, "--n-max", "8") for spec, k in searches]
        jobs += [("check", "--H", spec, "--k", k, "--n", "9") for spec, k in checks]
        for argv in jobs:
            assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_NEGATIVE)
        built = []

        class Counted(graphs.SearchState):
            def __init__(self, masks):
                super().__init__(masks)
                built.append(self)

        monkeypatch.setattr(detectors, "SearchState", Counted)
        for argv in jobs:
            run(capsys, *argv)
        nodes = [graphs.MAX_SEARCH_NODES - state.left for state in built]
        twin_tables = sum(state._twins is not None for state in built)
        assert (len(built), twin_tables, sum(nodes), max(nodes)) == (392, 63, 835, 23)


# check, search and enumerate, the commands that once took ``--threads``
_ONCE_THREADED = (
    ("check", "--H", "S4^1", "--k", "4", "--n", "6"),
    ("search", "--H", "S4^1", "--k", "4", "--n-max", "6"),
    ("enumerate", "--n", "5", "--k", "4"),
)


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

    def test_order_one_has_no_exact_colorings(self, capsys):
        code, out, _ = run(capsys, "check", "--H", "S4^1", "--k", "4", "--n", "1")
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["status"] == "no-exact-colorings"

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_order_below_one_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "check", "--H", "S4^1", "--k", "4", "--n", n)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: need n >= 1, got n={n}\n"

    @pytest.mark.parametrize("argv", _ONCE_THREADED, ids=lambda argv: argv[0])
    def test_threads_flag_is_an_unrecognized_argument(self, capsys, argv):
        """No command takes a thread count: ``--threads`` is refused as any
        unknown option is, before the command runs."""
        code, out, err = run(capsys, *argv, "--threads", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("gallai: error: unrecognized arguments: --threads 1\n")

    @staticmethod
    def _ignores_environment(capsys, monkeypatch, argv):
        """With GALLAI_THREADS set to a value no count could have, ``argv``
        answers as without it."""

        def answer():
            code, out, err = run(capsys, *argv)
            return code, re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out), err

        monkeypatch.delenv("GALLAI_THREADS", raising=False)
        want = answer()
        assert want[0] == EXIT_OK
        monkeypatch.setenv("GALLAI_THREADS", "abc")
        assert answer() == want

    @pytest.mark.parametrize("argv", _ONCE_THREADED, ids=lambda argv: argv[0])
    def test_thread_commands_ignore_the_environment(self, capsys, monkeypatch, argv):
        """No command reads a thread count from the environment either."""
        self._ignores_environment(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("command", ["eval", "witness", "verify", "classify"])
    def test_commands_without_threads_ignore_the_environment(
        self, capsys, monkeypatch, tmp_path, command
    ):
        coloring = tmp_path / "coloring.json"
        coloring.write_text(json.dumps(sporadic("F3").to_json_dict()))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(verify_witness(sporadic("F3"), parse_hspec("S4^1")).to_json_dict()))
        argv = {
            "eval": ("eval", "--H", "S4^1", "--k", "3"),
            "witness": ("witness", "--H", "S4^1", "--k", "4"),
            "verify": ("verify", "--file", str(cert)),
            "classify": ("classify", "--file", str(coloring)),
        }[command]
        self._ignores_environment(capsys, monkeypatch, argv)


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


@pytest.mark.parametrize(
    "argv, has_witness",
    [
        (("check", "--H", "S4^1", "--k", "4", "--n", "6"), False),
        (("check", "--H", "S4^1", "--k", "4", "--n", "5"), True),
        (("check", "--H", '{"order":4,"edges":[[0,1],[0,2],[1,2],[0,3]]}', "--k", "4", "--n", "5"), True),
        (("search", "--H", "S4^1", "--k", "5", "--n-max", "8"), True),
        (("search", "--H", "K9", "--k", "4", "--n-max", "6"), True),
        (("search", "--H", "K3", "--k", "4", "--n-max", "2"), False),
    ],
)
def test_report_is_the_dumped_report_dict(capsys, monkeypatch, argv, has_witness):
    """check and search print ``_dumps`` of the report dict that carries the
    witness's ``to_json_dict`` as its last key, when there is a witness."""
    seen = []
    written = cli._report_json

    def recorded(report, witness):
        seen.append((report, witness))
        return written(report, witness)

    monkeypatch.setattr(cli, "_report_json", recorded)
    _, out, _ = run(capsys, *argv)
    [(report, witness)] = seen
    assert (witness is not None) == has_witness
    if witness is not None:
        report = {**report, "witness": witness.to_json_dict()}
    assert out == cli._dumps(report) + "\n"


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

    @pytest.mark.parametrize(
        "edges",
        [[[0, 1, 0], [0, 1, 1]], [[0, 1, 0]], [[0, 1, 5]]],
        ids=["color-0-then-named-again", "lone-color-0", "above-palette"],
    )
    def test_off_palette_color_exits_usage(self, capsys, tmp_path, edges):
        """A color outside 1..k in a coloring file is a usage error naming
        the color, whatever else the file holds."""
        rest = [[i, j, 1] for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)]
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps({"n": 5, "k": 4, "edges": edges + rest}))
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: edge color {edges[0][2]} outside 1..4\n"

    def test_theorem_violation_exits_internal(self, capsys, monkeypatch, tmp_path):
        """A case predicate contradicting the rainbow detector is an
        internal error (exit 3, one stderr line), never a negative answer."""
        monkeypatch.setattr("gallai.structure._CASES", (("b", lambda host: True),))
        c = ColoredComplete(5, 10, tuple(range(1, 11)))
        path = tmp_path / "rainbow.json"
        path.write_text(json.dumps(c.to_json_dict()))
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == (
            "internal error: TheoremViolation: cases ['b'] vs rainbow "
            "Embedding(kind='rainbow_path', vertices=(3, 1, 0, 2, 4), color=None, "
            "edges=((1, 3), (0, 1), (0, 2), (2, 4))) disagree on "
            "ColoredComplete(n=5, k=10, colors=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))\n"
        )

    def test_corpus_digest(self, monkeypatch):
        """Exit code, stdout and stderr of ``classify`` at both path lengths
        on every host of ``_classify_corpus``: the golden rows recorded
        before the case predicates ran their cheapest test first and the
        reports became tuples."""
        rows = []
        codes = Counter()
        for host, c in enumerate(_classify_corpus()):
            payload = c.to_json()
            for edges in ("3", "4"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["classify", "--path-edges", edges])
                codes[edges, code] += 1
                answer = [code, out.getvalue(), err.getvalue()]
                rows.append((f"{host} {edges}", json.dumps(answer, separators=(",", ":"))))
        assert codes == _CORPUS_CODES
        assert_rows("corpus", rows)


    @pytest.mark.parametrize(
        "path",
        [(0, 1, 2, 3, 0), (0, 1, 2, 3, 7), (0, 1, 2, 3, 4)],
        ids=["repeated-vertex", "not-an-edge", "repeated-color"],
    )
    def test_failed_reverification_exits_internal(self, capsys, monkeypatch, tmp_path, path):
        """A scan result that is no rainbow path of the host is an internal
        error (exit 3, one stderr line), never an answer."""
        monkeypatch.setattr("gallai.detectors._rainbow_path", lambda c, m: path)
        c = ColoredComplete(5, 10, tuple(range(1, 11))).recolored(2, 3, 1)
        path_file = tmp_path / "host.json"
        path_file.write_text(json.dumps(c.to_json_dict()))
        code, out, err = run(capsys, "classify", "--file", str(path_file))
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == f"internal error: RuntimeError: rainbow path {path} failed re-verification\n"

    def test_failed_mono_reverification_exits_internal(self, capsys, monkeypatch, tmp_path):
        """A clique search result outside the host is an internal error
        (exit 3, one stderr line), never a usage error."""
        monkeypatch.setattr(
            "gallai.detectors.find_clique", lambda state, start, size: [2, 3, 5]
        )
        data = {"coloring": ColoredComplete.constant(5, 1).to_json_dict(), "target": "K3"}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == (
            "internal error: RuntimeError: monochromatic copy (2, 3, 5) in color 1 "
            "failed re-verification\n"
        )


def _classify_corpus():
    """300 seeded colorings of order 4..8 with 1..8 colors, and every class
    of ``p5free_classes`` for n 5..7 and k 4..5, as it is and with one edge
    recolored."""
    rng = random.Random(4181)
    for _ in range(300):
        n, k = rng.randint(4, 8), rng.randint(1, 8)
        yield ColoredComplete(n, k, [rng.randint(1, k) for _ in range(graphs.edge_count(n))])
    for n in range(5, 8):
        for k in (4, 5):
            for c in p5free_classes(n, k):
                yield c
                yield c.recolored(*rng.sample(range(n), 2), rng.randint(1, k))


# (--path-edges, exit code): runs; n = 4 is refused at 4 edges.
_CORPUS_CODES = {("3", 0): 386, ("4", 0): 326, ("4", 2): 60}


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of main(argv), for tests that run it many
    times under hypothesis (capsys does not reset between examples)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 0),
    st.sampled_from([1.5, float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
)


@st.composite
def _coloring_documents(draw):
    """A small coloring, valid or broken in one of the ways a hand-written
    file can be: wrong edge count, color 0 or above k, a non-integer field,
    or no JSON object at all."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 9))
    edges = [[i, j, draw(st.integers(1, k))] for i in range(n) for j in range(i + 1, n)]
    flaw = draw(st.sampled_from(
        ["none", "drop", "extra", "color0", "color_big", "junk_color", "junk_n", "junk_k", "not_object"]
    ))
    if flaw == "drop" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif flaw == "extra":
        edges.append([0, max(n - 1, 1), 1])
    elif flaw in ("color0", "color_big", "junk_color") and edges:
        bad = {"color0": 0, "color_big": k + draw(st.integers(1, 3)), "junk_color": draw(_JUNK)}[flaw]
        edges[draw(st.integers(0, len(edges) - 1))][2] = bad
    doc = {"n": n, "k": k, "edges": edges}
    if flaw == "junk_n":
        doc["n"] = draw(_JUNK)
    elif flaw == "junk_k":
        doc["k"] = draw(_JUNK)
    elif flaw == "not_object":
        return draw(st.one_of(st.just(edges), _JUNK))
    return doc


class TestClassifyFuzz:
    @settings(max_examples=200, deadline=None)
    @given(doc=_coloring_documents(), path_edges=st.sampled_from([None, "3"]))
    @example(doc={"n": -3, "k": 2, "edges": []}, path_edges=None)
    @example(doc={"n": 5, "k": float("inf"), "edges": []}, path_edges="3")
    def test_classify_answers_or_refuses(self, doc, path_edges):
        """Every small or malformed coloring file is classified (exit 0) or
        refused as a usage error (exit 2), never with a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "coloring.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = ["classify", "--file", path]
            if path_edges is not None:
                argv += ["--path-edges", path_edges]
            code, err = _run_quietly(argv)
        assert code in (EXIT_OK, EXIT_USAGE), err
        assert "Traceback" not in err


_SIZE = st.one_of(st.integers(0, 12), st.sampled_from([10**6, 10**20]))
_JSON_NUMBER = st.one_of(
    st.integers(-1, 6), st.booleans(), st.sampled_from([0.5, 2.0, 3.5, 10**20])
)


@st.composite
def _target_specs(draw):
    """A target spec from the K / S^r / PA / K-M grammar with small, zero or
    huge parameters, or inline JSON whose numbers may be floats or bools."""
    form = draw(st.sampled_from(["K", "S", "PA", "K-M", "json"]))
    t, p = draw(_SIZE), draw(_SIZE)
    if form == "K":
        return f"K{t}"
    if form == "S":
        return f"S{t}^{p}"
    if form == "PA":
        return f"PA{t},{p}"
    if form == "K-M":
        return f"K{t}-M"
    edges = draw(st.lists(st.lists(_JSON_NUMBER, min_size=2, max_size=2), max_size=4))
    return json.dumps({"order": draw(_JSON_NUMBER), "edges": edges})


@st.composite
def _exact_colorings(draw):
    """A coloring that uses every color of its palette, as JSON."""
    n = draw(st.integers(2, 9))
    size = n * (n - 1) // 2
    k = draw(st.integers(1, min(size, 5)))
    colors = [draw(st.integers(1, k)) for _ in range(size)]
    colors[:k] = range(1, k + 1)
    return ColoredComplete(n, k, colors).to_json_dict()


_CERT_TARGETS = st.sampled_from([
    "K3", "S4^1", "PA5,3", "K4-M", "K100000", '{"order":3,"edges":[[0,1]]}',
    "X7", "", "K0", "S3^2", '{"order":2.5,"edges":[]}', "{", None, 5, ["K3"],
])


class TestEvalVerifyFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=_target_specs(),
        k=st.integers(-3, 40),
        c=st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
        mode=st.sampled_from(["json", "table"]),
    )
    @example(spec="PA7,6", k=5, c=10.0, mode="json")
    @example(spec="PA1000000,999999", k=5, c=1.0, mode="json")
    def test_eval_answers_or_refuses(self, spec, k, c, mode):
        argv = ["eval", "--H", spec, "--k", str(k), "--mode", mode]
        if c is not None:
            argv.append(f"--c={c}")
        code, err = _run_quietly(argv)
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE), err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(
        doc=st.one_of(_coloring_documents(), _exact_colorings()),
        target=_CERT_TARGETS,
        label=st.one_of(st.none(), _JUNK),
    )
    def test_verify_answers_or_refuses(self, doc, target, label):
        cert = {"label": label, "coloring": doc, "target": target}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "certificate.json")
            with open(path, "w") as fh:
                json.dump(cert, fh)
            code, err = _run_quietly(["verify", "--file", path])
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE), err
        assert "Traceback" not in err


_TARGETS = st.one_of(
    st.sampled_from(["K3", "K4", "S4^1", "S5^1", "PA5,3", "K4-M", '{"order":3,"edges":[[0,1]]}']),
    st.sampled_from(["X7", "", "K0", "S3^2", "PA3,3", "K100000", '{"order":2.5,"edges":[]}', "{"]),
)
_PARAMS = st.one_of(
    st.builds(
        "{}={}".format, st.sampled_from(["t", "k", "a", "r", "max_degree"]), st.integers(2, 7)
    ),
    st.builds(
        "{}={}".format,
        st.sampled_from(["t", "k", "x", ""]),
        st.sampled_from(["-1", "0", "", "x", "1.5", "=3"]),
    ),
    st.sampled_from(["t", "=", "t5", "k==4"]),
)


class TestWitnessCheckFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        target=_TARGETS,
        k=st.one_of(st.none(), st.integers(1, 6)),
        construction=st.one_of(st.none(), st.sampled_from(sorted(BUILDERS) + ["Q9", ""])),
        params=st.lists(_PARAMS, max_size=3),
    )
    @example(target="S6^1", k=None, construction="G5", params=["t=6", "k=5"])
    @example(target="K3", k=None, construction="G4", params=["a=7", "t=7", "k=7"])
    def test_witness_answers_or_refuses(self, target, k, construction, params):
        argv = ["witness", "--H", target]
        if k is not None:
            argv += ["--k", str(k)]
        if construction is not None:
            argv += ["--construction", construction]
        for item in params:
            argv += ["--param", item]
        code, err = _run_quietly(argv)
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE), err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(
        target=_TARGETS,
        k=st.integers(1, 6),
        n=st.integers(1, 7),
    )
    @example(target="K4", k=4, n=7)
    def test_check_answers_or_refuses(self, target, k, n):
        code, err = _run_quietly(["check", "--H", target, "--k", str(k), "--n", str(n)])
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE), err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("label", [["F3"], 3, True], ids=["list", "number", "true"])
    def test_non_string_label_is_usage_error(self, capsys, tmp_path, label):
        data = verify_witness(sporadic("F3"), parse_hspec("S4^1")).to_json_dict()
        data["label"] = label
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: certificate label must be a string or null")
        assert err.count("\n") == 1

    def test_nan_label_is_usage_error(self, capsys, tmp_path):
        """A label that is not even JSON once printed is refused, not echoed."""
        data = verify_witness(sporadic("F3"), parse_hspec("S4^1")).to_json_dict()
        data["label"] = [float("nan"), {"a": 1}]
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")

    @pytest.mark.parametrize("label", ["F3", None], ids=["string", "null"])
    def test_string_or_null_label_replays_unchanged(self, capsys, tmp_path, label):
        out = json.dumps(
            verify_witness(sporadic("F3"), parse_hspec("S4^1"), label=label).to_json_dict(),
            separators=(",", ":"),
        ) + "\n"
        path = tmp_path / "cert.json"
        path.write_text(out)
        assert run(capsys, "verify", "--file", str(path)) == (EXIT_OK, out, "")

    @pytest.mark.parametrize(
        "field, value, replay",
        [
            ("order", 999, "10"),
            ("colors", 7, "3"),
            ("mono_absent", [], "[1, 2, 3]"),
            ("rainbow_absent", False, "true"),
            ("order", 10.0, "10"),
            ("colors", 3.0, "3"),
            ("mono_absent", [1, 2, 3.0], "[1, 2, 3]"),
            ("rainbow_absent", 1, "true"),
        ],
        ids=[
            "order", "colors", "mono_absent", "rainbow_absent",
            "order-float", "colors-float", "mono_absent-float", "rainbow_absent-int",
        ],
    )
    def test_tampered_stated_field_fails(self, capsys, tmp_path, field, value, replay):
        """A stated field the replay does not reproduce, value and JSON type
        alike, is a failed verification, reported in one line that quotes
        both values as JSON."""
        code, out, _ = run(capsys, "witness", "--H", "K3", "--k", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        data[field] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (EXIT_NEGATIVE, "")
        assert err == (
            f"verification failed: certificate states {field} {json.dumps(value)}, "
            f"replay gives {replay}\n"
        )

    @pytest.mark.parametrize(
        "tamper, message",
        [
            ("wider", "witness must use all 4 colors, found 3"),
            ("flattened", "witness must use all 3 colors, found 1"),
        ],
        ids=["wider", "flattened"],
    )
    def test_inexact_coloring_fails_verification(self, capsys, tmp_path, tamper, message):
        """A well-formed coloring that leaves a palette color unused is a
        false claim, like one holding a monochromatic copy: exit 1 with one
        ``verification failed:`` line, not a usage error."""
        code, out, _ = run(capsys, "witness", "--H", "K3", "--k", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        if tamper == "wider":
            data["coloring"]["k"] += 1
        else:
            data["coloring"]["edges"] = [[i, j, 1] for i, j, _ in data["coloring"]["edges"]]
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "verify", "--file", str(path)) == (
            EXIT_NEGATIVE, "", f"verification failed: {message}\n"
        )


# Nested deeper than the JSON decoder goes: malformed input, not a crash.
_DEEP_SPEC = '{"order":2,"edges":' + "[" * 3000 + "]" * 3000 + "}"


class TestUsage:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("verify",), "{}"),
            (("classify",), "[]"),
            (("classify", "--file", "MISSING"), None),
            (("eval", "--H", '{"order":4}', "--k", "4"), None),
            (("classify",), "[" * 200_000),
            (("verify",), "[" * 200_000),
            (("verify",), json.dumps({"coloring": ColoredComplete.constant(5, 1).to_json_dict(),
                                      "target": _DEEP_SPEC})),
            (("eval", "--H", _DEEP_SPEC, "--k", "4"), None),
            (("check", "--H", _DEEP_SPEC, "--k", "4", "--n", "5"), None),
            (("witness", "--H", _DEEP_SPEC, "--k", "4"), None),
        ],
        ids=["verify-empty-object", "classify-list", "classify-missing-file", "eval-no-edges",
             "classify-deep", "verify-deep", "verify-deep-target", "eval-deep", "check-deep",
             "witness-deep"],
    )
    def test_malformed_input_is_usage_error(self, capsys, monkeypatch, tmp_path, argv, stdin):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("n", 5.9), ("k", True), ("vertex", "3"), ("endpoint", 4.7)],
    )
    def test_non_integer_json_number_is_usage_error(self, capsys, tmp_path, field, value):
        """JSON numbers are taken as they are: a float, a boolean or a
        string where an integer belongs is refused, not truncated."""
        doc = ColoredComplete.constant(5, 1).to_json_dict()
        if field in ("n", "k"):
            doc[field] = value
        else:
            doc["edges"][-1][0 if field == "vertex" else 1] = value
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "spec",
        ["X" * 5000, "[" * 5000, '{"order": "' + "a" * 5000 + '", "edges": [[0, 1]]}',
         '{"order": 2, "edges": [[0, ' + "9" * 5000 + "]]}"],
        ids=["garbage", "brackets", "long-order", "long-endpoint"],
    )
    def test_long_spec_gives_one_short_line(self, capsys, spec):
        """A spec of 5,000 characters or more is named by its first
        characters and its length: one short error line, exit 2."""
        code, out, err = run(capsys, "eval", "--H", spec, "--k", "4")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: bad target spec") and err.count("\n") == 1
        assert len(err) < 300, err

    def test_non_integer_target_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--H", '{"order": 3.5, "edges": [[0, 1]]}', "--k", "4")
        assert code == EXIT_USAGE
        assert err.startswith("error: bad target spec")

    def test_order_cap_refuses_quickly(self, capsys, tmp_path):
        """A coloring order or palette beyond MAX_COLORING_ORDER, read,
        built or asked of the dispatcher, is a usage error raised before
        anything of that size is allocated."""
        huge = {"n": 10**9, "k": 2, "edges": []}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge))
        cert = tmp_path / "huge-cert.json"
        cert.write_text(json.dumps({"coloring": huge, "target": "K3"}))
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"n": 5, "k": 10**9, "edges": []}))
        order_cap = "error: colorings are limited to n <= 1024"
        for argv, prefix in (
            (("classify", "--file", str(path)), order_cap),
            (("verify", "--file", str(cert)), order_cap),
            (("witness", "--H", "K3", "--construction", "G5", "--param", "t=3000", "--param", "k=4"), order_cap),
            (("witness", "--H", "K3", "--construction", "G4", "--param", "a=1000000", "--param", "t=3", "--param", "k=4"), order_cap),
            (("witness", "--H", "K3", "--construction", "G6", "--param", "max_degree=1000000", "--param", "k=500000"), order_cap),
            (("witness", "--H", "K3", "--construction", "F5", "--param", "t=1000000", "--param", "r=3"), order_cap),
            (("witness", "--H", "K3", "--construction", "F7", "--param", "t=1000000"), order_cap),
            (("witness", "--H", "K3", "--construction", "F1", "--param", "t=1000000"), order_cap),
            (("witness", "--H", "K3", "--construction", "F6", "--param", "t=1000000"), order_cap),
            (("witness", "--H", "K3", "--construction", "F4", "--param", "t=1000001"), order_cap),
            (("witness", "--H", "K100000", "--k", "4"), order_cap),
            (("witness", "--H", "PA100000,50000", "--k", "4"), order_cap),
            (("classify", "--file", str(wide)), "error: palettes are limited to k <= 1024"),
        ):
            start = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert time.monotonic() - start < 1.0, argv
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert err.startswith(prefix), err
            assert err.count("\n") == 1

    def test_missing_subcommand(self, capsys):
        assert run(capsys, *[])[0] == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "eval", "--H", "K5")[0] == EXIT_USAGE

    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path):
        """A reader that went away (``gallai ... | head``) is no negative
        answer: exit 2, no traceback, and stdout now points at the null
        device so the final flush cannot fail again."""

        class ClosedPipe(io.StringIO):
            def __init__(self, fd: int):
                super().__init__()
                self.fd = fd

            def write(self, text: str) -> int:
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self) -> int:
                return self.fd

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            code = main(["eval", "--H", "S4^1", "--k", "3"])
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ""


# Argument lists whose parse prints or fails, or that turn on an argparse
# rule: abbreviations, ``=`` forms, negative numbers and ``--``.
_USAGE_CORPUS = (
    [],
    ["-h"],
    ["--help"],
    ["-h", "eval"],
    ["nope"],
    ["nope", "--H", "K5"],
    ["--", "eval", "--H", "K5", "--k", "4"],
    ["eval"],
    ["eval", "--H"],
    ["eval", "--H", "K5", "--k"],
    ["eval", "--H", "K5", "--k", "four"],
    ["eval", "--H", "K5", "--k", "4", "--mode", "xml"],
    ["eval", "--H", "K5", "--k", "4", "--bogus"],
    ["eval", "--H", "K5", "--k", "4", "stray"],
    ["eval", "stray", "--H", "K5", "--k", "4", "--bogus", "x"],
    ["eval", "-h"],
    ["eval", "--H", "K5", "--k", "4", "-h"],
    ["eval", "--h"],
    ["witness", "--help"],
    ["selftest", "-h"],
    ["eval", "--H", "K5", "--k", "4", "--mo", "table"],
    ["eval", "--H=K5", "--k=4"],
    ["eval", "--H", "K5", "--k", "4", "--c", "-1e-3"],
    ["eval", "--H", "K5", "--k", "4", "--c", "-inf"],
    ["eval", "--", "--H", "K5", "--k", "4"],
    ["eval", "--H", "K5", "--k", "4", "--"],
    ["eval", "--H", "K5", "--", "--k", "4"],
    ["witness", "--H", "S4^1", "--construction", "F3", "--param"],
    ["witness", "--H", "S4^1", "--k", "3", "--construction", "F3"],
    ["witness", "--H", "S4^1"],
    ["check", "--H", "K3", "--k", "4"],
    ["check", "--H", "K3", "--k", "4", "--n", "5", "--threads", "1"],
    ["search", "--H", "K3", "--k", "4", "--n-max", "x"],
    ["search", "--H", "K3", "--k", "4", "--n-max", "5", "--threads", "1"],
    ["classify", "--path-edges", "5"],
    ["enumerate", "--n", "4", "--k", "3", "--threads", "0"],
    ["selftest", "extra"],
)


class TestCommandParser:
    @pytest.mark.parametrize("argv", _USAGE_CORPUS, ids=" ".join)
    def test_same_bytes_as_full_parse(self, capsys, monkeypatch, argv):
        """``main`` hands the arguments after a command name to that
        command's parser; with no command parser to hand them to, it parses
        with ``build_parser().parse_args``.  Both give the same exit code,
        stdout and stderr."""
        got = run(capsys, *argv)
        parser = build_parser()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert got == run(capsys, *argv)


class TestParserReuse:
    CALLS = (
        ["witness", "--H", "S6^1", "--construction", "G5", "--param", "t=6", "--param", "k=5"],
        # No parameter of the call before may carry over: F3 takes none.
        ["witness", "--H", "S4^1", "--construction", "F3"],
        ["witness", "--H", "S4^1", "--construction", "F3", "--param"],
        ["eval", "--help"],
    )

    @staticmethod
    def _first_call(argv: list[str]) -> tuple[int, str, str]:
        cli._parsers.cache_clear()
        constructions._built.cache_clear()
        return TestParserReuse._call(argv)

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_answer_as_first_calls(self):
        want = [self._first_call(argv) for argv in self.CALLS]
        assert [code for code, _, _ in want] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert json.loads(want[1][1])["label"] == "F3"
        assert want[3][1].startswith("usage: gallai eval")
        cli._parsers.cache_clear()
        constructions._built.cache_clear()
        got = [self._call(argv) for argv in self.CALLS + self.CALLS]
        assert got == want + want


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "PASS constructions",
            "PASS enumeration",
            "PASS classifier",
        ]

    def test_classifier_suite_reaches_a_five_color_b_host(self, capsys, monkeypatch):
        """The classifier suite checks a case-(b) host with five colors,
        where the color count alone rules out (a), (d), (e) and (f)."""
        reports = []
        classify = cli.classify_p5free
        monkeypatch.setattr(
            cli, "classify_p5free", lambda c: reports.append((c, classify(c))) or reports[-1][1]
        )
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK and out.endswith("PASS classifier\n")
        five_b = [c for c, rep in reports if "b" in rep.cases and len(c.used_colors) >= 5]
        assert [c.n for c in five_b] == [8]

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
