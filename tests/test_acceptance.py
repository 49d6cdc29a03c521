"""Acceptance gate.

One test per shipped guarantee.  Each test ends by printing a single PASS
line with the measured quantity and its limit; the line bypasses pytest
capture so it is always visible.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import runpy
import time
from importlib import resources
from pathlib import Path

import pytest

from gallai.canonical import canonical_form
from gallai.cli import main
from gallai.constructions import build_named, construction_grid, r35_witness
from gallai.detectors import find_mono_copy_in_color, find_rainbow_path
from gallai.formulas import evaluate
from gallai.graphs import ColoredComplete, TargetGraph, parse_hspec
from gallai.search import _class_table, compute_gr, rainbow_p5free_classes, verify_witness
from gallai.structure import classify_p4free, classify_p5free, enumerate_p5free

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def report(capfd):
    def _report(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _report


def _random_coloring(rng: random.Random, n: int, k: int) -> ColoredComplete:
    m = n * (n - 1) // 2
    return ColoredComplete(n, k, tuple(rng.randint(1, k) for _ in range(m)))


def test_criterion_1_small_exact_thresholds(report):
    """Five thresholds pinned by downward search at n_max=8, under 5 minutes."""
    cases = (
        ("S4^1", 4, 6),
        ("S4^1", 5, 5),
        ("S4^1", 6, 5),
        ("S5^1", 4, 6),
        ("S5^1", 5, 6),
    )
    start = time.monotonic()
    for spec, k, want in cases:
        result = compute_gr(parse_hspec(spec), k, n_max=8)
        assert result.status == "exact", (spec, k, result.status)
        assert result.value == want, (spec, k, result.value, want)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        f"PASS criterion 1: thresholds (6,5,5,6,6) reproduced exactly "
        f"in {elapsed:.1f}s (limit 300s)"
    )


def test_criterion_2_enumerator_equals_oracle(report):
    """Structured enumeration and brute-force filtering agree class for
    class at order 5 with 4, 5 and 6 colors."""
    counts = []
    for k in (4, 5, 6):
        got = {canonical_form(c) for c in enumerate_p5free(5, k)}
        want = rainbow_p5free_classes(5, k)
        assert got == want, (k, len(got), len(want))
        counts.append(len(got))
    report(
        f"PASS criterion 2: enumerator matches brute-force oracle at n = 5, "
        f"{counts} classes at k = 4, 5, 6, zero tolerance"
    )


ORDER_FORMULAS = {
    "G1": lambda p: 4,
    "G2": lambda p: 4,
    "G3": lambda p: p["t"],
    "G4": lambda p: (p["a"] - 1) * (p["t"] - 1),
    "G5": lambda p: p["t"],
    "G6": lambda p: p["max_degree"] + 1,
    "F1": lambda p: p["t"] + (p["t"] - 2) // 2 - 2,
    "F2": lambda p: p["t"],
    "F3": lambda p: 5,
    "F4": lambda p: (3 * p["t"] - 7) // 2,
    "F5": lambda p: p["t"] + 2 * p["r"] - 3,
    "F6": lambda p: (3 * p["t"] - 6) // 2,
    "F7": lambda p: 5 * (p["t"] - 1),
    "F9": lambda p: 4,
    "F10": lambda p: 4,
    "F11": lambda p: 5,
    "F12": lambda p: 23,
    "F13": lambda p: 25,
}


def test_criterion_3_witness_grid(report):
    """Every grid construction verifies and matches its order formula."""
    rows = construction_grid()
    for entry in rows:
        name, params = entry["name"], entry["params"]
        coloring = build_named(name, params)
        want = ORDER_FORMULAS[name](params)
        assert coloring.n == entry["order"] == want, (name, params, coloring.n)
        verify_witness(coloring, parse_hspec(entry["target"]), label=name)
    report(
        f"PASS criterion 3: {len(rows)}/{len(rows)} grid constructions verified, "
        f"all order formulas match"
    )


def test_criterion_4_structure_conformance(report):
    """Seeded random colorings: classification is nonempty exactly when the
    rainbow path is absent; the classifiers cross-check internally."""
    rng = random.Random(48122)
    for _ in range(10_000):
        c = _random_coloring(rng, rng.randint(5, 9), rng.randint(2, 8))
        assert bool(classify_p5free(c).cases) == (find_rainbow_path(c, 4) is None)
    rng = random.Random(48123)
    for _ in range(10_000):
        c = _random_coloring(rng, rng.randint(4, 8), rng.randint(2, 8))
        assert (classify_p4free(c).case is not None) == (
            find_rainbow_path(c, 3) is None
        )
    report(
        "PASS criterion 4: 10000 four-edge and 10000 three-edge classifications "
        "conform, zero violations"
    )


def test_criterion_5_value_table_fidelity(report):
    """The shipped value table regenerates byte for byte from the sweep
    manifest, by ``scripts/reproduce_values.py``, the one writer of the
    table.  Rows beyond search reach (e.g. K5 at k=5, PA7,5 at k=4) are
    covered here plus by their lower-bound witnesses in criterion 3."""
    text = runpy.run_path(str(SCRIPTS / "reproduce_values.py"))["golden_text"]()
    assert text.encode() == resources.files("gallai").joinpath("data/eval_golden.txt").read_bytes()
    report(f"PASS criterion 5: {len(text.splitlines())} table rows byte-identical to golden file")


def test_criterion_6_two_color_ramsey_witness(report):
    """13-vertex 2-coloring with no color-1 triangle and no color-2 K5."""
    start = time.monotonic()
    c = r35_witness()
    assert c.n == 13 and c.k == 2
    assert find_mono_copy_in_color(c, TargetGraph.complete(3), 1) is None
    assert find_mono_copy_in_color(c, TargetGraph.complete(5), 2) is None
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(
        f"PASS criterion 6: 13-vertex witness verified in {elapsed * 1000.0:.0f}ms "
        f"(limit 1000ms)"
    )


def test_criterion_7_cross_rule_sweep(report):
    """Every rule pair that can fire together agrees, across the full grid."""
    start = time.monotonic()
    targets = []
    for t in range(3, 13):
        targets.append(TargetGraph.complete(t))
        targets.append(TargetGraph.complete_minus_matching(t))
        for r in range(0, (t - 1) // 2 + 1):
            targets.append(TargetGraph.star_plus(t, r))
    for w in range(4, 9):
        for t in range(w + 1, 13):
            targets.append(TargetGraph.pineapple(t, w))
    evaluations = 0
    for H in targets:
        for k in range(3, 21):
            res = evaluate(H, k)  # FormulaInconsistency would propagate
            if res.kind == "Exact":
                assert res.lo == res.value == res.hi
            evaluations += 1
    elapsed = time.monotonic() - start
    assert evaluations == 1620
    assert elapsed < 60.0
    report(
        f"PASS criterion 7: {evaluations} evaluations, zero contradictions, "
        f"{elapsed:.2f}s (limit 60s)"
    )


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_criterion_8_run_independence(report):
    """Run independence: check and enumerate print the same bytes on a cold
    class table and on a warm one (the check's elapsed_ms masked)."""

    def outputs(n: int, k: int) -> tuple[tuple[int, str], tuple[int, str]]:
        code, out = _cli("check", "--H", "S4^1", "--k", str(k), "--n", str(n))
        masked = re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out)
        return (code, masked), _cli("enumerate", "--n", str(n), "--k", str(k))

    for n, k in ((5, 4), (5, 5)):
        _class_table.cache_clear()
        cold = outputs(n, k)
        assert outputs(n, k) == cold, (n, k)
        assert cold[1][1].count("\n") == len(enumerate_p5free(n, k)), (n, k)
    report(
        "PASS criterion 8: run independence, check and enumerate outputs "
        "identical on a cold class table and a warm one, on both oracle instances"
    )
