"""Rule engine: single rules, combination, provenance, and the grid sweep."""

from __future__ import annotations

import collections
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from gallai import formulas
from gallai.formulas import (
    TH4_7_MAX_OMEGA,
    ConstantOutOfRange,
    FormulaInconsistency,
    GrResult,
    RamseyEntry,
    builtin_ramsey_table,
    evaluate,
    min_order_with_pair_count,
    ramsey_known,
)
from gallai.graphs import TargetGraph, UnsupportedSizeError, parse_hspec, render_hspec
from golden import assert_rows


def inject(monkeypatch, *rows: RamseyEntry) -> None:
    """Put ``rows`` ahead of the shipped Ramsey table for one test."""
    shipped = builtin_ramsey_table()
    monkeypatch.setattr(formulas, "builtin_ramsey_table", lambda: rows + shipped)


class TestHelpers:
    @given(st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_min_order_is_tight(self, k):
        """C(v,2) >= k and C(v-1,2) < k."""
        v = min_order_with_pair_count(k)
        assert math.comb(v, 2) >= k
        assert math.comb(v - 1, 2) < k

    def test_min_order_small_values(self):
        assert [min_order_with_pair_count(k) for k in (1, 2, 3, 4, 6, 7, 10, 11)] == [
            2, 3, 3, 4, 4, 5, 5, 6,
        ]

    def test_min_order_property_over_report_range(self):
        for k in range(7, 201):
            v = min_order_with_pair_count(k)
            assert math.comb(v, 2) >= k > math.comb(v - 1, 2)


class TestRamseyTable:
    def test_builtin_rows(self):
        table = builtin_ramsey_table()
        assert len(table) == 4
        entry = ramsey_known(
            [TargetGraph.complete(3), TargetGraph.complete(5)], 2
        )
        assert entry is not None and entry.lo == entry.hi == 14
        assert entry.citation == "le3-3"

    def test_pattern_order_irrelevant(self):
        a = ramsey_known([TargetGraph.complete(5), TargetGraph.complete(3)], 2)
        b = ramsey_known([TargetGraph.complete(3), TargetGraph.complete(5)], 2)
        assert a == b

    def test_three_color_star_rows(self):
        for spec, value in (("S4^1", 17), ("S5^1", 21), ("S6^1", 26)):
            entry = ramsey_known(parse_hspec(spec), 3)
            assert entry is not None and entry.lo == entry.hi == value

    def test_derived_three_color_interval(self, monkeypatch):
        """With the 2-color value injected, the 3-color interval follows:
        lo = max(5t-4, 2 R - 1), hi = 3 R + 6r - 6."""
        H = parse_hspec("S7^1")
        inject(monkeypatch, RamseyEntry(("S7^1",), 2, 13, 13, "injected"))
        entry = ramsey_known(H, 3)
        assert entry is not None
        assert entry.citation == "le3-4"
        assert entry.lo == max(5 * 7 - 4, 2 * 13 - 1)
        assert entry.hi == 3 * 13 + 6 * 1 - 6

    def test_derived_absent_without_two_color_value(self):
        assert ramsey_known(parse_hspec("S7^1"), 3) is None

    def test_pineapple_two_color_needs_constant(self):
        H = parse_hspec("PA8,6")
        assert ramsey_known(H, 2) is None
        entry = ramsey_known(H, 2, c=0.1)
        assert entry is not None and entry.citation == "th4-7"
        w, t = 6, 8
        want_hi = math.floor(
            math.comb(2 * w - 2, w - 1) * math.exp(-0.1 * math.log(w - 1) ** 2)
        ) + (t - 2) * (w - 1)
        assert (entry.lo, entry.hi) == (t, want_hi)


class TestSingleRules:
    def test_many_colors_gives_minimal_order(self):
        res = evaluate(TargetGraph.complete(3), 7)
        assert res.kind == "Exact" and res.value == 5
        assert "th2-1" in res.provenance

    def test_five_or_six_colors_small_target(self):
        res = evaluate(TargetGraph.complete(3), 5)
        assert (res.kind, res.value) == ("Exact", 5)
        assert "th2-2-1" in res.provenance

    def test_k_equals_t_noncomplete(self):
        res = evaluate(parse_hspec("S5^1"), 5)
        assert (res.kind, res.value) == ("Exact", 6)
        assert "th2-2" in res.provenance

    def test_k_equals_t_complete(self):
        res = evaluate(TargetGraph.complete(6), 6)
        assert (res.kind, res.value) == ("Exact", 26)
        assert res.provenance == ("th2-4", "coro2-4")

    def test_complete_minus_matching_window(self):
        res = evaluate(parse_hspec("K8-M"), 5)
        assert (res.kind, res.value) == ("Exact", 9)  # max(N_5, t+1) = 9
        assert res.provenance == ("th2-5",)

    def test_two_color_window_bounds_via_injected_table(self, monkeypatch):
        """5 <= k <= t-1 with the 2-color value known exactly."""
        # K9-M at k=7 sits in both windows; the exact rule wins and the
        # injected interval is merely consistency-checked
        H = parse_hspec("K9-M")
        inject(
            monkeypatch,
            RamseyEntry(("K9-M",), 2, 40, 40, "injected"),
            RamseyEntry(("PA9,8",), 2, 60, 60, "injected"),
        )
        res7 = evaluate(H, 7)
        assert (res7.kind, res7.value) == ("Exact", 10)
        assert res7.provenance == ("th2-5",)
        # K9-M at k=5 is below the exact window, so only bounds remain
        res5 = evaluate(H, 5)
        assert res5.kind == "Bounds"
        assert "th2-6" in res5.provenance and "injected" in res5.provenance
        assert res5.hi == 40
        assert res5.lo == 4 * 8 + 1  # clique rule dominates the low side
        # pineapple window where three bound rules intersect
        res = evaluate(parse_hspec("PA9,8"), 5)
        assert res.kind == "Bounds"
        assert "th2-6" in res.provenance and "cor4-4" in res.provenance
        assert res.hi == 60
        assert res.lo == 7 * 8 + 1

    def test_clique_lower_bound_when_nothing_else_fires(self):
        res = evaluate(TargetGraph.complete(7), 4)
        assert res.kind == "Bounds"
        assert res.lo == 6 * 6 + 1
        assert res.hi is None
        assert res.provenance == ("lem2-1",)

    def test_star_plus_window_k5_up(self):
        res = evaluate(parse_hspec("S8^2"), 5)
        p = (8 - 2) // 3
        assert (res.kind, res.value) == ("Exact", max(8 + p - 1, 9))
        assert "th3-1" in res.provenance

    def test_star_plus_k4_formula(self):
        res = evaluate(parse_hspec("S8^1"), 4)
        assert (res.kind, res.value) == ("Exact", 10)
        assert res.provenance == ("th3-2", "co3-1", "th3-9")

    def test_small_star_lemmas(self):
        assert evaluate(parse_hspec("S4^1"), 4).value == 6
        assert evaluate(parse_hspec("S5^1"), 4).value == 6
        assert "le3-1" in evaluate(parse_hspec("S4^1"), 4).provenance
        assert "le3-2" in evaluate(parse_hspec("S5^1"), 4).provenance

    def test_large_r_odd_t(self):
        low = evaluate(parse_hspec("S13^3"), 4)
        assert (low.kind, low.value) == ("Exact", (3 * 13 - 5) // 2)
        assert low.provenance == ("th3-4",)
        high = evaluate(parse_hspec("S13^5"), 4)
        assert (high.kind, high.value) == ("Exact", 13 + 10 - 2)

    def test_large_r_even_t(self):
        low = evaluate(parse_hspec("S12^3"), 4)
        assert (low.kind, low.value) == ("Exact", (3 * 12 - 4) // 2)
        assert low.provenance == ("th3-5",)
        high = evaluate(parse_hspec("S12^5"), 4)
        assert (high.kind, high.value) == ("Exact", 12 + 10 - 2)

    def test_fan_case_is_open(self):
        """r = (t-1)/2 at k=4 is outside every piecewise window."""
        res = evaluate(parse_hspec("S13^6"), 4)
        assert res.kind == "Unknown"

    def test_small_star_k3_values(self):
        assert evaluate(parse_hspec("S4^1"), 3).value == 17
        assert evaluate(parse_hspec("S5^1"), 3).value == 21
        assert evaluate(parse_hspec("S6^1"), 3).value == 26
        assert evaluate(parse_hspec("S4^1"), 3).provenance == ("th3-6", "le3-3")

    def test_general_star_k3_interval(self):
        res = evaluate(parse_hspec("S7^1"), 3)
        assert res.kind == "Bounds"
        assert res.lo == 5 * 7 - 4
        assert res.hi is None
        assert res.provenance == ("th3-9", "le3-4")

    def test_general_star_k3_with_injected_two_color(self, monkeypatch):
        inject(monkeypatch, RamseyEntry(("S7^1",), 2, 13, 13, "injected"))
        res = evaluate(parse_hspec("S7^1"), 3)
        assert res.kind == "Bounds"
        assert res.lo == max(31, 25) and res.hi == 39 - 6 + 6 * 1 - 6 + 6  # 3*13
        assert res.hi == 3 * 13 + 6 * 1 - 6

    def test_pineapple_diagonal(self):
        res = evaluate(parse_hspec("PA7,5"), 5)
        assert (res.kind, res.value) == ("Exact", 4 * 6 + 1)
        assert res.provenance == ("th4-1",)

    def test_pineapple_k4_large_t(self):
        res = evaluate(parse_hspec("PA9,5"), 4)
        assert (res.kind, res.value) == ("Exact", 4 * 9 - 3)
        assert res.provenance == ("th4-2",)

    def test_pineapple_sporadics(self):
        assert evaluate(parse_hspec("PA6,5"), 4).value == 24
        assert evaluate(parse_hspec("PA7,5"), 4).value == 26

    def test_pineapple_wide_clique_bounds(self):
        res = evaluate(parse_hspec("PA8,6"), 4)
        assert res.kind == "Bounds"
        assert res.lo == 5 * 7 + 1
        assert res.hi is None
        res_c = evaluate(parse_hspec("PA8,6"), 4, c=0.01)
        assert res_c.hi is not None
        assert "th4-5" in res_c.provenance and "th4-7" in res_c.provenance

    def test_pineapple_mid_k_bounds(self):
        res = evaluate(parse_hspec("PA8,6"), 5, c=0.01)
        assert res.kind == "Bounds"
        assert "cor4-4" in res.provenance
        two = ramsey_known(parse_hspec("PA8,6"), 2, c=0.01)
        assert res.hi == two.hi


class TestLiteralSmallRow:
    def test_small_row_value(self):
        """The t=5, r=2, k=4 row evaluates to 6 by the published table."""
        res = evaluate(parse_hspec("S5^2"), 4)
        assert (res.kind, res.value) == ("Exact", 6)
        assert res.provenance == ("co3-1",)

    def test_small_row_has_counterexample(self):
        """A 6-vertex coloring built from three pairwise-disjoint perfect
        matchings on one 4-set plus a dominant color avoids both a rainbow
        4-edge path and a monochromatic S5^2, so the true threshold at this
        row exceeds the published 6.  Kept as a certified discrepancy."""
        from gallai.detectors import find_mono_copy, find_rainbow_path
        from gallai.graphs import ColoredComplete

        special = {
            (0, 1): 2, (2, 3): 2,
            (0, 2): 3, (1, 3): 3,
            (0, 3): 4, (1, 2): 4,
        }
        triples = []
        for i in range(6):
            for j in range(i + 1, 6):
                triples.append((i, j, special.get((i, j), 1)))
        c = ColoredComplete.from_edge_triples(6, 4, triples)
        assert c.exact
        assert find_rainbow_path(c, 4) is None
        assert find_mono_copy(c, parse_hspec("S5^2")) is None


class TestCombination:
    def test_exact_beats_bounds_in_provenance(self):
        res = evaluate(parse_hspec("S6^1"), 3)
        # th3-9 contributes only an interval here; the exact row wins
        assert res.provenance == ("th3-8", "le3-3")
        assert res.value == 26

    def test_agreeing_exact_rules_all_cited(self):
        res = evaluate(parse_hspec("S6^1"), 4)
        assert res.provenance == ("th3-2", "co3-1", "th3-8", "th3-9")

    def test_unknown_when_nothing_applies(self):
        res = evaluate(TargetGraph.complete(9), 3)
        assert res.kind == "Unknown"
        assert res.provenance == ()

    def test_exact_respects_surrounding_bounds(self):
        """Exact values sit inside every applicable interval (checked
        internally; a violation would raise)."""
        res = evaluate(parse_hspec("PA5,4"), 4)
        assert res.value == 3 * 4 + 1

    def test_json_shapes(self):
        exact = evaluate(parse_hspec("S4^1"), 3).to_json_dict()
        assert exact == {
            "kind": "Exact",
            "value": 17,
            "provenance": ["th3-6", "le3-3"],
        }
        bounds = evaluate(parse_hspec("S7^1"), 3).to_json_dict()
        assert bounds == {
            "kind": "Bounds",
            "lo": 31,
            "hi": None,
            "provenance": ["th3-9", "le3-4"],
        }
        unknown = evaluate(TargetGraph.complete(9), 3).to_json_dict()
        assert unknown == {"kind": "Unknown", "provenance": []}

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            evaluate(TargetGraph.complete(3), 0)


class TestConstant:
    """A c the th4-7 bound cannot use is a ValueError (tested through the
    CLI), while a crossing of rules that c does not enter stays an
    inconsistency."""

    def test_crossing_with_c_is_constant_out_of_range(self):
        """At c = 10 the th4-7 bound for PA7,6 is 25, below cor4-4's 31."""
        with pytest.raises(ConstantOutOfRange, match="th4-7 upper bound 25"):
            evaluate(parse_hspec("PA7,6"), 5, c=10)

    def test_crossing_without_c_is_inconsistency(self, monkeypatch):
        inject(monkeypatch, RamseyEntry(("PA7,6",), 2, 7, 20, "injected"))
        with pytest.raises(FormulaInconsistency):
            evaluate(parse_hspec("PA7,6"), 5, c=0.01)

    def test_omega_cap(self):
        w = TH4_7_MAX_OMEGA
        assert ramsey_known(TargetGraph.pineapple(w + 1, w), 2, c=1.0) is not None
        with pytest.raises(UnsupportedSizeError):
            ramsey_known(TargetGraph.pineapple(w + 2, w + 1), 2, c=1.0)


class TestGridSweep:
    def test_no_rule_contradictions_anywhere(self):
        """Full hypothesis grid: every (H, k) evaluates without raising, and
        exact results satisfy lo <= value <= hi for their own intervals."""
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
                res = evaluate(H, k)
                evaluations += 1
                if res.kind == "Exact":
                    assert res.lo == res.hi == res.value
                elif res.kind == "Bounds":
                    assert res.lo is not None
                    assert res.hi is None or res.lo <= res.hi
                    assert res.provenance
                else:
                    assert res.provenance == ()
        assert evaluations == 1620

    def test_lower_bound_never_exceeds_any_exact(self):
        """Where the clique lower bound and an exact rule coexist, the bound
        is honored (would raise otherwise); verified over the diagonal."""
        for w in range(4, 8):
            for t in range(w + 1, 11):
                res = evaluate(TargetGraph.pineapple(t, w), w)
                assert res.value == (w - 1) * (t - 1) + 1


class TestEvaluateOutputs:
    @staticmethod
    def _targets() -> list[TargetGraph]:
        targets = [TargetGraph.complete(t) for t in range(2, 21)]
        targets += [TargetGraph.complete_minus_matching(t) for t in range(2, 21)]
        targets += [
            TargetGraph.star_plus(t, r) for t in range(2, 21) for r in range((t - 1) // 2 + 1)
        ]
        targets += [TargetGraph.pineapple(t, w) for w in range(2, 12) for t in range(w + 1, 21)]
        targets.append(parse_hspec('{"order":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'))
        targets.append(parse_hspec('{"order":3,"edges":[]}'))
        return targets

    @staticmethod
    def _answer(H: TargetGraph, k: int, c: float | None) -> list:
        try:
            res = evaluate(H, k, c=c)
        except (ConstantOutOfRange, UnsupportedSizeError) as exc:
            return [c, type(exc).__name__, str(exc)]
        return [
            c, res.kind, res.value, res.lo, res.hi, list(res.provenance), list(res.assumptions),
        ]

    def test_every_answer_is_pinned(self):
        """Every answer, assumptions and refusals included, over 21,300
        queries plus the th4-7 size refusal: one golden row per target and
        k, holding the answers at c = None, 0.5 and 10.0."""
        rows = [
            (f"{render_hspec(H)} {k}", [self._answer(H, k, c) for c in (None, 0.5, 10.0)])
            for H in self._targets()
            for k in range(1, 26)
        ]
        kinds = collections.Counter(answer[1] for _, three in rows for answer in three)
        assert kinds == {
            "Exact": 14040, "Unknown": 5715, "Bounds": 1321, "ConstantOutOfRange": 224,
        }
        refusal = self._answer(parse_hspec("PA520,516"), 4, 1.0)
        assert refusal[1] == "UnsupportedSizeError"
        rows.append(("PA520,516 4", [refusal]))
        assert_rows(
            "evaluate", [(key, json.dumps(answers, separators=(",", ":"))) for key, answers in rows]
        )
