"""Witness certificates, per-order checks, and the downward threshold scan."""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace
from importlib import resources

import pytest

import gallai.search
from gallai import structure
from gallai.canonical import canonical_form
from gallai.constructions import sporadic
from gallai.graphs import ColoredComplete, TargetGraph, UnsupportedSizeError, pairs, parse_hspec
from gallai.search import (
    STATUS_ALL_GOOD,
    STATUS_BAD,
    STATUS_NO_EXACT,
    WitnessFailure,
    _class_table,
    _restricted_growth_strings,
    brute_force_colorings,
    check_n,
    compute_gr,
    lower_bound_witness,
    rainbow_p5free_classes,
    replay_certificate,
    verify_witness,
)
from gallai.detectors import find_mono_copy
from gallai.structure import TheoremViolation, enumerate_p5free, p5free_classes
from golden import assert_rows

C5 = '{"order":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'


def _clear_class_tables():
    _class_table.cache_clear()


class TestVerifyWitness:
    def test_accepts_valid(self):
        cert = verify_witness(sporadic("F3"), parse_hspec("S4^1"), label="F3")
        assert cert.order == 5
        assert cert.rainbow_absent
        assert cert.mono_absent == (1, 2, 3, 4)
        assert cert.label == "F3"

    def test_rejects_rainbow(self):
        from gallai.detectors import RAINBOW_PATH

        c = ColoredComplete(5, 10, tuple(range(1, 11)))
        with pytest.raises(WitnessFailure) as exc:
            verify_witness(c, TargetGraph.complete(6))
        assert "rainbow" in str(exc.value)
        assert exc.value.embedding.kind == RAINBOW_PATH

    def test_rejects_mono_copy(self):
        # two colors cannot make a rainbow 4-edge path, so the mono triangle
        # is the only possible failure
        c = ColoredComplete.constant(5, 2, 1).recolored(3, 4, 2)
        with pytest.raises(WitnessFailure) as exc:
            verify_witness(c, TargetGraph.complete(3))
        assert exc.value.embedding.color == 1
        assert len(exc.value.embedding.vertices) == 3

    def test_rejects_inexact(self):
        c = ColoredComplete.constant(5, 3, 1)
        with pytest.raises(ValueError, match="all 3 colors"):
            verify_witness(c, TargetGraph.complete(7))

    def test_json_replay_round_trip(self):
        cert = verify_witness(sporadic("F3"), parse_hspec("S4^1"), label="F3")
        blob = json.dumps(cert.to_json_dict())
        replayed = replay_certificate(json.loads(blob))
        assert replayed == cert

    def test_written_json_is_the_dumped_dict(self):
        """``to_json`` against ``json.dumps`` of ``to_json_dict`` on every
        dispatcher answer of the eval sweep, a label that needs escaping and
        an edge-list target."""
        sweep = resources.files("gallai").joinpath("data/eval_sweep.txt").read_text()
        certs = []
        for line in sweep.splitlines():
            if line.strip() and not line.startswith("#"):
                spec, k = line.split()
                cert = lower_bound_witness(parse_hspec(spec), int(k))
                if cert is not None:
                    certs.append(cert)
        assert len(certs) >= 20
        paw = lower_bound_witness(parse_hspec('{"order":4,"edges":[[0,1],[0,2],[1,2],[0,3]]}'), 4)
        assert paw is not None and paw.H.edge_list is not None
        certs += [paw, replace(paw, label='say "F3" \u00e9\u2603'), replace(paw, label=None)]
        for cert in certs:
            assert cert.to_json() == json.dumps(cert.to_json_dict(), separators=(",", ":"))
        assert '"label":"say \\"F3\\" \\u00e9\\u2603"' in certs[-2].to_json()

    def test_replay_rejects_tampered(self):
        cert = verify_witness(sporadic("F3"), parse_hspec("S4^1"))
        data = cert.to_json_dict()
        # flatten every edge to color 1: no longer exact in 4 colors
        data["coloring"]["edges"] = [
            [i, j, 1] for i, j, _ in data["coloring"]["edges"]
        ]
        with pytest.raises((WitnessFailure, ValueError)):
            replay_certificate(data)


class TestBruteForce:
    def test_count_matches_surjection_formula(self):
        """Exact colorings of C(n,2) edges with k colors, counted by
        inclusion-exclusion: sum (-1)^i C(k,i) (k-i)^m."""
        for n, k in ((3, 2), (4, 2), (4, 3), (5, 2)):
            m = n * (n - 1) // 2
            want = sum(
                (-1) ** i * math.comb(k, i) * (k - i) ** m for i in range(k + 1)
            )
            got = sum(1 for _ in brute_force_colorings(n, k))
            assert got == want

    def test_refuses_oversized(self):
        with pytest.raises(UnsupportedSizeError):
            list(brute_force_colorings(8, 9))


class TestRestrictedGrowthStrings:
    def test_one_string_per_set_partition(self):
        """For m <= 10 positions and k <= 6 blocks, the strings are
        distinct, each of length m, their blocks first occur in the order
        1..k, and they number S(m, k), the Stirling number of the second
        kind: S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)."""
        stirling = {(0, 0): 1}
        for m in range(1, 11):
            for k in range(1, 7):
                stirling[m, k] = k * stirling.get((m - 1, k), 0) + stirling.get((m - 1, k - 1), 0)
                strings = list(_restricted_growth_strings(m, k))
                assert len(set(strings)) == len(strings) == stirling[m, k], (m, k)
                blocks = list(range(1, k + 1))
                for rgs in strings:
                    assert len(rgs) == m and list(dict.fromkeys(rgs)) == blocks, (m, k)


class TestSmallOrderClasses:
    @pytest.mark.parametrize(
        "n,k", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6)]
    )
    def test_matches_brute_force_reference(self, n, k):
        """The classes check_n scans below order 5 are exactly the canonical
        forms of every exact coloring, in canonical-key order, each stored
        with its key."""
        want = sorted({canonical_form(c) for c in brute_force_colorings(n, k)})
        classes = _class_table(n, k)
        assert [canonical_form(c) for c in classes] == want
        assert list(classes.values()) == want
        assert all(c.exact and (c.n, c.k) == (n, k) for c in classes)


class TestGroundTruthOracle:
    def test_supports_orders_up_to_five(self):
        """Below order 5 no 4-edge path fits, so the oracle keeps every
        exact class, the canonical forms of the brute-force colorings;
        order 6 is refused."""
        for n in range(2, 5):
            for k in range(1, math.comb(n, 2) + 1):
                want = {canonical_form(c) for c in brute_force_colorings(n, k)}
                assert rainbow_p5free_classes(n, k) == want, (n, k)
        with pytest.raises(UnsupportedSizeError):
            rainbow_p5free_classes(6, 4)

    def test_empty_when_colors_exceed_edges(self):
        assert rainbow_p5free_classes(5, 11) == frozenset()


class TestCheckN:
    def test_no_exact_colorings(self):
        out = check_n(parse_hspec("S4^1"), 7, 3)
        assert out.status == STATUS_NO_EXACT
        assert out.examined == 0

    def test_bad_at_small_order(self):
        out = check_n(parse_hspec("S4^1"), 4, 5)
        assert out.status == STATUS_BAD
        assert out.witness is not None
        assert out.witness.order == 5

    def test_bad_witness_is_canonically_smallest(self):
        """The reported witness must be the first bad class in canonical-key
        order, not the first bad class the scan meets."""
        out1 = check_n(parse_hspec("S4^1"), 4, 5)
        bad_keys = [
            canonical_form(c)
            for c in enumerate_p5free(5, 4)
            if find_mono_copy(c, parse_hspec("S4^1")) is None
        ]
        assert canonical_form(out1.witness.coloring) == min(bad_keys)

    def test_sporadic_class_among_bad_witnesses(self):
        """The 5-vertex sporadic coloring is bad for this target, so its
        class must appear among the bad classes at this order."""
        from gallai.detectors import find_mono_copy

        H = parse_hspec("S4^1")
        bad = {
            canonical_form(c)
            for c in enumerate_p5free(5, 4)
            if find_mono_copy(c, H) is None
        }
        assert canonical_form(sporadic("F3")) in bad

    def test_all_good_case(self):
        out = check_n(parse_hspec("S4^1"), 4, 6)
        assert out.status == STATUS_ALL_GOOD
        assert out.witness is None
        assert out.examined > 0

    def test_small_order_brute_force_path(self):
        # K4 admits no 4-edge path, so exactness is the only filter
        out = check_n(parse_hspec("S4^1"), 5, 4)
        assert out.status == STATUS_BAD
        out6 = check_n(parse_hspec("K2"), 6, 4)
        assert out6.status == STATUS_ALL_GOOD  # K2 embeds in any edge

    def test_rejects_k_up_to_three(self):
        with pytest.raises(ValueError):
            check_n(parse_hspec("S4^1"), 3, 6)

    @staticmethod
    def _searches(monkeypatch):
        """The list that every ``find_mono_copy`` call of ``check_n`` appends
        its host to."""
        hosts = []
        real = gallai.search.find_mono_copy
        monkeypatch.setattr(
            gallai.search, "find_mono_copy", lambda c, H: hosts.append(c) or real(c, H)
        )
        return hosts

    def test_edgeless_target_is_searched_once(self, monkeypatch):
        """An edgeless target lies on any t distinct vertices: the first
        class's copy is a copy in every later class."""
        hosts = self._searches(monkeypatch)
        for n, k in ((9, 4), (6, 5), (4, 4)):
            out = check_n(parse_hspec('{"order":3,"edges":[]}'), k, n)
            assert out.status == STATUS_ALL_GOOD
            assert out.examined == len(_class_table(n, k))
            assert hosts == [next(iter(_class_table(n, k)))]
            hosts.clear()

    def test_target_above_the_order_searches_every_class(self, monkeypatch):
        """With no copy found there is no copy to try first: every class is
        searched, every class is bad, and the witness is the least key.  The
        target's edge list is never built, as it would be for nothing: for
        a target like K100000 it would not fit in memory."""
        hosts = self._searches(monkeypatch)
        for spec, n, k in (("K7", 6, 4), ("S10^1", 9, 5), ("K12", 9, 4), ("K5", 4, 4)):
            H = parse_hspec(spec)
            out = check_n(H, k, n)
            table = _class_table(n, k)
            assert out.status == STATUS_BAD
            assert hosts == list(table)
            assert canonical_form(out.witness.coloring) == min(map(canonical_form, table))
            assert "edges" not in vars(H)
            hosts.clear()

    def test_searches_per_check_are_pinned(self, monkeypatch):
        """On a warm table, the seven ``check --n 9`` queries of the search
        workload make these ``find_mono_copy`` calls each; trying every class
        on the last copy found first, 120 in all where searching every class
        made 417 (79 at k = 4, 15 at k = 5, 7 at k = 6).  Each bad class is
        still searched."""
        queries = [
            ("S5^1", 4), ("K5", 4), ("PA6,5", 4), ("K6-M", 4), (C5, 4), ("S4^1", 5), ("S4^1", 6),
        ]
        for spec, k in queries:
            check_n(parse_hspec(spec), k, 9)
        hosts = self._searches(monkeypatch)
        counts, bad = [], []
        for spec, k in queries:
            check_n(parse_hspec(spec), k, 9)
            counts.append(len(hosts))
            bad.append(sum(find_mono_copy(c, parse_hspec(spec)) is None for c in hosts))
            hosts.clear()
        assert counts == [7, 48, 46, 7, 10, 1, 1]
        assert bad == [0, 23, 24, 0, 0, 0, 0]


class TestComputeGr:
    def test_values_match_formulas_on_small_stars(self):
        """Search agrees with the closed forms for k in [4, 8] where the
        search space is within reach."""
        from gallai.formulas import evaluate

        for spec, k in (
            ("S4^1", 4), ("S4^1", 5), ("S4^1", 6), ("S4^1", 7), ("S4^1", 8),
            ("S5^1", 4), ("S5^1", 5), ("S5^1", 6), ("S5^1", 7),
        ):
            H = parse_hspec(spec)
            want = evaluate(H, k).value
            got = compute_gr(H, k, n_max=8)
            assert got.status == "exact"
            assert got.value == want, (spec, k)

    def test_trivial_target_reduces_to_color_capacity(self):
        """Any target contained in a single edge forces the threshold to the
        least order carrying k colors."""
        got = compute_gr(parse_hspec("K2"), 7, n_max=8)
        assert got.value == 5  # C(5,2) = 10 >= 7 > C(4,2)

    def test_inconclusive_when_top_is_bad(self):
        res = compute_gr(parse_hspec("K9"), 4, n_max=6)
        assert res.status == "inconclusive"
        assert res.value is None
        assert res.outcomes[0].status == STATUS_BAD

    def test_outcomes_run_downward_contiguously(self):
        res = compute_gr(parse_hspec("S4^1"), 4, n_max=8)
        orders = [o.n for o in res.outcomes]
        assert orders == [8, 7, 6, 5]
        assert [o.status for o in res.outcomes] == [
            STATUS_ALL_GOOD, STATUS_ALL_GOOD, STATUS_ALL_GOOD, STATUS_BAD,
        ]
        assert res.value == 6


class TestCheckNOutputs:
    def test_outputs_byte_identical(self):
        """Status, examined count and witness JSON for six targets at
        k = 4..6 and n = 2..9 (K4 at n <= 4) are the golden rows recorded
        when every class was keyed and decoded."""
        cases = [
            (spec, k, n)
            for spec in ("S4^1", "S5^1", "K5", "PA6,5", "K6-M", C5)
            for k in range(4, 7)
            for n in range(2, 10)
        ]
        cases += [("K4", k, n) for k in range(4, 7) for n in range(2, 5)]
        rows = []
        for spec, k, n in cases:
            out = check_n(parse_hspec(spec), k, n)
            witness = None if out.witness is None else out.witness.to_json_dict()
            answer = [out.status, out.examined, witness]
            rows.append((f"{spec} {k} {n}", json.dumps(answer, separators=(",", ":"))))
        assert_rows("check", rows)

    def test_outputs_byte_identical_on_cold_and_warm_tables(self):
        """The rows hold when every class is generated afresh, and again
        when every class comes from the tables."""
        _clear_class_tables()
        self.test_outputs_byte_identical()
        self.test_outputs_byte_identical()

    @pytest.mark.parametrize("spec,bad", [("S5^1", 0), ("K5", 23), ("PA6,5", 24)])
    def test_keys_only_where_they_decide(self, monkeypatch, spec, bad):
        """At (k, n) = (4, 9), with 79 classes: forming the classes keys
        nothing; a cold check keys exactly its bad classes, once each; a
        check of another target then keys only its bad classes not keyed
        before; a repeated check keys nothing and decodes only its witness."""
        _clear_class_tables()
        keyed, decoded = [], []
        real_key, real_decode = gallai.search.canonical_form, gallai.search.coloring_from_key
        for module in (structure, gallai.search):
            monkeypatch.setattr(module, "canonical_form", lambda c: keyed.append(c) or real_key(c))
        monkeypatch.setattr(
            gallai.search, "coloring_from_key", lambda key: decoded.append(key) or real_decode(key)
        )
        classes = p5free_classes(9, 4)
        assert keyed == []
        assert sum(find_mono_copy(c, parse_hspec(spec)) is None for c in classes) == bad
        seen: list = []
        for other in (spec, "S5^1", "K5", "PA6,5", spec):
            H = parse_hspec(other)
            bad_classes = [c for c in classes if find_mono_copy(c, H) is None]
            del keyed[:], decoded[:]
            out = check_n(H, 4, 9)
            assert out.examined == 79
            assert keyed == [c for c in bad_classes if c not in seen]
            seen += keyed
            if bad_classes:
                assert out.status == STATUS_BAD
                assert decoded == [canonical_form(out.witness.coloring)]
            else:
                assert out.status == STATUS_ALL_GOOD and decoded == []


class TestWitnessByIndependentRoute:
    TARGETS = ("S4^1", "S5^1", "K5", "PA6,5", "K6-M", C5)

    def _check_against_enumeration(self):
        for n in range(5, 10):
            for k in range(4, 7):
                reps = enumerate_p5free(n, k)
                for spec in self.TARGETS:
                    H = parse_hspec(spec)
                    out = check_n(H, k, n)
                    first_bad = next((c for c in reps if find_mono_copy(c, H) is None), None)
                    witness = None if out.witness is None else out.witness.coloring
                    assert witness == first_bad, (spec, n, k)

    def test_witness_is_first_bad_class_in_key_order(self):
        """For n 5..9 x k 4..6, the witness of check_n is the first class of
        enumerate_p5free, which keys and decodes every class and sorts by
        key, that has no monochromatic copy; on a cold table and a warm one."""
        _clear_class_tables()
        self._check_against_enumeration()
        self._check_against_enumeration()

    def test_key_memo_is_bounded_by_the_class_tables(self):
        """K10 has no copy at n <= 9, so every class is bad and keyed; over
        every (n, k) check_n accepts, the table ends with one entry per
        order and color count that has exact colorings, holding the 212
        classes (202 for n 5..9, 10 for n = 4), each with its distinct key,
        and nothing else."""
        _clear_class_tables()
        H = parse_hspec("K10")
        reached = []
        for n in range(1, 10):
            for k in range(4, 13):
                out = check_n(H, k, n)
                assert out.status == STATUS_BAD or out.examined == 0
                if out.status != STATUS_NO_EXACT:
                    reached.append((n, k))
        assert _class_table.cache_info().currsize == len(reached) == 46
        keys = [key for n, k in reached for key in _class_table(n, k).values()]
        assert len(set(keys)) == len(keys) == 212
        assert None not in keys


class TestSmallGraphSweep:
    @staticmethod
    def _sweep_rows():
        rows = []
        for s in range(3, 6):
            for edges in structure._graphs_min_deg1(s):
                spec = json.dumps(
                    {"order": s, "edges": [list(e) for e in edges]}, separators=(",", ":")
                )
                H = parse_hspec(spec)
                for k in range(4, 7):
                    res = compute_gr(H, k, n_max=9)
                    outcomes = [
                        [o.n, o.status, o.examined,
                         None if o.witness is None else o.witness.to_json_dict()]
                        for o in res.outcomes
                    ]
                    answer = [res.status, res.value, outcomes]
                    rows.append((f"{spec} {k}", json.dumps(answer, separators=(",", ":"))))
        return rows

    def test_sweep_is_identical_cold_and_warm(self):
        """compute_gr(n_max=9) for all 32 graphs on 3..5 vertices with no
        isolated vertex at k = 4..6 gives the same outputs on cold tables and
        warm ones, and they are the golden rows recorded before the class
        keys were kept."""
        _clear_class_tables()
        cold = self._sweep_rows()
        warm = self._sweep_rows()
        assert len(cold) == 96
        assert warm == cold
        assert_rows("sweep", cold)


class TestClassTables:
    def test_guard_runs_once_per_class(self, monkeypatch):
        """Two targets checked at (k, n) = (4, 6) share one generation: the
        rainbow guard runs once per class, not once per call."""
        guarded = []
        real = structure.find_rainbow_path
        monkeypatch.setattr(
            structure, "find_rainbow_path", lambda c, m: guarded.append(c) or real(c, m)
        )
        _clear_class_tables()
        for spec in ("S4^1", "K5"):
            check_n(parse_hspec(spec), 4, 6)
        assert guarded == list(_class_table(6, 4))

    def test_small_order_classes_are_decoded_once(self, monkeypatch):
        """Below order 5, three checks at (k, n) = (5, 4) decode each class
        once, and each bad check decodes its witness once more."""
        decoded = []
        real = gallai.search.coloring_from_key
        monkeypatch.setattr(
            gallai.search, "coloring_from_key", lambda key: decoded.append(key) or real(key)
        )
        _clear_class_tables()
        witnesses = []
        for spec in ("S4^1", "K4", "S4^1"):
            out = check_n(parse_hspec(spec), 5, 4)
            if out.status == STATUS_BAD:
                witnesses.append(canonical_form(out.witness.coloring))
        keys = list(_class_table(4, 5).values())
        assert len(witnesses) == 3
        assert sorted(decoded) == sorted(keys + witnesses)

    def test_small_order_classes_are_keyed_once(self, monkeypatch):
        """Cold checks of K4 at (k, n) = (4..6, 4), where no exact coloring
        holds a monochromatic K4 and every class is bad, key the 81
        surjections of the six edges onto 4, 5 and 6 colors, up to
        renaming, and not their 10 classes again."""
        keyed = []
        real = gallai.search.canonical_form
        monkeypatch.setattr(
            gallai.search, "canonical_form", lambda c: keyed.append(c) or real(c)
        )
        _clear_class_tables()
        for k in (4, 5, 6):
            assert check_n(parse_hspec("K4"), k, 4).status == STATUS_BAD
        assert len(keyed) == 65 + 15 + 1

    def test_calls_share_one_entry_and_are_validated_on_every_call(self):
        """Checks of two targets at one (k, n) share one table entry; an
        order or color count past the enumerator's limits is refused on
        every call and stores nothing."""
        _clear_class_tables()
        want = check_n(parse_hspec("S4^1"), 5, 6)
        assert check_n(parse_hspec("S4^1"), 5, 6) == want
        check_n(parse_hspec("K5"), 5, 6)
        info = _class_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        for _ in range(2):
            with pytest.raises(UnsupportedSizeError):
                check_n(parse_hspec("S4^1"), 5, 10)
            with pytest.raises(UnsupportedSizeError):
                check_n(parse_hspec("S4^1"), 13, 6)
        after = _class_table.cache_info()
        assert (after.hits, after.currsize) == (info.hits, info.currsize)

    def test_failed_build_stores_nothing(self, monkeypatch):
        """A generator that emits a rainbow candidate fails every check at
        its order, and the table keeps nothing of it: once the generators
        are mended, the check scans the true classes."""
        H = parse_hspec("K5")
        want = check_n(H, 4, 5)
        _clear_class_tables()
        rainbow = ColoredComplete.from_edge_triples(
            5, 4, [(i, j, j if j == i + 1 else 1) for i, j in pairs(5)]
        )
        monkeypatch.setattr(structure, "_candidates_case_f", lambda n, k: iter([rainbow]))
        for _ in range(2):
            with pytest.raises(TheoremViolation):
                check_n(H, 4, 5)
        assert _class_table.cache_info().currsize == 0
        monkeypatch.undo()
        assert check_n(H, 4, 5) == want
        assert list(_class_table(5, 4)) == p5free_classes(5, 4)


class TestNoThreadCount:
    """The library takes no thread count; nor does any command
    (``test_cli.py``), and nothing reads the environment
    (``test_layering.py``)."""

    @pytest.mark.parametrize(
        "fn", [check_n, compute_gr, p5free_classes, enumerate_p5free], ids=lambda fn: fn.__name__
    )
    def test_no_threads_parameter(self, fn):
        assert "threads" not in inspect.signature(fn).parameters
