"""Witness certificates, per-order checks, and the downward threshold scan."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

import gallai.search
from gallai import structure
from gallai.canonical import canonical_form
from gallai.constructions import sporadic
from gallai.graphs import ColoredComplete, TargetGraph, UnsupportedSizeError, parse_hspec
from gallai.search import (
    STATUS_ALL_GOOD,
    STATUS_BAD,
    STATUS_NO_EXACT,
    WitnessFailure,
    _small_order_classes,
    brute_force_colorings,
    check_n,
    compute_gr,
    rainbow_p5free_classes,
    replay_certificate,
    verify_witness,
)
from gallai.detectors import find_mono_copy
from gallai.structure import enumerate_p5free, p5free_classes

C5 = '{"order":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'

# sha256 over check_n outputs, recorded while check_n still keyed and
# decoded every class; see TestCheckNOutputs.
_CHECK_SHA256 = "368535db0a06eb6df102aa95bac44504d4a3e5e0c0ec1f0029d827234a059435"


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


class TestSmallOrderClasses:
    @pytest.mark.parametrize(
        "n,k", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6)]
    )
    def test_matches_brute_force_reference(self, n, k):
        """The classes check_n scans below order 5 are exactly the canonical
        forms of every exact coloring, in canonical-key order."""
        want = sorted({canonical_form(c) for c in brute_force_colorings(n, k)})
        classes = _small_order_classes(n, k)
        assert [canonical_form(c) for c in classes] == want
        assert all(c.exact and (c.n, c.k) == (n, k) for c in classes)


class TestGroundTruthOracle:
    def test_matches_guided_enumeration(self):
        for k in (4, 5, 6):
            want = rainbow_p5free_classes(5, k)
            got = {canonical_form(c) for c in enumerate_p5free(5, k)}
            assert got == want

    def test_supports_only_order_five(self):
        with pytest.raises(UnsupportedSizeError):
            rainbow_p5free_classes(6, 4)
        with pytest.raises(ValueError):
            rainbow_p5free_classes(4, 4)

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
        order, independent of scan schedule."""
        out1 = check_n(parse_hspec("S4^1"), 4, 5, threads=1)
        out8 = check_n(parse_hspec("S4^1"), 4, 5, threads=8)
        assert out1.witness.coloring == out8.witness.coloring
        bad_keys = [
            canonical_form(c)
            for c in enumerate_p5free(5, 4)
            if __import__("gallai.detectors", fromlist=["find_mono_copy"]).find_mono_copy(
                c, parse_hspec("S4^1")
            )
            is None
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
        k = 4..6 and n = 2..9 (K4 at n <= 4), with 1 and 8 threads, hash to
        the digest recorded when every class was keyed and decoded."""
        cases = [
            (spec, k, n)
            for spec in ("S4^1", "S5^1", "K5", "PA6,5", "K6-M", C5)
            for k in range(4, 7)
            for n in range(2, 10)
        ]
        cases += [("K4", k, n) for k in range(4, 7) for n in range(2, 5)]
        digest = hashlib.sha256()
        for spec, k, n in cases:
            for threads in (1, 8):
                out = check_n(parse_hspec(spec), k, n, threads=threads)
                witness = None if out.witness is None else out.witness.to_json_dict()
                row = [spec, k, n, threads, out.status, out.examined, witness]
                digest.update(json.dumps(row, separators=(",", ":")).encode() + b"\n")
        assert digest.hexdigest() == _CHECK_SHA256

    @pytest.mark.parametrize("spec,bad", [("S5^1", 0), ("K5", 23), ("PA6,5", 24)])
    def test_keys_only_where_they_decide(self, monkeypatch, spec, bad):
        """At (k, n) = (4, 9), with 79 classes: no candidate is keyed when
        the classes are formed and no bad class is keyed on its own; one
        bounded search finds the least key of the bad classes, and only the
        witness is decoded."""
        H = parse_hspec(spec)
        classes = p5free_classes(9, 4)  # also warms the cached part graphs
        assert sum(find_mono_copy(c, H) is None for c in classes) == bad
        keyed, least, decoded = [], [], []
        real_key, real_least = structure.canonical_form, gallai.search.least_canonical_form
        real_decode = gallai.search.coloring_from_key
        for module in (structure, gallai.search):
            monkeypatch.setattr(module, "canonical_form", lambda c: keyed.append(c) or real_key(c))
        monkeypatch.setattr(
            gallai.search, "least_canonical_form", lambda cs: least.append(cs) or real_least(cs)
        )
        monkeypatch.setattr(
            gallai.search, "coloring_from_key", lambda key: decoded.append(key) or real_decode(key)
        )
        out = check_n(H, 4, 9)
        assert out.examined == 79
        assert keyed == []
        assert [len(cs) for cs in least] == ([bad] if bad else [])
        assert len(decoded) == (1 if bad else 0)
        assert (out.status == STATUS_BAD) == bool(bad)
