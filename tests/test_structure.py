"""Structure classification and guided enumeration."""

from __future__ import annotations

import hashlib
import random

import pytest

from gallai import structure
from gallai.canonical import canonical_form
from gallai.constructions import sporadic
from gallai.detectors import find_rainbow_path
from gallai.graphs import ColoredComplete, UnsupportedSizeError, edge_count, pairs
from gallai.structure import (
    TheoremViolation,
    classify_p4free,
    classify_p5free,
    enumerate_p5free,
    parallel_map,
    resolve_threads,
)


def _random_coloring(rng, n_min, n_max, k_min=2, k_max=8):
    n = rng.randint(n_min, n_max)
    k = rng.randint(k_min, k_max)
    colors = tuple(rng.randint(1, k) for _ in range(edge_count(n)))
    return ColoredComplete(n, k, colors)


class TestClassifyP4:
    def test_two_colors_case_a(self):
        c = ColoredComplete.constant(5, 2, 1)
        rep = classify_p4free(c)
        assert rep.case == "a" and rep.rainbow is None

    def test_three_one_factors_case_b(self):
        c = ColoredComplete.from_edge_triples(
            4,
            3,
            ((0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3), (1, 2, 3)),
        )
        rep = classify_p4free(c)
        assert rep.case == "b"

    def test_rainbow_when_unstructured(self):
        c = ColoredComplete.from_edge_triples(
            4,
            3,
            ((0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 3), (0, 3, 3), (1, 2, 2)),
        )
        rep = classify_p4free(c)
        assert rep.case is None
        assert rep.rainbow is not None

    def test_conformance_2000(self):
        """Exactly one of: a structure case applies, or a rainbow 3-edge
        path exists."""
        rng = random.Random(1009)
        for _ in range(2000):
            c = _random_coloring(rng, 4, 8)
            rep = classify_p4free(c)
            assert (rep.case is not None) == (rep.rainbow is None)


class TestClassifyP5:
    def test_three_colors_case_a(self):
        c = ColoredComplete.constant(6, 3, 2)
        rep = classify_p5free(c)
        assert "a" in rep.cases
        assert rep.rainbow is None

    def test_sporadic_is_case_f_only(self):
        rep = classify_p5free(sporadic("TW-case-f"))
        assert rep.cases == frozenset({"f"})

    def test_dominant_color_case_b(self):
        # two disjoint red K2s inside an otherwise blue K6, plus one green edge
        triples = []
        special = {(0, 1): 2, (2, 3): 2, (4, 5): 3}
        for i in range(6):
            for j in range(i + 1, 6):
                triples.append((i, j, special.get((i, j), 1)))
        rep = classify_p5free(ColoredComplete.from_edge_triples(6, 3, triples))
        assert "a" in rep.cases  # only 3 colors used
        assert "b" in rep.cases
        assert rep.witnesses["b"][0] == 1  # dominant color

    def test_apex_case_c(self):
        # K6 in color 1 plus an apex with rainbow spokes
        triples = [(i, j, 1) for i in range(6) for j in range(i + 1, 6)]
        triples += [(i, 6, i + 2) for i in range(6)]
        rep = classify_p5free(ColoredComplete.from_edge_triples(7, 7, triples))
        assert "c" in rep.cases
        apex, _ = rep.witnesses["c"]
        assert apex == 6

    def test_triangle_case_d(self):
        # E2={ab}, E3={ac}, E4={bc} plus one extra color-4 edge at a
        special = {(0, 1): 2, (0, 2): 3, (1, 2): 4, (0, 3): 4}
        triples = []
        for i in range(6):
            for j in range(i + 1, 6):
                triples.append((i, j, special.get((i, j), 1)))
        rep = classify_p5free(ColoredComplete.from_edge_triples(6, 4, triples))
        assert "d" in rep.cases

    def test_matchings_case_e(self):
        # on {0,1,2,3}: color 2 = {01, 23}, color 3 = {02, 13}, color 4 = {03, 12}
        special = {
            (0, 1): 2, (2, 3): 2,
            (0, 2): 3, (1, 3): 3,
            (0, 3): 4, (1, 2): 4,
        }
        triples = []
        for i in range(6):
            for j in range(i + 1, 6):
                triples.append((i, j, special.get((i, j), 1)))
        rep = classify_p5free(ColoredComplete.from_edge_triples(6, 4, triples))
        assert "e" in rep.cases

    def test_conformance_2000(self):
        rng = random.Random(40320)
        for _ in range(2000):
            c = _random_coloring(rng, 5, 9)
            rep = classify_p5free(c)  # internally cross-checked
            assert bool(rep.cases) == (rep.rainbow is None)

    def test_requires_five_vertices(self):
        with pytest.raises(ValueError):
            classify_p5free(ColoredComplete.constant(4, 2))


# Class counts of enumerate_p5free for n 5..9 and k 4..12 (pairs not listed
# have no class), and the sha256 of all their canonical keys, sorted and
# concatenated.
_CENSUS = {
    (5, 4): 8, (5, 5): 1,
    (6, 4): 11, (6, 5): 2, (6, 6): 1,
    (7, 4): 17, (7, 5): 4, (7, 6): 2, (7, 7): 1,
    (8, 4): 32, (8, 5): 8, (8, 6): 4, (8, 7): 2, (8, 8): 1,
    (9, 4): 79, (9, 5): 15, (9, 6): 7, (9, 7): 4, (9, 8): 2, (9, 9): 1,
}
_CENSUS_SHA256 = "2b4037fcd7f114a7a6a38af6ea4d2178dee2be1a95ef27c62338ebce5c5c545a"


class TestEnumerate:
    def test_census_up_to_order_nine(self):
        counts = {}
        keys = []
        for n in range(5, 10):
            for k in range(4, 13):
                reps = enumerate_p5free(n, k)
                if reps:
                    counts[(n, k)] = len(reps)
                keys.extend(canonical_form(c) for c in reps)
        assert counts == _CENSUS
        assert hashlib.sha256(b"".join(sorted(keys))).hexdigest() == _CENSUS_SHA256

    def test_min_degree_one_graphs_pinned(self):
        """One representative per isomorphism class of graphs without an
        isolated vertex (OEIS A002494: 0, 1, 2, 7, 23), with the exact
        representatives and their order pinned by digest; case (b) draws
        its parts from s <= 5."""
        graphs = [structure._graphs_min_deg1(s) for s in range(1, 6)]
        assert [len(g) for g in graphs] == [0, 1, 2, 7, 23]
        digest = hashlib.sha256(repr(graphs).encode()).hexdigest()
        assert digest == "d1f8f2605df35ef3c8ac061c7274e7217f1e55e6096a9d086e40ec9728a30aff"

    def test_counts_at_order_five(self):
        assert len(enumerate_p5free(5, 4)) == 8
        assert len(enumerate_p5free(5, 5)) == 1

    def test_all_emitted_are_sound(self):
        """Every representative is exact, canonical, and rainbow-free."""
        for n, k in ((5, 4), (6, 4), (5, 5), (6, 5), (5, 6)):
            reps = enumerate_p5free(n, k)
            keys = [canonical_form(c) for c in reps]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for c in reps:
                assert c.n == n and c.k == k
                assert c.exact
                assert find_rainbow_path(c, 4) is None

    def test_structure_cases_cover_enumeration(self):
        from gallai.structure import classify_p5free as classify

        for c in enumerate_p5free(6, 4):
            assert classify(c).cases

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            enumerate_p5free(4, 4)
        with pytest.raises(ValueError):
            enumerate_p5free(5, 3)
        with pytest.raises(UnsupportedSizeError):
            enumerate_p5free(10, 4)
        with pytest.raises(UnsupportedSizeError):
            enumerate_p5free(5, 13)

    @pytest.mark.parametrize(
        "bad",
        [
            # the path 0-1-2-3-4 in colors 1, 2, 3, 4
            ColoredComplete.from_edge_triples(
                5, 4, [(i, j, j if j == i + 1 else 1) for i, j in pairs(5)]
            ),
            ColoredComplete.constant(5, 4),
        ],
        ids=["rainbow", "non-exact"],
    )
    def test_bad_candidate_is_a_theorem_violation(self, monkeypatch, bad):
        """A generator emitting a rainbow or non-exact candidate is a bug,
        reported instead of silently dropped."""
        monkeypatch.setattr(structure, "_candidates_case_f", lambda n, k: iter([bad]))
        with pytest.raises(TheoremViolation):
            enumerate_p5free(5, 4)

    def test_thread_count_does_not_change_output(self):
        one = enumerate_p5free(6, 5, threads=1)
        many = enumerate_p5free(6, 5, threads=8)
        assert one == many


class TestParallelHelpers:
    def test_resolve_threads_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("GALLAI_THREADS", "3")
        assert resolve_threads(2) == 2
        assert resolve_threads(None) == 3

    def test_resolve_threads_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_threads(0)

    def test_resolve_threads_env_invalid(self, monkeypatch):
        monkeypatch.setenv("GALLAI_THREADS", "zero")
        with pytest.raises(ValueError):
            resolve_threads(None)

    def test_parallel_map_preserves_order(self):
        items = list(range(100))
        assert parallel_map(lambda x: x * x, items, 4) == [x * x for x in items]
        assert parallel_map(lambda x: x * x, items, 1) == [x * x for x in items]
