"""Structure classification and guided enumeration."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

import pytest

from gallai import structure
from gallai.canonical import canonical_form, coloring_invariant
from gallai.constructions import build_named, sporadic
from gallai.detectors import find_rainbow_path
from gallai.graphs import ColoredComplete, UnsupportedSizeError, edge_count, pairs
from gallai.structure import (
    TheoremViolation,
    classify_p4free,
    classify_p5free,
    enumerate_p5free,
    p5free_classes,
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



# Edge-list forms of the case predicates, kept as an independent reference:
# each rebuilds the color classes and tests its shape directly.


def _reference_classes(c):
    return {col: c.edges_in_color(col) for col in sorted(c.used_colors)}


def _reference_case_a(c):
    used = c.used_colors
    return len(used) if len(used) <= 3 else None


def _reference_case_b(c):
    used = sorted(c.used_colors)
    if len(used) < 2:
        return None
    for dom in used:
        sets = {j: c.vertices_incident(j) for j in used if j != dom}
        union = set().union(*sets.values())
        if len(union) == sum(len(s) for s in sets.values()):
            return dom, sets
    return None


def _reference_case_c(c):
    for v in range(c.n):
        rest = {col for (i, j), col in zip(pairs(c.n), c.colors) if v not in (i, j)}
        if len(rest) == 1:
            return v, next(iter(rest))
    return None


def _reference_case_d(c):
    classes = _reference_classes(c)
    if len(classes) != 4:
        return None
    singles = [col for col, cl in classes.items() if len(cl) == 1]
    for colx, coly in permutations(singles, 2):
        (e1,) = classes[colx]
        (e2,) = classes[coly]
        shared = set(e1) & set(e2)
        if len(shared) != 1:
            continue
        a = shared.pop()
        b = next(v for v in e1 if v != a)
        cc = next(v for v in e2 if v != a)
        bc = tuple(sorted((b, cc)))
        for colz, cl in classes.items():
            if colz in (colx, coly) or bc not in cl:
                continue
            if all(e == bc or a in e for e in cl):
                return a, b, cc, frozenset(cl)
    return None


def _reference_case_e(c):
    classes = {col: set(cl) for col, cl in _reference_classes(c).items()}
    if len(classes) != 4:
        return None
    for q0, q1, q2, q3 in combinations(range(c.n), 4):
        matchings = [
            {(q0, q1), (q2, q3)},
            {(q0, q2), (q1, q3)},
            {(q0, q3), (q1, q2)},
        ]
        exact = {
            i: col
            for i, m in enumerate(matchings)
            for col, cl in classes.items()
            if cl == m
        }
        for iz, mz in enumerate(matchings):
            others = [i for i in range(3) if i != iz]
            if not all(i in exact for i in others):
                continue
            taken = {exact[i] for i in others}
            for col, cl in classes.items():
                if col in taken or not cl or not cl <= mz:
                    continue
                ordered = sorted(mz)
                if len(cl) == 1:
                    ab = next(iter(cl))
                    cd = next(e for e in ordered if e != ab)
                    return ab[0], ab[1], cd[0], cd[1], False
                ab, cd = ordered
                return ab[0], ab[1], cd[0], cd[1], True
    return None


def _reference_case_f(c):
    if c.n != 5 or len(c.used_colors) != 4:
        return None
    template = sporadic("TW-case-f")
    template_classes = [template.edges_in_color(col) for col in range(1, template.k + 1)]
    for perm in permutations(range(5)):
        assigned = set()
        for template_class in template_classes:
            cols = {c.color_of(perm[i], perm[j]) for i, j in template_class}
            if len(cols) != 1 or cols & assigned:
                break
            assigned |= cols
        else:
            return perm
    return None


_REFERENCE_CASES = {
    "a": _reference_case_a,
    "b": _reference_case_b,
    "c": _reference_case_c,
    "d": _reference_case_d,
    "e": _reference_case_e,
    "f": _reference_case_f,
}


def _reference_witnesses(c):
    found = {name: fn(c) for name, fn in _REFERENCE_CASES.items()}
    return {name: w for name, w in found.items() if w is not None}


def _relabeled(rng, c):
    vperm = list(range(c.n))
    rng.shuffle(vperm)
    cperm = list(range(1, c.k + 1))
    rng.shuffle(cperm)
    return c.permuted(vperm, [0] + cperm)


# Rainbow-path-free builder outputs of order 5..9.
_BUILDER_SPECS = (
    [("G3", {"t": t}) for t in range(5, 10)]
    + [
        ("G4", {"a": a, "t": t, "k": k})
        for a, t, ks in ((3, 4, (2, 3)), (4, 3, (2, 3, 4)), (5, 3, (2, 5)))
        for k in ks
    ]
    + [("G5", {"t": t, "k": k}) for t in range(5, 10) for k in range(2, t + 1, 2)]
    + [("G6", {"max_degree": d, "k": k}) for d, k in ((4, 3), (5, 4), (7, 5), (8, 5))]
    + [("F1", {"t": t}) for t in (6, 8)]
    + [("F2", {"t": t}) for t in range(5, 10)]
    + [("F3", {}), ("F11", {}), ("TW-case-f", {})]
)


def _with_special(n, k, special, rest=1):
    """K_n in color ``rest`` except the edges listed in ``special``."""
    return ColoredComplete.from_edge_triples(
        n, k, [(i, j, special.get((i, j), rest)) for i, j in pairs(n)]
    )


def _hand_made(rng):
    """One coloring per hard-to-hit witness shape."""
    e_shape = {(0, 2): 3, (1, 3): 3, (0, 3): 4, (1, 2): 4}
    yield _with_special(6, 4, {**e_shape, (0, 1): 2})
    yield _with_special(6, 4, {**e_shape, (0, 1): 2, (2, 3): 2})
    yield _relabeled(rng, _with_special(8, 4, {**e_shape, (0, 1): 2}))
    yield _relabeled(rng, _with_special(8, 4, {**e_shape, (0, 1): 2, (2, 3): 2}))
    d_shape = {(2, 4): 2, (2, 5): 3, (4, 5): 4}
    yield _with_special(7, 4, d_shape)
    yield _with_special(7, 4, {**d_shape, (0, 2): 4, (2, 6): 4})
    yield _relabeled(rng, _with_special(9, 4, {**d_shape, (1, 2): 4, (2, 3): 4, (2, 8): 4}))
    yield ColoredComplete.constant(6, 3, 2)
    yield _relabeled(rng, sporadic("TW-case-f"))


def _differential_inputs():
    """Seeded random colorings, relabeled builder outputs, every enumerated
    class at n 5..9 and k 4..7, and the hand-made shapes."""
    rng = random.Random(9801)
    for _ in range(2000):
        yield _random_coloring(rng, 5, 9)
    for name, params in _BUILDER_SPECS:
        base = build_named(name, params)
        for _ in range(3):
            yield _relabeled(rng, base)
    for n in range(5, 10):
        for k in range(4, 8):
            yield from enumerate_p5free(n, k)
    yield from _hand_made(rng)


class TestWitnessDifferential:
    def test_witnesses_match_edge_list_reference(self):
        for c in _differential_inputs():
            assert classify_p5free(c).witnesses == _reference_witnesses(c), c

    def test_hand_made_shapes_hit_their_case(self):
        e_false, e_true, _, _, d_plain, d_extra, _, constant, case_f = _hand_made(
            random.Random(9801)
        )
        assert _reference_witnesses(e_false)["e"] == (0, 1, 2, 3, False)
        assert _reference_witnesses(e_true)["e"] == (0, 1, 2, 3, True)
        assert _reference_witnesses(d_plain)["d"][:3] == (2, 4, 5)
        assert len(_reference_witnesses(d_extra)["d"][3]) == 3
        assert _reference_witnesses(constant)["c"] == (0, 2)
        assert set(_reference_witnesses(case_f)) == {"f"}

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


def _relabeled(rng, c):
    vperm = list(range(c.n))
    rng.shuffle(vperm)
    cperm = [0] + rng.sample(range(1, c.k + 1), c.k)
    return c.permuted(vperm, cperm)


def _block_coloring(rng, n, k):
    """A random vertex partition, one color inside each part and one
    between each pair of parts."""
    parts = rng.randint(1, n)
    part = [rng.randrange(parts) for _ in range(n)]
    inner = [rng.randint(1, k) for _ in range(parts)]
    between = {pq: rng.randint(1, k) for pq in pairs(parts)}
    colors = []
    for i, j in pairs(n):
        a, b = sorted((part[i], part[j]))
        colors.append(inner[a] if a == b else between[(a, b)])
    return ColoredComplete(n, k, colors)


def _graph_coloring(n, edges):
    """Two colors: the given graph in color 2, its complement in color 1."""
    inside = {tuple(sorted(e)) for e in edges}
    return ColoredComplete(n, 2, [2 if e in inside else 1 for e in pairs(n)])


_GENERATORS = (
    structure._candidates_case_b,
    structure._candidates_case_c,
    structure._candidates_case_d,
    structure._candidates_case_e,
    structure._candidates_case_f,
)


class TestClassPartition:
    def test_classes_match_enumeration_and_candidate_keys(self):
        """Over the whole census, one class per key: the same count and key
        set as the enumeration and as keying every generator candidate."""
        for n in range(5, 10):
            for k in range(4, 13):
                classes = p5free_classes(n, k)
                reps = enumerate_p5free(n, k)
                keys = {cls.key for cls in classes}
                assert len(classes) == len(keys) == len(reps), (n, k)
                assert keys == {canonical_form(c) for c in reps}, (n, k)
                candidates = [c for gen in _GENERATORS for c in gen(n, k)]
                assert keys == {canonical_form(c) for c in candidates}, (n, k)
                assert all(cls.key == canonical_form(cls.member) for cls in classes)

    def test_merge_partitions_as_keying_every_candidate(self, monkeypatch):
        """Over the census, ``_merge_isomorphic`` picks one member from each
        group of candidates sharing a key, the first one generated, and keys
        none of them: the edge-degree invariant splits every shared
        coloring invariant."""
        keyed = []
        real_key = structure.canonical_form
        rng = random.Random(1616)
        for n in range(5, 10):
            for k in range(4, 13):
                candidates = [c for gen in _GENERATORS for c in gen(n, k)]
                groups: dict[bytes, list] = {}
                for c in candidates:
                    groups.setdefault(canonical_form(c), []).append(c)
                monkeypatch.setattr(
                    structure, "canonical_form", lambda c: keyed.append(c) or real_key(c)
                )
                classes = structure._merge_isomorphic(candidates)
                monkeypatch.setattr(structure, "canonical_form", real_key)
                assert len(classes) == len(groups), (n, k)
                assert {cls.member for cls in classes} == {g[0] for g in groups.values()}
                # relabeled copies land in their originals' classes
                copies = [_relabeled(rng, c) for c in candidates[::7]]
                merged = structure._merge_isomorphic(candidates + copies)
                assert [cls.member for cls in merged] == [cls.member for cls in classes]
        assert keyed == []

    def test_invariant_survives_relabeling_1000(self):
        rng = random.Random(1515)
        for trial in range(1000):
            if trial % 2:
                c = _random_coloring(rng, 2, 9, 1, 6)
            else:
                c = _block_coloring(rng, rng.randint(2, 9), rng.randint(1, 6))
            assert coloring_invariant(_relabeled(rng, c)) == coloring_invariant(c)

    def test_equal_invariants_stay_apart(self):
        """A hexagon and two triangles in color 2 (complements: 3-regular in
        color 1) share the invariant but are not isomorphic."""
        hexagon = _graph_coloring(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = _graph_coloring(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert coloring_invariant(hexagon) == coloring_invariant(triangles)
        classes = structure._merge_isomorphic([hexagon, triangles])
        assert [cls.member for cls in classes] == [hexagon, triangles]
        assert classes[0].key != classes[1].key

    def test_relabeled_copies_merge(self):
        rng = random.Random(7)
        c = sporadic("F3")
        classes = structure._merge_isomorphic([c, _relabeled(rng, c), _relabeled(rng, c)])
        assert len(classes) == 1
        assert classes[0].member == c
        assert classes[0].key == canonical_form(c)


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
