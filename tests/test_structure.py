"""Structure classification and guided enumeration."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

import pytest

from gallai import structure
from gallai.canonical import canonical_form
from gallai.constructions import build_named, sporadic
from gallai.detectors import find_rainbow_path
from gallai.graphs import ColoredComplete, UnsupportedSizeError, edge_count, edge_index, pairs
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
    cperm = [0] + rng.sample(range(1, c.k + 1), c.k)
    return c.permuted(vperm, cperm)


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


def _case_e_f_hosts():
    """Seeded hosts for the (e) and (f) predicates: K5 four-colorings with
    the template's class sizes (1, 3, 3, 3) in random places, relabeled
    template copies, order 5..8 four-colorings round a random quad's three
    matchings with up to two edges then recolored at random, uniform order
    5..7 four-colorings, and a relabeling of every class at k = 4."""
    rng = random.Random(2020)
    sizes = [1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    for _ in range(3000):
        rng.shuffle(sizes)
        yield ColoredComplete(5, 4, sizes)
    template = sporadic("TW-case-f")
    for _ in range(100):
        yield _relabeled(rng, template)
    for _ in range(3000):
        n = rng.randint(5, 8)
        q0, q1, q2, q3 = rng.sample(range(n), 4)
        special = [(q0, q1, 2), (q0, q2, 3), (q1, q3, 3), (q0, q3, 4), (q1, q2, 4)]
        if rng.random() < 0.5:
            special.append((q2, q3, 2))
        for _ in range(rng.choice((0, 0, 1, 2))):
            special.append((*rng.sample(range(n), 2), rng.randint(1, 4)))
        cols = [1] * edge_count(n)
        for i, j, col in special:
            cols[edge_index(min(i, j), max(i, j), n)] = col
        yield _relabeled(rng, ColoredComplete(n, 4, cols))
    for _ in range(1000):
        n = rng.randint(5, 7)
        yield ColoredComplete(n, 4, [rng.randint(1, 4) for _ in range(edge_count(n))])
    for n in range(5, 10):
        for c in enumerate_p5free(n, 4):
            yield _relabeled(rng, c)


# sha256 over repr((_case_e, _case_f)) on every host of _case_e_f_hosts,
# recorded before either predicate stopped building edge sets or trying
# every vertex permutation; 1836 (e) and 107 (f) witnesses among 7247 hosts.
_CASE_E_F_SHA256 = "47d505b80cf6e3f531bd58597579617b28c34123d3377ddd773fb4640c061c45"


class TestCaseEFWitnesses:
    def test_every_witness_is_pinned(self):
        digest = hashlib.sha256()
        hits = {"e": 0, "f": 0}
        for c in _case_e_f_hosts():
            profile = structure._color_profile(c)
            e, f = structure._case_e(c, profile), structure._case_f(c, profile)
            hits["e"] += e is not None
            hits["f"] += f is not None
            digest.update(repr((e, f)).encode())
        assert hits == {"e": 1836, "f": 107}
        assert digest.hexdigest() == _CASE_E_F_SHA256


def _leaves_disjoint(profile, dom):
    """Whether the touched masks of the colors other than dom are pairwise
    disjoint: the definition of case (b), one pair at a time."""
    others = [touched for col, (_, touched) in profile.items() if col != dom]
    return all(not s & t for s, t in combinations(others, 2))


def _random_profiles():
    """Seeded ``{color: (edge count, touched mask)}`` profiles in shuffled
    color order: half with touched masks drawn at random, half built round a
    dominant mask, with the other colors on disjoint vertex sets that a few
    extra vertices then overlap."""
    rng = random.Random(6174)
    for i in range(4000):
        n = rng.randint(2, 10)
        cols = rng.sample(range(1, 13), rng.randint(1, 6))
        if i % 2:
            masks = [rng.getrandbits(n) or 1 for _ in cols]
        else:
            owner = [rng.randrange(len(cols)) for _ in range(n)]
            masks = [sum(1 << v for v in range(n) if owner[v] == j) for j in range(len(cols))]
            masks[0] = (1 << n) - 1 if rng.random() < 0.5 else masks[0] | rng.getrandbits(n)
            for _ in range(rng.randint(0, 2)):
                masks[rng.randrange(len(cols))] |= 1 << rng.randrange(n)
        yield {col: (rng.randint(1, 9), mask) for col, mask in zip(cols, masks)}


class TestDominantColor:
    def test_one_pass_matches_pairwise_definition(self):
        """The one-pass test names the first color in profile order that the
        pairwise definition accepts, or None.  The profiles often have two
        such colors, and often a vertex touched three times next to a color
        touching every vertex touched twice or more, which only the
        three-times check refuses."""
        ties = thrice = 0
        for profile in _random_profiles():
            accepted = [dom for dom in profile if _leaves_disjoint(profile, dom)]
            want = accepted[0] if accepted and len(profile) >= 2 else None
            assert structure._dominant_color(profile) == want, profile
            ties += len(accepted) >= 2 and len(profile) >= 2
            masks = [touched for _, touched in profile.values()]
            times = [sum(t >> v & 1 for t in masks) for v in range(10)]
            shared = sum(1 << v for v, count in enumerate(times) if count >= 2)
            thrice += max(times) >= 3 and any(not shared & ~t for t in masks)
        assert ties >= 200 and thrice >= 200, (ties, thrice)

    def test_first_of_two_dominant_colors_wins(self):
        assert structure._dominant_color({3: (1, 0b11), 5: (1, 0b11)}) == 3
        assert structure._dominant_color({5: (1, 0b11), 3: (1, 0b11)}) == 5
        assert structure._dominant_color({2: (3, 0b111)}) is None


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
                keys = {canonical_form(c) for c in classes}
                assert len(classes) == len(keys) == len(reps), (n, k)
                assert keys == {canonical_form(c) for c in reps}, (n, k)
                candidates = [c for gen in _GENERATORS for c in gen(n, k)]
                assert keys == {canonical_form(c) for c in candidates}, (n, k)
                assert all(c.exact and (c.n, c.k) == (n, k) for c in classes)

    def test_classes_are_the_candidates_in_generation_order(self):
        """Over the whole census, the classes are the generators' candidates
        as they are: none dropped, none reordered."""
        for n in range(5, 10):
            for k in range(4, 13):
                candidates = [c for gen in _GENERATORS for c in gen(n, k)]
                assert p5free_classes(n, k) == candidates, (n, k)


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
