"""Structure classification and guided enumeration."""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, groupby, permutations, product

import pytest

import gallai
from gallai import structure
from gallai.canonical import canonical_form
from gallai.constructions import build_named, sporadic
from gallai.detectors import find_mono_copy, find_rainbow_path
from gallai.graphs import (
    ColoredComplete,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    edge_index,
    pairs,
)
from gallai.structure import (
    _CASES,
    TheoremViolation,
    classify_p4free,
    classify_p5free,
    enumerate_p5free,
    p5free_classes,
    parallel_map,
)
from golden import assert_rows


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
        c = ColoredComplete.from_edge_triples(6, 3, triples)
        rep = classify_p5free(c)
        assert "a" in rep.cases  # only 3 colors used
        assert "b" in rep.cases
        assert structure._case_b(structure._Host(c))

    def test_apex_case_c(self):
        # K6 in color 1 plus an apex with rainbow spokes
        triples = [(i, j, 1) for i in range(6) for j in range(i + 1, 6)]
        triples += [(i, 6, i + 2) for i in range(6)]
        rep = classify_p5free(ColoredComplete.from_edge_triples(7, 7, triples))
        assert "c" in rep.cases

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


def _reference_touched(c, col):
    return frozenset(v for e in c.edges_in_color(col) for v in e)


def _reference_case_b(c):
    used = sorted(c.used_colors)
    if len(used) < 2:
        return None
    for dom in used:
        sets = {j: _reference_touched(c, j) for j in used if j != dom}
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
        """The classifier holds a case exactly when the edge-list reference
        finds a witness for it."""
        for c in _differential_inputs():
            assert classify_p5free(c).cases == frozenset(_reference_witnesses(c)), c

    def test_hand_made_shapes_hit_their_case(self):
        shapes = list(_hand_made(random.Random(9801)))
        for c, case in zip(shapes, "eeeedddcf", strict=True):
            assert case in classify_p5free(c).cases, (case, c)
        e_false, e_true, _, _, d_plain, d_extra, _, constant, case_f = shapes
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


class TestCaseEFWitnesses:
    def test_every_witness_is_pinned(self):
        """On each of the 7247 hosts, (e) and (f) hold exactly when the
        edge-list reference finds a witness; 1836 hosts are (e), 107 (f)."""
        hits = {"e": 0, "f": 0}
        for c in _case_e_f_hosts():
            host = structure._Host(c)
            e, f = structure._case_e(host), structure._case_f(host)
            assert (e, f) == (
                _reference_case_e(c) is not None,
                _reference_case_f(c) is not None,
            ), c
            hits["e"] += e
            hits["f"] += f
        assert hits == {"e": 1836, "f": 107}


def _parts_shape(rng, n, k, sizes):
    """K_n in color 1 except disjoint parts of the given sizes on random
    vertices; part i holds a random nonempty set of its own edges in color
    i + 2."""
    vs = rng.sample(range(n), sum(sizes))
    special = {}
    for color, s in enumerate(sizes, start=2):
        part = sorted(vs[:s])
        del vs[:s]
        edges = list(combinations(part, 2))
        special.update(dict.fromkeys(rng.sample(edges, rng.randint(1, len(edges))), color))
    return _with_special(n, k, special)


def _recolored_once(rng, c):
    """c, or with one random edge in a random color of its palette: each
    half the time."""
    if rng.random() < 0.5:
        return c
    return c.recolored(*rng.sample(range(c.n), 2), rng.randint(1, c.k))


def _cheap_test_hosts():
    """Seeded hosts for the predicates' cheapest tests, by label:

    - "b5": a dominant color plus four part colors at n 8 and 9, five
      colors or more, relabeled and half of them recolored once;
    - "c5": a K_{n-1} plus an apex at vertex 0, 1, n-2 or n-1 with four
      spoke colors or more (five colors or more in all), colors renamed and
      half of them recolored once, so both of (c)'s candidate edges, 01 and
      (n-2)(n-1), are reached;
    - "v0": hosts whose vertex 0 sees exactly two colors, half of them
      built round a dominant color and half uniform off vertex 0;
    - "quad": four colors, two of them perfect matchings of one quad, the
      fourth on two or three edges not all inside that quad's third
      matching, relabeled.  Color 1 keeps three edges or more, so no class
      but the two matchings has two edges on one quad or is a lone edge:
      never (e)."""
    rng = random.Random(5040)
    for _ in range(600):
        n = rng.choice((8, 9))
        sizes = [2, 2, 2, rng.choice((2, 3))] if n == 9 else [2, 2, 2, 2]
        c = _recolored_once(rng, _relabeled(rng, _parts_shape(rng, n, rng.choice((5, 6)), sizes)))
        if len(c.used_colors) >= 5:
            yield "b5", c
    for _ in range(600):
        n, k = rng.randint(5, 9), rng.randint(5, 8)
        apex = rng.choice((0, 1, n - 2, n - 1))
        spokes = rng.sample(range(2, k + 1), 4) + [rng.randint(1, k) for _ in range(n - 5)]
        rng.shuffle(spokes)
        others = [v for v in range(n) if v != apex]
        special = {(min(v, apex), max(v, apex)): col for v, col in zip(others, spokes)}
        cperm = [0] + rng.sample(range(1, k + 1), k)
        c = _recolored_once(rng, _with_special(n, k, special).permuted(range(n), cperm))
        if len(c.used_colors) >= 5:
            yield "c5", c
    for i in range(1200):
        n = rng.randint(5, 9)
        if i % 2:
            k = rng.randint(2, 8)
            row = rng.sample(range(1, k + 1), 2)
            colors = [rng.choice(row) for _ in range(n - 1)]
            colors += [rng.randint(1, k) for _ in range(edge_count(n) - n + 1)]
            c = ColoredComplete(n, k, colors)
        else:
            sizes = [rng.randint(2, 3) for _ in range(rng.randint(1, n // 2))]
            while sum(sizes) > n:
                sizes.pop()
            c = _relabeled(rng, _parts_shape(rng, n, len(sizes) + rng.randint(1, 2), sizes))
            c = _recolored_once(rng, c)
        if len(set(c.colors[: n - 1])) == 2:
            yield "v0", c
    for _ in range(600):
        n = rng.randint(5, 9)
        q0, q1, q2, q3 = rng.sample(range(n), 4)
        matched = {(q0, q1): 2, (q2, q3): 2, (q0, q2): 3, (q1, q3): 3}
        special = {(min(e), max(e)): col for e, col in matched.items()}
        third = {(min(q0, q3), max(q0, q3)), (min(q1, q2), max(q1, q2))}
        rest = [e for e in pairs(n) if e not in special]
        fourth = rng.sample(rest, rng.randint(2, 3))
        if set(fourth) <= third:
            continue
        special.update(dict.fromkeys(fourth, 4))
        yield "quad", _relabeled(rng, _with_special(n, 4, special))


class TestCheapestTests:
    def test_hosts_match_reference_case_by_case(self):
        """On every host of ``_cheap_test_hosts`` the classifier holds a
        case exactly when the edge-list reference finds a witness for it;
        the hosts per label and the hits per label and case are pinned."""
        hosts = Counter()
        hits = Counter()
        for label, c in _cheap_test_hosts():
            want = _reference_witnesses(c)
            assert classify_p5free(c).cases == frozenset(want), (label, c)
            hosts[label] += 1
            hits.update(f"{label} {case}" for case in want)
            if label in ("b5", "c5"):
                assert len(c.used_colors) >= 5, c
            if label == "quad":
                assert len(c.used_colors) == 4 and "e" not in want, c
            if label == "c5" and "c" in want:
                apex = want["c"][0]
                hits["c5 apex at " + ("0, 1" if apex < 2 else "n-2, n-1")] += 1
        assert hosts == {"b5": 574, "c5": 566, "v0": 938, "quad": 591}
        assert hits == {
            "b5 b": 361,
            "c5 c": 392, "c5 apex at 0, 1": 214, "c5 apex at n-2, n-1": 178,
            "v0 a": 446, "v0 b": 397, "v0 c": 69,
        }


def _sized(rng, n, sizes):
    """A four-coloring of K_n whose classes 1..4 have the given sizes, the
    edges placed at random."""
    colors = [col for col, size in enumerate(sizes, start=1) for _ in range(size)]
    rng.shuffle(colors)
    return ColoredComplete(n, 4, colors)


def _size_gate_hosts():
    """Seeded four-color hosts on the edge of the class-size gates of (d),
    (e) and (f), by label:

    - "d": the (d) shape at n 5..9, whose colors 2 and 3 are lone edges,
      and the same with one more edge put into color 2 or 3, leaving one
      1-edge class; then random placements with two 1-edge classes against
      one;
    - "e": the (e) shape at n 5..9, with or without cd in the color of ab,
      and the same with one more edge put into color 3 or 4; then random
      placements with two 2-edge classes against one;
    - "f": relabeled copies of the (f) template and random K5 placements
      with sizes 1, 3, 3, 3, against the near misses 2, 2, 3, 3 and
      1, 2, 3, 4 and the template with one edge recolored.

    Every host is relabeled or placed at random, so vertex 0 often sees
    three colors and (b) builds no profile."""
    rng = random.Random(1443)
    d_shape = {(0, 1): 2, (0, 2): 3, (1, 2): 4}
    e_shape = {(0, 1): 2, (0, 2): 3, (1, 3): 3, (0, 3): 4, (1, 2): 4}
    for n in range(5, 10):
        m = edge_count(n)
        for _ in range(30):
            shape = {**d_shape, **dict.fromkeys([(0, v) for v in range(3, rng.randint(3, n))], 4)}
            yield "d", _relabeled(rng, _with_special(n, 4, shape))
            free = [e for e in pairs(n) if e not in shape]
            shape[rng.choice(free)] = rng.choice((2, 3))
            yield "d", _relabeled(rng, _with_special(n, 4, shape))
            low = rng.randint(3, m - 5)
            yield "d", _sized(rng, n, [1, 1, low, m - 2 - low])
            yield "d", _sized(rng, n, [1, 2, low, m - 3 - low])
        for _ in range(30):
            shape = dict(e_shape)
            if rng.random() < 0.5:
                shape[2, 3] = 2
            yield "e", _relabeled(rng, _with_special(n, 4, shape))
            free = [e for e in pairs(n) if e not in shape]
            shape[rng.choice(free)] = rng.choice((3, 4))
            yield "e", _relabeled(rng, _with_special(n, 4, shape))
            low = rng.randint(3, m - 7)
            yield "e", _sized(rng, n, [2, 2, low, m - 4 - low])
            yield "e", _sized(rng, n, [2, 3, low, m - 5 - low])
    template = sporadic("TW-case-f")
    for _ in range(40):
        yield "f", _relabeled(rng, template)
        yield "f", _relabeled(rng, template.recolored(*rng.sample(range(5), 2), rng.randint(1, 4)))
        for sizes in ([1, 3, 3, 3], [2, 2, 3, 3], [1, 2, 3, 4]):
            rng.shuffle(sizes)
            yield "f", _sized(rng, 5, sizes)


class TestSizeGates:
    def test_gated_hosts_match_reference(self, monkeypatch):
        """On every host of ``_size_gate_hosts`` the classifier holds a case
        exactly when the edge-list reference finds a witness for it.  The
        hosts, the hits and the color profiles built are pinned: a host that
        fails its case's size test builds none, so a dropped gate raises the
        count."""
        built = []
        profile = structure._color_profile
        monkeypatch.setattr(structure, "_color_profile", lambda c: built.append(c) or profile(c))
        hosts = Counter()
        hits = Counter()
        for label, c in _size_gate_hosts():
            want = _reference_witnesses(c)
            assert classify_p5free(c).cases == frozenset(want), (label, c)
            hosts[label] += 1
            hits.update(f"{label} {case}" for case in want)
        assert hosts == {"d": 600, "e": 600, "f": 200}
        assert hits == {"d d": 156, "d e": 3, "e e": 150, "f f": 49, "f a": 2}
        # every gate in place: 1,079; with any one of them dropped, 1,169 or
        # more
        assert len(built) == 1079


def _every_count_hosts():
    """Seeded colorings of K_n, n 5..9, that use exactly 1..8 colors, ten
    per order and count: each color placed on one edge, the rest drawn
    from the same colors."""
    rng = random.Random(4711)
    for n in range(5, 10):
        m = edge_count(n)
        for used in range(1, 9):
            for _ in range(10):
                colors = list(range(1, used + 1)) + [rng.randint(1, used) for _ in range(m - used)]
                rng.shuffle(colors)
                yield ColoredComplete(n, 8, colors)


def _count_gate_hosts():
    yield from _differential_inputs()
    for _, c in _size_gate_hosts():
        yield c
    yield from _every_count_hosts()


class TestCountGate:
    """``classify_p5free`` calls (a) only with three colors or fewer, and
    (d), (e) and (f) only with exactly four."""

    def _record_calls(self, monkeypatch):
        """Patch ``_CASES`` so that each predicate call appends its name to
        the list returned."""
        called = []
        monkeypatch.setattr(
            structure,
            "_CASES",
            tuple(
                (name, lambda h, name=name, holds=holds: called.append(name) or holds(h))
                for name, holds in _CASES
            ),
        )
        return called

    def test_skipped_predicates_fail_on_their_own(self, monkeypatch):
        """Every predicate the gate skips returns False when called directly:
        the gate changes no answer."""
        called = self._record_calls(monkeypatch)
        skipped = set()
        for c in _count_gate_hosts():
            called.clear()
            classify_p5free(c)
            for name, holds in _CASES:
                if name not in called:
                    assert not holds(structure._Host(c)), (name, c)
                    skipped.add((name, c.used))
        # every count 1..9 is skipped past: (a) from four colors on, (d)-(f)
        # below four and above
        assert {used for name, used in skipped if name == "a"} == set(range(4, 10))
        for gated in "def":
            assert {used for name, used in skipped if name == gated} == set(range(1, 10)) - {4}

    def test_predicate_calls_pinned(self, monkeypatch):
        """The calls made over the hosts of ``_count_gate_hosts`` are pinned
        by predicate: a dropped gate raises a count."""
        called = self._record_calls(monkeypatch)
        used = Counter()
        for c in _count_gate_hosts():
            classify_p5free(c)
            used["<= 3" if c.used <= 3 else "4" if c.used == 4 else ">= 5"] += 1
        assert used == {"<= 3": 766, "4": 1987, ">= 5": 1380}
        # without the gate every predicate is called on all 4,133 hosts
        assert Counter(called) == {"a": 766, "b": 4133, "c": 4133, "d": 1987, "e": 1987, "f": 1987}


_RAINBOW_HOST = ColoredComplete(5, 10, tuple(range(1, 11)))
_PATH4 = (
    "Embedding(kind='rainbow_path', vertices=(3, 1, 0, 2, 4), color=None, "
    "edges=((1, 3), (0, 1), (0, 2), (2, 4)))"
)
_PATH3 = (
    "Embedding(kind='rainbow_path', vertices=(2, 0, 1, 3), color=None, "
    "edges=((0, 2), (0, 1), (1, 3)))"
)


class TestRecords:
    """``Embedding``, ``P4Report`` and ``StructureReport``: immutable
    records whose repr bytes, field order and JSON form are pinned."""

    def _records(self):
        mono = find_mono_copy(ColoredComplete.constant(5, 2).recolored(0, 1, 2), TargetGraph.complete(3))
        return {
            "path4": find_rainbow_path(_RAINBOW_HOST, 4),
            "mono": mono,
            "p5 rainbow": classify_p5free(_RAINBOW_HOST),
            "p5 f": classify_p5free(sporadic("TW-case-f")),
            "p4 rainbow": classify_p4free(ColoredComplete(4, 6, range(1, 7))),
            "p4 b": classify_p4free(ColoredComplete(4, 3, (1, 2, 3, 3, 2, 1))),
        }

    def test_repr_bytes(self):
        """Each report holds at most one case: a frozenset's repr order
        follows the string hash seed."""
        assert {name: repr(rec) for name, rec in self._records().items()} == {
            "path4": _PATH4,
            "mono": (
                "Embedding(kind='mono_copy', vertices=(0, 2, 3), color=1, "
                "edges=((0, 2), (0, 3), (2, 3)))"
            ),
            "p5 rainbow": f"StructureReport(cases=frozenset(), rainbow={_PATH4})",
            "p5 f": "StructureReport(cases=frozenset({'f'}), rainbow=None)",
            "p4 rainbow": f"P4Report(case=None, rainbow={_PATH3})",
            "p4 b": "P4Report(case='b', rainbow=None)",
        }

    def test_fields_are_read_only(self):
        fields = {
            "Embedding": ("kind", "vertices", "color", "edges"),
            "StructureReport": ("cases", "rainbow"),
            "P4Report": ("case", "rainbow"),
        }
        for rec in self._records().values():
            for name in fields[type(rec).__name__]:
                before = getattr(rec, name)
                with pytest.raises(AttributeError):
                    setattr(rec, name, None)
                assert getattr(rec, name) == before

    def test_records_are_tuples_of_their_fields(self):
        records = self._records()
        path = records["path4"]
        assert path == ("rainbow_path", (3, 1, 0, 2, 4), None, ((1, 3), (0, 1), (0, 2), (2, 4)))
        assert records["p5 f"] == (frozenset({"f"}), None)
        assert records["p4 rainbow"] == (None, find_rainbow_path(ColoredComplete(4, 6, range(1, 7)), 3))
        assert tuple(records["p5 rainbow"]) == (frozenset(), path)

    def test_embedding_json_form(self):
        records = self._records()
        assert json.dumps(records["path4"].to_json_dict()) == (
            '{"kind": "rainbow_path", "vertices": [3, 1, 0, 2, 4], "color": null, '
            '"edges": [[1, 3], [0, 1], [0, 2], [2, 4]]}'
        )
        assert json.dumps(records["mono"].to_json_dict()) == (
            '{"kind": "mono_copy", "vertices": [0, 2, 3], "color": 1, '
            '"edges": [[0, 2], [0, 3], [2, 3]]}'
        )


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
        """The one-pass test of case (b) holds exactly when the pairwise
        definition accepts some color of a profile with two colors or more.
        The profiles often have two such colors, and often a vertex touched
        three times next to a color touching every vertex touched twice or
        more, which only the three-times check refuses."""
        ties = thrice = 0
        for profile in _random_profiles():
            accepted = [dom for dom in profile if _leaves_disjoint(profile, dom)]
            want = bool(accepted) and len(profile) >= 2
            assert structure._has_dominant(profile) is want, profile
            ties += len(accepted) >= 2 and len(profile) >= 2
            masks = [touched for _, touched in profile.values()]
            times = [sum(t >> v & 1 for t in masks) for v in range(10)]
            shared = sum(1 << v for v, count in enumerate(times) if count >= 2)
            thrice += max(times) >= 3 and any(not shared & ~t for t in masks)
        assert ties >= 200 and thrice >= 200, (ties, thrice)


# Class counts of enumerate_p5free for n 5..9 and k 4..12; pairs not listed
# have no class.
_CENSUS = {
    (5, 4): 8, (5, 5): 1,
    (6, 4): 11, (6, 5): 2, (6, 6): 1,
    (7, 4): 17, (7, 5): 4, (7, 6): 2, (7, 7): 1,
    (8, 4): 32, (8, 5): 8, (8, 6): 4, (8, 7): 2, (8, 8): 1,
    (9, 4): 79, (9, 5): 15, (9, 6): 7, (9, 7): 4, (9, 8): 2, (9, 9): 1,
}


class TestEnumerate:
    def test_census_up_to_order_nine(self):
        """The class counts, and each pair's canonical keys in hex, in
        enumeration order."""
        counts = {}
        rows = []
        for n in range(5, 10):
            for k in range(4, 13):
                reps = enumerate_p5free(n, k)
                if reps:
                    counts[(n, k)] = len(reps)
                    rows.append((f"{n} {k}", " ".join(canonical_form(c).hex() for c in reps)))
        assert counts == _CENSUS
        assert_rows("census", rows)

    def test_min_degree_one_graphs_pinned(self):
        """One representative per isomorphism class of graphs without an
        isolated vertex (OEIS A002494: 0, 1, 2, 7, 23), with the exact
        representatives and their order pinned as golden rows; case (b)
        draws its parts from s <= 5."""
        graphs = [structure._graphs_min_deg1(s) for s in range(1, 6)]
        assert [len(g) for g in graphs] == [0, 1, 2, 7, 23]
        assert_rows("min_degree_one", [(str(s), repr(g)) for s, g in enumerate(graphs, 1)])

    def test_min_degree_one_graphs_distinct_at_order_six(self):
        """Past the pinned range, s = 6: 122 graphs (OEIS A002494), each with
        no isolated vertex, pairwise non-isomorphic by a route the generator
        does not take.  A graph is keyed as a 2-coloring of K_7: graph edges
        in color 2, non-edges in color 1, and an apex 6 joined to every
        vertex in color 1.  Isomorphic graphs give isomorphic colorings and
        so equal keys; 122 distinct keys therefore mean 122 classes.  The
        key is also exact: with no isolated vertex, every other vertex sees
        both colors, so the apex is the only vertex whose edges share one
        color, an isomorphism of two such colorings maps apex to apex and
        color 1 to color 1, and equal keys mean isomorphic graphs."""
        graphs = structure._graphs_min_deg1(6)
        assert len(graphs) == 122
        assert all({v for e in edges for v in e} == set(range(6)) for edges in graphs)
        keys = {
            canonical_form(ColoredComplete.constant(7, 2, 1, dict.fromkeys(edges, 2)))
            for edges in graphs
        }
        assert len(keys) == 122

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
        reported instead of silently dropped, on every call; the mended
        generators give the true classes again."""
        want = [c for gen in _GENERATORS for c in gen(5, 4)]
        monkeypatch.setattr(structure, "_candidates_case_f", lambda n, k: iter([bad]))
        for _ in range(2):
            with pytest.raises(TheoremViolation):
                enumerate_p5free(5, 4)
        monkeypatch.undo()
        assert p5free_classes(5, 4) == want


_GENERATORS = (
    structure._candidates_case_b,
    structure._candidates_case_c,
    structure._candidates_case_d,
    structure._candidates_case_e,
    structure._candidates_case_f,
)


def _reference_candidates_b(n, k):
    """Case (b) as first written: the part graphs listed anew for every run
    of equal part sizes in every size tuple."""
    groups = k - 1
    if 2 * groups > n:
        return
    for sizes in combinations_with_replacement(range(2, n - 2 * (groups - 1) + 1), groups):
        if sum(sizes) > n:
            continue
        per_run = (
            combinations_with_replacement(structure._graphs_min_deg1(s), len(list(run)))
            for s, run in groupby(sizes)
        )
        for combos in product(*per_run):
            special = {}
            offset = 0
            for color, (s, edges) in enumerate(zip(sizes, sum(combos, ())), start=2):
                for i, j in edges:
                    special[offset + i, offset + j] = color
                offset += s
            yield ColoredComplete.constant(n, k, 1, special)


def _reference_candidates_c(n, k):
    """Case (c) as first written: every multiset of k - 1 block counts from
    1..n - 1, kept when the counts sum to the apex edges left over."""
    for c1 in range(n - k + 1):
        for rest in combinations_with_replacement(range(1, n), k - 1):
            if c1 + sum(rest) != n - 1:
                continue
            spokes = [1] * c1
            for color, count in enumerate(rest, start=2):
                spokes += [color] * count
            yield ColoredComplete.constant(
                n, k, 1, {(v, n - 1): s for v, s in enumerate(spokes) if s != 1}
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

    def test_generators_match_references_past_the_window(self):
        """Cases (b) and (c) give their references' candidates, in the same
        order, up to n = 10, one order past ``MAX_ENUM_N``; at n = 10 the five
        generators give 304, 31, 13, 7, 4, 2, 1, 0 and 0 candidates over
        k = 4..12.  Nothing is keyed."""
        for n in range(5, 11):
            for k in range(4, 13):
                for generated, reference in (
                    (structure._candidates_case_b, _reference_candidates_b),
                    (structure._candidates_case_c, _reference_candidates_c),
                ):
                    assert list(generated(n, k)) == list(reference(n, k))
        counts = [sum(1 for gen in _GENERATORS for _ in gen(10, k)) for k in range(4, 13)]
        assert counts == [304, 31, 13, 7, 4, 2, 1, 0, 0]

    def test_spoke_counts_draw_nothing_to_discard(self, monkeypatch):
        """Case (c) lists its spoke counts directly: over the census it draws
        91 tuples, one per candidate, each k - 1 positive counts in
        nondecreasing order summing to the apex edges left over."""
        drawn = []
        spoke_counts = structure._spoke_counts

        def listed(total, parts):
            for rest in spoke_counts(total, parts):
                assert len(rest) == parts and sum(rest) == total
                assert list(rest) == sorted(rest) and rest[0] >= 1
                drawn.append(rest)
                yield rest

        monkeypatch.setattr(structure, "_spoke_counts", listed)
        candidates = sum(
            1 for n in range(5, 10) for k in range(4, 13) for _ in structure._candidates_case_c(n, k)
        )
        assert len(drawn) == candidates == 91

    def test_member_colorings_pinned(self):
        """The member colorings themselves, in generation order, over the
        whole census: 202 members, the golden rows recorded before the
        generators shared a candidate writer."""
        classes = {(n, k): p5free_classes(n, k) for n in range(5, 10) for k in range(4, 13)}
        assert sum(map(len, classes.values())) == 202
        assert_rows(
            "members",
            [(f"{n} {k}", repr([c.colors for c in cs])) for (n, k), cs in classes.items()],
        )


class TestClassTable:
    def test_returned_list_is_a_fresh_copy(self):
        first = p5free_classes(6, 4)
        want = list(first)
        first[0] = ColoredComplete.constant(6, 4)
        first.reverse()
        p5free_classes(6, 4).clear()
        assert p5free_classes(6, 4) == want

    def test_every_call_generates_and_guards(self, monkeypatch):
        """``structure`` keeps no table: each call runs the rainbow guard on
        every class again, and generates the part graphs of case (b) again,
        once per part size, as many times on a second call as on the first."""
        guarded = []
        monkeypatch.setattr(
            structure, "find_rainbow_path", lambda c, m: guarded.append(c) or find_rainbow_path(c, m)
        )
        want = p5free_classes(6, 5)
        assert p5free_classes(6, 5) == want
        assert guarded == want + want
        # one part graph list per size s = 2..5, each mapping every edge of
        # K_s under all s! permutations anew
        parts, images = [], []
        generate, index = structure._graphs_min_deg1, structure.edge_index
        monkeypatch.setattr(structure, "_graphs_min_deg1", lambda s: parts.append(s) or generate(s))
        monkeypatch.setattr(structure, "edge_index", lambda i, j, s: images.append(s) or index(i, j, s))
        counts = []
        for _ in range(2):
            del parts[:], images[:]
            p5free_classes(9, 4)
            counts.append((len(parts), len(images)))
        assert counts == [(4, 2 + 18 + 144 + 1200)] * 2


class TestParallelHelpers:
    def test_helpers_are_not_exported(self):
        assert not {"parallel_map", "resolve_threads"} & set(gallai.__all__)
        assert not hasattr(gallai, "parallel_map") and not hasattr(gallai, "resolve_threads")

    def test_parallel_map_preserves_order(self):
        items = list(range(100))
        assert parallel_map(lambda x: x * x, items, 4) == [x * x for x in items]
        assert parallel_map(lambda x: x * x, items, 1) == [x * x for x in items]
