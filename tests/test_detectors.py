"""Rainbow path search, monochromatic embedding search, and their laws."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest

from gallai import detectors, graphs, structure
from gallai.constructions import BUILDERS, blowup, build_named, construction_grid
from gallai.detectors import (
    MONO_COPY,
    Embedding,
    _matching_with_pairs,
    find_mono_copy_generic,
    _rainbow_path,
    find_mono_copy,
    find_mono_copy_in_color,
    find_rainbow_path,
    mono_copy_at,
)
from gallai.graphs import (
    FAMILY_COMPLETE,
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    ColoredComplete,
    SearchState,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    find_clique,
    parse_hspec,
    render_hspec,
)
from gallai.structure import enumerate_p5free, p5free_classes
from golden import assert_rows

C5 = '{"order":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'


def _random_coloring(rng, n_min=2, n_max=8, k_max=6):
    n = rng.randint(n_min, n_max)
    k = rng.randint(1, k_max)
    colors = tuple(rng.randint(1, k) for _ in range(edge_count(n)))
    return ColoredComplete(n, k, colors)


def _brute_force_rainbow(c, m):
    """Reference: scan every vertex sequence of length m+1, on a color
    matrix filled from the flat color tuple in pair order."""
    n = c.n
    color = [[0] * n for _ in range(n)]
    for (i, j), col in zip(itertools.combinations(range(n), 2), c.colors):
        color[i][j] = color[j][i] = col
    for verts in itertools.permutations(range(n), m + 1):
        if verts[0] < verts[-1] and len({color[a][b] for a, b in zip(verts, verts[1:])}) == m:
            return True
    return False


def _brute_force_mono(c, H, color):
    """Reference: try every injective vertex map."""
    from itertools import permutations

    h_edges = H.edges
    t = H.t
    if t > c.n:
        return False
    for img in permutations(range(c.n), t):
        if all(c.color_of(img[a], img[b]) == color for a, b in h_edges):
            return True
    return False


def _brute_force_matching(edges):
    """Reference: the largest of all matchings, enumerated by taking or
    skipping each edge in turn with the used vertices as a bitmask."""

    def best(idx, used):
        if idx == len(edges):
            return 0
        skip = best(idx + 1, used)
        i, j = edges[idx]
        if used >> i & 1 or used >> j & 1:
            return skip
        return max(skip, 1 + best(idx + 1, used | 1 << i | 1 << j))

    return best(0, 0)


class TestRainbowPath:
    def test_embedding_is_checked(self):
        c = ColoredComplete.from_edge_triples(
            5,
            4,
            (
                (0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4),
                (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 3, 1), (1, 4, 1), (2, 4, 1),
            ),
        )
        emb = find_rainbow_path(c, 4)
        assert emb is not None
        vs = emb.vertices
        assert emb.edges == tuple(tuple(sorted(e)) for e in zip(vs, vs[1:]))
        assert len({c.color_of(*e) for e in emb.edges}) == 4
        assert len(set(emb.vertices)) == 5

    def test_none_on_two_colors(self):
        """<= m-1 colors cannot host an m-edge rainbow path."""
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(5, 7)
            colors = tuple(rng.randint(1, 3) for _ in range(edge_count(n)))
            c = ColoredComplete(n, 8, colors)
            assert find_rainbow_path(c, 4) is None

    def test_agrees_with_brute_force_2000(self):
        rng = random.Random(314)
        for _ in range(2000):
            c = _random_coloring(rng, n_min=4, n_max=7)
            for m in (3, 4):
                if m > c.n - 1:
                    continue
                got = find_rainbow_path(c, m)
                want = _brute_force_rainbow(c, m)
                assert (got is not None) == want

    def test_m_bounds(self):
        c = ColoredComplete.constant(5, 2)
        with pytest.raises(ValueError):
            find_rainbow_path(c, 0)
        with pytest.raises(ValueError):
            find_rainbow_path(c, 5)
        with pytest.raises(ValueError):
            find_rainbow_path(ColoredComplete(4, 6, range(1, 7)), 4)
        k7 = ColoredComplete(7, 21, range(1, 22))
        for m in (2, 5):
            with pytest.raises(ValueError):
                find_rainbow_path(k7, m)


def _palette_biased_colorings():
    """n 5..9, k 4..7, 90% of the edges from a random three-color
    sub-palette: about 40% of these hold no rainbow 4-edge path."""
    rng = random.Random(4242)
    for _ in range(1500):
        n, k = rng.randint(5, 9), rng.randint(4, 7)
        sub = rng.sample(range(1, k + 1), 3)
        colors = [
            rng.choice(sub) if rng.random() < 0.9 else rng.randint(1, k)
            for _ in range(edge_count(n))
        ]
        yield ColoredComplete(n, k, colors)


def _grid_colorings():
    for row in construction_grid():
        c = build_named(row["name"], row["params"])
        if c.n >= 5:
            yield c


def _relabeled_builder_outputs():
    """Three seeded vertex-and-color relabelings of every distinct builder
    output of order 5..9 over small parameters."""
    ranges = {"t": range(1, 10), "k": range(1, 10), "a": range(1, 7),
              "r": range(0, 5), "max_degree": range(1, 10)}
    rng = random.Random(99)
    seen = set()
    for name, (_, needed) in BUILDERS.items():
        for values in itertools.product(*(ranges[p] for p in needed)):
            try:
                c = build_named(name, dict(zip(needed, values)))
            except ValueError:
                continue
            if not 5 <= c.n <= 9 or c in seen:
                continue
            seen.add(c)
            for _ in range(3):
                vperm = list(range(c.n))
                rng.shuffle(vperm)
                cperm = list(range(1, c.k + 1))
                rng.shuffle(cperm)
                yield c.permuted(vperm, [0] + cperm)


_SCAN_SETS = {
    "palette-biased": _palette_biased_colorings,
    "grid": _grid_colorings,
    "relabeled-builders": _relabeled_builder_outputs,
}


class TestRainbowP5Scan:
    @pytest.mark.parametrize("name", list(_SCAN_SETS))
    def test_agrees_with_direct_scan(self, name):
        """The scan finds a path exactly when an independent reference does,
        for both path lengths, and hands it out smaller end first."""
        for c in _SCAN_SETS[name]():
            # The reference walks every vertex sequence; past order 12
            # it takes too long.
            if c.n > 12:
                continue
            for m in (3, 4):
                emb = find_rainbow_path(c, m)
                assert (emb is not None) == _brute_force_rainbow(c, m), (m, c.colors)
                if emb is not None:
                    assert emb.vertices[0] < emb.vertices[-1]

    def test_rainbow_four_cycle_is_no_path(self):
        """0-1-2-3-0 is a rainbow 4-cycle in a coloring with no rainbow
        4-edge path: a scan that let both path ends be the same single
        vertex would report a path here."""
        c = ColoredComplete(5, 4, (1, 1, 4, 3, 2, 3, 4, 3, 4, 1))
        assert not _brute_force_rainbow(c, 4)
        assert find_rainbow_path(c, 4) is None

    def test_shared_end_takes_the_other_vertex(self):
        """The first hit is mid 0, b 1, d 2 with end vertices {3, 4} at b
        (color 3) and {3} at d (color 4).  The lowest end at b is the only
        end at d, so the path must take 4 at b."""
        c = ColoredComplete(5, 4, (1, 2, 1, 1, 2, 3, 3, 4, 1, 1))
        emb = find_rainbow_path(c, 4)
        assert emb is not None and emb.vertices == (3, 2, 0, 1, 4)

    def test_three_perfect_matchings_hold_no_three_path(self):
        """K4 split into three perfect matchings: every 3-edge path uses
        two edges of one matching."""
        c = ColoredComplete(4, 3, (1, 2, 3, 3, 2, 1))
        assert not _brute_force_rainbow(c, 3)
        assert find_rainbow_path(c, 3) is None


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reference_rainbow_path(c, m):
    """The middle-vertex scan without pruning: every pair b < d around
    every middle vertex, in the order the pruned scan walks the survivors."""
    if len(c.used_colors) < m:
        return None
    n = c.n
    adj = c.adj
    if m == 3:
        full = (1 << n) - 1
        for mid in range(n):
            cm = [0 if v == mid else c.color_of(mid, v) for v in range(n)]
            for b, x in enumerate(cm):
                if not x:
                    continue
                at_b = adj[x][b] | 1 << b | 1 << mid
                for d, y in enumerate(cm):
                    if y and y != x and (ends := full & ~(at_b | adj[y][b] | 1 << d)):
                        a = next(_bits(ends))
                        return (a, b, mid, d) if a < d else (d, mid, b, a)
        return None
    around = [[(z, row[v]) for z, row in enumerate(adj) if row[v]] for v in range(n)]
    for mid in range(n):
        cm = [0] * n
        for x, mask in around[mid]:
            for v in _bits(mask):
                cm[v] = x
        for b in range(n - 1):
            x = cm[b]
            if not x:
                continue
            for d in range(b + 1, n):
                y = cm[d]
                if not y or y == x:
                    continue
                excl = ~(1 << b | 1 << mid | 1 << d)
                for z, z_mask in around[b]:
                    if z == x or z == y:
                        continue
                    ends_a = z_mask & excl
                    if not ends_a:
                        continue
                    for w, w_mask in around[d]:
                        if w == x or w == y or w == z:
                            continue
                        ends_e = w_mask & excl
                        if ends_e and not (ends_a == ends_e and ends_a & (ends_a - 1) == 0):
                            a = next(_bits(ends_a))
                            if ends_e == 1 << a:
                                a = next(_bits(ends_a & ~ends_e))
                            e = next(_bits(ends_e & ~(1 << a)))
                            return (a, b, mid, d, e) if a < e else (e, d, mid, b, a)
    return None


def _p5free_classes():
    for n in range(5, 10):
        for k in range(4, 8):
            yield from enumerate_p5free(n, k)


def _recolored_rainbow_free():
    """One seeded single-edge recoloring of every rainbow-free grid or
    builder coloring: hosts next to the rainbow-free ones, where the
    pruning drops most pairs and a path may still close."""
    rng = random.Random(1357)
    for source in (_grid_colorings, _relabeled_builder_outputs):
        for c in source():
            if _reference_rainbow_path(c, 4) is not None:
                continue
            i, j = sorted(rng.sample(range(c.n), 2))
            yield c.recolored(i, j, rng.randint(1, c.k))


def _palette_dense_colorings():
    """Seeded uniform colorings: n 5..12 with k 4..10, where most hosts hold
    a rainbow 4-edge path at middle vertex 0; n 5..9 with k 2..8 as in the
    benchmark's classify workload; and n = 6 with k = 4, where the path
    more often lies beyond the scan's first pair row."""
    rng = random.Random(2718)
    for n_min, n_max, k_min, k_max in ((5, 12, 4, 10), (5, 9, 2, 8), (6, 6, 4, 4)):
        for _ in range(600):
            n, k = rng.randint(n_min, n_max), rng.randint(k_min, k_max)
            yield ColoredComplete(n, k, [rng.randint(1, k) for _ in range(edge_count(n))])


def _four_color_k5_colorings():
    """Seeded uniform colorings of K5 with k 4..6, the first 600 that use
    exactly four colors: the order-5 hosts where the probe's row most often
    misses."""
    rng = random.Random(4096)
    kept = 0
    while kept < 600:
        k = rng.randint(4, 6)
        c = ColoredComplete(5, k, [rng.randint(1, k) for _ in range(edge_count(5))])
        if len(c.used_colors) == 4:
            yield c
            kept += 1


def _probe_outcome(c):
    """Which way the m = 4 scan's probe goes on c, read from the unpruned
    scan: "hit" when the path is in the probe's row (mid 0, b the lowest
    vertex with two colors), "miss" when it lies beyond, "free" when there
    is no path.  A host with a path uses four colors, so the probe runs on
    it."""
    path = _reference_rainbow_path(c, 4)
    if path is None:
        return "free"
    b = next(v for v in range(1, c.n) if sum(1 for row in c.adj if row[v]) > 1)
    mid, pair = path[2], {path[1], path[3]}
    return "hit" if mid == 0 and min(pair) == b else "miss"


def _row0_outcome(c):
    """Which way the m = 3 scan's first row, mid 0 read from the flat color
    tuple, goes on c, read from the unpruned scan: "hit" when its path has
    vertex 0 inside, "miss" when it lies beyond, "free" when there is no
    path.  The row around vertex 0 holds a path exactly when vertex 0 is an
    inner vertex of one, and the scan meets that row first."""
    path = _reference_rainbow_path(c, 3)
    if path is None:
        return "free"
    return "hit" if 0 in path[1:3] else "miss"


def _has_lone_edge(c):
    """Whether some vertex of c has two colors, one of them on a single
    edge: the hosts where the third pruning rule drops a pair."""
    for v in range(c.n):
        masks = [row[v] for row in c.adj if row[v]]
        if len(masks) == 2 and any(not mask & (mask - 1) for mask in masks):
            return True
    return False


def _lone_edge_hosts():
    """Up to three seeded single-edge recolorings of every class in
    _p5free_classes, kept when some vertex is left with two colors, one of
    them on a single edge: a recolored apex spoke or part edge, or an edge
    of the dominant color recolored at a vertex that had one color."""
    rng = random.Random(8128)
    for c in _p5free_classes():
        kept = 0
        for _ in range(12):
            i, j = rng.sample(range(c.n), 2)
            host = c.recolored(i, j, rng.randint(1, c.k))
            if _has_lone_edge(host):
                yield host
                kept += 1
                if kept == 3:
                    break


_DIFFERENTIAL_SETS = {
    **_SCAN_SETS,
    "p5free-classes": _p5free_classes,
    "recolored": _recolored_rainbow_free,
    "palette-dense": _palette_dense_colorings,
    "lone-edge": _lone_edge_hosts,
    "four-color-k5": _four_color_k5_colorings,
}

_GUARD_GENERATORS = (
    structure._candidates_case_b,
    structure._candidates_case_c,
    structure._candidates_case_d,
    structure._candidates_case_e,
    structure._candidates_case_f,
)


class TestPrunedScan:
    @pytest.mark.parametrize("name", list(_DIFFERENTIAL_SETS))
    def test_same_path_as_unpruned_scan(self, name):
        """The pruned scan returns the very tuple the unpruned one does,
        for both path lengths, on every order the grid holds (up to 40)."""
        for c in _DIFFERENTIAL_SETS[name]():
            for m in (3, 4):
                want = _reference_rainbow_path(c, m)
                assert _rainbow_path(c, m) == want, (name, m, c.n, c.k, c.colors)
                emb = find_rainbow_path(c, m)
                assert (None if emb is None else emb.vertices) == want

    def test_palette_dense_set_holds_each_probe_outcome(self):
        """The dense set reaches the probe's hit, a probe miss followed by a
        later hit, and hosts with no path, each many times."""
        outcomes = Counter(map(_probe_outcome, _palette_dense_colorings()))
        assert outcomes == {"hit": 1467, "miss": 128, "free": 205}, outcomes

    @pytest.mark.parametrize(
        "name, want",
        [
            ("palette-dense", {"hit": 1710, "miss": 1, "free": 89}),
            ("palette-biased", {"hit": 1473, "miss": 14, "free": 13}),
            ("four-color-k5", {"hit": 591, "miss": 9}),
        ],
        ids=["palette-dense", "palette-biased", "four-color-k5"],
    )
    def test_dense_sets_hold_each_row0_outcome(self, monkeypatch, name, want):
        """For m = 3 each set reaches a path in row 0 and a miss there
        followed by a later hit, and the first two hold hosts with no path;
        a miss is rare, so the three sets pin 24 between them.  The rows
        past row 0 are built exactly on the hosts whose row 0 holds no path
        and that use three colors or more."""
        rows = []
        color_rows = detectors.color_rows
        monkeypatch.setattr(detectors, "color_rows", lambda c: rows.append(c) or color_rows(c))
        outcomes = Counter()
        for c in _DIFFERENTIAL_SETS[name]():
            outcome = _row0_outcome(c)
            outcomes[outcome] += 1
            rows.clear()
            _rainbow_path(c, 3)
            assert len(rows) == (outcome != "hit" and c.used >= 3), (outcome, c)
        assert outcomes == want

    def test_probe_miss_keeps_its_b_for_later_middles(self):
        """The probe walks mid 0 with b = 1 and finds nothing; the first
        path of the scan then has b = 1 again, at middle vertex 2.  Only
        mid 0 may skip the probe's row."""
        c = ColoredComplete(6, 4, (2, 3, 4, 4, 3, 4, 3, 3, 4, 2, 3, 3, 1, 4, 3))
        assert _probe_outcome(c) == "miss"
        assert _reference_rainbow_path(c, 4) == (0, 1, 2, 4, 3)
        assert _rainbow_path(c, 4) == (0, 1, 2, 4, 3)

    def test_recolored_set_holds_paths_and_free_hosts(self):
        """The boundary set is not degenerate: some recolorings close a
        rainbow 4-edge path and some stay rainbow-free."""
        found = [_reference_rainbow_path(c, 4) is not None for c in _recolored_rainbow_free()]
        assert any(found) and not all(found)

    def test_lone_edge_set_holds_paths_and_free_hosts(self):
        """The hosts where the third rule fires hold a rainbow 4-edge path,
        and none, each many times."""
        found = Counter(_reference_rainbow_path(c, 4) is not None for c in _lone_edge_hosts())
        assert min(found[True], found[False]) >= 100, found

    def test_guard_candidates_skip_the_row_walk(self, monkeypatch):
        """Each of the 191 candidates that p5free_classes guards at n 5..9
        and k 4..6 has its probe's row, read from c.colors, walked and its
        pair table built; at least 155 are then found rainbow-free from the
        table alone, with no row of the color matrix walked past the
        probe's."""
        rows, tables = [], []
        color_rows, pair_table = detectors.color_rows, detectors._pair_table
        monkeypatch.setattr(detectors, "color_rows", lambda c: rows.append(c) or color_rows(c))
        monkeypatch.setattr(
            detectors, "_pair_table", lambda around: tables.append(around) or pair_table(around)
        )
        candidates = [
            c for n in range(5, 10) for k in range(4, 7)
            for gen in _GUARD_GENERATORS for c in gen(n, k)
        ]
        assert all(_rainbow_path(c, 4) is None for c in candidates)
        assert len(candidates) == len(tables) == 191
        assert len(candidates) - len(rows) >= 155, len(rows)

    @pytest.mark.parametrize("name", list(_DIFFERENTIAL_SETS))
    def test_one_color_test_picks_the_probe_b(self, monkeypatch, name):
        """A vertex v > 0 has one color exactly when its neighbours in the
        color of edge 0v, with v itself, are every vertex; and the probe's
        path test, the scan's first, takes mid 0 and b the lowest vertex
        past 0 with two colors."""
        firsts = []
        row_path = detectors._row_path
        monkeypatch.setattr(
            detectors,
            "_row_path",
            lambda adj, full, b, mid, *rest: firsts.append((b, mid))
            or row_path(adj, full, b, mid, *rest),
        )
        for c in _DIFFERENTIAL_SETS[name]():
            full = (1 << c.n) - 1
            one = [sum(1 for row in c.adj if row[v]) == 1 for v in range(1, c.n)]
            assert [c.adj[c.color_of(0, v)][v] | 1 << v == full for v in range(1, c.n)] == one
            if c.used >= 4:
                firsts.clear()
                _rainbow_path(c, 4)
                assert firsts[0] == (one.index(False) + 1, 0), (name, c)

    def test_color_lists_only_for_the_pair_table(self, monkeypatch):
        """A probe hit reads every color on the masks and builds no
        per-vertex color list.  A probe miss, or a host with four colors
        and no path, builds one list per vertex, all before the pair table
        and none after it; a host with fewer colors is not scanned.  The
        dense set reaches each case, and the 191 guard candidates are all
        rainbow-free hosts that the probe misses."""
        made, tables = [], []
        colors_at, pair_table = detectors._colors_at, detectors._pair_table
        monkeypatch.setattr(
            detectors, "_colors_at", lambda adj, v: made.append(v) or colors_at(adj, v)
        )
        monkeypatch.setattr(
            detectors, "_pair_table", lambda around: tables.append(len(made)) or pair_table(around)
        )
        candidates = [
            c for n in range(5, 10) for k in range(4, 7)
            for gen in _GUARD_GENERATORS for c in gen(n, k)
        ]
        outcomes = Counter()
        for source, hosts in (("dense", _palette_dense_colorings()), ("guard", candidates)):
            for c in hosts:
                outcome = _probe_outcome(c)
                made.clear()
                tables.clear()
                _rainbow_path(c, 4)
                if outcome != "hit" and c.used >= 4:
                    assert made == list(range(c.n)) and tables == [c.n], (outcome, c)
                else:
                    assert made == tables == [], (outcome, c)
                outcomes[source, outcome, bool(made)] += 1
        assert outcomes == {
            ("dense", "hit", False): 1467,
            ("dense", "miss", True): 128,
            ("dense", "free", True): 1,
            ("dense", "free", False): 204,
            ("guard", "free", True): 191,
        }, outcomes


class TestReverification:
    HOST = ColoredComplete(5, 10, tuple(range(1, 11)))

    @pytest.mark.parametrize(
        "m, path",
        [
            (4, (0, 1, 2, 3, 0)), (4, (0, 1, 2, 3, 5)), (4, (-1, 0, 1, 2, 3)),
            (4, (0, 1, 1, 2, 3)), (4, (0, 1, 2, 3)),
            (3, (0, 1, 2, 0)), (3, (0, 1, 2, 5)), (3, (-1, 0, 1, 2)),
            (3, (0, 1, 1, 2)), (3, (0, 1, 2)),
        ],
        ids=[
            name + suffix for suffix in ("", "-m3")
            for name in ("repeated-vertex", "vertex-outside-host", "negative-vertex", "loop", "short")
        ],
    )
    def test_bad_scan_result_raises(self, monkeypatch, m, path):
        monkeypatch.setattr(detectors, "_rainbow_path", lambda c, m: path)
        with pytest.raises(RuntimeError, match="failed re-verification"):
            find_rainbow_path(self.HOST, m)

    def test_repeated_color_raises(self, monkeypatch):
        c = self.HOST.recolored(2, 3, self.HOST.color_of(0, 1))
        monkeypatch.setattr(detectors, "_rainbow_path", lambda c, m: (0, 1, 2, 3, 4))
        with pytest.raises(RuntimeError, match="failed re-verification"):
            find_rainbow_path(c, 4)
        assert find_rainbow_path(self.HOST, 4).vertices == (0, 1, 2, 3, 4)

    def test_long_path_raises(self, monkeypatch):
        """A path of m + 2 vertices is no m-edge path, whether its m + 1
        edges have m + 1 colors or m."""
        monkeypatch.setattr(detectors, "_rainbow_path", lambda c, m: (0, 1, 2, 3, 4))
        for c in (self.HOST, self.HOST.recolored(3, 4, self.HOST.color_of(0, 1))):
            with pytest.raises(RuntimeError, match="failed re-verification"):
                find_rainbow_path(c, 3)

    def test_first_and_last_edge_colors_are_compared(self, monkeypatch):
        """The walk reads every edge: the first and the last sharing a color
        fail the re-check, in either direction of the path."""
        c = self.HOST.recolored(3, 4, self.HOST.color_of(0, 1))
        for path in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0)):
            monkeypatch.setattr(detectors, "_rainbow_path", lambda c, m: path)
            with pytest.raises(RuntimeError, match="failed re-verification"):
                find_rainbow_path(c, 4)
        monkeypatch.setattr(detectors, "_rainbow_path", lambda c, m: (0, 1, 2, 3))
        with pytest.raises(RuntimeError, match="failed re-verification"):
            find_rainbow_path(c.recolored(2, 3, c.color_of(0, 1)), 3)

    @pytest.mark.parametrize(
        "search, spec, found",
        [
            ("find_clique", "K3", [0, 1, 2]),
            ("find_clique", "K3", [2, 3, 5]),
            ("find_clique", "K3", [-1, 2, 3]),
            ("find_clique", "K3", [2, 2, 3]),
            ("find_clique", "K3", [2, 3]),
            # centre 2, the first of degree 4; its leaves 0 and 1 meet in color 2
            ("_matching_with_pairs", "S5^2", [0, 1, 3, 4]),
            # centre 0 with clique vertices 1 and 2: the edge 01 is in color 2
            ("find_clique", "PA4,3", [1, 2]),
            ("_generic", "K4-M", [0, 2, 1, 3]),
        ],
        ids=[
            "other-color", "vertex-outside-host", "negative-vertex", "repeated-vertex", "short",
            "matching", "centered-pineapple", "generic",
        ],
    )
    def test_bad_mono_search_result_raises(self, monkeypatch, search, spec, found):
        """A search result that is no monochromatic copy fails the re-check
        inside the detector: a clique search result for K_t, a matching
        search result for S_t^r, the vertices the search over centres builds
        around a clique search result for PA_{t,omega}, and a generic search
        result for K_t - M.  The host is K5 in color 1 but for the edge 01."""
        c = ColoredComplete.constant(5, 2, 1).recolored(0, 1, 2)
        monkeypatch.setattr(detectors, search, lambda *args: found)
        with pytest.raises(RuntimeError, match="failed re-verification"):
            find_mono_copy_in_color(c, parse_hspec(spec), 1)

    @pytest.mark.parametrize(
        "H, vs",
        [
            (TargetGraph.complete_minus_matching(2), [0, 5]),
            (TargetGraph.arbitrary(3, [(0, 1)]), [2, 3, -1]),
        ],
        ids=["no-edges", "isolated-vertex"],
    )
    def test_vertex_on_no_target_edge_is_checked(self, monkeypatch, H, vs):
        """Every vertex is range-checked, also one that no target edge
        reaches."""
        c = ColoredComplete.constant(5, 1)
        monkeypatch.setattr(detectors, "_generic", lambda state, H: vs)
        with pytest.raises(RuntimeError, match="failed re-verification"):
            find_mono_copy_in_color(c, H, 1)


def _reference_copy_at(c, vs, H):
    """Reference: vs are H.t distinct vertices of c and every edge of H
    maps to one color, read by ``color_of``."""
    if len(vs) != H.t or len(set(vs)) != len(vs) or not all(0 <= v < c.n for v in vs):
        return False
    return len({c.color_of(vs[i], vs[j]) for i, j in H.edges}) <= 1


class TestMonoCopyAt:
    """``mono_copy_at``, the re-check of every copy a search finds, which
    returns None on a miss; ``check_n`` tries each class on the last copy it
    found."""

    K3 = TargetGraph.complete(3)

    def test_hit_in_each_color(self):
        for color in range(1, 5):
            c = ColoredComplete.constant(6, 4, color)
            want = Embedding(MONO_COPY, (0, 2, 5), color, ((0, 2), (0, 5), (2, 5)))
            assert mono_copy_at(c, [0, 2, 5], self.K3) == want
            assert mono_copy_at(c, (0, 2, 5), self.K3, color) == want
            other = color % 4 + 1
            assert mono_copy_at(c, (0, 2, 5), self.K3, other) is None

    def test_miss_when_two_edges_differ(self):
        c = ColoredComplete.constant(5, 2, 1).recolored(1, 2, 2)
        for color in (None, 1, 2):
            assert mono_copy_at(c, (0, 1, 2), self.K3, color) is None
        assert mono_copy_at(c, (0, 1, 3), self.K3).color == 1

    @pytest.mark.parametrize(
        "vs",
        [(0, 1, 1), (0, 1, 5), (-1, 0, 1), (0, 1), (0, 1, 2, 3)],
        ids=["repeated-vertex", "vertex-outside-host", "negative-vertex", "short", "long"],
    )
    def test_bad_vertex_tuple_is_a_miss(self, monkeypatch, vs):
        c = ColoredComplete.constant(5, 1)
        assert mono_copy_at(c, vs, self.K3) is None
        monkeypatch.setattr(detectors, "find_clique", lambda state, start, size: list(vs))
        with pytest.raises(RuntimeError, match="failed re-verification"):
            find_mono_copy_in_color(c, self.K3, 1)

    def test_color_outside_palette_is_a_miss(self):
        """Colors 0, -1 and k + 1 hold no copy: none of them indexes the
        masks of another color or past the last one."""
        k = 4
        c = ColoredComplete.constant(6, k, k)
        assert mono_copy_at(c, (0, 2, 5), self.K3, k).color == k
        for color in (0, -1, k + 1):
            assert mono_copy_at(c, (0, 2, 5), self.K3, color) is None

    def test_edgeless_target(self):
        H = TargetGraph.arbitrary(3, [])
        c = ColoredComplete(4, 6, tuple(range(1, 7)))
        assert mono_copy_at(c, (3, 0, 2), H) == Embedding(MONO_COPY, (3, 0, 2), 1, ())
        assert mono_copy_at(c, (3, 0, 2), H, 5).color == 5
        for color in (0, -1, 7):
            assert mono_copy_at(c, (3, 0, 2), H, color) is None
        assert mono_copy_at(c, (3, 0, 3), H) is None
        assert mono_copy_at(c, (3, 0, 4), H) is None

    @pytest.mark.parametrize(
        "spec",
        ["S4^1", "S5^1", "K5", "PA6,5", "K6-M", C5],
        ids=["S4^1", "S5^1", "K5", "PA6,5", "K6-M", "C5"],
    )
    def test_agrees_with_checked_on_class_tables(self, spec):
        """Every embedding ``find_mono_copy`` returns over the classes at
        (9, 4), (8, 4) and (9, 5), checked by the entry, passes again in its
        own color and in the one its edges read, equal to itself; and on the
        next class, as ``check_n`` tries it, it is a copy exactly when the
        reference says."""
        H = parse_hspec(spec)
        found = hits = 0
        for n, k in ((9, 4), (8, 4), (9, 5)):
            classes = p5free_classes(n, k)
            for c, after in zip(classes, classes[1:] + classes[:1]):
                e = find_mono_copy(c, H)
                if e is None:
                    continue
                found += 1
                assert mono_copy_at(c, e.vertices, H, e.color) == e
                assert mono_copy_at(c, e.vertices, H) == e
                again = mono_copy_at(after, e.vertices, H)
                assert (again is not None) == _reference_copy_at(after, e.vertices, H)
                hits += again is not None
        assert found > 0 and 0 < hits < found


def _matching_sizes(c, color, allowed=None):
    """Whether ``_matching_with_pairs`` finds a matching of each size r,
    checking that every matching it returns is one, inside ``allowed``."""
    if allowed is None:
        allowed = (1 << c.n) - 1

    def finds(r):
        ends = _matching_with_pairs(SearchState(c.adj[color]), allowed, r)
        if ends is not None:
            assert len(ends) == 2 * r and len(set(ends)) == 2 * r
            assert all(allowed >> v & 1 for v in ends)
            assert all(c.color_of(u, w) == color for u, w in zip(ends[::2], ends[1::2]))
        return ends is not None

    return finds


class TestMaxMatching:
    def test_known_values(self):
        c = ColoredComplete.constant(6, 2, 1)
        finds = _matching_sizes(c, 1)
        assert finds(3) and not finds(4)
        finds = _matching_sizes(c, 2)
        assert finds(0) and not finds(1)

    def test_restricted_vertex_set(self):
        c = ColoredComplete.constant(6, 1)
        finds = _matching_sizes(c, 1, allowed=0b111)
        assert finds(1) and not finds(2)

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        for _ in range(300):
            c = _random_coloring(rng, n_min=3, n_max=7, k_max=3)
            for color in range(1, c.k + 1):
                best = _brute_force_matching(c.edges_in_color(color))
                finds = _matching_sizes(c, color)
                assert finds(best) and not finds(best + 1)


class TestMonoCopy:
    targets = [
        TargetGraph.complete(3),
        TargetGraph.complete(4),
        TargetGraph.star_plus(4, 1),
        TargetGraph.star_plus(5, 2),
        TargetGraph.star_plus(5, 0),
        TargetGraph.pineapple(5, 3),
        TargetGraph.complete_minus_matching(4),
        TargetGraph.arbitrary(4, [(0, 1), (1, 2), (2, 3)]),
    ]

    def test_fast_paths_agree_with_generic_2000(self):
        """Family-specific searches and the generic embedder must agree on
        existence for every target and color."""
        rng = random.Random(2718)
        trials = 0
        while trials < 2000:
            c = _random_coloring(rng, n_min=3, n_max=7, k_max=3)
            for H in self.targets:
                trials += 1
                color = rng.randint(1, c.k)
                got = find_mono_copy_in_color(c, H, color)
                want = _brute_force_mono(c, H, color)
                assert (got is not None) == want, (c, H, color)
                if got is not None:
                    vs = got.vertices
                    assert len(set(vs)) == H.t and got.color == color
                    assert got.edges == tuple(
                        tuple(sorted((vs[i], vs[j]))) for i, j in H.edges
                    )
                    assert all(c.color_of(*e) == color for e in got.edges)

    def test_monotone_under_color_merge_1000(self):
        """Recoloring an edge INTO color j never destroys a copy in color j."""
        rng = random.Random(161)
        for _ in range(1000):
            c = _random_coloring(rng, n_min=4, n_max=6, k_max=3)
            H = self.targets[rng.randrange(len(self.targets))]
            color = rng.randint(1, c.k)
            if find_mono_copy_in_color(c, H, color) is None:
                continue
            i = rng.randrange(c.n)
            j = rng.randrange(c.n)
            if i == j:
                continue
            d = c.recolored(i, j, color)
            assert find_mono_copy_in_color(d, H, color) is not None

    def test_invariant_under_isomorphism_500(self):
        rng = random.Random(55)
        for _ in range(500):
            c = _random_coloring(rng, n_min=4, n_max=6, k_max=3)
            H = self.targets[rng.randrange(len(self.targets))]
            color = rng.randint(1, c.k)
            perm = list(range(c.n))
            rng.shuffle(perm)
            d = c.permuted(tuple(perm))
            got_c = find_mono_copy_in_color(c, H, color) is not None
            got_d = find_mono_copy_in_color(d, H, color) is not None
            assert got_c == got_d

    def test_any_color_scan(self):
        c = ColoredComplete.constant(4, 2, 2)
        H = TargetGraph.complete(3)
        emb = find_mono_copy(c, H)
        assert emb is not None and emb.color == 2

    def test_target_larger_than_host(self):
        c = ColoredComplete.constant(4, 1)
        assert find_mono_copy_in_color(c, TargetGraph.complete(5), 1) is None

    def test_color_out_of_range(self):
        c = ColoredComplete.constant(4, 2)
        with pytest.raises(ValueError):
            find_mono_copy_in_color(c, TargetGraph.complete(3), 3)

    def test_edgeless_target_embeds_trivially(self):
        """An edgeless target, arbitrary or K2-M, maps onto the host's
        lowest vertices in every color, used or not."""
        c = ColoredComplete(4, 3, [1, 1, 2, 1, 2, 1])
        for H in (TargetGraph.arbitrary(3, []), TargetGraph.complete_minus_matching(2)):
            for color in (1, 2, 3):
                emb = find_mono_copy_in_color(c, H, color)
                assert emb is not None
                assert emb.vertices == tuple(range(H.t))


class TestCenteredSearchOutputs:
    def test_every_embedding_is_pinned(self):
        """find_mono_copy_in_color, embedding JSON or None per color, for
        every S_t^r and PA_{t,omega} with t <= 8 on the grid colorings and
        seeded random hosts: the golden rows recorded before the two centred
        searches became one."""
        targets = [
            TargetGraph.star_plus(t, r) for t in range(2, 9) for r in range((t - 1) // 2 + 1)
        ]
        targets += [TargetGraph.pineapple(t, w) for t in range(3, 9) for w in range(2, t)]
        hosts = [build_named(row["name"], row["params"]) for row in construction_grid()]
        rng = random.Random(16)
        for _ in range(80):
            n, k = rng.randint(2, 14), rng.randint(1, 5)
            # color 1 on about half the edges, so that copies are found too
            colors = [
                1 if rng.random() < 0.5 else rng.randint(1, k) for _ in range(edge_count(n))
            ]
            hosts.append(ColoredComplete(n, k, colors))
        rows = []
        for host, c in enumerate(hosts):
            for H in targets:
                embeddings = [
                    find_mono_copy_in_color(c, H, color) for color in range(1, c.k + 1)
                ]
                answer = [None if emb is None else emb.to_json_dict() for emb in embeddings]
                key = f"{host} {render_hspec(H)}"
                rows.append((key, json.dumps(answer, separators=(",", ":"))))
        assert_rows("centered", rows)


def _unpruned_matching(masks, allowed, r):
    """Reference: the matching search as it was before twin pruning and the
    node budget."""
    if r == 0:
        return []
    a = allowed
    while a:
        u = (a & -a).bit_length() - 1
        a &= a - 1
        if masks[u] & allowed & ~(1 << u):
            break
    else:
        return None
    for w in _bits(masks[u] & allowed):
        rest = _unpruned_matching(masks, allowed & ~(1 << u) & ~(1 << w), r - 1)
        if rest is not None:
            return [u, w] + rest
    return _unpruned_matching(masks, allowed & ~(1 << u), r)


def _unpruned_generic(c, H, color):
    """Reference: ``find_mono_copy_generic`` as it was before twin pruning
    and the node budget, returning the host image of each target vertex, or
    None."""
    t = H.t
    if t > c.n:
        return None
    hmasks = H.adjacency_masks
    order = sorted(range(t), key=lambda v: (-hmasks[v].bit_count(), v))
    cmasks = c.adj[color]
    assign = [-1] * t
    full = (1 << c.n) - 1

    def rec(pos, used):
        if pos == t:
            return True
        hv = order[pos]
        cand = full & ~used
        for q in range(pos):
            hu = order[q]
            if hmasks[hv] >> hu & 1:
                cand &= cmasks[assign[hu]]
                if not cand:
                    return False
        for w in _bits(cand):
            assign[hv] = w
            if rec(pos + 1, used | 1 << w):
                return True
        assign[hv] = -1
        return False

    return tuple(assign) if rec(0, 0) else None


def _unpruned_clique(masks, start_mask, size):
    """Reference: ``graphs.find_clique`` as it was before twin pruning and
    the node budget."""
    out = []

    def grow(cand):
        need = size - len(out)
        if need == 0:
            return True
        uncolored, classes = cand, 0
        while classes < need:
            if not uncolored:
                return False
            classes += 1
            free = uncolored
            while free:
                low = free & -free
                uncolored ^= low
                free &= ~masks[low.bit_length() - 1] & ~low
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            out.append(v)
            if grow(c & masks[v]):
                return True
            out.pop()
            if len(out) + c.bit_count() < size:
                return False
        return False

    if size == 0:
        return []
    return out if grow(start_mask) else None


def _unpruned_centered(c, H, color):
    """Reference: the S_t^r and PA_{t,omega} search as it was before it
    skipped failed centres, the host image of each target vertex or None."""
    masks = c.adj[color]
    for v in range(c.n):
        nb = masks[v]
        if nb.bit_count() < H.t - 1:
            continue
        if H.family == FAMILY_STAR_PLUS:
            found = _unpruned_matching(masks, nb, H.r)
        else:
            found = _unpruned_clique(masks, nb, H.omega - 1)
        if found is None:
            continue
        rest = [w for w in _bits(nb) if w not in found]
        return tuple([v] + found + rest[: H.t - 1 - len(found)])
    return None


def _random_hosts(seed, count):
    """Seeded random colorings with color 1 on about half the edges, so that
    the larger targets are found too."""
    rng = random.Random(seed)
    hosts = []
    for _ in range(count):
        n, k = rng.randint(5, 16), rng.randint(2, 4)
        colors = [1 if rng.random() < 0.5 else rng.randint(1, k) for _ in range(edge_count(n))]
        hosts.append(ColoredComplete(n, k, colors))
    return hosts


def _blowup_hosts(seed, count, max_part):
    """Blow-ups of seeded random reduced colorings, each part a one-color
    clique of random size: every part is a twin class in every color."""
    rng = random.Random(seed)
    hosts = []
    while len(hosts) < count:
        m, k = rng.randint(2, 5), rng.randint(2, 4)
        reduced = ColoredComplete(m, k, [rng.randint(1, k) for _ in range(edge_count(m))])
        parts = [
            ColoredComplete.constant(rng.randint(1, max_part), k, rng.randint(1, k))
            for _ in range(m)
        ]
        try:
            hosts.append(blowup(k, parts, reduced))
        except ValueError:
            continue  # the blow-up misses a color
    return hosts


def _relabeled(rng, c):
    """c with its vertices and its colors renamed at random."""
    vperm = list(range(c.n))
    rng.shuffle(vperm)
    cperm = [0] + rng.sample(range(1, c.k + 1), c.k)
    return c.permuted(vperm, cperm)


def _random_target(rng):
    t = rng.randint(3, 6)
    edges = [e for e in itertools.combinations(range(t), 2) if rng.random() < 0.5]
    return TargetGraph.arbitrary(t, edges or [(0, 1)])


_GENERIC_TARGETS = (
    [TargetGraph.complete_minus_matching(t) for t in range(3, 8)]
    + [TargetGraph.complete(t) for t in (3, 4)]
    + [TargetGraph.star_plus(5, 2), TargetGraph.star_plus(7, 3), TargetGraph.pineapple(5, 3)]
    + [
        TargetGraph.arbitrary(t, [(i, (i + 1) % t) for i in range(t)])  # the cycle C_t
        for t in range(4, 8)
    ]
    + [TargetGraph.arbitrary(2 * m, [(2 * i, 2 * i + 1) for i in range(m)]) for m in (2, 3)]
)


class TestTwinPruning:
    """The pruned searches return what the searches before pruning return,
    on blow-up hosts, which are full of twins, and on copies of them."""

    def _hosts(self, seed, count, max_part):
        """Blow-ups, their relabeled and recolored copies, and copies with
        two edges recolored, which split some twin classes."""
        rng = random.Random(seed + 1)
        hosts = _blowup_hosts(seed, count, max_part)
        moved = []
        for c in hosts:
            d = c
            for _ in range(2):
                i, j = rng.sample(range(c.n), 2)
                d = d.recolored(i, j, rng.randint(1, c.k))
            moved.append(d)
        return hosts + [_relabeled(rng, c) for c in hosts] + moved

    def test_generic_search_matches_unpruned(self):
        rng = random.Random(9)
        outcomes = Counter()
        for c in self._hosts(31, 40, 4):
            targets = _GENERIC_TARGETS + [_random_target(rng) for _ in range(4)]
            for H in targets:
                for color in range(1, c.k + 1):
                    emb = find_mono_copy_generic(c, H, color)
                    want = _unpruned_generic(c, H, color)
                    assert (None if emb is None else emb.vertices) == want, (c, H, color)
                    outcomes[want is None] += 1
        assert outcomes[True] > 500 and outcomes[False] > 500

    def test_matching_search_matches_unpruned(self):
        outcomes = Counter()
        for c in self._hosts(32, 60, 5):
            for color in range(1, c.k + 1):
                masks = c.adj[color]
                for allowed in [(1 << c.n) - 1, *masks]:
                    for r in range(1, 5):
                        want = _unpruned_matching(masks, allowed, r)
                        got = _matching_with_pairs(SearchState(masks), allowed, r)
                        assert got == want
                        outcomes[want is None] += 1
        assert outcomes[True] > 500 and outcomes[False] > 500

    def test_clique_search_matches_unpruned(self):
        outcomes = Counter()
        for c in self._hosts(35, 40, 5) + _random_hosts(36, 40):
            for color in range(1, c.k + 1):
                masks = c.adj[color]
                for start in [(1 << c.n) - 1, *masks]:
                    for size in range(1, 7):
                        want = _unpruned_clique(masks, start, size)
                        got = find_clique(SearchState(masks), start, size)
                        assert got == want, (c, color, start, size)
                        outcomes[want is None] += 1
        assert outcomes[True] > 2000 and outcomes[False] > 2000

    def test_clique_and_centered_embeddings_match_unpruned(self):
        """K_t searched over the whole color class, and S_t^r and
        PA_{t,omega} with failed centres and their twins skipped;
        every centre's inner search shares one twin table."""
        targets = [TargetGraph.complete(t) for t in range(2, 8)]
        targets += [TargetGraph.pineapple(t, w) for t in range(3, 10) for w in range(2, t)]
        targets += [
            TargetGraph.star_plus(t, r) for t in range(3, 10) for r in range(1, (t - 1) // 2 + 1)
        ]
        found = Counter()
        for c in self._hosts(37, 30, 5) + self._hosts(33, 40, 5) + _random_hosts(38, 40):
            for H in targets:
                for color in range(1, c.k + 1):
                    emb = find_mono_copy_in_color(c, H, color)
                    if H.family == FAMILY_COMPLETE:
                        clique = _unpruned_clique(c.adj[color], (1 << c.n) - 1, H.t)
                        want = None if clique is None else tuple(clique)
                    else:
                        want = _unpruned_centered(c, H, color)
                    assert (None if emb is None else emb.vertices) == want, (c, H, color)
                    found[H.family, want is None] += 1
        assert min(found.values()) > 100 and len(found) == 6

    def test_small_hosts_agree_with_brute_force(self):
        rng = random.Random(10)
        for c in self._hosts(34, 60, 2):
            if c.n > 7:
                continue
            for color in range(1, c.k + 1):
                best = _brute_force_matching(c.edges_in_color(color))
                finds = _matching_sizes(c, color)
                assert finds(best) and not finds(best + 1)
                for H in _GENERIC_TARGETS[:6] + [_random_target(rng)]:
                    if H.t > 5:
                        continue
                    got = find_mono_copy_generic(c, H, color)
                    assert (got is not None) == _brute_force_mono(c, H, color), (c, H, color)


class TestSearchEntry:
    """``find_mono_copy_in_color`` builds one ``SearchState`` per call, and
    every search of the call, every centre's included, shares it."""

    TARGETS = [parse_hspec(spec) for spec in ("K4", "S5^2", "S7^3", "PA5,3", "PA6,4", "K5-M", C5)]

    @staticmethod
    def _counted_states(monkeypatch) -> list:
        """Patch the detectors' ``SearchState`` so that every state it builds
        is listed, in the order built."""
        built = []

        class Counted(SearchState):
            def __init__(self, masks):
                super().__init__(masks)
                built.append(self)

        monkeypatch.setattr(detectors, "SearchState", Counted)
        return built

    def test_one_state_per_call(self, monkeypatch):
        built = self._counted_states(monkeypatch)
        calls = Counter()
        for c in _blowup_hosts(41, 30, 4) + _random_hosts(42, 30):
            for H in self.TARGETS:
                if H.t > c.n:
                    continue
                for color in range(1, c.k + 1):
                    before = len(built)
                    emb = find_mono_copy_in_color(c, H, color)
                    assert len(built) == before + 1, (c, H, color)
                    assert built[-1].masks is c.adj[color]
                    if H.family not in (FAMILY_STAR_PLUS, FAMILY_PINEAPPLE):
                        calls[H.family] += 1
                        continue
                    centres = [v for v in range(c.n) if c.degree(v, color) >= H.t - 1]
                    # some centre failed: the search passed the lowest one
                    failed = centres and (emb is None or emb.vertices[0] != centres[0])
                    calls[H.family, bool(failed)] += 1
        assert min(calls.values()) > 50 and len(calls) == 3 + 2 * 2, calls

    def test_centres_share_one_budget(self, monkeypatch):
        """On a host whose color 1 holds no S5^2, the search over centres
        tries several centres.  With the budget lowered to one node below
        what they visit together, the search is refused, though each
        centre's matching search alone stays within it."""
        rng = random.Random(0)
        triples = [
            (a, b, 1 if rng.random() < 0.4 else 2) for a, b in itertools.combinations(range(14), 2)
        ]
        c = ColoredComplete.from_edge_triples(14, 2, triples)
        H = parse_hspec("S5^2")
        masks = c.adj[1]
        alone = []
        for nb in masks:
            if nb.bit_count() >= H.t - 1:
                state = SearchState(masks)
                assert _matching_with_pairs(state, nb, H.r) is None
                alone.append(graphs.MAX_SEARCH_NODES - state.left)
        built = self._counted_states(monkeypatch)
        assert find_mono_copy_in_color(c, H, 1) is None
        [state] = built
        together = graphs.MAX_SEARCH_NODES - state.left
        assert len(alone) >= 2 and max(alone) < together
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", together)
        assert find_mono_copy_in_color(c, H, 1) is None
        monkeypatch.setattr(graphs, "MAX_SEARCH_NODES", together - 1)
        with pytest.raises(UnsupportedSizeError, match=f"budget of {together - 1} nodes"):
            find_mono_copy_in_color(c, H, 1)

    @pytest.mark.parametrize(
        "spec", ["K5", "K6-M", "S5^2", "PA6,5", C5], ids=["K5", "K6-M", "S5^2", "PA6,5", "C5"]
    )
    def test_class_with_fewer_edges_than_the_target_is_not_searched(self, monkeypatch, spec):
        """Color 1 is exactly one copy of H, on seeded vertices of a host one
        larger: the family's search and the generic one find it.  With any
        one of its edges recolored, color 1 has one edge fewer than H, and
        both return None without visiting a node of their state."""
        H = parse_hspec(spec)
        n = H.t + 1
        place = random.Random(H.t).sample(range(n), H.t)
        copy = {(min(place[i], place[j]), max(place[i], place[j])) for i, j in H.edges}
        c = ColoredComplete.from_edge_triples(
            n, 2, [(a, b, 1 if (a, b) in copy else 2) for a, b in itertools.combinations(range(n), 2)]
        )
        assert sum(map(int.bit_count, c.adj[1])) == 2 * len(H.edges)
        built = self._counted_states(monkeypatch)
        for search in (find_mono_copy_in_color, find_mono_copy_generic):
            assert search(c, H, 1) is not None
            assert built[-1].left < graphs.MAX_SEARCH_NODES
            for a, b in sorted(copy):
                assert search(c.recolored(a, b, 2), H, 1) is None
                assert built[-1].left == graphs.MAX_SEARCH_NODES
