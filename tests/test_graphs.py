"""Edge indexing, the immutable coloring container, and target families."""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gallai import graphs
from gallai.constructions import build_named, construction_grid
from gallai.detectors import find_mono_copy_in_color
from gallai.formulas import KIND_BOUNDS, KIND_EXACT, KIND_UNKNOWN, evaluate
from gallai.graphs import (
    MAX_SEARCH_NODES,
    ColoredComplete,
    SearchState,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    edge_index,
    find_clique,
    pairs,
    twin_classes,
    twin_masks,
    _json_int,
    _json_rows,
    parse_hspec,
    render_hspec,
    short_repr,
)
from gallai.search import lower_bound_witness
from golden import assert_rows


class TestEdgeIndex:
    def test_matches_pair_enumeration_order(self):
        for n in range(2, 9):
            for idx, (i, j) in enumerate(pairs(n)):
                assert edge_index(i, j, n) == idx

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            edge_index(2, 2, 5)
        with pytest.raises(ValueError):
            edge_index(3, 1, 5)
        with pytest.raises(ValueError):
            edge_index(0, 5, 5)

    def test_edge_count(self):
        assert [edge_count(n) for n in range(2, 7)] == [1, 3, 6, 10, 15]


def _random_coloring(draw, n_min=2, n_max=8, k_max=6):
    n = draw(st.integers(n_min, n_max))
    k = draw(st.integers(1, k_max))
    colors = draw(
        st.tuples(*[st.integers(1, k) for _ in range(edge_count(n))])
    )
    return ColoredComplete(n, k, colors)


colorings = st.composite(_random_coloring)


class TestColoredComplete:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ColoredComplete(4, 2, (1, 1, 1))

    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError):
            ColoredComplete(3, 2, (1, 2, 3))

    @pytest.mark.parametrize(
        ("colors", "bad"), [((1, 5, 0), 5), ((0, 5, 1), 0), ((2, 1, 3), 3)]
    )
    def test_names_first_off_palette_color_in_edge_order(self, colors, bad):
        with pytest.raises(ValueError, match=rf"^edge color {bad} outside 1..2$"):
            ColoredComplete(3, 2, colors)

    def test_masks_match_edge_by_edge(self):
        """The per-color masks, built row by row, are those that setting
        one edge at a time gives."""
        rng = random.Random(23)
        for _ in range(200):
            n, k = rng.randint(1, 12), rng.randint(1, 5)
            colors = [rng.randint(1, k) for _ in range(edge_count(n))]
            want = [[0] * n for _ in range(k + 1)]
            for (i, j), color in zip(pairs(n), colors):
                want[color][i] |= 1 << j
                want[color][j] |= 1 << i
            assert ColoredComplete(n, k, colors).adj == tuple(map(tuple, want))

    def test_used_counts_the_colors_on_edges(self):
        """``used`` is the number of distinct edge colors, counted when the
        coloring is built; n = 1 has no edges and uses none."""
        rng = random.Random(29)
        for _ in range(300):
            n, k = rng.randint(1, 12), rng.randint(1, 8)
            colors = [rng.randint(1, k) for _ in range(edge_count(n))]
            c = ColoredComplete(n, k, colors)
            assert c.used == len(set(colors)) == len(c.used_colors)
            assert c.exact == (c.used == k)
        assert ColoredComplete(1, 3, ()).used == 0
        assert ColoredComplete.constant(6, 5, 4).recolored(0, 5, 2).used == 2

    def test_immutable(self):
        c = ColoredComplete.constant(4, 2, 1)
        for name, value in (("n", 5), ("k", 3), ("colors", (2,) * 6), ("adj", ()), ("used", 2)):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        assert c == ColoredComplete.constant(4, 2, 1)

    def test_repr_bytes(self):
        """``TheoremViolation`` messages embed the repr, so its bytes are
        pinned: n, k and colors, never the masks."""
        assert repr(ColoredComplete.constant(4, 2, 1)) == (
            "ColoredComplete(n=4, k=2, colors=(1, 1, 1, 1, 1, 1))"
        )
        assert repr(ColoredComplete(3, 3, (1, 2, 3))) == "ColoredComplete(n=3, k=3, colors=(1, 2, 3))"
        assert repr(ColoredComplete(2, 1, (1,))) == "ColoredComplete(n=2, k=1, colors=(1,))"
        assert repr(ColoredComplete(1, 1, ())) == "ColoredComplete(n=1, k=1, colors=())"

    def test_hash_and_equality_read_n_k_colors(self):
        """The hash is that of (n, k, colors); equality reads the same three
        fields and neither the masks nor their identity."""
        rng = random.Random(41)
        for _ in range(100):
            n, k = rng.randint(1, 8), rng.randint(1, 4)
            colors = tuple(rng.randint(1, k) for _ in range(edge_count(n)))
            a, b = ColoredComplete(n, k, colors), ColoredComplete(n, k, list(colors))
            assert hash(a) == hash((n, k, colors)) == hash(b)
            assert a == b and a.adj is not b.adj
            object.__setattr__(b, "adj", ())
            assert a == b and hash(a) == hash(b)
            assert a != ColoredComplete(n, k + 1, colors)
        c = ColoredComplete.constant(4, 2, 1)
        assert (c == object()) is False and (c != object()) is True
        assert c != (4, 2, c.colors)

    def test_color_of_round_trips_triples(self):
        triples = ((0, 1, 2), (0, 2, 1), (1, 2, 2))
        c = ColoredComplete.from_edge_triples(3, 2, triples)
        for i, j, col in triples:
            assert c.color_of(i, j) == col
            assert c.color_of(j, i) == col

    def test_from_edge_triples_rejects_missing_and_double(self):
        with pytest.raises(ValueError):
            ColoredComplete.from_edge_triples(3, 2, ((0, 1, 1), (0, 2, 1)))
        with pytest.raises(ValueError):
            ColoredComplete.from_edge_triples(
                3, 2, ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 1, 2))
            )

    def test_from_edge_triples_names_missing_edge(self):
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has no color"):
            ColoredComplete.from_edge_triples(3, 2, ((0, 1, 1), (0, 2, 2)))

    def test_from_edge_triples_names_edge_assigned_twice(self):
        """An edge named twice is refused whichever end comes first."""
        with pytest.raises(ValueError, match=r"edge \(0, 1\) assigned twice"):
            ColoredComplete.from_edge_triples(2, 2, ((0, 1, 1), (1, 0, 2)))

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0), (-1, 0), (0, -1), (1, 1)])
    def test_from_edge_triples_rejects_pair_outside_vertices(self, pair):
        """A triple must name two distinct vertices; any other pair is
        refused by name."""
        i, j = pair
        message = rf"edge \({i}, {j}\) outside vertex range 0..1"
        if i == j:
            message = rf"self-loop \({i}, {j}\) is not an edge of K_n"
        with pytest.raises(ValueError, match=message):
            ColoredComplete.from_edge_triples(2, 2, ((0, 1, 1), (i, j, 1)))

    def test_from_edge_triples_rejects_color_outside_palette(self):
        with pytest.raises(ValueError, match=r"edge color 7 outside 1..4"):
            ColoredComplete.from_edge_triples(2, 4, ((0, 1, 7),))

    @pytest.mark.parametrize("color", [0, -1, 3])
    def test_off_palette_triple_refused_as_it_is_read(self, color):
        """A color outside 1..k is refused at its own triple: it is neither
        taken for an unnamed edge nor left to mask a pair named twice."""
        message = rf"edge color {color} outside 1..2"
        with pytest.raises(ValueError, match=message):
            ColoredComplete.from_edge_triples(2, 2, ((0, 1, color),))
        with pytest.raises(ValueError, match=message):
            ColoredComplete.from_edge_triples(
                3, 2, ((0, 1, color), (0, 1, 1), (0, 2, 2), (1, 2, 1))
            )

    def test_from_edge_triples_refuses_an_empty_palette(self):
        with pytest.raises(ValueError, match="need k >= 1, got k=0"):
            ColoredComplete.from_edge_triples(2, 0, ((0, 1, 1),))

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((1, 1), r"self-loop \(1, 1\) is not an edge of K_n"),
            ((1, 3), r"edge \(1, 3\) outside vertex range 0..2"),
            ((-1, 2), r"edge \(-1, 2\) outside vertex range 0..2"),
        ],
    )
    def test_one_triple_reader_for_both_entry_points(self, edge, message):
        """Triples and coloring JSON are checked by the same reader, with
        the same messages."""
        edges = [(0, 1, 1), (0, 2, 1), (*edge, 2)]
        with pytest.raises(ValueError, match=message):
            ColoredComplete.from_edge_triples(3, 2, edges)
        with pytest.raises(ValueError, match=message):
            ColoredComplete.from_json_dict({"n": 3, "k": 2, "edges": [list(e) for e in edges]})

    @given(colorings())
    def test_degree_sums_to_twice_edges(self, c):
        """Sum over vertices of deg_j is 2 |E_j| for every color j."""
        for j in range(1, c.k + 1):
            total = sum(c.degree(v, j) for v in range(c.n))
            assert total == 2 * len(c.edges_in_color(j))

    @given(colorings())
    def test_class_sizes_partition_edges(self, c):
        classes = [c.edges_in_color(j) for j in range(1, c.k + 1)]
        assert sum(len(cl) for cl in classes) == edge_count(c.n)
        assert sorted(e for cl in classes for e in cl) == sorted(pairs(c.n))

    @given(colorings())
    def test_exact_iff_every_color_used(self, c):
        assert c.exact == (c.used_colors == set(range(1, c.k + 1)))

    @given(colorings())
    def test_json_round_trip(self, c):
        assert ColoredComplete.from_json_dict(c.to_json_dict()) == c

    @given(colorings(n_min=1, k_max=1024))
    def test_written_json_round_trip(self, c):
        assert ColoredComplete.from_json_dict(json.loads(c.to_json())) == c

    def test_permuted_relabels_vertices(self):
        c = ColoredComplete.from_edge_triples(
            3, 3, ((0, 1, 1), (0, 2, 2), (1, 2, 3))
        )
        # swap vertices 0 and 2
        p = c.permuted((2, 1, 0))
        assert p.color_of(1, 2) == 1
        assert p.color_of(0, 2) == 2
        assert p.color_of(0, 1) == 3

    def test_permuted_relabels_colors(self):
        c = ColoredComplete.from_edge_triples(
            3, 3, ((0, 1, 1), (0, 2, 2), (1, 2, 3))
        )
        p = c.permuted((0, 1, 2), cperm={1: 3, 2: 1, 3: 2})
        assert p.color_of(0, 1) == 3
        assert p.color_of(0, 2) == 1
        assert p.color_of(1, 2) == 2

    def test_recolored(self):
        c = ColoredComplete.constant(3, 2, 1)
        d = c.recolored(0, 1, 2)
        assert d.color_of(0, 1) == 2
        assert c.color_of(0, 1) == 1

    def test_constant_special_matches_edge_by_edge(self):
        """Every edge in the base color unless ``special`` names it, edge by
        edge, on seeded inputs."""
        rng = random.Random(36)
        for _ in range(300):
            n = rng.randint(2, 10)
            k = rng.randint(1, 6)
            color = rng.randint(1, k)
            special = {e: rng.randint(1, k) for e in pairs(n) if rng.random() < 0.3}
            c = ColoredComplete.constant(n, k, color, special)
            assert (c.n, c.k) == (n, k)
            for i, j in pairs(n):
                assert c.color_of(i, j) == special.get((i, j), color)

    @pytest.mark.parametrize("special", [None, {}])
    def test_constant_without_special_is_one_color(self, special):
        for n in range(1, 8):
            for color in (1, 2):
                c = ColoredComplete.constant(n, 3, color, special)
                assert c == ColoredComplete(n, 3, [color] * edge_count(n))

    @pytest.mark.parametrize("pair", [(1, 0), (2, 2), (-1, 3), (0, 5)])
    def test_constant_special_outside_pairs(self, pair):
        """A special pair must be an edge ij of K_n with i < j; the refusal
        is ``edge_index``'s."""
        with pytest.raises(ValueError, match=r"need 0 <= i < j < n"):
            ColoredComplete.constant(5, 2, 1, {pair: 2})


class TestTargetFamilies:
    def test_complete(self):
        H = TargetGraph.complete(5)
        assert (H.t, len(H.edges), H.max_degree, H.clique_number) == (5, 10, 4, 5)
        assert H.is_complete

    def test_star_plus(self):
        H = TargetGraph.star_plus(7, 2)
        assert H.t == 7
        assert len(H.edges) == 6 + 2
        assert H.max_degree == 6
        assert H.clique_number == 3

    def test_star_plus_r0_is_star(self):
        H = TargetGraph.star_plus(5, 0)
        assert H.clique_number == 2
        assert H.max_degree == 4

    def test_star_plus_parameter_bounds(self):
        with pytest.raises(ValueError):
            TargetGraph.star_plus(4, 2)  # needs t >= 2r + 1
        with pytest.raises(ValueError):
            TargetGraph.star_plus(2, -1)

    def test_pineapple(self):
        H = TargetGraph.pineapple(7, 4)
        assert H.t == 7
        assert len(H.edges) == 6 + 3
        assert H.max_degree == 6
        assert H.clique_number == 4

    def test_complete_minus_matching_degree_parity(self):
        """Removing a maximum matching lowers every degree only when t is
        even; odd t leaves one untouched vertex of full degree."""
        even = TargetGraph.complete_minus_matching(6)
        odd = TargetGraph.complete_minus_matching(7)
        assert even.max_degree == 4
        assert odd.max_degree == 6
        assert even.clique_number == 3
        assert odd.clique_number == 4

    def test_arbitrary_clique_number_brute_force(self):
        H = TargetGraph.arbitrary(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert H.clique_number == 3
        assert H.max_degree == 3
        assert not H.is_complete

    def test_arbitrary_clique_number_random_500(self):
        """The clique number of random targets of order 1..8 equals the
        largest vertex subset whose pairs are all edges."""
        rng = random.Random(2109)
        for _ in range(500):
            order = rng.randint(1, 8)
            density = rng.random()
            edges = [e for e in pairs(order) if rng.random() < density]
            H = TargetGraph.arbitrary(order, edges)
            edge_set = set(edges)
            want = max(
                size
                for size in range(1, order + 1)
                for sub in combinations(range(order), size)
                if all(e in edge_set for e in combinations(sub, 2))
            )
            assert H.clique_number == want, edges

    def test_arbitrary_order_cap(self):
        with pytest.raises(UnsupportedSizeError):
            TargetGraph.arbitrary(13, [(0, 1)])

    def test_is_complete_matches_edge_list(self):
        """Completeness, read from the clique number, holds exactly when the
        edge list has every pair, for every family member of order <= 12."""
        rng = random.Random(12)
        members = [
            TargetGraph.arbitrary(t, [e for e in pairs(t) if rng.random() < 0.5])
            for t in range(1, 13)
        ]
        for t in range(2, 13):
            members.append(TargetGraph.complete(t))
            members.append(TargetGraph.complete_minus_matching(t))
            members.extend(TargetGraph.star_plus(t, r) for r in range((t - 1) // 2 + 1))
            members.extend(TargetGraph.pineapple(t, w) for w in range(2, t))
        for H in members:
            assert H.is_complete == (len(H.edges) == edge_count(H.t)), H

    @pytest.mark.parametrize(
        "spec",
        ["K100000", "S100000^3", "PA100000,50", "K100000-M", "K200", "S200^3", "PA200,50", "K200-M"],
    )
    def test_huge_target_answers_without_an_edge_list(self, spec):
        """Completeness, maximum degree, clique number and size are closed
        forms for the structured families, and the rule table reads only
        those, so neither they nor ``evaluate`` build an edge list or the
        masks.  The order-200 members would fit in memory, so a closed form
        that read the edge list fails here on the assertion, not on
        memory."""
        H = parse_hspec(spec)
        assert (H.is_complete, H.max_degree, H.clique_number, H.size) == {
            "K100000": (True, 99999, 100000, 4999950000),
            "S100000^3": (False, 99999, 3, 100002),
            "PA100000,50": (False, 99999, 50, 101175),
            "K100000-M": (False, 99998, 50000, 4999900000),
            "K200": (True, 199, 200, 19900),
            "S200^3": (False, 199, 3, 202),
            "PA200,50": (False, 199, 50, 1375),
            "K200-M": (False, 198, 100, 19800),
        }[spec]
        c = 0.1 if H.family == "pineapple" else None
        for k in sorted({4, 5, 6, H.t - 1, H.t, H.t + 1}):
            assert evaluate(H, k, c).kind in (KIND_EXACT, KIND_BOUNDS, KIND_UNKNOWN)
        assert "edges" not in vars(H) and "adjacency_masks" not in vars(H)

    def test_closed_forms_match_the_edge_list(self):
        """size, max_degree and clique_number of every structured family
        member with t <= 9 equal what the edge list, the adjacency masks and
        the clique search give."""
        for t in range(2, 10):
            members = [TargetGraph.complete(t), TargetGraph.complete_minus_matching(t)]
            members.extend(TargetGraph.star_plus(t, r) for r in range((t - 1) // 2 + 1))
            members.extend(TargetGraph.pineapple(t, w) for w in range(2, t))
            for H in members:
                assert H.size == len(H.edges), H
                masks = H.adjacency_masks
                assert H.max_degree == max(m.bit_count() for m in masks), H
                full = (1 << t) - 1
                omega = H.clique_number
                assert find_clique(SearchState(masks), full, omega) is not None, H
                assert find_clique(SearchState(masks), full, omega + 1) is None, H

    def test_clique_number_computed_once_per_target(self, monkeypatch):
        """The arbitrary family's clique search runs on first use only."""
        H = TargetGraph.arbitrary(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert H.clique_number == 3
        monkeypatch.setattr(graphs, "find_clique", None)
        assert H.clique_number == 3

    def test_edges_and_masks_built_once_per_target(self):
        """The edge list, the masks, the maximum degree and the clique number
        are built on first use and kept; a target that has built them still
        equals and hashes as a fresh one."""
        derived = ("edges", "adjacency_masks", "max_degree", "clique_number")
        for spec in ("K5", "S7^2", "PA6,4", "K6-M", '{"order":4,"edges":[[0,1],[2,3]]}'):
            H = parse_hspec(spec)
            edges, masks = H.edges, H.adjacency_masks
            assert H.edges is edges and H.adjacency_masks is masks
            assert H.max_degree < H.t and H.clique_number <= H.t
            assert all(name in vars(H) for name in derived)
            fresh = parse_hspec(spec)
            assert H == fresh and hash(H) == hash(fresh) and repr(H) == repr(fresh)
            assert fresh.edges == edges and fresh.adjacency_masks == masks

    def test_structural_completeness_not_family_name(self):
        """S3^1 is a triangle but stays in its declared family."""
        H = TargetGraph.star_plus(3, 1)
        assert H.family == "star_plus"
        assert H.is_complete

    @given(st.integers(2, 10))
    def test_complete_adjacency_masks(self, t):
        H = TargetGraph.complete(t)
        masks = H.adjacency_masks
        assert all(masks[v] == ((1 << t) - 1) ^ (1 << v) for v in range(t))


def _first_clique(masks: list[int], start: int, size: int) -> list[int] | None:
    """The lexicographically first clique of the given size inside start,
    by trying vertex subsets in ``combinations`` order."""
    inside = [v for v in range(len(masks)) if start >> v & 1]
    for sub in combinations(inside, size):
        if all(masks[a] >> b & 1 for a, b in combinations(sub, 2)):
            return list(sub)
    return None


class TestFindClique:
    def test_returns_the_lexicographically_first_clique(self):
        """The colouring bound prunes only subtrees without a clique, so the
        search returns the first clique in subset order, or None."""
        rng = random.Random(20031)
        found = missing = 0
        for _ in range(800):
            n = rng.randint(1, 14)
            density = rng.uniform(0.3, 0.9)
            masks = [0] * n
            for i, j in pairs(n):
                if rng.random() < density:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
            start = (1 << n) - 1 if rng.random() < 0.3 else rng.getrandbits(n)
            size = rng.randint(0, 7)
            want = _first_clique(masks, start, size)
            assert find_clique(SearchState(masks), start, size) == want, (masks, start, size)
            found += want is not None
            missing += want is None
        assert found > 200 and missing > 200

    def test_grid_mono_copies_unchanged(self):
        """Every color class of every grid row, searched for the row's own
        target: the embeddings (or their absence) are the golden rows the
        search gave before the colouring bound."""
        rows = []
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            H = parse_hspec(row["target"])
            params = json.dumps(row["params"], separators=(",", ":"))
            for color in range(1, c.k + 1):
                emb = find_mono_copy_in_color(c, H, color)
                answer = None if emb is None else emb.to_json_dict()
                key = f"{row['name']} {params} {row['target']} {color}"
                rows.append((key, json.dumps(answer, separators=(",", ":"))))
        assert len(rows) == 212
        assert_rows("grid_mono_copies", rows)


def _twins_by_definition(masks):
    """Reference: u is in v's class when their masks agree once each drops
    the other."""
    n = len(masks)
    return [
        sum(1 << u for u in range(n) if masks[u] & ~(1 << v) == masks[v] & ~(1 << u))
        for v in range(n)
    ]


def _color_twins_by_definition(c):
    """Reference: u is in v's class when every other vertex sees u and v in
    the same color."""
    n = c.n
    return [
        sum(
            1 << u
            for u in range(n)
            if all(c.color_of(u, w) == c.color_of(v, w) for w in range(n) if w not in (u, v))
        )
        for v in range(n)
    ]


def _random_blowup(rng):
    """A random coloring of K_n, n <= 10, with k in 2..8, whose vertices fall
    into random parts: each part is one color inside and each two parts are
    joined in one color, so a part lies in one twin class.  Half the time
    one random edge is recolored after that."""
    n = rng.randint(1, 10)
    k = rng.randint(2, 8)
    part = [rng.randrange(n) for _ in range(n)]
    inside = [rng.randint(1, k) for _ in range(n)]
    between: dict[tuple[int, int], int] = {}
    colors = []
    for i, j in pairs(n):
        a, b = sorted((part[i], part[j]))
        colors.append(inside[a] if a == b else between.setdefault((a, b), rng.randint(1, k)))
    if colors and rng.random() < 0.5:
        colors[rng.randrange(len(colors))] = rng.randint(1, k)
    return ColoredComplete(n, k, colors)


class TestSearchState:
    def test_visit_raises_past_the_budget(self):
        """``visit`` counts one node a call and raises on exactly the
        ``MAX_SEARCH_NODES + 1``-th."""
        state = SearchState([])
        for _ in range(MAX_SEARCH_NODES):
            state.visit()
        with pytest.raises(
            UnsupportedSizeError,
            match=rf"^the search for a monochromatic copy passed its budget of {MAX_SEARCH_NODES} "
            "nodes in one color class$",
        ):
            state.visit()


class TestTwinMasks:
    def test_matches_definition_on_random_graphs(self):
        rng = random.Random(4242)
        nontrivial = 0
        for _ in range(500):
            n = rng.randint(1, 12)
            density = rng.choice((0.1, 0.5, 0.9))
            masks = [0] * n
            for i, j in pairs(n):
                if rng.random() < density:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
            want = _twins_by_definition(masks)
            assert twin_masks(masks) == want, masks
            nontrivial += any(mask & (mask - 1) for mask in want)
        assert nontrivial > 100

    def test_blowup_parts_are_twin_classes(self):
        """In every color of a grid coloring the classes are those of the
        definition; the blow-ups have classes of size two or more."""
        largest = 0
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            for color in range(1, c.k + 1):
                got = twin_masks(c.adj[color])
                assert got == _twins_by_definition(c.adj[color])
                largest = max(largest, max(mask.bit_count() for mask in got))
        assert largest >= 10

    def test_both_kinds(self):
        # a path 0-1-2 and an edge 3-4: 0 and 2 share their open mask, 3 and
        # 4 their closed one
        masks = [0b10, 0b101, 0b10, 0b10000, 0b1000]
        assert twin_masks(masks) == [0b101, 0b10, 0b101, 0b11000, 0b11000]

    def test_all_colors_match_definition_on_random_colorings(self):
        """``twin_classes``, the per-color twin masks intersected, gives the
        classes of vertices that every other vertex sees in one color.  A
        vertex that sees u and v in two different colors separates them in
        both, so leaving out any one color changes nothing; leaving out two
        fails here."""
        rng = random.Random(2626)
        nontrivial = 0
        for _ in range(500):
            c = _random_blowup(rng)
            want = _color_twins_by_definition(c)
            assert twin_classes(c) == want, c
            nontrivial += any(mask & (mask - 1) for mask in want)
        assert nontrivial > 300

    def test_all_colors_match_definition_on_relabeled_grid_colorings(self):
        """Every grid coloring with its vertices and colors renamed at random;
        the blow-ups keep classes of size two or more."""
        rng = random.Random(2627)
        largest = 0
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            vperm = list(range(c.n))
            rng.shuffle(vperm)
            d = c.permuted(vperm, [0] + rng.sample(range(1, c.k + 1), c.k))
            got = twin_classes(d)
            assert got == _color_twins_by_definition(d), row
            largest = max(largest, max(mask.bit_count() for mask in got))
        assert largest >= 10


class TestHspecGrammar:
    @pytest.mark.parametrize(
        "text",
        ["K5", "K12-M", "S7^2", "S5^0", "PA9,4"],
    )
    def test_round_trip(self, text):
        assert render_hspec(parse_hspec(text)) == text

    def test_complete_minus_matching_parses_before_complete(self):
        H = parse_hspec("K6-M")
        assert H.family == "complete_minus_matching"
        assert H.t == 6

    def test_inline_json(self):
        H = parse_hspec('{"order": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
        assert H.family == "arbitrary"
        assert len(H.edges) == 3

    @pytest.mark.parametrize("text", ["K", "S4", "PA5", "Q3", "S4^9", "K0"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_hspec(text)

    def test_long_spec_is_cut_short_in_the_error(self):
        with pytest.raises(ValueError) as info:
            parse_hspec("X" * 5000)
        message = str(info.value)
        assert message.startswith("cannot parse target graph spec 'XXX")
        assert "(5002 characters)" in message and len(message) < 120

    def test_short_repr(self):
        assert short_repr("K5") == "'K5'"
        assert short_repr("y" * 58) == repr("y" * 58)
        assert short_repr("y" * 59) == "'" + "y" * 59 + "... (61 characters)"
        assert short_repr([1] * 100) == "[" + "1, " * 19 + "1,... (300 characters)"


def _json_rows_per_integer(rows, width, what):
    """The row check as one ``_json_int`` call per integer, the reference
    for the one-pass type check."""
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == width for row in rows
    ):
        raise ValueError(f"{what} must be a list of {width}-integer lists")
    return [_json_int(x) for row in rows for x in row]


class TestJsonRows:
    BAD = [1.5, True, False, "3", None, [1], {"a": 1}, 2.0, "x" * 500]

    def outcome(self, check, rows, width):
        try:
            return check(rows, width, "rows")
        except ValueError as exc:
            return f"ValueError: {exc}"

    def test_same_rows_or_error_text_as_a_check_per_integer(self):
        """Rows of integers come back as their entries, flat and row by
        row; a refused entry, wherever it sits, gives the error text the
        per-integer check gives, naming the first refused entry in row
        order."""
        rng = random.Random(77)
        cases = [[], [[]], [[1, 2]], [[1, 2, 3]], "rows", [[1, 2], 3], [[0, 1], [2]]]
        for _ in range(400):
            width = rng.choice((2, 3))
            rows = [[rng.randint(-3, 9) for _ in range(width)] for _ in range(rng.randint(0, 6))]
            for _ in range(rng.choice((0, 0, 1, 2))):
                if rows:
                    rows[rng.randrange(len(rows))][rng.randrange(width)] = rng.choice(self.BAD)
            cases.append(rows)
        refused = 0
        for rows in cases:
            for width in (2, 3):
                want = self.outcome(_json_rows_per_integer, rows, width)
                assert self.outcome(_json_rows, rows, width) == want, rows
                refused += str(want).startswith("ValueError: expected an integer")
        assert refused >= 100

    def test_refused_long_value_is_cut_short(self):
        with pytest.raises(ValueError, match=r"^expected an integer, got 'xxx.*\(502 characters\)$"):
            _json_rows([[0, "x" * 500]], 2, "rows")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _general_route(data: dict) -> ColoredComplete:
    """The reader without its written-order branch: every list goes
    through ``_json_rows`` and ``from_edge_triples``."""
    n, k = data["n"], data["k"]
    flat = _json_rows(data["edges"], 3, "coloring edges")
    return ColoredComplete.from_edge_triples(n, k, zip(flat[0::3], flat[1::3], flat[2::3]))


def _outcome(read, data):
    try:
        return read(data)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestJsonWriter:
    """``to_json`` writes the bytes of ``json.dumps`` of ``to_json_dict``."""

    def test_every_grid_row(self):
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            assert c.to_json() == _dumps(c.to_json_dict()), row

    def test_seeded_random_colorings(self):
        """Orders 1..60, colors of one to four digits; order 1 has no
        edges."""
        rng = random.Random(38)
        for n in range(1, 61):
            for k in (1, 9, 99, 999, 1024):
                c = ColoredComplete(n, k, [rng.randint(1, k) for _ in range(edge_count(n))])
                assert c.to_json() == _dumps(c.to_json_dict()), (n, k)
        assert ColoredComplete(1, 3, []).to_json() == '{"n":1,"k":3,"edges":[]}'
        assert ColoredComplete(2, 12, [10]).to_json() == '{"n":2,"k":12,"edges":[[0,1,10]]}'


# A 3-coloring of K4 in the written order; the reader tests corrupt copies.
_BASE_EDGES = [[0, 1, 1], [0, 2, 2], [0, 3, 3], [1, 2, 3], [1, 3, 2], [2, 3, 1]]


def _variant(i: int, row: object) -> list:
    """A copy of ``_BASE_EDGES`` with row i replaced."""
    out = [list(e) for e in _BASE_EDGES]
    out[i] = row
    return out


class TestJsonReader:
    """``from_json_dict`` reads the written order without
    ``from_edge_triples`` and every other list through it, with the same
    result and the same error text."""

    REFUSED = [
        ("bool entry", 4, 3, _variant(1, [0, 2, True]), "expected an integer, got True"),
        ("float entry", 4, 3, _variant(1, [0.0, 2, 2]), "expected an integer, got 0.0"),
        ("string entry", 4, 3, _variant(1, [0, "2", 2]), "expected an integer, got '2'"),
        ("row of width 2", 4, 3, _variant(3, [1, 2]),
         "coloring edges must be a list of 3-integer lists"),
        ("row of width 4", 4, 3, _variant(3, [1, 2, 3, 1]),
         "coloring edges must be a list of 3-integer lists"),
        ("non-list row", 4, 3, _variant(3, 7), "coloring edges must be a list of 3-integer lists"),
        ("tuple rows", 4, 3, [tuple(e) for e in _BASE_EDGES],
         "coloring edges must be a list of 3-integer lists"),
        ("rows of width 2 and 4 holding the written entries", 4, 3,
         [[0, 1], [1, 0, 2, 2], *_BASE_EDGES[2:]],
         "coloring edges must be a list of 3-integer lists"),
        ("non-list edges", 4, 3, {"x": 1}, "coloring edges must be a list of 3-integer lists"),
        ("self-loop", 4, 3, _variant(0, [0, 0, 1]), "self-loop (0, 0) is not an edge of K_n"),
        ("vertex out of range", 4, 3, _variant(0, [0, 99, 1]),
         "edge (0, 99) outside vertex range 0..3"),
        ("duplicate edge", 4, 3, _variant(1, [0, 1, 1]), "edge (0, 1) assigned twice"),
        ("missing edge", 4, 3, _BASE_EDGES[:-1], "edge (2, 3) has no color"),
        ("color 0", 4, 3, _variant(4, [1, 3, 0]), "edge color 0 outside 1..3"),
        ("color k + 1", 4, 3, _variant(4, [1, 3, 4]), "edge color 4 outside 1..3"),
        ("n = 0", 0, 3, [], "need n >= 1, got n=0"),
    ]

    @pytest.mark.parametrize(
        "n, k, edges, message", [case[1:] for case in REFUSED], ids=[case[0] for case in REFUSED]
    )
    def test_refused_with_pinned_text(self, n, k, edges, message):
        data = {"n": n, "k": k, "edges": edges}
        with pytest.raises(ValueError) as exc:
            ColoredComplete.from_json_dict(data)
        assert str(exc.value) == message
        assert _outcome(_general_route, data) == f"ValueError: {message}"

    def test_color_out_of_range_same_text_in_any_order(self):
        """A bad color in the written order is refused by ``__init__``, in
        another order by ``from_edge_triples``, with one text."""
        for edges in (_variant(4, [1, 3, 0]), _variant(4, [1, 3, 4])):
            shuffled = edges[::-1]
            want = _outcome(ColoredComplete.from_json_dict, {"n": 4, "k": 3, "edges": edges})
            assert _outcome(ColoredComplete.from_json_dict, {"n": 4, "k": 3, "edges": shuffled}) == want

    def test_any_order_reads_as_the_written_order(self):
        rng = random.Random(5)
        for n in (2, 5, 13):
            k = 4
            c = ColoredComplete(n, k, [rng.randint(1, k) for _ in range(edge_count(n))])
            edges = c.to_json_dict()["edges"]
            shuffled = rng.sample(edges, len(edges))
            swapped = [[j, i, col] for i, j, col in edges]
            for other in (shuffled, swapped):
                assert ColoredComplete.from_json_dict({"n": n, "k": k, "edges": other}) == c

    def test_written_order_skips_the_general_route(self, monkeypatch):
        """A written list is read with no ``from_edge_triples`` call, and
        its reverse with one, to the same coloring: an order-5 coloring,
        the 49 grid colorings and the order-121 certificate of ``witness
        --H K12 --k 12``."""
        colorings = [ColoredComplete(5, 3, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1])]
        colorings += [build_named(row["name"], row["params"]) for row in construction_grid()]
        colorings.append(lower_bound_witness(TargetGraph.complete(12), 12).coloring)
        assert len(colorings) == 51 and (colorings[-1].n, colorings[-1].k) == (121, 12)
        calls = []
        general = ColoredComplete.from_edge_triples.__func__

        def counted(cls, *args):
            calls.append(args[:2])
            return general(cls, *args)

        monkeypatch.setattr(ColoredComplete, "from_edge_triples", classmethod(counted))
        for c in colorings:
            data = json.loads(c.to_json())
            assert ColoredComplete.from_json_dict(data) == c
            assert calls == [], (c.n, c.k)
            data["edges"].reverse()
            assert ColoredComplete.from_json_dict(data) == c
            assert calls == [(c.n, c.k)]
            calls.clear()

    def test_same_outcome_as_the_general_route(self):
        """Seeded corruptions of written lists: every outcome, a coloring
        or an error text, is the general route's."""
        rng = random.Random(16)
        bad = [True, False, 1.0, "1", None, [1], -1, 0, 99]
        routes = Counter()
        for _ in range(600):
            n = rng.randint(0, 7)
            k = rng.randint(1, 5)
            edges = [[i, j, rng.randint(1, k)] for i, j in pairs(n)]
            for _ in range(rng.choice((0, 0, 1, 2))):
                if not edges:
                    break
                m = rng.randrange(len(edges))
                move = rng.randrange(6)
                if move < 3 and not isinstance(edges[m], list):
                    continue
                if move == 0:
                    edges[m][rng.randrange(len(edges[m]))] = rng.choice(bad)
                elif move == 1:
                    edges[m] = edges[m][::-1]
                elif move == 2:
                    edges.insert(rng.randrange(len(edges) + 1), list(edges[m]))
                elif move == 3:
                    del edges[m]
                elif move == 4:
                    edges[m] = rng.choice(bad)
                else:
                    rng.shuffle(edges)
            data = {"n": n, "k": k, "edges": edges}
            want = _outcome(_general_route, data)
            assert _outcome(ColoredComplete.from_json_dict, data) == want, data
            routes[isinstance(want, ColoredComplete)] += 1
        assert routes[True] >= 100 and routes[False] >= 100
