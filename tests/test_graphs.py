"""Edge indexing, the immutable coloring container, and target families."""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gallai.constructions import build_named, construction_grid
from gallai.detectors import find_mono_copy_in_color
from gallai.graphs import (
    ColoredComplete,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    edge_index,
    find_clique,
    pairs,
    twin_masks,
    _json_int,
    _json_rows,
    parse_hspec,
    render_hspec,
    short_repr,
)


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

    def test_immutable(self):
        c = ColoredComplete.constant(4, 2, 1)
        with pytest.raises(AttributeError):
            c.n = 5

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


class TestTargetFamilies:
    def test_complete(self):
        H = TargetGraph.complete(5)
        assert (H.order, H.num_edges, H.max_degree, H.clique_number) == (5, 10, 4, 5)
        assert H.is_complete

    def test_star_plus(self):
        H = TargetGraph.star_plus(7, 2)
        assert H.order == 7
        assert H.num_edges == 6 + 2
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
        assert H.order == 7
        assert H.num_edges == 6 + 3
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

    def test_num_edges_closed_form_matches_edge_list(self):
        """The closed-form edge count equals the length of the edge list for
        every family member of order <= 12, and completeness follows."""
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
            assert H.num_edges == len(H.edges()), H
            assert H.is_complete == (len(H.edges()) == edge_count(H.t)), H

    def test_closed_forms_match_the_edge_list(self):
        """max_degree and clique_number of every structured family member
        with t <= 9 equal what the adjacency masks and the clique search
        give."""
        for t in range(2, 10):
            members = [TargetGraph.complete(t), TargetGraph.complete_minus_matching(t)]
            members.extend(TargetGraph.star_plus(t, r) for r in range((t - 1) // 2 + 1))
            members.extend(TargetGraph.pineapple(t, w) for w in range(2, t))
            for H in members:
                masks = H.adjacency_masks()
                assert H.max_degree == max(m.bit_count() for m in masks), H
                full = (1 << t) - 1
                omega = H.clique_number
                assert find_clique(masks, full, omega) is not None, H
                assert find_clique(masks, full, omega + 1) is None, H

    def test_clique_number_computed_once_per_target(self, monkeypatch):
        """The arbitrary family's clique search runs on first use only."""
        H = TargetGraph.arbitrary(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert H.clique_number == 3
        monkeypatch.setattr(TargetGraph, "adjacency_masks", None)
        assert H.clique_number == 3

    def test_edges_and_masks_built_once_per_target(self):
        """The edge list and the masks are built on first use and kept; a
        target that has built them still equals and hashes as a fresh one."""
        for spec in ("K5", "S7^2", "PA6,4", "K6-M", '{"order":4,"edges":[[0,1],[2,3]]}'):
            H = parse_hspec(spec)
            edges, masks = H.edges(), H.adjacency_masks()
            assert H.edges() is edges and H.adjacency_masks() is masks
            fresh = parse_hspec(spec)
            assert H == fresh and hash(H) == hash(fresh) and repr(H) == repr(fresh)
            assert fresh.edges() == edges and fresh.adjacency_masks() == masks

    def test_structural_completeness_not_family_name(self):
        """S3^1 is a triangle but stays in its declared family."""
        H = TargetGraph.star_plus(3, 1)
        assert H.family == "star_plus"
        assert H.is_complete

    @given(st.integers(2, 10))
    def test_complete_adjacency_masks(self, t):
        H = TargetGraph.complete(t)
        masks = H.adjacency_masks()
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
            assert find_clique(masks, start, size) == want, (masks, start, size)
            found += want is not None
            missing += want is None
        assert found > 200 and missing > 200

    def test_grid_mono_copies_unchanged(self):
        """Every color class of every grid row, searched for the row's own
        target: the embeddings (or their absence) hash to the digest the
        search gave before the colouring bound."""
        found = []
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            H = parse_hspec(row["target"])
            for color in range(1, c.k + 1):
                emb = find_mono_copy_in_color(c, H, color)
                found.append(None if emb is None else emb.to_json_dict())
        digest = hashlib.sha256(json.dumps(found, separators=(",", ":")).encode()).hexdigest()
        assert len(found) == 212
        assert digest == "9a26874fd93b5cdd882addf6226de49a164927e623eba7ad61554a4f6782796d"


def _twins_by_definition(masks):
    """Reference: u is in v's class when their masks agree once each drops
    the other."""
    n = len(masks)
    return [
        sum(1 << u for u in range(n) if masks[u] & ~(1 << v) == masks[v] & ~(1 << u))
        for v in range(n)
    ]


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
        assert H.num_edges == 3

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
    return [tuple(_json_int(x) for x in row) for row in rows]


class TestJsonRows:
    BAD = [1.5, True, False, "3", None, [1], {"a": 1}, 2.0, "x" * 500]

    def outcome(self, check, rows, width):
        try:
            return check(rows, width, "rows")
        except ValueError as exc:
            return f"ValueError: {exc}"

    def test_same_rows_or_error_text_as_a_check_per_integer(self):
        """Rows of integers come back as tuples; a refused entry, wherever
        it sits, gives the error text the per-integer check gives, naming
        the first refused entry in row order."""
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
