"""Canonical form: invariance, completeness, and key decoding."""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from gallai.canonical import (
    _edge_label_matrix,
    _refined_cells,
    canonical_form,
    coloring_from_key,
)
from gallai.graphs import ColoredComplete, UnsupportedSizeError, edge_count, pairs
from gallai.structure import enumerate_p5free


def _random_instance(rng, n_max=7, k_max=5):
    n = rng.randint(2, n_max)
    k = rng.randint(1, k_max)
    colors = tuple(rng.randint(1, k) for _ in range(edge_count(n)))
    return ColoredComplete(n, k, colors)


def _random_vperm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _random_cperm(rng, k):
    p = list(range(1, k + 1))
    rng.shuffle(p)
    return {i + 1: p[i] for i in range(k)}


def _block_instance(rng, n, k):
    """A twin-heavy coloring: a random vertex partition, one color inside
    each part and one between each pair of parts."""
    num = rng.randint(1, n)
    part = [rng.randrange(num) for _ in range(n)]
    inner = [rng.randint(1, k) for _ in range(num)]
    between = {(a, b): rng.randint(1, k) for a, b in pairs(num)}
    colors = []
    for i, j in pairs(n):
        a, b = sorted((part[i], part[j]))
        colors.append(inner[a] if a == b else between[(a, b)])
    return ColoredComplete(n, k, colors)


def _least_body(c):
    """The least body over every vertex order that lists the refined cells
    in their order, built column by column: vertex p of the order
    contributes its colors to vertices 0..p-1, colors renamed by first
    occurrence."""
    n = c.n
    mat = [[0] * n for _ in range(n)]
    for (i, j), col in zip(pairs(n), c.colors):
        mat[i][j] = mat[j][i] = col
    cells = _refined_cells(n, _edge_label_matrix(c, mat))
    best = None
    for parts in product(*(permutations(cell) for cell in cells)):
        order = [v for part in parts for v in part]
        names: dict[int, int] = {}
        body = [
            names.setdefault(mat[order[p]][order[q]], len(names) + 1)
            for p in range(1, n)
            for q in range(p)
        ]
        if best is None or body < best:
            best = body
    return bytes(best)


class TestInvariance:
    def test_vertex_and_color_invariance_1000(self):
        """Same key for every vertex relabeling combined with every color
        bijection."""
        rng = random.Random(4242)
        for _ in range(1000):
            c = _random_instance(rng)
            key = canonical_form(c)
            d = c.permuted(_random_vperm(rng, c.n), _random_cperm(rng, c.k))
            assert canonical_form(d) == key


class TestLeastBody:
    """The key body is the least body over the admissible vertex orders, on
    random, twin-heavy and enumerated colorings of order <= 7.
    The refinement cells are taken from the module; the search over orders
    inside them is redone by brute force."""

    @staticmethod
    def _check(c):
        assert canonical_form(c)[2:] == _least_body(c), c

    def test_random_colorings(self):
        rng = random.Random(2024)
        for n in [2, 3, 4, 5] * 10 + [6, 7] * 20:
            k = rng.randint(2, 4)
            self._check(ColoredComplete(n, k, [rng.randint(1, k) for _ in range(edge_count(n))]))

    def test_block_colorings(self):
        rng = random.Random(515)
        for n in [2, 3, 4, 5] * 10 + [6, 7] * 20:
            self._check(_block_instance(rng, n, rng.randint(1, 5)))

    def test_enumerated_representatives(self):
        for c in enumerate_p5free(7, 4):
            self._check(c)

    def test_block_colorings_relabel_invariance(self):
        rng = random.Random(31)
        for _ in range(300):
            c = _block_instance(rng, rng.randint(2, 10), rng.randint(1, 6))
            d = c.permuted(_random_vperm(rng, c.n), _random_cperm(rng, c.k))
            assert canonical_form(d) == canonical_form(c)


class TestCompleteness:
    def test_distinct_classes_get_distinct_keys(self):
        """Exhaustive check on n=4, k=2: keys agree exactly on orbit
        membership under vertex and color permutations."""
        from itertools import permutations, product

        n, k = 4, 2
        seen: dict[tuple, bytes] = {}
        for colors in product(range(1, k + 1), repeat=edge_count(n)):
            c = ColoredComplete(n, k, colors)
            key = canonical_form(c)
            seen[colors] = key
        # group truth: orbit via explicit permutation action
        for colors, key in seen.items():
            c = ColoredComplete(n, k, colors)
            orbit_keys = set()
            for vp in permutations(range(n)):
                for swap in (None, {1: 2, 2: 1}):
                    d = c.permuted(vp, swap)
                    orbit_keys.add(seen[d.colors])
            assert orbit_keys == {key}

    def test_key_decodes_to_member_of_same_class(self):
        rng = random.Random(99)
        for _ in range(300):
            c = _random_instance(rng)
            key = canonical_form(c)
            rep = coloring_from_key(key)
            assert rep.n == c.n and rep.k == c.k
            assert canonical_form(rep) == key


class TestLimitsAndShape:
    def test_header_bytes(self):
        c = ColoredComplete.constant(5, 3, 2)
        key = canonical_form(c)
        assert key[0] == 5 and key[1] == 3
        assert len(key) == 2 + edge_count(5)

    def test_monochromatic_shortcut_vertex_and_color(self):
        """All-one-color maps to class 1 regardless of which color it was."""
        a = ColoredComplete.constant(4, 3, 1)
        b = ColoredComplete.constant(4, 3, 3)
        assert canonical_form(a) == canonical_form(b)

    def test_order_cap(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(ColoredComplete.constant(11, 2))

    @given(st.integers(2, 8), st.integers(1, 6))
    @settings(max_examples=40)
    def test_constant_key_shape(self, n, k):
        key = canonical_form(ColoredComplete.constant(n, k))
        assert len(key) == 2 + edge_count(n)
