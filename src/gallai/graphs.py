"""Edge-colored complete graphs and the target graphs searched for inside them.

Vertices are 0..n-1.  The C(n, 2) edges of K_n are kept in lexicographic
order of their endpoint pairs, so an edge coloring is a flat tuple of ints.
Colors are 1-based; a coloring with palette size k is *exact* when every
color in 1..k actually appears on some edge.

``find_clique``, the one clique search, reads its graph from a
``SearchState``, which holds that graph's twin masks and a budget of
``MAX_SEARCH_NODES`` nodes; ``detectors.find_mono_copy_in_color``, the
entry of every monochromatic-copy search, builds one per call.

A coloring's JSON form is ``{"n": n, "k": k, "edges": [[i, j, c], ...]}``.
``ColoredComplete.to_json`` writes it compact, in the edge order above,
with the bytes ``json.dumps`` gives ``to_json_dict``: row i of that order
is one string join of the prefix "[i," and the strings "j,c]".
``_json_rows`` is the one check of a JSON row list, a coloring's edges or
an inline target's: it refuses any other shape and any entry that is not
an int, and returns the entries flat, row by row.  ``from_json_dict`` then
takes one of two branches.  When the pairs are those of the edge order
above, it hands the colors, every third entry, to ``__init__``, which
checks them.  Any other pairs, in another order, reversed, missing or
repeated, go to ``from_edge_triples`` as triples, which reads or refuses
them.  Neither side keeps a table per order.  On a 2-vCPU x86-64 host
under Python 3.11, at order 841, the writer takes 38 ms against 175 ms for
``to_json_dict`` and ``json.dumps``, and the written-order branch with
``__init__`` 120 ms against 180 ms for ``from_edge_triples``.  A cached
table of "[i,j," prefixes wrote three times faster when warm, but took
65 ms to build at order 841 and made a cold ``witness --H K30 --k 30``
slower; an edge-bit table for ``__init__`` took 110 ms to build there.

``ColoredComplete.__init__`` builds the per-color masks in one walk over
the edge order, one list per color, row i's slice with a running column
counter, and counts the colors used, ``used``, once: every reader (the
rainbow detector's guard, the structure predicates, ``exact``) reads that
count and none builds a color set again.  The counter pays for the count:
on the host above, best of 9 to 15 in-process rounds, ``__init__`` takes
about 9 us at order 8 with 4 colors, as before the count, and 60 to 70 ms
on the order-841 coloring of ``witness --H K30 --k 30``, 3.4 ms of it the
count.
The masks alone, on those two inputs, took 5.4 us and 54 ms with the
counter against 6.6 us and 57 ms with ``enumerate``.  One flat list
indexed ``c * n + v`` and sliced into the rows took 6.3 us but 75 ms: its
index sums allocate once the order passes 256.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Sequence


class UnsupportedSizeError(ValueError):
    """Raised when an input is larger than an exact routine is built to handle."""


# Largest coloring order read from input or built from blocks, and largest
# palette read from input; every grid row has order <= 40, and the dispatcher
# answers S40^10 at k = 4 with order 57.
MAX_COLORING_ORDER = 1024


def check_coloring_order(n: int) -> None:
    """UnsupportedSizeError when a coloring of order n would exceed the cap."""
    if n > MAX_COLORING_ORDER:
        raise UnsupportedSizeError(
            f"colorings are limited to n <= {MAX_COLORING_ORDER}, got n={n}"
        )


def edge_count(n: int) -> int:
    """Number of edges of K_n."""
    return n * (n - 1) // 2


def edge_index(i: int, j: int, n: int) -> int:
    """Position of edge ij in the lexicographic pair ordering of K_n."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def pairs(n: int) -> Iterator[tuple[int, int]]:
    """All vertex pairs of K_n, in the order used by ``edge_index``."""
    return combinations(range(n), 2)


def load_json(text: str) -> object:
    """``json.loads``; input nested too deeply for the decoder is malformed
    input like any other, a ValueError, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def require_keys(data: object, keys: tuple[str, ...], what: str) -> dict:
    """``data`` if it is a JSON object holding every key; ValueError otherwise."""
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise ValueError(f"{what} must be a JSON object with keys {', '.join(keys)}")
    return data


def short_repr(value: object) -> str:
    """``repr(value)``, cut after 60 characters when it is longer, with its
    full length noted, so that an error line echoing an input stays short."""
    text = repr(value)
    if len(text) <= 60:
        return text
    return f"{text[:60]}... ({len(text)} characters)"


def _json_int(value: object) -> int:
    """A JSON integer as it is; floats, booleans and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {short_repr(value)}")
    return value


def _json_rows(rows: object, width: int, what: str) -> list[int]:
    """The entries of a JSON list of integer rows of the given width, flat
    and row by row; ValueError on any other shape.  The shape is checked by
    passes over the rows' types and lengths, the entries' types in one pass
    over the flat entries; ``_json_int`` runs only to name the first entry
    that is refused."""
    if not (
        type(rows) is list
        and set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {width}
    ):
        raise ValueError(f"{what} must be a list of {width}-integer lists")
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int}:
        for x in flat:
            _json_int(x)
    return flat


@dataclass(frozen=True, slots=True, init=False)
class ColoredComplete:
    """An immutable edge coloring of K_n with colors drawn from 1..k.

    ``colors[edge_index(i, j, n)]`` is the color of edge ij.  Per-color
    adjacency is precomputed as vertex bitmasks (``adj[c][v]`` is the mask
    of color-c neighbors of v) so neighborhood queries are O(1), and
    ``used`` is the number of distinct colors on the edges.  Equality,
    hash and repr read ``n``, ``k`` and ``colors`` only; ``adj`` and
    ``used`` follow from them.
    """

    n: int
    k: int
    colors: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    used: int = field(compare=False, repr=False)

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
        colors = tuple(colors)
        if len(colors) != edge_count(n):
            raise ValueError(
                f"expected {edge_count(n)} edge colors for n={n}, got {len(colors)}"
            )
        if colors and not (1 <= min(colors) and max(colors) <= k):
            bad = next(c for c in colors if not 1 <= c <= k)
            raise ValueError(f"edge color {bad} outside 1..{k}")
        adj = [[0] * n for _ in range(k + 1)]
        # row i of the edge order is the slice of edges i-j, j > i
        start = 0
        for i in range(n - 1):
            end = start + n - 1 - i
            bit = 1 << i
            j = i + 1
            for c in colors[start:end]:
                row = adj[c]
                row[i] |= 1 << j
                row[j] |= bit
                j += 1
            start = end
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "adj", tuple([tuple(row) for row in adj]))
        object.__setattr__(self, "used", len(set(colors)))

    @classmethod
    def constant(
        cls,
        n: int,
        k: int,
        color: int = 1,
        special: Mapping[tuple[int, int], int] | None = None,
    ) -> ColoredComplete:
        """Every edge in ``color``, except the edges ij (i < j) of
        ``special``, each in its mapped color."""
        colors = [color] * edge_count(n)
        for (i, j), col in (special or {}).items():
            colors[edge_index(i, j, n)] = col
        return cls(n, k, colors)

    @classmethod
    def from_edge_triples(
        cls, n: int, k: int, triples: Iterable[tuple[int, int, int]]
    ) -> ColoredComplete:
        """Build from (i, j, color) triples; every edge must appear exactly
        once, in a color of 1..k."""
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
        m = edge_count(n)
        # 0 marks an edge no triple has named yet
        cols: list[int] = [0] * m
        for i, j, c in triples:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not an edge of K_n")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) outside vertex range 0..{n - 1}")
            if not 1 <= c <= k:
                raise ValueError(f"edge color {c} outside 1..{k}")
            if i > j:
                i, j = j, i
            # edge_index without its range check, made just above
            idx = i * n - i * (i + 1) // 2 + (j - i - 1)
            if cols[idx] != 0:
                raise ValueError(f"edge ({i}, {j}) assigned twice")
            cols[idx] = c
        if 0 in cols:
            missing = next(e for e, c in zip(pairs(n), cols) if c == 0)
            raise ValueError(f"edge {missing} has no color")
        return cls(n, k, cols)

    @property
    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors)

    @property
    def exact(self) -> bool:
        """True when all k palette colors appear."""
        return self.used == self.k

    def color_of(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.colors[edge_index(i, j, self.n)]

    def recolored(self, i: int, j: int, color: int) -> ColoredComplete:
        """A copy with edge ij recolored; the original is left untouched."""
        if not 1 <= color <= self.k:
            raise ValueError(f"edge color {color} outside 1..{self.k}")
        if i > j:
            i, j = j, i
        cols = list(self.colors)
        cols[edge_index(i, j, self.n)] = color
        return ColoredComplete(self.n, self.k, cols)

    def degree(self, v: int, color: int) -> int:
        return self.adj[color][v].bit_count()

    def edges_in_color(self, color: int) -> tuple[tuple[int, int], ...]:
        return tuple(e for e, c in zip(pairs(self.n), self.colors) if c == color)

    def permuted(
        self, vperm: Sequence[int], cperm: Sequence[int] | None = None
    ) -> ColoredComplete:
        """Relabel vertices by ``vperm`` (old index -> new index) and, when
        given, colors by ``cperm`` (``cperm[c]`` is the new name of color c;
        index 0 is ignored)."""
        n = self.n
        out = [0] * edge_count(n)
        for (i, j), c in zip(pairs(n), self.colors):
            a, b = vperm[i], vperm[j]
            if a > b:
                a, b = b, a
            out[edge_index(a, b, n)] = c if cperm is None else cperm[c]
        return ColoredComplete(n, self.k, out)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "edges": [[i, j, c] for (i, j), c in zip(pairs(self.n), self.colors)],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, written
        one row of the edge order at a time: row i is its prefix "[i,"
        followed by the strings "j,c]", joined by ",[i,"."""
        n, colors = self.n, self.colors
        columns = [f"{j}," for j in range(n)]
        ends = [f"{c}]" for c in range(self.k + 1)]
        rows: list[str] = []
        start = 0
        for i in range(n - 1):
            end = start + n - 1 - i
            head = f"[{i},"
            cells = map(str.__add__, columns[i + 1 :], map(ends.__getitem__, colors[start:end]))
            rows.append(head + f",{head}".join(cells))
            start = end
        return f'{{"n":{n},"k":{self.k},"edges":[{",".join(rows)}]}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> ColoredComplete:
        require_keys(data, ("n", "k", "edges"), "a coloring")
        n = _json_int(data["n"])
        k = _json_int(data["k"])
        check_coloring_order(n)
        if k > MAX_COLORING_ORDER:
            raise UnsupportedSizeError(
                f"palettes are limited to k <= {MAX_COLORING_ORDER}, got k={k}"
            )
        flat = _json_rows(data["edges"], 3, "coloring edges")
        colors = flat[2::3]
        del flat[2::3]
        if flat == list(chain.from_iterable(pairs(n))):
            return cls(n, k, colors)
        return cls.from_edge_triples(n, k, zip(flat[0::2], flat[1::2], colors))


FAMILY_COMPLETE = "complete"
FAMILY_STAR_PLUS = "star_plus"
FAMILY_PINEAPPLE = "pineapple"
FAMILY_COMPLETE_MINUS_MATCHING = "complete_minus_matching"
FAMILY_ARBITRARY = "arbitrary"

_ARBITRARY_MAX_ORDER = 12


@dataclass(frozen=True)
class TargetGraph:
    """A fixed small graph searched for as a monochromatic subgraph.

    Structured families keep their defining parameters, so rules keyed on a
    family stay literal even when two parameterizations happen to build
    isomorphic graphs (S_3^1 and K_3, say).  ``t`` is the order.
    ``edge_list`` is the arbitrary family's input, None for the others;
    ``edges`` is the derived edge list of every family.  ``edges``,
    ``adjacency_masks``, ``max_degree`` and ``clique_number`` are cached
    attributes, each computed at most once per target, and only when read:
    the rule table reads the closed forms of the structured families, so it
    never builds an edge list.
    """

    family: str
    t: int
    r: int | None = None
    omega: int | None = None
    edge_list: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def complete(cls, t: int) -> TargetGraph:
        """K_t."""
        if t < 2:
            raise ValueError(f"complete target needs t >= 2, got t={t}")
        return cls(FAMILY_COMPLETE, t)

    @classmethod
    def star_plus(cls, t: int, r: int) -> TargetGraph:
        """S_t^r: a star on t vertices plus r independent edges between leaves.

        Vertex 0 is the center, 1..t-1 the leaves, and the extra edges are
        (1,2), (3,4), ..., (2r-1, 2r); this forces t >= 2r + 1.
        """
        if r < 0:
            raise ValueError(f"star_plus needs r >= 0, got r={r}")
        if t < 2:
            raise ValueError(f"star_plus needs t >= 2, got t={t}")
        if t < 2 * r + 1:
            raise ValueError(f"star_plus needs t >= 2r + 1, got t={t}, r={r}")
        return cls(FAMILY_STAR_PLUS, t, r=r)

    @classmethod
    def pineapple(cls, t: int, omega: int) -> TargetGraph:
        """PA_{t,omega}: K_omega with t - omega pendant edges at one clique vertex.

        Vertices 0..omega-1 form the clique, vertex 0 carries the pendants
        omega..t-1.
        """
        if omega < 2:
            raise ValueError(f"pineapple needs omega >= 2, got omega={omega}")
        if t < omega + 1:
            raise ValueError(f"pineapple needs t >= omega + 1, got t={t}, omega={omega}")
        return cls(FAMILY_PINEAPPLE, t, omega=omega)

    @classmethod
    def complete_minus_matching(cls, t: int) -> TargetGraph:
        """K_t with a maximum matching removed: edges (0,1), (2,3), ... are dropped.

        For odd t the last vertex keeps full degree t - 1.
        """
        if t < 2:
            raise ValueError(f"complete_minus_matching needs t >= 2, got t={t}")
        return cls(FAMILY_COMPLETE_MINUS_MATCHING, t)

    @classmethod
    def arbitrary(cls, order: int, edges: Iterable[tuple[int, int]]) -> TargetGraph:
        """An explicit graph given by an edge list on vertices 0..order-1."""
        if order < 1:
            raise ValueError(f"arbitrary target needs order >= 1, got {order}")
        if order > _ARBITRARY_MAX_ORDER:
            raise UnsupportedSizeError(
                f"arbitrary targets are limited to order {_ARBITRARY_MAX_ORDER}, got {order}"
            )
        normalized: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if not (0 <= i and j < order):
                raise ValueError(f"edge ({i}, {j}) outside vertex range 0..{order - 1}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            normalized.append((i, j))
        return cls(FAMILY_ARBITRARY, order, edge_list=tuple(sorted(normalized)))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edge list on vertices 0..t-1."""
        t = self.t
        if self.family == FAMILY_ARBITRARY:
            assert self.edge_list is not None
            return self.edge_list
        if self.family == FAMILY_COMPLETE:
            return tuple(pairs(t))
        if self.family == FAMILY_STAR_PLUS:
            assert self.r is not None
            spokes = tuple((0, i) for i in range(1, t))
            extra = tuple((2 * i + 1, 2 * i + 2) for i in range(self.r))
            return spokes + extra
        if self.family == FAMILY_PINEAPPLE:
            assert self.omega is not None
            clique = tuple(pairs(self.omega))
            pendants = tuple((0, j) for j in range(self.omega, t))
            return clique + pendants
        if self.family == FAMILY_COMPLETE_MINUS_MATCHING:
            removed = {(2 * i, 2 * i + 1) for i in range(t // 2)}
            return tuple(e for e in pairs(t) if e not in removed)
        raise ValueError(f"unknown family {self.family!r}")

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks of the target graph."""
        masks = [0] * self.t
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    @property
    def is_complete(self) -> bool:
        """Structural completeness test: does every vertex pair carry an
        edge?  It does exactly when the clique number is the order."""
        return self.clique_number == self.t

    @cached_property
    def max_degree(self) -> int:
        """Maximum degree, in closed form for the structured families.  For
        odd t one vertex of K_t-M is untouched by the removed matching and
        keeps degree t - 1; for even t every vertex drops to t - 2."""
        if self.family == FAMILY_ARBITRARY:
            return max(mask.bit_count() for mask in self.adjacency_masks)
        if self.family == FAMILY_COMPLETE_MINUS_MATCHING and self.t % 2 == 0:
            return self.t - 2
        return self.t - 1

    @cached_property
    def clique_number(self) -> int:
        """Clique number, in closed form for the structured families and by
        clique search, once per target, for the arbitrary one.  A target
        has at most 12 vertices, so each search visits at most 2^12 nodes,
        far below the budget of its ``SearchState``."""
        t = self.t
        if self.family == FAMILY_COMPLETE:
            return t
        if self.family == FAMILY_STAR_PLUS:
            return 3 if self.r else 2
        if self.family == FAMILY_PINEAPPLE:
            assert self.omega is not None
            return self.omega
        if self.family == FAMILY_COMPLETE_MINUS_MATCHING:
            return (t + 1) // 2
        masks = self.adjacency_masks
        omega = 0
        while omega < t and find_clique(SearchState(masks), (1 << t) - 1, omega + 1):
            omega += 1
        return omega


def color_rows(c: ColoredComplete) -> Iterator[list[int]]:
    """Row v of the color matrix for v = 0, 1, ..., n-1: entry u is the color
    of edge uv, and 0 on the diagonal."""
    n, colors = c.n, c.colors
    rows: list[list[int]] = []
    start = 0
    for v in range(n):
        row = [r[v] for r in rows]
        row.append(0)
        end = start + n - 1 - v
        row += colors[start:end]
        rows.append(row)
        start = end
        yield row


def twin_masks(masks: Sequence[int]) -> list[int]:
    """``twin_masks(masks)[v]`` is the mask of v and of every vertex with the
    same neighbours as v apart from each other, in the graph whose neighbour
    bitmasks are ``masks``.

    Non-adjacent twins share their open mask, adjacent twins their closed
    mask, so one pass groups the vertices on both.  No vertex has twins of
    both kinds: if u and v share an open mask and v and w a closed one, then
    w is a neighbour of v and so of u, and u lies in the closed mask of w,
    which is v's, against u and v being non-adjacent.  So the union of v's
    two groups is its twin class."""
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, mask in enumerate(masks):
        bit = 1 << v
        by_open[mask] = by_open.get(mask, 0) | bit
        by_closed[mask | bit] = by_closed.get(mask | bit, 0) | bit
    return [by_open[mask] | by_closed[mask | 1 << v] for v, mask in enumerate(masks)]


def twin_classes(c: ColoredComplete) -> list[int]:
    """``twin_classes(c)[v]`` is the mask of v and of every vertex u that each
    other vertex sees in the same color as v.  That holds exactly when u and
    v are twins in every color class, so these are the ``twin_masks`` of
    every color, intersected."""
    classes = [(1 << c.n) - 1] * c.n
    for masks in c.adj[1:]:
        classes = list(map(int.__and__, classes, twin_masks(masks)))
    return classes


# Nodes that one search in one color class may visit before it gives up with
# UnsupportedSizeError (README "Limits" states the largest count the
# benchmark and the tests reach).
MAX_SEARCH_NODES = 200_000


class SearchState:
    """What one exhaustive search in one color class keeps between its nodes
    and calls (the entry of the monochromatic-copy searches in ``detectors``
    makes one per host and color): the class's neighbour masks, its twin
    masks, built when a branch first fails, and the nodes it may still
    visit.  Every node of the search calls ``visit`` once, the one place the
    budget is spent."""

    __slots__ = ("masks", "_twins", "left")

    def __init__(self, masks: Sequence[int]):
        self.masks = masks
        self._twins: list[int] | None = None
        self.left = MAX_SEARCH_NODES

    def twins(self, v: int) -> int:
        """The mask of v and of its twins in the color class."""
        if self._twins is None:
            self._twins = twin_masks(self.masks)
        return self._twins[v]

    def visit(self) -> None:
        """Count one node; UnsupportedSizeError on the first node past the
        budget of ``MAX_SEARCH_NODES``."""
        self.left -= 1
        if self.left < 0:
            raise UnsupportedSizeError(
                f"the search for a monochromatic copy passed its budget of {MAX_SEARCH_NODES} "
                "nodes in one color class"
            )


def find_clique(state: SearchState, start_mask: int, size: int) -> list[int] | None:
    """A clique of the given size inside the vertex set start_mask of the
    graph ``state.masks``, where masks[v] is v's neighbor bitmask;
    lexicographically first, or None.

    Branch and bound: a node that still needs ``need`` vertices first colors
    its candidates greedily into independent sets, lowest vertex first, and
    stops at ``need`` classes.  A clique meets each class at most once, so
    fewer classes than ``need`` prove that the node holds no completion
    (Tomita & Seki, DMTCS 2003, LNCS 2731).  The bound only cuts subtrees
    without a clique; branching still takes candidates in ascending order,
    so the clique returned is the one the plain search returns.

    ``state`` holds the graph with its twins and budget, so the twins read
    are always the graph's own.  Every node counts against its budget, and
    a branch vertex v that fails takes its twins with it: if a twin w of v,
    still a candidate, completed the clique with a set K, then K holds
    neither v nor w, every vertex of K is a neighbour of w and so of v, and
    K lies among v's candidates, so v's branch would have found K + v.  Only
    failing branches are cut, and the clique returned is the same.  The
    twins are read only when a branch fails with enough candidates left to
    go on.

    A caller completing a clique in the neighbourhood of v to one through v
    may leave out of start_mask every vertex u whose own neighbourhood held
    no clique of this size, with u's twins: a clique of size + 1 through u
    would give one, so u lies in none, and nor does a twin of u, by the
    automorphism that swaps the two.  No clique in v's neighbourhood that
    completes through v uses them, so the clique returned is the same (the
    PA_{t,omega} search in ``detectors`` does this with its failed
    centres)."""
    masks = state.masks
    out: list[int] = []

    def grow(cand: int) -> bool:
        state.visit()
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
            c &= ~state.twins(v)
        return False

    if size == 0:
        return []
    return out if grow(start_mask) else None


_RE_COMPLETE_MINUS = re.compile(r"K(\d+)-M")
_RE_COMPLETE = re.compile(r"K(\d+)")
_RE_STAR_PLUS = re.compile(r"S(\d+)\^(\d+)")
_RE_PINEAPPLE = re.compile(r"PA(\d+),(\d+)")


def parse_hspec(text: str) -> TargetGraph:
    """Parse a target-graph spec string.

    Accepted forms: ``K<t>``, ``S<t>^<r>``, ``PA<t>,<omega>``, ``K<t>-M``,
    or inline JSON ``{"order": t, "edges": [[i, j], ...]}``.
    """
    s = text.strip()
    if s.startswith("{"):
        data = require_keys(load_json(s), ("order", "edges"), "an inline target")
        flat = _json_rows(data["edges"], 2, "target edges")
        return TargetGraph.arbitrary(_json_int(data["order"]), zip(flat[0::2], flat[1::2]))
    if m := _RE_COMPLETE_MINUS.fullmatch(s):
        return TargetGraph.complete_minus_matching(int(m.group(1)))
    if m := _RE_COMPLETE.fullmatch(s):
        return TargetGraph.complete(int(m.group(1)))
    if m := _RE_STAR_PLUS.fullmatch(s):
        return TargetGraph.star_plus(int(m.group(1)), int(m.group(2)))
    if m := _RE_PINEAPPLE.fullmatch(s):
        return TargetGraph.pineapple(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"cannot parse target graph spec {short_repr(text)}")


def render_hspec(H: TargetGraph) -> str:
    """Inverse of ``parse_hspec`` for the structured families; JSON otherwise."""
    if H.family == FAMILY_COMPLETE:
        return f"K{H.t}"
    if H.family == FAMILY_STAR_PLUS:
        return f"S{H.t}^{H.r}"
    if H.family == FAMILY_PINEAPPLE:
        return f"PA{H.t},{H.omega}"
    if H.family == FAMILY_COMPLETE_MINUS_MATCHING:
        return f"K{H.t}-M"
    return json.dumps(
        {"order": H.t, "edges": [list(e) for e in H.edges]}, separators=(",", ":")
    )
