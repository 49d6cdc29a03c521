"""Lower-bound witness colorings: the builders, their registry and the
shipped parameter grid.

Each builder produces an edge coloring that avoids both a rainbow 4-edge
path and a monochromatic copy of some target family member.  Constructions
are referred to by their registry names (G1..G6, F1..F13, TW-case-f) and
built through ``build_named``; ``construction_grid`` lists the invocations
the selftest and the acceptance gate verify.  Choosing and certifying a
construction for a query is the dispatcher ``lower_bound_witness``, one
layer up in the ``search`` module.

Every coloring built from blocks expands through ``blowup``.  A block is
any coloring: a monochromatic clique is ``ColoredComplete.constant``, a
single vertex is a coloring of order 1, and a Ramsey coloring such as
``r35_witness`` enters as it is.  Blocks are joined by one dominant color
or by a reduced coloring: a ``ColoredComplete`` with one vertex per block;
a result that misses a palette color is rejected.  G5, a clique plus one
apex, is ``ColoredComplete.constant`` with the apex's spokes recolored; it
uses every color of its palette by construction.  The fixed small colorings
are the ``sporadic`` table; its TW-case-f entry is also the template the
``structure`` module matches for case (f).

``build_named`` checks the name and parameters on every call, then reads a
per-process table of built colorings: a ``functools.lru_cache`` at its
default bound of 128 entries, keyed on the builder function and the
parameter values in the order the registry lists them, their types included
(t = 6.0 is not t = 6).  The table keeps colorings of order at most
``MAX_TABLED_ORDER`` only; a larger one is built on every call.  Each
construction of the grid and of the dispatcher's answers (order 57 at most)
is thus built once per process however often ``witness``, the dispatcher or
the selftest asks for it.  Sharing is safe because a ``ColoredComplete`` is
immutable; an error a builder raises is raised again on every call, never
stored; and the table holds colorings only, so every caller still verifies
what it gets.

The registry names map onto fewer builders: G3 is G5 at k = t, F2 is G5 at
k = 4 and F11 is G5 at t = k = 5; F1, F4 and F6 are G6 at k = 4 and
max_degree t - 1, told apart only by their domains in t; F12 and F13 are
one builder at clique sizes 5 and 6.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache, partial
from importlib import resources
from itertools import repeat
from typing import Callable, Mapping, Sequence

from gallai.detectors import find_mono_copy_in_color
from gallai.graphs import ColoredComplete, TargetGraph, check_coloring_order, pairs


def blowup(
    k: int, parts: Sequence[ColoredComplete], inter: int | ColoredComplete = 1
) -> ColoredComplete:
    """Join colorings into one: part i keeps its own edge colors on the
    vertices after those of parts 0..i-1, and every edge between parts i and
    j takes ``inter``, a single color or the color of edge ij of a reduced
    coloring with one vertex per part.  The result must be exact for k; one
    that misses a color is rejected."""
    if not parts:
        raise ValueError("blow-up needs at least one part")
    num = len(parts)
    n = sum(part.n for part in parts)
    check_coloring_order(n)
    if isinstance(inter, int):
        reduced = repeat(inter)
    elif inter.n == num:
        reduced = iter(inter.colors)
    else:
        raise ValueError(f"reduced coloring has order {inter.n}, not one vertex per part ({num})")

    # Row v of K_n lists the colors of edges v-w for w > v: v's own row of
    # its part's coloring, then the inter color of each later vertex.  The
    # reduced colors are read in pair order, row by row as well.
    colors: list[int] = []
    for idx, part in enumerate(parts):
        later: list[int] = []
        for other in parts[idx + 1 :]:
            later += [next(reduced)] * other.n
        start = 0
        for v in range(part.n):
            end = start + part.n - 1 - v
            colors += part.colors[start:end]
            colors += later
            start = end
    c = ColoredComplete(n, k, colors)
    if not c.exact:
        missing_colors = sorted(set(range(1, k + 1)) - c.used_colors)
        raise ValueError(f"blow-up is not exact: colors {missing_colors} unused")
    return c


_PENTAGON = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def pentagon_blowup(t: int) -> ColoredComplete:
    """Five order-(t-1) cliques in color 1, joined by a reduced K5 colored
    2 on a 5-cycle and 3 on its complement."""
    if t < 3:
        raise ValueError(f"need t >= 3, got t={t}")
    check_coloring_order(5 * (t - 1))
    reduced = ColoredComplete(5, 3, [2 if e in _PENTAGON else 3 for e in pairs(5)])
    return blowup(3, [ColoredComplete.constant(t - 1, 3, 1)] * 5, reduced)


def doubling(base: ColoredComplete) -> ColoredComplete:
    """Two copies of a {1,2}-colored graph with all cross edges in color 3."""
    if not base.used_colors <= {1, 2}:
        raise ValueError(f"doubling base must use colors within {{1, 2}}, got {sorted(base.used_colors)}")
    return blowup(3, [base, base], 3)


_SPORADIC: dict[str, tuple[int, int, tuple[tuple[int, int, int], ...]]] = {
    "G1": (4, 5, ((0, 1, 1), (2, 3, 1), (0, 2, 2), (0, 3, 3), (1, 2, 4), (1, 3, 5))),
    "G2": (4, 6, ((0, 1, 1), (2, 3, 2), (0, 2, 3), (0, 3, 4), (1, 2, 5), (1, 3, 6))),
    "F3": (
        5,
        4,
        (
            (0, 3, 1), (0, 4, 1), (1, 2, 1),
            (0, 2, 2), (1, 3, 2), (1, 4, 2),
            (0, 1, 3), (2, 3, 3), (2, 4, 3),
            (3, 4, 4),
        ),
    ),
    "F9": (4, 5, ((1, 2, 1), (1, 3, 1), (0, 1, 2), (0, 2, 3), (0, 3, 4), (2, 3, 5))),
    "F10": (4, 6, ((1, 2, 1), (0, 1, 2), (0, 2, 3), (0, 3, 4), (2, 3, 5), (1, 3, 6))),
}
_SPORADIC["TW-case-f"] = _SPORADIC["F3"]


def sporadic(name: str) -> ColoredComplete:
    """One of the fixed small witness colorings, by registry name."""
    if name not in _SPORADIC:
        raise ValueError(f"unknown sporadic construction {name!r}")
    n, k, triples = _SPORADIC[name]
    return ColoredComplete.from_edge_triples(n, k, triples)


def r35_witness() -> ColoredComplete:
    """A 2-coloring of K13 whose color-1 graph is triangle-free and whose
    color-2 graph has no K5: the cyclic graph on Z13 with color 1 on
    differences {1, 5}, machine-verified on every call.  F8, F12 and F13
    build on it, and through ``build_named`` each of them calls it once per
    process."""
    triples = [
        (i, j, 1 if min(j - i, 13 - (j - i)) in (1, 5) else 2)
        for i, j in pairs(13)
    ]
    c = ColoredComplete.from_edge_triples(13, 2, triples)
    if (
        find_mono_copy_in_color(c, TargetGraph.complete(3), 1) is not None
        or find_mono_copy_in_color(c, TargetGraph.complete(5), 2) is not None
    ):
        raise RuntimeError(
            "the {1, 5} circulant on Z13 failed its check; detectors are inconsistent"
        )
    return c


def _balanced_counts(total: int, groups: int) -> list[int]:
    """Split total into the given number of positive group sizes, larger
    groups first (the +1 remainders go to the lowest-indexed groups)."""
    if groups < 1 or total < groups:
        raise ValueError(f"cannot split {total} into {groups} positive groups")
    base, rem = divmod(total, groups)
    return [base + 1] * rem + [base] * (groups - rem)


def g4(a: int, t: int, k: int) -> ColoredComplete:
    """a-1 cliques of order t-1; their inner colors split the palette 2..k
    as evenly as possible; everything between parts is color 1."""
    if a < 3:
        raise ValueError(f"need a >= 3, got a={a}")
    if t < 3:
        raise ValueError(f"need t >= 3, got t={t}")
    if not 2 <= k <= a:
        raise ValueError(f"need 2 <= k <= a, got k={k}, a={a}")
    check_coloring_order((a - 1) * (t - 1))
    counts = _balanced_counts(a - 1, k - 1)
    parts: list[ColoredComplete] = []
    for color, m in zip(range(2, k + 1), counts):
        parts += [ColoredComplete.constant(t - 1, k, color)] * m
    return blowup(k, parts)


def g5(t: int, k: int) -> ColoredComplete:
    """K_{t-1} in color 1 plus an apex whose t-1 spokes are split as evenly
    as possible over colors 2..k."""
    if t < 3:
        raise ValueError(f"need t >= 3, got t={t}")
    if not 2 <= k <= t:
        raise ValueError(f"need 2 <= k <= t, got k={k}, t={t}")
    check_coloring_order(t)
    counts = _balanced_counts(t - 1, k - 1)
    spokes: list[int] = []
    for color, m in zip(range(2, k + 1), counts):
        spokes.extend([color] * m)
    return ColoredComplete.constant(t, k, 1, {(v, t - 1): s for v, s in enumerate(spokes)})


def g6(max_degree: int, k: int) -> ColoredComplete:
    """k-1 cliques with inner colors 2..k and inter color 1, sized so the
    order is max_degree + p - 1 where max_degree - 1 = p(k-2) + q."""
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    if max_degree < 2:
        raise ValueError(f"need max_degree >= 2, got {max_degree}")
    p, q = divmod(max_degree - 1, k - 2)
    # some part has exactly p vertices, and exactness needs an edge in it
    if p < 2:
        raise ValueError(f"degenerate split: max_degree={max_degree} under k={k}")
    check_coloring_order(max_degree + p - 1)
    sizes = [p + 1] * q + [p] * (k - 1 - q)
    parts = [ColoredComplete.constant(s, k, color) for s, color in zip(sizes, range(2, k + 1))]
    return blowup(k, parts)


def f1(t: int) -> ColoredComplete:
    """G6 at max_degree t - 1 and k = 4: three cliques in colors 2, 3, 4
    (the first enlarged when t is odd), inter color 1."""
    if t < 6:
        raise ValueError(f"need t >= 6, got t={t}")
    return g6(t - 1, 4)


def f4(t: int) -> ColoredComplete:
    """F1 restricted to odd t: orders (t-1)/2, (t-3)/2, (t-3)/2."""
    if t < 7 or t % 2 == 0:
        raise ValueError(f"need odd t >= 7, got t={t}")
    return g6(t - 1, 4)


def f5(t: int, r: int) -> ColoredComplete:
    """K_{t-1} in color 2 plus two K_{r-1} in colors 3, 4, inter color 1;
    order t + 2r - 3."""
    if r < 3:
        raise ValueError(f"need r >= 3, got r={r}")
    if t < 2 * r + 1:
        raise ValueError(f"need t >= 2r + 1, got t={t}, r={r}")
    check_coloring_order(t + 2 * r - 3)
    sizes = ((t - 1, 2), (r - 1, 3), (r - 1, 4))
    return blowup(4, [ColoredComplete.constant(m, 4, color) for m, color in sizes])


def f6(t: int) -> ColoredComplete:
    """F1 restricted to even t: three cliques of order (t-2)/2."""
    if t < 6 or t % 2 == 1:
        raise ValueError(f"need even t >= 6, got t={t}")
    return g6(t - 1, 4)


def _r35_plus_cliques(size: int) -> ColoredComplete:
    """The 13-vertex 2-colored block of ``r35_witness`` plus two K_size in
    colors 3 and 4, inter color 1 (F12 at size 5, order 23; F13 at size 6,
    order 25)."""
    cliques = [ColoredComplete.constant(size, 4, color) for color in (3, 4)]
    return blowup(4, [r35_witness()] + cliques)


# name -> (builder, its parameters in the builder's positional order)
BUILDERS: dict[str, tuple[Callable[..., ColoredComplete], tuple[str, ...]]] = {
    "G1": (partial(sporadic, "G1"), ()),
    "G2": (partial(sporadic, "G2"), ()),
    "G3": (lambda t: g5(t, t), ("t",)),
    "G4": (g4, ("a", "t", "k")),
    "G5": (g5, ("t", "k")),
    "G6": (g6, ("max_degree", "k")),
    "F1": (f1, ("t",)),
    "F2": (lambda t: g5(t, 4), ("t",)),
    "F3": (partial(sporadic, "F3"), ()),
    "F4": (f4, ("t",)),
    "F5": (f5, ("t", "r")),
    "F6": (f6, ("t",)),
    "F7": (pentagon_blowup, ("t",)),
    "F8": (lambda: doubling(r35_witness()), ()),
    "F9": (partial(sporadic, "F9"), ()),
    "F10": (partial(sporadic, "F10"), ()),
    "F11": (partial(g5, 5, 5), ()),
    "F12": (partial(_r35_plus_cliques, 5), ()),
    "F13": (partial(_r35_plus_cliques, 6), ()),
    "TW-case-f": (partial(sporadic, "TW-case-f"), ()),
}


def build_named(name: str, params: Mapping[str, int]) -> ColoredComplete:
    """Build a registered construction from CLI-style parameters; equal
    calls share one coloring, built on the first."""
    if name not in BUILDERS:
        raise ValueError(f"unknown construction {name!r}")
    fn, needed = BUILDERS[name]
    missing = [p for p in needed if p not in params]
    if missing:
        raise ValueError(f"construction {name} needs parameters {missing}")
    extra = [p for p in params if p not in needed]
    if extra:
        raise ValueError(f"construction {name} does not take parameters {extra}")
    try:
        return _built(fn, *(params[p] for p in needed))
    except _Untabled as large:
        return large.coloring


# Largest order of a coloring that ``build_named`` keeps in its table.  The
# 128 largest such colorings hold 25.8 MB (README "Limits"), where 128
# colorings of order up to MAX_COLORING_ORDER could hold about 1.7 GB.
MAX_TABLED_ORDER = 128


class _Untabled(Exception):
    """Carries a coloring above ``MAX_TABLED_ORDER`` out of ``_built``: an
    ``lru_cache`` stores no call that raises."""

    def __init__(self, coloring: ColoredComplete):
        super().__init__(coloring.n)
        self.coloring = coloring


@lru_cache(typed=True)
def _built(fn: Callable[..., ColoredComplete], *values: int) -> ColoredComplete:
    """``fn(*values)``, built once per process for each builder and
    parameter tuple; a raised error and a coloring above
    ``MAX_TABLED_ORDER`` (raised as ``_Untabled``) are not stored."""
    coloring = fn(*values)
    if coloring.n > MAX_TABLED_ORDER:
        raise _Untabled(coloring)
    return coloring


@cache
def construction_grid() -> tuple[dict, ...]:
    """The shipped parameter grid, read once: for each row, building ``name``
    with ``params`` must give an exact coloring of the stated ``order`` that
    a witness check against ``target`` accepts."""
    text = resources.files("gallai").joinpath("data/construction_grids.json").read_text()
    return tuple(json.loads(text))
