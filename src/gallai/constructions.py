"""Lower-bound witness colorings: the builders, their registry and the
shipped parameter grid.

Each builder produces an edge coloring that avoids both a rainbow 4-edge
path and a monochromatic copy of some target family member.  Constructions
are referred to by their registry names (G1..G6, F1..F13, TW-case-f) and
built through ``build_named``; ``construction_grid`` lists the invocations
the selftest and the acceptance gate verify.  Choosing and certifying a
construction for a query is the dispatcher ``lower_bound_witness``, one
layer up in the ``search`` module.

Every coloring built from blocks (monochromatic cliques or fixed colorings
joined by a small reduced coloring) expands through ``blowup``, the one
place that rejects a non-exact result.  The fixed small colorings are the
``sporadic`` table; its TW-case-f entry is also the template the
``structure`` module matches for case (f).

The registry names map onto fewer builders: G3 is G5 at k = t, F2 is G5 at
k = 4 and F11 is G5 at t = k = 5; F1, F4 and F6 are G6 at k = 4 and
max_degree t - 1, told apart only by their domains in t; F12 and F13 are
one builder at clique sizes 5 and 6.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import groupby
from typing import Callable, Mapping

from gallai.detectors import find_mono_copy_in_color
from gallai.graphs import ColoredComplete, TargetGraph, pairs


@dataclass(frozen=True)
class Part:
    """One block of a blow-up: a monochromatic clique (``color``) or an
    explicitly colored clique (``inner``); size-1 parts need neither."""

    size: int
    color: int | None = None
    inner: ColoredComplete | None = None


@dataclass(frozen=True)
class BlowupSpec:
    """Parts plus the inter-part rule: a single dominant color, or explicit
    colors for every part pair given as (i, j, color) triples."""

    k: int
    parts: tuple[Part, ...]
    inter: int | tuple[tuple[int, int, int], ...] = 1


def _part_offsets(parts: tuple[Part, ...]) -> list[int]:
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.size)
    return offsets


def blowup(spec: BlowupSpec) -> ColoredComplete:
    """Expand a blow-up spec into a concrete coloring.

    The result must be exact for the declared k; a spec whose expansion
    misses a color is rejected.
    """
    if spec.k < 1:
        raise ValueError(f"need k >= 1, got k={spec.k}")
    if not spec.parts:
        raise ValueError("blow-up needs at least one part")
    num = len(spec.parts)
    for idx, part in enumerate(spec.parts):
        if part.size < 1:
            raise ValueError(f"part {idx} has size {part.size}, need >= 1")
        if part.size >= 2 and (part.color is None) == (part.inner is None):
            raise ValueError(f"part {idx} needs exactly one of color or inner coloring")
        if part.color is not None and not 1 <= part.color <= spec.k:
            raise ValueError(f"part {idx} color {part.color} outside 1..{spec.k}")
        if part.inner is not None:
            if part.inner.n != part.size:
                raise ValueError(
                    f"part {idx} inner coloring has order {part.inner.n}, expected {part.size}"
                )
            bad = [c for c in part.inner.used_colors if not 1 <= c <= spec.k]
            if bad:
                raise ValueError(f"part {idx} inner colors {bad} outside 1..{spec.k}")

    if isinstance(spec.inter, int):
        if not 1 <= spec.inter <= spec.k:
            raise ValueError(f"inter color {spec.inter} outside 1..{spec.k}")
        inter = {(i, j): spec.inter for i, j in pairs(num)}
    else:
        inter = {}
        for i, j, col in spec.inter:
            if i > j:
                i, j = j, i
            if not 1 <= col <= spec.k:
                raise ValueError(f"inter color {col} outside 1..{spec.k}")
            if (i, j) in inter:
                raise ValueError(f"part pair ({i}, {j}) assigned twice")
            inter[(i, j)] = col
        missing = [e for e in pairs(num) if e not in inter]
        if missing:
            raise ValueError(f"inter rule misses part pairs {missing}")

    offsets = _part_offsets(spec.parts)
    n = offsets[-1]
    triples: list[tuple[int, int, int]] = []
    for idx, part in enumerate(spec.parts):
        base = offsets[idx]
        if part.size < 2:
            continue
        if part.color is not None:
            for i, j in pairs(part.size):
                triples.append((base + i, base + j, part.color))
        else:
            assert part.inner is not None
            for (i, j), col in zip(pairs(part.size), part.inner.colors):
                triples.append((base + i, base + j, col))
    for (pi, pj), col in inter.items():
        for u in range(offsets[pi], offsets[pi + 1]):
            for w in range(offsets[pj], offsets[pj + 1]):
                triples.append((u, w, col))
    c = ColoredComplete.from_edge_triples(n, spec.k, triples)
    if not c.exact:
        missing_colors = sorted(set(range(1, spec.k + 1)) - c.used_colors)
        raise ValueError(f"blow-up is not exact: colors {missing_colors} unused")
    return c


def star_augmented(
    base_order: int, base_color: int, spoke_colors: list[int]
) -> ColoredComplete:
    """A monochromatic K_base plus one new vertex whose i-th edge back into
    the base is colored spoke_colors[i].  Palette size is the max color used;
    a coloring that misses a palette color is rejected.  Each run of equal
    spoke colors is one part of a blow-up, with the apex as the last part."""
    if len(spoke_colors) != base_order:
        raise ValueError(
            f"need {base_order} spoke colors, got {len(spoke_colors)}"
        )
    runs = [(col, len(list(group))) for col, group in groupby(spoke_colors)]
    apex = len(runs)
    inter = tuple((i, apex, col) for i, (col, _) in enumerate(runs))
    inter += tuple((i, j, base_color) for i, j in pairs(apex))
    parts = tuple(Part(size, color=base_color) for _, size in runs) + (Part(1),)
    k = max([base_color] + list(spoke_colors))
    return blowup(BlowupSpec(k=k, parts=parts, inter=inter))


_PENTAGON = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def pentagon_blowup(t: int) -> ColoredComplete:
    """Five order-(t-1) cliques in color 1, joined by a 2-colored reduced K5
    whose color classes are a 5-cycle and its complement."""
    if t < 3:
        raise ValueError(f"need t >= 3, got t={t}")
    inter = tuple(
        (i, j, 2 if (i, j) in _PENTAGON else 3) for i, j in pairs(5)
    )
    parts = tuple(Part(t - 1, color=1) for _ in range(5))
    return blowup(BlowupSpec(k=3, parts=parts, inter=inter))


def doubling(base: ColoredComplete) -> ColoredComplete:
    """Two copies of a {1,2}-colored graph with all cross edges in color 3."""
    if not base.used_colors <= {1, 2}:
        raise ValueError(f"doubling base must use colors within {{1, 2}}, got {sorted(base.used_colors)}")
    return blowup(BlowupSpec(k=3, parts=(Part(base.n, inner=base),) * 2, inter=3))


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
        raise KeyError(f"unknown sporadic construction {name!r}")
    n, k, triples = _SPORADIC[name]
    return ColoredComplete.from_edge_triples(n, k, triples)


def r35_witness() -> ColoredComplete:
    """A 2-coloring of K13 whose color-1 graph is triangle-free and whose
    color-2 graph has no K5: the cyclic graph on Z13 with color 1 on
    differences {1, 5}, machine-verified on every call."""
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
    counts = _balanced_counts(a - 1, k - 1)
    parts = []
    for color, m in zip(range(2, k + 1), counts):
        parts.extend(Part(t - 1, color=color) for _ in range(m))
    return blowup(BlowupSpec(k=k, parts=tuple(parts), inter=1))


def g5(t: int, k: int) -> ColoredComplete:
    """K_{t-1} in color 1 plus an apex whose t-1 spokes are split as evenly
    as possible over colors 2..k."""
    if t < 3:
        raise ValueError(f"need t >= 3, got t={t}")
    if not 2 <= k <= t:
        raise ValueError(f"need 2 <= k <= t, got k={k}, t={t}")
    counts = _balanced_counts(t - 1, k - 1)
    spokes: list[int] = []
    for color, m in zip(range(2, k + 1), counts):
        spokes.extend([color] * m)
    return star_augmented(t - 1, 1, spokes)


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
    sizes = [p + 1] * q + [p] * (k - 1 - q)
    parts = tuple(Part(s, color=color) for s, color in zip(sizes, range(2, k + 1)))
    return blowup(BlowupSpec(k=k, parts=parts, inter=1))


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
    parts = (Part(t - 1, color=2), Part(r - 1, color=3), Part(r - 1, color=4))
    return blowup(BlowupSpec(k=4, parts=parts, inter=1))


def f6(t: int) -> ColoredComplete:
    """F1 restricted to even t: three cliques of order (t-2)/2."""
    if t < 6 or t % 2 == 1:
        raise ValueError(f"need even t >= 6, got t={t}")
    return g6(t - 1, 4)


def _r35_plus_cliques(size: int) -> ColoredComplete:
    """The 13-vertex 2-colored block of ``r35_witness`` plus two K_size in
    colors 3 and 4, inter color 1 (F12 at size 5, order 23; F13 at size 6,
    order 25)."""
    parts = (Part(13, inner=r35_witness()), Part(size, color=3), Part(size, color=4))
    return blowup(BlowupSpec(k=4, parts=parts, inter=1))


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
    """Build a registered construction from CLI-style parameters."""
    if name not in BUILDERS:
        raise KeyError(f"unknown construction {name!r}")
    fn, needed = BUILDERS[name]
    missing = [p for p in needed if p not in params]
    if missing:
        raise ValueError(f"construction {name} needs parameters {missing}")
    extra = [p for p in params if p not in needed]
    if extra:
        raise ValueError(f"construction {name} does not take parameters {extra}")
    return fn(**{p: params[p] for p in needed})


_GRID: tuple[dict, ...] | None = None


def construction_grid() -> tuple[dict, ...]:
    """The shipped parameter grid: for each row, building ``name`` with
    ``params`` must give an exact coloring of the stated ``order`` that a
    witness check against ``target`` accepts."""
    global _GRID
    if _GRID is None:
        text = resources.files("gallai").joinpath("data/construction_grids.json").read_text()
        _GRID = tuple(json.loads(text))
    return _GRID
