"""Structural classification of rainbow-path-free colorings.

A coloring of K_n (n >= 5) with no rainbow 4-edge path falls, after
renumbering colors, into at least one of six shapes:

  (a) at most three colors are used;
  (b) some color is dominant: the vertex sets touched by the other colors
      are pairwise disjoint;
  (c) all edges missing one vertex share a single color;
  (d) three vertices a, b, c with color classes {ab}, {ac}, and
      {bc} plus possibly more edges at a, everything else in one color;
  (e) four vertices a, b, c, d with classes {ab} (possibly plus cd),
      {ac, bd}, {ad, bc}, everything else in one color;
  (f) one sporadic coloring of K5 (``sporadic("TW-case-f")``): a lone edge
      uv in one color, and for each other vertex x, with yz the edge of
      the other two, the edges xu, xv and yz in a color of their own.

``classify_p5free`` reports which shapes hold, not where they hold.  It
gates the predicates on the number of colors used (``c.used``, counted
when the coloring was built): (a) is called only with three colors or
fewer, (d), (e) and (f) only with exactly four, and (b) and (c) always.
Each skipped predicate's own first test reads that count and returns
False, so the gate changes no answer; it saves the calls, and with five
colors or more only (b) and (c) run.  On the 6,292 uniform colorings of a
classify pass (seed 11) that hold a rainbow 4-edge path, 4,794 of them
with five colors or more, the gated predicates take a median of about
1.9 us against 2.1 us for all six (2 vCPUs, Python 3.11).

Each predicate is a yes-or-no test that runs its cheapest exact
disqualifiers first, on the number of colors used, the sorted class sizes
or a few entries of the flat color tuple, and only then reads the color
profile ``{color: (edge count, touched-vertex mask)}`` or the per-color
adjacency masks ``c.adj``.  The class sizes and the profile are each built
at most once per call, on their first read, and kept by no coloring:

  - (a) holds exactly with three colors or fewer, and (d), (e) and (f)
    need exactly four: the tests the count gate repeats;
  - (b) holds with two colors and fails with one; with more it fails as
    soon as vertex 0 sees three colors, because a vertex touched three
    times rules it out;
  - (c) reads no profile.  Its color can only be the color of edge 01 or
    of edge (n-2)(n-1): the C(n-1, 2) edges missing a vertex v include edge
    01 when v is not 0 or 1, and edge (n-2)(n-1) otherwise, since n >= 5;
  - with four colors, the class sizes come before the profile: (d) needs
    two 1-edge classes, (e) two 2-edge classes, and (f) n = 5 with sizes
    1, 3, 3, 3.  (e) then needs its two 2-edge classes on the same four
    vertices.

The combined answer is cross-checked against the rainbow detector.  A
rainbow 4-edge path has four colors, so a host with fewer holds none and
is not scanned; the check still requires a shape of it.

The same shapes drive ``p5free_classes``, which generates every exact
k-coloring of K_n without a rainbow 4-edge path, one member coloring per
vertex-and-color isomorphism class: the case generators emit pairwise
non-isomorphic candidates, and it returns them as they are, keying none.
``enumerate_p5free`` keys the members and returns the key-sorted decode.
The part graphs of case (b), on s <= 5 vertices, come from orbit marking
(``_graphs_min_deg1``), which keys nothing; each call lists them once per
part size.  Case (c) lists its block counts directly, as the multisets
of positive counts with the right total, and draws none it discards.

``p5free_classes`` validates its arguments, generates and guards on every
call and keeps no table; ``check_n`` (``search``) keeps the one class cache.
"""

from __future__ import annotations

import os
from functools import reduce
from itertools import (
    combinations_with_replacement,
    groupby,
    permutations,
    product,
)
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from gallai.canonical import canonical_form, coloring_from_key
from gallai.constructions import sporadic
from gallai.detectors import Embedding, find_rainbow_path
from gallai.graphs import (
    ColoredComplete,
    UnsupportedSizeError,
    edge_count,
    edge_index,
    pairs,
)

MAX_ENUM_N = 9
MAX_ENUM_K = 12

_T = TypeVar("_T")
_U = TypeVar("_U")


class TheoremViolation(RuntimeError):
    """A structural guarantee failed on a concrete coloring; this signals a
    bug in a predicate or detector, never a property of the input."""


def resolve_threads() -> int:
    """The CPU count, for the ``# env`` line of ``perfbench/run.py``, its
    only reader.  No command or library function takes a thread count or
    reads one from the environment: all work runs in the calling thread."""
    return os.cpu_count() or 1


def parallel_map(
    fn: Callable[[_T], _U], items: Sequence[_T], threads: int
) -> list[_U]:
    """Order-preserving map in the calling thread; ``threads`` is ignored.
    The work is pure Python, so a thread pool gains nothing under the
    interpreter lock.  No function calls it; the benchmark's tracer binds
    it here and in ``search``."""
    return [fn(x) for x in items]


class P4Report(NamedTuple):
    """Outcome for the 2-edge-path-free structure check: ``case`` is "a"
    (at most two colors) or "b" (K4 in three perfect matchings); otherwise
    ``rainbow`` holds a rainbow 3-edge path."""

    case: str | None
    rainbow: Embedding | None


class StructureReport(NamedTuple):
    """The shapes among a-f that hold, by letter; ``rainbow`` holds the
    rainbow 4-edge path exactly when no shape applies."""

    cases: frozenset[str]
    rainbow: Embedding | None


def classify_p4free(c: ColoredComplete) -> P4Report:
    """Structure of colorings without a rainbow 3-edge path; raises
    TheoremViolation if neither shape applies yet no rainbow path exists."""
    if c.n < 4:
        raise ValueError(f"classification needs n >= 4, got n={c.n}")
    if c.used <= 2:
        return P4Report("a", None)
    if c.n == 4 and c.used == 3:
        factors = [c.edges_in_color(col) for col in sorted(c.used_colors)]
        if all(
            len(f) == 2 and len({v for e in f for v in e}) == 4 for f in factors
        ):
            return P4Report("b", None)
    emb = find_rainbow_path(c, 3)
    if emb is None:
        raise TheoremViolation(
            f"no rainbow 3-edge path and no structure case in {c!r}"
        )
    return P4Report(None, emb)


def _color_profile(c: ColoredComplete) -> dict[int, tuple[int, int]]:
    """``{color: (edge count, touched-vertex mask)}`` for the used colors,
    in increasing color order."""
    profile = {}
    colors, adj = c.colors, c.adj
    # no edge has color 0, so its row is empty
    for col in range(1, len(adj)):
        touched = reduce(or_, adj[col], 0)
        if touched:
            profile[col] = (colors.count(col), touched)
    return profile


class _Host:
    """A coloring as the case predicates read it: ``sizes()``, its class
    sizes in increasing order, and ``profile()``, its ``_color_profile``,
    each built on the first call and kept for this host only."""

    __slots__ = ("c", "_sizes", "_profile")

    def __init__(self, c: ColoredComplete):
        self.c = c
        self._sizes = None
        self._profile = None

    def sizes(self) -> list[int]:
        if self._sizes is None:
            colors = self.c.colors
            self._sizes = sorted(map(colors.count, set(colors)))
        return self._sizes

    def profile(self) -> dict[int, tuple[int, int]]:
        if self._profile is None:
            self._profile = _color_profile(self.c)
        return self._profile


def _case_a(h: _Host) -> bool:
    return h.c.used <= 3


def _case_b(h: _Host) -> bool:
    # With two colors either one is dominant.  A vertex that sees three
    # colors is touched three times (``_has_dominant``); vertex 0's colors
    # are the first n - 1 edges'.
    c = h.c
    if c.used <= 2:
        return c.used == 2
    return len(set(c.colors[: c.n - 1])) < 3 and _has_dominant(h.profile())


def _has_dominant(profile: dict[int, tuple[int, int]]) -> bool:
    """Whether some color, the dominant one, leaves the other colors'
    touched masks pairwise disjoint when it is removed; False when the
    profile has fewer than two colors.  They are disjoint exactly when no
    vertex is touched three times and the dominant color touches every
    vertex touched twice."""
    if len(profile) < 2:
        return False
    once = twice = thrice = 0
    for _, touched in profile.values():
        thrice |= twice & touched
        twice |= once & touched
        once |= touched
    return not thrice and any(not twice & ~touched for _, touched in profile.values())


def _case_c(h: _Host) -> bool:
    # The C(n-1, 2) edges missing a vertex v share one color, so it is the
    # color of any one of them: of edge 01 when v is not 0 or 1, and of edge
    # (n-2)(n-1) when it is, since n - 2 >= 3 once n >= 5.  The color needs
    # C(n-1, 2) edges, more than half of all.
    c = h.c
    n, colors, adj = c.n, c.colors, c.adj
    rest = edge_count(n - 1)
    col = colors[0]
    count = colors.count(col)
    if count >= rest and any(count - adj[col][v].bit_count() == rest for v in range(2, n)):
        return True
    col = colors[-1]
    count = colors.count(col)
    return count >= rest and any(count - adj[col][v].bit_count() == rest for v in (0, 1))


def _case_d(h: _Host) -> bool:
    # ab and ac are two 1-edge classes
    if h.c.used != 4 or h.sizes()[1] != 1:
        return False
    c, profile = h.c, h.profile()
    singles = [col for col, (count, _) in profile.items() if count == 1]
    for colx, coly in permutations(singles, 2):
        e1, e2 = profile[colx][1], profile[coly][1]
        shared = e1 & e2
        if not shared:
            continue
        a = shared.bit_length() - 1
        b = (e1 ^ shared).bit_length() - 1
        cc = (e2 ^ shared).bit_length() - 1
        # bc is neither ab nor ac, so its color is neither colx nor coly.
        colz = c.color_of(b, cc)
        if profile[colz][0] - 1 == c.degree(a, colz):
            return True
    return False


def _case_e(h: _Host) -> bool:
    # {ac, bd} and {ad, bc} are two 2-edge classes
    if h.c.used != 4 or h.sizes().count(2) < 2:
        return False
    c, profile = h.c, h.profile()
    # Two classes must each be a perfect matching of the quad, so only a
    # vertex set that two 2-edge classes both touch can be the quad.
    touched4 = [
        touched
        for count, touched in profile.values()
        if count == 2 and touched.bit_count() == 4
    ]
    for quad in {t for t in touched4 if touched4.count(t) > 1}:
        q0, q1, q2, q3 = (v for v in range(c.n) if quad >> v & 1)
        matchings = (((q0, q1), (q2, q3)), ((q0, q2), (q1, q3)), ((q0, q3), (q1, q2)))
        # pair_colors[i]: the colors of matching i's two edges, as listed
        pair_colors = [tuple(c.color_of(u, w) for u, w in m) for m in matchings]
        # exact[i]: the color whose class is matching i, or 0
        exact = [a if a == b and profile[a][0] == 2 else 0 for a, b in pair_colors]
        for iz in range(3):
            if not all(exact[i] for i in range(3) if i != iz):
                continue
            # The class of ab lies inside this matching: both its edges, or
            # one edge alone in its class.
            col1, col2 = pair_colors[iz]
            if exact[iz] or 1 in (profile[col1][0], profile[col2][0]):
                return True
    return False


_CASE_F = sporadic("TW-case-f")


def _case_f(h: _Host) -> bool:
    # Case (f) is K5 with a lone edge uv whose other three vertices x each
    # see u, v and the edge of the other two in one color; the class sizes
    # 1, 3, 3, 3 then force the three colors apart.
    c = h.c
    if c.n != 5 or c.used != 4 or h.sizes() != [1, 3, 3, 3]:
        return False
    lone = next(touched for count, touched in h.profile().values() if count == 1)
    u, v = (x for x in range(5) if lone >> x & 1)
    a, b, d = (x for x in range(5) if not lone >> x & 1)
    color = c.color_of
    for x, y, z in ((a, b, d), (b, a, d), (d, a, b)):
        if not color(x, u) == color(x, v) == color(y, z):
            return False
    return True


_CASES = (
    ("a", _case_a),
    ("b", _case_b),
    ("c", _case_c),
    ("d", _case_d),
    ("e", _case_e),
    ("f", _case_f),
)


def classify_p5free(c: ColoredComplete) -> StructureReport:
    """The shapes among a-f that hold; empty exactly when the coloring has
    a rainbow 4-edge path (cross-checked, TheoremViolation on
    disagreement)."""
    if c.n < 5:
        raise ValueError(f"classification needs n >= 5, got n={c.n}")
    used = c.used
    # the count gate (module docstring): (a) needs three colors or fewer,
    # (d), (e) and (f) exactly four
    names = "abc" if used <= 3 else "bcdef" if used == 4 else "bc"
    host = _Host(c)
    cases = frozenset([name for name, holds in _CASES if name in names and holds(host)])
    # a rainbow 4-edge path has four colors
    rainbow = find_rainbow_path(c, 4) if used >= 4 else None
    if bool(cases) == (rainbow is not None):
        raise TheoremViolation(
            f"cases {sorted(cases)} vs rainbow {rainbow} disagree on {c!r}"
        )
    return StructureReport(cases, rainbow)


def _graphs_min_deg1(s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All graphs on s labeled vertices with minimum degree >= 1, one per
    isomorphism class, as edge tuples: the least edge mask of each class,
    in increasing order.  The masks of K_s are walked in increasing order;
    one with no isolated vertex that is not yet marked is the least of its
    orbit under the s! vertex permutations, so it is kept and marks that
    orbit.  Case (b) asks for s <= 5; s = 6 takes 70 to 110 ms (2 vCPUs,
    Python 3.11)."""
    all_pairs = list(pairs(s))
    # images[p][i]: the bit of edge i's image under vertex permutation p
    images = [
        [1 << edge_index(*sorted((p[i], p[j])), s) for i, j in all_pairs]
        for p in permutations(range(s))
    ]
    seen: set[int] = set()
    out = []
    for mask in range(1, 1 << len(all_pairs)):
        if mask in seen:
            continue
        kept = [idx for idx in range(len(all_pairs)) if mask >> idx & 1]
        edges = tuple(all_pairs[idx] for idx in kept)
        if len({v for e in edges for v in e}) == s:
            seen.update(sum(image[idx] for idx in kept) for image in images)
            out.append(edges)
    return tuple(out)


def _candidates_case_b(n: int, k: int) -> Iterable[ColoredComplete]:
    """Disjoint vertex sets per color 2..k, each inducing a graph of its
    color with minimum degree 1 (the rest of the part in color 1), all other
    edges color 1.  The k - 1 part sizes lie in 2..n - 2(k - 2), as the other
    parts have two vertices or more, and (2, ..., 2, s) reaches each s there,
    so the part graphs of each size are generated once per call, up front."""
    top = n - 2 * (k - 2)
    graphs = {s: _graphs_min_deg1(s) for s in range(2, top + 1)}
    for sizes in combinations_with_replacement(range(2, top + 1), k - 1):
        if sum(sizes) > n:
            continue
        per_run = [
            combinations_with_replacement(graphs[s], len(list(run))) for s, run in groupby(sizes)
        ]
        for combos in product(*per_run):
            special = {}
            offset = 0
            for color, (s, edges) in enumerate(zip(sizes, sum(combos, ())), start=2):
                for i, j in edges:
                    special[offset + i, offset + j] = color
                offset += s
            yield ColoredComplete.constant(n, k, 1, special)


def _spoke_counts(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every nondecreasing tuple of ``parts`` positive counts summing to
    ``total``, in lexicographic order; ``total >= parts >= 1``.  An entry
    that leaves too little for the later entries, each at least as large,
    is never tried, so every tuple begun is completed."""

    def grow(total: int, parts: int, least: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(least, total // parts + 1):
            for rest in grow(total - first, parts - 1, first):
                yield (first, *rest)

    return grow(total, parts, 1)


def _candidates_case_c(n: int, k: int) -> Iterable[ColoredComplete]:
    """Monochromatic K_{n-1} in color 1 plus an apex; apex edge colors cover
    2..k, sorted into blocks.  With c1 apex edges in color 1, the k - 1
    block counts are positive and sum to n - 1 - c1; they are chosen as a
    multiset, listed by ``_spoke_counts``.  With k > n no c1 is left."""
    for c1 in range(n - k + 1):
        for rest in _spoke_counts(n - 1 - c1, k - 1):
            spokes = [1] * c1
            for color, count in enumerate(rest, start=2):
                spokes += [color] * count
            yield ColoredComplete.constant(
                n, k, 1, {(v, n - 1): s for v, s in enumerate(spokes) if s != 1}
            )


def _candidates_case_d(n: int, k: int) -> Iterable[ColoredComplete]:
    if k != 4:
        return
    for s in range(n - 2):
        extra = {(0, v): 4 for v in range(3, 3 + s)}
        yield ColoredComplete.constant(n, k, 1, {(0, 1): 2, (0, 2): 3, (1, 2): 4, **extra})


def _candidates_case_e(n: int, k: int) -> Iterable[ColoredComplete]:
    if k != 4:
        return
    shape = {(0, 1): 2, (0, 2): 3, (1, 3): 3, (0, 3): 4, (1, 2): 4}
    yield ColoredComplete.constant(n, k, 1, shape)
    yield ColoredComplete.constant(n, k, 1, {**shape, (2, 3): 2})


def _candidates_case_f(n: int, k: int) -> Iterable[ColoredComplete]:
    if n == 5 and k == 4:
        yield _CASE_F


def p5free_classes(n: int, k: int) -> list[ColoredComplete]:
    """Every exact k-coloring of K_n with no rainbow 4-edge path, one member
    per vertex-and-color isomorphism class, not in key order.  Only k >= 4
    is supported: with fewer colors no rainbow 4-edge path exists and the
    answer would be all colorings.

    The members are the case generators' candidates, in generation order.
    Every candidate must be exact and rainbow-free; one that is not is a
    generator bug and raises TheoremViolation.  No two candidates are
    isomorphic, so none is dropped.  In case (b), color 1 is the one color
    that touches every vertex, so an isomorphism fixes it and permutes the
    parts; their sizes, and the graphs of equal-size parts, are chosen as
    multisets.  Case (c) chooses its spoke counts as a multiset.  Cases (d)
    to (f) are fixed shapes.  The census tests key every candidate over the
    whole domain, n 5..9 x k 4..12, and find no two alike."""
    if n < 5:
        raise ValueError(f"enumeration needs n >= 5, got n={n}")
    if k <= 3:
        raise ValueError(
            f"enumeration needs k >= 4 (every k <= 3 coloring qualifies), got k={k}"
        )
    if n > MAX_ENUM_N:
        raise UnsupportedSizeError(f"enumeration is limited to n <= {MAX_ENUM_N}, got {n}")
    if k > MAX_ENUM_K:
        raise UnsupportedSizeError(f"enumeration is limited to k <= {MAX_ENUM_K}, got {k}")
    candidates = [
        c
        for gen in (
            _candidates_case_b,
            _candidates_case_c,
            _candidates_case_d,
            _candidates_case_e,
            _candidates_case_f,
        )
        for c in gen(n, k)
    ]
    for c in candidates:
        if not c.exact or find_rainbow_path(c, 4) is not None:
            raise TheoremViolation(
                f"a case generator emitted a non-exact or rainbow candidate {c!r}"
            )
    return candidates


def enumerate_p5free(n: int, k: int) -> list[ColoredComplete]:
    """The classes of ``p5free_classes``, each decoded from its canonical
    key (the canonical representative), sorted by key."""
    keys = sorted(map(canonical_form, p5free_classes(n, k)))
    return [coloring_from_key(key) for key in keys]
