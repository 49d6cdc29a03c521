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
  (f) one sporadic coloring of K5, taken from the construction registry
      (``sporadic("TW-case-f")``).

``classify_p5free`` evaluates every shape on every call and cross-checks the
combined answer against the rainbow detector.  It builds one profile per
call, ``{color: (edge count, touched-vertex mask)}`` for the used colors,
and each shape is read from it and from the per-color adjacency masks
``c.adj``: (a) counts the colors; (b) marks in one pass over the profile
the vertices touched twice and those touched three times or more, since the
colors other than a dominant one are disjoint exactly when no vertex is
touched three times and the dominant color touches every vertex touched
twice, and takes the first such color in profile order; (c) looks for a
color whose edge count minus a vertex's degree in it is C(n-1, 2); (d)
pairs single-edge colors sharing a vertex a and checks that the third
side's color has no edge beyond it off a; (e) scans only the quads spanned
by a 2-edge color class touching four vertices, reading the colors of each
quad's three perfect matchings from ``c.colors`` and the class sizes from
the profile; (f) runs the template match only when the class sizes equal
the template's, and then only over the 12 vertex permutations that send
the template's one-edge class onto the host's.  Edge lists are built only
for a witness.  The same shapes drive
``p5free_classes``, which generates every exact k-coloring of K_n
without a rainbow 4-edge path, one member coloring per vertex-and-color
isomorphism class: the case generators emit pairwise non-isomorphic
candidates, and it returns them as they are, keying none.
``enumerate_p5free`` keys the members and returns the key-sorted decode.

``p5free_classes`` validates its arguments, generates and guards on every
call and keeps no table; ``check_n`` (``search``) keeps the one class cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import (
    combinations_with_replacement,
    groupby,
    permutations,
    product,
)
from operator import or_
from typing import Callable, Iterable, Sequence, TypeVar

from gallai.canonical import canonical_form, coloring_from_key
from gallai.constructions import sporadic, star_augmented
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


def resolve_threads(explicit: int | None = None) -> int:
    """Validated worker count: explicit argument, else GALLAI_THREADS, else
    cpu count.  The count is checked and accepted, but all work runs in the
    calling thread.  No library function takes a count: the CLI checks its
    ``--threads`` flag and the variable once, before it runs a command."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"thread count must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get("GALLAI_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0  # refused below, as a count below 1 is
        if value < 1:
            raise ValueError(f"GALLAI_THREADS must be an integer >= 1, got {env!r}")
        return value
    return os.cpu_count() or 1


def parallel_map(
    fn: Callable[[_T], _U], items: Sequence[_T], threads: int
) -> list[_U]:
    """Order-preserving map in the calling thread; ``threads`` is ignored.
    The work is pure Python, so a thread pool gains nothing under the
    interpreter lock.  No function calls it; the benchmark's tracer binds
    it here and in ``search``."""
    return [fn(x) for x in items]


@dataclass(frozen=True)
class P4Report:
    """Outcome for the 2-edge-path-free structure check: ``case`` is "a"
    (at most two colors) or "b" (K4 in three perfect matchings); otherwise
    ``rainbow`` holds a rainbow 3-edge path."""

    case: str | None
    rainbow: Embedding | None


@dataclass(frozen=True)
class StructureReport:
    """All satisfied shapes among a-f with one witness each; ``rainbow``
    holds the rainbow 4-edge path exactly when no shape applies."""

    cases: frozenset[str]
    witnesses: dict
    rainbow: Embedding | None


def classify_p4free(c: ColoredComplete) -> P4Report:
    """Structure of colorings without a rainbow 3-edge path; raises
    TheoremViolation if neither shape applies yet no rainbow path exists."""
    if c.n < 4:
        raise ValueError(f"classification needs n >= 4, got n={c.n}")
    used = c.used_colors
    if len(used) <= 2:
        return P4Report(case="a", rainbow=None)
    if c.n == 4 and len(used) == 3:
        factors = [c.edges_in_color(col) for col in sorted(used)]
        if all(
            len(f) == 2 and len({v for e in f for v in e}) == 4 for f in factors
        ):
            return P4Report(case="b", rainbow=None)
    emb = find_rainbow_path(c, 3)
    if emb is None:
        raise TheoremViolation(
            f"no rainbow 3-edge path and no structure case in {c!r}"
        )
    return P4Report(case=None, rainbow=emb)


def _color_profile(c: ColoredComplete) -> dict[int, tuple[int, int]]:
    """``{color: (edge count, touched-vertex mask)}`` for the used colors,
    in increasing color order."""
    profile = {}
    colors = c.colors
    for col, row in enumerate(c.adj):
        touched = reduce(or_, row, 0)
        if touched:
            profile[col] = (colors.count(col), touched)
    return profile


def _case_a(c: ColoredComplete, profile: dict):
    return len(profile) if len(profile) <= 3 else None


def _case_b(c: ColoredComplete, profile: dict):
    dom = _dominant_color(profile)
    if dom is None:
        return None
    return dom, {col: c.vertices_incident(col) for col in profile if col != dom}


def _dominant_color(profile: dict) -> int | None:
    """The first color in profile order whose removal leaves the other
    colors' touched masks pairwise disjoint; None when there is none or the
    profile has fewer than two colors.  They are disjoint exactly when no
    vertex is touched three times and the dominant color touches every
    vertex touched twice."""
    if len(profile) < 2:
        return None
    once = twice = thrice = 0
    for _, touched in profile.values():
        thrice |= twice & touched
        twice |= once & touched
        once |= touched
    if thrice:
        return None
    for dom, (_, touched) in profile.items():
        if not twice & ~touched:
            return dom
    return None


def _case_c(c: ColoredComplete, profile: dict):
    # The C(n-1, 2) edges missing a vertex are more than half of all edges
    # once n >= 5, so at most one color can hold them.
    rest = edge_count(c.n - 1)
    for col, (count, _) in profile.items():
        if count >= rest:
            row = c.adj[col]
            for v in range(c.n):
                if count - row[v].bit_count() == rest:
                    return v, col
    return None


def _case_d(c: ColoredComplete, profile: dict):
    if len(profile) != 4:
        return None
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
            return a, b, cc, frozenset(c.edges_in_color(colz))
    return None


def _case_e(c: ColoredComplete, profile: dict):
    if len(profile) != 4:
        return None
    # Two classes must each be a perfect matching of the quad, so only the
    # vertex sets of 2-edge classes touching 4 vertices can match.
    quads = sorted(
        {
            tuple(v for v in range(c.n) if touched >> v & 1)
            for count, touched in profile.values()
            if count == 2 and touched.bit_count() == 4
        }
    )
    n, colors = c.n, c.colors
    for q0, q1, q2, q3 in quads:
        matchings = (((q0, q1), (q2, q3)), ((q0, q2), (q1, q3)), ((q0, q3), (q1, q2)))
        # pair_colors[i]: the colors of matching i's two edges, as listed
        pair_colors = [
            tuple(colors[u * n - u * (u + 1) // 2 + w - u - 1] for u, w in m) for m in matchings
        ]
        # exact[i]: the color whose class is matching i, or 0
        exact = [a if a == b and profile[a][0] == 2 else 0 for a, b in pair_colors]
        for iz in range(3):
            if not all(exact[i] for i in range(3) if i != iz):
                continue
            (e1, e2), (col1, col2) = matchings[iz], pair_colors[iz]
            # The class of ab lies inside this matching: both its edges, or
            # one of them, the lower color first when both are single.
            if col1 == col2:
                if profile[col1][0] == 2:
                    return (*e1, *e2, True)
            elif profile[col1][0] == 1 and (col1 < col2 or profile[col2][0] != 1):
                return (*e1, *e2, False)
            elif profile[col2][0] == 1:
                return (*e2, *e1, False)
    return None


_CASE_F = sporadic("TW-case-f")
_CASE_F_CLASSES = tuple(_CASE_F.edges_in_color(col) for col in range(1, _CASE_F.k + 1))
_CASE_F_SIZES = sorted(len(cl) for cl in _CASE_F_CLASSES)


@lru_cache(maxsize=None)
def _case_f_tries() -> dict[int, list]:
    """For every edge of K5, keyed by its vertex mask: the vertex
    permutations that send the template's one-edge class onto it, in
    ``permutations`` order, each with the positions in ``colors`` of the
    images of the template's three-edge classes."""
    ((i, j),) = (cl[0] for cl in _CASE_F_CLASSES if len(cl) == 1)
    tries: dict[int, list] = {}
    for perm in permutations(range(5)):
        images = tuple(
            tuple(edge_index(*sorted((perm[a], perm[b])), 5) for a, b in cl)
            for cl in _CASE_F_CLASSES
            if len(cl) == 3
        )
        tries.setdefault(1 << perm[i] | 1 << perm[j], []).append((perm, images))
    return tries


def _case_f(c: ColoredComplete, profile: dict):
    if c.n != 5 or sorted(count for count, _ in profile.values()) != _CASE_F_SIZES:
        return None
    # A match sends every template class onto a host class, so the
    # template's one-edge class onto the host's, and since the class sizes
    # are equal, three-edge classes that each map into one color map into
    # distinct ones.
    lone = next(touched for count, touched in profile.values() if count == 1)
    colors = c.colors
    for perm, images in _case_f_tries()[lone]:
        if all(colors[e] == colors[f] == colors[g] for e, f, g in images):
            return perm
    return None


def classify_p5free(c: ColoredComplete) -> StructureReport:
    """All satisfied shapes a-f with witnesses; empty exactly when the
    coloring has a rainbow 4-edge path (cross-checked, TheoremViolation on
    disagreement)."""
    if c.n < 5:
        raise ValueError(f"classification needs n >= 5, got n={c.n}")
    profile = _color_profile(c)
    witnesses: dict = {}
    checks = {
        "a": _case_a,
        "b": _case_b,
        "c": _case_c,
        "d": _case_d,
        "e": _case_e,
        "f": _case_f,
    }
    for name, fn in checks.items():
        witness = fn(c, profile)
        if witness is not None:
            witnesses[name] = witness
    rainbow = find_rainbow_path(c, 4)
    if bool(witnesses) == (rainbow is not None):
        raise TheoremViolation(
            f"cases {sorted(witnesses)} vs rainbow {rainbow} disagree on {c!r}"
        )
    return StructureReport(
        cases=frozenset(witnesses), witnesses=witnesses, rainbow=rainbow
    )


@lru_cache(maxsize=None)
def _graphs_min_deg1(s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All graphs on s labeled vertices with minimum degree >= 1, one
    representative per isomorphism class, as edge tuples.

    A graph is keyed as a 2-coloring of K_{s+1}: graph edges in color 2,
    non-edges in color 1, and an apex s joined to every vertex in color 1.
    With no isolated vertex, every other vertex sees both colors, so the
    apex is the only vertex whose edges share one color.  An isomorphism of
    two such colorings therefore maps apex to apex and color 1 to color 1,
    and equal canonical keys mean isomorphic graphs."""
    all_pairs = list(pairs(s))
    seen: set[bytes] = set()
    out: list[tuple[tuple[int, int], ...]] = []
    for mask in range(1 << len(all_pairs)):
        edges = tuple(e for idx, e in enumerate(all_pairs) if mask >> idx & 1)
        deg = [0] * s
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        if min(deg, default=0) == 0:
            continue
        cols = [1] * edge_count(s + 1)
        for i, j in edges:
            cols[edge_index(i, j, s + 1)] = 2
        key = canonical_form(ColoredComplete(s + 1, 2, cols))
        if key not in seen:
            seen.add(key)
            out.append(edges)
    return tuple(out)


def _candidates_case_b(n: int, k: int) -> Iterable[ColoredComplete]:
    """Disjoint vertex sets per color 2..k, each inducing a graph of its
    color with minimum degree 1 (the rest of the part in color 1), all other
    edges color 1."""
    groups = k - 1
    if 2 * groups > n:
        return
    for sizes in combinations_with_replacement(range(2, n - 2 * (groups - 1) + 1), groups):
        if sum(sizes) > n:
            continue
        for choice in _choices_respecting_ties(sizes):
            cols = [1] * edge_count(n)
            offset = 0
            for part_idx, (s, edges) in enumerate(zip(sizes, choice)):
                color = part_idx + 2
                for i, j in edges:
                    cols[edge_index(offset + i, offset + j, n)] = color
                offset += s
            yield ColoredComplete(n, k, cols)


def _choices_respecting_ties(sizes: Sequence[int]) -> Iterable[tuple]:
    """One min-degree-1 graph per part: a Cartesian product over the runs of
    equal part sizes, with unordered selection inside each run (equal-size
    parts are interchangeable up to renaming their colors)."""
    per_run = (
        combinations_with_replacement(_graphs_min_deg1(s), len(list(run)))
        for s, run in groupby(sizes)
    )
    for combos in product(*per_run):
        yield sum(combos, ())


def _candidates_case_c(n: int, k: int) -> Iterable[ColoredComplete]:
    """Monochromatic K_{n-1} in color 1 plus an apex; apex edge colors cover
    2..k, sorted into blocks."""
    apex_degree = n - 1
    spare = apex_degree - (k - 1)
    if spare < 0:
        return
    for c1 in range(spare + 1):
        for rest in combinations_with_replacement(range(1, apex_degree + 1), k - 1):
            if c1 + sum(rest) != apex_degree:
                continue
            spokes = [1] * c1
            for color, count in enumerate(rest, start=2):
                spokes += [color] * count
            yield star_augmented(n - 1, 1, spokes)


def _candidates_case_d(n: int, k: int) -> Iterable[ColoredComplete]:
    if k != 4:
        return
    for s in range(n - 2):
        cols = [1] * edge_count(n)
        cols[edge_index(0, 1, n)] = 2
        cols[edge_index(0, 2, n)] = 3
        cols[edge_index(1, 2, n)] = 4
        for v in range(3, 3 + s):
            cols[edge_index(0, v, n)] = 4
        yield ColoredComplete(n, k, cols)


def _candidates_case_e(n: int, k: int) -> Iterable[ColoredComplete]:
    if k != 4:
        return
    for cd_in in (False, True):
        cols = [1] * edge_count(n)
        cols[edge_index(0, 1, n)] = 2
        if cd_in:
            cols[edge_index(2, 3, n)] = 2
        cols[edge_index(0, 2, n)] = 3
        cols[edge_index(1, 3, n)] = 3
        cols[edge_index(0, 3, n)] = 4
        cols[edge_index(1, 2, n)] = 4
        yield ColoredComplete(n, k, cols)


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
