"""Presence tests for rainbow paths and monochromatic target copies.

Both detectors are exhaustive and deterministic: hosts are scanned in
ascending vertex order, colors in ascending order, and the first embedding
found is returned.  Every returned embedding is re-checked against the host
before it leaves this module.

Rainbow paths with m = 3 or 4 edges, the only lengths the structure
theorems use, are found by one O(n^3 k^2) scan over the path's middle
vertex on the per-color adjacency masks.  The path returned is the scan's
first hit, smaller end first, not the lexicographically first path.

K_t and the clique of PA_{t,omega} are found by ``graphs.find_clique``, the
one clique search.  It prunes a node when a greedy coloring of its
candidates into independent sets needs fewer classes than the vertices
still missing; that cuts only subtrees without a clique and keeps the
ascending branching order, so each embedding is the one found without the
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from gallai.graphs import (
    FAMILY_COMPLETE,
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    ColoredComplete,
    TargetGraph,
    find_clique,
)

RAINBOW_PATH = "rainbow_path"
MONO_COPY = "mono_copy"


@dataclass(frozen=True)
class Embedding:
    """A concrete copy of a pattern inside a host coloring.

    ``vertices`` realizes the pattern: for monochromatic copies it lists the
    host images of target vertices 0..t-1 in target-label order; for rainbow
    paths it lists the path in traversal order.  ``edges`` are the host edges
    used, and ``color`` is set for monochromatic findings only.
    """

    kind: str
    vertices: tuple[int, ...]
    color: int | None
    edges: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "color": self.color,
            "edges": [list(e) for e in self.edges],
        }


def check_rainbow_embedding(c: ColoredComplete, emb: Embedding) -> bool:
    """True iff emb is a simple path in c whose edge colors are all distinct."""
    vs = emb.vertices
    if len(set(vs)) != len(vs) or len(vs) < 2:
        return False
    cols = [c.color_of(u, w) for u, w in zip(vs, vs[1:])]
    if len(set(cols)) != len(cols):
        return False
    expect = tuple(tuple(sorted(e)) for e in zip(vs, vs[1:]))
    return tuple(tuple(sorted(e)) for e in emb.edges) == expect


def check_mono_embedding(c: ColoredComplete, H: TargetGraph, emb: Embedding) -> bool:
    """True iff emb maps every edge of H onto a host edge of emb.color."""
    vs = emb.vertices
    if len(vs) != H.order or len(set(vs)) != H.order:
        return False
    if emb.color is None or not 1 <= emb.color <= c.k:
        return False
    mapped = []
    for i, j in H.edges():
        u, w = vs[i], vs[j]
        if c.color_of(u, w) != emb.color:
            return False
        mapped.append(tuple(sorted((u, w))))
    return tuple(mapped) == tuple(tuple(sorted(e)) for e in emb.edges)


def _checked_rainbow(c: ColoredComplete, emb: Embedding) -> Embedding:
    if not check_rainbow_embedding(c, emb):
        raise RuntimeError(f"rainbow embedding failed re-verification: {emb}")
    return emb


def _checked_mono(c: ColoredComplete, H: TargetGraph, emb: Embedding) -> Embedding:
    if not check_mono_embedding(c, H, emb):
        raise RuntimeError(f"monochromatic embedding failed re-verification: {emb}")
    return emb


def _rainbow_path(c: ColoredComplete, m: int) -> tuple[int, ...] | None:
    """The first rainbow path with m in {3, 4} edges the scan meets, smaller
    end first, or None.  For each middle vertex and pair b, d whose edges to
    it have colors x != y, a-b-mid-d (m = 3) needs an edge at b outside
    colors {x, y} to a vertex outside {b, mid, d}; a-b-mid-d-e (m = 4, b < d)
    needs colors z at b and w != z at d, both outside {x, y}, to reach ends
    outside {b, mid, d} that are not one and the same single vertex."""
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
                        a = next(_iter_bits(ends))
                        return (a, b, mid, d) if a < d else (d, mid, b, a)
        return None
    # (color, neighbor mask) for every color present at each vertex
    around = [[(z, row[v]) for z, row in enumerate(adj) if row[v]] for v in range(n)]
    for mid in range(n):
        cm = [0] * n
        for x, mask in around[mid]:
            for v in _iter_bits(mask):
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
                            a = next(_iter_bits(ends_a))
                            if ends_e == 1 << a:
                                a = next(_iter_bits(ends_a & ~ends_e))
                            e = next(_iter_bits(ends_e & ~(1 << a)))
                            return (a, b, mid, d, e) if a < e else (e, d, mid, b, a)
    return None


def find_rainbow_path(c: ColoredComplete, m: int) -> Embedding | None:
    """The rainbow path with m in {3, 4} edges that the middle-vertex scan
    finds first, or None if none exists."""
    if m not in (3, 4) or m > c.n - 1:
        raise ValueError(f"rainbow paths need m in {{3, 4}} and m <= n-1, got m={m}, n={c.n}")
    vs = _rainbow_path(c, m)
    if vs is None:
        return None
    edges = tuple(tuple(sorted(e)) for e in zip(vs, vs[1:]))
    return _checked_rainbow(c, Embedding(RAINBOW_PATH, vs, None, edges))


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _matching_with_pairs(
    masks: tuple[int, ...], allowed: int, r: int
) -> list[tuple[int, int]] | None:
    """A matching of exactly r edges inside the vertex set ``allowed`` of the
    graph given by neighbor bitmasks, found by exact branching, or None."""
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
    for w in _iter_bits(masks[u] & allowed):
        rest = _matching_with_pairs(masks, allowed & ~(1 << u) & ~(1 << w), r - 1)
        if rest is not None:
            return [(u, w)] + rest
    # leave u unmatched
    return _matching_with_pairs(masks, allowed & ~(1 << u), r)


def _embedding_from_assignment(
    c: ColoredComplete, H: TargetGraph, color: int, assign: list[int]
) -> Embedding:
    edges = tuple(tuple(sorted((assign[i], assign[j]))) for i, j in H.edges())
    return _checked_mono(
        c, H, Embedding(kind=MONO_COPY, vertices=tuple(assign), color=color, edges=edges)
    )


def find_mono_copy_generic(
    c: ColoredComplete, H: TargetGraph, color: int
) -> Embedding | None:
    """Backtracking embedding of H into one color class, highest-degree
    target vertices first.  Works for every family; the fast paths must
    agree with it."""
    t = H.order
    if t > c.n:
        return None
    hmasks = H.adjacency_masks()
    order = sorted(range(t), key=lambda v: (-hmasks[v].bit_count(), v))
    cmasks = c.adj[color]
    assign = [-1] * t
    full = (1 << c.n) - 1

    def rec(pos: int, used: int) -> bool:
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
        for w in _iter_bits(cand):
            assign[hv] = w
            if rec(pos + 1, used | 1 << w):
                return True
        assign[hv] = -1
        return False

    if rec(0, 0):
        return _embedding_from_assignment(c, H, color, assign)
    return None


def _find_star_plus(c: ColoredComplete, H: TargetGraph, color: int) -> Embedding | None:
    t, r = H.t, H.r
    assert r is not None
    masks = c.adj[color]
    for v in range(c.n):
        nb = masks[v]
        if nb.bit_count() < t - 1:
            continue
        pairs_found = _matching_with_pairs(masks, nb, r)
        if pairs_found is None:
            continue
        matched = [x for pair in pairs_found for x in pair]
        rest = [w for w in _iter_bits(nb) if w not in matched]
        assign = [v] + matched + rest[: t - 1 - 2 * r]
        return _embedding_from_assignment(c, H, color, assign)
    return None


def _find_pineapple(c: ColoredComplete, H: TargetGraph, color: int) -> Embedding | None:
    t, omega = H.t, H.omega
    assert omega is not None
    masks = c.adj[color]
    for v in range(c.n):
        nb = masks[v]
        if nb.bit_count() < t - 1:
            continue
        clique = find_clique(masks, nb, omega - 1)
        if clique is None:
            continue
        rest = [w for w in _iter_bits(nb) if w not in clique]
        assign = [v] + clique + rest[: t - omega]
        return _embedding_from_assignment(c, H, color, assign)
    return None


def _find_complete(c: ColoredComplete, H: TargetGraph, color: int) -> Embedding | None:
    masks = c.adj[color]
    clique = find_clique(masks, (1 << c.n) - 1, H.t)
    if clique is None:
        return None
    return _embedding_from_assignment(c, H, color, clique)


def find_mono_copy_in_color(
    c: ColoredComplete, H: TargetGraph, color: int
) -> Embedding | None:
    """A copy of H inside the single color class ``color``, or None."""
    if not 1 <= color <= c.k:
        raise ValueError(f"color {color} outside 1..{c.k}")
    if H.order > c.n:
        return None
    if H.num_edges == 0:
        assign = list(range(H.order))
        return _embedding_from_assignment(c, H, color, assign)
    if H.family == FAMILY_COMPLETE:
        return _find_complete(c, H, color)
    if H.family == FAMILY_STAR_PLUS:
        return _find_star_plus(c, H, color)
    if H.family == FAMILY_PINEAPPLE:
        return _find_pineapple(c, H, color)
    return find_mono_copy_generic(c, H, color)


def find_mono_copy(c: ColoredComplete, H: TargetGraph) -> Embedding | None:
    """A monochromatic copy of H in any color class, lowest color first."""
    if H.order > c.n:
        return None
    for color in range(1, c.k + 1):
        emb = find_mono_copy_in_color(c, H, color)
        if emb is not None:
            return emb
    return None
