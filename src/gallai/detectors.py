"""Presence tests for rainbow paths and monochromatic target copies.

Both detectors are exhaustive and deterministic: hosts are scanned in
ascending vertex order, colors in ascending order, and the first embedding
found is returned.  Every returned embedding is re-checked against the host
before it leaves this module: a rainbow path in one pass over its edges'
colors, a monochromatic copy in one pass over the target's edge list (built
once per target), reading the host's flat color tuple.

Rainbow paths with m = 3 or 4 edges, the only lengths the structure
theorems use, are found by one scan over the path's middle vertex on the
per-color adjacency masks.  The path returned is the scan's first hit,
smaller end first, not the lexicographically first path.  For m = 4 the
scan skips a pair b < d around mid, whose edges to mid have colors x and y,
when b or d has no color outside {x, y}, when b and d see fewer than four
colors together (a-b-mid-d-e puts all four of its colors at b or d), or
when b has two colors and its edges in the one outside {x, y} all end at
d.  The skipped d for each b are found by mask arithmetic from the vertices
with one, two or three colors.  A skipped pair holds no path, and the
survivors are walked in the same ascending order, so the first hit is the
one the scan over every pair finds.  The worst case stays O(n^3 k^2), but
on a rainbow-free host the scan is mostly O(n^2) mask steps: over the
shipped grid and dispatcher witnesses (orders up to 40) 126 of 98,822
pairs survive.

S_t^r and PA_{t,omega} are both a centre whose neighbourhood in the color
holds an inner pattern: r independent edges, or a clique of order
omega - 1.  One loop over centres, lowest first, finds both; the inner
search it is handed is the matching search or the clique search.

K_t and the clique of PA_{t,omega} are found by ``graphs.find_clique``, the
one clique search.  It prunes a node when a greedy coloring of its
candidates into independent sets needs fewer classes than the vertices
still missing; that cuts only subtrees without a clique and keeps the
ascending branching order, so each embedding is the one found without the
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from gallai.graphs import (
    FAMILY_COMPLETE,
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    ColoredComplete,
    TargetGraph,
    edge_index,
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


def _rainbow_edges(
    c: ColoredComplete, vs: tuple[int, ...]
) -> tuple[tuple[int, int], ...] | None:
    """The edges of vs, smaller end first, if vs is a simple path of c whose
    edge colors are all distinct; None otherwise.  One pass over c.colors,
    indexed as ``graphs.edge_index`` does, inline."""
    n, colors = c.n, c.colors
    if len(set(vs)) != len(vs) or len(vs) < 2:
        return None
    edges = []
    seen = 0
    for u, w in zip(vs, vs[1:]):
        if u > w:
            u, w = w, u
        if u < 0 or w >= n:
            return None
        edges.append((u, w))
        seen |= 1 << colors[u * n - u * (u + 1) // 2 + w - u - 1]
    return tuple(edges) if seen.bit_count() == len(edges) else None


def check_rainbow_embedding(c: ColoredComplete, emb: Embedding) -> bool:
    """True iff emb is a simple path in c whose edge colors are all distinct."""
    edges = _rainbow_edges(c, emb.vertices)
    return edges is not None and edges == tuple(tuple(sorted(e)) for e in emb.edges)


def check_mono_embedding(c: ColoredComplete, H: TargetGraph, emb: Embedding) -> bool:
    """True iff emb maps every edge of H onto a host edge of emb.color."""
    vs = emb.vertices
    if len(vs) != H.order or len(set(vs)) != H.order:
        return False
    color = emb.color
    if color is None or not 1 <= color <= c.k:
        return False
    n, colors = c.n, c.colors
    mapped = []
    for i, j in H.edges():
        u, w = vs[i], vs[j]
        if u > w:
            u, w = w, u
        if u < 0 or w >= n:
            edge_index(u, w, n)  # raises the range error color_of would
        if colors[u * n - u * (u + 1) // 2 + w - u - 1] != color:
            return False
        mapped.append((u, w))
    edges = tuple(mapped)
    return edges == emb.edges or edges == tuple(tuple(sorted(e)) for e in emb.edges)


def _checked_mono(c: ColoredComplete, H: TargetGraph, emb: Embedding) -> Embedding:
    if not check_mono_embedding(c, H, emb):
        raise RuntimeError(f"monochromatic embedding failed re-verification: {emb}")
    return emb


def _color_rows(c: ColoredComplete) -> Iterator[list[int]]:
    """Row mid of the color matrix for mid = 0, 1, ..., n-1: entry v is the
    color of edge mid-v, and 0 on the diagonal."""
    n, colors = c.n, c.colors
    rows: list[list[int]] = []
    start = 0
    for mid in range(n):
        row = [r[mid] for r in rows]
        row.append(0)
        end = start + n - 1 - mid
        row += colors[start:end]
        rows.append(row)
        start = end
        yield row


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
        for mid, cm in enumerate(_color_rows(c)):
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
    around = [[(z, mask) for z, mask in enumerate(masks) if mask] for masks in zip(*adj)]
    # Pruning: a pair b, d needs a color outside {x, y} at b and one at d,
    # and at least four colors at b and d together, since a-b-mid-d-e puts
    # all four of its colors there.  Only vertices with at most three colors
    # can fail that; cset[v] is their color set, a mask over colors (0 for
    # the others), and by_colors groups them by it.
    cset = [0] * n
    by_colors: dict[int, int] = {}
    for v, at_v in enumerate(around):
        if len(at_v) <= 3:
            s = 0
            for z, _ in at_v:
                s |= 1 << z
            cset[v] = s
            by_colors[s] = by_colors.get(s, 0) | 1 << v
    single = 0
    # two_colored[x]: (y, the vertices whose colors are exactly {x, y})
    two_colored: dict[int, list[tuple[int, int]]] = {}
    for s, vs in by_colors.items():
        if not s & (s - 1):
            single |= vs
        elif s.bit_count() == 2:
            p = s.bit_length() - 1
            q = (s ^ 1 << p).bit_length() - 1
            two_colored.setdefault(p, []).append((q, vs))
            two_colored.setdefault(q, []).append((p, vs))
    multi = (1 << n) - 1 & ~single
    # partners[b], set on b's first visit: the vertices d > b with two or
    # more colors that see four colors together with b
    partners = [-1] * n
    # few[s]: the vertices that see at most three colors together with a
    # vertex of color set s
    few: dict[int, int] = {}
    live = multi
    for mid, cm in enumerate(_color_rows(c)):
        # ends_d[x]: the vertices d with a color outside {x, cm[d]}
        ends_d: dict[int, int] = {}
        others = multi & ~(1 << mid)
        to_visit = live & ~(1 << mid)
        while to_visit:
            low = to_visit & -to_visit
            to_visit ^= low
            b = low.bit_length() - 1
            mates = partners[b]
            if mates < 0:
                mates = multi & ~((2 << b) - 1)
                s = cset[b]
                if s:
                    drop = few.get(s)
                    if drop is None:
                        drop = 0
                        for t, vs in by_colors.items():
                            if (s | t).bit_count() <= 3:
                                drop |= vs
                        few[s] = drop
                    mates &= ~drop
                partners[b] = mates
                if not mates:
                    live &= ~(1 << b)
                    continue
            x = cm[b]
            allowed = ends_d.get(x)
            if allowed is None:
                allowed = others & ~adj[x][mid]
                for y, both in two_colored.get(x, ()):
                    allowed &= ~(adj[y][mid] & both)
                ends_d[x] = allowed
            allowed &= mates
            if len(around[b]) == 2:
                # b's colors are {x, z0}: d must not see mid in z0, nor be
                # the only end of b's z0 edges
                z0_row = adj[around[b][0][0] + around[b][1][0] - x]
                allowed &= ~z0_row[mid]
                if not z0_row[b] & (z0_row[b] - 1):
                    allowed &= ~z0_row[b]
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                d = low.bit_length() - 1
                y = cm[d]
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
    edges = _rainbow_edges(c, vs)
    if edges is None or len(edges) != m:
        raise RuntimeError(f"rainbow path {vs} failed re-verification")
    return Embedding(RAINBOW_PATH, vs, None, edges)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _matching_with_pairs(masks: Sequence[int], allowed: int, r: int) -> list[int] | None:
    """A matching of exactly r edges inside the vertex set ``allowed`` of the
    graph given by neighbor bitmasks, found by exact branching, as the ends
    u1, w1, u2, w2, ... of its edges; or None."""
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
            return [u, w] + rest
    # leave u unmatched
    return _matching_with_pairs(masks, allowed & ~(1 << u), r)


def _embedding_from_assignment(
    c: ColoredComplete, H: TargetGraph, color: int, assign: list[int]
) -> Embedding:
    edges = []
    for i, j in H.edges():
        u, w = assign[i], assign[j]
        edges.append((u, w) if u < w else (w, u))
    return _checked_mono(
        c, H, Embedding(MONO_COPY, tuple(assign), color, tuple(edges))
    )


def find_mono_copy_generic(
    c: ColoredComplete, H: TargetGraph, color: int
) -> Embedding | None:
    """Backtracking embedding of H into one color class, highest-degree
    target vertices first.  Works for every family; the tests check it and
    the fast paths against a search over every injective vertex map."""
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


def _find_centered(
    c: ColoredComplete,
    H: TargetGraph,
    color: int,
    inner: Callable[[Sequence[int], int, int], list[int] | None],
    size: int,
) -> Embedding | None:
    """S_t^r or PA_{t,omega}: the lowest centre v with t - 1 neighbours in
    ``color`` among which ``inner(masks, neighbours, size)`` finds the inner
    pattern (r independent edges, or a clique of order omega - 1).  Target
    vertex 0 goes to v, the next ones to the inner pattern's vertices in the
    order found, the rest to v's lowest remaining neighbours."""
    masks = c.adj[color]
    for v in range(c.n):
        nb = masks[v]
        if nb.bit_count() < H.t - 1:
            continue
        found = inner(masks, nb, size)
        if found is None:
            continue
        rest = [w for w in _iter_bits(nb) if w not in found]
        assign = [v] + found + rest[: H.t - 1 - len(found)]
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
        assert H.r is not None
        return _find_centered(c, H, color, _matching_with_pairs, H.r)
    if H.family == FAMILY_PINEAPPLE:
        assert H.omega is not None
        return _find_centered(c, H, color, find_clique, H.omega - 1)
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
