"""Exact canonical forms for edge colorings of K_n.

The key of a coloring is ``bytes([n, k]) + body`` where body lists edge
colors column by column: vertices are placed one at a time, and each new
vertex contributes the colors of its edges back to the already-placed
vertices.  Before comparison, colors are renamed by first occurrence inside
the body.  For a fixed vertex order this renaming is the lexicographic
minimum over all color bijections and is prefix-stable, so the least body
over all admissible vertex orders is invariant under simultaneous vertex
and color permutation: equal keys mean colorings that differ by a renaming
of vertices and colors.  That is the one symmetry group of the paper's
question, since rainbow paths and monochromatic copies both survive a
recoloring.

Admissible orderings respect an iterated-refinement vertex partition whose
cells and cell order are themselves invariant under that group, so the
restriction never merges or splits key classes; it only prunes the search.
Orders are exhausted within that restriction with branch-and-bound pruning
against the best body found so far.

Twin vertices are pruned too.  Vertices u and v are twins when every other
vertex w sees them in the same color; this is an equivalence, and twins
share a refinement cell.  At each position only the first unused member of
each twin class is tried.  Swapping two unused twins fixes every placed
vertex and every color, so it is an automorphism that maps the orders
placing one twin next onto those placing the other, body for body, and the
least body is unchanged.

``least_canonical_form`` is the least key of a list of colorings without
finishing every key.  One branch-and-bound runs across the list: each
coloring's search starts from the least body found so far, so a coloring
whose columns already exceed it is dropped at the first worse column
(McKay & Piperno, J. Symbolic Comput. 60, 2014, bound the same way across
the leaves of one search).
"""

from __future__ import annotations

from typing import Sequence

from gallai.graphs import (
    ColoredComplete,
    UnsupportedSizeError,
    edge_count,
    edge_index,
    pairs,
)

MAX_CANONICAL_ORDER = 10


def _color_signatures(c: ColoredComplete) -> dict[int, tuple]:
    """``{color: (edge count, sorted degree sequence)}`` for the used colors;
    renaming vertices leaves every signature as it is."""
    sigs: dict[int, tuple] = {}
    for col in c.used_colors:
        degs = tuple(sorted(mask.bit_count() for mask in c.adj[col]))
        sigs[col] = (sum(degs) // 2, degs)
    return sigs


def _edge_label_matrix(c: ColoredComplete, mat: list[list[int]]) -> list[list[int]]:
    """Symmetric edge labels driving the refinement: an edge is labeled by
    the rank of its color's signature, which is unchanged when colors are
    renamed."""
    sigs = _color_signatures(c)
    ordered = sorted(set(sigs.values()))
    rank = {col: ordered.index(sig) + 1 for col, sig in sigs.items()}
    return [[rank.get(col, 0) for col in row] for row in mat]


def _refined_cells(n: int, label: list[list[int]]) -> list[list[int]]:
    """Partition vertices by iterated neighborhood signatures.

    Cells are returned in increasing signature order; the signature of a
    vertex is rebuilt from invariant data only, so the cell list (and its
    order) is identical for any relabeled copy of the same coloring.
    """
    inv = [0] * n
    while True:
        sigs = []
        for v in range(n):
            around = tuple(sorted((label[v][u], inv[u]) for u in range(n) if u != v))
            sigs.append((inv[v], around))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == inv:
            break
        inv = new
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(inv[v], []).append(v)
    return [cells[value] for value in sorted(cells)]


def _minimum_body(
    mat: list[list[int]], cells: list[list[int]], incumbent: list[int] | None = None
) -> list[int]:
    """The least body over the admissible vertex orders, or ``incumbent``
    when no body is smaller: a column that already exceeds the incumbent
    ends its branch."""
    n = len(mat)
    # twin[v] is the least u with mat[u][w] == mat[v][w] for every w != u, v:
    # the two rows agree once each one's own diagonal takes the color of uv
    twin = list(range(n))
    for v in range(n):
        for u in range(v):
            if twin[u] == u:
                row_u, row_v = mat[u].copy(), mat[v].copy()
                row_u[u] = row_v[v] = mat[u][v]
                if row_u == row_v:
                    twin[v] = u
                    break
    pos_cell: list[list[int]] = []
    for cell in cells:
        pos_cell.extend([cell] * len(cell))
    used = [False] * n
    order: list[int] = []
    cur: list[int] = []
    cmap: dict[int, int] = {}
    best = incumbent

    def dfs(p: int) -> None:
        nonlocal best
        if p == n:
            if best is None or cur < best:
                best = cur.copy()
            return
        base = len(cur)
        cands = []
        tried: set[int] = set()
        for v in pos_cell[p]:
            # an unused twin of an earlier candidate yields the same bodies
            if used[v] or twin[v] in tried:
                continue
            tried.add(twin[v])
            col: list[int] = []
            pending: dict[int, int] = {}
            row = mat[v]
            for u in order:
                raw = row[u]
                name = cmap.get(raw)
                if name is None:
                    name = pending.get(raw)
                    if name is None:
                        name = len(cmap) + len(pending) + 1
                        pending[raw] = name
                col.append(name)
            cands.append((col, v, pending))
        cands.sort(key=lambda item: item[0])
        for col, v, pending in cands:
            if best is not None and cur == best[:base]:
                # candidates are sorted, so one worse column ends the level
                if col > best[base : base + len(col)]:
                    break
            used[v] = True
            order.append(v)
            cur.extend(col)
            cmap.update(pending)
            dfs(p + 1)
            for raw in pending:
                del cmap[raw]
            del cur[base:]
            order.pop()
            used[v] = False

    dfs(0)
    assert best is not None
    return best


def _search_input(c: ColoredComplete) -> tuple[list[list[int]], list[list[int]]]:
    """The color matrix and refined cells ``_minimum_body`` searches, after
    the size checks every key makes."""
    n = c.n
    if n > MAX_CANONICAL_ORDER:
        raise UnsupportedSizeError(
            f"canonical forms are limited to n <= {MAX_CANONICAL_ORDER}, got n={n}"
        )
    if c.k > 255:
        raise UnsupportedSizeError("canonical forms need the palette to fit in a byte")
    # edge colors as a symmetric matrix, 0 on the diagonal
    mat = [[0] * n for _ in range(n)]
    for (i, j), col in zip(pairs(n), c.colors):
        mat[i][j] = mat[j][i] = col
    return mat, _refined_cells(n, _edge_label_matrix(c, mat))


def canonical_form(c: ColoredComplete) -> bytes:
    """Canonical key of a coloring; equal keys characterize the orbit under
    vertex permutations times color permutations."""
    return bytes([c.n, c.k]) + bytes(_minimum_body(*_search_input(c)))


def least_canonical_form(colorings: Sequence[ColoredComplete]) -> bytes:
    """``min(canonical_form(c) for c in colorings)`` for a non-empty list of
    colorings of one order and palette, by one branch-and-bound across the
    list: a body that cannot beat the least one so far is not finished."""
    if not colorings:
        raise ValueError("least_canonical_form needs at least one coloring")
    shape = (colorings[0].n, colorings[0].k)
    if any((c.n, c.k) != shape for c in colorings):
        raise ValueError(f"colorings of order and palette other than {shape} mixed in")
    best = None
    for c in colorings:
        best = _minimum_body(*_search_input(c), best)
    return bytes(shape) + bytes(best)


def coloring_from_key(key: bytes) -> ColoredComplete:
    """Decode a canonical key back into its representative coloring."""
    if len(key) < 2:
        raise ValueError("canonical key must hold at least n and k")
    n, k = key[0], key[1]
    body = key[2:]
    if len(body) != edge_count(n):
        raise ValueError(
            f"canonical key body has {len(body)} entries, expected {edge_count(n)}"
        )
    cols = [0] * edge_count(n)
    pos = 0
    for p in range(1, n):
        for q in range(p):
            cols[edge_index(q, p, n)] = body[pos]
            pos += 1
    return ColoredComplete(n, k, cols)

