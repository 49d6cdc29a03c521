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
share a refinement cell.  Its classes are the per-color twin masks
intersected (``graphs.twin_classes``).  At each position only the first
unused member of each twin class is tried.  Swapping two unused twins fixes
every placed vertex and every color, so it is an automorphism that maps the
orders placing one twin next onto those placing the other, body for body,
and the least body is unchanged.
"""

from __future__ import annotations

from gallai.graphs import (
    ColoredComplete,
    UnsupportedSizeError,
    color_rows,
    edge_count,
    pairs,
    twin_classes,
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


def _minimum_body(mat: list[list[int]], cells: list[list[int]], twins: list[int]) -> list[int]:
    """The least body over the admissible vertex orders: a column that
    already exceeds the least body found so far ends its branch.
    ``twins[v]`` is the mask of v's twin class."""
    n = len(mat)
    pos_cell: list[list[int]] = []
    for cell in cells:
        pos_cell.extend([cell] * len(cell))
    used = [False] * n
    order: list[int] = []
    cur: list[int] = []
    cmap: dict[int, int] = {}
    best: list[int] | None = None

    def dfs(p: int) -> None:
        nonlocal best
        if p == n:
            if best is None or cur < best:
                best = cur.copy()
            return
        base = len(cur)
        cands = []
        tried = 0
        for v in pos_cell[p]:
            # an unused twin of an earlier candidate yields the same bodies
            if used[v] or tried >> v & 1:
                continue
            tried |= twins[v]
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


def canonical_form(c: ColoredComplete) -> bytes:
    """Canonical key of a coloring; equal keys characterize the orbit under
    vertex permutations times color permutations."""
    n = c.n
    if n > MAX_CANONICAL_ORDER:
        raise UnsupportedSizeError(
            f"canonical forms are limited to n <= {MAX_CANONICAL_ORDER}, got n={n}"
        )
    if c.k > 255:
        raise UnsupportedSizeError("canonical forms need the palette to fit in a byte")
    mat = list(color_rows(c))
    cells = _refined_cells(n, _edge_label_matrix(c, mat))
    return bytes([n, c.k]) + bytes(_minimum_body(mat, cells, twin_classes(c)))


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
    # edge qp (q < p) is entry p(p - 1)/2 + q of the column-by-column body
    return ColoredComplete(n, k, [body[p * (p - 1) // 2 + q] for q, p in pairs(n)])
