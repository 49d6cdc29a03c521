"""Presence tests for rainbow paths and monochromatic target copies.

Both detectors are exhaustive and deterministic: hosts are scanned in
ascending vertex order, colors in ascending order, and the first embedding
found is returned.  Every embedding they return is re-checked first.  A
rainbow path is walked along its m edges on the host's flat color tuple
(m + 1 distinct vertices inside the host, m distinct edge colors).  A
monochromatic copy is checked by ``mono_copy_at`` in one pass over the
target's edge list, built once per target: as many vertices as the target
has, distinct and inside the host, and every edge a bit of the color
class's neighbour masks ``c.adj[color]``, the masks the search itself
reads.  A failure raises RuntimeError, an internal error.  ``mono_copy_at``
itself returns None on a miss, stopping at the first edge off the color.
Given no color, it takes the first target edge's, read by ``c.color_of``;
``search.check_n`` calls it so to try a class on the vertices of a copy
found in another.

Every monochromatic search starts and ends in ``_search_color``, behind
the entry ``find_mono_copy_in_color``, which picks the search of the
target's family, and ``find_mono_copy_generic``, which runs the generic
search for any family.  It checks the color and the target's order once,
builds the color class's one ``graphs.SearchState``, runs the search, a
function of that state and the target that returns host vertices or None,
and re-checks the vertices with ``mono_copy_at``.  The searches read the
class only from the state, so its twins are always the class's own, and
the re-check reads the same masks: the monochromatic side reads a color
class only through them.

Rainbow paths with m = 3 or 4 edges, the only lengths the structure
theorems use, are found by one scan over the path's middle vertex on the
per-color adjacency masks.  A host that uses fewer than m colors holds
none and is not scanned: the guard reads ``c.used``, the count the host
made when it was built.  The path returned is the scan's first hit,
smaller end first, not the lexicographically first path.  Its ends, each
the lowest vertex of a mask, are taken inline as
``(mask & -mask).bit_length() - 1``, with no generator.

For m = 3 the scan reads row 0 of the color matrix, the colors of the
edges at vertex 0, straight from the flat color tuple, and starts
``graphs.color_rows`` only when that row holds no path; every row is
walked by the one routine ``_row3_path``.  Row 0 holds a path exactly when
vertex 0 is an inner vertex of one, so it rarely misses: of the 1,800
seeded uniform colorings the tests hold (``_palette_dense_colorings``), it
holds the path on 1,710 and misses it on 1, and 89 hold no path.  On the
7,614 uniform colorings of a classify pass (seed 11) that use three colors
or more, the m = 3 scan takes a median of about 0.8 us, against 1.9 us
when row 0 too came from ``color_rows`` and each end from a generator,
and ``classify_p4free`` 2.7 us against 4.1 us (2 vCPUs, Python 3.11).

For m = 4 a path a-b-mid-d-e has colors z, x, y, w, all distinct, with x
and y the colors of b and d to mid.  No pair b < d holds such a path, at
any middle vertex, when one of three rules holds:

  - b or d has a single color: b has z besides x, and d has w besides y;
  - b and d see at most three colors together: all four of the path's
    colors meet b or d;
  - b has two colors and one of them only on the edge bd, or d has two
    colors and one of them only on the edge db.  b's two colors are x and
    z, so its only x edge ends at mid and its only z edge at a, and
    neither is d; likewise at d, with y and w, neither is b.

No rule reads the middle vertex, so the pairs that survive, partners[b]
for every b, are found once per host from the per-vertex color lists, by
mask arithmetic over the vertices with at most three colors.  When no pair
survives the host is rainbow-free, and the scan returns without walking a
row of the color matrix past the probe's (below).  So it does on 155 of the
191 candidates that ``structure`` guards when ``search`` builds its class
table for n 5..9 and k 4..6.  ``search`` builds each entry once per
process, so the benchmark's search workload (seed 11) makes those 191
m = 4 scans on its first pass and none on later ones.  It does so too on
116 of the 123 m = 4 scans of a certify pass and on 387 of the 405
relabeled builder outputs that a classify pass scans (its other 198 use
three colors or fewer, and ``classify_p5free`` scans none of those).
Otherwise the rows are walked, middle vertex ascending, and around each
middle vertex only the surviving pairs whose edges to it differ in color,
in the same ascending order, so the first hit is the one the scan over
every pair finds.  The worst case stays O(n^3 k^2).  The 35 distinct grid
witnesses of order 5 to 25 hold 23,108 pairs with x != y around a middle
vertex; 34 of them walk no row past the probe's, their probes test 217
pairs, and 16 more, all in F3, reach the path test.  (Three use fewer than
four colors, and only the other 32 are scanned.)

The pair table only pays on hosts without a path.  So before building it
the m = 4 scan probes its first pair row, on every host: mid 0, read from
the flat color tuple, with b the lowest vertex that has two colors, and
every d > b in ascending order, through the same path test.  The scan meets
that row before any other, and the rules skip only pairs that hold no
path, so a path the probe finds is the scan's first hit and is returned as
it is.  On a miss the scan starts past that b at mid 0.  Of the 1,800
seeded uniform colorings of n 5..12 that the tests hold
(``_palette_dense_colorings``), the probe returns the path on 1,467 and
misses it on 128, and 205 hold no path; 204 of those use fewer than four
colors and are not scanned.

The probe builds no per-vertex color list: it reads every color on the
masks.  Vertex b has one color exactly when ``adj[x][b] | 1 << b`` is every
vertex, x the color of edge 0b, so each b is tested in O(1).  The path
test ``_row_path`` takes the ends as two masks: the vertices outside
{b, mid, d} that b, and that d, reach in a color other than x and y.  When
either is empty the pair holds no path, as for 215 of the 217 pairs the
grid witnesses' probes test.  Otherwise it tries the colors z at b in
ascending order, each read as ``adj[z][b]``.  For a z it tries the colors
w at d, each read as ``adj[w][d]``, only once the ends at d outside color
z show that some w closes the path, and it takes the lowest.  So it meets
the same z and w, and returns the same path, as a walk over lists of the
colors at b and at d in ascending order.  The lists, one per vertex, are
built only after a probe miss, for the pair table; the rows walked past
the probe's read the masks too.

On the m = 4 scans of a classify pass (seed 11) and of a certify pass,
``find_rainbow_path(c, 4)`` takes per host, against the probe that built
the lists of b and of every d it read (medians over the hosts of each
host's best of 21 rounds, the two alternating, in-process, 2 vCPUs,
Python 3.11.7; both with the same re-check):

  ==========================================  =====  =======  =======
  hosts                                       count  lists    masks
  ==========================================  =====  =======  =======
  uniform, five colors or more                4,795   5.3 us   3.4 us
  uniform, four colors                        1,502   5.4 us   3.8 us
  uniform, the path past the probe's row        308  18.8 us  18.0 us
  relabeled builder outputs, no path            405  15.2 us  14.5 us
  distinct certify hosts, no path                43  29.3 us  26.3 us
  ==========================================  =====  =======  =======

S_t^r and PA_{t,omega} are both a centre whose neighbourhood in the color
holds an inner pattern: r independent edges, or a clique of order
omega - 1.  One loop over centres, lowest first, finds both; the inner
search is the matching search or the clique search.  K_t and the clique
of PA_{t,omega} are found by ``graphs.find_clique``, the one clique
search.  It prunes a node when a greedy coloring of its candidates into
independent sets needs fewer classes than the vertices still missing;
that cuts only subtrees without a clique and keeps the ascending branching
order, so each embedding is the one found without the bound.

The three searches that branch on host vertices, the matching search
(S_t^r), the clique search (K_t and PA_{t,omega}) and the generic
embedding search (K_t - M and arbitrary targets), all skip twins.  Two
vertices are twins in a color when they have the same neighbours in it,
apart from each other (``graphs.twin_masks``).  Swapping two twins that no
branch has placed is an automorphism of the color class that fixes every
placed vertex, so a branch on one fails exactly when the branch on the
other does.  Hence:

  - the generic search, when candidate w fails at a position, drops w's
    twins from that position's candidates;
  - the clique search, when branch vertex w fails, drops w's twins from
    the candidates left at that node (the ``find_clique`` docstring);
  - the matching search, when partner w of u fails, drops w's twins from
    u's partners; and when it then leaves u unmatched it drops u's twins
    too, since a matching that used a twin of u would swap into one that
    uses u, and those all failed;
  - the loop over centres, when the inner search fails at centre u, skips
    u's twins as centres.  For PA_{t,omega} it also leaves u and its twins
    out of every later centre's clique search: a K_omega through u would
    give an (omega - 1)-clique in u's neighbourhood, so u, and by the
    automorphism each twin of u, lies in no K_omega, and no clique in a
    later neighbourhood that completes to one can use them.

Only branches without a copy are cut.  The generic and clique searches
meet their copies in the same order, the matching search's answer depends
only on the set of r-matchings inside its vertex set (the lowest vertex
any of them covers, then its lowest partner, and so on), which dropping
vertices that no such matching uses leaves as it is, and the loop over
centres skips only centres that fail.  So every embedding returned is the
one found without the rules.  The witnesses are mostly blow-ups, whose
parts are twin classes.  In one certify pass of the benchmark (seed 11)
the matching search visits 152 nodes, against 10,198 without any twin
rule and 422 with the twin rules inside the matching search alone; the
clique search makes 306 calls that visit 526 nodes, against 652 and
2,378 without its twin rules and the skipped centres.
``witness --H K9-M --k 4`` or ``--H S28^7 --k 4``, which ran without end
before the twin rules, visit a few hundred nodes, and
``witness --H PA9,6 --k 6`` makes 5 clique searches where it made 40.

No degree count cuts a search: K_t is searched over the whole class, and
the generic search's first position takes every host vertex.  Counts that
held both to the vertices of high enough degree cost a count of every
vertex's degree per search and left the certify counts above as they are;
a search pass (below) visits 835 nodes without them, 814 with them.

The twins are built once per host and color, and only when a branch or a
centre first fails.  The matching search for r = 1 never backtracks, and
most searches never fail a branch: every search pass of the benchmark
(seed 11), the first included, makes 392 searches and builds 63 twin
tables; they visit 835 nodes, at most 23 in one search.  A certify pass
makes 580 searches and builds 53 twin tables once the construction table
is warm, and the first pass of a process, which also runs the self-checks
of the r35 block, 584 and 57.
Building the table for every search made the search workload's five S4^1
and S5^1 jobs about 11 % slower together.

The three searches count the nodes they visit in one color class against
one budget, held with the twins by the entry's ``graphs.SearchState``: each
node calls ``SearchState.visit``, which spends it, and the centres of one
S_t^r or PA_{t,omega} search spend it together.  Past
``graphs.MAX_SEARCH_NODES`` they raise UnsupportedSizeError, so a host that
twins do not simplify, for instance a random bipartite graph in one color
checked for an odd cycle, or a random coloring of K600 checked for K14, is
refused (exit code 2) within seconds, never answered negatively.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from gallai.graphs import (
    FAMILY_COMPLETE,
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    ColoredComplete,
    SearchState,
    TargetGraph,
    color_rows,
    find_clique,
)

RAINBOW_PATH = "rainbow_path"
MONO_COPY = "mono_copy"


class Embedding(NamedTuple):
    """A concrete copy of a pattern inside a host coloring.

    ``vertices`` realizes the pattern: for monochromatic copies it lists the
    host images of target vertices 0..t-1 in target-label order; for rainbow
    paths it lists the path in traversal order.  ``edges`` are the host edges
    used, smaller end first, in the order of the pattern's edges, and
    ``color`` is set for monochromatic findings only.  A named tuple: it
    equals the plain tuple of its fields.
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


def mono_copy_at(
    c: ColoredComplete, vs: Sequence[int], H: TargetGraph, color: int | None = None
) -> Embedding | None:
    """The monochromatic copy of H at host vertices vs, target vertex i at
    vs[i], or None: vs must be H.t distinct vertices of c, and every
    edge of H must map to an edge of the color class ``color``, each tested
    as a bit of its masks ``c.adj[color]``.  With no color given, the first
    edge's color, read by ``c.color_of``, is the one.  A color outside
    1..k holds no copy.  An edgeless H is a copy on any H.t distinct
    vertices, in ``color``, or in color 1 when none is given."""
    vs = tuple(vs)
    if not (len(vs) == H.t == len(set(vs)) and min(vs) >= 0 and max(vs) < c.n):
        return None
    if color is not None and not 1 <= color <= c.k:
        return None
    pattern = H.edges
    if not pattern:
        return Embedding(MONO_COPY, vs, 1 if color is None else color, ())
    if color is None:
        i, j = pattern[0]
        color = c.color_of(vs[i], vs[j])
    masks = c.adj[color]
    edges = []
    for i, j in pattern:
        u, w = vs[i], vs[j]
        if not masks[u] >> w & 1:
            return None
        edges.append((u, w) if u < w else (w, u))
    return Embedding(MONO_COPY, vs, color, tuple(edges))


def _rainbow_path(c: ColoredComplete, m: int) -> tuple[int, ...] | None:
    """The first rainbow path with m in {3, 4} edges the scan meets, smaller
    end first, or None.  For each middle vertex and pair b, d whose edges to
    it have colors x != y, a-b-mid-d (m = 3) needs an edge at b outside
    colors {x, y} to a vertex outside {b, mid, d}; a-b-mid-d-e (m = 4, b < d)
    needs colors z at b and w != z at d, both outside {x, y}, to reach ends
    outside {b, mid, d} that are not one and the same single vertex.  For
    m = 3 row 0 is read from the flat color tuple, and the other rows are
    built only when it holds no path.  For m = 4 the first pair row is
    probed first, every color read on the masks; then the pairs the module
    docstring's three rules leave are found once, from one color list per
    vertex, and the rows are walked only when some pair is left."""
    if c.used < m:
        return None
    n = c.n
    adj = c.adj
    if m == 3:
        # row 0 from the flat color tuple; the rows past it only on a miss
        if path := _row3_path(adj, n, 0, (0,) + c.colors[: n - 1]):
            return path
        rows = color_rows(c)
        next(rows)
        for mid, cm in enumerate(rows, 1):
            if path := _row3_path(adj, n, mid, cm):
                return path
        return None
    # The probe (module docstring): the first pair row, mid 0 and b the
    # lowest vertex with two colors.  Vertex b has one color exactly when
    # its neighbours in the color of edge 0b are every other vertex.  Four
    # colors are used, so the loop stops before n: were vertex 0 the only
    # vertex with two, every edge would share one color.
    full = (1 << n) - 1
    cm = (0,) + c.colors[: n - 1]
    b = 1
    while adj[cm[b]][b] | 1 << b == full:
        b += 1
    x = cm[b]
    # every d > b whose edge to vertex 0 is not of color x
    if path := _row_path(adj, full, b, 0, x, cm, (1 << n) - (2 << b) & ~adj[x][0]):
        return path
    probed = 1 << b
    around = [_colors_at(adj, v) for v in range(n)]
    partners, live = _pair_table(around)
    if not live:
        return None
    for mid, cm in enumerate(color_rows(c)):
        # at mid 0 the probe has already walked its b's row
        to_visit = live & ~(1 << mid | probed)
        probed = 0
        while to_visit:
            low = to_visit & -to_visit
            to_visit ^= low
            b = low.bit_length() - 1
            x = cm[b]
            allowed = partners[b] & ~(adj[x][mid] | 1 << mid)
            if allowed and (path := _row_path(adj, full, b, mid, x, cm, allowed)):
                return path
    return None


def _row3_path(
    adj: Sequence[Sequence[int]], n: int, mid: int, cm: Sequence[int]
) -> tuple[int, ...] | None:
    """The first rainbow path a-b-mid-d, smaller end first, around the
    middle vertex mid, whose row of the color matrix is cm, or None: b and
    d ascending, and a the lowest vertex outside {b, mid, d} that b reaches
    in a color other than x and y, the colors of b and d to mid."""
    full = (1 << n) - 1
    for b, x in enumerate(cm):
        if not x:
            continue
        at_b = adj[x][b] | 1 << b | 1 << mid
        for d, y in enumerate(cm):
            if y and y != x and (ends := full & ~(at_b | adj[y][b] | 1 << d)):
                a = (ends & -ends).bit_length() - 1
                return (a, b, mid, d) if a < d else (d, mid, b, a)
    return None


def _pair_table(around: list[list[tuple[int, int]]]) -> tuple[list[int], int]:
    """(partners, live): partners[b] is the mask of the vertices d > b that
    the module docstring's three rules leave to pair with b, and live the
    mask of the b with partners.  ``around[v]`` is ``_colors_at(adj, v)``."""
    n = len(around)
    # multi: the vertices with two colors or more.  cset[v]: the color set
    # of such a vertex with two or three colors, as a mask over colors (0
    # for the others); by_colors groups them by it.  lone[v]: the vertices
    # u such that v or u has two colors, one of them only on the edge uv.
    multi = 0
    cset = [0] * n
    by_colors: dict[int, int] = {}
    lone = [0] * n
    for v, at_v in enumerate(around):
        if len(at_v) == 1:
            continue
        bit = 1 << v
        multi |= bit
        if len(at_v) == 2:
            (z, z_mask), (w, w_mask) = at_v
            s = 1 << z | 1 << w
            for mask in (z_mask, w_mask):
                if not mask & (mask - 1):
                    # rule 3: the lone edge ends at mid or at an end
                    lone[v] |= mask
                    lone[mask.bit_length() - 1] |= bit
        elif len(at_v) == 3:
            s = 1 << at_v[0][0] | 1 << at_v[1][0] | 1 << at_v[2][0]
        else:
            continue
        cset[v] = s
        by_colors[s] = by_colors.get(s, 0) | bit
    # few[s], built when first needed: the vertices with two or three
    # colors that see at most three colors together with a vertex of color
    # set s
    few: dict[int, int] = {}
    partners = [0] * n
    live = 0
    # above: the vertices of multi past b, b taken in ascending order
    above = multi
    while above:
        low = above & -above
        above ^= low
        b = low.bit_length() - 1
        mates = above & ~lone[b]
        s = cset[b]
        if s and mates:
            drop = few.get(s)
            if drop is None:
                drop = 0
                for t, vs in by_colors.items():
                    if (s | t).bit_count() <= 3:
                        drop |= vs
                few[s] = drop
            mates &= ~drop
        if mates:
            partners[b] = mates
            live |= low
    return partners, live


def _colors_at(adj: Sequence[Sequence[int]], v: int) -> list[tuple[int, int]]:
    """(color, neighbor mask) for every color present at vertex v."""
    return [(z, mask) for z, row in enumerate(adj) if (mask := row[v])]


def _row_path(
    adj: Sequence[Sequence[int]],
    full: int,
    b: int,
    mid: int,
    x: int,
    cm: Sequence[int],
    allowed: int,
) -> tuple[int, ...] | None:
    """The first rainbow path a-b-mid-d-e, smaller end first, over the d in
    the mask ``allowed`` taken in ascending order, or None.  b-mid has color
    x and mid-d color cm[d]; ``full`` is the mask of every vertex.  Colors
    z at b and then w at d are tried in ascending order, each read on its
    mask ``adj[z][b]`` or ``adj[w][d]``; the ends must lie outside
    {b, mid, d} and not be one and the same single vertex."""
    # the vertices b reaches in a color other than x; mid is not one
    at_b = full & ~(adj[x][b] | 1 << b)
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        d = low.bit_length() - 1
        y = cm[d]
        # the ends a at b and e at d: outside {b, mid, d}, and reached in a
        # color other than x and y
        ends_b = at_b & ~(adj[y][b] | low)
        if not ends_b:
            continue
        ends_d = full & ~(adj[x][d] | adj[y][d] | low | 1 << b)
        if not ends_d:
            continue
        for z_row in adj:
            ends_a = z_row[b] & ends_b
            if not ends_a:
                continue
            # the ends at d in a color w other than x, y and z: some w
            # closes the path unless they are none or ends_a's one vertex
            ends_w = ends_d & ~z_row[d]
            if not ends_w or ends_w == ends_a and ends_a & (ends_a - 1) == 0:
                continue
            for w_row in adj:
                ends_e = w_row[d] & ends_w
                if ends_e and not (ends_a == ends_e and ends_a & (ends_a - 1) == 0):
                    a = (ends_a & -ends_a).bit_length() - 1
                    if ends_e == 1 << a:
                        ends_a ^= ends_e
                        a = (ends_a & -ends_a).bit_length() - 1
                    ends_e &= ~(1 << a)
                    e = (ends_e & -ends_e).bit_length() - 1
                    return (a, b, mid, d, e) if a < e else (e, d, mid, b, a)
    return None


def find_rainbow_path(c: ColoredComplete, m: int) -> Embedding | None:
    """The rainbow path with m in {3, 4} edges that the middle-vertex scan
    finds first, or None if none exists.  The scan's path is re-checked in
    one walk along its m edges: m + 1 distinct vertices of c, and m distinct
    edge colors; RuntimeError otherwise."""
    n = c.n
    if m not in (3, 4) or m > n - 1:
        raise ValueError(f"rainbow paths need m in {{3, 4}} and m <= n-1, got m={m}, n={n}")
    vs = _rainbow_path(c, m)
    if vs is None:
        return None
    if len(vs) == m + 1 and 0 <= vs[0] < n:
        colors = c.colors
        # edge ab with a < b is colors[a * (r - a) // 2 + b - 1]
        r = 2 * n - 3
        u = vs[0]
        # on: the vertices walked so far; hues: the colors of their edges
        on = 1 << u
        hues = 0
        edges = []
        for w in vs[1:]:
            if not 0 <= w < n or on >> w & 1:
                break
            on |= 1 << w
            if u < w:
                edges.append((u, w))
                hues |= 1 << colors[u * (r - u) // 2 + w - 1]
            else:
                edges.append((w, u))
                hues |= 1 << colors[w * (r - w) // 2 + u - 1]
            u = w
        else:
            if hues.bit_count() == m:
                return Embedding(RAINBOW_PATH, vs, None, tuple(edges))
    raise RuntimeError(f"rainbow path {vs} failed re-verification")


def _matching_with_pairs(state: SearchState, allowed: int, r: int) -> list[int] | None:
    """A matching of exactly r edges inside the vertex set ``allowed`` of the
    graph ``state.masks``, found by exact branching, as the ends u1, w1, u2,
    w2, ... of its edges; or None.  A partner w that fails takes its twins
    with it, and so does the vertex u when it is left unmatched (module
    docstring).  ``state`` holds the twins and the node budget; the calls
    for one color class share it."""
    state.visit()
    if r == 0:
        return []
    masks = state.masks
    a = allowed
    while a:
        u = (a & -a).bit_length() - 1
        a &= a - 1
        if masks[u] & allowed & ~(1 << u):
            break
    else:
        return None
    cand = masks[u] & allowed
    while cand:
        w = (cand & -cand).bit_length() - 1
        rest = _matching_with_pairs(state, allowed & ~(1 << u) & ~(1 << w), r - 1)
        if rest is not None:
            return [u, w] + rest
        cand &= ~state.twins(w)
    # leave u unmatched, and its twins with it
    return _matching_with_pairs(state, allowed & ~state.twins(u), r)


def _generic(state: SearchState, H: TargetGraph) -> list[int] | None:
    """Backtracking embedding of H into the color class ``state.masks``,
    highest-degree target vertices first: the host image of each target
    vertex, or None.  A host vertex that fails at a position takes its
    twins with it (module docstring).  Works for every family."""
    t = H.t
    hmasks = H.adjacency_masks
    order = sorted(range(t), key=lambda v: (-hmasks[v].bit_count(), v))
    cmasks = state.masks
    assign = [-1] * t
    full = (1 << len(cmasks)) - 1

    def rec(pos: int, used: int) -> bool:
        state.visit()
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
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            assign[hv] = w
            if rec(pos + 1, used | low):
                return True
            cand &= ~state.twins(w)
        assign[hv] = -1
        return False

    return assign if rec(0, 0) else None


def _centered(state: SearchState, H: TargetGraph) -> list[int] | None:
    """S_t^r or PA_{t,omega}: the lowest centre v with t - 1 neighbours in
    the color class ``state.masks`` among which the inner search finds the
    inner pattern: r independent edges by the matching search, or a clique
    of order omega - 1 by ``find_clique``.  Target vertex 0 goes to v, the
    next ones to the inner pattern's vertices in the order found, the rest
    to v's lowest remaining neighbours.  A centre whose inner search fails
    takes its twins with it, and for PA_{t,omega} it leaves every later
    clique search too (module docstring).  Every centre's search shares
    ``state``, so the twins are built at most once per color class."""
    masks = state.masks
    star = H.family == FAMILY_STAR_PLUS
    failed = 0
    for v, nb in enumerate(masks):
        if failed >> v & 1 or nb.bit_count() < H.t - 1:
            continue
        if star:
            found = _matching_with_pairs(state, nb, H.r)
        else:
            found = find_clique(state, nb & ~failed, H.omega - 1)
        if found is None:
            failed |= state.twins(v)
            continue
        rest = [w for w in range(len(masks)) if nb >> w & 1 and w not in found]
        return [v] + found + rest[: H.t - 1 - len(found)]
    return None


def _complete(state: SearchState, H: TargetGraph) -> list[int] | None:
    """K_t: ``find_clique`` over the whole color class."""
    return find_clique(state, (1 << len(state.masks)) - 1, H.t)


def _search_color(
    search: Callable[[SearchState, TargetGraph], Sequence[int] | None],
    c: ColoredComplete,
    H: TargetGraph,
    color: int,
) -> Embedding | None:
    """The copy of H that ``search`` finds in the color class ``color``, or
    None: the one place a monochromatic search starts and ends.  It checks
    the color and the order, builds the class's one ``SearchState``, and
    re-checks the vertices found by ``mono_copy_at``; RuntimeError when they
    are no copy."""
    if not 1 <= color <= c.k:
        raise ValueError(f"color {color} outside 1..{c.k}")
    if H.t > c.n:
        return None
    vs = search(SearchState(c.adj[color]), H)
    if vs is None:
        return None
    found = mono_copy_at(c, vs, H, color)
    if found is None:
        raise RuntimeError(
            f"monochromatic copy {tuple(vs)} in color {color} failed re-verification"
        )
    return found


def find_mono_copy_generic(
    c: ColoredComplete, H: TargetGraph, color: int
) -> Embedding | None:
    """A copy of H inside the single color class ``color`` by the generic
    embedding search, whatever the family, or None.  The tests check it and
    the family searches against a search over every injective vertex map."""
    return _search_color(_generic, c, H, color)


def find_mono_copy_in_color(
    c: ColoredComplete, H: TargetGraph, color: int
) -> Embedding | None:
    """A copy of H inside the single color class ``color``, or None, by the
    search of H's family: the clique search for K_t, the search over
    centres for S_t^r and PA_{t,omega}, the generic search otherwise."""
    if H.family == FAMILY_COMPLETE:
        return _search_color(_complete, c, H, color)
    if H.family in (FAMILY_STAR_PLUS, FAMILY_PINEAPPLE):
        return _search_color(_centered, c, H, color)
    return find_mono_copy_generic(c, H, color)


def find_mono_copy(c: ColoredComplete, H: TargetGraph) -> Embedding | None:
    """A monochromatic copy of H in any color class, lowest color first."""
    if H.t > c.n:
        return None
    for color in range(1, c.k + 1):
        emb = find_mono_copy_in_color(c, H, color)
        if emb is not None:
            return emb
    return None
