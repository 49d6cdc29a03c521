"""Witness certificates, the lower-bound dispatcher, exhaustive
verification at a fixed order and the downward search that pins exact
values.

A candidate lower-bound coloring is accepted only through ``verify_witness``,
which re-runs both detectors and returns a replayable certificate;
``lower_bound_witness`` picks the registry constructions whose hypotheses
cover a query and returns the largest one that verifies.  The per-order
check tests one member coloring per class: the structure-guided classes of
``p5free_classes`` for n >= 5, and all exact colorings up to color renaming
below that.  The reported bad coloring is the canonically smallest one,
decoded from the least key of the bad classes.

The classes depend on (n, k) alone, and ``check_n`` is the one caller that
asks for the same (n, k) more than once, so this module keeps the only
per-process class cache: ``_class_table``, one entry per (n, k) that
``check_n`` reaches (n 4..9, at most 46 entries and 212 classes), each
mapping a class member to its key.  The n = 4 keys are known when the
entry is built; a class of order 5 or more is keyed when a check first
finds it bad, and never again.  Checking many targets at the same orders in
one process, as ``compute_gr`` sweeps and the tests do, pays for
generation, the rainbow guard and each key once; a one-shot CLI command
builds what it needs and gains nothing.  Arguments are validated on every
call, and every witness is verified afresh.

Within one call ``check_n`` tries each class first on the vertices of the
last copy that ``find_mono_copy`` returned, by ``detectors.mono_copy_at``
(the re-check every search result passes, returning None on a miss), and
searches the class only when those vertices hold no copy there.  The
classes of one (n, k) are a few shapes laid out on the same vertex
positions, so the copy of one class mostly lies in the next: at (9, 4) the
checks of S5^1, K5, PA6,5, K6-M and C5 search 7, 48, 46, 7 and 10 of the 79
classes, and of S4^1 at (9, 5) and (9, 6) one class each.  No output can
change.  A class is bad exactly when it holds no copy, and
``find_mono_copy`` finds a copy whenever one exists.  A tuple that passes
the re-check is a copy, so a class it hits is good, as its search would
have said; a class it misses is searched as before.  So the bad classes
are the same, in the same order, and so are the keys computed and the
witness.  Only the last copy is kept, and only for the call: trying every
earlier copy made the K5 and PA6,5 checks slower, since each bad class
tries them all.
"""

from __future__ import annotations

import itertools
import json
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

from gallai.canonical import canonical_form, coloring_from_key
from gallai.constructions import build_named
from gallai.detectors import (
    Embedding,
    find_mono_copy,
    find_mono_copy_in_color,
    find_rainbow_path,
    mono_copy_at,
)
from gallai.graphs import (
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    ColoredComplete,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    parse_hspec,
    render_hspec,
    require_keys,
)
# The benchmark's tracer wraps names bound in this module (see
# tests/test_bench_targets.py); enumerate_p5free and parallel_map stay
# imported for it, though no function here calls them.
from gallai.structure import enumerate_p5free, p5free_classes, parallel_map

STATUS_ALL_GOOD = "all-good"
STATUS_BAD = "bad"
STATUS_NO_EXACT = "no-exact-colorings"

_BRUTE_FORCE_LIMIT = 10**8


class WitnessFailure(Exception):
    """A claimed witness contains a forbidden pattern."""

    def __init__(self, reason: str, embedding: Embedding):
        super().__init__(f"{reason}: {embedding}")
        self.reason = reason
        self.embedding = embedding


class InexactWitness(ValueError):
    """A claimed witness leaves a palette color unused."""


class CertificateMismatch(Exception):
    """A certificate states a value that its replay does not reproduce."""


@dataclass(frozen=True)
class WitnessCertificate:
    """A verified lower-bound coloring: exact, no rainbow 4-edge path, and
    no monochromatic copy of the target in any color."""

    coloring: ColoredComplete
    H: TargetGraph
    order: int
    rainbow_absent: bool
    mono_absent: tuple[int, ...]
    label: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "colors": self.coloring.k,
            "target": render_hspec(self.H),
            "coloring": self.coloring.to_json_dict(),
            "rainbow_absent": self.rainbow_absent,
            "mono_absent": list(self.mono_absent),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, with
        the coloring written by ``ColoredComplete.to_json``.  The label and
        the target go through ``json.dumps``: an edge-list target is itself
        JSON, and a label may hold any character."""
        mono = ",".join(map(str, self.mono_absent))
        return (
            f'{{"label":{json.dumps(self.label)},"order":{self.order},'
            f'"colors":{self.coloring.k},"target":{json.dumps(render_hspec(self.H))},'
            f'"coloring":{self.coloring.to_json()},'
            f'"rainbow_absent":{json.dumps(self.rainbow_absent)},"mono_absent":[{mono}]}}'
        )


def replay_certificate(data: dict) -> WitnessCertificate:
    """Rebuild a certificate from its JSON form, re-running every check;
    CertificateMismatch when a stated field differs from the replay."""
    require_keys(data, ("coloring", "target"), "a certificate")
    if not isinstance(data["target"], str):
        raise ValueError(f"certificate target must be a spec string, got {data['target']!r}")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"certificate label must be a string or null, got {label!r}")
    coloring = ColoredComplete.from_json_dict(data["coloring"])
    H = parse_hspec(data["target"])
    cert = verify_witness(coloring, H, label=label)
    replayed = {
        "order": cert.order,
        "colors": coloring.k,
        "rainbow_absent": cert.rainbow_absent,
        "mono_absent": list(cert.mono_absent),
    }
    for key, got in replayed.items():
        if key in data and not _same_json(data[key], got):
            raise CertificateMismatch(
                f"certificate states {key} {json.dumps(data[key])}, "
                f"replay gives {json.dumps(got)}"
            )
    return cert


def _same_json(stated: object, got: object) -> bool:
    """Equal, and of equal JSON type: 10.0 is not 10 and true is not 1.  A
    list is typed one level deep, as deep as any replayed field goes."""
    if type(stated) is not type(got) or stated != got:
        return False
    return type(got) is not list or all(map(lambda a, b: type(a) is type(b), stated, got))


def verify_witness(
    coloring: ColoredComplete, H: TargetGraph, label: str | None = None
) -> WitnessCertificate:
    """Check that the coloring is exact, rainbow-path-free, and mono-H-free;
    raise InexactWitness or WitnessFailure (with the offending embedding)
    otherwise."""
    if not coloring.exact:
        raise InexactWitness(
            f"witness must use all {coloring.k} colors, found {coloring.used}"
        )
    if coloring.n >= 5:
        rainbow = find_rainbow_path(coloring, 4)
        if rainbow is not None:
            raise WitnessFailure("rainbow 4-edge path present", rainbow)
    for color in range(1, coloring.k + 1):
        mono = find_mono_copy_in_color(coloring, H, color)
        if mono is not None:
            raise WitnessFailure(f"monochromatic copy in color {color}", mono)
    return WitnessCertificate(
        coloring=coloring,
        H=H,
        order=coloring.n,
        rainbow_absent=True,
        mono_absent=tuple(range(1, coloring.k + 1)),
        label=label,
    )


def lower_bound_witness(H: TargetGraph, k: int) -> WitnessCertificate | None:
    """Largest certified witness coloring for (H, k) among the constructions
    whose hypotheses cover the query; None when nothing applies or survives
    verification.  Each hypothesis lies inside its builder's domain, so a
    build error here is a fault in this table and propagates."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    t = H.order
    a = H.clique_number
    delta = H.max_degree

    cands: list[tuple[str, ColoredComplete]] = []

    def add(name: str, **params: int) -> None:
        cands.append((name, build_named(name, params)))

    if k == 5 and k >= t + 1 and t >= 3:
        add("G1")
    if k == 6 and k >= t + 1 and t >= 3:
        add("G2")
    if k == t and t >= 3:
        add("G3", t=t)
    if 4 <= k <= a and a >= 3:
        add("G4", a=a, t=t, k=k)
    if 3 <= k <= t:
        add("G5", t=t, k=k)
    # G6 splits delta - 1 over k - 2 parts; each part must still hold an edge.
    if k >= 4 and delta >= 2 and (delta - 1) // (k - 2) >= 2:
        add("G6", max_degree=delta, k=k)
    if H.family == FAMILY_STAR_PLUS and k == 4:
        r = H.r
        assert r is not None
        if r in (1, 2) and t >= 6:
            add("F1", t=t)
            add("F2", t=t)
        if r >= 3:
            if t % 2 == 1:
                add("F4", t=t)
            else:
                add("F6", t=t)
            add("F5", t=t, r=r)
    if k == 4:
        add("F3")
    if k == 3 and t >= 3:
        add("F7", t=t)
    if k == 5:
        add("F9")
        add("F11")
    if k == 6:
        add("F10")
    if H.family == FAMILY_PINEAPPLE and k == 4:
        if (t, H.omega) == (6, 5):
            add("F12")
        if (t, H.omega) == (7, 5):
            add("F13")

    # A candidate that fails verification is skipped; nothing else is.
    for name, coloring in sorted(cands, key=lambda item: (-item[1].n, item[0])):
        with suppress(WitnessFailure):
            return verify_witness(coloring, H, label=name)
    return None


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict for one (H, k, n) instance."""

    H: TargetGraph
    k: int
    n: int
    status: str
    witness: WitnessCertificate | None
    examined: int

    @property
    def all_good(self) -> bool:
        return self.status == STATUS_ALL_GOOD


def brute_force_colorings(n: int, k: int):
    """Yield every exact k-coloring of the complete graph on n vertices.

    The reference the tests compare the small-order classes of ``check_n``
    against; no program path calls it.  Unfiltered search space is
    k**C(n,2); refuses above 10**8.
    """
    if n < 2 or k < 1:
        return
    m = edge_count(n)
    if k**m > _BRUTE_FORCE_LIMIT:
        raise UnsupportedSizeError(
            f"brute force over k^C(n,2) = {k}^{m} colorings is out of reach"
        )
    for colors in itertools.product(range(1, k + 1), repeat=m):
        c = ColoredComplete(n, k, colors)
        if c.exact:
            yield c


def _restricted_growth_strings(m: int, k: int):
    """All surjections from m positions onto blocks 1..k, up to renaming
    blocks by first occurrence: a prefix grows by one of its ``top`` blocks
    so far or by block ``top + 1``."""

    def grow(prefix: tuple[int, ...], top: int):
        if len(prefix) == m:
            if top == k:
                yield prefix
        # Still need k - top fresh blocks among the remaining slots.
        elif k - top <= m - len(prefix):
            for v in range(1, min(top + 1, k) + 1):
                yield from grow(prefix + (v,), max(top, v))

    yield from grow((), 0)


def _has_rainbow_p5_direct(colors: tuple[int, ...], n: int) -> bool:
    """Path-by-path scan, independent of the detector module."""
    for verts in itertools.permutations(range(n), 5):
        if verts[0] > verts[4]:
            continue
        seen = set()
        for a, b in zip(verts, verts[1:]):
            i, j = (a, b) if a < b else (b, a)
            seen.add(colors[i * n - i * (i + 1) // 2 + (j - i - 1)])
        if len(seen) == 4:
            return True
    return False


def rainbow_p5free_classes(n: int, k: int) -> frozenset[bytes]:
    """Canonical keys of every exact k-coloring class on n vertices with no
    rainbow 4-edge path, by unstructured enumeration of edge-set partitions.

    Slow by design (it is the ground truth the structure-guided enumerator
    is compared against); supports n <= 5 only.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got n={n}")
    if n > 5:
        raise UnsupportedSizeError("ground-truth enumeration supports n <= 5 only")
    return frozenset(
        canonical_form(ColoredComplete(n, k, rgs))
        for rgs in _restricted_growth_strings(edge_count(n), k)
        if not _has_rainbow_p5_direct(rgs, n)
    )


@lru_cache(maxsize=None)
def _class_table(n: int, k: int) -> dict[ColoredComplete, bytes | None]:
    """One member coloring per class at (n, k), in a fixed order, each
    mapped to its canonical key, or to None until ``check_n`` finds the
    class bad.  Below order 5 no 4-edge path fits, so the classes are every
    exact coloring: the keys of the restricted growth strings, decoded in
    key order; from order 5 they are the classes of ``p5free_classes``, keyed
    by ``check_n`` on demand.  A failed build stores nothing."""
    if n <= 4:
        keys = {
            canonical_form(ColoredComplete(n, k, rgs))
            for rgs in _restricted_growth_strings(edge_count(n), k)
        }
        return {coloring_from_key(key): key for key in sorted(keys)}
    return dict.fromkeys(p5free_classes(n, k))


def check_n(H: TargetGraph, k: int, n: int) -> CheckOutcome:
    """Decide whether every exact k-coloring of the complete graph on n
    vertices contains a rainbow 4-edge path or a monochromatic H.

    ``examined`` counts the classes.  A class is one member coloring, tested
    as it is (a monochromatic copy survives renaming); when bad classes
    exist the reported witness is the canonically smallest, decoded from
    the least key of the bad members and verified afresh.  The classes and
    their keys come from the class table (see the module docstring); only
    the monochromatic tests and the witness depend on H.  Each class is
    tried first on the vertices of the last copy found in this call, and
    searched only when they hold none; the module docstring says why that
    changes no output.
    """
    if k <= 3:
        raise ValueError(f"need k >= 4, got k={k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if edge_count(n) < k:
        return CheckOutcome(H, k, n, STATUS_NO_EXACT, None, 0)
    table = _class_table(n, k)
    bad = []
    # The vertices of the last copy found, tried first on each later class.
    # H.edges() is read only once a copy is found, so H fits in n vertices.
    last = None
    for c in table:
        if last is not None and mono_copy_at(c, last, H.order, H.edges()) is not None:
            continue
        found = find_mono_copy(c, H)
        if found is None:
            bad.append(c)
        else:
            last = found.vertices
    if not bad:
        return CheckOutcome(H, k, n, STATUS_ALL_GOOD, None, len(table))
    for c in bad:
        if table[c] is None:
            table[c] = canonical_form(c)
    witness = verify_witness(coloring_from_key(min(table[c] for c in bad)), H)
    return CheckOutcome(H, k, n, STATUS_BAD, witness, len(table))


@dataclass(frozen=True)
class GrSearchResult:
    """Outcome of the downward search from n_max."""

    H: TargetGraph
    k: int
    n_max: int
    value: int | None
    status: str  # "exact" | "inconclusive"
    outcomes: tuple[CheckOutcome, ...]


def compute_gr(H: TargetGraph, k: int, n_max: int) -> GrSearchResult:
    """Least N such that every order n in [N, n_max] is all-good, with the
    order below N certified not-all-good.

    Walks n downward from n_max.  An order with no exact colorings counts as
    not-all-good, so the walk always terminates.  If n_max itself is not
    all-good the search is inconclusive: no value up to n_max works.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    outcomes: list[CheckOutcome] = []
    n = n_max
    while n >= 2:
        outcome = check_n(H, k, n)
        outcomes.append(outcome)
        if not outcome.all_good:
            break
        n -= 1
    if outcomes[0].all_good:
        return GrSearchResult(H, k, n_max, n + 1, "exact", tuple(outcomes))
    return GrSearchResult(H, k, n_max, None, "inconclusive", tuple(outcomes))
