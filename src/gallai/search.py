"""Witness certificates, the lower-bound dispatcher, exhaustive
verification at a fixed order and the downward search that pins exact
values.

A candidate lower-bound coloring is accepted only through ``verify_witness``,
which re-runs both detectors and returns a replayable certificate;
``lower_bound_witness`` picks the registry constructions whose hypotheses
cover a query and returns the largest one that verifies.  The per-order
check tests one member coloring per class: the structure-guided classes of
``p5free_classes`` for n >= 5, and all exact colorings up to color renaming
below that.  The reported bad coloring is the canonically smallest one: one
bounded search across the bad classes, ``least_canonical_form``, finds its
key without finishing the others, and no class is decoded but that one.
"""

from __future__ import annotations

import itertools
import json
from contextlib import suppress
from dataclasses import dataclass

from gallai.canonical import canonical_form, coloring_from_key, least_canonical_form
from gallai.constructions import build_named
from gallai.detectors import (
    Embedding,
    find_mono_copy,
    find_mono_copy_in_color,
    find_rainbow_path,
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
# tests/test_bench_targets.py); enumerate_p5free stays imported for it,
# though no function here calls it.
from gallai.structure import (
    P5FreeClass,
    enumerate_p5free,
    p5free_classes,
    parallel_map,
    resolve_threads,
)

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
                f"certificate states {key} {json.dumps(data[key])}, replay gives {json.dumps(got)}"
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
        used = len(coloring.used_colors)
        raise InexactWitness(f"witness must use all {coloring.k} colors, found {used}")
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
    blocks by first occurrence."""
    if k > m:
        return
    rgs = [1] * m
    maxes = [1] * m

    def rec(i: int):
        if i == m:
            if maxes[m - 1] == k:
                yield tuple(rgs)
            return
        prev_max = maxes[i - 1] if i > 0 else 0
        # Still need k - prev_max fresh blocks among the remaining slots.
        if k - prev_max > m - i:
            return
        for v in range(1, min(prev_max + 1, k) + 1):
            rgs[i] = v
            maxes[i] = max(prev_max, v)
            yield from rec(i + 1)

    yield from rec(0)


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


def _rainbow_free_class_keys(n: int, k: int) -> set[bytes]:
    """Canonical keys of every exact k-coloring class on n vertices with no
    rainbow 4-edge path: each surjection of the edges onto k colors, up to
    color renaming, that the direct scan finds no rainbow path in.  Below
    n = 5 no 4-edge path fits and every exact coloring qualifies."""
    return {
        canonical_form(ColoredComplete(n, k, rgs))
        for rgs in _restricted_growth_strings(edge_count(n), k)
        if not _has_rainbow_p5_direct(rgs, n)
    }


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
    return frozenset(_rainbow_free_class_keys(n, k))


def _small_order_classes(n: int, k: int) -> list[P5FreeClass]:
    """Exact coloring classes for n <= 4, where no 4-edge path fits and thus
    every exact coloring qualifies, in key order."""
    return [
        P5FreeClass(coloring_from_key(key), key)
        for key in sorted(_rainbow_free_class_keys(n, k))
    ]


def check_n(
    H: TargetGraph, k: int, n: int, threads: int | None = None
) -> CheckOutcome:
    """Decide whether every exact k-coloring of the complete graph on n
    vertices contains a rainbow 4-edge path or a monochromatic H.

    ``examined`` counts the classes.  Each class is tested on its member
    coloring (a monochromatic copy survives renaming); when bad classes
    exist the reported witness is the canonically smallest, decoded from
    the least key of their members.  For n >= 5 no class is keyed one by
    one and no class is decoded but the witness; below n = 5 every class is
    a decoded key.
    """
    if k <= 3:
        raise ValueError(f"need k >= 4, got k={k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    nthreads = resolve_threads(threads)
    if edge_count(n) < k:
        return CheckOutcome(H, k, n, STATUS_NO_EXACT, None, 0)
    if n <= 4:
        classes = _small_order_classes(n, k)
    else:
        classes = p5free_classes(n, k, threads=nthreads)
    misses = parallel_map(
        lambda cls: find_mono_copy(cls.member, H) is None, classes, nthreads
    )
    bad = [cls.member for cls, miss in zip(classes, misses) if miss]
    if not bad:
        return CheckOutcome(H, k, n, STATUS_ALL_GOOD, None, len(classes))
    witness = verify_witness(coloring_from_key(least_canonical_form(bad)), H)
    return CheckOutcome(H, k, n, STATUS_BAD, witness, len(classes))


@dataclass(frozen=True)
class GrSearchResult:
    """Outcome of the downward search from n_max."""

    H: TargetGraph
    k: int
    n_max: int
    value: int | None
    status: str  # "exact" | "inconclusive"
    outcomes: tuple[CheckOutcome, ...]


def compute_gr(
    H: TargetGraph, k: int, n_max: int, threads: int | None = None
) -> GrSearchResult:
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
        outcome = check_n(H, k, n, threads=threads)
        outcomes.append(outcome)
        if not outcome.all_good:
            break
        n -= 1
    if outcomes[0].all_good:
        return GrSearchResult(H, k, n_max, n + 1, "exact", tuple(outcomes))
    return GrSearchResult(H, k, n_max, None, "inconclusive", tuple(outcomes))
