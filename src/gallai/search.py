"""Exhaustive verification at a fixed order and the downward search that
pins exact values.

A candidate lower-bound coloring is accepted only through ``verify_witness``,
which re-runs both detectors and returns a replayable certificate.  The
per-order check scans structure-guided representatives in canonical-key
order, so the reported bad coloring is the canonically smallest one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gallai.canonical import MODE_VERTEX_AND_COLOR, canonical_form, coloring_from_key
from gallai.detectors import (
    Embedding,
    find_mono_copy,
    find_mono_copy_in_color,
    find_rainbow_path,
)
from gallai.graphs import (
    ColoredComplete,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    parse_hspec,
    render_hspec,
    require_keys,
)
from gallai.structure import enumerate_p5free, parallel_map, resolve_threads

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
    """Rebuild a certificate from its JSON form, re-running every check."""
    require_keys(data, ("coloring", "target"), "a certificate")
    if not isinstance(data["target"], str):
        raise ValueError(f"certificate target must be a spec string, got {data['target']!r}")
    coloring = ColoredComplete.from_json_dict(data["coloring"])
    H = parse_hspec(data["target"])
    return verify_witness(coloring, H, label=data.get("label"))


def verify_witness(
    coloring: ColoredComplete, H: TargetGraph, label: str | None = None
) -> WitnessCertificate:
    """Check that the coloring is exact, rainbow-path-free, and mono-H-free;
    raise WitnessFailure (with the offending embedding) otherwise."""
    if not coloring.exact:
        used = len(coloring.used_colors)
        raise ValueError(
            f"witness must use all {coloring.k} colors, found {used}"
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

    def to_json_dict(self) -> dict:
        out = {
            "target": render_hspec(self.H),
            "k": self.k,
            "n": self.n,
            "status": self.status,
            "examined": self.examined,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def brute_force_colorings(n: int, k: int):
    """Yield every exact k-coloring of the complete graph on n vertices.

    Unfiltered search space is k**C(n,2); refuses above 10**8.
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
    m = edge_count(n)
    if k > m:
        return frozenset()
    keys = set()
    for rgs in _restricted_growth_strings(m, k):
        if _has_rainbow_p5_direct(rgs, n):
            continue
        c = ColoredComplete(n, k, rgs)
        keys.add(canonical_form(c, MODE_VERTEX_AND_COLOR))
    return frozenset(keys)


def _small_order_classes(n: int, k: int) -> list[ColoredComplete]:
    """Exact coloring classes for n <= 4, where no 4-edge path fits and thus
    every exact coloring qualifies."""
    keys = set()
    for c in brute_force_colorings(n, k):
        keys.add(canonical_form(c, MODE_VERTEX_AND_COLOR))
    return [coloring_from_key(key) for key in sorted(keys)]


def check_n(
    H: TargetGraph, k: int, n: int, threads: int | None = None
) -> CheckOutcome:
    """Decide whether every exact k-coloring of the complete graph on n
    vertices contains a rainbow 4-edge path or a monochromatic H.

    The scan walks representatives in canonical-key order; when bad
    colorings exist the reported witness is the canonically smallest.
    """
    if k <= 3:
        raise ValueError(f"need k >= 4, got k={k}")
    if n < 2 or edge_count(n) < k:
        return CheckOutcome(H, k, n, STATUS_NO_EXACT, None, 0)
    if n <= 4:
        reps = _small_order_classes(n, k)
    else:
        reps = enumerate_p5free(n, k, threads=threads)
    nthreads = resolve_threads(threads)
    misses = parallel_map(
        lambda rep: find_mono_copy(rep, H) is None, reps, nthreads
    )
    for rep, miss in zip(reps, misses):
        if miss:
            witness = verify_witness(rep, H)
            return CheckOutcome(H, k, n, STATUS_BAD, witness, len(reps))
    return CheckOutcome(H, k, n, STATUS_ALL_GOOD, None, len(reps))


@dataclass(frozen=True)
class GrSearchResult:
    """Outcome of the downward search from n_max."""

    H: TargetGraph
    k: int
    n_max: int
    value: int | None
    status: str  # "exact" | "inconclusive"
    outcomes: tuple[CheckOutcome, ...]

    def to_json_dict(self) -> dict:
        return {
            "target": render_hspec(self.H),
            "k": self.k,
            "n_max": self.n_max,
            "value": self.value,
            "status": self.status,
            "outcomes": [o.to_json_dict() for o in self.outcomes],
        }


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
