"""Closed-form values and bounds for gr_k(P5 : H), rule by rule.

A rule is a function of (H, k, c) that returns a GrResult or None: its
provenance is the rule's identifier (th2-1, le3-1, co3-1, ...), then the
dependencies it cites, and its assumptions are the one hypothesis it checked.
``_RULES`` pairs each rule with the family its theorem is stated for (None
for every family), and ``evaluate`` calls the rules of H's family in table
order, then merges once: exact values must agree with each other and fit
inside every applicable bound (a contradiction raises FormulaInconsistency,
since it can only come from a transcription bug), and bounds are intersected
otherwise.  The merge lists the rule identifiers in table order, then the
cited dependencies, each once.  A contradiction caused by the caller's
constant c of the pineapple bound th4-7 raises ConstantOutOfRange instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from importlib import resources
from typing import Iterable, Sequence

from gallai.graphs import (
    FAMILY_COMPLETE_MINUS_MATCHING,
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    TargetGraph,
    UnsupportedSizeError,
    edge_count,
    parse_hspec,
    render_hspec,
)

KIND_EXACT = "Exact"
KIND_BOUNDS = "Bounds"
KIND_UNKNOWN = "Unknown"

TH4_7_MAX_OMEGA = 515  # comb(2w - 2, w - 1) leaves the float range at w = 516


class FormulaInconsistency(RuntimeError):
    """Two applicable rules disagree; this indicates a transcription bug in
    the rule table, never a legitimate runtime condition."""


class ConstantOutOfRange(ValueError):
    """The constant c is not finite or gives an unusable th4-7 bound."""


@dataclass(frozen=True)
class GrResult:
    """Exact value or [lo, hi] bounds, with the producing rule identifiers;
    the rules build theirs through ``_exact`` and ``_bounds``.  An exact
    answer is the interval [value, value], so its value is read from it."""

    kind: str
    lo: int | None
    hi: int | None
    provenance: tuple[str, ...]
    assumptions: tuple[str, ...]

    @classmethod
    def unknown(cls) -> GrResult:
        return cls(KIND_UNKNOWN, None, None, (), ())

    @property
    def value(self) -> int | None:
        """``lo`` for an exact answer, None otherwise."""
        return self.lo if self.kind == KIND_EXACT else None

    def to_json_dict(self) -> dict:
        if self.kind == KIND_EXACT:
            return {
                "kind": self.kind,
                "value": self.value,
                "provenance": list(self.provenance),
            }
        if self.kind == KIND_BOUNDS:
            return {
                "kind": self.kind,
                "lo": self.lo,
                "hi": self.hi,
                "provenance": list(self.provenance),
            }
        return {"kind": self.kind, "provenance": []}


@dataclass(frozen=True)
class RamseyEntry:
    """One known classical Ramsey value or interval."""

    patterns: tuple[str, ...]
    colors: int
    lo: int
    hi: int | None
    citation: str

    @property
    def is_exact(self) -> bool:
        return self.hi is not None and self.lo == self.hi


def min_order_with_pair_count(k: int) -> int:
    """Least v with C(v, 2) >= k: the smallest complete graph carrying k
    distinct edge colors."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    v = max(2, (1 + math.isqrt(1 + 8 * k)) // 2)
    while edge_count(v) >= k:
        v -= 1
    while edge_count(v) < k:
        v += 1
    return v


def _parse_ramsey_line(line: str) -> RamseyEntry:
    parts = line.split()
    if len(parts) != 4:
        raise ValueError(f"bad known-values row {line!r}: expected 4 fields")
    patterns = tuple(parts[0].split(","))
    colors = int(parts[1])
    value = parts[2]
    if value.startswith("["):
        lo_s, hi_s = value.strip("[]").split(",")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(value)
    return RamseyEntry(patterns, colors, lo, hi, parts[3])


@cache
def builtin_ramsey_table() -> tuple[RamseyEntry, ...]:
    """The shipped table of known classical Ramsey values, read once."""
    text = resources.files("gallai").joinpath("data/known_ramsey.txt").read_text()
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(_parse_ramsey_line(line))
    return tuple(entries)


def ramsey_known(
    patterns: TargetGraph | Sequence[TargetGraph],
    colors: int,
    c: float | None = None,
) -> RamseyEntry | None:
    """Known classical Ramsey number for the given pattern multiset and
    color count: a table row, a derived star-plus 3-color interval (from the
    2-color value, when that is known), or a 2-color pineapple interval when
    the absolute constant c is supplied; None otherwise."""
    if isinstance(patterns, TargetGraph):
        targets: tuple[TargetGraph, ...] = (patterns,)
    else:
        targets = tuple(patterns)
    names = sorted(render_hspec(H) for H in targets)
    for row in builtin_ramsey_table():
        if sorted(row.patterns) == names and row.colors == colors:
            return row
    if len(targets) == 1:
        H = targets[0]
        if H.family == FAMILY_STAR_PLUS and colors == 3:
            assert H.r is not None
            two = ramsey_known(H, 2, c=c)
            if two is None:
                return None
            lo = max(5 * H.t - 4, 2 * two.lo - 1)
            hi = None if two.hi is None else 3 * two.hi + 6 * H.r - 6
            return RamseyEntry((render_hspec(H),), 3, lo, hi, "le3-4")
        if H.family == FAMILY_PINEAPPLE and colors == 2 and c is not None:
            assert H.omega is not None
            w = H.omega
            if w > TH4_7_MAX_OMEGA:
                raise UnsupportedSizeError(f"th4-7 needs omega <= {TH4_7_MAX_OMEGA}, got {w}")
            try:
                hi = math.floor(
                    math.comb(2 * w - 2, w - 1) * math.exp(-c * math.log(w - 1) ** 2)
                ) + (H.t - 2) * (w - 1)
            except OverflowError:
                raise ConstantOutOfRange(f"c={c} overflows the th4-7 bound") from None
            return RamseyEntry((render_hspec(H),), 2, H.t, hi, "th4-7")
    return None


def _exact(rule: str, value: int, assumption: str, deps: Iterable[str] = ()) -> GrResult:
    return GrResult(KIND_EXACT, value, value, (rule, *deps), (assumption,))


def _bounds(
    rule: str, lo: int, hi: int | None, assumption: str, deps: Iterable[str] = ()
) -> GrResult:
    return GrResult(KIND_BOUNDS, lo, hi, (rule, *deps), (assumption,))


def _point_rule(
    rule: str, point: TargetGraph, value: int, H: TargetGraph, k: int, c: float | None
) -> GrResult | None:
    """A rule that holds at the single point H = point, k = 4."""
    if k == 4 and H == point:
        return _exact(rule, value, f"H = {render_hspec(point)} and k = {k}")
    return None


def _rule_th2_1(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if k >= 7 and k >= t + 1:
        return _exact(
            "th2-1", min_order_with_pair_count(k), f"k={k} >= 7 and k >= t+1={t + 1}"
        )
    return None


def _rule_th2_2_1(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if k in (5, 6) and k >= t + 1 and t >= 3:
        return _exact("th2-2-1", 5, f"k={k} in {{5,6}} and k >= t+1={t + 1}")
    return None


def _rule_th2_2(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if k == t and k >= 5 and not H.is_complete:
        return _exact("th2-2", t + 1, f"k = t = {t} >= 5 and H not complete")
    return None


def _rule_th2_4(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if k == t and t >= 5 and H.is_complete:
        return _exact("th2-4", (t - 1) ** 2 + 1, f"k = t = {t} >= 5 and H complete")
    return None


def _rule_coro2_4(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if not (k >= 5 and k >= t and t >= 3):
        return None
    if k >= t + 1:
        value = max(min_order_with_pair_count(k), 5)
        return _exact("coro2-4", value, f"k={k} >= max(5, t+1)")
    if H.is_complete:
        return _exact("coro2-4", (t - 1) ** 2 + 1, f"k = t = {t} and H complete")
    return _exact("coro2-4", t + 1, f"k = t = {t} and H not complete")


def _rule_th2_5(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if k >= 5 and (t + 3) // 2 <= k <= t - 1:
        value = max(min_order_with_pair_count(k), t + 1)
        return _exact("th2-5", value, f"ceil((t+2)/2) <= k={k} <= t-1={t - 1}")
    return None


def _rule_th2_6(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t = H.t
    if not (k >= 5 and k <= t - 1):
        return None
    entry = ramsey_known(H, 2, c=c)
    if entry is None or not entry.is_exact or entry.lo < t + 1:
        return None
    p = (H.max_degree - 1) // (k - 2)
    lo = max(H.max_degree + p, t + 1)
    return _bounds(
        "th2-6",
        lo,
        entry.lo,
        f"5 <= k={k} <= t-1 and two-color value known",
        deps=(entry.citation,),
    )


def _rule_lem2_1(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    a = H.clique_number
    if 4 <= k <= a and a >= 3:
        lo = (a - 1) * (H.t - 1) + 1
        return _bounds("lem2-1", lo, None, f"4 <= k={k} <= a={a}")
    return None


def _rule_th3_1(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t, r = H.t, H.r
    if 5 <= k <= t - 1 and 1 <= r <= k - 2:
        p = (t - 2) // (k - 2)
        return _exact(
            "th3-1", max(t + p - 1, t + 1), f"5 <= k={k} <= t-1 and 1 <= r <= k-2"
        )
    return None


def _rule_th3_2(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t, r = H.t, H.r
    if k == 4 and t >= 6 and r in (1, 2):
        p = (t - 2) // 2
        return _exact("th3-2", t + p - 1, f"k=4, t={t} >= 6, r={r} in {{1,2}}")
    return None


def _rule_co3_1(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t, r = H.t, H.r
    if k != 4 or r not in (1, 2):
        return None
    if t == 4 and r == 1:
        return _exact("co3-1", 6, "k=4, t=4, r=1")
    if t == 5:
        return _exact("co3-1", 6, f"k=4, t=5, r={r}")
    if t >= 6:
        p = (t - 2) // 2
        return _exact("co3-1", t + p - 1, f"k=4, t={t} >= 6, r={r}")
    return None


def _rule_th3_4_5(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    """Theorem 3.4 (odd t, rule th3-4) and Theorem 3.5 (even t, th3-5) state
    one formula: with s = t - (t mod 2), the value is (3t-4)//2 when
    3 <= r <= s//4 and t + 2r - 2 when ceil(s/4) <= r <= (t-2)//2.  For odd
    t these read (3t-5)/2, r <= (t-1)//4, ceil((t-1)/4) and (t-3)/2, as
    Theorem 3.4 states them."""
    t, r = H.t, H.r
    if k != 4 or r < 3:
        return None
    rule, parity = ("th3-4", "odd") if t % 2 else ("th3-5", "even")
    s = t - t % 2
    values = []
    if r <= s // 4:
        values.append((3 * t - 4) // 2)
    if -(-s // 4) <= r <= (t - 2) // 2:
        values.append(t + 2 * r - 2)
    if not values:
        return None
    if len(set(values)) != 1:
        raise FormulaInconsistency(f"{rule} branch overlap disagrees at t={t}, r={r}")
    return _exact(rule, values[0], f"k=4, {parity} t={t}, r={r}")


def _piecewise_small_star(
    rule: str, t: int, by_k: dict[int, tuple[int, tuple[str, ...]]],
    H: TargetGraph, k: int, c: float | None,
) -> GrResult | None:
    """A rule for H = S_t^1 alone: ``by_k`` maps k to (value, deps) and
    every k >= 7 gets the least order carrying k colors."""
    if (H.t, H.r) != (t, 1):
        return None
    if k in by_k:
        value, deps = by_k[k]
        return _exact(rule, value, f"H = S{t}^1, k={k}", deps=deps)
    if k >= 7:
        return _exact(rule, min_order_with_pair_count(k), f"H = S{t}^1, k={k} >= 7")
    return None


def _rule_th3_9(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    t, r = H.t, H.r
    if t < 6 or r not in (1, 2):
        return None
    if k == 3:
        entry = ramsey_known(H, 3, c=c)
        if entry is None:
            return _bounds("th3-9", 5 * t - 4, None, "k=3, three-color value open", deps=("le3-4",))
        return _bounds(
            "th3-9", entry.lo, entry.hi, "k=3 via the three-color value", deps=("le3-4", entry.citation)
        )
    if 4 <= k <= t - 1:
        p = (t - 2) // (k - 2)
        return _exact("th3-9", max(t + p - 1, t + 1), f"4 <= k={k} <= t-1={t - 1}")
    if k == t:
        return _exact("th3-9", t + 1, f"k = t = {t}")
    return _exact("th3-9", min_order_with_pair_count(k), f"k={k} >= t+1={t + 1}")


def _rule_th4_1(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    w = H.omega
    if k == w and w >= 4:
        return _exact("th4-1", (w - 1) * (H.t - 1) + 1, f"k = omega = {w} >= 4")
    return None


def _rule_th4_2(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    if k == 4 and H.omega == 5 and H.t >= 8:
        return _exact("th4-2", 4 * H.t - 3, f"k=4, omega=5, t={H.t} >= 8")
    return None


def _rule_th4_5(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    w = H.omega
    if k == 4 and w >= 6:
        lo = (w - 1) * (H.t - 1) + 1
        entry = ramsey_known(H, 2, c=c)
        if entry is None or entry.hi is None:
            return _bounds("th4-5", lo, None, f"k=4, omega={w} >= 6")
        return _bounds(
            "th4-5", lo, 3 * entry.hi - 2, f"k=4, omega={w} >= 6", deps=(entry.citation,)
        )
    return None


def _rule_cor4_4(H: TargetGraph, k: int, c: float | None) -> GrResult | None:
    w = H.omega
    if 5 <= k <= w - 1 and w >= 6:
        lo = (w - 1) * (H.t - 1) + 1
        entry = ramsey_known(H, 2, c=c)
        if entry is None or entry.hi is None:
            return _bounds("cor4-4", lo, None, f"5 <= k={k} <= omega-1={w - 1}")
        return _bounds(
            "cor4-4",
            lo,
            entry.hi,
            f"5 <= k={k} <= omega-1={w - 1}",
            deps=(entry.citation,),
        )
    return None


_RULES = (
    (None, _rule_th2_1),
    (None, _rule_th2_2_1),
    (None, _rule_th2_2),
    (None, _rule_th2_4),
    (None, _rule_coro2_4),
    (FAMILY_COMPLETE_MINUS_MATCHING, _rule_th2_5),
    (None, _rule_th2_6),
    (None, _rule_lem2_1),
    (FAMILY_STAR_PLUS, _rule_th3_1),
    (FAMILY_STAR_PLUS, _rule_th3_2),
    (FAMILY_STAR_PLUS, partial(_point_rule, "le3-1", parse_hspec("S4^1"), 6)),
    (FAMILY_STAR_PLUS, partial(_point_rule, "le3-2", parse_hspec("S5^1"), 6)),
    (FAMILY_STAR_PLUS, _rule_co3_1),
    (FAMILY_STAR_PLUS, _rule_th3_4_5),
    (FAMILY_STAR_PLUS, partial(_piecewise_small_star, "th3-6", 4,
                               {3: (17, ("le3-3",)), 4: (6, ("le3-1",)), 5: (5, ()), 6: (5, ())})),
    (FAMILY_STAR_PLUS, partial(_piecewise_small_star, "th3-7", 5,
                               {3: (21, ("le3-3",)), 4: (6, ("le3-2",)), 5: (6, ()), 6: (5, ())})),
    (FAMILY_STAR_PLUS, partial(_piecewise_small_star, "th3-8", 6,
                               {3: (26, ("le3-3",)), 4: (7, ()), 5: (7, ()), 6: (7, ())})),
    (FAMILY_STAR_PLUS, _rule_th3_9),
    (FAMILY_PINEAPPLE, _rule_th4_1),
    (FAMILY_PINEAPPLE, _rule_th4_2),
    (FAMILY_PINEAPPLE, partial(_point_rule, "th4-3", parse_hspec("PA6,5"), 24)),
    (FAMILY_PINEAPPLE, partial(_point_rule, "th4-4", parse_hspec("PA7,5"), 26)),
    (FAMILY_PINEAPPLE, _rule_th4_5),
    (FAMILY_PINEAPPLE, _rule_cor4_4),
)


def _merge(
    chosen: Sequence[GrResult], kind: str, lo: int, hi: int | None
) -> GrResult:
    """One result citing every rule in ``chosen``: their identifiers in table
    order, then the dependencies they cite, each once, and their
    assumptions in table order."""
    rules = [res.provenance[0] for res in chosen]
    deps = [dep for res in chosen for dep in res.provenance[1:]]
    assumptions = tuple([text for res in chosen for text in res.assumptions])
    return GrResult(kind, lo, hi, tuple(dict.fromkeys(rules + deps)), assumptions)


def evaluate(H: TargetGraph, k: int, c: float | None = None) -> GrResult:
    """Combine every applicable rule for (H, k) into one result."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if c is not None and not math.isfinite(c):
        raise ConstantOutOfRange(f"c must be finite, got c={c}")
    rules = [rule for family, rule in _RULES if family is None or family == H.family]
    results = [res for rule in rules if (res := rule(H, k, c)) is not None]
    exacts = [res for res in results if res.kind == KIND_EXACT]
    bounds = [res for res in results if res.kind == KIND_BOUNDS]

    if exacts:
        values = {res.value for res in exacts}
        if len(values) != 1:
            detail = ", ".join(f"{res.provenance[0]}={res.value}" for res in exacts)
            raise FormulaInconsistency(
                f"exact rules disagree for H={render_hspec(H)}, k={k}: {detail}"
            )
        value = exacts[0].value
        assert value is not None
        for res in bounds:
            if (res.lo is not None and value < res.lo) or (
                res.hi is not None and value > res.hi
            ):
                raise FormulaInconsistency(
                    f"exact value {value} violates {res.provenance[0]} bounds "
                    f"[{res.lo}, {res.hi}] for H={render_hspec(H)}, k={k}"
                )
        return _merge(exacts, KIND_EXACT, value, value)

    if bounds:
        lo = max(res.lo for res in bounds if res.lo is not None)
        his = [res.hi for res in bounds if res.hi is not None]
        hi = min(his) if his else None
        if hi is not None and lo > hi:
            if any(res.hi == hi and "th4-7" in res.provenance for res in bounds):
                raise ConstantOutOfRange(f"c={c} puts the th4-7 upper bound {hi} below {lo}")
            raise FormulaInconsistency(
                f"bound rules cross for H={render_hspec(H)}, k={k}: lo={lo} > hi={hi}"
            )
        return _merge(bounds, KIND_BOUNDS, lo, hi)

    return GrResult.unknown()
