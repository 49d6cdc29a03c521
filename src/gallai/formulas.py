"""Closed-form values and bounds for gr_k(P5 : H), rule by rule.

Each rule carries the identifier used in provenance output (th2-1, le3-1,
co3-1, ...), a literal hypothesis check, and a value or bound formula.
``evaluate`` collects every applicable rule: exact values must agree with
each other and fit inside every applicable bound (a contradiction raises
FormulaInconsistency, since it can only come from a transcription bug), and
bounds are intersected otherwise.  A contradiction caused by the caller's
constant c of the pineapple bound th4-7 raises ConstantOutOfRange instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from gallai.graphs import (
    FAMILY_COMPLETE_MINUS_MATCHING,
    FAMILY_PINEAPPLE,
    FAMILY_STAR_PLUS,
    TargetGraph,
    TargetProperties,
    UnsupportedSizeError,
    render_hspec,
    target_properties,
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
    """Exact value or [lo, hi] bounds, with the producing rule identifiers."""

    kind: str
    value: int | None
    lo: int | None
    hi: int | None
    provenance: tuple[str, ...]
    assumptions: tuple[str, ...]

    @classmethod
    def exact(
        cls, value: int, provenance: Sequence[str], assumptions: Sequence[str]
    ) -> GrResult:
        return cls(KIND_EXACT, value, value, value, tuple(provenance), tuple(assumptions))

    @classmethod
    def bounds(
        cls,
        lo: int,
        hi: int | None,
        provenance: Sequence[str],
        assumptions: Sequence[str],
    ) -> GrResult:
        return cls(KIND_BOUNDS, None, lo, hi, tuple(provenance), tuple(assumptions))

    @classmethod
    def unknown(cls) -> GrResult:
        return cls(KIND_UNKNOWN, None, None, None, (), ())

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


def pq_decompose(x: int, m: int) -> tuple[int, int]:
    """x = p*m + q with 0 <= q < m."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    return divmod(x, m)


def min_order_with_pair_count(k: int) -> int:
    """Least v with C(v, 2) >= k: the smallest complete graph carrying k
    distinct edge colors."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    v = max(2, (1 + math.isqrt(1 + 8 * k)) // 2)
    while v * (v - 1) // 2 >= k:
        v -= 1
    while v * (v - 1) // 2 < k:
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


def _builtin_ramsey_table() -> tuple[RamseyEntry, ...]:
    text = resources.files("gallai").joinpath("data/known_ramsey.txt").read_text()
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(_parse_ramsey_line(line))
    return tuple(entries)


_BUILTIN_TABLE: tuple[RamseyEntry, ...] | None = None


def builtin_ramsey_table() -> tuple[RamseyEntry, ...]:
    global _BUILTIN_TABLE
    if _BUILTIN_TABLE is None:
        _BUILTIN_TABLE = _builtin_ramsey_table()
    return _BUILTIN_TABLE


def ramsey_known(
    patterns: TargetGraph | Sequence[TargetGraph],
    colors: int,
    c: float | None = None,
    table: Sequence[RamseyEntry] | None = None,
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
    rows: list[RamseyEntry] = list(table) if table is not None else []
    rows.extend(builtin_ramsey_table())
    for row in rows:
        if sorted(row.patterns) == names and row.colors == colors:
            return row
    if len(targets) == 1:
        H = targets[0]
        if H.family == FAMILY_STAR_PLUS and colors == 3:
            assert H.r is not None
            two = ramsey_known(H, 2, c=c, table=table)
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


@dataclass(frozen=True)
class _Contribution:
    rule: str
    kind: str  # "exact" | "bounds"
    value: int | None
    lo: int | None
    hi: int | None
    deps: tuple[str, ...]
    assumption: str


def _exact(rule: str, value: int, assumption: str, deps: Iterable[str] = ()) -> _Contribution:
    return _Contribution(rule, "exact", value, value, value, tuple(deps), assumption)


def _bounds(
    rule: str, lo: int, hi: int | None, assumption: str, deps: Iterable[str] = ()
) -> _Contribution:
    return _Contribution(rule, "bounds", None, lo, hi, tuple(deps), assumption)


@dataclass(frozen=True)
class _Query:
    H: TargetGraph
    k: int
    props: TargetProperties
    c: float | None
    table: tuple[RamseyEntry, ...] | None


def _rule_th2_1(q: _Query) -> _Contribution | None:
    t = q.H.t
    if q.k >= 7 and q.k >= t + 1:
        return _exact(
            "th2-1", min_order_with_pair_count(q.k), f"k={q.k} >= 7 and k >= t+1={t + 1}"
        )
    return None


def _rule_th2_2_1(q: _Query) -> _Contribution | None:
    t = q.H.t
    if q.k in (5, 6) and q.k >= t + 1 and t >= 3:
        return _exact("th2-2-1", 5, f"k={q.k} in {{5,6}} and k >= t+1={t + 1}")
    return None


def _rule_th2_2(q: _Query) -> _Contribution | None:
    t = q.H.t
    if q.k == t and q.k >= 5 and not q.props.is_complete:
        return _exact("th2-2", t + 1, f"k = t = {t} >= 5 and H not complete")
    return None


def _rule_th2_4(q: _Query) -> _Contribution | None:
    t = q.H.t
    if q.k == t and t >= 5 and q.props.is_complete:
        return _exact("th2-4", (t - 1) ** 2 + 1, f"k = t = {t} >= 5 and H complete")
    return None


def _rule_coro2_4(q: _Query) -> _Contribution | None:
    t = q.H.t
    if not (q.k >= 5 and q.k >= t and t >= 3):
        return None
    if q.k >= t + 1:
        value = max(min_order_with_pair_count(q.k), 5)
        return _exact("coro2-4", value, f"k={q.k} >= max(5, t+1)")
    if q.props.is_complete:
        return _exact("coro2-4", (t - 1) ** 2 + 1, f"k = t = {t} and H complete")
    return _exact("coro2-4", t + 1, f"k = t = {t} and H not complete")


def _rule_th2_5(q: _Query) -> _Contribution | None:
    t = q.H.t
    if q.H.family != FAMILY_COMPLETE_MINUS_MATCHING:
        return None
    if q.k >= 5 and (t + 3) // 2 <= q.k <= t - 1:
        value = max(min_order_with_pair_count(q.k), t + 1)
        return _exact("th2-5", value, f"ceil((t+2)/2) <= k={q.k} <= t-1={t - 1}")
    return None


def _rule_th2_6(q: _Query) -> _Contribution | None:
    t = q.H.t
    if not (q.k >= 5 and q.k <= t - 1):
        return None
    entry = ramsey_known(q.H, 2, c=q.c, table=q.table)
    if entry is None or not entry.is_exact or entry.lo < t + 1:
        return None
    p, _ = pq_decompose(q.props.max_degree - 1, q.k - 2)
    lo = max(q.props.max_degree + p, t + 1)
    return _bounds(
        "th2-6",
        lo,
        entry.lo,
        f"5 <= k={q.k} <= t-1 and two-color value known",
        deps=(entry.citation,),
    )


def _rule_lem2_1(q: _Query) -> _Contribution | None:
    a = q.props.clique_number
    if 4 <= q.k <= a and a >= 3:
        lo = (a - 1) * (q.H.t - 1) + 1
        return _bounds("lem2-1", lo, None, f"4 <= k={q.k} <= a={a}")
    return None


def _rule_th3_1(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS:
        return None
    t, r = q.H.t, q.H.r
    assert r is not None
    if 5 <= q.k <= t - 1 and 1 <= r <= q.k - 2:
        p, _ = pq_decompose(t - 2, q.k - 2)
        return _exact(
            "th3-1", max(t + p - 1, t + 1), f"5 <= k={q.k} <= t-1 and 1 <= r <= k-2"
        )
    return None


def _rule_th3_2(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS:
        return None
    t, r = q.H.t, q.H.r
    assert r is not None
    if q.k == 4 and t >= 6 and r in (1, 2):
        p, _ = pq_decompose(t - 2, 2)
        return _exact("th3-2", t + p - 1, f"k=4, t={t} >= 6, r={r} in {{1,2}}")
    return None


def _rule_le3_1(q: _Query) -> _Contribution | None:
    if q.H.family == FAMILY_STAR_PLUS and (q.H.t, q.H.r) == (4, 1) and q.k == 4:
        return _exact("le3-1", 6, "H = S4^1 and k = 4")
    return None


def _rule_le3_2(q: _Query) -> _Contribution | None:
    if q.H.family == FAMILY_STAR_PLUS and (q.H.t, q.H.r) == (5, 1) and q.k == 4:
        return _exact("le3-2", 6, "H = S5^1 and k = 4")
    return None


def _rule_co3_1(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS or q.k != 4:
        return None
    t, r = q.H.t, q.H.r
    assert r is not None
    if r not in (1, 2):
        return None
    if t == 4 and r == 1:
        return _exact("co3-1", 6, "k=4, t=4, r=1")
    if t == 5:
        return _exact("co3-1", 6, f"k=4, t=5, r={r}")
    if t >= 6:
        p, _ = pq_decompose(t - 2, 2)
        return _exact("co3-1", t + p - 1, f"k=4, t={t} >= 6, r={r}")
    return None


def _rule_th3_4(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS or q.k != 4:
        return None
    t, r = q.H.t, q.H.r
    assert r is not None
    if t % 2 == 0 or r < 3:
        return None
    values = []
    if 3 <= r <= (t - 1) // 4:
        values.append((3 * t - 5) // 2)
    if -(-(t - 1) // 4) <= r <= (t - 3) // 2:
        values.append(t + 2 * r - 2)
    if not values:
        return None
    if len(set(values)) != 1:
        raise FormulaInconsistency(f"th3-4 branch overlap disagrees at t={t}, r={r}")
    return _exact("th3-4", values[0], f"k=4, odd t={t}, r={r}")


def _rule_th3_5(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS or q.k != 4:
        return None
    t, r = q.H.t, q.H.r
    assert r is not None
    if t % 2 == 1 or r < 3:
        return None
    values = []
    if 3 <= r <= t // 4:
        values.append((3 * t - 4) // 2)
    if -(-t // 4) <= r <= (t - 2) // 2:
        values.append(t + 2 * r - 2)
    if not values:
        return None
    if len(set(values)) != 1:
        raise FormulaInconsistency(f"th3-5 branch overlap disagrees at t={t}, r={r}")
    return _exact("th3-5", values[0], f"k=4, even t={t}, r={r}")


def _piecewise_small_star(rule: str, q: _Query, t: int, by_k: dict[int, tuple[int, tuple[str, ...]]]) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS or (q.H.t, q.H.r) != (t, 1):
        return None
    if q.k in by_k:
        value, deps = by_k[q.k]
        return _exact(rule, value, f"H = S{t}^1, k={q.k}", deps=deps)
    if q.k >= 7:
        return _exact(rule, min_order_with_pair_count(q.k), f"H = S{t}^1, k={q.k} >= 7")
    return None


def _rule_th3_6(q: _Query) -> _Contribution | None:
    return _piecewise_small_star(
        "th3-6",
        q,
        4,
        {3: (17, ("le3-3",)), 4: (6, ("le3-1",)), 5: (5, ()), 6: (5, ())},
    )


def _rule_th3_7(q: _Query) -> _Contribution | None:
    return _piecewise_small_star(
        "th3-7",
        q,
        5,
        {3: (21, ("le3-3",)), 4: (6, ("le3-2",)), 5: (6, ()), 6: (5, ())},
    )


def _rule_th3_8(q: _Query) -> _Contribution | None:
    return _piecewise_small_star(
        "th3-8",
        q,
        6,
        {3: (26, ("le3-3",)), 4: (7, ()), 5: (7, ()), 6: (7, ())},
    )


def _rule_th3_9(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_STAR_PLUS:
        return None
    t, r = q.H.t, q.H.r
    assert r is not None
    if t < 6 or r not in (1, 2):
        return None
    if q.k == 3:
        entry = ramsey_known(q.H, 3, c=q.c, table=q.table)
        if entry is None:
            return _bounds("th3-9", 5 * t - 4, None, "k=3, three-color value open", deps=("le3-4",))
        return _bounds(
            "th3-9", entry.lo, entry.hi, "k=3 via the three-color value", deps=("le3-4", entry.citation)
        )
    if 4 <= q.k <= t - 1:
        p, _ = pq_decompose(t - 2, q.k - 2)
        return _exact("th3-9", max(t + p - 1, t + 1), f"4 <= k={q.k} <= t-1={t - 1}")
    if q.k == t:
        return _exact("th3-9", t + 1, f"k = t = {t}")
    return _exact("th3-9", min_order_with_pair_count(q.k), f"k={q.k} >= t+1={t + 1}")


def _rule_th4_1(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_PINEAPPLE:
        return None
    w = q.H.omega
    assert w is not None
    if q.k == w and w >= 4:
        return _exact("th4-1", (w - 1) * (q.H.t - 1) + 1, f"k = omega = {w} >= 4")
    return None


def _rule_th4_2(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_PINEAPPLE:
        return None
    if q.k == 4 and q.H.omega == 5 and q.H.t >= 8:
        return _exact("th4-2", 4 * q.H.t - 3, f"k=4, omega=5, t={q.H.t} >= 8")
    return None


def _rule_th4_3(q: _Query) -> _Contribution | None:
    if q.H.family == FAMILY_PINEAPPLE and (q.H.t, q.H.omega) == (6, 5) and q.k == 4:
        return _exact("th4-3", 24, "H = PA6,5 and k = 4")
    return None


def _rule_th4_4(q: _Query) -> _Contribution | None:
    if q.H.family == FAMILY_PINEAPPLE and (q.H.t, q.H.omega) == (7, 5) and q.k == 4:
        return _exact("th4-4", 26, "H = PA7,5 and k = 4")
    return None


def _rule_th4_5(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_PINEAPPLE:
        return None
    w = q.H.omega
    assert w is not None
    if q.k == 4 and w >= 6:
        lo = (w - 1) * (q.H.t - 1) + 1
        entry = ramsey_known(q.H, 2, c=q.c, table=q.table)
        if entry is None or entry.hi is None:
            return _bounds("th4-5", lo, None, f"k=4, omega={w} >= 6")
        return _bounds(
            "th4-5", lo, 3 * entry.hi - 2, f"k=4, omega={w} >= 6", deps=(entry.citation,)
        )
    return None


def _rule_cor4_4(q: _Query) -> _Contribution | None:
    if q.H.family != FAMILY_PINEAPPLE:
        return None
    w = q.H.omega
    assert w is not None
    if 5 <= q.k <= w - 1 and w >= 6:
        lo = (w - 1) * (q.H.t - 1) + 1
        entry = ramsey_known(q.H, 2, c=q.c, table=q.table)
        if entry is None or entry.hi is None:
            return _bounds("cor4-4", lo, None, f"5 <= k={q.k} <= omega-1={w - 1}")
        return _bounds(
            "cor4-4",
            lo,
            entry.hi,
            f"5 <= k={q.k} <= omega-1={w - 1}",
            deps=(entry.citation,),
        )
    return None


_RULES = (
    _rule_th2_1,
    _rule_th2_2_1,
    _rule_th2_2,
    _rule_th2_4,
    _rule_coro2_4,
    _rule_th2_5,
    _rule_th2_6,
    _rule_lem2_1,
    _rule_th3_1,
    _rule_th3_2,
    _rule_le3_1,
    _rule_le3_2,
    _rule_co3_1,
    _rule_th3_4,
    _rule_th3_5,
    _rule_th3_6,
    _rule_th3_7,
    _rule_th3_8,
    _rule_th3_9,
    _rule_th4_1,
    _rule_th4_2,
    _rule_th4_3,
    _rule_th4_4,
    _rule_th4_5,
    _rule_cor4_4,
)


def _provenance(chosen: Sequence[_Contribution]) -> tuple[str, ...]:
    prov: list[str] = []
    for co in chosen:
        if co.rule not in prov:
            prov.append(co.rule)
    for co in chosen:
        for dep in co.deps:
            if dep not in prov:
                prov.append(dep)
    return tuple(prov)


def evaluate(
    H: TargetGraph,
    k: int,
    c: float | None = None,
    table: Sequence[RamseyEntry] | None = None,
) -> GrResult:
    """Combine every applicable rule for (H, k) into one result."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if c is not None and not math.isfinite(c):
        raise ConstantOutOfRange(f"c must be finite, got c={c}")
    q = _Query(
        H=H,
        k=k,
        props=target_properties(H),
        c=c,
        table=tuple(table) if table is not None else None,
    )
    contributions = [co for rule in _RULES if (co := rule(q)) is not None]
    exacts = [co for co in contributions if co.kind == "exact"]
    bounds = [co for co in contributions if co.kind == "bounds"]

    if exacts:
        values = {co.value for co in exacts}
        if len(values) != 1:
            detail = ", ".join(f"{co.rule}={co.value}" for co in exacts)
            raise FormulaInconsistency(
                f"exact rules disagree for H={render_hspec(H)}, k={k}: {detail}"
            )
        value = exacts[0].value
        assert value is not None
        for co in bounds:
            if (co.lo is not None and value < co.lo) or (
                co.hi is not None and value > co.hi
            ):
                raise FormulaInconsistency(
                    f"exact value {value} violates {co.rule} bounds "
                    f"[{co.lo}, {co.hi}] for H={render_hspec(H)}, k={k}"
                )
        return GrResult.exact(
            value, _provenance(exacts), tuple(co.assumption for co in exacts)
        )

    if bounds:
        lo = max(co.lo for co in bounds if co.lo is not None)
        his = [co.hi for co in bounds if co.hi is not None]
        hi = min(his) if his else None
        if hi is not None and lo > hi:
            if any(co.hi == hi and "th4-7" in co.deps for co in bounds):
                raise ConstantOutOfRange(f"c={c} puts the th4-7 upper bound {hi} below {lo}")
            raise FormulaInconsistency(
                f"bound rules cross for H={render_hspec(H)}, k={k}: lo={lo} > hi={hi}"
            )
        return GrResult.bounds(
            lo, hi, _provenance(bounds), tuple(co.assumption for co in bounds)
        )

    return GrResult.unknown()
