"""Witness builders: shapes, orders, exactness, and certified freeness."""

from __future__ import annotations

import itertools
import json
import random
from functools import partial
from importlib import resources

import pytest

from gallai import constructions
from gallai.constructions import (
    BUILDERS,
    MAX_TABLED_ORDER,
    blowup,
    build_named,
    construction_grid,
    doubling,
    pentagon_blowup,
    r35_witness,
    sporadic,
)
from gallai.detectors import find_mono_copy_in_color, find_rainbow_path
from gallai.graphs import (
    MAX_COLORING_ORDER,
    ColoredComplete,
    TargetGraph,
    UnsupportedSizeError,
    pairs,
    parse_hspec,
    render_hspec,
)
from gallai.search import WitnessFailure, lower_bound_witness, verify_witness
from golden import assert_rows


def _reference_blowup(k, parts, inter):
    """The blow-up edge by edge: vertex v of part i and vertex w of part j
    get part i's own color when i == j and the inter color otherwise."""
    where = [(i, v) for i, part in enumerate(parts) for v in range(part.n)]
    table = {}
    for i, j, col in inter:
        table[i, j] = table[j, i] = col
    triples = []
    for a, b in itertools.combinations(range(len(where)), 2):
        (i, v), (j, w) = where[a], where[b]
        col = parts[i].color_of(v, w) if i == j else table[i, j]
        triples.append((a, b, col))
    return ColoredComplete.from_edge_triples(len(where), k, triples)


class TestBlowup:
    def test_mono_parts_and_inter(self):
        parts = [ColoredComplete.constant(2, 3, 2), ColoredComplete.constant(3, 3, 3)]
        c = blowup(3, parts, 1)
        assert c.n == 5
        assert c.color_of(0, 1) == 2
        assert c.color_of(2, 3) == 3
        assert c.color_of(0, 2) == 1

    def test_inner_coloring_part(self):
        inner = ColoredComplete.from_edge_triples(3, 2, ((0, 1, 1), (0, 2, 2), (1, 2, 1)))
        c = blowup(3, [inner, ColoredComplete.constant(2, 3, 3)], 2)
        assert c.color_of(0, 2) == 2
        assert c.color_of(3, 4) == 3
        assert c.color_of(0, 3) == 2

    def test_matches_edge_by_edge_reference(self):
        """Random part colorings (single vertices included) and random
        reduced colorings, with triples given in either vertex order,
        expand exactly as the edge-by-edge reference does."""
        rng = random.Random(5)
        for _ in range(200):
            k = rng.randint(1, 5)
            parts = []
            for _ in range(rng.randint(1, 5)):
                m = rng.randint(1, 5)
                parts.append(ColoredComplete(m, k, [rng.randint(1, k) for _ in pairs(m)]))
            inter = []
            for i, j in pairs(len(parts)):
                if rng.random() < 0.5:
                    i, j = j, i
                inter.append((i, j, rng.randint(1, k)))
            want = _reference_blowup(k, parts, inter)
            reduced = ColoredComplete.from_edge_triples(len(parts), k, inter)
            if want.exact:
                assert blowup(k, parts, reduced) == want
            else:
                with pytest.raises(ValueError, match="not exact"):
                    blowup(k, parts, reduced)

    def test_rejects_nonexact(self):
        parts = [ColoredComplete.constant(2, 4, 2), ColoredComplete.constant(2, 4, 3)]
        with pytest.raises(ValueError, match=r"not exact: colors \[4\] unused"):
            blowup(4, parts, 1)

    @pytest.mark.parametrize(
        "parts, inter",
        [
            ([ColoredComplete.constant(2, 5, 5), ColoredComplete.constant(2, 5, 2)], 1),
            ([ColoredComplete.constant(2, 4, 2)] * 2, 0),
            ([ColoredComplete.constant(2, 4, 2)] * 2, ColoredComplete(2, 7, (7,))),
        ],
    )
    def test_rejects_color_outside_palette(self, parts, inter):
        with pytest.raises(ValueError, match=r"edge color \d+ outside 1..4"):
            blowup(4, parts, inter)

    def test_rejects_reduced_coloring_of_other_order(self):
        parts = [ColoredComplete.constant(2, 2, 2)] * 3
        with pytest.raises(ValueError, match=r"reduced coloring has order 2, not one vertex"):
            blowup(2, parts, ColoredComplete.constant(2, 2, 1))

    def test_rejects_empty_part_list(self):
        with pytest.raises(ValueError, match="at least one part"):
            blowup(2, [], 1)

    def test_order_cap_counts_every_part(self):
        half = ColoredComplete.constant(MAX_COLORING_ORDER // 2, 2, 1)
        with pytest.raises(UnsupportedSizeError):
            blowup(2, [half, half, ColoredComplete.constant(1, 2)], 2)


class TestHelpers:
    def test_g5_order_cap_before_building(self, monkeypatch):
        """G5 checks its order in closed form, so an order past the cap is
        refused before any coloring is allocated."""

        def build(*args, **kwargs):
            raise AssertionError("built past the order cap")

        monkeypatch.setattr(ColoredComplete, "constant", build)
        with pytest.raises(UnsupportedSizeError):
            build_named("G5", {"t": MAX_COLORING_ORDER + 1, "k": 4})

    def test_pentagon_blowup_small(self):
        # single-vertex parts would leave color 1 unused
        with pytest.raises(ValueError, match="need t >= 3"):
            pentagon_blowup(2)

    def test_pentagon_blowup_orders(self):
        for t in (3, 4, 5):
            c = pentagon_blowup(t)
            assert c.n == 5 * (t - 1)
            assert c.exact

    def test_doubling(self):
        base = ColoredComplete.from_edge_triples(3, 2, ((0, 1, 1), (0, 2, 2), (1, 2, 1)))
        c = doubling(base)
        assert c.n == 6 and c.k == 3
        assert c.color_of(0, 1) == c.color_of(3, 4) == 1
        assert c.color_of(0, 4) == 3

    def test_doubling_rejects_extra_colors(self):
        base = ColoredComplete.from_edge_triples(3, 3, ((0, 1, 1), (0, 2, 2), (1, 2, 3)))
        with pytest.raises(ValueError):
            doubling(base)

    def test_sporadic_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sporadic construction 'F99'"):
            sporadic("F99")

    def test_case_f_alias(self):
        assert sporadic("TW-case-f") == sporadic("F3")


class TestR35Witness:
    def test_is_valid(self):
        """13 vertices, color 1 triangle-free, color 2 without K5."""
        c = r35_witness()
        assert (c.n, c.k) == (13, 2)
        assert find_mono_copy_in_color(c, TargetGraph.complete(3), 1) is None
        assert find_mono_copy_in_color(c, TargetGraph.complete(5), 2) is None

    def test_doubled_witness_keeps_no_rainbow_but_gains_star(self):
        """Doubling the 13-vertex witness gives a 3-colored K26; at that
        order a monochromatic S6^1 is unavoidable and must be found."""
        from gallai.detectors import find_mono_copy

        c = doubling(r35_witness())
        assert c.n == 26
        assert find_rainbow_path(c, 4) is None
        assert find_mono_copy(c, TargetGraph.star_plus(6, 1)) is not None


class TestRegistry:
    def test_builders_cover_registry_names(self):
        expected = {
            "G1", "G2", "G3", "G4", "G5", "G6",
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10",
            "F11", "F12", "F13", "TW-case-f",
        }
        assert set(BUILDERS) == expected

    def test_build_named_checks_params(self):
        with pytest.raises(ValueError, match="needs parameters"):
            build_named("G3", {})
        with pytest.raises(ValueError, match="does not take"):
            build_named("F3", {"t": 5})
        with pytest.raises(ValueError, match="unknown construction 'nope'"):
            build_named("nope", {})

    def test_grid_all_verify(self):
        """Every shipped grid row builds at the stated order and passes the
        full witness check against its target."""
        rows = construction_grid()
        assert len(rows) >= 40
        for row in rows:
            c = build_named(row["name"], row["params"])
            assert c.n == row["order"], row
            cert = verify_witness(c, parse_hspec(row["target"]), label=row["name"])
            assert cert.rainbow_absent

    def test_g6_order_formula(self):
        """order = max_degree + p - 1 with max_degree - 1 = p(k-2) + q;
        defined once every part has at least two vertices (p >= 2)."""
        for k in (4, 5, 6, 7):
            for delta in range(2 * k - 3, 13):
                c = build_named("G6", {"max_degree": delta, "k": k})
                p = (delta - 1) // (k - 2)
                assert c.n == delta + p - 1

    def test_g6_degenerate_split_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_named("G6", {"max_degree": 3, "k": 4})

    def test_f1_order_formula(self):
        for t in range(6, 11):
            c = build_named("F1", {"t": t})
            assert c.n == t + (t - 2) // 2 - 2

    def test_f4_f5_f6_orders(self):
        assert build_named("F4", {"t": 13}).n == (3 * 13 - 7) // 2
        assert build_named("F5", {"t": 13, "r": 3}).n == 13 + 2 * 3 - 3
        assert build_named("F6", {"t": 12}).n == (3 * 12 - 6) // 2

    def test_f12_f13_orders(self):
        assert build_named("F12", {}).n == 23
        assert build_named("F13", {}).n == 25

    def test_every_build_is_exact_or_rejected(self):
        """Over small parameter ranges every registered builder either
        rejects its parameters or returns an exact coloring."""
        ranges = {
            "t": range(1, 9),
            "k": range(1, 9),
            "a": range(1, 7),
            "r": range(0, 5),
            "max_degree": range(1, 9),
        }
        built = 0
        for name, (_, needed) in BUILDERS.items():
            for values in itertools.product(*(ranges[p] for p in needed)):
                params = dict(zip(needed, values))
                try:
                    c = build_named(name, params)
                except ValueError:
                    continue
                assert c.exact, (name, params)
                built += 1
        assert built > len(BUILDERS)

    @pytest.mark.parametrize(
        "name,t,message",
        [
            ("F4", 8, "need odd t >= 7"),
            ("F4", 10, "need odd t >= 7"),
            ("F6", 7, "need even t >= 6"),
            ("F6", 9, "need even t >= 6"),
            ("F1", 5, "need t >= 6"),
            ("G3", 2, "need t >= 3"),
        ],
    )
    def test_domain_guards(self, name, t, message):
        """F1, F4 and F6 build the same G6 coloring and G3 the same G5
        coloring; only these domain checks tell the names apart."""
        with pytest.raises(ValueError, match=message):
            build_named(name, {"t": t})


class TestBuildTable:
    """``build_named`` builds each (builder, parameters) once per process."""

    @pytest.fixture(autouse=True)
    def empty_table(self):
        constructions._built.cache_clear()
        yield
        constructions._built.cache_clear()

    def test_equal_params_share_one_object(self):
        c = build_named("G4", {"a": 4, "t": 4, "k": 3})
        assert build_named("G4", {"k": 3, "t": 4, "a": 4}) is c
        assert build_named("G4", {"t": 4, "a": 4, "k": 3}) is c
        assert build_named("F12", {}) is build_named("F12", {})
        info = constructions._built.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (3, 2, 128)

    def test_other_value_misses(self):
        c = build_named("G5", {"t": 5, "k": 3})
        d = build_named("G5", {"t": 5, "k": 4})
        assert d is not c and d != c and d.k == 4
        assert constructions._built.cache_info().misses == 2

    def test_value_of_other_type_misses(self):
        """6.0 == 6 in Python, but F1 at t = 6.0 fails as it does in a
        process that never built F1 at t = 6."""
        assert build_named("F1", {"t": 6}).n == 6
        with pytest.raises(TypeError):
            build_named("F1", {"t": 6.0})

    def test_swapped_builder_is_never_stale(self, monkeypatch):
        assert build_named("F3", {}) == sporadic("F3")
        monkeypatch.setitem(BUILDERS, "F3", (partial(sporadic, "F9"), ()))
        assert build_named("F3", {}) == sporadic("F9")
        monkeypatch.undo()
        assert build_named("F3", {}) == sporadic("F3")

    def test_order_at_the_bound_is_stored(self):
        c = build_named("G5", {"t": MAX_TABLED_ORDER, "k": 4})
        assert c.n == MAX_TABLED_ORDER == 128
        assert build_named("G5", {"t": MAX_TABLED_ORDER, "k": 4}) is c
        info = constructions._built.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_order_past_the_bound_is_built_on_every_call(self):
        c = build_named("G5", {"t": MAX_TABLED_ORDER + 1, "k": 4})
        d = build_named("G5", {"t": MAX_TABLED_ORDER + 1, "k": 4})
        assert c.n == MAX_TABLED_ORDER + 1
        assert d == c and d is not c
        info = constructions._built.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_grid_and_dispatcher_colorings_are_shared(self):
        """Every grid row and the dispatcher's largest answer of the ten
        CI queries (S40^10 at k = 4, order 57) lie under the bound."""
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            assert build_named(row["name"], row["params"]) is c
        H = parse_hspec("S40^10")
        cert = lower_bound_witness(H, 4)
        assert cert.order == 57
        assert lower_bound_witness(H, 4).coloring is cert.coloring

    def test_builder_error_raised_on_every_call(self, monkeypatch):
        calls = []

        def failing(t):
            calls.append(t)
            raise ValueError(f"need t >= 3, got t={t}")

        monkeypatch.setitem(BUILDERS, "G3", (failing, ("t",)))
        for _ in range(3):
            with pytest.raises(ValueError, match="need t >= 3, got t=2"):
                build_named("G3", {"t": 2})
        assert calls == [2, 2, 2]
        assert constructions._built.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("nope", {}, "unknown construction 'nope'"),
            ("G3", {}, "needs parameters"),
            ("F3", {"t": 5}, "does not take"),
            ("G5", {"t": 5, "k": 3, "r": 1}, "does not take"),
        ],
    )
    def test_bad_call_raises_before_lookup(self, monkeypatch, name, params, message):
        def lookup(*_):
            raise AssertionError("looked up the table")

        monkeypatch.setattr(constructions, "_built", lookup)
        with pytest.raises(ValueError, match=message):
            build_named(name, params)


class TestDispatcher:
    @pytest.mark.parametrize(
        "spec,k,best_order",
        [
            ("K5", 5, 16),     # (t-1)^2 when k = t and H complete
            ("S4^1", 4, 5),
            ("S6^1", 4, 6),
            ("S13^3", 4, 16),
            ("PA6,5", 4, 23),
            ("PA7,5", 4, 25),
            ("PA6,5", 5, 20),  # (omega-1)(t-1) when k = omega
            ("K3", 5, 4),
            ("K3", 6, 4),
        ],
    )
    def test_best_witness_order(self, spec, k, best_order):
        cert = lower_bound_witness(parse_hspec(spec), k)
        assert cert is not None
        assert cert.order == best_order

    def test_certificates_are_verified(self):
        cert = lower_bound_witness(parse_hspec("S6^1"), 4)
        assert cert is not None
        # replaying the exact same coloring must succeed
        assert verify_witness(cert.coloring, parse_hspec("S6^1")).order == cert.order

    def test_unsatisfiable_query_returns_none(self):
        """A 2K2 target embeds in every 4-vertex exact 5-coloring, so the
        sporadic candidates get filtered out by verification."""
        H = TargetGraph.arbitrary(4, [(0, 1), (2, 3)])
        cert = lower_bound_witness(H, 5)
        if cert is not None:
            # if anything survives it must genuinely verify
            verify_witness(cert.coloring, H)

    def test_rejects_witness_with_mono_copy(self):
        c = ColoredComplete.constant(5, 1)
        with pytest.raises(WitnessFailure):
            verify_witness(c, TargetGraph.complete(3))


class TestPrintedBytes:
    def test_every_printed_coloring_is_pinned(self):
        """Canonical keys are blind to vertex order; this pins the colorings
        ``witness`` prints, byte for byte, for every grid row and every
        dispatcher answer on data/eval_sweep.txt (None where there is none)."""
        rows = []
        for row in construction_grid():
            c = build_named(row["name"], row["params"])
            params = json.dumps(row["params"], separators=(",", ":"))
            key = f"{row['name']} {params} {row['target']}"
            rows.append((key, json.dumps([c.n, c.k, c.colors], separators=(",", ":"))))
        sweep = resources.files("gallai").joinpath("data/eval_sweep.txt").read_text()
        for line in sweep.splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            spec, k = line.split()
            cert = lower_bound_witness(parse_hspec(spec), int(k))
            entry = None
            if cert is not None:
                c = cert.coloring
                entry = [cert.label, {"H": spec, "k": int(k)}, c.n, c.k, c.colors]
            rows.append((f"{spec} {k}", json.dumps(entry, separators=(",", ":"))))
        assert_rows("printed", rows)


def _outcome(build, *args):
    """A build's coloring as [n, k, colors], or its exception as [type, text]."""
    try:
        c = build(*args)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return [c.n, c.k, c.colors]


class TestBuildOutcomes:
    def test_every_outcome_is_pinned(self):
        """Colorings, error types and error texts of the builders stay byte
        for byte what they were, in and out of each builder's domain."""
        rows = []
        ranges = {
            "t": range(1, 9),
            "k": range(1, 9),
            "a": range(1, 7),
            "r": range(0, 5),
            "max_degree": range(1, 9),
        }
        for name, (_, needed) in BUILDERS.items():
            for values in itertools.product(*(ranges[p] for p in needed)):
                params = dict(zip(needed, values))
                outcome = _outcome(build_named, name, params)
                key = f"{name} {json.dumps(params, separators=(',', ':'))}"
                rows.append((key, json.dumps(outcome, separators=(",", ":"))))
        assert_rows("build_outcomes", rows)


def _small_targets() -> list[TargetGraph]:
    """Every family member of order <= 6, plus one arbitrary target (C5).

    Among them K2, where k = t = 2 is below G3's domain, and K4, whose
    max degree 3 splits into one-vertex parts for G6 at k = 4.
    """
    out = []
    for t in range(2, 7):
        out.append(TargetGraph.complete(t))
        out.append(TargetGraph.complete_minus_matching(t))
        out.extend(TargetGraph.star_plus(t, r) for r in range((t - 1) // 2 + 1))
        out.extend(TargetGraph.pineapple(t, w) for w in range(2, t))
    out.append(TargetGraph.arbitrary(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    return out


class TestDispatcherSweep:
    @pytest.mark.parametrize("H", _small_targets(), ids=render_hspec)
    def test_returns_certificate_or_none(self, H):
        """Every hypothesis lies inside its builder's domain, so the sweep
        never raises; whatever comes back genuinely verifies."""
        for k in range(2, 9):
            cert = lower_bound_witness(H, k)
            if cert is not None:
                assert cert.H == H and cert.coloring.k == k
                assert verify_witness(cert.coloring, H).order == cert.order

    def test_build_errors_propagate(self, monkeypatch):
        """A construction the table asks for wrongly fails loudly instead of
        silently dropping out of the candidate list."""
        import gallai.search

        def broken(name, params):
            raise ValueError(f"construction {name} does not take parameters ['x']")

        monkeypatch.setattr(gallai.search, "build_named", broken)
        with pytest.raises(ValueError, match="does not take parameters"):
            lower_bound_witness(parse_hspec("S6^1"), 4)
