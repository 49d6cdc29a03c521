"""Witness builders: shapes, orders, exactness, and certified freeness."""

from __future__ import annotations

import itertools

import pytest

from gallai.constructions import (
    BUILDERS,
    BlowupSpec,
    Part,
    blowup,
    build_named,
    construction_grid,
    doubling,
    pentagon_blowup,
    r35_witness,
    sporadic,
    star_augmented,
)
from gallai.detectors import find_mono_copy_in_color, find_rainbow_path
from gallai.graphs import ColoredComplete, TargetGraph, parse_hspec, render_hspec
from gallai.search import WitnessFailure, lower_bound_witness, verify_witness


class TestBlowup:
    def test_mono_parts_and_inter(self):
        spec = BlowupSpec(
            k=3,
            parts=(Part(2, color=2), Part(3, color=3)),
            inter=1,
        )
        c = blowup(spec)
        assert c.n == 5
        assert c.color_of(0, 1) == 2
        assert c.color_of(2, 3) == 3
        assert c.color_of(0, 2) == 1

    def test_inner_coloring_part(self):
        inner = ColoredComplete.from_edge_triples(3, 2, ((0, 1, 1), (0, 2, 2), (1, 2, 1)))
        spec = BlowupSpec(k=3, parts=(Part(3, inner=inner), Part(2, color=3)), inter=2)
        c = blowup(spec)
        assert c.color_of(0, 2) == 2
        assert c.color_of(3, 4) == 3
        assert c.color_of(0, 3) == 2

    def test_rejects_nonexact(self):
        spec = BlowupSpec(k=4, parts=(Part(2, color=2), Part(2, color=3)), inter=1)
        with pytest.raises(ValueError, match="not exact"):
            blowup(spec)

    def test_rejects_incomplete_inter_table(self):
        spec = BlowupSpec(
            k=2,
            parts=(Part(1), Part(1), Part(1)),
            inter=((0, 1, 1), (0, 2, 2)),
        )
        with pytest.raises(ValueError, match="misses"):
            blowup(spec)

    def test_rejects_part_needing_color_choice(self):
        with pytest.raises(ValueError):
            blowup(BlowupSpec(k=2, parts=(Part(3),), inter=1))


class TestHelpers:
    def test_star_augmented_shape(self):
        c = star_augmented(3, 1, [2, 3, 4])
        assert c.n == 4 and c.k == 4
        assert c.color_of(0, 3) == 2
        assert c.color_of(1, 2) == 1

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
        with pytest.raises(KeyError):
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
        with pytest.raises(KeyError):
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
