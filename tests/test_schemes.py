"""Tests for the discrete Caputo operators."""

from __future__ import annotations

import math
import random

import pytest

import caputo_lk.schemes
from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.interp import LagrangePiece, SchemeKind, build_interpolant
from caputo_lk.oracle import exact_caputo_monomial, quad_caputo_piecewise
from caputo_lk.schemes import (
    caputo_of_piece,
    discrete_caputo,
    l1_convolution,
    l1_weights,
)

ALL_SCHEMES = [
    SchemeKind.l1(),
    SchemeKind.l2(),
    SchemeKind.l12(),
    SchemeKind.lk(3),
    SchemeKind.lk(4),
    SchemeKind.lk(5),
    SchemeKind.lk(6),
]


class TestCaputoOfPiece:
    def test_constant_piece_vanishes(self):
        piece = LagrangePiece(
            degree=1,
            anchor=1,
            node_times=(0.0, 0.5),
            node_values=(3.0, 3.0),
            interval=(0.0, 0.5),
            tau=0.5,
        )
        assert caputo_of_piece(piece, (0.0, 0.5), 1.0, 0.4) == 0.0

    def test_unit_slope_half_order(self):
        """d/dt of t under order one half over the whole history gives
        t^(1/2) / Gamma(3/2) = 2/sqrt(pi) at t = 1."""
        piece = LagrangePiece(
            degree=1,
            anchor=1,
            node_times=(0.0, 1.0),
            node_values=(0.0, 1.0),
            interval=(0.0, 1.0),
            tau=1.0,
        )
        got = caputo_of_piece(piece, (0.0, 1.0), 1.0, 0.5)
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    def test_frozen_quadratic_window(self):
        # pinned from adaptive Gauss-Kronrod quadrature of
        # p'(s) (t-s)^-alpha / Gamma(1-alpha) over the window
        piece = LagrangePiece(
            degree=2,
            anchor=2,
            node_times=(0.0, 0.25, 0.5),
            node_values=(0.1, -0.3, 0.4),
            interval=(0.0, 0.25),
            tau=0.25,
        )
        got = caputo_of_piece(piece, (0.0, 0.25), 0.75, 0.6)
        assert got == pytest.approx(-0.2272638327801592, rel=1e-12)

    def test_window_must_sit_left_of_t(self):
        piece = LagrangePiece(
            degree=1,
            anchor=1,
            node_times=(0.0, 0.5),
            node_values=(0.0, 1.0),
            interval=(0.0, 0.5),
            tau=0.5,
        )
        with pytest.raises(ValueError):
            caputo_of_piece(piece, (0.0, 0.5), 0.25, 0.5)


class TestL1Weights:
    def test_values(self):
        alpha = 0.5
        w = l1_weights(4, alpha)
        p = 1.0 - alpha
        want = [(j + 1) ** p - j**p for j in range(4)]
        assert w == pytest.approx(want, rel=1e-15)
        assert w[0] == 1.0

    def test_positive_decreasing(self):
        for alpha in (0.1, 0.5, 0.9):
            w = l1_weights(30, alpha)
            assert all(x > 0.0 for x in w)
            assert all(x > y for x, y in zip(w, w[1:]))

    def test_convolution_matches_piecewise_form(self):
        rng = random.Random(211)
        for _ in range(25):
            n = rng.randrange(1, 40)
            steps = n + rng.randrange(0, 4)
            g = UniformGrid(horizon=steps * 0.03125, steps=steps)
            alpha = rng.uniform(0.05, 0.95)
            vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
            a = discrete_caputo(SchemeKind.l1(), g, vals, n, alpha).value
            b = l1_convolution(vals, g.tau, alpha)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-13)


class TestDiscreteCaputo:
    def test_linear_exactness(self):
        """Any scheme reproduces c0 + c1 t exactly, giving the power rule
        value c1 t^(1-alpha) / Gamma(2-alpha)."""
        g = UniformGrid(horizon=1.0, steps=16)
        for scheme in ALL_SCHEMES:
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
                for n in (1, 2, 8, 16):
                    got = discrete_caputo(
                        scheme, g, lambda t: 0.7 - 1.3 * t, n, alpha
                    ).value
                    want = -1.3 * g.time(n) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
                    assert got == pytest.approx(want, rel=1e-10)

    def test_first_step_collapse(self):
        # every scheme reduces to the linear first step at n = 1
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=0, beta=0.4, xi=0.5)
        base = discrete_caputo(SchemeKind.l1(), g, u, 1, 0.3).value
        for scheme in ALL_SCHEMES[1:]:
            assert discrete_caputo(scheme, g, u, 1, 0.3).value == pytest.approx(
                base, rel=1e-14
            )

    def test_first_step_closed_form(self):
        g = UniformGrid(horizon=1.0, steps=8)
        tau = g.tau
        got = discrete_caputo(SchemeKind.l2(), g, lambda t: t * t, 1, 0.3).value
        want = tau**2 * tau**-0.3 / math.gamma(2.0 - 0.3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_degree_family_collapses(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randrange(2, 24)
            g = UniformGrid(horizon=1.0, steps=n + rng.randrange(0, 4))
            alpha = rng.uniform(0.05, 0.95)
            vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
            lk1 = discrete_caputo(SchemeKind.lk(1), g, vals, n, alpha).value
            l1 = discrete_caputo(SchemeKind.l1(), g, vals, n, alpha).value
            lk2 = discrete_caputo(SchemeKind.lk(2), g, vals, n, alpha).value
            l12 = discrete_caputo(SchemeKind.l12(), g, vals, n, alpha).value
            assert lk1 == pytest.approx(l1, rel=1e-12, abs=1e-14)
            assert lk2 == pytest.approx(l12, rel=1e-12, abs=1e-14)

    def test_frozen_holder_instance(self):
        # pinned from the adaptive quadrature oracle on the assembled
        # interpolant (agreement 3e-15 at pin time)
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        got = discrete_caputo(SchemeKind.l2(), g, u, 8, 0.5).value
        assert got == pytest.approx(0.3053063694661947, rel=1e-12)

    def test_cubic_kink_exact_value(self):
        """For beta = 1 and m = 2 the probe is an exact cubic left of the
        kink, so the operator at the kink approaches
        -3/Gamma(1-alpha) xi^(3-alpha)/(3-alpha)."""
        alpha = 0.1
        exact = -3.0 / math.gamma(1.0 - alpha) * 0.5 ** (3 - alpha) / (3 - alpha)
        g = UniformGrid(horizon=1.0, steps=128)
        u = HolderTestFunction(m=2, beta=1.0, xi=0.5)
        got = discrete_caputo(SchemeKind.l2(), g, u, 64, alpha).value
        assert got == pytest.approx(exact, rel=1e-6)

    def test_callable_and_sequence_agree(self):
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=1, beta=0.5, xi=0.4)
        vals = [u(g.time(i)) for i in range(9)]
        a = discrete_caputo(SchemeKind.l12(), g, u, 8, 0.5).value
        b = discrete_caputo(SchemeKind.l12(), g, vals, 8, 0.5).value
        assert a == b

    def test_result_metadata(self):
        g = UniformGrid(horizon=1.0, steps=8)
        r = discrete_caputo(SchemeKind.l1(), g, lambda t: t, 4, 0.5)
        assert r.node == 4
        assert r.time == pytest.approx(0.5)
        assert r.alpha == 0.5
        assert r.scheme.label == "L1"

    def test_rejects_bad_node(self):
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(ValueError):
            discrete_caputo(SchemeKind.l1(), g, lambda t: t, 0, 0.5)
        with pytest.raises(ValueError):
            discrete_caputo(SchemeKind.l1(), g, lambda t: t, 9, 0.5)
        # a non-finite node value fails loudly instead of propagating
        for bad in (math.nan, math.inf):
            vals = [0.0, 0.1, bad, 0.3, 0.4]
            for scheme in (SchemeKind.l1(), SchemeKind.l2()):
                with pytest.raises(ValueError, match="not finite"):
                    discrete_caputo(scheme, g, vals, 4, 0.5)
            with pytest.raises(ValueError, match="not finite"):
                l1_convolution(vals, g.tau, 0.5)

    def test_against_quadrature_oracle(self):
        """Closed-form kernel moments against adaptive quadrature on the
        same interpolant: the dual route must agree to near round-off."""
        rng = random.Random(421)
        for scheme in [SchemeKind.l1(), SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(4)]:
            n = rng.randrange(max(2, scheme.degree), 12)
            g = UniformGrid(horizon=1.0, steps=n + rng.randrange(0, 6))
            alpha = rng.uniform(0.1, 0.9)
            u = HolderTestFunction(
                m=rng.randrange(0, 3), beta=rng.uniform(0.1, 1.0), xi=rng.uniform(0.2, 0.9)
            )
            vals = [u(g.time(i)) for i in range(n + 1)]
            fast = discrete_caputo(scheme, g, vals, n, alpha).value
            interp = build_interpolant(scheme, g, vals, n)
            slow = quad_caputo_piecewise(interp, g.time(n), alpha, tol=1e-12)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


def _reference_terms(scheme, grid, vals, n, alpha):
    """Per-piece values of the reference route: ``caputo_of_piece`` over
    the pieces of the scheme's interpolant."""
    interp = build_interpolant(scheme, grid, vals, n)
    t_n = grid.time(n)
    return [caputo_of_piece(p, p.interval, t_n, alpha) for p in interp.pieces]


class TestReferenceRoute:
    """discrete_caputo works from the layout in grid units; the per-piece
    route through Lagrange pieces in time units stays as its reference."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
    def test_matches_per_piece_route(self, scheme):
        rng = random.Random(9)
        k = scheme.degree
        for n in sorted({1, 2, k, k + 1, 33, 256}):
            # a dyadic step and one that is not
            for steps in (256, 3 * n + 7):
                if n > steps:
                    continue
                g = UniformGrid(horizon=1.0, steps=steps)
                vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
                for alpha in (0.05, 0.5, 0.95):
                    got = discrete_caputo(scheme, g, vals, n, alpha).value
                    parts = _reference_terms(scheme, g, vals, n, alpha)
                    bound = 1e-12 * sum(map(abs, parts))
                    assert abs(got - math.fsum(parts)) <= bound, (n, steps, alpha)

    def test_hot_path_builds_no_pieces(self, monkeypatch):
        """A node needs no interpolant, no Lagrange piece and no per-piece
        route: n kernel_moments calls and one gamma call."""
        g = UniformGrid(horizon=1.0, steps=23)
        n, alpha = 20, 0.4
        vals = [math.sin(3.0 * g.time(i)) for i in range(n + 1)]
        want = {s: math.fsum(_reference_terms(s, g, vals, n, alpha)) for s in ALL_SCHEMES}

        def refuse(*args, **kwargs):
            raise AssertionError("piece route called on the hot path")

        monkeypatch.setattr(caputo_lk.schemes, "build_interpolant", refuse)
        monkeypatch.setattr(caputo_lk.schemes, "caputo_of_piece", refuse)
        monkeypatch.setattr(LagrangePiece, "monomial_coefficients", refuse)
        calls = {"kernel_moments": 0, "gamma": 0}

        def counted(name):
            original = getattr(caputo_lk.schemes, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(caputo_lk.schemes, name, counted(name))
        for scheme in ALL_SCHEMES:
            calls.update(kernel_moments=0, gamma=0)
            got = discrete_caputo(scheme, g, vals, n, alpha).value
            assert got == pytest.approx(want[scheme], rel=1e-13, abs=1e-15)
            assert calls == {"kernel_moments": n, "gamma": 1}


def _property_tools():
    """hypothesis, its strategies and the settings every property here
    shares: derandomized, no example database, a few dozen examples.
    Skips the calling test when hypothesis is not installed."""
    hp = pytest.importorskip("hypothesis")
    settings = hp.settings(derandomize=True, max_examples=25, deadline=None, database=None)
    return hp, hp.strategies, settings


# the step shared by every property grid; dyadic, so node times are exact
_TAU = 2.0**-6


def _grid(n):
    return UniformGrid(horizon=n * _TAU, steps=n)


class TestProperties:
    """Properties of discrete_caputo over random alpha, n <= 64 and all
    seven schemes.  Rounding in the value grows like tau^-alpha times the
    node count, which sets the absolute slack below."""

    def test_linear_in_node_values(self):
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            coeffs=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
            data=st.data(),
        )
        def check(scheme, alpha, coeffs, data):
            n = data.draw(st.integers(1, 64))
            nodes = st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)
            u, v = data.draw(nodes), data.draw(nodes)
            a, b = coeffs
            g = _grid(n)
            combined = [a * x + b * y for x, y in zip(u, v)]
            mixed = discrete_caputo(scheme, g, combined, n, alpha).value
            du = discrete_caputo(scheme, g, u, n, alpha).value
            dv = discrete_caputo(scheme, g, v, n, alpha).value
            slack = 1e-13 * (abs(a) + abs(b)) * n * _TAU**-alpha
            assert mixed == pytest.approx(a * du + b * dv, rel=1e-12, abs=slack)

        check()

    def test_exact_on_the_smallest_piece_degree(self):
        """Every layout reproduces polynomials up to the degree of its
        lowest-degree piece: linear ones for L1, L1-2 and Lk, whose first
        piece is linear, and quadratics for L2 from n = 2 on."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            n=st.integers(1, 64),
            coeffs=st.tuples(*(st.floats(-2.0, 2.0) for _ in range(3))),
        )
        def check(scheme, alpha, n, coeffs):
            degree = 2 if scheme == SchemeKind.l2() and n >= 2 else 1
            c = coeffs[: degree + 1]
            g = _grid(n)
            values = [
                math.fsum(ci * g.time(i) ** p for p, ci in enumerate(c)) for i in range(n + 1)
            ]
            got = discrete_caputo(scheme, g, values, n, alpha).value
            t_n = g.time(n)
            parts = [ci * exact_caputo_monomial(p, t_n, alpha) for p, ci in enumerate(c)]
            slack = 1e-13 * sum(map(abs, c)) * n * _TAU**-alpha
            assert got == pytest.approx(math.fsum(parts), rel=1e-10, abs=slack)

        check()

    def test_shift_invariance(self):
        """Values that vanish on nodes 0..k (k the scheme degree) never meet
        a startup piece, so prepending m zeros on the same grid moves the
        value from node n to node n + m bit for bit.  The grid's step is
        usually not dyadic."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            m=st.integers(1, 16),
            data=st.data(),
        )
        def check(scheme, alpha, m, data):
            k = scheme.degree
            n = data.draw(st.integers(k + 1, 48))
            tail = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n - k, max_size=n - k))
            values = [0.0] * (k + 1) + tail
            g = UniformGrid(horizon=1.0, steps=data.draw(st.integers(n + m, n + m + 16)))
            here = discrete_caputo(scheme, g, values, n, alpha).value
            shifted = discrete_caputo(scheme, g, [0.0] * m + values, n + m, alpha).value
            assert shifted == here

        check()
