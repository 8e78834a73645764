"""Tests for the discrete Caputo operators."""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

import caputo_lk.schemes
from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.harness import order_interior
from caputo_lk.interp import LagrangePiece, SchemeKind, _runs, build_interpolant
from caputo_lk.oracle import exact_caputo_monomial, quad_caputo_piecewise
from caputo_lk.schemes import (
    CaputoWeights,
    caputo_of_piece,
    discrete_caputo,
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


def _l1_row(n, alpha):
    """Lags 0..n-1 of the engine's L1 row, read through unit steps
    u^i = [i >= n - lag] at node n of the unit-step grid: the value there is
    b_lag / Gamma(2 - alpha)."""
    g = UniformGrid(horizon=float(n), steps=n)
    weights = CaputoWeights(SchemeKind.l1(), alpha)
    steps = ([float(i >= n - lag) for i in range(n + 1)] for lag in range(n))
    return [weights.value(g, u, n) * math.gamma(2.0 - alpha) for u in steps]


class TestL1Weights:
    """The engine's L1 row against its closed form
    b_i = (i+1)^(1-alpha) - i^(1-alpha)."""

    def test_values(self):
        for alpha in (0.1, 0.5, 0.9):
            p = 1.0 - alpha
            want = [(j + 1) ** p - j**p for j in range(30)]
            assert _l1_row(30, alpha) == pytest.approx(want, rel=1e-11)

    def test_positive_decreasing(self):
        for alpha in (0.1, 0.5, 0.9):
            w = _l1_row(30, alpha)
            assert all(x > 0.0 for x in w)
            assert all(x > y for x, y in zip(w, w[1:]))

    def test_convolution_matches_piecewise_form(self):
        # tau^-alpha/Gamma(2-alpha) sum_j b_{n-j} (u^j - u^{j-1})
        rng = random.Random(211)
        for _ in range(25):
            n = rng.randrange(1, 40)
            steps = n + rng.randrange(0, 4)
            g = UniformGrid(horizon=steps * 0.03125, steps=steps)
            alpha = rng.uniform(0.05, 0.95)
            vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
            a = discrete_caputo(SchemeKind.l1(), g, vals, n, alpha).value
            p = 1.0 - alpha
            acc = math.fsum(
                ((n - j + 1) ** p - (n - j) ** p) * (vals[j] - vals[j - 1])
                for j in range(1, n + 1)
            )
            b = acc * g.tau ** (-alpha) / math.gamma(2.0 - alpha)
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
    """discrete_caputo works from weight columns in grid units, indexed by
    lag; the per-piece route through Lagrange pieces in time units stays as
    its reference."""

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

    def test_one_moment_evaluation_per_new_lag(self, monkeypatch):
        """A shared CaputoWeights builds no interpolant, no Lagrange piece
        and no per-piece route.  The steady columns are filled densely from
        lag 0, each lag evaluated once in any order of nodes; a startup or
        final interval costs one column evaluation per node evaluation.
        Every node costs one gamma call."""
        g = UniformGrid(horizon=1.0, steps=23)
        alpha = 0.4
        vals = [math.sin(3.0 * g.time(i)) for i in range(g.steps + 1)]
        nodes = (20, 5, 20, 23, 1, 12, 2)
        want = {
            (scheme, n): _per_interval_value(scheme, g, vals, n, alpha)
            for scheme in ALL_SCHEMES
            for n in nodes
        }

        def refuse(*args, **kwargs):
            raise AssertionError("piece route called on the hot path")

        monkeypatch.setattr(caputo_lk.schemes, "build_interpolant", refuse)
        monkeypatch.setattr(caputo_lk.schemes, "caputo_of_piece", refuse)
        monkeypatch.setattr(LagrangePiece, "monomial_coefficients", refuse)
        keys = _record_moment_keys(monkeypatch)
        gammas = []
        original_gamma = caputo_lk.schemes.gamma
        monkeypatch.setattr(
            caputo_lk.schemes, "gamma", lambda x: gammas.append(x) or original_gamma(x)
        )
        for scheme in ALL_SCHEMES:
            keys.clear()
            gammas.clear()
            weights = CaputoWeights(scheme, alpha)
            for n in nodes:
                assert weights.value(g, vals, n) == want[scheme, n]
            assert Counter(keys) == _expected_keys(scheme, nodes), scheme.label
            assert len(gammas) == len(nodes)

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(3)], ids=lambda s: s.label
    )
    def test_interior_cell_fills_each_lag_once(self, monkeypatch, scheme):
        """The three grids of an interior cell, nodes n, 2n and 4n, share
        one CaputoWeights: the 4n steady lags are filled once (not the 7n
        of three separate evaluations), plus each grid's own startup or
        final intervals, once per node."""
        keys = _record_moment_keys(monkeypatch)
        f = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        order_interior(scheme, f, 0.5, 2.0**-5)
        n = 16
        assert Counter(keys) == _expected_keys(scheme, (n, 2 * n, 4 * n))
        edges = sum(1 for key in keys if key[:2] != _steady(scheme))
        assert len(keys) - edges <= 4 * n


def _record_moment_keys(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch the column function to record each column evaluation as
    (degree, offset, lag)."""
    keys = []
    core = caputo_lk.schemes._columns

    def recorded(degree, offset, lags, al):
        keys.extend((degree, offset, lag) for lag in lags)
        return core(degree, offset, lags, al)

    monkeypatch.setattr(caputo_lk.schemes, "_columns", recorded)
    return keys


def _steady(scheme) -> tuple[int, int]:
    """(degree, offset) of the run of ``_runs`` that grows with n."""
    return (2, 1) if scheme == SchemeKind.l2() else (scheme.degree, 0)


def _expected_keys(scheme, nodes) -> Counter:
    """The (degree, offset, lag) one CaputoWeights evaluates for these node
    evaluations, with multiplicity: the startup and final intervals of each
    evaluation, and the steady columns once each, densely from lag 0 to
    the deepest lag any node reads."""
    keys = Counter()
    top = -1
    for n in nodes:
        for degree, offset, first, last in _runs(scheme, n):
            if (degree, offset) == _steady(scheme):
                top = max(top, n - first)
            else:
                keys.update((degree, offset, n - j) for j in range(first, last + 1))
    keys.update((*_steady(scheme), lag) for lag in range(top + 1))
    return keys


def _per_interval_products(scheme, vals, n, alpha):
    """The products u^(j+offset-l) w_l(n - j) of node n, from one column
    evaluation per interval."""
    products = []
    for degree, offset, first, last in _runs(scheme, n):
        for j in range(first, last + 1):
            col = caputo_lk.schemes._columns(degree, offset, (n - j,), alpha)
            products.extend(vals[j + offset - l] * w for l, (w,) in enumerate(col))
    return products


def _per_interval_value(scheme, grid, vals, n, alpha):
    """The node value from ``_per_interval_products``: no column shared
    between intervals or nodes, the reference the shared columns must match
    bit for bit."""
    products = _per_interval_products(scheme, vals, n, alpha)
    return math.fsum(products) * grid.tau ** (-alpha) / math.gamma(1.0 - alpha)


def _basis_derivative(degree, offset, l):
    """Exact coefficients of sigma^p in L_l'(sigma), the derivative of the
    Lagrange basis polynomial of stencil node anchor - l, anchor = 1 + offset,
    on the window [0, 1] of ``_columns``."""
    anchor = 1 + offset
    poly = [Fraction(1)]
    for m in range(degree + 1):
        if m != l:
            # times (sigma - (anchor - m)) / (m - l)
            nxt = [Fraction(0)] * (len(poly) + 1)
            for r, cr in enumerate(poly):
                nxt[r + 1] += cr / (m - l)
                nxt[r] -= cr * (anchor - m) / (m - l)
            poly = nxt
    return [r * poly[r] for r in range(1, len(poly))]


def _reference_moments(mpmath, alpha, lags):
    """int_0^1 (lag+1-sigma)^-alpha sigma^p dsigma for p = 0..5 at each lag,
    as mpf at the caller's precision, by the binomial closed form in
    w = lag + 1 - sigma.  Its cancellation costs about lag^p, so 60 digits
    keep 40 at lag 2^14."""
    al = mpmath.mpf(alpha)
    out = {}
    for lag in lags:
        hi = lag + 1
        hi_pow, lo_pow = mpmath.mpf(hi) ** -al, mpmath.mpf(lag) ** -al if lag else 0
        # int_lag^(lag+1) w^(i-alpha) dw, i = 0..5
        f = [(hi_pow * hi ** (i + 1) - lo_pow * lag ** (i + 1)) / (i + 1 - al) for i in range(6)]
        out[lag] = [
            mpmath.fsum(math.comb(p, i) * hi ** (p - i) * (-1) ** i * f[i] for i in range(p + 1))
            for p in range(6)
        ]
    return out


# the (degree, offset) of every column set the engine evaluates; each
# scheme's startup and final sets are the steady set of another
_COLUMN_SETS = sorted({run[:2] for s in ALL_SCHEMES for run in _runs(s, 2 * s.degree + 2)})


def _check_columns(lags):
    """Every column set at these lags, for alpha 0.05, 0.5 and 0.95,
    against the 60-digit closed form: 5e-15 relative, flat."""
    mpmath = pytest.importorskip("mpmath")
    for alpha in (0.05, 0.5, 0.95):
        with mpmath.workdps(60):
            ref = _reference_moments(mpmath, alpha, lags)
        for degree, offset in _COLUMN_SETS:
            cols = caputo_lk.schemes._columns(degree, offset, lags, alpha)
            for l, col in enumerate(cols):
                coef = _basis_derivative(degree, offset, l)
                for lag, got in zip(lags, col):
                    with mpmath.workdps(60):
                        want = mpmath.fsum(mpmath.mpf(cp.numerator) / cp.denominator * m for cp, m in zip(coef, ref[lag]))
                        rel = float(abs(got - want) / abs(want))
                    assert rel <= 5e-15, (degree, offset, alpha, l, lag, rel)


class TestColumnPrecision:
    """Column entries w_l(lag) = int_0^1 (lag+1-sigma)^-alpha L_l'(sigma)
    dsigma of every column set against a 60-digit evaluation.  The series
    about the window's midpoint has an exact leading coefficient (0 or +-1),
    so no column cancels: every entry stays within a flat 5e-15 relative
    (at most 1.1e-15 measured), where the fold of moments it replaced lost
    digits like lag * eps (2.0e-9 near lag 2^14)."""

    def test_columns_against_mpmath_at_near_lags(self):
        _check_columns((1, 2, 3, 10, 100, 1000))

    def test_steady_columns_against_mpmath_at_fine_lags(self):
        _check_columns((2**12 - 3, 2**12, 2**13 - 1, 2**13 + 5, 2**14 - 2, 2**14))

    def test_node_values_against_60_digits(self):
        """All seven schemes at node N = 1024 of u = t^4.2 on [0, 1], alpha
        0.1, 0.5 and 0.9, against the same discrete operator evaluated at 60
        digits on the same float node values.  The error stays within eps
        times the products' scale sum |u w| (0.21 of it measured; the fold of
        moments these columns replaced reached 2.0).  That scale is the
        floor: eps sum|u w| / |value| reaches 7.6e-13 for k = 6 at alpha
        0.9, whose error is 2.1e-13, against 2.5e-15 at alpha 0.1."""
        mpmath = pytest.importorskip("mpmath")
        eps = 2.0**-52
        n = 1024
        g = UniformGrid(horizon=1.0, steps=n)
        vals = [g.time(i) ** 4.2 for i in range(n + 1)]
        # the node values exactly, as integers over 2^shift
        ratios = [v.as_integer_ratio() for v in vals]
        shift = max(den.bit_length() - 1 for _, den in ratios)
        ints = [num << (shift - den.bit_length() + 1) for num, den in ratios]
        for alpha in (0.1, 0.5, 0.9):
            with mpmath.workdps(60):
                ref = _reference_moments(mpmath, alpha, range(n))
                scale = mpmath.mpf(g.tau) ** -alpha / mpmath.gamma(1 - mpmath.mpf(alpha))
            for scheme in ALL_SCHEMES:
                got = discrete_caputo(scheme, g, vals, n, alpha).value
                size = math.fsum(map(abs, _per_interval_products(scheme, vals, n, alpha)))
                # sum over intervals j and degrees p of M_p(n - j) times the
                # exact integer den * 2^shift sum_l L_l'[p] u^(j+offset-l)
                runs = [(run, [_basis_derivative(*run[:2], l) for l in range(run[0] + 1)]) for run in _runs(scheme, n)]
                den = math.lcm(*(c.denominator for _, coef in runs for row in coef for c in row))
                moments, weights = [], []
                for (degree, offset, first, last), coef in runs:
                    by_degree = [[int(row[p] * den) for row in coef] for p in range(degree)]
                    for j in range(first, last + 1):
                        window = ints[j + offset - degree : j + offset + 1][::-1]
                        moments.extend(ref[n - j][:degree])
                        weights.extend(sum(map(operator.mul, c, window)) for c in by_degree)
                with mpmath.workdps(60):
                    want = mpmath.fdot(moments, weights) * scale / (den << shift)
                    err = float(abs(got - want))
                bound = eps * size * float(scale)
                assert err <= bound, (scheme.label, alpha, err / abs(got), bound / abs(got))


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

    def test_shared_weights_match_one_shot(self):
        """One CaputoWeights asked for nodes on grids of several steps, in
        any order, gives every value bit for bit as a fresh discrete_caputo
        and as one column evaluation per interval."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            requests=st.lists(
                st.tuples(st.integers(1, 64), st.integers(0, 63)), min_size=1, max_size=6
            ),
            seed=st.integers(0, 2**16),
        )
        def check(scheme, alpha, requests, seed):
            rng = random.Random(seed)
            weights = CaputoWeights(scheme, alpha)
            for steps, back in requests:
                g = UniformGrid(horizon=1.0, steps=steps)
                n = steps - back % steps
                values = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
                got = weights.value(g, values, n)
                assert got == discrete_caputo(scheme, g, values, n, alpha).value
                assert got == _per_interval_value(scheme, g, values, n, alpha)

        check()
