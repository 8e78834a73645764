"""Tests for the adaptive quadrature oracle."""

from __future__ import annotations

import ast
import copy
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from caputo_lk import oracle, schemes
from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.interp import (
    _ALL_SCHEMES,
    LagrangePiece,
    PiecewisePolynomial,
    SchemeKind,
    build_interpolant,
)
from caputo_lk.oracle import (
    QuadratureConvergenceError,
    exact_caputo_monomial,
    quad_caputo_integrated,
    quad_caputo_piecewise,
)
from caputo_lk.schemes import discrete_caputo
from caputo_lk.verify import run_check


def monomial_interpolant(p: int, t_end: float) -> PiecewisePolynomial:
    """One degree-p piece over (0, t_end) interpolating s^p exactly."""
    tau = t_end / p if p > 0 else t_end
    times = tuple(i * tau for i in range(p + 1))
    piece = LagrangePiece(
        node_times=times if p > 0 else (0.0, t_end),
        node_values=tuple(s**p for s in times) if p > 0 else (1.0, 1.0),
        interval=(0.0, t_end),
        tau=tau,
    )
    return PiecewisePolynomial(pieces=(piece,))


def batch(f):
    """A scalar callable in the oracle's batch convention."""
    return lambda points: [f(s) for s in points]


def scalar_gk15(f, a, b):
    """The GK15 rule one point at a time, in the node and accumulation
    order the batched ``oracle._gk15`` must keep: the reference that pins
    its batch layout bit for bit."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = oracle._WK[7] * fc
    gauss = oracle._WG[3] * fc
    for i in range(7):
        x = half * oracle._XK[i]
        lo = f(mid - x)
        hi = f(mid + x)
        kron += oracle._WK[i] * (lo + hi)
        if i % 2 == 1:
            gauss += oracle._WG[i // 2] * (lo + hi)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


class TestAdaptiveCore:
    def test_batched_rule_matches_scalar_reference(self):
        rng = random.Random(2)
        family = [
            lambda c: lambda s: math.exp(c * s),
            lambda c: lambda s: math.sin(20.0 * c * s),
            lambda c: lambda s: abs(s - c) ** 0.3,
            lambda c: lambda s: (1.0 + c * s * s) ** -1.0,
        ]
        for _ in range(200):
            a = rng.uniform(-2.0, 2.0)
            b = a + 10.0 ** rng.uniform(-12.0, 1.0)
            c = rng.uniform(-1.0, 1.0)
            f = rng.choice(family)(c)
            assert oracle._gk15(batch(f), a, b) == scalar_gk15(f, a, b), (a, b, c)

    def test_batch_holds_the_centre_then_pairs(self):
        seen = []

        def record(points):
            seen.append(list(points))
            return [0.0] * len(points)

        oracle._gk15(record, 1.0, 3.0)
        (points,) = seen
        assert points[0] == 2.0
        for i, x in enumerate(oracle._XK[:7]):
            assert points[2 * i + 1 : 2 * i + 3] == [2.0 - x, 2.0 + x]

    def test_kronrod_degree_of_exactness(self):
        # the Kronrod extension of the 7-point Gauss rule integrates every
        # polynomial through degree 3 * 7 + 2 = 23 exactly (3n + 1, plus one
        # by symmetry for odd n), and degree 24 visibly not; a node paired
        # with the wrong weight breaks this at a low degree
        a, b = -1.0, 3.0

        def relative_error(deg):
            val, _ = oracle._gk15(batch(lambda s: s**deg), a, b)
            exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
            return abs(val - exact) / abs(exact)

        for deg in range(24):
            assert relative_error(deg) <= 1e-13, deg
        assert relative_error(24) > 1e-12

    def test_gk15_polynomial_exactness(self):
        # the 7-point Gauss rule is exact through degree 13, so the
        # Kronrod value and error estimate must both be tiny against it
        rng = random.Random(15)
        for deg in (3, 7, 13):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(deg + 1)]

            def poly(s):
                return math.fsum(c * s**p for p, c in enumerate(coeffs))

            a, b = 0.25, 1.75
            exact = math.fsum(
                c * (b ** (p + 1) - a ** (p + 1)) / (p + 1) for p, c in enumerate(coeffs)
            )
            val, err = oracle._gk15(batch(poly), a, b)
            assert val == pytest.approx(exact, rel=1e-13)
            assert err <= 1e-11 * max(1.0, abs(exact))

    def test_adaptive_smooth(self):
        got, failure, _ = oracle._adaptive(batch(math.exp), [0.0, 1.0], 1e-13)
        assert failure is None
        assert got == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_adaptive_oscillatory(self):
        got, failure, _ = oracle._adaptive(batch(lambda s: math.sin(20.0 * s)), [0.0, 2.0], 1e-12)
        want = (1.0 - math.cos(40.0)) / 20.0
        assert failure is None
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_adaptive_substituted_singularity(self):
        """The production route integrates singular-endpoint kernels after
        the substitution w = (t-s)^(1-alpha), which makes the integrand
        polynomially smooth; the raw singular form is never passed in."""
        t, al = 1.0, 0.5
        p = 1.0 - al
        # int_0^t (t-s)^-al s ds via the substitution, against the exact
        # Beta-function value t^(2-al) / ((1-al)(2-al))
        got, failure, _ = oracle._adaptive(batch(lambda w: t - w ** (1.0 / p)), [0.0, t**p], 1e-13)
        want = t ** (2 - al) / ((1 - al) * (2 - al))
        assert failure is None
        assert got / p == pytest.approx(want, rel=1e-12)

    def test_stall_carries_best_estimate(self):
        # an interior algebraic singularity at an irrational point defeats
        # bisection refinement at this tolerance; the returned sum is still
        # the accumulated estimate, beside the reason refinement stopped
        c = 1.0 / math.sqrt(7.0)
        best, failure, _ = oracle._adaptive(batch(lambda s: abs(s - c) ** -0.5), [0.0, 1.0], 1e-14)
        assert failure is not None
        want = 2.0 * (math.sqrt(c) + math.sqrt(1.0 - c))
        assert best == pytest.approx(want, rel=1e-3)

    def test_break_point_starts_a_region(self):
        # a kink passed as a break point is integrated exactly by the two
        # starting regions; bisecting toward it from [0, 1] takes 585 calls
        c = 1.0 / math.sqrt(7.0)
        calls = 0

        def kink(s):
            nonlocal calls
            calls += 1
            return abs(s - c)

        got, failure, _ = oracle._adaptive(batch(kink), [0.0, c, 1.0], 1e-14)
        assert failure is None
        assert got == pytest.approx(0.5 * (c * c + (1.0 - c) ** 2), rel=0.0, abs=1e-13)
        assert calls <= 60

    def test_depth_error_names_the_limit(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_DEPTH", 3)
        c = 1.0 / math.sqrt(7.0)
        _, failure, _ = oracle._adaptive(batch(lambda s: abs(s - c) ** -0.5), [0.0, 1.0], 1e-14)
        assert failure.endswith("exceeded depth 3")

    def test_depth_limit_still_reports_stats(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_DEPTH", 3)
        c = 1.0 / math.sqrt(7.0)
        _, failure, stats = oracle._adaptive(batch(lambda s: abs(s - c) ** -0.5), [0.0, 1.0], 1e-14)
        assert failure is not None
        assert stats.keys() == {"err_estimate", "regions", "evaluations"}
        # one starting region; each bisection adds one region and evaluates two
        assert stats["regions"] >= 4
        assert stats["evaluations"] == len(oracle._OFFSETS) * (2 * stats["regions"] - 1)
        assert stats["err_estimate"] > 1e-14


class TestFailureUnits:
    """A route that runs out of regions reports its best estimate and its
    error estimate in the units of its return value, not of the w-integral
    under it (which is Gamma(1 - alpha) times larger on the piecewise
    route)."""

    @pytest.mark.parametrize("route", [quad_caputo_piecewise, quad_caputo_integrated])
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_best_estimate_is_a_value(self, monkeypatch, route, alpha):
        g = UniformGrid(horizon=1.0, steps=16)
        u = HolderTestFunction(m=0, beta=0.3, xi=g.time(5))
        p = build_interpolant(SchemeKind.l12(), g, [u(g.time(i)) for i in range(11)], 10)
        settled = {}
        value = route(p, g.time(10), alpha, stats=settled)
        monkeypatch.setattr(oracle, "_MAX_REGIONS", 0)
        stats = {}
        with pytest.raises(QuadratureConvergenceError) as info:
            route(p, g.time(10), alpha, tol=1e-14, stats=stats)
        best = info.value.best
        assert best == pytest.approx(value, rel=1e-6)
        assert repr(best) in str(info.value)
        # the arguments carry the same best estimate, so the failure pickles
        assert info.value.args[1] == best
        self.assert_survives_pickle_and_copy(info.value)
        assert stats.keys() == settled.keys() == {"err_estimate", "regions", "evaluations"}
        # the starting regions only: one per piece
        assert stats["regions"] == len(p.pieces)
        assert stats["evaluations"] == len(oracle._OFFSETS) * len(p.pieces)
        # the error estimate, scaled like the value, bounds the best
        # estimate's distance to it
        assert abs(best - value) <= stats["err_estimate"]

    @staticmethod
    def assert_survives_pickle_and_copy(exc):
        for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert type(twin) is QuadratureConvergenceError
            assert twin.args == exc.args
            assert twin.best == exc.best
            assert str(twin) == str(exc)

    def test_error_pickles_and_copies(self):
        """Its constructor takes (message, best), so the arguments it
        passes on must be those too, or unpickling and copying fail."""
        exc = QuadratureConvergenceError("stalled", 0.5)
        assert exc.args == ("stalled", 0.5)
        self.assert_survives_pickle_and_copy(exc)


class TestNonFiniteValues:
    """Node values whose value overflows once came back as inf from both
    routes, or raised fsum's bare "-inf + inf" from inside the adaptive
    sum; discrete_caputo refuses the same values."""

    @pytest.mark.parametrize("route", [quad_caputo_piecewise, quad_caputo_integrated])
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, 1, -1)])
    def test_overflowing_value_raises(self, route, signs):
        g = UniformGrid(1.0, 4)
        vals = [0.0, *(s * 1e308 for s in signs)]
        p = build_interpolant(SchemeKind.l1(), g, vals, 4)
        with pytest.raises(ValueError, match=r"value at t_n = 1\.0 overflows"):
            route(p, 1.0, 0.5)
        with pytest.raises(ValueError, match="the value at node 4 overflows"):
            discrete_caputo(SchemeKind.l1(), g, vals, 4, 0.5)


class TestExactMonomial:
    def test_constant_and_origin(self):
        assert exact_caputo_monomial(0, 0.7, 0.5) == 0.0
        assert exact_caputo_monomial(3, 0.0, 0.5) == 0.0

    def test_linear_half_order_anchor(self):
        got = exact_caputo_monomial(1, 1.0, 0.5)
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            exact_caputo_monomial(-1, 0.5, 0.5)

    @pytest.mark.parametrize("p", [True, 2.0, 1.5, "2"], ids=repr)
    def test_rejects_a_degree_that_is_not_an_integer(self, p):
        """True once returned the p = 1 value, 1.128 at t = 1."""
        with pytest.raises(ValueError, match="monomial degree must be an integer"):
            exact_caputo_monomial(p, 1.0, 0.5)

    def test_rejects_a_degree_whose_gamma_overflows(self):
        """Gamma(p + 1) is a float up to p = 170; p = 400 once raised a bare
        OverflowError from gamma."""
        assert 0.0 < exact_caputo_monomial(170, 1.0, 0.5) < math.inf
        for p in (171, 400):
            with pytest.raises(ValueError, match=r"must be an integer in 0\.\.170, got " + str(p)):
                exact_caputo_monomial(p, 2.0, 0.5)

    def test_power_rule_is_the_gamma_ratio_bit_for_bit(self):
        """Degrees 1..6, the ones the verify power-rule check reads."""
        for p in range(1, 7):
            for t, alpha in ((0.8, 0.3), (0.9, 0.71), (1.0, 0.5)):
                want = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha) * t ** (p - alpha)
                assert exact_caputo_monomial(p, t, alpha).hex() == want.hex()

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError) as excinfo:
            exact_caputo_monomial(2, t, 0.5)
        assert repr(t) in str(excinfo.value)


def _exact_stencil_derivative(times, values, s):
    """p'(s) of the stencil polynomial in product form, in exact rationals,
    and the scale sum_l |v_l l_l'(s)| of its terms."""
    x = [Fraction(t) for t in times]
    s = Fraction(s)
    value = scale = Fraction(0)
    for l, v in enumerate(values):
        denom = math.prod(x[l] - x[i] for i in range(len(x)) if i != l)
        basis = sum(
            math.prod(s - x[j] for j in range(len(x)) if j not in (l, i))
            for i in range(len(x))
            if i != l
        )
        term = Fraction(v) * basis / denom
        value += term
        scale += abs(term)
    return value, scale


class TestNewtonDerivative:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("tau", [1.0, 2.0**-6, 2.0**-12])
    def test_matches_exact_stencil_derivative(self, k, tau):
        rng = random.Random(100 * k + int(-math.log2(tau)))
        for _ in range(5):
            anchor = k + rng.randrange(0, 40)
            times = tuple((anchor - k + i) * tau for i in range(k + 1))
            values = tuple(rng.uniform(-1.0, 1.0) for _ in range(k + 1))
            piece = LagrangePiece(times, values, (times[-2], times[-1]), tau)
            assert piece.newton is piece.newton  # computed once per piece
            mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
            points = [*times, *mids, times[0] - tau, times[-1] + tau]
            batched = oracle._piece_derivative(piece, points)
            for s, got in zip(points, batched, strict=True):
                want, scale = _exact_stencil_derivative(times, values, s)
                assert abs(Fraction(got) - want) <= 1e-12 * scale, (k, tau, s)
                # a point's value does not depend on the batch around it
                assert oracle._piece_derivative(piece, [s]) == [got]


class TestPiecewiseOracle:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_monomial_power_rule(self, p):
        interp = monomial_interpolant(p, 0.8)
        for alpha in (0.25, 0.6):
            got = quad_caputo_piecewise(interp, 0.8, alpha, tol=1e-12)
            want = exact_caputo_monomial(p, 0.8, alpha)
            assert got == pytest.approx(want, rel=1e-10)

    def test_requires_matching_endpoint(self):
        interp = monomial_interpolant(2, 0.5)
        with pytest.raises(ValueError):
            quad_caputo_piecewise(interp, 0.75, 0.5)

    def test_rejects_a_non_interpolant(self):
        """A piece, a list or a callable once raised AttributeError on
        t_end here, where the integrated route refused them by name."""
        piece = monomial_interpolant(2, 0.8).pieces[-1]
        for p in (piece, [piece], lambda s: s * s):
            with pytest.raises(ValueError, match="takes an interpolant"):
                quad_caputo_piecewise(p, 0.8, 0.5)

    def test_multi_piece_instance(self):
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=1, beta=0.7, xi=0.4)
        vals = [u(g.time(i)) for i in range(7)]
        interp = build_interpolant(SchemeKind.l12(), g, vals, 6)
        got = quad_caputo_piecewise(interp, g.time(6), 0.5, tol=1e-12)
        assert math.isfinite(got)

    def test_l2_first_step(self):
        """At n = 1 the L2 interpolant is the single L1 piece, and its
        quadrature value is the closed-form L2 value of that node."""
        g = UniformGrid(horizon=1.0, steps=8)
        vals = [math.sin(3.0 * g.time(i)) for i in range(2)]
        interp = build_interpolant(SchemeKind.l2(), g, vals, 1)
        for alpha in (0.05, 0.5, 0.95):
            got = quad_caputo_piecewise(interp, g.time(1), alpha)
            want = discrete_caputo(SchemeKind.l2(), g, vals, 1, alpha).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_stats_report_what_was_achieved(self):
        interp = monomial_interpolant(3, 0.8)
        stats = {"regions": 99}
        got = quad_caputo_piecewise(interp, 0.8, 0.4, tol=1e-12, stats=stats)
        assert got == quad_caputo_piecewise(interp, 0.8, 0.4, tol=1e-12)
        assert stats["regions"] >= 1
        assert 0.0 <= stats["err_estimate"] <= 1e-12

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        interp = monomial_interpolant(2, 0.8)
        with pytest.raises(ValueError, match=r"tolerance must be a real number in \(-inf, inf\)"):
            quad_caputo_piecewise(interp, 0.8, 0.5, tol=tol)

    def test_one_adaptive_integral_per_value(self, monkeypatch):
        g = UniformGrid(horizon=1.0, steps=40)
        u = HolderTestFunction(m=1, beta=0.6, xi=g.time(17))
        vals = [u(g.time(i)) for i in range(41)]
        interp = build_interpolant(SchemeKind.lk(3), g, vals, 40)
        calls = 0
        adaptive = oracle._adaptive

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return adaptive(*args, **kwargs)

        monkeypatch.setattr(oracle, "_adaptive", counting)
        quad_caputo_piecewise(interp, g.time(40), 0.7)
        assert len(interp.pieces) == 40
        assert calls == 1

    @pytest.mark.parametrize(
        "scheme, n, alpha, m, beta, kink",
        [
            (SchemeKind.l1(), 256, 0.852039601071349, 2, 0.8184349418429719, 70),
            (SchemeKind.l12(), 256, 0.8637975149220412, 2, 0.8353246506346091, 90),
            (SchemeKind.lk(4), 256, 0.7962552354876188, 2, 0.8188326107366736, 42),
            (SchemeKind.lk(6), 256, 0.8236037569628104, 2, 0.4859136630989703, 5),
            (SchemeKind.lk(6), 1024, 0.95, 1, 0.5, 512),
        ],
        ids=["L1#1", "L1-2#3", "L1-2-3-4#1", "L1-2-3-4-5-6#1", "L1-2-3-4-5-6,n=1024"],
    )
    def test_fine_grid_reaches_tolerance(self, scheme, n, alpha, m, beta, kink):
        """Fine-grid values that a per-piece share of tol could not reach
        (the first four are benchmark trajectory configurations): one
        integral over all pieces meets tol."""
        g = UniformGrid(horizon=1.0, steps=n)
        u = HolderTestFunction(m=m, beta=beta, xi=g.time(kink))
        vals = [u(g.time(i)) for i in range(n + 1)]
        stats = {}
        interp = build_interpolant(scheme, g, vals, n)
        got = quad_caputo_piecewise(interp, 1.0, alpha, tol=1e-12, stats=stats)
        want = discrete_caputo(scheme, g, vals, n, alpha).value
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert stats["err_estimate"] <= 1e-12
        integrated = quad_caputo_integrated(interp, 1.0, alpha, tol=1e-12)
        assert abs(integrated - want) <= 1e-9 * max(1.0, abs(want))

    def test_seeded_sweep_never_raises(self):
        rng = random.Random(1)
        for _ in range(100):
            scheme = rng.choice(_ALL_SCHEMES)
            alpha = rng.uniform(0.05, 0.95)
            n = rng.randrange(1, 257)
            g = UniformGrid(horizon=1.0, steps=n)
            xi = g.time(rng.randrange(1, n + 1))
            u = HolderTestFunction(m=rng.randrange(0, 3), beta=rng.uniform(0.1, 1.0), xi=xi)
            vals = [u(g.time(i)) for i in range(n + 1)]
            interp = build_interpolant(scheme, g, vals, n)
            got = quad_caputo_piecewise(interp, g.time(n), alpha)
            want = discrete_caputo(scheme, g, vals, n, alpha).value
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (scheme.label, alpha, n)
            integrated = quad_caputo_integrated(interp, g.time(n), alpha)
            assert abs(integrated - want) <= 1e-9 * max(1.0, abs(want)), (scheme.label, alpha, n)


class TestIntegratedOracle:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_monomial_power_rule(self, p):
        interp = monomial_interpolant(p, 0.9)
        for alpha in (0.3, 0.7):
            got = quad_caputo_integrated(interp, 0.9, alpha, tol=1e-11)
            want = exact_caputo_monomial(p, 0.9, alpha)
            assert got == pytest.approx(want, rel=1e-9)

    def test_agrees_with_piecewise_on_interpolants(self):
        result = run_check("derivative-form and integrated-form quadratures agree")
        assert result.ok, result.detail

    def test_one_piece_lookup_per_region(self, monkeypatch):
        """Crosscheck case c140/L1 (n = 31, kink at node 28): every point
        is one of 15 in a Gauss-Kronrod region's batch, read from the one
        piece the region looks up; p(0) is the one single-point read."""
        points = lookups = reads = 0
        evaluate = LagrangePiece.evaluate
        secant = oracle._secant_slope
        piece_at = PiecewisePolynomial.piece_at
        read = PiecewisePolynomial.__call__

        def counted_evaluate(piece, ss):
            nonlocal points
            points += len(ss)
            return evaluate(piece, ss)

        def counted_secant(piece, ss):
            nonlocal points
            points += len(ss)
            return secant(piece, ss)

        def counted_piece_at(interp, s):
            nonlocal lookups
            lookups += 1
            return piece_at(interp, s)

        def counted_read(interp, s):
            nonlocal reads
            reads += 1
            return read(interp, s)

        g = UniformGrid(horizon=1.0, steps=33)
        u = HolderTestFunction(m=1, beta=0.5360585648920434, xi=g.time(28))
        alpha = 0.6648678540080026
        p = build_interpolant(SchemeKind.l1(), g, [u(g.time(i)) for i in range(32)], 31)
        want = quad_caputo_piecewise(p, g.time(31), alpha, tol=1e-12)
        monkeypatch.setattr(LagrangePiece, "evaluate", counted_evaluate)
        monkeypatch.setattr(oracle, "_secant_slope", counted_secant)
        monkeypatch.setattr(PiecewisePolynomial, "piece_at", counted_piece_at)
        monkeypatch.setattr(PiecewisePolynomial, "__call__", counted_read)
        stats = {}
        got = quad_caputo_integrated(p, g.time(31), alpha, tol=1e-11, stats=stats)
        assert points <= 1500
        assert got == pytest.approx(want, rel=1e-9)
        regions, rest = divmod(stats["evaluations"], 15)
        assert rest == 0 and regions >= stats["regions"]
        assert reads == 1
        assert points == stats["evaluations"] + reads
        assert lookups == regions + reads

    def test_c113_l2_integrated_form(self):
        """Crosscheck case c113/L2 (alpha = 0.738), whose quadratic last
        piece once left a dyadic-band tail model drifting 7.2e-6 from the
        derivative form."""
        g = UniformGrid(horizon=1.0, steps=15)
        u = HolderTestFunction(m=2, beta=0.11434350759744143, xi=g.time(10))
        alpha = 0.7384427445363815
        p = build_interpolant(SchemeKind.l2(), g, [u(g.time(i)) for i in range(10)], 9)
        want = quad_caputo_piecewise(p, g.time(9), alpha, tol=1e-12)
        got = quad_caputo_integrated(p, g.time(9), alpha, tol=1e-11)
        assert got == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("n", [2, 9, 32])
    @pytest.mark.parametrize("scheme", _ALL_SCHEMES, ids=lambda s: s.label)
    def test_exact_tail_settles_inside_the_last_piece(self, scheme, n):
        """The secant slope to t_n is a polynomial of degree d - 1 on the
        last piece (degree d), read from its Newton form without
        cancellation, so the integral settles at the pieces' own rate."""
        g = UniformGrid(horizon=1.0, steps=n + 3)
        u = HolderTestFunction(m=1, beta=0.6, xi=g.time(max(1, n // 2)))
        values = [u(g.time(i)) for i in range(n + 1)]
        p = build_interpolant(scheme, g, values, n)
        for alpha in (0.15, 0.5, 0.85):
            stats = {}
            got = quad_caputo_integrated(p, g.time(n), alpha, tol=1e-11, stats=stats)
            want = discrete_caputo(scheme, g, values, n, alpha).value
            assert got == pytest.approx(want, rel=1e-10)
            assert stats["regions"] >= len(p.pieces)
            assert 0.0 <= stats["err_estimate"] <= 1e-11

    @pytest.mark.parametrize("k", range(1, 7))
    def test_secant_slope_matches_exact_difference_quotient(self, k):
        rng = random.Random(8 + k)
        tau = 2.0**-5
        times = tuple((3 + i) * tau for i in range(k + 1))
        values = tuple(rng.uniform(-1.0, 1.0) for _ in range(k + 1))
        piece = LagrangePiece(times, values, (times[-2], times[-1]), tau)
        x = [Fraction(t) for t in times]

        def exact(s):
            s = Fraction(s)
            return sum(
                Fraction(v) * math.prod((s - x[j]) / (x[l] - x[j]) for j in range(k + 1) if j != l)
                for l, v in enumerate(values)
            )

        for s in (times[0], 0.5 * (times[-2] + times[-1]), times[-1] - 1e-9):
            want = (exact(times[-1]) - exact(s)) / (x[-1] - Fraction(s))
            (got,) = oracle._secant_slope(piece, [s])
            assert got == pytest.approx(float(want), rel=1e-11, abs=1e-12), s

    def test_rejects_a_callable(self):
        with pytest.raises(ValueError, match="takes an interpolant"):
            quad_caputo_integrated(lambda s: s * s, 0.8, 0.5)

    def test_rejects_a_last_stencil_past_the_end(self):
        """L2's interior pieces borrow the node ahead: without its final
        piece the interpolant ends at t_(n-1), its last stencil at t_n."""
        g = UniformGrid(horizon=1.0, steps=8)
        values = [math.sin(g.time(i)) for i in range(7)]
        p = build_interpolant(SchemeKind.l2(), g, values, 6)
        head = PiecewisePolynomial(p.pieces[:-1])
        assert head.t_end == g.time(5)
        with pytest.raises(ValueError, match="last stencil ends at"):
            quad_caputo_integrated(head, g.time(5), 0.5)

    def test_rejects_a_time_before_the_end(self):
        interp = monomial_interpolant(2, 0.8)
        with pytest.raises(ValueError):
            quad_caputo_integrated(interp, 0.4, 0.5)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            quad_caputo_integrated(monomial_interpolant(1, 0.5), 0.0, 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError) as excinfo:
            quad_caputo_integrated(monomial_interpolant(1, 0.5), t, 0.5)
        assert repr(t) in str(excinfo.value)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match=r"tolerance must be a real number in \(-inf, inf\)"):
            quad_caputo_integrated(monomial_interpolant(2, 0.8), 0.8, 0.5, tol=tol)


class TestEvaluationCounts:
    """``stats["evaluations"]`` is the number of integrand points taken,
    counted here at the batch evaluator each route reads the pieces by."""

    def _interpolant(self):
        g = UniformGrid(horizon=1.0, steps=12)
        u = HolderTestFunction(m=1, beta=0.4, xi=g.time(7))
        values = [u(g.time(i)) for i in range(11)]
        return build_interpolant(SchemeKind.lk(3), g, values, 10), g.time(10)

    def test_piecewise_counts_derivative_points(self, monkeypatch):
        p, t = self._interpolant()
        counted = 0
        derivative = oracle._piece_derivative

        def counting(piece, points):
            nonlocal counted
            counted += len(points)
            return derivative(piece, points)

        monkeypatch.setattr(oracle, "_piece_derivative", counting)
        stats = {"evaluations": 99}
        quad_caputo_piecewise(p, t, 0.4, tol=1e-12, stats=stats)
        assert len(p.pieces) == 10
        assert stats["evaluations"] == counted > 0

    def test_integrated_counts_batch_points(self, monkeypatch):
        p, t = self._interpolant()
        counted = {"evaluate": 0, "secant": 0}
        evaluate = LagrangePiece.evaluate
        secant = oracle._secant_slope

        def counting_evaluate(piece, points):
            if len(points) > 1:  # the single-point read of p(0) is no integrand point
                counted["evaluate"] += len(points)
            return evaluate(piece, points)

        def counting_secant(piece, points):
            counted["secant"] += len(points)
            return secant(piece, points)

        monkeypatch.setattr(LagrangePiece, "evaluate", counting_evaluate)
        monkeypatch.setattr(oracle, "_secant_slope", counting_secant)
        stats = {}
        quad_caputo_integrated(p, t, 0.4, tol=1e-11, stats=stats)
        assert counted["evaluate"] > 0 and counted["secant"] > 0
        assert stats["evaluations"] == counted["evaluate"] + counted["secant"]
        assert stats["evaluations"] % 15 == 0


# Names of the closed-form route; the oracle must reach its values without them.
_CLOSED_FORM_NAMES = {
    "kernel_moment",
    "kernel_moments",
    "_DERIV",
    "KernelMoment",
    "caputo_of_piece",
    "monomial_coefficients",
    "_BASIS",
    "CaputoWeights",
    "discrete_caputo",
}


def _identifiers(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or "")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_oracle_names_nothing_of_the_closed_form():
    """The oracle is the second route to every scheme value, so it must not
    share code with the first: no name of the closed-form path may appear
    in the oracle, and no name of the oracle's Newton form in the closed
    form."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    assert not _identifiers(tree) & _CLOSED_FORM_NAMES
    # from the package, only the problem's inputs and the interpolants
    package = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert package == {"holder", "interp"}
    # and the closed form reads nothing of the oracle's Newton form
    schemes_tree = ast.parse(Path(schemes.__file__).read_text(encoding="utf-8"))
    assert not _identifiers(schemes_tree) & {"newton", "_piece_derivative"}
