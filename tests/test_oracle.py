"""Tests for the adaptive quadrature oracle."""

from __future__ import annotations

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from caputo_lk import interp as interp_module
from caputo_lk import oracle
from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.interp import LagrangePiece, PiecewisePolynomial, SchemeKind, build_interpolant
from caputo_lk.oracle import (
    QuadratureConvergenceError,
    exact_caputo_monomial,
    quad_caputo_integrated,
    quad_caputo_piecewise,
)
from caputo_lk.schemes import discrete_caputo
from caputo_lk.verify import _ALL_SCHEMES, run_check


def monomial_interpolant(p: int, t_end: float) -> PiecewisePolynomial:
    """One degree-p piece over (0, t_end) interpolating s^p exactly."""
    tau = t_end / p if p > 0 else t_end
    times = tuple(i * tau for i in range(p + 1))
    piece = LagrangePiece(
        degree=max(p, 1),
        anchor=p,
        node_times=times if p > 0 else (0.0, t_end),
        node_values=tuple(s**p for s in times) if p > 0 else (1.0, 1.0),
        interval=(0.0, t_end),
        tau=tau,
    )
    return PiecewisePolynomial(pieces=(piece,))


class TestAdaptiveCore:
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
            val, err = oracle._gk15(poly, a, b)
            assert val == pytest.approx(exact, rel=1e-13)
            assert err <= 1e-11 * max(1.0, abs(exact))

    def test_adaptive_smooth(self):
        got = oracle._adaptive(math.exp, [0.0, 1.0], 1e-13)
        assert got == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_adaptive_oscillatory(self):
        got = oracle._adaptive(lambda s: math.sin(20.0 * s), [0.0, 2.0], 1e-12)
        want = (1.0 - math.cos(40.0)) / 20.0
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_adaptive_substituted_singularity(self):
        """The production route integrates singular-endpoint kernels after
        the substitution w = (t-s)^(1-alpha), which makes the integrand
        polynomially smooth; the raw singular form is never passed in."""
        t, al = 1.0, 0.5
        p = 1.0 - al
        # int_0^t (t-s)^-al s ds via the substitution, against the exact
        # Beta-function value t^(2-al) / ((1-al)(2-al))
        got = oracle._adaptive(lambda w: t - w ** (1.0 / p), [0.0, t**p], 1e-13) / p
        want = t ** (2 - al) / ((1 - al) * (2 - al))
        assert got == pytest.approx(want, rel=1e-12)

    def test_stall_carries_best_estimate(self):
        # an interior algebraic singularity at an irrational point defeats
        # bisection refinement at this tolerance; the failure must still
        # transport the accumulated estimate
        c = 1.0 / math.sqrt(7.0)
        with pytest.raises(QuadratureConvergenceError) as info:
            oracle._adaptive(lambda s: abs(s - c) ** -0.5, [0.0, 1.0], 1e-14)
        best = info.value.best
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

        got = oracle._adaptive(kink, [0.0, c, 1.0], 1e-14)
        assert got == pytest.approx(0.5 * (c * c + (1.0 - c) ** 2), rel=0.0, abs=1e-13)
        assert calls <= 60

    def test_depth_error_names_the_limit(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_DEPTH", 3)
        c = 1.0 / math.sqrt(7.0)
        with pytest.raises(QuadratureConvergenceError, match="exceeded depth 3 "):
            oracle._adaptive(lambda s: abs(s - c) ** -0.5, [0.0, 1.0], 1e-14)


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
            piece = LagrangePiece(k, anchor, times, values, (times[-2], times[-1]), tau)
            coeffs = oracle._newton_coefficients(piece)
            mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
            for s in [*times, *mids, times[0] - tau, times[-1] + tau]:
                want, scale = _exact_stencil_derivative(times, values, s)
                got = oracle._piece_derivative(piece, s, coeffs)
                assert abs(Fraction(got) - want) <= 1e-12 * scale, (k, tau, s)


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


class TestIntegratedOracle:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_monomial_power_rule(self, p):
        for alpha in (0.3, 0.7):
            got = quad_caputo_integrated(lambda s: s**p, 0.9, alpha, tol=1e-11)
            want = exact_caputo_monomial(p, 0.9, alpha)
            assert got == pytest.approx(want, rel=1e-9)

    def test_frozen_holder_value(self):
        """Low-regularity probe (m = 0) where only the integrated form is
        meaningful; value pinned from a tail-extrapolated dyadic-band run."""
        u = HolderTestFunction(m=0, beta=0.9, xi=0.5)
        got = quad_caputo_integrated(u, 0.75, 0.5, tol=1e-11)
        assert got == pytest.approx(0.17292951293090558, rel=5e-9)

    def test_agrees_with_piecewise_on_interpolants(self):
        result = run_check("derivative-form and integrated-form quadratures agree")
        assert result.ok, result.detail

    def test_interpolant_bands_start_at_piece_boundaries(self, monkeypatch):
        """Crosscheck case c140/L1 (n = 31, kink at node 28): with the bands
        split at the grid nodes it takes 654 interpolant evaluations, where
        bisecting toward each derivative jump took 9804."""
        calls = 0
        evaluate = interp_module.lagrange_eval

        def counted(piece, s):
            nonlocal calls
            calls += 1
            return evaluate(piece, s)

        g = UniformGrid(horizon=1.0, steps=33)
        u = HolderTestFunction(m=1, beta=0.5360585648920434, xi=g.time(28))
        alpha = 0.6648678540080026
        p = build_interpolant(SchemeKind.l1(), g, [u(g.time(i)) for i in range(32)], 31)
        want = quad_caputo_piecewise(p, g.time(31), alpha, tol=1e-12)
        monkeypatch.setattr(interp_module, "lagrange_eval", counted)
        got = quad_caputo_integrated(p, g.time(31), alpha, tol=1e-11)
        assert calls <= 1500
        assert got == pytest.approx(want, rel=1e-7)

    def test_c113_l2_integrated_form(self):
        """Crosscheck case c113/L2 (alpha = 0.738): the quadratic tail
        settles once two bands lie inside the last piece.  A tail model
        that misses the quadratic term leaves the totals drifting until
        acceptance fires deep among noise-dominated bands, 7.2e-6 from
        the derivative form when it is measured against the bare noise
        sum."""
        g = UniformGrid(horizon=1.0, steps=15)
        u = HolderTestFunction(m=2, beta=0.11434350759744143, xi=g.time(10))
        alpha = 0.7384427445363815
        p = build_interpolant(SchemeKind.l2(), g, [u(g.time(i)) for i in range(10)], 9)
        want = quad_caputo_piecewise(p, g.time(9), alpha, tol=1e-12)
        got = quad_caputo_integrated(p, g.time(9), alpha, tol=1e-11)
        assert got == pytest.approx(want, rel=1e-7)

    def test_exhausted_resolution_raises(self):
        """u(s) = -(1 - s)^0.75 at t = 1, alpha = 0.5: two totals never
        agree before float resolution under t runs out (53 bands).  The
        last total, 4.5e-5 from the exact 3/sqrt(pi) while the error
        estimate reads 2.3e-12, comes back as the error's best estimate,
        not as a result."""
        with pytest.raises(QuadratureConvergenceError, match="did not settle") as info:
            quad_caputo_integrated(lambda s: -((1.0 - s) ** 0.75), 1.0, 0.5, tol=1e-10)
        exact = 3.0 / math.sqrt(math.pi)
        assert info.value.best == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("n", [2, 9, 32])
    @pytest.mark.parametrize("scheme", _ALL_SCHEMES, ids=lambda s: s.label)
    def test_exact_tail_settles_inside_the_last_piece(self, scheme, n):
        """Band values inside the last piece (degree d) are exactly
        sum_r A_r 2^((alpha-r) i), so the sum settles one band after d
        bands lie inside it, about log2(n) bands in."""
        g = UniformGrid(horizon=1.0, steps=n + 3)
        u = HolderTestFunction(m=1, beta=0.6, xi=g.time(max(1, n // 2)))
        values = [u(g.time(i)) for i in range(n + 1)]
        p = build_interpolant(scheme, g, values, n)
        d = p.pieces[-1].degree
        for alpha in (0.15, 0.5, 0.85):
            stats = {}
            got = quad_caputo_integrated(p, g.time(n), alpha, tol=1e-11, stats=stats)
            want = discrete_caputo(scheme, g, values, n, alpha).value
            assert got == pytest.approx(want, rel=1e-10)
            assert stats["tail_degree"] == d
            assert stats["bands"] <= math.ceil(math.log2(n)) + d + 3
            assert stats["regions"] >= stats["bands"]
            assert 0.0 <= stats["err_estimate"] <= 1e-11

    def test_tail_weights_sum_the_geometric_mixture(self):
        rng = random.Random(6)
        for d in range(1, 7):
            ratios = [2.0 ** (0.3 - r) for r in range(1, d + 1)]
            amps = [rng.uniform(-1.0, 1.0) for _ in ratios]
            bands = [math.fsum(a * rho**i for a, rho in zip(amps, ratios)) for i in range(d)]
            want = math.fsum(a / (1.0 - rho) for a, rho in zip(amps, ratios))
            weights = oracle._tail_weights(ratios)
            got = math.fsum(w * b for w, b in zip(weights, bands))
            assert got == pytest.approx(want, rel=1e-13, abs=1e-14)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            quad_caputo_integrated(lambda s: s, 0.0, 0.5)


# Names of the closed-form route; the oracle must reach its values without them.
_CLOSED_FORM_NAMES = {
    "kernel_moment",
    "kernel_moments",
    "_DERIV",
    "KernelMoment",
    "caputo_of_piece",
    "monomial_coefficients",
    "_BASIS",
    "l1_weights",
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
    share code with the first: no name of the closed-form path may appear."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    assert not _identifiers(tree) & _CLOSED_FORM_NAMES
    # from the package, only the problem's inputs and the interpolants
    package = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert package == {"holder", "interp"}
