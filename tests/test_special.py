"""Tests for the fractional-order check (``holder._check_alpha``) and the
singular kernel moments of ``schemes``."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from caputo_lk import schemes
from caputo_lk.harness import order_interior
from caputo_lk.holder import HolderTestFunction, UniformGrid, _check_alpha
from caputo_lk.interp import SchemeKind, build_interpolant
from caputo_lk.oracle import exact_caputo_monomial, quad_caputo_integrated, quad_caputo_piecewise
from caputo_lk.schemes import (
    CaputoWeights,
    KernelMoment,
    caputo_of_piece,
    discrete_caputo,
    kernel_moment,
    kernel_moments,
)


def moment(t, a, b, c, q, alpha):
    return kernel_moment(KernelMoment(t=t, a=a, b=b, c=c, q=q, alpha=alpha))


def scalar_moments(t, a, b, c, degree, al, table):
    """The moments of degrees 0..degree at one evaluation time, one coupled
    two-accumulator Horner pass per degree: the reference that pins
    ``kernel_moments`` bit for bit."""
    if a == b:
        return (0.0,) * (degree + 1)
    w0 = t - c
    vmax = max(abs(a - c), abs(b - c))
    if not (w0 >= 2.0 * vmax and w0 > 0.0):
        return tuple(schemes._moment_closed(t, a, b, c, q, al) for q in range(degree + 1))
    r1 = (a - c) / w0
    r2 = (b - c) / w0
    rmax = max(vmax / w0, 1e-300)
    terms = min(schemes._SERIES_MAX_TERMS, math.ceil(schemes._LOG_SERIES_TAIL / math.log(rmax)))
    out = []
    p1, h = r1, 1.0
    w0_power = w0 ** (1.0 - al) * (b - a) / w0
    for q in range(degree + 1):
        s2 = d = 0.0
        row = table[q]
        for j in range(terms - 1, -1, -1):
            d = d * r1 + s2
            s2 = s2 * r2 + row[j]
        out.append(w0_power * (h * s2 + p1 * d))
        h = h * r2 + p1
        p1 *= r1
        w0_power *= w0
    return tuple(out)


_BAD_ALPHAS = [0.0, 1.0, -0.2, 1.7, math.nan, math.inf]

_GRID = UniformGrid(horizon=1.0, steps=8)
_VALUES = [t * t for t in (_GRID.time(i) for i in range(5))]
_INTERPOLANT = build_interpolant(SchemeKind.l2(), _GRID, _VALUES, 4)

# every public entry that takes the fractional order, called on valid
# inputs apart from alpha
_ALPHA_ENTRIES = {
    "discrete_caputo": lambda al: discrete_caputo(SchemeKind.l2(), _GRID, _VALUES, 4, al),
    "caputo_of_piece": lambda al: caputo_of_piece(
        _INTERPOLANT.pieces[-1], _INTERPOLANT.pieces[-1].interval, _GRID.time(4), al
    ),
    "KernelMoment": lambda al: KernelMoment(t=1.0, a=0.0, b=0.5, c=0.0, q=1, alpha=al),
    "kernel_moments": lambda al: kernel_moments(1.0, 0.0, 0.5, 0.0, 1, al),
    "quad_caputo_piecewise": lambda al: quad_caputo_piecewise(_INTERPOLANT, _GRID.time(4), al),
    "quad_caputo_integrated": lambda al: quad_caputo_integrated(_INTERPOLANT, _GRID.time(4), al),
    "exact_caputo_monomial": lambda al: exact_caputo_monomial(2, 0.5, al),
    "CaputoWeights": lambda al: CaputoWeights(SchemeKind.l1(), al),
    "order_interior": lambda al: order_interior(
        SchemeKind.l1(), HolderTestFunction(m=1, beta=0.5, xi=0.5), al, 2.0**-4
    ),
}


class TestFractionalOrder:
    def test_accepts_interior(self):
        assert _check_alpha(0.5) == 0.5
        half = _check_alpha(Fraction(1, 2))
        assert half == 0.5 and type(half) is float

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_boundary(self, bad):
        with pytest.raises(ValueError):
            _check_alpha(bad)

    @pytest.mark.parametrize("bad", _BAD_ALPHAS)
    @pytest.mark.parametrize("entry", list(_ALPHA_ENTRIES))
    def test_every_entry_rejects(self, entry, bad):
        """The one range check guards every public entry taking alpha."""
        with pytest.raises(ValueError, match="fractional order"):
            _ALPHA_ENTRIES[entry](bad)


class TestKernelMoment:
    def test_constant_closed_form(self):
        """q = 0 has the elementary antiderivative
        ((t-a)^(1-alpha) - (t-b)^(1-alpha)) / (1-alpha)."""
        rng = random.Random(5)
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.5, 2.0)
            a = rng.uniform(0.0, 0.8) * t
            b = rng.uniform(a, t)
            want = ((t - a) ** (1 - alpha) - (t - b) ** (1 - alpha)) / (1 - alpha)
            assert moment(t, a, b, 0.0, 0, alpha) == pytest.approx(want, rel=1e-12)

    def test_empty_window_is_zero(self):
        assert moment(1.0, 0.5, 0.5, 0.25, 3, 0.4) == 0.0

    def test_frozen_interior_window(self):
        # int_0.25^0.5 (1-s)^-0.3 (s-0.25)^2 ds, pinned from adaptive
        # Gauss-Kronrod quadrature of the raw integrand
        got = moment(1.0, 0.25, 0.5, 0.25, 2, 0.3)
        assert got == pytest.approx(0.006198138677198917, rel=1e-12)

    def test_frozen_singular_endpoint(self):
        # window ending at the singularity s = t; pinned from quadrature
        # after the substitution w = (t-s)^(1-alpha)
        got = moment(1.0, 0.875, 1.0, 0.875, 1, 0.7)
        assert got == pytest.approx(0.171758567714149, rel=1e-12)

    def test_frozen_far_field(self):
        # expansion center far from the singularity exercises the series
        # evaluation path; pinned from raw-integrand quadrature
        got = moment(2.0, 0.0, 0.125, 0.0, 4, 0.5)
        assert got == pytest.approx(4.4329609507138325e-06, rel=1e-11)

    def test_window_additivity(self):
        rng = random.Random(23)
        for _ in range(40):
            alpha = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.5, 2.0)
            a = rng.uniform(0.0, 0.6) * t
            b = rng.uniform(a / t + 1e-3, 0.999) * t
            mid = rng.uniform(a, b)
            c = rng.uniform(0.0, b)
            q = rng.randrange(0, 7)
            whole = moment(t, a, b, c, q, alpha)
            split = moment(t, a, mid, c, q, alpha) + moment(t, mid, b, c, q, alpha)
            assert whole == pytest.approx(split, rel=1e-9, abs=1e-18)

    def test_recentring_identity(self):
        """Recentring the monomial is a binomial combination of lower
        moments; the two evaluation paths must agree on it."""
        rng = random.Random(31)
        for _ in range(30):
            alpha = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.5, 2.0)
            a = rng.uniform(0.0, 0.5) * t
            b = rng.uniform(a / t + 1e-3, 0.99) * t
            c = rng.uniform(0.0, b)
            cp = rng.uniform(0.0, b)
            q = rng.randrange(0, 6)
            lhs = moment(t, a, b, cp, q, alpha)
            rhs = math.fsum(
                math.comb(q, j) * (c - cp) ** (q - j) * moment(t, a, b, c, j, alpha)
                for j in range(q + 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-18)

    def test_positive_when_integrand_positive(self):
        # c at or left of the window keeps (s-c)^q >= 0
        assert moment(1.0, 0.5, 0.75, 0.5, 3, 0.6) > 0.0
        assert moment(1.0, 0.5, 0.75, 0.25, 2, 0.6) > 0.0

    def test_rejects_bad_window(self):
        for evaluate in (moment, kernel_moments):
            with pytest.raises(ValueError, match="0 <= a <= b <= t"):
                evaluate(1.0, 0.75, 0.5, 0.0, 1, 0.5)
            with pytest.raises(ValueError, match="0 <= a <= b <= t"):
                evaluate(1.0, 0.5, 1.25, 0.0, 1, 0.5)
            with pytest.raises(ValueError, match="monomial degree"):
                evaluate(1.0, 0.25, 0.5, 0.0, 7, 0.5)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_centre(self, c):
        """A NaN centre once gave (0.586, nan): the closed form's degree 0
        does not read c."""
        for evaluate in (moment, kernel_moments):
            with pytest.raises(ValueError, match="expansion centre c"):
                evaluate(1.0, 0.25, 0.5, c, 1, 0.5)

    def test_rejects_infinite_time(self):
        """t = inf once passed the window check and gave (nan, nan)."""
        for evaluate in (moment, kernel_moments):
            with pytest.raises(ValueError, match="evaluation time t"):
                evaluate(math.inf, 0.25, 0.5, 0.0, 1, 0.5)

    def test_batch_matches_single_moments(self):
        """Entry q of one batched call is the moment of degree q, bit for
        bit, on both branches and for the empty window."""
        rng = random.Random(17)
        for _ in range(40):
            alpha = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.5, 2.0)
            a = rng.uniform(0.0, 0.6) * t
            b = rng.choice([a, rng.uniform(a, t)])
            c = rng.uniform(0.0, b)
            batch = kernel_moments(t, a, b, c, 6, alpha)
            assert len(batch) == 7
            assert batch == tuple(moment(t, a, b, c, q, alpha) for q in range(7))

    def test_batch_kernel_matches_scalar_reference(self):
        """``kernel_moments``, all degrees of one window in one call, gives
        bit for bit (signed zeros included) the scalar kernel at each
        evaluation time: degrees 0..6, windows that end at the centre and
        windows that do not, runs of times that cross the closed/series
        switch and several term counts, and the empty window."""
        rng = random.Random(31)

        def bits(rows):
            return [tuple(map(float.hex, row)) for row in rows]

        def kernel(ts, a, b, c, degree, alpha):
            return [schemes.kernel_moments(t, a, b, c, degree, alpha) for t in ts]

        crossed = terms_seen = 0
        for degree in range(7):
            for alpha in (1e-3, rng.uniform(0.05, 0.95), 0.999):
                table = schemes._series_coefficients(alpha)
                for at_centre in (True, False):
                    a = rng.uniform(0.0, 1.0)
                    b = a + rng.uniform(0.01, 1.0)
                    c = b if at_centre else rng.uniform(a - 0.5, b + 1.0)
                    vmax = max(abs(a - c), abs(b - c))
                    # from before the switch w0 = 2 vmax to 60 vmax beyond it
                    start = max(b, c + rng.uniform(0.5, 1.9) * vmax)
                    ts = sorted(start + rng.uniform(0.0, 60.0) * vmax for _ in range(40))
                    ts.insert(0, start)
                    got = kernel(ts, a, b, c, degree, alpha)
                    want = [scalar_moments(t, a, b, c, degree, alpha, table) for t in ts]
                    assert bits(got) == bits(want), (degree, alpha, a, b, c)
                    w0s = [t - c for t in ts]
                    crossed += min(w0s) < 2.0 * vmax <= max(w0s)
                    tail = schemes._LOG_SERIES_TAIL
                    counts = {math.ceil(tail / math.log(vmax / w)) for w in w0s if w >= 2.0 * vmax}
                    terms_seen += len(counts) > 1
                # the integer windows of the per-piece route, lags 0..40
                for offset in (0, 1):
                    ts = [lag + 1.0 for lag in range(41)]
                    got = kernel(ts, 0.0, 1.0, 1.0 + offset, degree, alpha)
                    want = [scalar_moments(t, 0.0, 1.0, 1.0 + offset, degree, alpha, table) for t in ts]
                    assert bits(got) == bits(want), (degree, alpha, offset)
                got = kernel([0.75, 1.0, 5.0], 0.5, 0.5, 0.25, degree, alpha)
                assert bits(got) == bits([(0.0,) * (degree + 1)] * 3)
        assert crossed == terms_seen == 42

    def test_precision_at_the_series_switch(self):
        """Against a 40-digit quadrature, error relative to
        int (t-s)^-alpha |s-c|^q ds, on two sets of inputs: random windows
        on both sides of the switch w0 = 2 vmax, and one-step windows L
        steps behind t, centred as in a backward stencil (c = b) or an L2
        interior piece (c = b + tau).  The series side stays near 1e-15
        (9e-16 measured); the closed side loses digits to cancellation in
        its binomial sum as q grows (4.3e-11 measured, at q = 6).  Both
        bounds sit just above what was measured.  No window reaches t, so
        every integrand is smooth and Gauss-Legendre converges fast."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(5)
        cases = []
        for q in range(7):
            for alpha in (1e-3, 0.5, 0.999):
                for _ in range(4):
                    vmax = rng.uniform(0.05, 0.25)
                    w0 = rng.uniform(1.5, 2.5) * vmax
                    t, c = 1.0, 1.0 - w0
                    edge = c - vmax if rng.random() < 0.5 else c + vmax
                    a, b = sorted((edge, c + rng.uniform(-0.9, 0.9) * vmax))
                    cases.append((t, a, b, c, q, alpha))
        tau = 2.0**-14
        for lag in (2, 3, 5, 17, 100, 1000, 2**14):
            b = 1.0 - (lag - 1) * tau
            for c in (b, b + tau):
                for q in range(7):
                    for alpha in (1e-3, 0.3, 0.7, 0.999):
                        cases.append((1.0, b - tau, b, c, q, alpha))
        worst: dict[bool, float] = {}  # series side? -> worst error
        for t, a, b, c, q, alpha in cases:
            got = moment(t, a, b, c, q, alpha)
            with mpmath.workdps(40):
                T, A, B, C, al = map(mpmath.mpf, (t, a, b, c, alpha))
                pts = [A, C, B] if a < c < b else [A, B]
                gl = "gauss-legendre"
                want = mpmath.quad(lambda s: (T - s) ** -al * (s - C) ** q, pts, method=gl)
                scale = mpmath.quad(lambda s: (T - s) ** -al * abs(s - C) ** q, pts, method=gl)
            series = t - c >= 2.0 * max(abs(a - c), abs(b - c))
            err = float(abs(got - want) / scale)
            worst[series] = max(worst.get(series, 0.0), err)
        assert worst[True] <= 5e-15
        assert worst[False] <= 1e-10
