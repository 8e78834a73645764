"""Gamma function and closed-form moments of the weakly singular kernel.

Everything downstream reduces to integrals of the form

    int_a^b (t - s)^(-alpha) (s - c)^q ds,    0 <= a <= b <= t,  q <= 6,

taken against one monomial of an interpolating polynomial.  These are
evaluated here without quadrature, so the discrete operators built on top
of them are exact up to floating-point rounding.  ``kernel_moments`` gives
all degrees 0..q of one window at once: near the singularity by a finite
binomial sum per degree, farther away by one kernel series per endpoint,
Horner-evaluated from a coefficient table cached per alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = ["KernelMoment", "gamma", "kernel_moment", "kernel_moments"]


# Binomial table up to the largest monomial degree handled by kernel_moment.
_BINOM = tuple(tuple(math.comb(q, i) for i in range(q + 1)) for q in range(7))

_MAX_MOMENT_DEGREE = 6
_SERIES_MAX_TERMS = 72
_LOG_SERIES_TAIL = math.log(0.5e-17)


def _check_alpha(alpha: float) -> float:
    """The fractional order as a float, refused unless it lies in (0, 1)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    return a


def gamma(x: float) -> float:
    """Gamma function for real x > 0 (``math.gamma`` on a checked domain)."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires a positive finite argument, got {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class KernelMoment:
    """Description of one kernel moment int_a^b (t-s)^(-alpha) (s-c)^q ds.

    ``t`` is the evaluation node carrying the singularity, ``[a, b]`` the
    integration window, ``c`` the expansion center of the monomial and
    ``q`` its degree.
    """

    t: float
    a: float
    b: float
    c: float
    q: int
    alpha: float

    def __post_init__(self) -> None:
        _check_moment(self.t, self.a, self.b, self.q, self.alpha)


def _check_moment(t: float, a: float, b: float, q: int, alpha: float) -> float:
    """Check a moment's window, degree and alpha; return the checked alpha."""
    al = _check_alpha(alpha)
    if not 0.0 <= a <= b <= t:
        raise ValueError(f"kernel moment needs 0 <= a <= b <= t, got a={a}, b={b}, t={t}")
    if not 0 <= q <= _MAX_MOMENT_DEGREE:
        raise ValueError(f"monomial degree must lie in 0..{_MAX_MOMENT_DEGREE}, got {q}")
    return al


def _power(w: float, p: float) -> float:
    # w**p through exp/log, with the integrable endpoint w == 0 sent to 0.
    if w == 0.0:
        return 0.0
    return math.exp(p * math.log(w))


def _moment_closed(t: float, a: float, b: float, c: float, q: int, alpha: float) -> float:
    # Substituting w = t - s turns the moment into a finite binomial sum,
    #   sum_i C(q,i) (t-c)^(q-i) (-1)^i [w^(i+1-alpha)/(i+1-alpha)]
    # evaluated between w = t-b and w = t-a.
    tc = t - c
    w_hi = t - a
    w_lo = t - b
    binom = _BINOM[q]
    terms = []
    for i in range(q + 1):
        p = i + 1.0 - alpha
        bracket = (_power(w_hi, p) - _power(w_lo, p)) / p
        sign = -1.0 if i % 2 else 1.0
        terms.append(binom[i] * sign * tc ** (q - i) * bracket)
    return math.fsum(terms)


@functools.lru_cache(maxsize=8)
def _series_coefficients(alpha: float) -> tuple[tuple[float, ...], ...]:
    # G[q][j] = g_j / (q + j + 1), with g_j the coefficients of
    # (1 - x)^(-alpha) = sum_j g_j x^j; a handful of alphas are live at once
    g = [1.0]
    for j in range(1, _SERIES_MAX_TERMS):
        g.append(g[-1] * (alpha + j - 1.0) / j)
    rows = range(_MAX_MOMENT_DEGREE + 1)
    return tuple(tuple(gj / (q + j + 1.0) for j, gj in enumerate(g)) for q in rows)


def kernel_moments(
    t: float, a: float, b: float, c: float, degree: int, alpha: float
) -> tuple[float, ...]:
    """The moments int_a^b (t-s)^(-alpha) (s-c)^q ds for q = 0..degree.

    Near the singularity (expansion center within two stencil widths of t)
    each degree is a direct binomial sum; farther away the kernel is
    expanded in a geometric series around t - c, which evaluates the
    identical quantities without the cancellation the binomial form
    suffers there.  Inputs are checked as by ``KernelMoment``.
    """
    al = _check_moment(t, a, b, degree, alpha)
    if a == b:
        return (0.0,) * (degree + 1)
    w0 = t - c
    vmax = max(abs(a - c), abs(b - c))
    if not (w0 >= 2.0 * vmax and w0 > 0.0):
        return tuple(_moment_closed(t, a, b, c, q, al) for q in range(degree + 1))
    # Far from the singularity the binomial sum cancels like ((t-c)/(b-a))^q,
    # so expand the kernel instead:  with r = (s - c)/w0,
    #   (t - s)^(-alpha) = w0^(-alpha) sum_j g_j r^j,   |r| <= 1/2,
    # and the moment of degree q is w0^(q+1-alpha) [r^(q+1) S_q(r)] from r1
    # to r2, S_q(r) = sum_j G[q][j] r^j.  That difference is taken as
    #   (r2 - r1) [h_q S_q(r2) + r1^(q+1) S_q[r1, r2]],   h_q = sum_i r2^i r1^(q-i),
    # with r2 - r1 = (b - a)/w0 and the divided difference S_q[r1, r2] from
    # the Horner pass for S_q(r2), so endpoints of one sign do not cancel.
    # As g_j <= 1, the terms from J on sum to at most 2 rmax^J times the
    # bound rmax^(q+1)/(q+1) of the leading term; J keeps that below 1e-17.
    r1 = (a - c) / w0
    r2 = (b - c) / w0
    rmax = max(vmax / w0, 1e-300)
    terms = min(_SERIES_MAX_TERMS, math.ceil(_LOG_SERIES_TAIL / math.log(rmax)))
    table = _series_coefficients(al)
    out = []
    p1, h = r1, 1.0
    w0_power = _power(w0, 1.0 - al) * (b - a) / w0
    for q in range(degree + 1):
        s2 = d = 0.0
        row = table[q]
        # indexed rather than sliced: a slice per degree left about 0.4 MB
        # more resident over a trajectory pass, for no measurable speed
        for j in range(terms - 1, -1, -1):
            d = d * r1 + s2
            s2 = s2 * r2 + row[j]
        out.append(w0_power * (h * s2 + p1 * d))
        h = h * r2 + p1
        p1 *= r1
        w0_power *= w0
    return tuple(out)


def kernel_moment(m: KernelMoment) -> float:
    """Entry ``m.q`` of ``kernel_moments`` for the window of ``m``."""
    return kernel_moments(m.t, m.a, m.b, m.c, m.q, m.alpha)[m.q]
