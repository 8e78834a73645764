"""Gamma function and closed-form moments of the weakly singular kernel.

Everything downstream reduces to integrals of the form

    int_a^b (t - s)^(-alpha) (s - c)^q ds,    0 <= a <= b <= t,  q <= 6,

taken against one monomial of an interpolating polynomial.  These are
evaluated here without quadrature, so the discrete operators built on top
of them are exact up to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FractionalOrder", "KernelMoment", "gamma", "kernel_moment"]


# Binomial table up to the largest monomial degree handled by kernel_moment.
_BINOM = tuple(tuple(math.comb(q, i) for i in range(q + 1)) for q in range(7))

_MAX_MOMENT_DEGREE = 6
_SERIES_MAX_TERMS = 72


@dataclass(frozen=True)
class FractionalOrder:
    """Order of the fractional derivative, restricted to (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha!r}")


def _as_alpha(alpha: FractionalOrder | float) -> float:
    if isinstance(alpha, FractionalOrder):
        return alpha.alpha
    a = float(alpha)
    FractionalOrder(a)
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
    alpha: FractionalOrder

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= self.b <= self.t:
            raise ValueError(
                f"kernel moment needs 0 <= a <= b <= t, got a={self.a}, b={self.b}, t={self.t}"
            )
        if not 0 <= self.q <= _MAX_MOMENT_DEGREE:
            raise ValueError(f"monomial degree must lie in 0..{_MAX_MOMENT_DEGREE}, got {self.q}")


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


def _moment_series(t: float, a: float, b: float, c: float, q: int, alpha: float) -> float:
    # Far from the singularity the binomial sum cancels like ((t-c)/(b-a))^q,
    # so expand the kernel instead:  with v = s - c and w0 = t - c,
    #   (w0 - v)^(-alpha) = w0^(-alpha) sum_j g_j (v/w0)^j,
    # which converges geometrically once |v| <= w0/2.  Every term is a plain
    # monomial integral, and the leading term dominates the sum.
    w0 = t - c
    r1 = (a - c) / w0
    r2 = (b - c) / w0
    p1 = r1 ** (q + 1)
    p2 = r2 ** (q + 1)
    g = 1.0
    terms = [(p2 - p1) / (q + 1.0)]
    scale = abs(terms[0])
    for j in range(1, _SERIES_MAX_TERMS):
        g *= (alpha + j - 1.0) / j
        p1 *= r1
        p2 *= r2
        term = g * (p2 - p1) / (q + j + 1.0)
        terms.append(term)
        scale = max(scale, abs(term))
        if abs(term) <= 1e-17 * scale and j >= 2:
            break
    return _power(w0, q + 1.0 - alpha) * math.fsum(terms)


def kernel_moment(m: KernelMoment) -> float:
    """Evaluate the moment described by ``m`` in closed form.

    Near the singularity (expansion center within two stencil widths of t)
    the direct binomial sum is used; farther away the kernel is expanded in
    a geometric series around t - c, which evaluates the identical quantity
    without the cancellation the binomial form suffers there.
    """
    t, a, b, c, q = m.t, m.a, m.b, m.c, m.q
    alpha = m.alpha.alpha
    if a == b:
        return 0.0
    w0 = t - c
    vmax = max(abs(a - c), abs(b - c))
    if w0 >= 2.0 * vmax and w0 > 0.0:
        return _moment_series(t, a, b, c, q, alpha)
    return _moment_closed(t, a, b, c, q, alpha)
