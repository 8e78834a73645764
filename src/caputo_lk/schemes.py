"""Discrete Caputo operators: exact integration of scheme interpolants.

A discrete value at node n is

    (1/Gamma(1-alpha)) * sum_pieces int (t_n - s)^(-alpha) p'(s) ds.

In grid units sigma = s/tau this is tau^(-alpha)/Gamma(1-alpha) times

    sum_j sum_l u^(anchor-l) int_{j-1}^{j} (n - sigma)^(-alpha) L_l'(sigma) dsigma,

one term per interval I_j of the scheme's layout (``interp._layout``) and
per stencil node l, with L_l' the derivative of the Lagrange basis
polynomial expanded in powers of (sigma - anchor) (``interp._DERIV``).
Everything thus reduces to kernel moments

    int_a^b (t - s)^(-alpha) (s - c)^q ds,    0 <= a <= b <= t,  q <= 6,

evaluated here without quadrature, so the operators are exact up to
floating-point rounding.  One ``kernel_moments`` call gives all degrees
0..q of one window: near the singularity a finite binomial sum per degree,
farther away one kernel series per endpoint, Horner-evaluated from a
coefficient table cached per alpha and shorter the farther t is.  A node
costs n such calls on integer-valued windows and builds no interpolant.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from math import gamma
from typing import Callable, Sequence

from .holder import UniformGrid, _check_alpha
# build_interpolant is not called here and caputo_of_piece is the tests'
# per-piece reference route; both stay module names, like gamma, KernelMoment
# and kernel_moment, because perfbench/spans.py patches them (ROADMAP item 6)
from .interp import _DERIV, LagrangePiece, SchemeKind, _check_nodes, _layout, build_interpolant

__all__ = [
    "DiscreteCaputoValue",
    "KernelMoment",
    "caputo_of_piece",
    "discrete_caputo",
    "kernel_moment",
    "kernel_moments",
    "l1_weights",
    "l1_convolution",
]


_MAX_MOMENT_DEGREE = 6
_SERIES_MAX_TERMS = 72
_LOG_SERIES_TAIL = math.log(0.5e-17)
_BINOM = tuple(tuple(math.comb(q, i) for i in range(q + 1)) for q in range(_MAX_MOMENT_DEGREE + 1))


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
        bracket = (w_hi**p - w_lo**p) / p
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
    w0_power = w0 ** (1.0 - al) * (b - a) / w0
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


@dataclass(frozen=True)
class DiscreteCaputoValue:
    """Result of one single-node evaluation of a discrete Caputo operator."""

    scheme: SchemeKind
    node: int
    time: float
    alpha: float
    value: float


def caputo_of_piece(
    piece: LagrangePiece,
    interval: tuple[float, float],
    t_n: float,
    alpha: float,
) -> float:
    """Kernel-weighted integral of one piece derivative over a subinterval.

    Computes (1/Gamma(1-alpha)) int_a^b (t_n - s)^(-alpha) p'(s) ds exactly.
    The derivative is expanded around the rightmost stencil node, which for
    the final piece of every scheme coincides with the singularity at t_n
    and keeps the expansion well conditioned where the kernel is largest.
    """
    a, b = interval
    lo, hi = piece.interval
    slack = piece.tau * 1e-9
    if a < lo - slack or b > hi + slack:
        raise ValueError(f"integration window {interval!r} outside piece validity {piece.interval!r}")
    if b > t_n + slack:
        raise ValueError(f"integration window {interval!r} reaches past the evaluation time {t_n!r}")
    b = min(b, t_n)
    al = _check_alpha(alpha)
    center = piece.node_times[-1]
    coeffs = piece.monomial_coefficients()
    tau = piece.tau
    moments = kernel_moments(t_n, a, b, center, piece.degree - 1, al)
    terms = []
    tau_r = 1.0
    for r in range(1, piece.degree + 1):
        tau_r *= tau
        terms.append(r * coeffs[r] / tau_r * moments[r - 1])
    return math.fsum(terms) / gamma(1.0 - al)


def discrete_caputo(
    scheme: SchemeKind,
    grid: UniformGrid,
    u: Callable[[float], float] | Sequence[float],
    n: int,
    alpha: float,
) -> DiscreteCaputoValue:
    """Discrete Caputo derivative of u at node n under the given scheme.

    ``u`` may be a callable sampled at the nodes or a sequence of node
    values covering u^0..u^n.  At n = 1 every scheme collapses to the
    linear (L1) first step.
    """
    al = _check_alpha(alpha)
    values = [u(grid.time(i)) for i in range(n + 1)] if callable(u) else u
    vals = _check_nodes(grid, values, n)
    # in grid units every window end is an integer, so the moments' window
    # arithmetic is exact whatever tau is
    t = float(n)
    terms = []
    for degree, anchor, j in _layout(scheme, n):
        moments = kernel_moments(t, j - 1.0, float(j), float(anchor), degree - 1, al)
        terms.extend(
            vals[anchor - l] * sum(map(operator.mul, row, moments))
            for l, row in enumerate(_DERIV[degree])
        )
    total = math.fsum(terms) * grid.tau ** (-al) / gamma(1.0 - al)
    return DiscreteCaputoValue(scheme=scheme, node=n, time=grid.time(n), alpha=al, value=total)


def l1_weights(n: int, alpha: float) -> list[float]:
    """Convolution weights b_j = (j+1)^(1-alpha) - j^(1-alpha) of the L1
    scheme, for lags j = 0..n-1.  Positive and strictly decreasing."""
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    p = 1.0 - _check_alpha(alpha)
    return [(j + 1.0) ** p - float(j) ** p for j in range(n)]


def l1_convolution(values: Sequence[float], tau: float, alpha: float) -> float:
    """L1 value at the last node through the weight form
    tau^(-alpha)/Gamma(2-alpha) sum_j b_{n-j} (u^j - u^{j-1})."""
    n = len(values) - 1
    if n < 1:
        raise ValueError("need node values u^0..u^n with n >= 1")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"step size must be positive and finite, got {tau!r}")
    for j, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"node value u^{j} is not finite: {v!r}")
    al = _check_alpha(alpha)
    weights = l1_weights(n, al)
    acc = math.fsum(
        weights[n - j] * (values[j] - values[j - 1]) for j in range(1, n + 1)
    )
    return acc * tau ** (-al) / gamma(2.0 - al)
