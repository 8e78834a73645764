"""Discrete Caputo operators: exact integration of scheme interpolants.

``CaputoWeights`` is the one route to a node value.  A discrete value at
node n is

    (1/Gamma(1-alpha)) * sum_pieces int (t_n - s)^(-alpha) p'(s) ds.

In grid units sigma = s/tau this is tau^(-alpha)/Gamma(1-alpha) times

    sum_j sum_l u^(anchor-l) int_{j-1}^{j} (n - sigma)^(-alpha) L_l'(sigma) dsigma,

one term per interval I_j of the scheme's layout (``interp._runs``), whose
stencil ends at node anchor = j + offset, and per stencil node l, with L_l'
the derivative of the Lagrange basis polynomial expanded in powers of
(sigma - anchor) (``interp._DERIV``).  The inner sum over sigma depends
only on the lag n - j and on the offset, never on tau or n, so it is a
column of convolution weights (Gao, Sun & Zhang 2014 for L1-2; Lv & Xu
2016 for L2), indexed by lag.  ``CaputoWeights`` keeps, for one (scheme,
alpha) and every grid and node, one weight per node value, the fsum of
the column entries on it: the convolution row c(m) that weighs u^(n-m),
extended on demand, and per node asked a head of at most k weights on its
first node values.  A warm node is one slice product over c, one over its
head and one ``math.fsum``.  A column entry at lag >= 1 is one Horner pass
of a series about the window's midpoint, with exact rational coefficients
per (degree, offset) (``_columns``); lag 0 folds the closed-form moments.
``discrete_caputo`` reads one object per (scheme, alpha) from a cache.

The tests' reference is the per-window route, ``caputo_of_piece``: kernel
moments int_a^b (t - s)^(-alpha) (s - c)^q ds, 0 <= a <= b <= t, q <= 6,
without quadrature, all degrees of one window from one ``kernel_moments``
call: near the singularity a finite binomial sum per degree, farther away
one kernel series per endpoint from a table cached per alpha.  It keeps
its names, with ``gamma``, ``KernelMoment``, ``kernel_moment`` and the
unread ``build_interpolant``, because perfbench/spans.py patches them
(ROADMAP item 13).
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass
from math import gamma
from typing import Callable, Sequence

from .holder import UniformGrid, _check_alpha
from .interp import _DERIV, MAX_DEGREE, LagrangePiece, SchemeKind, _basis_numerators, _check_nodes
from .interp import _runs, build_interpolant, divided_coeff

__all__ = [
    "CaputoWeights",
    "DiscreteCaputoValue",
    "KernelMoment",
    "caputo_of_piece",
    "discrete_caputo",
    "kernel_moment",
    "kernel_moments",
]


_SERIES_MAX_TERMS = 72
_LOG_SERIES_TAIL = math.log(0.5e-17)
# terms of a column series at lag 1, where its ratio 1/(2 lag + 1) is largest
_COLUMN_TERMS = 1 + math.ceil(_LOG_SERIES_TAIL / math.log(1.0 / 3.0))
_BINOM = tuple(tuple(math.comb(q, i) for i in range(q + 1)) for q in range(MAX_DEGREE + 1))


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
        _check_moment(self.t, self.a, self.b, self.c, self.q, self.alpha)


def _check_moment(t: float, a: float, b: float, c: float, q: int, alpha: float) -> float:
    """Check a moment's window, centre, degree and alpha; return the
    checked alpha."""
    al = _check_alpha(alpha)
    if not t < math.inf:
        raise ValueError(f"kernel moment needs a finite evaluation time t, got t={t!r}")
    if not math.isfinite(c):
        raise ValueError(f"kernel moment needs a finite expansion centre c, got c={c!r}")
    if not 0.0 <= a <= b <= t:
        raise ValueError(f"kernel moment needs 0 <= a <= b <= t, got a={a}, b={b}, t={t}")
    if not 0 <= q <= MAX_DEGREE:
        raise ValueError(f"monomial degree must lie in 0..{MAX_DEGREE}, got {q}")
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


def _kernel_coefficients(alpha: float, terms: int) -> list[float]:
    # g_j, j < terms, of (1 - x)^(-alpha) = sum_j g_j x^j; 0 < g_j <= 1
    g = [1.0]
    for j in range(1, terms):
        g.append(g[-1] * (alpha + j - 1.0) / j)
    return g


@functools.lru_cache(maxsize=8)
def _series_coefficients(alpha: float) -> tuple[tuple[float, ...], ...]:
    # G[q][j] = g_j / (q + j + 1); a handful of alphas are live at once
    g = _kernel_coefficients(alpha, _SERIES_MAX_TERMS)
    rows = range(MAX_DEGREE + 1)
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
    al = _check_moment(t, a, b, c, degree, alpha)
    if a == b:
        return (0.0,) * (degree + 1)
    # Far from the singularity the binomial sum cancels like ((t-c)/(b-a))^q,
    # so expand the kernel instead:  with w0 = t - c and r = (s - c)/w0,
    #   (t - s)^(-alpha) = w0^(-alpha) sum_j g_j r^j,   |r| <= 1/2,
    # and the moment of degree q is w0^(q+1-alpha) [r^(q+1) S_q(r)] from r1
    # to r2, S_q(r) = sum_j G[q][j] r^j.  That difference is taken as
    #   (r2 - r1) [h_q S_q(r2) + r1^(q+1) S_q[r1, r2]],   h_q = sum_i r2^i r1^(q-i),
    # with r2 - r1 = (b - a)/w0 and the divided difference S_q[r1, r2] from
    # the Horner pass for S_q(r2), so endpoints of one sign do not cancel.
    # As g_j <= 1, the terms from J on sum to at most 2 rmax^J times the
    # bound rmax^(q+1)/(q+1) of the leading term; J keeps that below 1e-17.
    w0 = t - c
    vmax = max(abs(a - c), abs(b - c))
    if not (w0 >= 2.0 * vmax and w0 > 0.0):
        return tuple(_moment_closed(t, a, b, c, q, al) for q in range(degree + 1))
    r1 = (a - c) / w0
    r2 = (b - c) / w0
    rmax = max(vmax / w0, 1e-300)
    terms = min(_SERIES_MAX_TERMS, math.ceil(_LOG_SERIES_TAIL / math.log(rmax)))
    moments = []
    p1, h = r1, 1.0
    w0_power = w0 ** (1.0 - al) * (b - a) / w0
    for row in _series_coefficients(al)[: degree + 1]:
        s2 = d = 0.0
        for j in range(terms - 1, -1, -1):
            d = d * r1 + s2
            s2 = s2 * r2 + row[j]
        moments.append(w0_power * (h * s2 + p1 * d))
        h = h * r2 + p1
        p1 *= r1
        w0_power *= w0
    return tuple(moments)


@functools.cache
def _midpoint_moments(degree: int, offset: int) -> tuple[tuple[float, ...], ...]:
    # R_l[j] = int_{-1/2}^{1/2} v^j L_l'(v - 1/2 - offset) dv, j < _COLUMN_TERMS,
    # for row l of the degree's Lagrange basis, whose window [-1 - offset,
    # -offset] is v + 1/2 about its midpoint.  With y = 2v, h = -1 - 2 offset
    # and d_l = divided_coeff(k, l), 2^(k-1) d_l L_l'((y + h)/2) is the integer
    # polynomial sum_m A_m y^m, so R_l[j] = sum_{j+m even} A_m/(j+m+1) over
    # d_l 2^(k+j-1): one integer ratio, correctly rounded by one division.
    k, h = degree, -1 - 2 * offset
    rows = []
    for l, poly in enumerate(_basis_numerators(k)):
        lift = [sum(r * poly[r] * 2 ** (k - r) * math.comb(r - 1, m) * h ** (r - 1 - m)
                    for r in range(m + 1, k + 1)) for m in range(k)]
        row = []
        for j in range(_COLUMN_TERMS):
            ms = range(j % 2, k, 2)
            den = math.lcm(*(j + m + 1 for m in ms))
            num = sum(lift[m] * (den // (j + m + 1)) for m in ms)
            row.append(num / (den * divided_coeff(k, l) * 2 ** (k + j - 1)))
        rows.append(tuple(row))
    return tuple(rows)


@functools.lru_cache(maxsize=8)
def _column_series(alpha: float, degree: int, offset: int) -> tuple[tuple[float, ...], ...]:
    # g_j R_l[j], the coefficients of column l's series; as for
    # _series_coefficients, a handful of these are live at once
    g = _kernel_coefficients(alpha, _COLUMN_TERMS)
    return tuple(tuple(map(operator.mul, g, row)) for row in _midpoint_moments(degree, offset))


def _columns(degree: int, offset: int, lags: Sequence[int], al: float) -> list[list[float]]:
    """Column entries w_l(lag) = int_0^1 (lag + 1 - s)^(-al) L_l'(s - 1 - offset) ds,
    l = 0..degree, at each integer lag (one list per l): the unit window
    [0, 1] below t = lag + 1, the degree's piece anchored at 1 + offset.

    Lag 0 folds the closed-form moments with ``_DERIV``.  At lag >= 1, with
    d = lag + 1/2 the distance from the window's midpoint to t,

        w_l = d^(-al) sum_j g_j R_l[j] d^(-j),   R_l from ``_midpoint_moments``,

    one Horner pass in 1/d per column.  The window ends on grid nodes, so
    R_l[0] = L_l(-offset) - L_l(-1 - offset) is exactly 0 or +-1 and no
    column cancels in its leading term.  As |R_l[j]| <= 2^-j max|L_l'| and
    g_j <= 1, term j falls like (2 lag + 1)^-j, at most 3^-j; J terms keep
    the tail below 1e-17 of the first nonzero one, one term later when
    R_l[0] = 0.
    """
    rows = _column_series(al, degree, offset)
    cols: list[list[float]] = [[] for _ in rows]
    terms = 0
    for lag in lags:
        if lag == 0:
            moments = [_moment_closed(1.0, 0.0, 1.0, 1.0 + offset, q, al) for q in range(degree)]
            for col, row in zip(cols, _DERIV[degree]):
                col.append(math.fsum(map(operator.mul, row, moments)))
            continue
        d = lag + 0.5
        x = 1.0 / d
        scale = d**-al
        need = min(_COLUMN_TERMS, 1 + math.ceil(_LOG_SERIES_TAIL / -math.log(2.0 * d)))
        if need != terms:
            # each row's first terms, highest first, shared by a run of lags
            terms = need
            heads = [row[terms - 1 :: -1] for row in rows]
        for col, head in zip(cols, heads):
            s = 0.0
            for c in head:
                s = s * x + c
            col.append(scale * s)
    return cols


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


class CaputoWeights:
    """Weights of one scheme at one alpha, in grid units, shared by every
    grid and node they are asked for.

    Interval I_j of node n, with a degree-k piece anchored at j + offset,
    contributes sum_l u^(j+offset-l) w_l(lag) for lag = n - j, the column
    entries of ``_columns``: they depend on the lag alone, never on j or n.
    Node n is sum_i W(n, i) u^i, W(n, i) the fsum of every column entry on
    u^i.  Let lo = ``scheme.degree``, the first node the steady run (the
    run of ``interp._runs`` that grows with n) covers fully, and
    h = min(n + 1, lo).  For i >= h, only the steady run and L2's final
    interval reach u^i, at lags fixed by m = n - i, so W(n, i) is entry m
    of the row c(m), shared by every node.  For i < h, W(n, i) is entry i
    of node n's head, computed when node n is first asked for and kept as
    lo floats per node in one array (nan until then).  A fill evaluates
    only the lags whose entries land on a node value no kept weight covers:
    the row's new lags and at most k seam lags below them, and the startup
    intervals.  The row grows on demand and is published in one
    assignment, never touching one a concurrent ``value`` may be reading,
    and a head is written in one slice assignment, so threads may share one
    object.  For L1 the row's partial sums are b_m / (1 - alpha), the
    weights ``verify`` checks in closed form.
    """

    def __init__(self, scheme: SchemeKind, alpha: float) -> None:
        self.scheme = scheme
        self.alpha = _check_alpha(alpha)
        self._lo = scheme.degree
        self._store = ([], array("d"))

    def value(
        self,
        grid: UniformGrid,
        u: Callable[[float], float] | Sequence[float],
        n: int,
    ) -> float:
        """Discrete Caputo value of u at node n of the grid, as
        ``discrete_caputo`` defines it, bit for bit."""
        vals = _check_nodes(grid, u, n)
        h = min(n + 1, self._lo)
        row, heads = self._store
        head = heads[n * self._lo : n * self._lo + h]
        # the row may be one published by a call that reached fewer lags
        if not head or math.isnan(head[0]) or len(row) <= n - h:
            row, head = self._fill(n)
        # u^n..u^h against c(0..n-h), u^0..u^(h-1) against the head; fsum is
        # correctly rounded, so the order of the products is immaterial
        products = [*map(operator.mul, vals[n : h - 1 : -1], row), *map(operator.mul, vals, head)]
        return math.fsum(products) * grid.tau ** (-self.alpha) / gamma(1.0 - self.alpha)

    def _fill(self, n: int) -> tuple[list[float], array]:
        """Publish node n's head and the row entries it reads; return (row, head)."""
        lo = self._lo
        row, heads = self._store
        h = min(n + 1, lo)
        # u^0..u^top: the head's node values and those the row does not reach
        top = max(h - 1, n - len(row))
        on = [[] for _ in range(top + 1)]
        for degree, offset, first, last in _runs(self.scheme, n):
            # entry l at lag n - j lands on u^(j + offset - l): the intervals
            # j whose stencil reaches down to u^top or below
            lags = range(max(n - last, n - top + offset - degree), n - first + 1)
            for l, col in enumerate(_columns(degree, offset, lags, self.alpha)):
                for i, w in zip(range(n - lags.start + offset - l, -1, -1), col):
                    if i <= top:
                        on[i].append(w)
        if len(row) <= n - lo:
            row = row + [math.fsum(on[n - m]) for m in range(len(row), n - lo + 1)]
        at = n * lo
        if len(heads) < at + lo:
            # by an eighth at least, so a trajectory copies its heads O(log n) times
            heads = heads + array("d", [math.nan]) * (max(at + lo, len(heads) * 9 // 8) - len(heads))
        head = array("d", [math.fsum(on[i]) for i in range(h)])
        heads[at : at + h] = head
        self._store = (row, heads)
        return row, head


@functools.lru_cache(maxsize=16)
def _shared_weights(scheme: SchemeKind, alpha: float) -> CaputoWeights:
    # room for the 14 (scheme, alpha) of the four built-in studies
    return CaputoWeights(scheme, alpha)


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
    linear (L1) first step.  The value is a fresh ``CaputoWeights``'s, bit
    for bit, read from a cache of the last 16 (scheme, alpha) pairs (the
    four built-in studies use 14), each holding its row to the deepest lag
    and k weights per node up to the deepest node asked for: at most
    16 x 2.6 MB, for L1-...-6 at n = 2^15.
    """
    weights = _shared_weights(scheme, _check_alpha(alpha))
    value = weights.value(grid, u, n)
    return DiscreteCaputoValue(
        scheme=scheme, node=n, time=grid.time(n), alpha=weights.alpha, value=value
    )

