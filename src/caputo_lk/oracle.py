"""Quadrature oracle for cross-checking the closed-form operators.

Two independent routes to the same quantity, both one adaptive integral
over (0, t_n] in w = (t_n - s)^(1-alpha), which removes the endpoint
singularity exactly, with the pieces' ends as break points
(``_w_integral``):

* ``quad_caputo_piecewise`` integrates a scheme interpolant's derivative
  against the kernel.
* ``quad_caputo_integrated`` evaluates the integrated-by-parts form, whose
  integrand is the interpolant's secant slope to t_n: function values only.

Neither route touches ``kernel_moment``: the adaptive Gauss-Kronrod pair
below is self-contained, and both routes read an interpolant through its
pieces' Newton form (``LagrangePiece.newton``, divided differences of the
stencil data): the integrated route by the Horner pass of
``piece.evaluate``, on the last piece over the form less its first term;
the piecewise route through the derivative of the same form.  The
adaptive routine follows QUADPACK's QAGP: one starting region per pair of
consecutive break points, then global bisection of the worst region within
a per-call budget; it returns why it stopped short, and only
``_w_integral`` raises.  Each piece has one GK15 rule per route, built
once with the piece's Horner steps: its starting region and every region
bisected from it call that rule, which evaluates its 15 nodes in one loop,
so no region looks its piece up.
"""

from __future__ import annotations

import heapq
import math
from math import gamma
from typing import Callable, Sequence

from .holder import _check_alpha, _check_count, _check_real
from .interp import LagrangePiece, PiecewisePolynomial

__all__ = [
    "QuadratureConvergenceError",
    "quad_caputo_piecewise",
    "quad_caputo_integrated",
    "exact_caputo_monomial",
]

_MIN_TOL = 1e-14
_MAX_DEPTH = 40
_MAX_REGIONS = 20000  # regions one call may add by bisection

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)
# The nodes' offsets from the centre in half-widths, in the order a rule
# evaluates them and a batch integrand receives them: the centre, then each
# Kronrod abscissa as a (-x, +x) pair, outermost first.
_OFFSETS = (0.0, *(x for a in _XK[:7] for x in (-a, a)))

Integrand = Callable[[Sequence[float]], Sequence[float]]
Rule = Callable[[float, float], tuple[float, float]]  # (a, b) -> (value, error estimate)


class QuadratureConvergenceError(RuntimeError):
    """Raised when adaptive refinement stalls; carries the best estimate (``args[1]``)."""

    def __init__(self, message: str, best: float):
        super().__init__(message, best)
        self.best = best

    def __str__(self) -> str:
        return f"{self.args[0]} (best estimate {self.best!r})"


def _sums(v: Sequence[float], half: float) -> tuple[float, float]:
    # the Kronrod value and |Kronrod - Gauss| of one region from its 15 values in
    # _OFFSETS order, each sum added in that order, pair by pair, outermost first
    (k0, k1, k2, k3, k4, k5, k6, k7), (g0, g1, g2, g3) = _WK, _WG
    p1, p3, p5 = v[3] + v[4], v[7] + v[8], v[11] + v[12]
    kron = (k7 * v[0] + k0 * (v[1] + v[2]) + k1 * p1 + k2 * (v[5] + v[6])
            + k3 * p3 + k4 * (v[9] + v[10]) + k5 * p5 + k6 * (v[13] + v[14])) * half
    gauss = (g3 * v[0] + g0 * p1 + g1 * p3 + g2 * p5) * half
    return kron, abs(kron - gauss)


def _gk15(f: Integrand, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return _sums(f([mid + half * x for x in _OFFSETS]), half)


def _adaptive(rules: Sequence[Rule], points: Sequence[float], tol: float) -> tuple[float, str | None, dict]:
    """Globally adaptive Gauss-Kronrod over the ascending break points:
    one GK15 region per pair of consecutive points to start, then
    bisection of the worst region until the summed error estimate meets tol.
    ``rules[i]`` maps a region (a, b) within points[i]..points[i + 1] to its
    GK15 value and error estimate, and both halves of a bisected region
    inherit its rule.  Returns the sum of the final regions, the reason
    refinement stopped short of tol or None, and the counts: the summed
    error estimate, the regions and ``evaluations``, 15 per rule call.
    The constants are QUADPACK's cut to 15 digits (Kronrod weights sum to
    2 - 6.0e-15, Gauss to 2 + 9.4e-16), so |K - G| has a floor near 3.5e-15
    of the integral of |f| that bisection never lowers: a tol under it spends the budget."""
    tol = max(tol, _MIN_TOL)
    heap = []
    total_err = 0.0
    for i, (lo, hi) in enumerate(zip(points, points[1:])):
        if lo == hi:
            continue
        value, err = rules[i](lo, hi)
        heap.append((-err, lo, hi, value, 0, i))
        total_err += err
    heapq.heapify(heap)
    starting = evaluated = len(heap)  # GK15 regions
    failure = None
    while total_err > tol:
        if len(heap) - starting >= _MAX_REGIONS:
            failure = "adaptive quadrature exceeded the region budget"
            break
        # the worst region, at heap[0], is the one bisected next
        if heap[0][4] >= _MAX_DEPTH:
            failure = f"adaptive quadrature exceeded depth {_MAX_DEPTH}"
            break
        neg_err, lo, hi, val, depth, i = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = rules[i](lo, mid)
        v2, e2 = rules[i](mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1, depth + 1, i))
        heapq.heappush(heap, (-e2, mid, hi, v2, depth + 1, i))
        total_err += e1 + e2 + neg_err
        evaluated += 2
    try:
        value = math.fsum(r[3] for r in heap)
    except (OverflowError, ValueError):  # the sum overflows, or meets inf - inf
        value = math.nan
    return value, failure, {"err_estimate": total_err, "regions": len(heap),
                            "evaluations": len(_OFFSETS) * evaluated}


def _piece_derivative(piece: LagrangePiece, t_n: float, gamma_exp: float) -> Rule:
    # the rule for gamma_exp * p'(s), s = t_n - w^gamma_exp, on one piece: Horner's
    # rule for p and p' together on the Newton form p(s) = c_0 + (s - x_0)(c_1 + ...),
    # the piece's cached differences, so nothing is shared with the monomial path
    c = piece.newton
    top = c[-1]
    steps = tuple(zip(piece.node_times[1:], c[-2::-1]))

    def rule(a: float, b: float) -> tuple[float, float]:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        values = []
        for x in _OFFSETS:
            s = t_n - (mid + half * x) ** gamma_exp
            p = top
            dp = 0.0
            for xi, ci in steps:
                d = s - xi
                dp = dp * d + p
                p = p * d + ci
            values.append(gamma_exp * dp)
        return _sums(values, half)

    return rule


def _secant_slope(piece: LagrangePiece, t_n: float, gamma_exp: float, u_t: float | None) -> Rule:
    # the rule for gamma_exp * (u_t - p(s)) / (t_n - s), p(s) by piece.evaluate's
    # Horner pass; on the last piece (u_t None), anchored at x_0 = t_n, the Newton
    # form less its first term, c_1 + (s - x_1)(c_2 + ...), so nothing cancels at t_n
    c = piece.newton
    top = c[-1]
    steps = tuple(zip(piece.node_times[1:], c[-2::-1]))
    if u_t is None:
        steps = steps[:-1]

    def rule(a: float, b: float) -> tuple[float, float]:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        values = []
        for x in _OFFSETS:
            s = t_n - (mid + half * x) ** gamma_exp
            p = top
            for xi, ci in steps:
                p = p * (s - xi) + ci
            values.append(gamma_exp * (p if u_t is None else (u_t - p) / (t_n - s)))
        return _sums(values, half)

    return rule


def _check_call(p, t_n: float, alpha: float, tol: float, stats: dict | None) -> tuple[float, ...]:
    """Refuse a bad argument before either route reads p; return alpha, t_n and tol."""
    al = _check_alpha(alpha)
    if not isinstance(p, PiecewisePolynomial):
        raise ValueError(f"the oracle takes an interpolant, got {type(p).__name__}")
    if stats is not None and not isinstance(stats, dict):
        raise ValueError(f"stats must be a dict or None, got type {type(stats).__name__}")
    return al, _check_real(t_n, "evaluation time t_n"), _check_real(tol, "tolerance")


def _w_integral(
    p: PiecewisePolynomial,
    t_n: float,
    al: float,
    rule: Callable[[LagrangePiece, float, float], Rule],
    tol: float,
    stats: dict | None,
    head: float,
    coef: float,
) -> float:
    """head + coef * I, I = int_0^t_n (t_n - s)^(-alpha) f(s) ds, f a route's
    integrand: a route's value.  I is one adaptive integral in
    w = (t_n - s)^(1-alpha), which removes the endpoint singularity exactly,
    with the pieces' ends as break points and ``tol`` bounding I; each piece's
    regions call its ``rule(piece, t_n, gamma_exp)``, the GK15 rule in w of
    gamma_exp * f, gamma_exp = 1/(1-alpha).  A ``stats`` dict receives ``regions``,
    ``evaluations`` (15 per rule call) and ``err_estimate``, the
    summed final Gauss-Kronrod error estimates times coef, settled or not.
    A value that is not finite raises ValueError naming t_n, before a stall
    raises QuadratureConvergenceError with head + coef * (I's best estimate)."""
    if not math.isclose(p.t_end, t_n, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"interpolant ends at {p.t_end!r}, expected the evaluation time {t_n!r}")
    gamma_exp = 1.0 / (1.0 - al)
    pieces = p.pieces[::-1]  # w = 0 at t_n: the last piece comes first
    points = [0.0, *((t_n - q.interval[0]) ** (1.0 - al) for q in pieces)]
    w, failure, counts = _adaptive([rule(q, t_n, gamma_exp) for q in pieces], points, tol)
    if stats is not None:
        stats.update(counts, err_estimate=coef * counts["err_estimate"])
    value = head + coef * w
    if not math.isfinite(value):
        raise ValueError(f"the value at t_n = {t_n!r} overflows: its node values are too large")
    if failure is not None:
        raise QuadratureConvergenceError(failure, value)
    return value


def quad_caputo_piecewise(
    p: PiecewisePolynomial,
    t_n: float,
    alpha: float,
    tol: float = 1e-12,
    stats: dict | None = None,
) -> float:
    """Numerical value of the discrete operator applied to interpolant p:
    the integral of (t_n - s)^(-alpha) p'(s) over (0, t_n] by
    ``_w_integral``, with head 0 and coef 1/Gamma(1 - alpha).  ``tol`` and
    ``stats`` are ``_w_integral``'s; the error estimate, and a failure's
    best estimate, are in value units."""
    al, t_n, tol = _check_call(p, t_n, alpha, tol, stats)
    return _w_integral(p, t_n, al, _piece_derivative, tol, stats, 0.0, 1.0 / gamma(1.0 - al))


def quad_caputo_integrated(
    p: PiecewisePolynomial,
    t_n: float,
    alpha: float,
    tol: float = 1e-10,
    stats: dict | None = None,
) -> float:
    """The same value through the integrated-by-parts form

        (p(t_n) - p(0)) / (Gamma(1-alpha) t_n^alpha)
          + alpha/Gamma(1-alpha) int_0^t_n (p(t_n) - p(s)) (t_n - s)^(-1-alpha) ds,

    which reads only values of p.  The integrand is the secant slope
    (p(t_n) - p(s)) / (t_n - s) against the kernel (t_n - s)^(-alpha), so
    ``_w_integral`` takes it: from ``piece.evaluate`` on every piece but
    the last, and from the last piece's Newton form without its first term,
    which has no cancellation at t_n.  That needs p's last stencil to end
    at t_n, as every ``build_interpolant`` result's does; anything else
    raises ``ValueError``.  ``_w_integral`` takes head, the first term,
    and coef = alpha/Gamma(1-alpha), and its ``tol`` and ``stats``; the
    error estimate, and a failure's best estimate, are in value units.
    """
    al, t_n, tol = _check_call(p, t_n, alpha, tol, stats)
    last = p.pieces[-1]
    if not math.isclose(last.node_times[-1], t_n, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(
            f"the last stencil ends at {last.node_times[-1]!r}, not at the evaluation time {t_n!r}"
        )
    u_t = last.newton[0]  # p(t_n), the node value at the anchor

    def slope(piece: LagrangePiece, t_n: float, gamma_exp: float) -> Rule:
        return _secant_slope(piece, t_n, gamma_exp, None if piece is last else u_t)

    g = gamma(1.0 - al)
    head = (u_t - p(0.0)) / (g * t_n**al)
    return _w_integral(p, t_n, al, slope, tol, stats, head, al / g)


def exact_caputo_monomial(p: int, t: float, alpha: float) -> float:
    """Caputo derivative of t^p: Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha),
    and zero for the constant p = 0.  The degree p is an integer in 0..170,
    where Gamma(p+1) is a float; any other p, or a value past float range, raises ValueError."""
    _check_count(p, "monomial degree", 0, 170)
    if not 0.0 <= _check_real(t, "time"):
        raise ValueError(f"time must be nonnegative, got {t!r}")
    al = _check_alpha(alpha)
    if p == 0 or t == 0.0:
        return 0.0
    try:
        value = gamma(p + 1.0) / gamma(p + 1.0 - al) * t ** (p - al)
    except OverflowError:  # float ** raises where * gives inf
        value = math.inf
    if value == math.inf:
        raise ValueError(f"the derivative of t^{p} at t = {t!r} overflows")
    return value
