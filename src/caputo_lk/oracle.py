"""Quadrature oracle for cross-checking the closed-form operators.

Two independent routes to the same quantity:

* ``quad_caputo_piecewise`` integrates a scheme interpolant's derivative
  against the kernel numerically, piece by piece.  The final piece is
  transformed with w = (t_n - s)^(1-alpha), which removes the endpoint
  singularity exactly.
* ``quad_caputo_integrated`` evaluates the integrated-by-parts form, whose
  integrand only needs function values.  Dyadic bands clustered at s = t
  resolve the endpoint, and the bands not taken are summed from the last
  few: exactly for a scheme interpolant, whose band values inside its last
  piece are a known mixture of geometric sequences, and by the one-ratio
  decay of a differentiable function otherwise.  For an interpolant each
  band starts from its piece boundaries inside it, where the derivative
  of u may jump, so refinement never has to hunt for them.

Neither route touches ``kernel_moment``: the adaptive Gauss-Kronrod pair
below is self-contained, and piece derivatives are taken in Newton form
from divided differences of the stencil data.  The adaptive routine
follows QUADPACK's QAGP: one starting region per pair of consecutive
break points, then global bisection of the worst region.
"""

from __future__ import annotations

import bisect
import heapq
import math
from math import gamma
from typing import Callable, Sequence

from .holder import _check_alpha
from .interp import LagrangePiece, PiecewisePolynomial

__all__ = [
    "QuadratureConvergenceError",
    "quad_caputo_piecewise",
    "quad_caputo_integrated",
    "exact_caputo_monomial",
]

_MIN_TOL = 1e-14
_MAX_DEPTH = 40
_MAX_REGIONS = 20000
_MAX_BANDS = 64

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


class QuadratureConvergenceError(RuntimeError):
    """Raised when adaptive refinement stalls; carries the best estimate."""

    def __init__(self, message: str, best: float):
        super().__init__(f"{message} (best estimate {best!r})")
        self.best = best


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _WK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = half * _XK[i]
        lo = f(mid - x)
        hi = f(mid + x)
        kron += _WK[i] * (lo + hi)
        if i % 2 == 1:
            gauss += _WG[i // 2] * (lo + hi)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def _adaptive(
    f: Callable[[float], float],
    points: Sequence[float],
    tol: float,
    stats: dict | None = None,
) -> float:
    """Globally adaptive Gauss-Kronrod over the ascending break points:
    one GK15 region per pair of consecutive points to start, then
    bisection of the worst region until the summed error estimate meets tol.
    A ``stats`` dict gains the final error estimate and region count."""
    tol = max(tol, _MIN_TOL)
    heap = []
    total_err = 0.0
    for lo, hi in zip(points, points[1:]):
        if lo == hi:
            continue
        value, err = _gk15(f, lo, hi)
        heap.append((-err, lo, hi, value, 0))
        total_err += err
    if not heap:
        return 0.0
    heapq.heapify(heap)
    while total_err > tol:
        if len(heap) >= _MAX_REGIONS:
            raise QuadratureConvergenceError(
                "adaptive quadrature exceeded the region budget",
                math.fsum(r[3] for r in heap),
            )
        neg_err, lo, hi, val, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise QuadratureConvergenceError(
                f"adaptive quadrature exceeded depth {_MAX_DEPTH}",
                math.fsum(r[3] for r in heap) + val,
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1, depth + 1))
        heapq.heappush(heap, (-e2, mid, hi, v2, depth + 1))
        total_err += e1 + e2 + neg_err
    if stats is not None:
        stats["err_estimate"] = stats.get("err_estimate", 0.0) + total_err
        stats["regions"] = stats.get("regions", 0) + len(heap)
    return math.fsum(r[3] for r in heap)


def _newton_coefficients(piece: LagrangePiece) -> tuple[float, ...]:
    # Divided differences c_j = p[x_0, ..., x_j] over the stencil taken
    # newest node first (x_0 is the rightmost node), from the node values
    # alone; once per piece per call
    xs = piece.node_times[::-1]
    c = list(piece.node_values[::-1])
    for j in range(1, piece.degree + 1):
        for i in range(piece.degree, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    return tuple(c)


def _piece_derivative(piece: LagrangePiece, s: float, coeffs: Sequence[float]) -> float:
    # p'(s) of the Newton form p(s) = c_0 + (s - x_0)(c_1 + (s - x_1)(c_2 + ...)),
    # by Horner's rule for p and p' together; ``coeffs`` is
    # _newton_coefficients(piece), so nothing is shared with the monomial path
    times = piece.node_times
    k = piece.degree
    p = coeffs[k]
    dp = 0.0
    for i in range(k - 1, -1, -1):
        d = s - times[k - i]
        dp = dp * d + p
        p = p * d + coeffs[i]
    return dp


def quad_caputo_piecewise(
    p: PiecewisePolynomial,
    t_n: float,
    alpha: float,
    tol: float = 1e-12,
    stats: dict | None = None,
) -> float:
    """Numerical value of the discrete operator applied to interpolant p.

    Integrates (t_n - s)^(-alpha) p'(s) over every piece adaptively and
    divides by Gamma(1 - alpha).  A ``stats`` dict receives ``regions`` and
    ``err_estimate``, the summed final Gauss-Kronrod error estimates.
    """
    al = _check_alpha(alpha)
    if not math.isclose(p.t_end, t_n, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"interpolant ends at {p.t_end!r}, expected the evaluation time {t_n!r}")
    tol = max(tol, _MIN_TOL)
    if stats is not None:
        stats.update(err_estimate=0.0, regions=0)
    per_piece = tol / (len(p.pieces) + 1)
    gamma_exp = 1.0 / (1.0 - al)
    contributions = []
    for piece in p.pieces:
        lo, hi = piece.interval
        c = _newton_coefficients(piece)
        # each integrand is consumed by _adaptive before piece and c move on
        if hi < t_n * (1.0 - 1e-12) or t_n == 0.0:
            f = lambda s: (t_n - s) ** (-al) * _piece_derivative(piece, s, c)
            points = [lo, hi]
        else:
            # final piece: w = (t_n - s)^(1-alpha) absorbs the singularity
            f = lambda w: gamma_exp * _piece_derivative(piece, t_n - w**gamma_exp, c)
            points = [0.0, (t_n - lo) ** (1.0 - al)]
        contributions.append(_adaptive(f, points, per_piece, stats))
    g = gamma(1.0 - al)
    if stats is not None:
        stats["err_estimate"] /= g
    return math.fsum(contributions) / g


def _tail_weights(ratios: Sequence[float]) -> tuple[float, ...]:
    # A sequence sum_r A_r ratio_r^i obeys the recurrence whose
    # characteristic polynomial is P(x) = prod_r (x - ratio_r) = sum_j e_j x^j;
    # summing the recurrence over i gives sum_{i >= 0} b_i = sum_{m < d} w_m b_m
    # with w_m = (e_{m+1} + ... + e_d) / P(1)
    e = [1.0]
    for rho in ratios:
        e = [0.0, *e]
        for j in range(len(e) - 1):
            e[j] -= rho * e[j + 1]
    p_one = math.fsum(e)
    return tuple(math.fsum(e[m + 1 :]) / p_one for m in range(len(ratios)))


def quad_caputo_integrated(
    u: Callable[[float], float],
    t: float,
    alpha: float,
    tol: float = 1e-10,
    stats: dict | None = None,
) -> float:
    """Numerical Caputo derivative through the integrated-by-parts form

        (u(t) - u(0)) / (Gamma(1-alpha) t^alpha)
          + alpha/Gamma(1-alpha) int_0^t (u(t) - u(s)) (t - s)^(-1-alpha) ds.

    Only uses point values of u, so it is meaningful for merely Holder
    continuous inputs (exponent above alpha near t).  The integral is taken
    over dyadic bands shrinking toward s = t; a tail model sums the rest.
    When u is a ``PiecewisePolynomial`` whose last piece has degree d, the
    band values inside that piece are exactly sum_{r=1..d} A_r rho_r^i with
    rho_r = 2^(alpha-r), so the last d bands fix the whole remainder.  Any
    other u takes the d = 1 model of a differentiable function from band 3
    on.  Two successive totals agreeing to tol/4, or to the cancellation
    noise the tail amplifies, are accepted.  For an interpolant each band's
    adaptive quadrature starts from the piece boundaries inside it, where
    u' may jump.  A ``stats`` dict receives ``err_estimate`` and
    ``regions`` as in ``quad_caputo_piecewise``, ``bands`` and
    ``tail_degree`` (d).
    """
    al = _check_alpha(alpha)
    if t <= 0.0:
        raise ValueError(f"evaluation time must be positive, got {t!r}")
    tol = max(tol, _MIN_TOL)
    if stats is not None:
        stats.update(err_estimate=0.0, regions=0)
    u_t = u(t)
    if isinstance(u, PiecewisePolynomial):
        breaks = u.right_ends
        degree = u.pieces[-1].degree
        model_start = u.pieces[-1].interval[0]
    else:
        # no piece to wait for: the one-ratio model holds from band 3 on
        breaks, degree = (), 1
        model_start = t * (1.0 - 2.0**-3)

    def integrand(s: float) -> float:
        return (u_t - u(s)) * (t - s) ** (-1.0 - al)

    def finish(total: float) -> float:
        g = gamma(1.0 - al)
        if stats is not None:
            stats.update(bands=len(partial), tail_degree=degree)
            stats["err_estimate"] *= al / g
        return (u_t - u(0.0)) / (g * t**al) + al / g * total

    weights = _tail_weights([2.0 ** (al - r) for r in range(1, degree + 1)])
    amplify = math.fsum(abs(w) for w in weights)
    partial: list[float] = []
    unmodelled = 0  # bands that start before model_start
    noise_sum = 0.0
    prev_total = math.inf
    for i in range(_MAX_BANDS):
        lo = t * (1.0 - 2.0**-i)
        hi = t * (1.0 - 2.0 ** -(i + 1))
        if lo >= hi or t - hi <= 0.0:
            # float resolution under t is exhausted before two totals agreed;
            # the last total carries noise-dominated bands, so it is no result
            break
        # near t the difference u(t) - u(s) is pure cancellation, so a band
        # cannot be resolved below roughly eps * |u| * kernel * width
        scale = max(abs(u_t), abs(u(hi)), 1e-300)
        noise = 8.0 * 2.3e-16 * scale * (t - hi) ** (-1.0 - al) * (hi - lo)
        noise_sum += noise
        band_tol = max(tol / (4.0 * (i + 1) * (i + 2)), noise)
        inside = breaks[bisect.bisect_right(breaks, lo) : bisect.bisect_left(breaks, hi)]
        partial.append(_adaptive(integrand, [lo, *inside, hi], band_tol, stats))
        if lo < model_start:
            unmodelled = i + 1
        if i + 1 - unmodelled < degree:
            continue
        tail = zip(weights, partial[-degree:])
        total = math.fsum(partial[:-degree]) + math.fsum(w * b for w, b in tail)
        # cancellation noise accumulated across bands bounds what the float
        # route can resolve, so it joins the acceptance threshold; a band's
        # noise reaches the total through the tail weights
        if abs(total - prev_total) < max(tol / 4.0, amplify * noise_sum):
            return finish(total)
        prev_total = total
    raise QuadratureConvergenceError(
        "integrated-form bands did not settle before float resolution or the band"
        " budget ran out; is u Holder with exponent above alpha at t?",
        finish(prev_total),
    )


def exact_caputo_monomial(p: int, t: float, alpha: float) -> float:
    """Caputo derivative of t^p: Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha),
    and zero for the constant p = 0."""
    if p < 0:
        raise ValueError(f"monomial degree must be nonnegative, got {p}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    al = _check_alpha(alpha)
    if p == 0:
        return 0.0
    if t == 0.0:
        return 0.0
    return gamma(p + 1.0) / gamma(p + 1.0 - al) * t ** (p - al)
