"""Quadrature oracle for cross-checking the closed-form operators.

Two independent routes to the same quantity:

* ``quad_caputo_piecewise`` integrates a scheme interpolant's derivative
  against the kernel numerically, piece by piece.  The final piece is
  transformed with w = (t_n - s)^(1-alpha), which removes the endpoint
  singularity exactly.
* ``quad_caputo_integrated`` evaluates the integrated-by-parts form, whose
  integrand only needs function values.  Dyadic bands clustered at s = t
  resolve the endpoint; the geometric band-to-band decay is extrapolated
  once successive estimates agree.  When u is a scheme interpolant, each
  band starts from the interpolant's piece boundaries inside it, where the
  derivative of u may jump, so refinement never has to hunt for them.

Neither route touches ``kernel_moment``: the adaptive Gauss-Kronrod pair
below is self-contained, and piece derivatives are taken in product form
straight from the stencil data.  The adaptive routine follows QUADPACK's
QAGP: one starting region per pair of consecutive break points, then
global bisection of the worst region.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Callable, Sequence

from .interp import LagrangePiece, PiecewisePolynomial
from .special import _check_alpha, gamma

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


def _adaptive(f: Callable[[float], float], points: Sequence[float], tol: float) -> float:
    """Globally adaptive Gauss-Kronrod over the ascending break points:
    one GK15 region per pair of consecutive points to start, then
    bisection of the worst region until the summed error estimate meets tol."""
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
    return math.fsum(r[3] for r in heap)


def _stencil_denominators(piece: LagrangePiece) -> tuple[float, ...]:
    # denom_l = prod_{i != l} (t_l - t_i) of _piece_derivative, once per piece
    times = piece.node_times
    k = piece.degree
    out = []
    for l in range(k + 1):
        denom = 1.0
        for i in range(k + 1):
            if i != l:
                denom *= times[l] - times[i]
        out.append(denom)
    return tuple(out)


def _piece_derivative(piece: LagrangePiece, s: float, denoms: Sequence[float]) -> float:
    # Derivative of the Lagrange interpolant in product form,
    #   p'(s) = sum_l v_l sum_{i != l} prod_{j != l, i} (s - t_j) / denom_l,
    # built from the stencil alone; shares nothing with the monomial path.
    # ``denoms`` is _stencil_denominators(piece).
    times = piece.node_times
    k = piece.degree
    acc = 0.0
    for l in range(k + 1):
        basis_deriv = 0.0
        for i in range(k + 1):
            if i == l:
                continue
            prod = 1.0
            for j in range(k + 1):
                if j != l and j != i:
                    prod *= s - times[j]
            basis_deriv += prod
        acc += piece.node_values[l] * basis_deriv / denoms[l]
    return acc


def quad_caputo_piecewise(
    p: PiecewisePolynomial,
    t_n: float,
    alpha: float,
    tol: float = 1e-12,
) -> float:
    """Numerical value of the discrete operator applied to interpolant p.

    Integrates (t_n - s)^(-alpha) p'(s) over every piece adaptively and
    divides by Gamma(1 - alpha).
    """
    al = _check_alpha(alpha)
    if not math.isclose(p.t_end, t_n, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"interpolant ends at {p.t_end!r}, expected the evaluation time {t_n!r}")
    tol = max(tol, _MIN_TOL)
    per_piece = tol / (len(p.pieces) + 1)
    contributions = []
    for piece in p.pieces:
        lo, hi = piece.interval
        denoms = _stencil_denominators(piece)
        if hi < t_n * (1.0 - 1e-12) or t_n == 0.0:
            contributions.append(
                _adaptive(
                    lambda s, pc=piece, dn=denoms: (t_n - s) ** (-al)
                    * _piece_derivative(pc, s, dn),
                    [lo, hi],
                    per_piece,
                )
            )
        else:
            # final piece: w = (t_n - s)^(1-alpha) absorbs the singularity
            gamma_exp = 1.0 / (1.0 - al)
            w_top = (t_n - lo) ** (1.0 - al)
            contributions.append(
                gamma_exp
                * _adaptive(
                    lambda w, pc=piece, dn=denoms: _piece_derivative(pc, t_n - w**gamma_exp, dn),
                    [0.0, w_top],
                    per_piece / gamma_exp,
                )
            )
    return math.fsum(contributions) / gamma(1.0 - al)


def quad_caputo_integrated(
    u: Callable[[float], float],
    t: float,
    alpha: float,
    tol: float = 1e-10,
) -> float:
    """Numerical Caputo derivative through the integrated-by-parts form

        (u(t) - u(0)) / (Gamma(1-alpha) t^alpha)
          + alpha/Gamma(1-alpha) int_0^t (u(t) - u(s)) (t - s)^(-1-alpha) ds.

    Only uses point values of u, so it is meaningful for merely Holder
    continuous inputs (exponent above alpha near t).  The integral is taken
    over dyadic bands shrinking toward s = t; once two successive
    tail-extrapolated totals agree to tol/4, or to the cancellation noise
    that the tail model amplifies, the sum is accepted.  When u is
    a ``PiecewisePolynomial``, each band's adaptive quadrature starts from
    the band split at the piece boundaries inside it, where u' may jump;
    any other u starts from the whole band.
    """
    al = _check_alpha(alpha)
    if t <= 0.0:
        raise ValueError(f"evaluation time must be positive, got {t!r}")
    tol = max(tol, _MIN_TOL)
    u_t = u(t)
    breaks = u.right_ends if isinstance(u, PiecewisePolynomial) else ()

    def integrand(s: float) -> float:
        return (u_t - u(s)) * (t - s) ** (-1.0 - al)

    # band-to-band decay for a differentiable u: contributions shrink by
    # 2^-(1-alpha) per halving, which the tail estimate reuses
    ratio = 2.0 ** (al - 1.0)
    tail_factor = ratio / (1.0 - ratio)
    partial: list[float] = []
    noise_sum = 0.0
    prev_total = math.inf
    for i in range(_MAX_BANDS):
        lo = t * (1.0 - 2.0**-i)
        hi = t * (1.0 - 2.0 ** -(i + 1))
        if lo >= hi or t - hi <= 0.0:
            # float resolution under t is exhausted; if the band values were
            # decaying the tail model in prev_total already covers the rest
            if len(partial) >= 8 and abs(partial[-1]) < abs(partial[-5]):
                head = (u_t - u(0.0)) / (gamma(1.0 - al) * t**al)
                return head + al / gamma(1.0 - al) * prev_total
            break
        # near t the difference u(t) - u(s) is pure cancellation, so a band
        # cannot be resolved below roughly eps * |u| * kernel * width
        scale = max(abs(u_t), abs(u(hi)), 1e-300)
        noise = 8.0 * 2.3e-16 * scale * (t - hi) ** (-1.0 - al) * (hi - lo)
        noise_sum += noise
        band_tol = max(tol / (4.0 * (i + 1) * (i + 2)), noise)
        inside = breaks[bisect.bisect_right(breaks, lo) : bisect.bisect_left(breaks, hi)]
        band = _adaptive(integrand, [lo, *inside, hi], band_tol)
        partial.append(band)
        total = math.fsum(partial) + band * tail_factor
        # cancellation noise accumulated across bands bounds what the float
        # route can resolve, so it joins the acceptance threshold; a band's
        # noise enters the total once directly and tail_factor times through
        # the tail estimate
        if i >= 4 and abs(total - prev_total) < max(tol / 4.0, (1.0 + tail_factor) * noise_sum):
            head = (u_t - u(0.0)) / (gamma(1.0 - al) * t**al)
            return head + al / gamma(1.0 - al) * total
        prev_total = total
    best = (u_t - u(0.0)) / (gamma(1.0 - al) * t**al) + al / gamma(1.0 - al) * prev_total
    raise QuadratureConvergenceError(
        "integrated-form bands did not settle; is u Holder with exponent above alpha at t?",
        best,
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
