"""Quadrature oracle for cross-checking the closed-form operators.

Two independent routes to the same quantity:

* ``quad_caputo_piecewise`` integrates a scheme interpolant's derivative
  against the kernel numerically, as one adaptive integral over (0, t_n]
  in w = (t_n - s)^(1-alpha), which removes the endpoint singularity
  exactly; the pieces' ends are its break points.
* ``quad_caputo_integrated`` evaluates the integrated-by-parts form, whose
  integrand only needs function values.  Dyadic bands clustered at s = t
  resolve the endpoint, and the bands not taken are summed from the last
  few: exactly for a scheme interpolant, whose band values inside its last
  piece are a known mixture of geometric sequences, and by the one-ratio
  decay of a differentiable function otherwise.  For an interpolant each
  band starts from its piece boundaries inside it, where the derivative
  of u may jump, so refinement never has to hunt for them.

Neither route touches ``kernel_moment``: the adaptive Gauss-Kronrod pair
below is self-contained, and both routes read an interpolant through its
pieces' Newton form (``LagrangePiece.newton``, divided differences of the
stencil data): the integrated route through ``piece.evaluate``, the
piecewise route through the derivative of the same form.  The adaptive
routine follows QUADPACK's QAGP: one starting region per pair of
consecutive break points, then global bisection of the worst region
within a per-call budget.  Integrands take a batch: each Gauss-Kronrod
region passes its 15 nodes in one call and gets their values back as a
list, so an interpolant's piece is looked up once per region.
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
_MAX_REGIONS = 20000  # regions one call may add by bisection
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
# The nodes' offsets from the centre in half-widths, in the order a batch
# integrand receives them: the centre, then each Kronrod abscissa as a
# (-x, +x) pair, outermost first.
_OFFSETS = (0.0, *(x for a in _XK[:7] for x in (-a, a)))

Integrand = Callable[[Sequence[float]], Sequence[float]]


class QuadratureConvergenceError(RuntimeError):
    """Raised when adaptive refinement stalls; carries the best estimate."""

    def __init__(self, message: str, best: float):
        super().__init__(f"{message} (best estimate {best!r})")
        self.best = best


def _gk15(f: Integrand, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    v = f([mid + half * x for x in _OFFSETS])
    kron = _WK[7] * v[0]
    gauss = _WG[3] * v[0]
    for i in range(7):
        pair = v[2 * i + 1] + v[2 * i + 2]
        kron += _WK[i] * pair
        if i % 2 == 1:
            gauss += _WG[i // 2] * pair
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def _adaptive(
    f: Integrand,
    points: Sequence[float],
    tol: float,
    stats: dict | None = None,
) -> float:
    """Globally adaptive Gauss-Kronrod over the ascending break points:
    one GK15 region per pair of consecutive points to start, then
    bisection of the worst region until the summed error estimate meets tol.
    ``f`` maps a batch of points to their values.  A ``stats`` dict gains
    the final error estimate and region count, and ``evaluations``, the
    points passed to ``f``."""
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
    starting = evaluated = len(heap)  # GK15 regions
    while total_err > tol:
        if len(heap) - starting >= _MAX_REGIONS:
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
        evaluated += 2
    if stats is not None:
        stats["err_estimate"] = stats.get("err_estimate", 0.0) + total_err
        stats["regions"] = stats.get("regions", 0) + len(heap)
        stats["evaluations"] = stats.get("evaluations", 0) + len(_OFFSETS) * evaluated
    return math.fsum(r[3] for r in heap)


def _check_tol(tol: float) -> float:
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol!r}")
    return max(tol, _MIN_TOL)


def _piece_derivative(piece: LagrangePiece, points: Sequence[float]) -> list[float]:
    # p'(s) at each point, for the Newton form
    # p(s) = c_0 + (s - x_0)(c_1 + (s - x_1)(c_2 + ...)), by Horner's rule
    # for p and p' together on the piece's cached differences, so nothing
    # is shared with the monomial path
    c = piece.newton
    top = c[-1]
    steps = tuple(zip(piece.node_times[1:], c[-2::-1]))
    out = []
    for s in points:
        p = top
        dp = 0.0
        for x, ci in steps:
            d = s - x
            dp = dp * d + p
            p = p * d + ci
        out.append(dp)
    return out


def quad_caputo_piecewise(
    p: PiecewisePolynomial,
    t_n: float,
    alpha: float,
    tol: float = 1e-12,
    stats: dict | None = None,
) -> float:
    """Numerical value of the discrete operator applied to interpolant p.

    Integrates (t_n - s)^(-alpha) p'(s) over (0, t_n] as one adaptive
    integral in w = (t_n - s)^(1-alpha), breaking at the pieces' ends, and
    divides by Gamma(1 - alpha); ``tol`` bounds the whole integral.  A
    ``stats`` dict receives ``regions``, ``err_estimate``, the summed final
    Gauss-Kronrod error estimates, and ``evaluations``, the integrand
    points evaluated (15 per region).
    """
    al = _check_alpha(alpha)
    tol = _check_tol(tol)
    if not math.isclose(p.t_end, t_n, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"interpolant ends at {p.t_end!r}, expected the evaluation time {t_n!r}")
    if stats is not None:
        stats.update(err_estimate=0.0, regions=0, evaluations=0)
    gamma_exp = 1.0 / (1.0 - al)

    def f(ws: Sequence[float]) -> list[float]:
        ss = [t_n - w**gamma_exp for w in ws]
        return [gamma_exp * d for d in _piece_derivative(p.piece_at(ss[0]), ss)]

    # w = 0 at t_n; a region's centre, its first point, names its piece
    points = [0.0, *((t_n - q.interval[0]) ** (1.0 - al) for q in reversed(p.pieces))]
    g = gamma(1.0 - al)
    value = _adaptive(f, points, tol, stats) / g
    if stats is not None:
        stats["err_estimate"] /= g
    return value


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

    Only uses point values of u.  The integral is taken over dyadic bands
    shrinking toward s = t; a tail model sums the rest.  When u is a
    ``PiecewisePolynomial`` whose piece at t (the one ending there, if t is
    a break) has degree d, the band values inside that piece are exactly
    sum_{r=1..d} A_r rho_r^i with rho_r = 2^(alpha-r), so the last d bands
    fix the whole remainder.  Any other callable takes the d = 1 model of a
    u differentiable near t, band ratio 2^(alpha-1), from band 3 on; a u
    that is only Holder there decays by another ratio and may not settle.
    Two successive totals agreeing to tol/4, or to the cancellation noise
    the tail amplifies, are accepted.  For an interpolant each band's
    adaptive quadrature starts from the piece boundaries inside it, where
    u' may jump, and each Gauss-Kronrod region reads its piece once.  A
    ``stats`` dict receives ``err_estimate``, ``regions`` and
    ``evaluations`` as in ``quad_caputo_piecewise``, ``bands`` and
    ``tail_degree`` (d).
    """
    al = _check_alpha(alpha)
    if not 0.0 < t < math.inf:
        raise ValueError(f"evaluation time must be positive and finite, got {t!r}")
    tol = _check_tol(tol)
    if stats is not None:
        stats.update(err_estimate=0.0, regions=0, evaluations=0)
    u_t = u(t)
    if isinstance(u, PiecewisePolynomial):
        breaks = u.right_ends
        # the bands close in on t inside the piece at t, the one ending at t
        # if t is a break, as in piece_at; u(t) above has range-checked t
        piece = u.pieces[min(bisect.bisect_left(breaks, t), len(u.pieces) - 1)]
        degree = piece.degree
        model_start = piece.interval[0]

        def values(ss: Sequence[float]) -> list[float]:
            # no region straddles a break, so its centre, the first point,
            # names the piece every point of the batch lies in
            return u.piece_at(ss[0]).evaluate(ss)

    else:
        # no piece to wait for: the one-ratio model holds from band 3 on
        breaks, degree = (), 1
        model_start = t * (1.0 - 2.0**-3)

        def values(ss: Sequence[float]) -> list[float]:
            return [u(s) for s in ss]

    kernel_exp = -1.0 - al

    def integrand(ss: Sequence[float]) -> list[float]:
        return [(u_t - v) * (t - s) ** kernel_exp for s, v in zip(ss, values(ss))]

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
        " budget ran out; u must be differentiable near t unless it is an interpolant",
        finish(prev_total),
    )


def exact_caputo_monomial(p: int, t: float, alpha: float) -> float:
    """Caputo derivative of t^p: Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha),
    and zero for the constant p = 0."""
    if p < 0:
        raise ValueError(f"monomial degree must be nonnegative, got {p}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    al = _check_alpha(alpha)
    if p == 0:
        return 0.0
    if t == 0.0:
        return 0.0
    return gamma(p + 1.0) / gamma(p + 1.0 - al) * t ** (p - al)
