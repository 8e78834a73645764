"""Discrete Caputo operators: exact integration of scheme interpolants.

A discrete value at node n is

    (1/Gamma(1-alpha)) * sum_pieces int (t_n - s)^(-alpha) p'(s) ds,

with each piece derivative expanded in powers of (s - t_anchor) and every
monomial integrated in closed form by ``kernel_moment``.  Cost is O(n k^2)
per evaluated node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .holder import UniformGrid
from .interp import LagrangePiece, PiecewisePolynomial, SchemeKind, build_interpolant
from .special import KernelMoment, _check_alpha, gamma, kernel_moment

__all__ = [
    "DiscreteCaputoValue",
    "caputo_of_piece",
    "discrete_caputo",
    "l1_weights",
    "l1_convolution",
]


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
    terms = []
    tau_r = 1.0
    for r in range(1, piece.degree + 1):
        tau_r *= tau
        moment = kernel_moment(KernelMoment(t=t_n, a=a, b=b, c=center, q=r - 1, alpha=al))
        terms.append(r * coeffs[r] / tau_r * moment)
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
    effective = SchemeKind.l1() if n == 1 else scheme
    interpolant = build_interpolant(effective, grid, values, n)
    t_n = grid.time(n)
    total = math.fsum(
        caputo_of_piece(piece, piece.interval, t_n, al) for piece in interpolant.pieces
    )
    return DiscreteCaputoValue(scheme=scheme, node=n, time=t_n, alpha=al, value=total)


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
    for j, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"node value u^{j} is not finite: {v!r}")
    al = _check_alpha(alpha)
    weights = l1_weights(n, al)
    acc = math.fsum(
        weights[n - j] * (values[j] - values[j - 1]) for j in range(1, n + 1)
    )
    return acc * tau ** (-al) / gamma(2.0 - al)
