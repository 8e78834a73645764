"""Discrete Caputo operators: exact integration of scheme interpolants.

A discrete value at node n is

    (1/Gamma(1-alpha)) * sum_pieces int (t_n - s)^(-alpha) p'(s) ds.

In grid units sigma = s/tau this is tau^(-alpha)/Gamma(1-alpha) times

    sum_j sum_l u^(anchor-l) int_{j-1}^{j} (n - sigma)^(-alpha) L_l'(sigma) dsigma,

one term per interval I_j of the scheme's layout (``interp._layout``) and
per stencil node l, with L_l' the derivative of the Lagrange basis
polynomial expanded in powers of (sigma - anchor) (``interp._DERIV``).  One
``kernel_moments`` call on integer-valued windows gives all k moments of an
interval, so a node costs n such calls and no interpolant is built; near
t_n a moment is a binomial sum of at most k terms, farther away a Horner
pass over a series that shortens as the distance to t_n grows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .holder import UniformGrid
# build_interpolant, KernelMoment and kernel_moment are not called here, and
# caputo_of_piece is only the per-piece reference route the tests compare
# discrete_caputo with; all four stay in this namespace because
# perfbench/spans.py patches them by name (ROADMAP item 6)
from .interp import _DERIV, LagrangePiece, SchemeKind, _check_nodes, _layout, build_interpolant
from .special import KernelMoment, _check_alpha, gamma, kernel_moment, kernel_moments

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
    effective = SchemeKind.l1() if n == 1 else scheme
    vals = _check_nodes(grid, values, n)
    # in grid units every window end is an integer, so the moments' window
    # arithmetic is exact whatever tau is
    t = float(n)
    terms = []
    for degree, anchor, j in _layout(effective, n):
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
    for j, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"node value u^{j} is not finite: {v!r}")
    al = _check_alpha(alpha)
    weights = l1_weights(n, al)
    acc = math.fsum(
        weights[n - j] * (values[j] - values[j - 1]) for j in range(1, n + 1)
    )
    return acc * tau ** (-al) / gamma(2.0 - al)
