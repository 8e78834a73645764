"""Lagrange stencils, backward differences and scheme interpolants.

Every scheme below approximates the integrand by a piecewise polynomial
whose pieces interpolate on k+1 consecutive grid nodes.  On a uniform grid
a piece is fixed by its degree, its anchor (the index of the rightmost
stencil node) and the grid interval on which it is in force; ``_layout``
gives these triples for a scheme, and ``_BASIS``/``_DERIV`` hold the
monomial coefficients of the Lagrange basis and of its derivative in grid
units, which is all ``schemes.discrete_caputo`` needs.  ``LagrangePiece``
stores one piece with its stencil (ascending node times/values) for
pointwise evaluation.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .holder import UniformGrid

__all__ = [
    "SchemeTag",
    "SchemeKind",
    "LagrangePiece",
    "PiecewisePolynomial",
    "divided_coeff",
    "lagrange_eval",
    "backward_difference",
    "build_interpolant",
]

MAX_DEGREE = 6

# Distance below which s counts as sitting on a stencil node, in units of tau.
_NODE_EPS = 1e-9


class SchemeTag(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    L12 = "l12"
    LK = "lk"


@dataclass(frozen=True)
class SchemeKind:
    """Discretization selector: one of L1, L2, L1-2, or the Lk family."""

    tag: SchemeTag
    k: int | None = None

    def __post_init__(self) -> None:
        if self.tag is SchemeTag.LK:
            if self.k is None or not 1 <= self.k <= MAX_DEGREE:
                raise ValueError(f"Lk scheme needs k in 1..{MAX_DEGREE}, got {self.k!r}")
        elif self.k is not None:
            raise ValueError(f"{self.tag.value} does not take a degree parameter")

    @classmethod
    def l1(cls) -> "SchemeKind":
        return cls(SchemeTag.L1)

    @classmethod
    def l2(cls) -> "SchemeKind":
        return cls(SchemeTag.L2)

    @classmethod
    def l12(cls) -> "SchemeKind":
        return cls(SchemeTag.L12)

    @classmethod
    def lk(cls, k: int) -> "SchemeKind":
        return cls(SchemeTag.LK, k)

    @property
    def degree(self) -> int:
        """Polynomial degree the scheme settles into after startup."""
        if self.tag is SchemeTag.L1:
            return 1
        if self.tag in (SchemeTag.L2, SchemeTag.L12):
            return 2
        assert self.k is not None
        return self.k

    @property
    def label(self) -> str:
        if self.tag is SchemeTag.L1:
            return "L1"
        if self.tag is SchemeTag.L2:
            return "L2"
        if self.tag is SchemeTag.L12:
            return "L1-2"
        assert self.k is not None
        return "L" + "-".join(str(i) for i in range(1, self.k + 1))


def divided_coeff(k: int, l: int) -> int:
    """Denominator d_l = (-1)^l (k-l)! l! of the l-th Lagrange weight on a
    uniform stencil of degree k (node counted back from the stencil's right
    end)."""
    if not 0 <= l <= k <= MAX_DEGREE:
        raise ValueError(f"need 0 <= l <= k <= {MAX_DEGREE}, got l={l}, k={k}")
    value = math.factorial(k - l) * math.factorial(l)
    return -value if l % 2 else value


def backward_difference(values: Sequence[float], order: int) -> float:
    """Backward difference of the given order at the newest sample.

    ``values`` is ordered oldest first; the difference is taken at the last
    entry, so at least order + 1 samples of history are required.
    """
    if order < 0:
        raise ValueError(f"difference order must be nonnegative, got {order}")
    if len(values) < order + 1:
        raise ValueError(
            f"backward difference of order {order} needs {order + 1} samples, "
            f"got {len(values)}"
        )
    acc = 0.0
    for j in range(order + 1):
        term = math.comb(order, j) * values[-1 - j]
        acc += -term if j % 2 else term
    return acc


def _basis_coefficients(k: int) -> tuple[tuple[float, ...], ...]:
    # Monomial coefficients of the Lagrange basis on integer offsets
    # {-k, ..., 0}, in the scaled variable sigma = (s - t_right)/tau.
    # Row l belongs to the node l steps back from the right end; the
    # rationals are exact and converted to float once.
    table = []
    for l in range(k + 1):
        poly = [Fraction(1)]
        for i in range(k + 1):
            if i == l:
                continue
            nxt = [Fraction(0)] * (len(poly) + 1)
            for r, cr in enumerate(poly):
                nxt[r + 1] += cr
                nxt[r] += cr * i
            poly = nxt
        d = divided_coeff(k, l)
        table.append(tuple(float(cr / d) for cr in poly))
    return tuple(table)


_BASIS: dict[int, tuple[tuple[float, ...], ...]] = {
    k: _basis_coefficients(k) for k in range(1, MAX_DEGREE + 1)
}

# _DERIV[k][l][q] is the coefficient of sigma^q in the derivative of basis
# row _BASIS[k][l], sigma in grid units as there
_DERIV: dict[int, tuple[tuple[float, ...], ...]] = {
    k: tuple(tuple((q + 1) * row[q + 1] for q in range(k)) for row in rows)
    for k, rows in _BASIS.items()
}

# _DIVIDED[k][l] == divided_coeff(k, l), read by lagrange_eval per term
_DIVIDED: dict[int, tuple[int, ...]] = {
    k: tuple(divided_coeff(k, l) for l in range(k + 1)) for k in range(1, MAX_DEGREE + 1)
}


@dataclass(frozen=True)
class LagrangePiece:
    """One polynomial piece of a scheme interpolant.

    ``anchor`` is the grid index of the rightmost stencil node;
    ``node_times``/``node_values`` run ascending over the k+1 stencil nodes;
    ``interval`` is the grid interval on which the piece is in force.
    """

    degree: int
    anchor: int
    node_times: tuple[float, ...]
    node_values: tuple[float, ...]
    interval: tuple[float, float]
    tau: float

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"piece degree must lie in 1..{MAX_DEGREE}, got {self.degree}")
        if len(self.node_times) != self.degree + 1 or len(self.node_values) != self.degree + 1:
            raise ValueError("stencil needs exactly degree + 1 nodes and values")
        if not self.interval[0] < self.interval[1]:
            raise ValueError(f"empty validity interval {self.interval!r}")

    def monomial_coefficients(self) -> tuple[float, ...]:
        """Coefficients b_r of the piece as sum_r b_r sigma^r with
        sigma = (s - t_anchor)/tau, anchored at the rightmost stencil node."""
        k = self.degree
        basis = _BASIS[k]
        vals = self.node_values
        return tuple(
            math.fsum(vals[k - l] * basis[l][r] for l in range(k + 1))
            for r in range(k + 1)
        )

    def __call__(self, s: float) -> float:
        return lagrange_eval(self, s)


def lagrange_eval(piece: LagrangePiece, s: float) -> float:
    """Evaluate a piece at s through the nodal-polynomial weight form.

    Each term is node_value * w(s) / ((s - t_l) d_l tau^k) with the nodal
    polynomial w(s) = prod_i (s - t_i).  When s falls on a node the shared
    factor is cancelled symbolically instead of divided out, so node values
    are reproduced exactly.
    """
    k = piece.degree
    times = piece.node_times
    tau_k = piece.tau**k
    divided = _DIVIDED[k]
    w = 1.0
    for t_i in times:
        w *= s - t_i
    terms = []
    for l in range(k + 1):
        # l counts back from the rightmost node to match divided_coeff
        t_l = times[k - l]
        d_l = divided[l]
        if abs(s - t_l) < piece.tau * _NODE_EPS:
            rest = 1.0
            for i, t_i in enumerate(times):
                if i != k - l:
                    rest *= s - t_i
            terms.append(piece.node_values[k - l] * rest / (d_l * tau_k))
        else:
            terms.append(piece.node_values[k - l] * w / ((s - t_l) * d_l * tau_k))
    return math.fsum(terms)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Contiguous pieces covering (0, t_n], ordered left to right."""

    pieces: tuple[LagrangePiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a piecewise polynomial needs at least one piece")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if not math.isclose(left.interval[1], right.interval[0], rel_tol=0.0, abs_tol=1e-12):
                raise ValueError("piece validity intervals must be contiguous")

    @property
    def t_end(self) -> float:
        return self.pieces[-1].interval[1]

    @cached_property
    def right_ends(self) -> tuple[float, ...]:
        """Right ends of the pieces' validity intervals, ascending; the
        interior ones are where the interpolant's derivative may jump."""
        return tuple(piece.interval[1] for piece in self.pieces)

    def piece_at(self, s: float) -> LagrangePiece:
        """The first piece whose interval ends at or after s; a point on an
        interior node belongs to the piece that ends there."""
        if not 0.0 <= s <= self.t_end * (1.0 + 1e-12):
            raise ValueError(f"point {s!r} outside [0, {self.t_end}]")
        i = bisect.bisect_left(self.right_ends, s)
        return self.pieces[min(i, len(self.pieces) - 1)]

    def __call__(self, s: float) -> float:
        return lagrange_eval(self.piece_at(s), s)


def _piece(grid: UniformGrid, vals: list[float], degree: int, anchor: int, j: int) -> LagrangePiece:
    lo = anchor - degree
    return LagrangePiece(
        degree=degree,
        anchor=anchor,
        node_times=tuple(grid.time(i) for i in range(lo, anchor + 1)),
        node_values=tuple(vals[lo : anchor + 1]),
        interval=(grid.time(j - 1), grid.time(j)),
        tau=grid.tau,
    )


def _check_nodes(grid: UniformGrid, values: Sequence[float], n: int) -> list[float]:
    """Check node n and the values u^0..u^n for evaluation at node n;
    return those values as floats."""
    if n < 1:
        raise ValueError(f"evaluation node must be at least 1, got {n}")
    if n > grid.steps:
        raise ValueError(f"evaluation node {n} beyond the grid's {grid.steps} steps")
    if len(values) < n + 1:
        raise ValueError(f"need node values u^0..u^{n}, got {len(values)} values")
    out = [float(values[i]) for i in range(n + 1)]
    for i, v in enumerate(out):
        if not math.isfinite(v):
            raise ValueError(f"node value u^{i} is not finite: {values[i]!r}")
    return out


def _layout(scheme: SchemeKind, n: int) -> list[tuple[int, int, int]]:
    """The scheme's pieces for evaluation at node n, as (degree, anchor, j)
    for each grid interval I_j = (t_{j-1}, t_j), left to right.

    * L1, and every scheme at n = 1: linear through {j-1, j} on each I_j.
    * L2 (n >= 2): quadratic through {j-1, j, j+1} on I_j for j < n, and the
      final interval reuses the quadratic through {n-2, n-1, n}.  Every
      interior interval therefore borrows one node ahead; the last one,
      where the kernel blows up, instead ends its stencil at t_n.
    * L1-2 (n >= 2): linear on I_1, then the backward quadratic through
      {j-2, j-1, j} on I_j.
    * Lk: degree grows along the startup intervals (degree j through
      {0..j} on I_j while j < k), then the backward stencil {j-k..j}.
    """
    if scheme.tag is SchemeTag.L2 and n > 1:
        return [(2, j + 1, j) for j in range(1, n)] + [(2, n, n)]
    # L1, L1-2 and Lk share the backward stencil; L1 is the k = 1 case
    k = scheme.degree
    return [(min(j, k), j, j) for j in range(1, n + 1)]


def build_interpolant(
    scheme: SchemeKind,
    grid: UniformGrid,
    values: Sequence[float],
    n: int,
) -> PiecewisePolynomial:
    """Assemble the scheme's interpolant for evaluation at node n.

    Needs finite node values u^0..u^n; the pieces follow ``_layout``.
    """
    vals = _check_nodes(grid, values, n)
    return PiecewisePolynomial(
        tuple(_piece(grid, vals, degree, anchor, j) for degree, anchor, j in _layout(scheme, n))
    )
