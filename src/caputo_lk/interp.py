"""Lagrange stencils, backward differences and scheme interpolants.

Every scheme below approximates the integrand by a piecewise polynomial
whose pieces interpolate on k+1 consecutive grid nodes.  A piece is stored
with its stencil (ascending node times/values), the index of the rightmost
stencil node, and the single grid interval on which it is in force.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .holder import UniformGrid

__all__ = [
    "SchemeTag",
    "SchemeKind",
    "LagrangePiece",
    "PiecewisePolynomial",
    "divided_coeff",
    "omega",
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


def omega(node_times: Sequence[float], s: float) -> float:
    """Nodal polynomial prod_i (s - t_i)."""
    out = 1.0
    for t in node_times:
        out *= s - t
    return out


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

    Each term is node_value * omega(s) / ((s - t_l) d_l tau^k); when s falls
    on a node the shared factor is cancelled symbolically instead of divided
    out, so node values are reproduced exactly.
    """
    k = piece.degree
    times = piece.node_times
    tau_k = piece.tau**k
    w = omega(times, s)
    terms = []
    for l in range(k + 1):
        # l counts back from the rightmost node to match divided_coeff
        t_l = times[k - l]
        d_l = divided_coeff(k, l)
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

    def piece_at(self, s: float) -> LagrangePiece:
        if not 0.0 <= s <= self.t_end * (1.0 + 1e-12):
            raise ValueError(f"point {s!r} outside [0, {self.t_end}]")
        for piece in self.pieces:
            if s <= piece.interval[1]:
                return piece
        return self.pieces[-1]

    def __call__(self, s: float) -> float:
        return lagrange_eval(self.piece_at(s), s)


def _node_slice(
    grid: UniformGrid, values: Sequence[float], lo: int, hi: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    times = tuple(grid.time(i) for i in range(lo, hi + 1))
    vals = tuple(float(values[i]) for i in range(lo, hi + 1))
    return times, vals


def _piece(
    grid: UniformGrid,
    values: Sequence[float],
    degree: int,
    anchor: int,
    interval_right: int,
) -> LagrangePiece:
    times, vals = _node_slice(grid, values, anchor - degree, anchor)
    return LagrangePiece(
        degree=degree,
        anchor=anchor,
        node_times=times,
        node_values=vals,
        interval=(grid.time(interval_right - 1), grid.time(interval_right)),
        tau=grid.tau,
    )


def build_interpolant(
    scheme: SchemeKind,
    grid: UniformGrid,
    values: Sequence[float],
    n: int,
) -> PiecewisePolynomial:
    """Assemble the scheme's interpolant for evaluation at node n.

    Needs finite node values u^0..u^n.  Piece layout per scheme, writing
    I_j for the grid interval (t_{j-1}, t_j):

    * L1: linear through {j-1, j} on each I_j.
    * L2 (n >= 2): quadratic through {j-1, j, j+1} on I_j for j < n, and the
      final interval reuses the quadratic through {n-2, n-1, n}.  Every
      interior interval therefore borrows one node ahead; the last one,
      where the kernel blows up, instead ends its stencil at t_n.
    * L1-2 (n >= 2): linear on I_1, then the backward quadratic through
      {j-2, j-1, j} on I_j.
    * Lk: degree grows along the startup intervals (degree j through
      {0..j} on I_j while j < k), then the backward stencil {j-k..j}.
    """
    if n < 1:
        raise ValueError(f"evaluation node must be at least 1, got {n}")
    if n > grid.steps:
        raise ValueError(f"evaluation node {n} beyond the grid's {grid.steps} steps")
    if len(values) < n + 1:
        raise ValueError(f"need node values u^0..u^{n}, got {len(values)} values")
    for i in range(n + 1):
        if not math.isfinite(values[i]):
            raise ValueError(f"node value u^{i} is not finite: {values[i]!r}")

    tag = scheme.tag
    pieces: list[LagrangePiece] = []

    if tag is SchemeTag.L2:
        if n < 2:
            raise ValueError("the L2 layout starts at n = 2; use L1 for the first node")
        for j in range(1, n):
            pieces.append(_piece(grid, values, degree=2, anchor=j + 1, interval_right=j))
        pieces.append(_piece(grid, values, degree=2, anchor=n, interval_right=n))
    elif tag is SchemeTag.L1:
        for j in range(1, n + 1):
            pieces.append(_piece(grid, values, degree=1, anchor=j, interval_right=j))
    else:
        k = 2 if tag is SchemeTag.L12 else scheme.k
        assert k is not None
        for j in range(1, n + 1):
            degree = min(j, k)
            pieces.append(_piece(grid, values, degree=degree, anchor=j, interval_right=j))

    return PiecewisePolynomial(tuple(pieces))
