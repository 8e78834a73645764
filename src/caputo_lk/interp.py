"""Lagrange stencils and scheme interpolants.

Every scheme below approximates the integrand by a piecewise polynomial
whose pieces interpolate on k+1 consecutive grid nodes.  On a uniform grid
a piece is fixed by its degree, its rightmost stencil node and the grid
interval on which it is in force; ``_runs`` gives these for a scheme,
grouped into runs of intervals that share a degree and the offset of that
node from the interval.  ``_basis_numerators`` holds the Lagrange
basis in grid units exactly, ``_BASIS``/``_DERIV`` it and its derivative in
floats: all ``schemes.CaputoWeights`` needs.  ``LagrangePiece`` stores one
piece with its stencil (ascending node times/values) and evaluates it at a
batch of points by Horner's rule on the Newton form of divided differences
computed once per piece, which the quadrature oracle reads too.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .holder import UniformGrid, _check_count, _check_real, _check_type

__all__ = [
    "SchemeKind",
    "LagrangePiece",
    "PiecewisePolynomial",
    "divided_coeff",
    "build_interpolant",
]

MAX_DEGREE = 6


@dataclass(frozen=True)
class SchemeKind:
    """Discretization selector: the Lk family by its degree k, whose k = 1
    and k = 2 members are L1 and L1-2, or L2 when k is None."""

    k: int | None = None

    def __post_init__(self) -> None:
        if self.k is not None:
            _check_count(self.k, "Lk degree k", 1, MAX_DEGREE)

    @classmethod
    def l1(cls) -> "SchemeKind":
        return cls.lk(1)

    @classmethod
    def l2(cls) -> "SchemeKind":
        return cls()

    @classmethod
    def l12(cls) -> "SchemeKind":
        return cls.lk(2)

    @classmethod
    def lk(cls, k: int) -> "SchemeKind":
        return cls(_check_count(k, "Lk degree k", 1, MAX_DEGREE))

    @property
    def degree(self) -> int:
        """Polynomial degree the scheme settles into after startup."""
        return 2 if self.k is None else self.k

    @property
    def label(self) -> str:
        if self.k is None:
            return "L2"
        return "L" + "-".join(str(i) for i in range(1, self.k + 1))


# every scheme, once: L1, L2, then L1-2 (k = 2) and Lk for k = 3..6
_ALL_SCHEMES = (SchemeKind.l1(), SchemeKind.l2(), *map(SchemeKind.lk, range(2, MAX_DEGREE + 1)))


def divided_coeff(k: int, l: int) -> int:
    """Denominator d_l = (-1)^l (k-l)! l! of the l-th Lagrange weight on a
    uniform stencil of degree k (node counted back from the stencil's right
    end), for integers 0 <= l <= k <= MAX_DEGREE."""
    _check_count(l, "stencil node l", 0, _check_count(k, "stencil degree k", 0, MAX_DEGREE))
    value = math.factorial(k - l) * math.factorial(l)
    return -value if l % 2 else value


@cache
def _basis_numerators(k: int) -> tuple[tuple[int, ...], ...]:
    # Lagrange basis on integer offsets {-k, ..., 0}, in the scaled variable
    # sigma = (s - t_right)/tau: row l, the node l steps back from the right
    # end, holds the integers P_r with L_l(sigma) = sum_r P_r sigma^r / d_l,
    # d_l = divided_coeff(k, l).  Exact, for float tables and exact moments.
    table = []
    for l in range(k + 1):
        poly = [1]
        for i in range(k + 1):
            if i == l:
                continue
            nxt = [0] * (len(poly) + 1)
            for r, cr in enumerate(poly):
                nxt[r + 1] += cr
                nxt[r] += cr * i
            poly = nxt
        table.append(tuple(poly))
    return tuple(table)


# _BASIS[k][l][r]: the rows of _basis_numerators(k) over d_l, each rounded once
_BASIS: dict[int, tuple[tuple[float, ...], ...]] = {
    k: tuple(
        tuple(float(Fraction(cr, divided_coeff(k, l))) for cr in poly)
        for l, poly in enumerate(_basis_numerators(k))
    )
    for k in range(1, MAX_DEGREE + 1)
}

# _DERIV[k][l][q] is the coefficient of sigma^q in the derivative of basis
# row _BASIS[k][l], sigma in grid units as there
_DERIV: dict[int, tuple[tuple[float, ...], ...]] = {
    k: tuple(tuple((q + 1) * row[q + 1] for q in range(k)) for row in rows)
    for k, rows in _BASIS.items()
}


@dataclass(frozen=True)
class LagrangePiece:
    """One polynomial piece of a scheme interpolant.

    ``node_times``/``node_values`` run ascending over the stencil nodes,
    ``tau`` apart, and fix the degree;
    ``interval`` is the grid interval on which the piece is in force.
    """

    node_times: tuple[float, ...]
    node_values: tuple[float, ...]
    interval: tuple[float, float]
    tau: float

    def __post_init__(self) -> None:
        _check_real(self.tau, "grid step tau", 0.0)
        try:
            nodes, values = len(self.node_times), len(self.node_values)
            if not 2 <= nodes <= MAX_DEGREE + 1 or values != nodes:
                raise ValueError(
                    f"stencil needs 2..{MAX_DEGREE + 1} node times and one value per node,"
                    f" got {nodes} times and {values} values"
                )
            # evaluate reads the node times: a first one in float range keeps the rest, tau apart, finite
            finite = all(map(math.isfinite, (self.node_times[0], *self.node_values)))
            for a, b in zip(self.node_times, self.node_times[1:]):
                if not -1e-9 * self.tau <= b - a - self.tau <= 1e-9 * self.tau:
                    raise ValueError(f"stencil node times must ascend tau={self.tau!r} apart, "
                                     f"got {a!r} then {b!r}")
        except (TypeError, OverflowError):  # a str, None or complex; an int past float range; no len()
            raise ValueError("stencil node times and values must be reals in float range") from None
        if not finite:
            raise ValueError(f"stencil node values must be finite, got {self.node_values!r}")
        try:
            lo, hi = self.interval
        except (TypeError, ValueError):  # None, a number, or a sequence of another length
            raise ValueError(f"validity interval must be a pair of reals, got {self.interval!r}") from None
        lo, hi = _check_real(lo, "validity interval end"), _check_real(hi, "validity interval end")
        if not lo < hi:
            raise ValueError(f"empty validity interval {self.interval!r}")

    @property
    def degree(self) -> int:
        return len(self.node_times) - 1

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

    @cached_property
    def newton(self) -> tuple[float, ...]:
        """Divided differences c_j = p[x_0, ..., x_j] over the stencil taken
        newest node first (x_0 is the anchor), from the node values alone."""
        xs = self.node_times[::-1]
        c = list(self.node_values[::-1])
        for j in range(1, self.degree + 1):
            for i in range(self.degree, j - 1, -1):
                c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
        return tuple(c)

    def evaluate(self, points: Sequence[float]) -> list[float]:
        """p(s) at each of the points, by Horner's rule on the Newton form
        p(s) = c_0 + (s - x_0)(c_1 + (s - x_1)(c_2 + ...)); the last step
        leaves c_0, so the anchor value comes back exactly."""
        c = self.newton
        top = c[-1]
        steps = tuple(zip(self.node_times[1:], c[-2::-1]))
        out = []
        for s in points:
            p = top
            for x, ci in steps:
                p = p * (s - x) + ci
            out.append(p)
        return out

    def __call__(self, s: float) -> float:
        return self.evaluate((s,))[0]


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Contiguous pieces covering (0, t_n], ordered left to right."""

    pieces: tuple[LagrangePiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a piecewise polynomial needs at least one piece")
        try:
            for left, right in zip(self.pieces, self.pieces[1:]):
                if not math.isclose(left.interval[1], right.interval[0], rel_tol=0.0, abs_tol=1e-12):
                    raise ValueError("piece validity intervals must be contiguous")
        except (AttributeError, TypeError):  # no intervals: pieces of another kind
            raise ValueError(f"pieces must be LagrangePieces, got {self.pieces!r:.80}") from None

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
        try:
            if 0.0 <= s <= self.t_end * (1.0 + 1e-12):
                return self.pieces[min(bisect.bisect_left(self.right_ends, s), len(self.pieces) - 1)]
        except TypeError:  # no number: refused below, by name
            pass
        got = s if type(s) is float else _check_real(s, "point s")  # a long int is not printed
        raise ValueError(f"point {got!r} outside [0, {self.t_end}]")

    def __call__(self, s: float) -> float:
        return self.piece_at(s)(s)


def _piece(grid: UniformGrid, vals: list[float], degree: int, anchor: int, j: int) -> LagrangePiece:
    lo = anchor - degree
    tau = grid.tau
    return LagrangePiece(
        node_times=tuple(i * tau for i in range(lo, anchor + 1)),
        node_values=tuple(vals[lo : anchor + 1]),
        interval=((j - 1) * tau, j * tau),
        tau=tau,
    )


def _check_nodes(grid: UniformGrid, values, n: int) -> list[float]:
    """Check node n and the real, finite values u^0..u^n, a sequence or a
    callable sampled at the nodes, for evaluation at node n; return them as floats."""
    # one isinstance and no call when grid and n are good; the refusals name them
    if not (isinstance(grid, UniformGrid) and type(n) is int and 1 <= n <= grid.steps):
        _check_count(n, "evaluation node n", 1, _check_type(grid, UniformGrid, "grid").steps)
    if callable(values):
        # node i at i * tau, the bits of grid.time(i)
        tau = grid.tau
        values = [values(i * tau) for i in range(n + 1)]
    try:
        if len(values) < n + 1:
            raise ValueError(f"need node values u^0..u^{n}, got {len(values)} values")
    except TypeError:  # no len(): neither a sequence nor a callable
        raise ValueError(f"node values must be a sequence or a callable, "
                         f"got type {type(values).__name__}") from None
    try:
        out = list(map(float, itertools.islice(values, n + 1)))
    except (TypeError, ValueError, OverflowError):
        for i, v in enumerate(itertools.islice(values, n + 1)):
            try:
                float(v)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"node value u^{i} is not a real number in float range, "
                                 f"got type {type(v).__name__}") from None
        raise
    # an inf or nan makes the sum so; finite values, only if they overflow it
    if not math.isfinite(sum(out)) and not all(map(math.isfinite, out)):
        i = next(i for i, v in enumerate(out) if not math.isfinite(v))
        raise ValueError(f"node value u^{i} is not finite: {values[i]!r}")
    return out


def _runs(scheme: SchemeKind, n: int) -> list[tuple[int, int, int, int]]:
    """The scheme's pieces for evaluation at node n, as runs
    (degree, offset, first, last): the grid intervals I_j = (t_{j-1}, t_j)
    for j = first..last, left to right, each carry the piece of that degree
    anchored at node j + offset (the rightmost stencil node).

    * L2 (n >= 2): quadratic through {j-1, j, j+1} on I_j for j < n, and the
      final interval reuses the quadratic through {n-2, n-1, n}.  Every
      interior interval therefore borrows one node ahead; the last one,
      where the kernel blows up, instead ends its stencil at t_n.
    * Lk, and L2 at n = 1: degree grows along the startup intervals
      (degree j through {0..j} on I_j while j < k), then the backward
      stencil {j-k..j}.  L1 (k = 1) is linear through {j-1, j} on each I_j;
      L1-2 (k = 2) is linear on I_1, then backward quadratic.
    """
    if scheme.k is None and n > 1:
        return [(2, 1, 1, n - 1), (2, 0, n, n)]
    k = scheme.degree
    runs = [(j, 0, j, j) for j in range(1, min(k, n + 1))]
    if n >= k:
        runs.append((k, 0, k, n))
    return runs


def build_interpolant(
    scheme: SchemeKind,
    grid: UniformGrid,
    values: Sequence[float],
    n: int,
) -> PiecewisePolynomial:
    """Assemble the scheme's interpolant for evaluation at node n.

    Needs finite node values u^0..u^n; the pieces follow ``_runs``.
    """
    vals = _check_nodes(grid, values, n)
    return PiecewisePolynomial(
        tuple(
            _piece(grid, vals, degree, j + offset, j)
            for degree, offset, first, last in _runs(_check_type(scheme, SchemeKind, "scheme"), n)
            for j in range(first, last + 1)
        )
    )
