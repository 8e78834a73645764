"""Uniform grids, Holder-continuous test functions and the alpha check.

The test family is u_xi(t) = (t - xi)^m |t - xi|^beta: a function whose
m-th derivative is exactly beta-Holder at the interior point xi and smooth
everywhere else.  It is the probe used to measure how discretization error
tracks regularity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = [
    "UniformGrid",
    "RegularityClass",
    "HolderTestFunction",
]

_MAX_M = 6
_NODE_TOL = 1e-9


def _check_real(value, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """A real parameter as a float, or ValueError naming what unless it lies in
    (low, high); a str or bool is not real, and a bad value is named by type."""
    real = type(value) is float or not isinstance(value, (str, bytes, bytearray, bool))
    try:
        x = float(value) if real else None
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or not low < x < high:
        got = f"type {type(value).__name__}" if x is None else repr(x)
        raise ValueError(f"{what} must be a real number in ({low:g}, {high:g}), got {got}")
    return x


def _check_alpha(alpha: float) -> float:
    """The fractional order as a float, refused unless it lies in (0, 1)."""
    return _check_real(alpha, "fractional order", 0.0, 1.0)


def _check_count(value, what: str) -> None:
    """Refuse a count that is not an integer; 2.0 and True are refused like 2.5."""
    try:
        operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid t_n = n * tau on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        _check_real(self.horizon, "grid horizon", 0.0)
        _check_count(self.steps, "grid steps")
        # horizon / steps must be a positive float: at most 1e308 steps, and no underflow
        if not 1 <= self.steps <= 1e308 or self.tau == 0.0:
            raise ValueError("grid needs at least one step, each of positive float length")

    @property
    def tau(self) -> float:
        return self.horizon / self.steps

    def time(self, n: int) -> float:
        _check_count(n, "node index")
        if not 0 <= n <= self.steps:
            raise ValueError(f"node index {n} outside 0..{self.steps}")
        return n * self.tau

    def node_index(self, t: float) -> int:
        """Map a time to its node index; an off-grid time raises ValueError."""
        x = t / self.tau
        # round() cannot take an infinite or NaN quotient; refuse it here
        n = round(x) if math.isfinite(x) else -1
        if abs(x - n) > _NODE_TOL or not 0 <= n <= self.steps:
            raise ValueError(f"time {t!r} is not a node of {self}")
        return n


@dataclass(frozen=True)
class RegularityClass:
    """Smoothness label C^(m,beta): m classical derivatives, the last one
    beta-Holder."""

    m: int
    beta: float

    def __post_init__(self) -> None:
        _check_count(self.m, "derivative count m")
        if not 0 <= self.m <= _MAX_M:
            raise ValueError(f"derivative count m must lie in 0..{_MAX_M}, got {self.m!r}")
        if not 0.0 < _check_real(self.beta, "Holder exponent") <= 1.0:
            raise ValueError(f"Holder exponent must lie in (0, 1], got {self.beta!r}")

    @classmethod
    def from_total(cls, total: float) -> "RegularityClass":
        """Canonical split of a total smoothness s into (m, beta) with
        beta in (0, 1]: e.g. 3.0 -> (2, 1.0) and 2.2 -> (2, 0.2).  A total
        within 1e-12 above an integer k <= 6 is read as k, so it splits as
        (k - 1, 1.0); totals up to 1e-12 are refused."""
        if not 1e-12 < _check_real(total, "total smoothness") <= _MAX_M + 1.0:
            raise ValueError(f"total smoothness must lie in (1e-12, {_MAX_M + 1}], got {total!r}")
        m = math.ceil(total - 1e-12) - 1
        return cls(m=m, beta=min(total - m, 1.0))


@dataclass(frozen=True)
class HolderTestFunction:
    """u(t) = (t - xi)^m |t - xi|^beta with the kink placed at xi > 0."""

    m: int
    beta: float
    xi: float

    def __post_init__(self) -> None:
        RegularityClass(self.m, self.beta)
        _check_real(self.xi, "kink location", 0.0)

    def __call__(self, t: float) -> float:
        # (t - xi)^m |t - xi|^beta is 0.0 at the kink itself, as beta > 0
        d = t - self.xi
        try:
            return d**self.m * abs(d) ** self.beta
        except OverflowError:  # float ** raises past float range, where * gives inf
            return math.copysign(math.inf, d) ** self.m
