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
    "NotAGridNodeError",
]

_MAX_M = 6
_NODE_TOL = 1e-9


def _check_alpha(alpha: float) -> float:
    """The fractional order as a float, refused unless it lies in (0, 1)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    return a


def _check_count(value, what: str) -> None:
    """Refuse a count that is not an integer; 2.0 is refused like 2.5."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class NotAGridNodeError(ValueError):
    """Raised when a time does not coincide with any grid node."""


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid t_n = n * tau on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"grid horizon must be positive and finite, got {self.horizon!r}")
        _check_count(self.steps, "grid steps")
        if self.steps < 1:
            raise ValueError(f"grid needs at least one step, got {self.steps!r}")

    @property
    def tau(self) -> float:
        return self.horizon / self.steps

    def time(self, n: int) -> float:
        if not 0 <= n <= self.steps:
            raise ValueError(f"node index {n} outside 0..{self.steps}")
        return n * self.tau

    def node_index(self, t: float) -> int:
        """Map a time to its node index, refusing off-grid times."""
        x = t / self.tau
        # round() cannot take an infinite or NaN quotient; refuse it here
        n = round(x) if math.isfinite(x) else -1
        if abs(x - n) > _NODE_TOL or not 0 <= n <= self.steps:
            raise NotAGridNodeError(f"time {t!r} is not a node of {self}")
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
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"Holder exponent must lie in (0, 1], got {self.beta!r}")

    @classmethod
    def from_total(cls, total: float) -> "RegularityClass":
        """Canonical split of a total smoothness s into (m, beta) with
        beta in (0, 1]: e.g. 3.0 -> (2, 1.0) and 2.2 -> (2, 0.2).  A total
        within 1e-12 above an integer k <= 6 is read as k, so it splits as
        (k - 1, 1.0); totals up to 1e-12 are refused."""
        if not 1e-12 < total <= _MAX_M + 1.0:
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
        if not 0.0 < self.xi < math.inf:
            raise ValueError(f"kink location must be positive and finite, got {self.xi!r}")

    def __call__(self, t: float) -> float:
        return self.derivative(0, t)

    def derivative(self, order: int, t: float) -> float:
        """Classical derivative of the stated order; valid for order <= m.

        d^p/dt^p u = (prod_{i<p} (m+beta-i)) (t-xi)^(m-p) |t-xi|^beta,
        which vanishes at the kink itself for every admissible p.
        """
        if not 0 <= order <= self.m:
            raise ValueError(
                f"derivative order {order} exceeds the classical count m={self.m}"
            )
        d = t - self.xi
        if d == 0.0:
            return 0.0
        factor = 1.0
        for i in range(order):
            factor *= self.m + self.beta - i
        return factor * d ** (self.m - order) * abs(d) ** self.beta

