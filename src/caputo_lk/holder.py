"""Uniform grids, Holder-continuous test functions and the alpha check.

The test family is u_xi(t) = (t - xi)^m |t - xi|^beta: a function whose
m-th derivative is exactly beta-Holder at the interior point xi and smooth
everywhere else.  It is the probe used to measure how discretization error
tracks regularity.
"""

from __future__ import annotations

import math
import operator
import reprlib
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


def _check_count(value, what: str, low: int, high: float) -> int:
    """A count as an int, or ValueError naming what and low..high unless it is an
    integer in that range; 2.0 and True are refused, and an int past 1e308 is not printed."""
    index = type(value) is int or hasattr(type(value), "__index__") and not isinstance(value, bool)
    n = operator.index(value) if index else None
    if n is None or not low <= n <= high:
        got = (reprlib.repr(value) if n is None
               else f"{n:.15g}" if abs(n) < 1e308 else "an int past 1e308")
        raise ValueError(f"{what} must be an integer in {low:.15g}..{high:.15g}, got {got}")
    return n


def _check_type(value, cls: type, what: str):
    """value, or ValueError naming what unless it is a cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{what} must be a {cls.__name__}, got type {type(value).__name__}")
    return value


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid t_n = n * tau on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        _check_real(self.horizon, "grid horizon", 0.0)
        # horizon / steps must be a positive float: at most 1e308 steps, and no underflow
        _check_count(self.steps, "grid steps", 1, 1e308)
        _check_real(self.tau, "grid step horizon / steps", 0.0)

    @property
    def tau(self) -> float:
        return self.horizon / self.steps

    def time(self, n: int) -> float:
        return _check_count(n, "node index", 0, self.steps) * self.tau

    def node_index(self, t: float) -> int:
        """Map a time to its node index; an off-grid or non-real time raises ValueError."""
        x = _check_real(t, "time t") / self.tau
        # t / tau may overflow to inf, which round() cannot take; refuse it here
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
        _check_count(self.m, "derivative count m", 0, _MAX_M)
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
