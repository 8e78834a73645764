"""Host probe: a fixed block of standard-library work, about 1 ms long.

The probe mixes the kinds of work the package itself does (float
arithmetic, ``math.exp``/``math.log``, small frozen-dataclass
allocations and ``math.fsum``) but imports nothing from ``caputo_lk``.
When the host slows every kind of operation together, the probe slows
with it, so an operation's time divided by the probe time nearest to it
(one ``ref``) is far steadier than the raw seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

# Fixed work size, never tuned at run time: about 1 ms on a 2-vCPU x86 VM.
ROUNDS = 600


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _work() -> float:
    x = 0.37
    parts = []
    for i in range(ROUNDS):
        x = math.exp(-x) + 0.5 * math.log(1.0 + x * x)
        p = _Pair(x, x * (i + 1.0))
        parts.append(p.a * p.b - 0.25 * x)
    return math.fsum(parts)


def probe() -> float:
    """Run the probe once and return its duration in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
