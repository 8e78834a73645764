"""Self-contained verification suite behind the ``verify`` CLI command.

Every check is deterministic (seeded RNG) and compares two independent
routes to the same quantity: algebraic identities of the interpolation
machinery and of the weight columns, closed-form values of the discrete
operators, and the adaptive quadrature oracle against ``discrete_caputo``,
the route every study value takes.  The per-window kernel moments are not
on that route; their identities are tests (``tests/test_special.py``).

Checks are registered by the name ``verify`` prints.  The acceptance tests
run the same checks through ``run_check``, so each invariant is written
once, at the strength the acceptance gate holds it to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .holder import HolderTestFunction, RegularityClass, UniformGrid
from .interp import (
    LagrangePiece,
    PiecewisePolynomial,
    SchemeKind,
    _runs,
    build_interpolant,
    divided_coeff,
)
from .oracle import exact_caputo_monomial, quad_caputo_integrated, quad_caputo_piecewise
from .schemes import _columns, discrete_caputo
from .harness import order_first_node, order_interior

__all__ = ["CheckResult", "run_check", "run_verification"]

_SEED = 20260817

_ALL_SCHEMES = (
    SchemeKind.l1(),
    SchemeKind.l2(),
    SchemeKind.l12(),
    SchemeKind.lk(3),
    SchemeKind.lk(4),
    SchemeKind.lk(5),
    SchemeKind.lk(6),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


# name -> check; a check takes a seeded RNG and returns (ok, detail)
_CHECKS: dict[str, Callable[[random.Random], tuple[bool, str]]] = {}


def _check(name: str):
    """Register a check under the name ``verify`` prints; definition order
    is run order."""

    def register(fn):
        _CHECKS[name] = fn
        return fn

    return register


@_check("partition of unity (k <= 6)")
def _check_partition_of_unity(rng: random.Random) -> tuple[bool, str]:
    # on the monomial basis the reference route caputo_of_piece integrates
    # (discrete_caputo reads _columns; the Newton form of constant data is
    # constant by construction); stencils start anywhere in [0, 20 tau), not
    # only on grid nodes, and points reach two steps past either end
    worst = 0.0
    count = 0
    for k in range(1, 7):
        for _ in range(40):
            tau = 2.0 ** -rng.randrange(2, 8)
            start = rng.uniform(0.0, 20.0) * tau
            times = tuple(start + i * tau for i in range(k + 1))
            ones = LagrangePiece(
                node_times=times,
                node_values=(1.0,) * (k + 1),
                interval=(times[-2], times[-1]),
                tau=tau,
            )
            coeffs = ones.monomial_coefficients()
            for _ in range(5):
                s = rng.uniform(times[0] - 2.0 * tau, times[-1] + 2.0 * tau)
                sigma = (s - times[-1]) / tau
                total = math.fsum(b * sigma**r for r, b in enumerate(coeffs))
                worst = max(worst, abs(total - 1.0))
                count += 1
    return worst < 1e-11, f"{count} points, worst dev {worst:.2e}"


@_check("lagrange weight reciprocals sum to zero")
def _check_divided_coeff_sum(_: random.Random) -> tuple[bool, str]:
    for k in range(1, 7):
        total = sum(Fraction(1, divided_coeff(k, l)) for l in range(k + 1))
        if total != 0:
            return False, f"k={k}: {total}"
    return True, "exact for k = 1..6"


@_check("weight columns annihilate constants")
def _check_column_sums(rng: random.Random) -> tuple[bool, str]:
    # the basis sums to 1, so its derivatives, and every column set's
    # entries at one lag, sum to zero
    worst = 0.0
    count = 0
    for scheme in _ALL_SCHEMES:
        alpha = rng.uniform(0.05, 0.95)
        lags = [0, 1, 2, 2**14, *(rng.randrange(3, 2**14) for _ in range(20))]
        for degree, offset in {run[:2] for run in _runs(scheme, 2 * scheme.degree + 2)}:
            cols = _columns(degree, offset, lags, alpha)
            for entries in zip(*cols):
                worst = max(worst, abs(math.fsum(entries)) / max(map(abs, entries)))
                count += 1
    return worst < 1e-12, f"{count} column sets, lags 0..2^14, worst scaled sum {worst:.2e}"


@_check("polynomial reproduction (k <= 6)")
def _check_interpolation_exactness(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    for k in range(1, 7):
        for _ in range(12):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(k + 1)]

            def poly(s: float) -> float:
                return math.fsum(c * s**p for p, c in enumerate(coeffs))

            tau = 2.0 ** -rng.randrange(2, 6)
            start = rng.randrange(0, 8)
            times = tuple((start + i) * tau for i in range(k + 1))
            piece = LagrangePiece(
                node_times=times,
                node_values=tuple(poly(t) for t in times),
                interval=(times[-2], times[-1]),
                tau=tau,
            )
            for _ in range(5):
                s = rng.uniform(times[0], times[-1])
                scale = max(1.0, abs(poly(s)))
                worst = max(worst, abs(piece(s) - poly(s)) / scale)
    return worst < 1e-10, f"worst rel dev {worst:.2e}"


@_check("linear inputs recover the power rule")
def _check_linear_exactness(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    count = 0
    for scheme in _ALL_SCHEMES:
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            c0 = rng.uniform(-2.0, 2.0)
            c1 = rng.uniform(0.5, 2.0)
            grid = UniformGrid(horizon=1.0, steps=16)
            for n in (1, 2, 8, 16):
                got = discrete_caputo(
                    scheme, grid, lambda t: c0 + c1 * t, n, alpha
                ).value
                want = c1 * grid.time(n) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
                worst = max(worst, abs(got - want) / abs(want))
                count += 1
    return worst < 1e-10, f"{count} (scheme, alpha, node) triples, worst rel dev {worst:.2e}"


@_check("L1 convolution weights match the piecewise form")
def _check_l1_convolution(rng: random.Random) -> tuple[bool, str]:
    # tau^-alpha/Gamma(2-alpha) sum_j b_{n-j} (u^j - u^{j-1}), b_i = (i+1)^(1-alpha) - i^(1-alpha)
    worst = 0.0
    for _ in range(20):
        n = rng.randrange(1, 40)
        steps = n + rng.randrange(0, 4)
        grid = UniformGrid(horizon=steps * 2.0 ** -rng.randrange(2, 6), steps=steps)
        alpha = rng.uniform(0.05, 0.95)
        values = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
        a = discrete_caputo(SchemeKind.l1(), grid, values, n, alpha).value
        p = 1.0 - alpha
        weights = ((n - j + 1.0) ** p - float(n - j) ** p for j in range(1, n + 1))
        acc = math.fsum(w * (values[j] - values[j - 1]) for j, w in enumerate(weights, 1))
        b = acc * grid.tau ** (-alpha) / math.gamma(2.0 - alpha)
        scale = max(abs(a), abs(b), 1e-30)
        worst = max(worst, abs(a - b) / scale)
    # unit steps u^i = [i >= n - lag] read the row itself: node n gives b_lag
    grid = UniformGrid(horizon=12.0, steps=12)
    unit_steps = ([float(i >= 12 - lag) for i in range(13)] for lag in range(12))
    row = [discrete_caputo(SchemeKind.l1(), grid, u, 12, 0.4).value for u in unit_steps]
    monotone = all(x > y > 0.0 for x, y in zip(row, row[1:]))
    return (
        worst < 1e-11 and monotone,
        f"worst rel dev {worst:.2e}, weights decreasing: {monotone}",
    )


@_check("closed-form moments match adaptive quadrature")
def _check_scheme_vs_oracle(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    count = 0
    for scheme in _ALL_SCHEMES:
        for _ in range(20):
            steps = rng.randrange(max(2, scheme.degree), 65)
            n = rng.randrange(max(2, scheme.degree), steps + 1)
            grid = UniformGrid(horizon=1.0, steps=steps)
            alpha = rng.uniform(0.05, 0.95)
            u = HolderTestFunction(
                m=rng.randrange(0, 3),
                beta=rng.uniform(0.1, 1.0),
                xi=rng.uniform(0.15, 0.95),
            )
            values = [u(grid.time(i)) for i in range(n + 1)]
            fast = discrete_caputo(scheme, grid, values, n, alpha).value
            interp = build_interpolant(scheme, grid, values, n)
            slow = quad_caputo_piecewise(interp, grid.time(n), alpha, tol=1e-12)
            worst = max(worst, abs(fast - slow) / max(abs(fast), abs(slow), 1e-12))
            count += 1
    return worst < 1e-9, f"{count} instances, worst rel dev {worst:.2e}"


@_check("derivative-form and integrated-form quadratures agree")
def _check_oracle_two_forms(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    count = 0
    for scheme in _ALL_SCHEMES:
        for _ in range(4):
            n = rng.randrange(3, 33)
            grid = UniformGrid(horizon=1.0, steps=n)
            alpha = rng.uniform(0.2, 0.9)
            u = HolderTestFunction(m=2, beta=rng.uniform(0.3, 1.0), xi=rng.uniform(0.3, 0.7))
            values = [u(grid.time(i)) for i in range(n + 1)]
            interp = build_interpolant(scheme, grid, values, n)
            a = quad_caputo_piecewise(interp, grid.time(n), alpha, tol=1e-12)
            b = quad_caputo_integrated(interp, grid.time(n), alpha, tol=1e-11)
            scale = max(abs(a), abs(b), 1e-10)
            worst = max(worst, abs(a - b) / scale)
            count += 1
    return worst < 1e-10, f"{count} instances, worst rel dev {worst:.2e}"


@_check("monomial power rule against quadrature")
def _check_power_rule(rng: random.Random) -> tuple[bool, str]:
    # s^p is its own interpolant on p + 1 equispaced nodes over [0, t]
    worst = 0.0
    for p in range(1, 7):
        alpha = rng.uniform(0.15, 0.85)
        t = rng.uniform(0.4, 1.0)
        times = tuple(t * i / p for i in range(p + 1))
        piece = LagrangePiece(times, tuple(s**p for s in times), (0.0, t), t / p)
        interp = PiecewisePolynomial((piece,))
        want = exact_caputo_monomial(p, t, alpha)
        for route in (quad_caputo_piecewise, quad_caputo_integrated):
            got = route(interp, t, alpha, tol=1e-12)
            worst = max(worst, abs(got - want) / abs(want))
    return worst < 1e-8, f"p = 1..6, both routes, worst rel dev {worst:.2e}"


@_check("first-node order sits in the 2 - alpha band")
def _check_first_node_band(_: random.Random) -> tuple[bool, str]:
    ok = True
    notes = []
    # L2 only: at node 1 L1-2 takes the same L1 step, its rates within 1e-8
    probe = HolderTestFunction(m=2, beta=0.5, xi=0.5)
    for alpha in (0.3, 0.5, 0.7):
        row = order_first_node(SchemeKind.l2(), probe, alpha, 2.0**-7)
        ok = ok and 2.0 - alpha - 0.10 <= row.measured_R <= 2.0 - alpha + 0.15
        notes.append(f"{row.scheme.label} alpha={alpha}: R={row.measured_R:.3f}")
    return ok, "; ".join(notes)


# Rate caps of the drawn interior probes, per scheme degree.  High-degree
# schemes are capped below their design order: their rate transients at
# tau = 2^-7 exceed the 0.15 band even though the asymptotic rate is right.
_RATE_CAPS = {1: 9.9, 2: 9.9, 3: 2.2, 4: 2.2, 5: 2.0, 6: 2.0}


def _draw_interior_probes(
    rng: random.Random, count: int
) -> list[tuple[SchemeKind, float, HolderTestFunction]]:
    """Random (scheme, alpha, test function) probes inside the envelope
    where the tau = 2^-7 three-grid ratio has settled.

    beta is kept off both endpoints, where the probe degenerates to a
    polynomial (reproduced exactly, no measurable ratio) or the transient
    is slowest.
    """
    out = []
    while len(out) < count:
        scheme = _ALL_SCHEMES[rng.randrange(len(_ALL_SCHEMES))]
        k = scheme.degree
        alpha = rng.uniform(0.1, 0.9)
        rate = rng.uniform(0.3, min(k + 1.0 - alpha - 0.5, _RATE_CAPS[k]))
        rc = RegularityClass.from_total(alpha + rate)
        if rc.m > k or not 0.2 <= rc.beta <= 0.95:
            continue
        xi = rng.randrange(8, 97) * 2.0**-7
        out.append((scheme, alpha, HolderTestFunction(m=rc.m, beta=rc.beta, xi=xi)))
    return out


@_check("interior orders track m + beta - alpha")
def _check_interior_orders(rng: random.Random) -> tuple[bool, str]:
    fixed = [
        (SchemeKind.l1(), 0.5, HolderTestFunction(m=1, beta=0.3, xi=0.5)),
        (SchemeKind.l2(), 0.5, HolderTestFunction(m=2, beta=0.5, xi=0.5)),
        (SchemeKind.l12(), 0.3, HolderTestFunction(m=1, beta=0.9, xi=0.5)),
        (SchemeKind.lk(3), 0.5, HolderTestFunction(m=2, beta=0.3, xi=0.25)),
    ]
    probes = fixed + _draw_interior_probes(rng, 30)
    worst = 0.0
    notes = []
    for i, (scheme, alpha, f) in enumerate(probes):
        row = order_interior(scheme, f, alpha, 2.0**-7)
        worst = max(worst, abs(row.measured_R - row.theoretical_order))
        if i < len(fixed):
            notes.append(f"{scheme.label}: {row.measured_R:.3f} vs {row.theoretical_order:.2f}")
    notes.append(f"worst dev {worst:.3f} over {len(probes)} probes")
    return worst < 0.15, "; ".join(notes)


def run_check(name: str) -> CheckResult:
    """Run the check registered under ``name`` with a fresh RNG seeded
    with the suite's one seed.  A check that raises fails, with the
    exception's type and message as its detail."""
    check = _CHECKS[name]
    try:
        ok, detail = check(random.Random(_SEED))
    except Exception as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, ok, detail)


def run_verification() -> list[CheckResult]:
    """Run every registered check in order; deterministic."""
    return [run_check(name) for name in _CHECKS]
