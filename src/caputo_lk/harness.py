"""Convergence-order measurement for the discrete Caputo schemes.

Each measurement is one ``OrderRow``: the errors of a step-tau and a
step-tau/2 grid, each against a finer reference grid, and the order their
decay under grid halving reads.  ``order_interior`` estimates the order at a
fixed interior time by Richardson extrapolation over three nested grids,
``order_first_node`` the error of the very first time step against a
128-fold refinement, ``order_fixed_time`` the error at one fixed time against
a grid 64 times finer than that time, the construction behind the published
first-node table.  One core samples the probe once, evaluates each grid once
and refuses an error only at or below its reference's round-off floor.

Measurements sample a probe through one thread-safe ``lru_cache`` keyed by
(probe, step, node count), the probe by hash and equality, so no other class
reads a ``HolderTestFunction``'s samples.  It keeps up to 64 samplings of under
513 nodes as ``array('d')``, under 0.3 MB; others are sampled on every call.

``reproduce_table`` packages the four built-in studies over the Holder
test family into ``Report`` objects, and ``render`` turns a report into
CSV or markdown text with deterministic bytes, which the CLI writes.  A
report keeps only its cells, in table order, and both renderers read the
table layout from that order.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from .holder import HolderTestFunction, RegularityClass, UniformGrid, _check_count, _check_real
from .holder import _check_type
from .interp import SchemeKind, _check_nodes
from .schemes import discrete_caputo

__all__ = [
    "DASH",
    "OrderRow",
    "InteriorCell",
    "FirstNodeCell",
    "Report",
    "DegenerateDifferenceError",
    "scheme_value",
    "order_interior",
    "order_first_node",
    "order_fixed_time",
    "reproduce_table",
    "render",
]

# Cell marker for regularity at or below the differentiation order, where
# no convergence order is claimed.
DASH = "-"

# Refinement factor for the first-node reference grid.
_FIRST_NODE_REFINEMENT = 128

# An error at time t below 64 units eps max(|u(0)|, |u(t)|) h^-alpha /
# Gamma(2 - alpha) of its step-h reference is round-off; the weights grow like
# 1/(1 - alpha).  Pure first-node round-off measured at most 18 units (L2,
# L1-2, alpha 0.01..0.99, beta 0.01..1, tau 2^-34..2^-900); L2 at
# alpha = beta = 0.5 and tau = 2^-21 reads 226.
_REFERENCE_NOISE = 64.0 * sys.float_info.epsilon

# Steps per unit of the fixed time on the fixed-time reference grid.
_FIXED_TIME_REFINEMENT = 64

_HORIZON = 1.0

# Coarsest step 2^-7 of the interior studies.
_INTERIOR_TAU_EXP = 7


class DegenerateDifferenceError(ArithmeticError):
    """Raised when an error is too small to carry an order."""


@dataclass(frozen=True, slots=True)
class OrderRow:
    """One order measurement: two errors and the rate of their decay.

    ``error`` and ``error_half`` are the errors of the step-tau and
    step-tau/2 grids at time t, and ``measured_R`` is log2 of their ratio,
    derived from them rather than stored, which keeps a row 32 bytes smaller.
    ``t`` and ``tau_ref`` belong to the step-tau grid: its error is taken
    at t against the step-tau_ref grid.  An interior row reads both grids at
    t = xi, each against the grid of half its step, so tau_ref = tau/2; a
    first-node row halves t and tau_ref for its step-tau/2 grid, which is
    read at its own first node; a fixed-time row keeps them, and its
    ``scheme`` is L1.
    """

    scheme: SchemeKind
    alpha: float
    m: int
    beta: float
    xi: float
    t: float
    tau: float
    tau_ref: float
    error: float
    error_half: float

    @property
    def measured_R(self) -> float:
        """log2(error / error_half), the same bits on every read."""
        return math.log2(self.error / self.error_half)

    @property
    def theoretical_order(self) -> float:
        """m + beta - alpha, the order an interior row is measured against."""
        return self.m + self.beta - self.alpha


def _unit_grid(tau: float) -> UniformGrid:
    """The step-tau grid over [0, 1]; 1/tau must be integral."""
    tau = _check_real(tau, "step tau", 0.0)
    if _HORIZON / tau == math.inf:
        raise ValueError(f"step tau={tau!r} is too small: 1/tau overflows")
    steps = round(_HORIZON / tau)
    if steps < 1 or abs(steps * tau - _HORIZON) > 1e-9 * _HORIZON:
        raise ValueError(f"step {tau!r} does not divide the unit horizon")
    return UniformGrid(horizon=_HORIZON, steps=steps)


# Samplings the probe memo keeps have fewer nodes than this: 4.2 KB each.
_MEMO_NODES = 513


@functools.lru_cache(maxsize=64)
def _memo(f, tau: float, n: int) -> array:
    return array("d", _check_nodes(_unit_grid(tau), f, n))


def _samples(f, tau: float, t: float) -> array | list[float]:
    """The checked values of f at nodes 0..t/tau of the step-tau grid, shared
    read-only through the probe memo when f is hashable and they are few."""
    grid = _unit_grid(tau)
    n = grid.node_index(t)
    try:
        hash(f)
    except TypeError:  # an unhashable probe is sampled without the memo
        return _check_nodes(grid, f, n)
    return _memo(f, tau, n) if n < _MEMO_NODES else _check_nodes(grid, f, n)


def _check_probe(f):
    """f, or ValueError unless it is a callable with the fields m, beta and xi."""
    if type(f) is HolderTestFunction or callable(f) and all(hasattr(f, a) for a in ("m", "beta", "xi")):
        return f
    raise ValueError(f"probe must be callable with fields m, beta, xi, got type {type(f).__name__}")


def scheme_value(scheme: SchemeKind, alpha: float, u, tau: float, t: float) -> float:
    """Discrete Caputo value of u at physical time t on the step-tau grid
    over [0, 1], under the given scheme and alpha.

    Both 1/tau and t/tau must be integral; t is mapped to its node index
    through the grid so off-grid times are refused.  The value is
    ``discrete_caputo``'s, whose weights every grid, measurement and study
    at this (scheme, alpha) shares, so each lag is computed once.
    """
    grid = _unit_grid(tau)
    n = grid.node_index(t)
    return discrete_caputo(scheme, grid, u, n, alpha).value


def _measure(scheme: SchemeKind, alpha: float, f, grids, what: str) -> OrderRow:
    """The row of two grids (tau, t, h): the errors of the step-tau values at
    time t less the step-h ones, each refused at or below its reference's
    round-off floor alone, which scales with u, and their rate.

    The second grid halves the first's step, and its h must be the finest
    step, a whole fraction of every other, and the first grid's t the latest
    time: f is sampled once, on the step-h grid up to that time, through the
    probe memo, and every grid reads those values at its stride, bit for
    bit.  Each (step, time) is evaluated once: only the first grid's
    reference can recur, as the second grid's value or its reference.
    """
    (tau, t, h), (tau2, t2, fine) = grids
    try:
        u = _samples(f, fine, t)
    except ValueError:  # a step tau that does not divide the unit horizon is named as tau
        _unit_grid(tau)
        raise
    n, n2 = round(t / fine) + 1, round(t2 / fine) + 1
    d = scheme_value(scheme, alpha, u[: n : round(tau / fine)], tau, t)
    ref = scheme_value(scheme, alpha, u[: n : round(h / fine)], h, t)
    d2 = ref if t2 == t and tau2 == h else scheme_value(scheme, alpha, u[: n2 : round(tau2 / fine)], tau2, t2)
    ref2 = ref if t2 == t and fine == h else scheme_value(scheme, alpha, u[:n2], fine, t2)
    noise = _REFERENCE_NOISE / math.gamma(2.0 - alpha)  # alpha checked by scheme_value
    err, err2 = abs(d - ref), abs(d2 - ref2)
    floor = noise * max(abs(u[0]), abs(u[n - 1])) * h**-alpha
    floor2 = noise * max(abs(u[0]), abs(u[n2 - 1])) * fine**-alpha
    if not (err > floor and err2 > floor2):
        bad, low, step = (err2, floor2, tau2) if err > floor else (err, floor, tau)
        raise DegenerateDifferenceError(f"{what} {bad:.3e} at tau={step!r} is at or below "
                                        f"the round-off floor {low:.3e} of its reference")
    return OrderRow(scheme, alpha, f.m, f.beta, f.xi, t, tau, h, err, err2)


def order_interior(scheme: SchemeKind, f: HolderTestFunction, alpha: float, tau: float) -> OrderRow:
    """Estimate the convergence order at the kink of the test function.

    The operator is evaluated at the kink xi on grids with steps
    tau, tau/2 and tau/4, and the order is read off as

        R = log2 |d(tau) - d(tau/2)| / |d(tau/2) - d(tau/4)|.

    xi must be a node of the coarsest grid and must sit at least
    ``scheme.degree`` steps into it, so all three grids evaluate past the
    scheme's startup region.  f is sampled once, on the finest grid,
    through the probe memo.  Raises DegenerateDifferenceError when either
    difference is at or below the round-off floor of its finer value, which
    scales with u; a scheme that is exact on the probe has no measurable
    order.
    """
    xi = _check_probe(f).xi
    n_coarse = _unit_grid(tau).node_index(xi)
    if n_coarse < _check_type(scheme, SchemeKind, "scheme").degree:
        raise ValueError(f"need xi >= {scheme.degree} * tau for {scheme.label}, got xi/tau = {n_coarse}")
    grids = ((tau, xi, tau / 2.0), (tau / 2.0, xi, tau / 4.0))
    return _measure(scheme, alpha, f, grids, "refinement difference")


def order_first_node(scheme: SchemeKind, f: HolderTestFunction, alpha: float, tau: float) -> OrderRow:
    """Measure the first-node error at t = tau and its decay order.

    The error of each grid is taken at that grid's own first node against
    a 128-fold refinement, and the order is the log2 ratio of the errors
    of the step-tau and step-tau/2 grids:

        R = log2 E(tau) / E(tau/2),  E(h) = |d_h(h) - d_{h/128}(h)|.

    Only the quadratic schemes are admitted; their first interval is the
    linear first step, whose error order 2 - alpha is the quantity under
    test.  The probe must have m = 2 so the kink does not interfere with
    the first node; it is sampled once, on the finest reference grid,
    through the probe memo.  Its one refusal: DegenerateDifferenceError
    when an error is at or below the round-off floor of its reference node
    value, which scales with u.
    """
    if _check_type(scheme, SchemeKind, "scheme") not in (SchemeKind.l2(), SchemeKind.l12()):
        raise ValueError(f"first-node study is defined for L2 and L1-2, got {scheme.label}")
    if _check_probe(f).m != 2:
        raise ValueError(f"first-node probe needs m = 2, got m={f.m}")
    h = _check_real(tau, "step tau", 0.0) / _FIRST_NODE_REFINEMENT
    grids = ((tau, tau, h), (tau / 2.0, tau / 2.0, h / 2.0))
    return _measure(scheme, alpha, f, grids, "first-node error")


def order_fixed_time(f: HolderTestFunction, alpha: float, tau: float, t: float) -> OrderRow:
    """Measure the L1 error at the fixed time t and its decay order.

    The error of the step-h L1 grid is taken at t against L1 on the grid
    with step t/64, and the order is the log2 ratio of the errors of the
    step-tau and step-tau/2 grids:

        R = log2 E(tau) / E(tau/2),  E(h) = |d_h(t) - d_{t/64}(t)|.

    t must be 1, 2, 4, 8 or 16 steps tau, so that both grids read the one
    sampling of f on the reference grid, through the probe memo, at a
    stride, and the step-tau/2 grid is coarser than the reference grid.
    Its one refusal: DegenerateDifferenceError when an error is at or below
    the reference value's round-off floor.

    With t = 2^-7 and tau in {2^-7, 2^-8} this reproduces all 18 errors
    of the published first-node table to their printed digits, and its
    2^-7 rates; its 2^-8 rates lie within 0.043 of the published ones,
    whose construction is not identified.  Whether the published table
    used L1 at every node, or only on the linear first
    step shared by the quadratic schemes, is unsettled: at t = tau the two
    coincide, but at node 2 of the 2^-8 grid L2 is about 1e-8 from its
    reference, against 2e-5 for L1 (alpha = 0.3).
    """
    t, tau = _check_real(t, "fixed time t", 0.0), _check_real(tau, "step tau", 0.0)
    if t / tau not in (1.0, 2.0, 4.0, 8.0, 16.0):
        raise ValueError(f"fixed time {t!r} must be 1, 2, 4, 8 or 16 steps {tau!r}")
    tau_ref = t / _FIXED_TIME_REFINEMENT
    grids = ((tau, t, tau_ref), (tau / 2.0, t, tau_ref))
    return _measure(SchemeKind.l1(), alpha, _check_probe(f), grids, "fixed-time error")


@dataclass(frozen=True)
class InteriorCell:
    """One (alpha, total smoothness) cell of an interior-order table.

    ``row`` is None for dash cells, where the regularity does not exceed
    the differentiation order and no rate is claimed.
    """

    alpha: float
    total: float
    row: OrderRow | None


@dataclass(frozen=True)
class FirstNodeCell:
    """One (alpha, tau, beta) cell of a first-node table; ``row`` measures
    each grid at its own first node."""

    alpha: float
    tau_exp: int
    beta: float
    row: OrderRow


@dataclass(frozen=True)
class Report:
    """A render-ready collection of order measurements.

    The cells are in table order, alpha-major, and the renderers read the
    table layout from that order: a run of interior cells with one alpha is
    a table row, as is a run of first-node cells with one alpha and step,
    and the first run's cells name the columns.  ``tau_exp`` is the
    study's coarsest step exponent, the step the interior CSV rows print.
    """

    title: str
    scheme: SchemeKind
    xi: float
    tau_exp: int
    interior_cells: tuple[InteriorCell, ...] = ()
    first_node_cells: tuple[FirstNodeCell, ...] = ()


_TOTALS_HALF = (0.3, 0.5, 0.9, 1.3, 1.5, 1.9, 2.2, 2.5, 2.7, 3.0)
_TOTALS_QUARTER = (0.5, 0.8, 1.3, 1.6, 2.3, 2.6, 3.2, 3.4, 3.6)


def _interior_report(scheme: SchemeKind, xi: float, alphas, totals) -> Report:
    tau = 2.0 ** (-_INTERIOR_TAU_EXP)
    cells = []
    for alpha in alphas:
        for total in totals:
            rc = RegularityClass.from_total(total)
            f = HolderTestFunction(m=rc.m, beta=rc.beta, xi=xi)
            row = None if total <= alpha + 1e-12 else order_interior(scheme, f, alpha, tau)
            cells.append(InteriorCell(alpha=alpha, total=total, row=row))
    return Report(
        title=f"interior convergence orders, {scheme.label} scheme"
        f" (xi = {xi}, tau = 2^-{_INTERIOR_TAU_EXP})",
        scheme=scheme,
        xi=xi,
        tau_exp=_INTERIOR_TAU_EXP,
        interior_cells=tuple(cells),
    )


def _first_node_report(alphas, tau_exps, betas) -> Report:
    scheme = SchemeKind.l2()
    xi = 0.5
    cells = []
    for alpha in alphas:
        for tau_exp in tau_exps:
            for beta in betas:
                f = HolderTestFunction(m=2, beta=beta, xi=xi)
                row = order_first_node(scheme, f, alpha, 2.0 ** (-tau_exp))
                cells.append(FirstNodeCell(alpha=alpha, tau_exp=tau_exp, beta=beta, row=row))
    return Report(
        title="first-node errors and orders at t = tau (m = 2, xi = 0.5)",
        scheme=scheme,
        xi=xi,
        tau_exp=tau_exps[0],
        first_node_cells=tuple(cells),
    )


_STUDIES = {
    1: lambda: _interior_report(SchemeKind.l2(), 0.5, (0.1, 0.3, 0.5, 0.7), _TOTALS_HALF),
    2: lambda: _interior_report(SchemeKind.l12(), 0.5, (0.1, 0.3, 0.5, 0.7), _TOTALS_HALF),
    3: lambda: _first_node_report((0.3, 0.5, 0.7), (7, 8), (0.2, 0.5, 0.8)),
    4: lambda: _interior_report(SchemeKind.lk(3), 0.25, (0.3, 0.5, 0.7), _TOTALS_QUARTER),
}


def reproduce_table(table_id: int) -> Report:
    """Run one of the four built-in convergence studies.

    1: interior orders of L2 at xi = 0.5 over ten regularity classes.
    2: the same study for L1-2.
    3: first-node errors and orders of the quadratic schemes at m = 2,
       steps 2^-7 and 2^-8, beta in {0.2, 0.5, 0.8}: four node evaluations
       per cell, 72 in all.  ``order_fixed_time`` at the fixed time 2^-7,
       the L1 error against a 2^-13 grid, reproduces the published errors
       and 2^-7 rates of these cells.
    4: interior orders of L1-2-3 at xi = 0.25 over nine classes.

    The interior studies take their coarsest step as 2^-7.  The builders
    are one table, ``_STUDIES``; any other id, 1.0 too, raises ValueError.
    """
    return _STUDIES[_check_count(table_id, "table id", 1, len(_STUDIES))]()


def _fmt(x: float) -> str:
    """Six significant digits, fixed across platforms."""
    return f"{x:.6g}"


_CSV_HEADER = "scheme,alpha,m,beta,xi,tau,measured_R,theoretical_order,error"


def _csv_lines(report: Report) -> list[str]:
    lines = [_CSV_HEADER]
    tau = _fmt(2.0 ** (-report.tau_exp))
    for cell in report.interior_cells:
        rc, row = RegularityClass.from_total(cell.total), cell.row
        rate = DASH if row is None else _fmt(row.measured_R)
        order = cell.total - cell.alpha if row is None else row.theoretical_order
        fields = [report.scheme.label, _fmt(cell.alpha), str(rc.m), _fmt(rc.beta), _fmt(report.xi),
                  tau, rate, _fmt(order), ""]
        lines.append(",".join(fields))
    for cell in report.first_node_cells:
        row = cell.row
        fields = [row.scheme.label, _fmt(row.alpha), str(row.m), _fmt(row.beta), _fmt(row.xi),
                  _fmt(row.tau), _fmt(row.measured_R), _fmt(2.0 - row.alpha), _fmt(row.error)]
        lines.append(",".join(fields))
    return lines


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """A markdown table, after a blank line."""
    return ["", *("| " + " | ".join(row) + " |" for row in [header, ["---"] * len(header), *rows])]


def _markdown_lines(report: Report) -> list[str]:
    lines = [f"## {report.title}"]
    runs = [list(r) for _, r in groupby(report.interior_cells, attrgetter("alpha"))]
    if runs:
        header = ["alpha \\ m+beta", *(_fmt(c.total) for c in runs[0])]
        lines += _table(header, [
            [_fmt(r[0].alpha), *(DASH if c.row is None else f"{c.row.measured_R:.2f}" for c in r)]
            for r in runs
        ])
    runs = [list(r) for _, r in groupby(report.first_node_cells, attrgetter("alpha", "tau_exp"))]
    if runs:
        header = ["alpha", "tau", *(f"error (beta={_fmt(c.beta)})" for c in runs[0]), "R"]
        # the order estimate is essentially beta-independent; the R column
        # reports the first beta's value
        lines += _table(header, [
            [_fmt(r[0].alpha), f"2^-{r[0].tau_exp}", *(_fmt(c.row.error) for c in r),
             f"{r[0].row.measured_R:.2f}"]
            for r in runs
        ])
    return lines


def render(report: Report, format: str = "markdown") -> str:
    """Render a report to a string with deterministic bytes."""
    _check_type(report, Report, "report")
    if format == "csv":
        lines = _csv_lines(report)
    elif format == "markdown":
        lines = _markdown_lines(report)
    else:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'markdown'")
    return "\n".join(lines) + "\n"
