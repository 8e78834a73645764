"""Convergence-order measurement for the discrete Caputo schemes.

``order_interior`` estimates the convergence order at a fixed interior
time by Richardson extrapolation over three nested grids.
``order_first_node`` measures the error of the very first time step
against a 128-fold refinement, ``order_fixed_time`` the error at one
fixed time against a grid 64 times finer than that time, the construction
behind the published first-node table; each turns the decay of its error
under grid halving into an order, in one ``ReferenceErrorRow`` that
carries both errors, refused only by each error's round-off floor.

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
    "ConvergenceRow",
    "ReferenceErrorRow",
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

# Successive refinements closer than this are indistinguishable from
# round-off and cannot support a log-ratio.
_MIN_DIFF = 1e-15

# Refinement factor for the first-node reference grid.
_FIRST_NODE_REFINEMENT = 128

# An error at time t below this many units eps max(|u(0)|, |u(t)|)
# h^-alpha / Gamma(2 - alpha) of its step-h reference is round-off; the weights
# grow like 1/(1 - alpha).  Pure first-node round-off measured at most 18 units
# (L2, L1-2, alpha 0.01..0.99, beta 0.01..1, tau 2^-34..2^-900); L2 at
# alpha = beta = 0.5 and tau = 2^-21 reads 226.
_REFERENCE_NOISE = 64.0

# Steps per unit of the fixed time on the fixed-time reference grid.
_FIXED_TIME_REFINEMENT = 64

_HORIZON = 1.0

# Coarsest step 2^-7 of the interior studies.
_INTERIOR_TAU_EXP = 7


class DegenerateDifferenceError(ArithmeticError):
    """Raised when a refinement difference is too small to carry an order."""


@dataclass(frozen=True, slots=True)
class ConvergenceRow:
    """One interior-point order measurement."""

    scheme: SchemeKind
    alpha: float
    m: int
    beta: float
    xi: float
    tau_base: float
    measured_R: float
    theoretical_order: float


@dataclass(frozen=True, slots=True)
class ReferenceErrorRow:
    """One error and order measurement against a reference grid.

    ``error`` and ``error_half`` are the errors of the step-tau and
    step-tau/2 grids at time t, and ``measured_R`` is log2 of their ratio.
    ``t`` and ``tau_ref`` belong to the step-tau grid: its error is taken
    at t against the step-tau_ref grid.  A first-node row halves both for
    its step-tau/2 grid, which is read at its own first node; a fixed-time
    row keeps them, and its ``scheme`` is L1.
    """

    scheme: SchemeKind
    alpha: float
    beta: float
    m: int
    xi: float
    t: float
    tau: float
    tau_ref: float
    error: float
    error_half: float
    measured_R: float


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


def order_interior(
    scheme: SchemeKind,
    f: HolderTestFunction,
    alpha: float,
    tau: float,
) -> ConvergenceRow:
    """Estimate the convergence order at the kink of the test function.

    The operator is evaluated at the kink xi on grids with steps
    tau, tau/2 and tau/4, and the order is read off as

        R = log2 |d(tau) - d(tau/2)| / |d(tau/2) - d(tau/4)|.

    xi must be a node of the coarsest grid and must sit at least
    ``scheme.degree`` steps into it, so all three grids evaluate past the
    scheme's startup region.  f is sampled once, on the finest grid,
    through the probe memo.  Raises DegenerateDifferenceError when either
    difference falls below 1e-15; a scheme that is exact on the probe has
    no measurable order.
    """
    xi = _check_probe(f).xi
    n_coarse = _unit_grid(tau).node_index(xi)
    if n_coarse < _check_type(scheme, SchemeKind, "scheme").degree:
        raise ValueError(
            f"need xi >= {scheme.degree} * tau for {scheme.label}, "
            f"got xi/tau = {n_coarse}"
        )

    # one sampling of f on the finest grid serves all three: node i of the
    # step-tau/r grid is node 4i/r of the step-tau/4 grid, bit for bit
    vals = _samples(f, tau / 4.0, xi)
    d1, d2, d4 = (scheme_value(scheme, alpha, vals[:: 4 // r], tau / r, xi) for r in (1, 2, 4))
    coarse, fine = abs(d1 - d2), abs(d2 - d4)
    if coarse < _MIN_DIFF or fine < _MIN_DIFF:
        raise DegenerateDifferenceError(f"refinement differences {coarse:.3e} / {fine:.3e} are below "
                                        f"the round-off floor at alpha={alpha}, m={f.m}, beta={f.beta}")
    return ConvergenceRow(
        scheme=scheme,
        alpha=alpha,
        m=f.m,
        beta=f.beta,
        xi=xi,
        tau_base=tau,
        measured_R=math.log2(coarse / fine),
        theoretical_order=f.m + f.beta - alpha,
    )


def _reference_row(scheme: SchemeKind, alpha: float, f: HolderTestFunction, grids, what: str):
    """The row of two grids (tau, t, h): the errors of the step-tau values at
    time t less the step-h ones, each refused at or below its reference's
    round-off floor alone, which scales with u, and their rate."""
    errs = []
    for tau, t, h in grids:
        vals = _samples(f, tau, t)
        value = scheme_value(scheme, alpha, vals, tau, t)
        err = abs(value - scheme_value(scheme, alpha, _samples(f, h, t), h, t))
        floor = _REFERENCE_NOISE * sys.float_info.epsilon * max(abs(vals[0]), abs(vals[-1]))
        floor *= h**-alpha / math.gamma(2.0 - alpha)  # alpha checked by scheme_value
        if not err > floor:
            raise DegenerateDifferenceError(f"{what} {err:.3e} at tau={tau!r} is at or below "
                                            f"the round-off floor {floor:.3e} of its reference")
        errs.append(err)
    tau, t, h = grids[0]
    return ReferenceErrorRow(
        scheme=scheme,
        alpha=alpha,
        beta=f.beta,
        m=f.m,
        xi=f.xi,
        t=t,
        tau=tau,
        tau_ref=h,
        error=errs[0],
        error_half=errs[1],
        measured_R=math.log2(errs[0] / errs[1]),
    )


def order_first_node(
    scheme: SchemeKind,
    f: HolderTestFunction,
    alpha: float,
    tau: float,
) -> ReferenceErrorRow:
    """Measure the first-node error at t = tau and its decay order.

    The error of each grid is taken at that grid's own first node against
    a 128-fold refinement, and the order is the log2 ratio of the errors
    of the step-tau and step-tau/2 grids:

        R = log2 E(tau) / E(tau/2),  E(h) = |d_h(h) - d_{h/128}(h)|.

    Only the quadratic schemes are admitted; their first interval is the
    linear first step, whose error order 2 - alpha is the quantity under
    test.  The probe must have m = 2 so the kink does not interfere with
    the first node; each grid samples it through the probe memo.  Its one
    refusal: DegenerateDifferenceError when an error is at or below the
    round-off floor of its reference node value, which scales with u.
    """
    if _check_type(scheme, SchemeKind, "scheme") not in (SchemeKind.l2(), SchemeKind.l12()):
        raise ValueError(f"first-node study is defined for L2 and L1-2, got {scheme.label}")
    if _check_probe(f).m != 2:
        raise ValueError(f"first-node probe needs m = 2, got m={f.m}")
    h = _check_real(tau, "step tau", 0.0) / _FIRST_NODE_REFINEMENT
    grids = ((tau, tau, h), (tau / 2.0, tau / 2.0, h / 2.0))
    return _reference_row(scheme, alpha, f, grids, "first-node error")


def order_fixed_time(
    f: HolderTestFunction,
    alpha: float,
    tau: float,
    t: float,
) -> ReferenceErrorRow:
    """Measure the L1 error at the fixed time t and its decay order.

    The error of the step-h L1 grid is taken at t against L1 on the grid
    with step t/64, and the order is the log2 ratio of the errors of the
    step-tau and step-tau/2 grids:

        R = log2 E(tau) / E(tau/2),  E(h) = |d_h(t) - d_{t/64}(t)|.

    t must be a node of the step-tau grid, and the step-tau/2 grid must be
    coarser than the reference grid, so t / tau < 32.  Each grid samples f
    through the probe memo.  Its one refusal: DegenerateDifferenceError when
    an error is at or below the reference value's round-off floor.

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
    if t / tau >= _FIXED_TIME_REFINEMENT / 2:
        raise ValueError(
            f"step {tau!r} halved is not coarser than the reference step "
            f"{t!r}/{_FIXED_TIME_REFINEMENT}"
        )
    tau_ref = t / _FIXED_TIME_REFINEMENT
    grids = ((tau, t, tau_ref), (tau / 2.0, t, tau_ref))
    return _reference_row(SchemeKind.l1(), alpha, _check_probe(f), grids, "fixed-time error")


@dataclass(frozen=True)
class InteriorCell:
    """One (alpha, total smoothness) cell of an interior-order table.

    ``row`` is None for dash cells, where the regularity does not exceed
    the differentiation order and no rate is claimed.
    """

    alpha: float
    total: float
    row: ConvergenceRow | None


@dataclass(frozen=True)
class FirstNodeCell:
    """One (alpha, tau, beta) cell of a first-node table.

    ``row`` measures each grid at its own first node; ``fixed_time``
    measures L1 at the study's coarsest step, the construction of the
    published table.  Only ``row`` is rendered.
    """

    alpha: float
    tau_exp: int
    beta: float
    row: ReferenceErrorRow
    fixed_time: ReferenceErrorRow


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
    t_fixed = 2.0 ** (-min(tau_exps))
    cells = []
    for alpha in alphas:
        for tau_exp in tau_exps:
            for beta in betas:
                f = HolderTestFunction(m=2, beta=beta, xi=xi)
                tau = 2.0 ** (-tau_exp)
                cells.append(
                    FirstNodeCell(
                        alpha=alpha,
                        tau_exp=tau_exp,
                        beta=beta,
                        row=order_first_node(scheme, f, alpha, tau),
                        fixed_time=order_fixed_time(f, alpha, tau, t_fixed),
                    )
                )
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
       steps 2^-7 and 2^-8, beta in {0.2, 0.5, 0.8}; each cell also
       carries the L1 error and order at the fixed time 2^-7 against a
       2^-13 grid, which reproduce the published errors and 2^-7 rates.
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
