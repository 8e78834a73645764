"""Convergence-order measurement for the discrete Caputo schemes.

Two experiment styles are provided.  ``order_interior`` estimates the
convergence order at a fixed interior time by Richardson extrapolation
over three nested grids.  ``order_first_node`` measures the error of the
very first time step against a 128-fold refinement and turns the decay
of that error under grid halving into an order estimate.
``order_fixed_time`` measures the error at one fixed time against a grid
64 times finer than that time, the construction behind the published
first-node table.

``reproduce_table`` packages the four built-in studies over the Holder
test family into ``Report`` objects, and ``emit`` renders a report as
CSV or markdown with deterministic bytes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TextIO, Union

from .holder import HolderTestFunction, RegularityClass, UniformGrid, _check_alpha
from .interp import SchemeKind, _check_nodes
from .schemes import discrete_caputo

__all__ = [
    "DASH",
    "ConvergenceRow",
    "FirstNodeRow",
    "FixedTimeRow",
    "InteriorCell",
    "FirstNodeCell",
    "Report",
    "DegenerateDifferenceError",
    "scheme_value",
    "order_interior",
    "order_first_node",
    "order_fixed_time",
    "reproduce_table",
    "emit",
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
class FirstNodeRow:
    """One first-node error and order measurement.

    The test function always has m = 2 so the first-node order is governed
    by alpha alone.
    """

    scheme: SchemeKind
    alpha: float
    beta: float
    m: int
    xi: float
    tau: float
    error: float
    measured_R: float


@dataclass(frozen=True, slots=True)
class FixedTimeRow:
    """One fixed-time L1 error and order measurement.

    ``error`` and ``error_half`` are the errors of the step-tau and
    step-tau/2 L1 grids at the fixed time t, both against the step-tau_ref
    L1 grid.
    """

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
    if not 0.0 < tau < math.inf:
        raise ValueError(f"step tau must be positive and finite, got tau={tau!r}")
    if _HORIZON / tau == math.inf:
        raise ValueError(f"step tau={tau!r} is too small: 1/tau overflows")
    steps = round(_HORIZON / tau)
    if steps < 1 or abs(steps * tau - _HORIZON) > 1e-9 * _HORIZON:
        raise ValueError(f"step {tau!r} does not divide the unit horizon")
    return UniformGrid(horizon=_HORIZON, steps=steps)


def _rate(coarse: float, fine: float, what: str, alpha: float, f: HolderTestFunction) -> float:
    """log2(coarse / fine), refused when either quantity is round-off."""
    if coarse < _MIN_DIFF or fine < _MIN_DIFF:
        raise DegenerateDifferenceError(
            f"{what} {coarse:.3e} / {fine:.3e} are below the "
            f"round-off floor at alpha={alpha}, m={f.m}, beta={f.beta}"
        )
    return math.log2(coarse / fine)


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
    if n == 0:
        raise ValueError("the discrete operator starts at the first node")
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
    scheme's startup region.  Raises DegenerateDifferenceError when either
    difference falls below 1e-15; a scheme that is exact on the probe has
    no measurable order.
    """
    xi = f.xi
    n_coarse = _unit_grid(tau).node_index(xi)
    if n_coarse < scheme.degree:
        raise ValueError(
            f"need xi >= {scheme.degree} * tau for {scheme.label}, "
            f"got xi/tau = {n_coarse}"
        )

    # one sampling of f on the finest grid serves all three: node i of the
    # step-tau/r grid is node 4i/r of the step-tau/4 grid, bit for bit
    vals = _check_nodes(_unit_grid(tau / 4.0), f, 4 * n_coarse)
    d1, d2, d4 = (scheme_value(scheme, alpha, vals[:: 4 // r], tau / r, xi) for r in (1, 2, 4))
    rate = _rate(abs(d1 - d2), abs(d2 - d4), "refinement differences", alpha, f)
    return ConvergenceRow(
        scheme=scheme,
        alpha=alpha,
        m=f.m,
        beta=f.beta,
        xi=xi,
        tau_base=tau,
        measured_R=rate,
        theoretical_order=f.m + f.beta - alpha,
    )


def _reference_error(value: float, ref: float, alpha, f, tau, t, h, what: str) -> float:
    """Error of the step-tau grid's value at time t against ref, the same
    operator's value there on the step-h grid, refused when it is below the
    round-off floor of that reference value."""
    err = abs(value - ref)
    al = _check_alpha(alpha)
    floor = _REFERENCE_NOISE * sys.float_info.epsilon * max(abs(f(0.0)), abs(f(t)))
    floor *= h**-al / math.gamma(2.0 - al)
    if err < floor:
        raise DegenerateDifferenceError(f"{what} {err:.3e} at tau={tau!r} is below "
                                        f"the round-off floor {floor:.3e} of its reference")
    return err


def order_first_node(
    scheme: SchemeKind,
    f: HolderTestFunction,
    alpha: float,
    tau: float,
) -> FirstNodeRow:
    """Measure the first-node error at t = tau and its decay order.

    The error of each grid is taken at that grid's own first node against
    a 128-fold refinement, and the order is the log2 ratio of the errors
    of the step-tau and step-tau/2 grids:

        R = log2 E(tau) / E(tau/2),  E(h) = |d_h(h) - d_{h/128}(h)|.

    Only the quadratic schemes are admitted; their first interval is the
    linear first step, whose error order 2 - alpha is the quantity under
    test.  The probe must have m = 2 so the kink does not interfere with
    the first node.  Raises DegenerateDifferenceError when either error is
    below the round-off floor of its reference node value.
    """
    if scheme not in (SchemeKind.l2(), SchemeKind.l12()):
        raise ValueError(f"first-node study is defined for L2 and L1-2, got {scheme.label}")
    if f.m != 2:
        raise ValueError(f"first-node probe needs m = 2, got m={f.m}")
    h = tau / _FIRST_NODE_REFINEMENT
    err, err_half = (
        _reference_error(scheme_value(scheme, alpha, f, s, s), scheme_value(scheme, alpha, f, r, s),
                         alpha, f, s, s, r, "first-node error")
        for s, r in ((tau, h), (tau / 2.0, h / 2.0))
    )
    rate = _rate(err, err_half, "first-node errors", alpha, f)
    return FirstNodeRow(
        scheme=scheme,
        alpha=alpha,
        beta=f.beta,
        m=f.m,
        xi=f.xi,
        tau=tau,
        error=err,
        measured_R=rate,
    )


def order_fixed_time(
    f: HolderTestFunction,
    alpha: float,
    tau: float,
    t: float,
) -> FixedTimeRow:
    """Measure the L1 error at the fixed time t and its decay order.

    The error of the step-h L1 grid is taken at t against L1 on the grid
    with step t/64, and the order is the log2 ratio of the errors of the
    step-tau and step-tau/2 grids:

        R = log2 E(tau) / E(tau/2),  E(h) = |d_h(t) - d_{t/64}(t)|.

    t must be a node of the step-tau grid, and the step-tau/2 grid must be
    coarser than the reference grid, so t / tau < 32.  Raises
    DegenerateDifferenceError when either error is below the round-off
    floor of the reference value.

    With t = 2^-7 and tau in {2^-7, 2^-8} this reproduces all 18 errors
    of the published first-node table to their printed digits, and its
    2^-7 rates; its 2^-8 rates lie within 0.043 of the published ones,
    whose construction is not identified.  Whether the
    published table used L1 at every node, or only on the linear first
    step shared by the quadratic schemes, is unsettled: at t = tau the two
    coincide, but at node 2 of the 2^-8 grid L2 is about 1e-8 from its
    reference, against 2e-5 for L1 (alpha = 0.3).
    """
    if t / tau >= _FIXED_TIME_REFINEMENT / 2:
        raise ValueError(
            f"step {tau!r} halved is not coarser than the reference step "
            f"{t!r}/{_FIXED_TIME_REFINEMENT}"
        )
    l1 = SchemeKind.l1()
    tau_ref = t / _FIXED_TIME_REFINEMENT
    value = scheme_value(l1, alpha, f, tau, t)
    ref = scheme_value(l1, alpha, f, tau_ref, t)
    err = _reference_error(value, ref, alpha, f, tau, t, tau_ref, "fixed-time error")
    value = scheme_value(l1, alpha, f, tau / 2.0, t)
    err_half = _reference_error(value, ref, alpha, f, tau / 2.0, t, tau_ref, "fixed-time error")
    rate = _rate(err, err_half, "fixed-time errors", alpha, f)
    return FixedTimeRow(
        alpha=alpha,
        beta=f.beta,
        m=f.m,
        xi=f.xi,
        t=t,
        tau=tau,
        tau_ref=tau_ref,
        error=err,
        error_half=err_half,
        measured_R=rate,
    )


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
    row: FirstNodeRow
    fixed_time: FixedTimeRow


@dataclass(frozen=True)
class Report:
    """A rendered-ready collection of order measurements."""

    title: str
    kind: str
    scheme: SchemeKind
    xi: float
    tau_exp: int
    alphas: tuple[float, ...]
    totals: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    tau_exps: tuple[int, ...] = ()
    interior_cells: tuple[InteriorCell, ...] = ()
    first_node_cells: tuple[FirstNodeCell, ...] = ()


_TOTALS_HALF = (0.3, 0.5, 0.9, 1.3, 1.5, 1.9, 2.2, 2.5, 2.7, 3.0)
_TOTALS_QUARTER = (0.5, 0.8, 1.3, 1.6, 2.3, 2.6, 3.2, 3.4, 3.6)

_TABLE_PARAMS = {
    1: dict(
        scheme=SchemeKind.l2(),
        xi=0.5,
        alphas=(0.1, 0.3, 0.5, 0.7),
        totals=_TOTALS_HALF,
    ),
    2: dict(
        scheme=SchemeKind.l12(),
        xi=0.5,
        alphas=(0.1, 0.3, 0.5, 0.7),
        totals=_TOTALS_HALF,
    ),
    4: dict(
        scheme=SchemeKind.lk(3),
        xi=0.25,
        alphas=(0.3, 0.5, 0.7),
        totals=_TOTALS_QUARTER,
    ),
}

_TABLE3_ALPHAS = (0.3, 0.5, 0.7)
_TABLE3_BETAS = (0.2, 0.5, 0.8)
_TABLE3_TAU_EXPS = (7, 8)


def _interior_report(table_id: int) -> Report:
    params = _TABLE_PARAMS[table_id]
    scheme: SchemeKind = params["scheme"]
    xi: float = params["xi"]
    tau = 2.0 ** (-_INTERIOR_TAU_EXP)
    cells = []
    for alpha in params["alphas"]:
        for total in params["totals"]:
            rc = RegularityClass.from_total(total)
            if total <= alpha + 1e-12:
                cells.append(InteriorCell(alpha=alpha, total=total, row=None))
                continue
            f = HolderTestFunction(m=rc.m, beta=rc.beta, xi=xi)
            row = order_interior(scheme, f, alpha, tau)
            cells.append(InteriorCell(alpha=alpha, total=total, row=row))
    return Report(
        title=f"interior convergence orders, {scheme.label} scheme"
        f" (xi = {xi}, tau = 2^-{_INTERIOR_TAU_EXP})",
        kind="interior",
        scheme=scheme,
        xi=xi,
        tau_exp=_INTERIOR_TAU_EXP,
        alphas=tuple(params["alphas"]),
        totals=tuple(params["totals"]),
        interior_cells=tuple(cells),
    )


def _first_node_report() -> Report:
    scheme = SchemeKind.l2()
    xi = 0.5
    t_fixed = 2.0 ** (-min(_TABLE3_TAU_EXPS))
    cells = []
    for alpha in _TABLE3_ALPHAS:
        for tau_exp in _TABLE3_TAU_EXPS:
            for beta in _TABLE3_BETAS:
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
        kind="first-node",
        scheme=scheme,
        xi=xi,
        tau_exp=_TABLE3_TAU_EXPS[0],
        alphas=_TABLE3_ALPHAS,
        betas=_TABLE3_BETAS,
        tau_exps=_TABLE3_TAU_EXPS,
        first_node_cells=tuple(cells),
    )


def reproduce_table(table_id: int) -> Report:
    """Run one of the four built-in convergence studies.

    1: interior orders of L2 at xi = 0.5 over ten regularity classes.
    2: the same study for L1-2.
    3: first-node errors and orders of the quadratic schemes at m = 2,
       steps 2^-7 and 2^-8, beta in {0.2, 0.5, 0.8}; each cell also
       carries the L1 error and order at the fixed time 2^-7 against a
       2^-13 grid, which reproduce the published errors and 2^-7 rates.
    4: interior orders of L1-2-3 at xi = 0.25 over nine classes.

    The interior studies take their coarsest step as 2^-7.
    """
    if table_id in _TABLE_PARAMS:
        return _interior_report(table_id)
    if table_id == 3:
        return _first_node_report()
    raise ValueError(f"unknown table id {table_id!r}; expected 1, 2, 3 or 4")


def _fmt(x: float) -> str:
    """Six significant digits, fixed across platforms."""
    return f"{x:.6g}"


_CSV_HEADER = "scheme,alpha,m,beta,xi,tau,measured_R,theoretical_order,error"


def _csv_lines(report: Report) -> list[str]:
    lines = [_CSV_HEADER]
    if report.kind == "interior":
        tau = 2.0 ** (-report.tau_exp)
        for cell in report.interior_cells:
            rc = RegularityClass.from_total(cell.total)
            if cell.row is None:
                r_txt = DASH
                order_txt = _fmt(cell.total - cell.alpha)
            else:
                r_txt = _fmt(cell.row.measured_R)
                order_txt = _fmt(cell.row.theoretical_order)
            lines.append(
                ",".join(
                    [
                        report.scheme.label,
                        _fmt(cell.alpha),
                        str(rc.m),
                        _fmt(rc.beta),
                        _fmt(report.xi),
                        _fmt(tau),
                        r_txt,
                        order_txt,
                        "",
                    ]
                )
            )
    else:
        for cell in report.first_node_cells:
            row = cell.row
            lines.append(
                ",".join(
                    [
                        row.scheme.label,
                        _fmt(row.alpha),
                        str(row.m),
                        _fmt(row.beta),
                        _fmt(row.xi),
                        _fmt(row.tau),
                        _fmt(row.measured_R),
                        _fmt(2.0 - row.alpha),
                        _fmt(row.error),
                    ]
                )
            )
    return lines


def _markdown_lines(report: Report) -> list[str]:
    lines = [f"## {report.title}", ""]
    if report.kind == "interior":
        header = ["alpha \\ m+beta"] + [_fmt(t) for t in report.totals]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        by_key = {(c.alpha, c.total): c for c in report.interior_cells}
        for alpha in report.alphas:
            row = [_fmt(alpha)]
            for total in report.totals:
                cell = by_key[(alpha, total)]
                row.append(DASH if cell.row is None else f"{cell.row.measured_R:.2f}")
            lines.append("| " + " | ".join(row) + " |")
    else:
        header = ["alpha", "tau"]
        for beta in report.betas:
            header.append(f"error (beta={_fmt(beta)})")
        header.append("R")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        by_key = {(c.alpha, c.tau_exp, c.beta): c for c in report.first_node_cells}
        for alpha in report.alphas:
            for tau_exp in report.tau_exps:
                row = [_fmt(alpha), f"2^-{tau_exp}"]
                rs = []
                for beta in report.betas:
                    cell = by_key[(alpha, tau_exp, beta)]
                    row.append(_fmt(cell.row.error))
                    rs.append(cell.row.measured_R)
                # the order estimate is essentially beta-independent; the
                # R column reports the beta = 0.2 value
                row.append(f"{rs[0]:.2f}")
                lines.append("| " + " | ".join(row) + " |")
    return lines


def render(report: Report, format: str = "markdown") -> str:
    """Render a report to a string with deterministic bytes."""
    if format == "csv":
        lines = _csv_lines(report)
    elif format == "markdown":
        lines = _markdown_lines(report)
    else:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'markdown'")
    return "\n".join(lines) + "\n"


def emit(
    report: Report,
    format: str = "markdown",
    out: Union[str, TextIO, None] = None,
) -> str:
    """Write a rendered report to a path, a stream, or stdout.

    Returns the rendered text so callers can reuse it.
    """
    text = render(report, format)
    if out is None:
        sys.stdout.write(text)
    elif isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)
    return text
