"""Tests for the convergence-order harness and report rendering."""

from __future__ import annotations

import io
import math
from pathlib import Path

import pytest

from caputo_lk.harness import (
    DASH,
    DegenerateDifferenceError,
    _unit_grid,
    emit,
    order_first_node,
    order_fixed_time,
    order_interior,
    render,
    reproduce_table,
    scheme_value,
)
from caputo_lk.holder import HolderTestFunction
from caputo_lk.interp import SchemeKind
from caputo_lk.schemes import CaputoWeights


class TestSchemeValue:
    def test_matches_closed_form_on_linear(self):
        weights = CaputoWeights(SchemeKind.l1(), 0.5)
        got = scheme_value(weights, lambda t: 2.0 * t, 2.0**-4, 0.5)
        want = 2.0 * 0.5**0.5 / math.gamma(1.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_off_grid_time(self):
        from caputo_lk.holder import NotAGridNodeError

        with pytest.raises(NotAGridNodeError):
            scheme_value(CaputoWeights(SchemeKind.l1(), 0.5), lambda t: t, 2.0**-4, 0.3)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 1e308])
    def test_rejects_non_finite_node_quotient(self, t):
        """t = inf once escaped the CLI's handler as OverflowError."""
        from caputo_lk.holder import NotAGridNodeError

        with pytest.raises(NotAGridNodeError, match="is not a node"):
            scheme_value(CaputoWeights(SchemeKind.l1(), 0.5), lambda t: t, 0.125, t)

    def test_rejects_incompatible_step(self):
        with pytest.raises(ValueError):
            scheme_value(CaputoWeights(SchemeKind.l1(), 0.5), lambda t: t, 0.3, 0.3)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            scheme_value(CaputoWeights(SchemeKind.l1(), 0.5), lambda t: t, 2.0**-4, 0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.25, math.nan, math.inf])
    def test_rejects_bad_step(self, tau):
        """tau = 0 once raised ZeroDivisionError and NaN a conversion error."""
        with pytest.raises(ValueError, match="step tau must be positive and finite"):
            scheme_value(CaputoWeights(SchemeKind.l1(), 0.5), lambda t: t, tau, 0.5)

    def test_rejects_step_whose_reciprocal_overflows(self):
        """tau = 1e-310 once escaped the CLI's handler as OverflowError."""
        with pytest.raises(ValueError, match=r"tau=1e-310 is too small"):
            scheme_value(CaputoWeights(SchemeKind.l1(), 0.5), lambda t: t, 1e-310, 1e-310)

    def test_shared_weights_give_the_same_value(self):
        weights = CaputoWeights(SchemeKind.l12(), 0.4)
        u = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        for tau in (2.0**-5, 2.0**-3, 2.0**-6):
            got = scheme_value(weights, u, tau, 0.5)
            assert got == scheme_value(CaputoWeights(SchemeKind.l12(), 0.4), u, tau, 0.5)


class TestUnitGrid:
    @pytest.mark.parametrize("tau", [2.0**-1024, 1e-310, 5e-324])
    def test_rejects_step_whose_reciprocal_overflows(self, tau):
        with pytest.raises(ValueError, match=rf"tau={tau!r} is too small: 1/tau overflows"):
            _unit_grid(tau)

    def test_smallest_step_with_a_finite_reciprocal(self):
        assert _unit_grid(2.0**-1023).steps == 2**1023


class TestRows:
    def test_rows_are_slotted(self):
        """A row carries no per-instance dict; the benchmark keeps every
        pass's rows, so their size is resident memory."""
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        rows = (
            order_interior(SchemeKind.l2(), f, 0.5, 2.0**-4),
            order_first_node(SchemeKind.l2(), f, 0.5, 2.0**-4),
            order_fixed_time(f, 0.5, 2.0**-4, 2.0**-4),
        )
        for row in rows:
            assert not hasattr(row, "__dict__")
            with pytest.raises(AttributeError):
                row.alpha = 0.1


class TestOrderInterior:
    def test_quadratic_scheme_midrange(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        row = order_interior(SchemeKind.l2(), f, 0.5, 2.0**-7)
        assert row.theoretical_order == pytest.approx(2.0)
        assert row.measured_R == pytest.approx(2.00, abs=0.01)

    def test_two_step_scheme_full_regularity(self):
        f = HolderTestFunction(m=2, beta=1.0, xi=0.5)
        row = order_interior(SchemeKind.l12(), f, 0.7, 2.0**-7)
        assert row.measured_R == pytest.approx(2.29, abs=0.01)

    def test_three_step_scheme_quarter_point(self):
        f = HolderTestFunction(m=2, beta=0.3, xi=0.25)
        row = order_interior(SchemeKind.lk(3), f, 0.5, 2.0**-7)
        assert row.measured_R == pytest.approx(1.78, abs=0.01)

    def test_order_tracks_regularity(self):
        cases = [
            (SchemeKind.l1(), 0.5, 1, 0.3),
            (SchemeKind.l2(), 0.3, 1, 0.9),
            (SchemeKind.l12(), 0.5, 2, 0.2),
            (SchemeKind.lk(3), 0.3, 2, 0.6),
        ]
        for scheme, alpha, m, beta in cases:
            f = HolderTestFunction(m=m, beta=beta, xi=0.5)
            row = order_interior(scheme, f, alpha, 2.0**-7)
            assert abs(row.measured_R - row.theoretical_order) <= 0.15

    def test_kink_must_be_a_node(self):
        f = HolderTestFunction(m=1, beta=0.5, xi=0.3)
        with pytest.raises(ValueError):
            order_interior(SchemeKind.l1(), f, 0.5, 2.0**-7)

    def test_kink_must_clear_startup(self):
        tau = 2.0**-7
        f = HolderTestFunction(m=1, beta=0.5, xi=tau)
        with pytest.raises(ValueError):
            order_interior(SchemeKind.l2(), f, 0.5, tau)

    def test_exact_reproduction_is_degenerate(self):
        # |t - xi| is piecewise linear on kink-aligned grids, so the linear
        # scheme reproduces it exactly and no order can be measured
        f = HolderTestFunction(m=0, beta=1.0, xi=0.5)
        with pytest.raises(DegenerateDifferenceError):
            order_interior(SchemeKind.l1(), f, 0.5, 2.0**-7)


def _taylor_free(f, degree=7):
    """f minus its Taylor polynomial of the given degree at t = 0.  Left of
    the kink f(t) = (-1)^m xi^g (1 - t/xi)^g with g = m + beta, so the
    coefficient of t^i is (-1)^m xi^g C(g, i) (-1/xi)^i."""
    g = f.m + f.beta
    coeffs = []
    binom = 1.0
    for i in range(degree + 1):
        coeffs.append((-1) ** f.m * f.xi**g * binom * (-1.0 / f.xi) ** i)
        binom *= (g - i) / (i + 1)
    return lambda t: f(t) - math.fsum(c * t**i for i, c in enumerate(coeffs))


def _interior_rate(scheme, u, alpha, tau, xi):
    # R = log2 |d(tau) - d(tau/2)| / |d(tau/2) - d(tau/4)| at the kink
    weights = CaputoWeights(scheme, alpha)
    d1, d2, d4 = (scheme_value(weights, u, tau / r, xi) for r in (1.0, 2.0, 4.0))
    return math.log2(abs(d1 - d2) / abs(d2 - d4))


class TestHigherOrderLk:
    """Lk for k = 4..6 reaches m + beta - alpha above 3.  On the plain test
    family the linear first piece of the growing-degree startup leaves an
    O(tau^3) error at every interior time, and the rates stop near 3.0
    (2.98 for k = 6 where the law is 3.9).  Taking out the degree-7 Taylor
    polynomial at 0 makes the startup data O(t^8), so the kink alone sets
    the rate."""

    CASES = [(3, 0.7, 0.3), (4, 0.2, 0.3), (4, 0.5, 0.7)]  # m, beta, alpha

    @pytest.mark.parametrize("m, beta, alpha", CASES)
    def test_five_and_six_match_the_law(self, m, beta, alpha):
        u = _taylor_free(HolderTestFunction(m=m, beta=beta, xi=0.5))
        for k in (5, 6):
            rate = _interior_rate(SchemeKind.lk(k), u, alpha, 2.0**-7, 0.5)
            assert rate == pytest.approx(m + beta - alpha, abs=0.05)

    @pytest.mark.parametrize("m, beta, alpha", CASES)
    def test_four_closes_on_the_law(self, m, beta, alpha):
        """k = 4 is still short of the law at these steps (3.64 and 3.69
        against 3.80 at m + beta = 4.5), but the gap shrinks with tau."""
        u = _taylor_free(HolderTestFunction(m=m, beta=beta, xi=0.5))
        gaps = [
            m + beta - alpha - _interior_rate(SchemeKind.lk(4), u, alpha, tau, 0.5)
            for tau in (2.0**-7, 2.0**-8)
        ]
        assert all(abs(gap) < 0.2 for gap in gaps)
        assert abs(gaps[1]) < abs(gaps[0])


class TestOrderFirstNode:
    def test_matches_pinned_run(self):
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        row = order_first_node(SchemeKind.l2(), f, 0.3, 2.0**-7)
        assert row.error == pytest.approx(5.829087e-05, rel=1e-5)
        assert row.measured_R == pytest.approx(1.6987, abs=0.002)

    def test_order_near_two_minus_alpha(self):
        for alpha in (0.3, 0.5, 0.7):
            f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
            row = order_first_node(SchemeKind.l12(), f, alpha, 2.0**-7)
            want = 2.0 - alpha
            assert want - 0.1 <= row.measured_R <= want + 0.15

    def test_beta_weakly_affects_error(self):
        # the first-node error grows with beta but stays within a factor
        # of two across the probe family
        errs = []
        for beta in (0.2, 0.5, 0.8):
            f = HolderTestFunction(m=2, beta=beta, xi=0.5)
            errs.append(order_first_node(SchemeKind.l2(), f, 0.5, 2.0**-7).error)
        assert errs[0] < errs[1] < errs[2] < 2.0 * errs[0]

    def test_rejects_non_quadratic_scheme(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            order_first_node(SchemeKind.l1(), f, 0.5, 2.0**-7)

    def test_rejects_wrong_m(self):
        f = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            order_first_node(SchemeKind.l2(), f, 0.5, 2.0**-7)


class TestOrderFixedTime:
    def test_reproduces_published_cell(self):
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        row = order_fixed_time(f, 0.3, 2.0**-8, 2.0**-7)
        assert row.tau_ref == 2.0**-13
        assert row.error == pytest.approx(2.0033e-05, rel=5e-5)
        assert row.measured_R == math.log2(row.error / row.error_half)

    def test_error_is_l1_against_the_reference_grid(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        l1 = CaputoWeights(SchemeKind.l1(), 0.5)
        t = 2.0**-7
        row = order_fixed_time(f, 0.5, t, t)
        ref = scheme_value(l1, f, t / 64, t)
        assert row.error == abs(scheme_value(l1, f, t, t) - ref)
        assert row.error_half == abs(scheme_value(l1, f, t / 2, t) - ref)

    def test_l2_differs_from_l1_past_the_first_node(self):
        # node 2 of the 2^-8 grid: L2 is already quadratic there, so the
        # fixed-time construction depends on the scheme after the first step
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        t = 2.0**-7
        l2 = CaputoWeights(SchemeKind.l2(), 0.3)
        l2_err = abs(scheme_value(l2, f, 2.0**-8, t) - scheme_value(l2, f, t / 64, t))
        l1_err = order_fixed_time(f, 0.3, 2.0**-8, t).error
        assert l2_err < 1e-3 * l1_err

    def test_rejects_off_grid_time(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            order_fixed_time(f, 0.5, 2.0**-7, 2.0**-8)

    def test_rejects_step_too_close_to_reference(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            order_fixed_time(f, 0.5, 2.0**-12, 2.0**-7)


class TestReproduceTable:
    def test_interior_study_shape(self):
        rep = reproduce_table(1)
        assert rep.kind == "interior"
        assert len(rep.interior_cells) == 40
        dashes = [c for c in rep.interior_cells if c.row is None]
        # regularity at or below alpha carries no rate
        assert len(dashes) == 5
        for c in dashes:
            assert c.total <= c.alpha + 1e-12

    def test_first_node_study_shape(self):
        rep = reproduce_table(3)
        assert rep.kind == "first-node"
        assert len(rep.first_node_cells) == 18
        for c in rep.first_node_cells:
            assert c.fixed_time.t == 2.0**-7
            assert c.fixed_time.tau == c.row.tau == 2.0**-c.tau_exp

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table(5)

    def test_deterministic_bytes(self):
        a = render(reproduce_table(4), "csv")
        b = render(reproduce_table(4), "csv")
        assert a == b
        am = render(reproduce_table(4), "markdown")
        bm = render(reproduce_table(4), "markdown")
        assert am == bm

    def test_golden_bytes(self):
        """Every built-in table renders to the committed bytes, in both
        formats.  The files are ``caputo-lk order-table --table N
        --format csv|markdown`` output; re-render them only with a change
        that explains why the numbers move."""
        data = Path(__file__).parent / "data"
        for table in (1, 2, 3, 4):
            report = reproduce_table(table)
            for fmt, ext in (("csv", "csv"), ("markdown", "md")):
                golden = (data / f"table{table}.{ext}").read_bytes()
                assert render(report, fmt).encode("utf-8") == golden, (table, fmt)


class TestRendering:
    def test_csv_layout(self):
        rep = reproduce_table(1)
        lines = render(rep, "csv").splitlines()
        assert lines[0] == "scheme,alpha,m,beta,xi,tau,measured_R,theoretical_order,error"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "L2"
        assert first[1] == "0.1"
        assert first[8] == ""
        dash_rows = [l for l in lines[1:] if f",{DASH}," in l]
        assert len(dash_rows) == 5

    def test_markdown_grid(self):
        rep = reproduce_table(1)
        lines = render(rep, "markdown").splitlines()
        data = [l for l in lines if l.startswith("| 0.")]
        assert len(data) == 4
        # header column plus one column per regularity class
        assert data[0].count("|") == 12
        assert DASH in data[1]

    def test_first_node_csv_has_errors(self):
        rep = reproduce_table(3)
        lines = render(rep, "csv").splitlines()
        assert len(lines) == 19
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[8]) > 0.0

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(reproduce_table(4), "html")

    def test_emit_to_stream_and_path(self, tmp_path):
        rep = reproduce_table(4)
        buf = io.StringIO()
        text = emit(rep, format="csv", out=buf)
        assert buf.getvalue() == text
        dest = tmp_path / "report.csv"
        emit(rep, format="csv", out=str(dest))
        assert dest.read_text(encoding="utf-8") == text

    def test_six_significant_digits(self):
        rep = reproduce_table(3)
        lines = render(rep, "csv").splitlines()
        # 5.829087e-05 rounds to 5.82909e-05 at six significant digits
        assert lines[1].split(",")[8] == "5.82909e-05"
