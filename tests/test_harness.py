"""Tests for the convergence-order harness and report rendering."""

from __future__ import annotations

import gc
import math
import random
import re
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest

import caputo_lk.harness
from caputo_lk.harness import (
    DASH,
    DegenerateDifferenceError,
    FirstNodeCell,
    InteriorCell,
    OrderRow,
    Report,
    _grid_of_step,
    _memo,
    _samples,
    _unit_grid,
    order_first_node,
    order_fixed_time,
    order_interior,
    render,
    reproduce_table,
    scheme_value,
)
from caputo_lk.holder import HolderTestFunction
from caputo_lk.interp import SchemeKind
from caputo_lk.schemes import CaputoWeights, discrete_caputo


class TestSchemeValue:
    def test_matches_closed_form_on_linear(self):
        got = scheme_value(SchemeKind.l1(), 0.5, lambda t: 2.0 * t, 2.0**-4, 0.5)
        want = 2.0 * 0.5**0.5 / math.gamma(1.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_off_grid_time(self):
        with pytest.raises(ValueError, match="is not a node"):
            scheme_value(SchemeKind.l1(), 0.5, lambda t: t, 2.0**-4, 0.3)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 1e308])
    def test_rejects_non_finite_node_quotient(self, t):
        """t = inf once escaped the CLI's handler as OverflowError."""
        with pytest.raises(ValueError, match=r"is not a node|time t must be a real number in \(-inf, inf\)"):
            scheme_value(SchemeKind.l1(), 0.5, lambda t: t, 0.125, t)

    def test_rejects_incompatible_step(self):
        with pytest.raises(ValueError):
            scheme_value(SchemeKind.l1(), 0.5, lambda t: t, 0.3, 0.3)

    def test_rejects_origin(self):
        with pytest.raises(ValueError, match=r"evaluation node n must be an integer in 1\.\."):
            scheme_value(SchemeKind.l1(), 0.5, lambda t: t, 2.0**-4, 0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.25, math.nan, math.inf])
    def test_rejects_bad_step(self, tau):
        """tau = 0 once raised ZeroDivisionError and NaN a conversion error."""
        with pytest.raises(ValueError, match=r"step tau must be a real number in \(0, inf\)"):
            scheme_value(SchemeKind.l1(), 0.5, lambda t: t, tau, 0.5)

    def test_rejects_step_whose_reciprocal_overflows(self):
        """tau = 1e-310 once escaped the CLI's handler as OverflowError."""
        with pytest.raises(ValueError, match=r"tau=1e-310 is too small"):
            scheme_value(SchemeKind.l1(), 0.5, lambda t: t, 1e-310, 1e-310)

    def test_shared_weights_give_the_same_value(self):
        u = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        for tau in (2.0**-5, 2.0**-3, 2.0**-6):
            got = scheme_value(SchemeKind.l12(), 0.4, u, tau, 0.5)
            grid = _unit_grid(tau)
            fresh = CaputoWeights(SchemeKind.l12(), 0.4).value(grid, u, grid.node_index(0.5))
            assert got == fresh


class TestUnitGrid:
    @pytest.mark.parametrize("tau", [2.0**-1024, 1e-310, 5e-324])
    def test_rejects_step_whose_reciprocal_overflows(self, tau):
        with pytest.raises(ValueError, match=rf"tau={tau!r} is too small: 1/tau overflows"):
            _unit_grid(tau)

    def test_smallest_step_with_a_finite_reciprocal(self):
        assert _unit_grid(2.0**-1023).steps == 2**1023

    @pytest.mark.parametrize(
        "tau, message",
        [
            (True, "step tau must be a real number in (0, inf), got type bool"),
            ("0.5", "step tau must be a real number in (0, inf), got type str"),
            (0.0, "step tau must be a real number in (0, inf), got 0.0"),
            (math.nan, "step tau must be a real number in (0, inf), got nan"),
            (2.0**-1024, f"step tau={2.0**-1024!r} is too small: 1/tau overflows"),
            (0.3, "step 0.3 does not divide the unit horizon"),
        ],
        ids=["bool", "str", "zero", "nan", "tiny", "no-divisor"],
    )
    def test_cached_steps_leave_every_refusal_in_place(self, tau, message):
        """The grid cache is keyed on the step as checked: True equals 1.0
        and hashes alike, yet with 1.0 and 0.5 cached it is refused, as is
        every other bad step, on every call, with the same message."""
        one, half = _unit_grid(1.0), _unit_grid(0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)):
                _unit_grid(tau)
        assert _unit_grid(1.0) is one and _unit_grid(0.5) is half
        assert _unit_grid(1) is one and (one.steps, half.steps) == (1, 2)

    def test_grid_cache_is_bounded(self):
        maxsize = _grid_of_step.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64


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

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(3)], ids=lambda s: s.label
    )
    @pytest.mark.parametrize("m,beta,alpha", [(1, 0.5, 0.5), (2, 0.3, 0.1), (0, 0.7, 0.3)])
    def test_one_sampling_gives_the_rate_of_three_sampled_grids(self, scheme, m, beta, alpha):
        """f is sampled once, on the finest grid, and its values sliced for
        the other two; the rate equals that of three discrete_caputo calls
        that each sample f themselves, bit for bit, on a step 1/24 whose
        nodes are not dyadic."""
        tau = 1.0 / 24.0
        f = HolderTestFunction(m=m, beta=beta, xi=0.5)
        d1, d2, d4 = (
            discrete_caputo(scheme, grid, f, grid.node_index(0.5), alpha).value
            for grid in (_unit_grid(tau / r) for r in (1.0, 2.0, 4.0))
        )
        want = math.log2(abs(d1 - d2) / abs(d2 - d4))
        assert order_interior(scheme, f, alpha, tau).measured_R.hex() == want.hex()

    def test_rate_is_capped_at_the_design_order(self):
        """The law is capped at the scheme's design order: min(m + beta,
        k + 1) - alpha.  The plain family reads at least 0.1 above the cap
        on each of these cells; adding t^(k + 1) brings the rate to the cap,
        so the check tests the cap and not the smoothness."""
        cells = [(SchemeKind.l1(), 0.3, 2)] + [(SchemeKind.l12(), a, 3) for a in (0.1, 0.3, 0.5, 0.9)]
        for scheme, alpha, m in cells:
            k = scheme.degree
            cap = k + 1 - alpha
            capped = order_interior(scheme, _CapProbe(0.5, m, 0.5, k), alpha, 2.0**-11)
            plain = order_interior(scheme, HolderTestFunction(m, 0.5, 0.5), alpha, 2.0**-11)
            assert abs(capped.measured_R - cap) <= 0.05, (scheme.label, alpha, capped.measured_R)
            assert plain.measured_R >= cap + 0.1, (scheme.label, alpha, plain.measured_R)

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


@dataclass(frozen=True)
class _CapProbe:
    """u(t) = (t - xi)^m |t - xi|^beta + t^(k+1): the test family plus a
    smooth term that the degree-k schemes do not reproduce."""

    xi: float
    m: int
    beta: float
    k: int

    def __call__(self, t):
        return HolderTestFunction(self.m, self.beta, self.xi)(t) + t ** (self.k + 1)


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
    d1, d2, d4 = (scheme_value(scheme, alpha, u, tau / r, xi) for r in (1.0, 2.0, 4.0))
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

    def test_rate_is_read_from_the_row(self):
        """The row carries both errors its rate came from, and the
        step-tau grid's reference step; its half-step error is the first-node
        error of the step-tau/2 grid."""
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        tau = 2.0**-7
        row = order_first_node(SchemeKind.l2(), f, 0.3, tau)
        assert (row.t, row.tau, row.tau_ref) == (tau, tau, tau / 128)
        assert row.measured_R == math.log2(row.error / row.error_half)
        assert row.error_half == order_first_node(SchemeKind.l2(), f, 0.3, tau / 2).error

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

    @pytest.mark.parametrize("tau_exp", [24, 30, 60, 200])
    def test_round_off_is_not_a_rate(self, tau_exp):
        """Once u(tau) - u(0) sinks into the rounding of u(0) the errors are
        noise amplified by h^-alpha; they were once reported as rates from
        5.19 to -2.51."""
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(DegenerateDifferenceError, match="first-node error"):
            order_first_node(SchemeKind.l2(), f, 0.5, 2.0**-tau_exp)

    @pytest.mark.parametrize(
        "measure, want",
        [
            (lambda f: order_interior(SchemeKind.l2(), f, 0.3, 2.0**-7), [(128, 64), (256, 128), (512, 256)]),
            (lambda f: order_first_node(SchemeKind.l2(), f, 0.3, 2.0**-7),
             [(128, 1), (16384, 128), (256, 1), (32768, 128)]),
            (lambda f: order_fixed_time(f, 0.3, 2.0**-8, 2.0**-7), [(256, 2), (8192, 64), (512, 4)]),
        ],
        ids=["interior", "first-node", "fixed-time"],
    )
    def test_each_grid_value_is_evaluated_once(self, monkeypatch, measure, want):
        """Each (step, time) a measurement reads is evaluated once, a grid
        before its reference: the interior grid of step tau/2 is the first
        error's reference and the second's grid, and both fixed-time errors
        share one reference, so 3, 4 and 3 node evaluations."""
        calls = []
        original = caputo_lk.harness.discrete_caputo

        def recorded(scheme, grid, u, n, alpha):
            calls.append((grid.steps, n))
            return original(scheme, grid, u, n, alpha)

        monkeypatch.setattr(caputo_lk.harness, "discrete_caputo", recorded)
        measure(HolderTestFunction(m=2, beta=0.2, xi=0.5))
        assert calls == want

    @pytest.mark.parametrize(
        "measure",
        [
            lambda f: order_first_node(SchemeKind.l2(), f, 0.5, 0.3),
            lambda f: order_fixed_time(f, 0.5, 0.3, 0.6),
        ],
        ids=["first-node", "fixed-time"],
    )
    def test_step_that_does_not_divide_is_named(self, measure):
        """The probe is sampled on the finest reference step, which the
        refusal does not name: tau is checked on that failure alone."""
        with pytest.raises(ValueError, match=r"^step 0\.3 does not divide the unit horizon$"):
            measure(HolderTestFunction(m=2, beta=0.5, xi=0.5))

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
        l1 = SchemeKind.l1()
        t = 2.0**-7
        row = order_fixed_time(f, 0.5, t, t)
        ref = scheme_value(l1, 0.5, f, t / 64, t)
        assert row.error == abs(scheme_value(l1, 0.5, f, t, t) - ref)
        assert row.error_half == abs(scheme_value(l1, 0.5, f, t / 2, t) - ref)

    def test_reference_node_is_read_once_for_both_errors(self, monkeypatch):
        """The shared 2^-13 reference is evaluated once, after the step-tau
        grid, and both errors subtract that one value."""
        calls, values = [], []
        original = caputo_lk.harness.discrete_caputo

        def recorded(scheme, grid, u, n, alpha):
            calls.append((grid.steps, n))
            result = original(scheme, grid, u, n, alpha)
            values.append(result.value)
            return result

        monkeypatch.setattr(caputo_lk.harness, "discrete_caputo", recorded)
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        row = order_fixed_time(f, 0.3, 2.0**-8, 2.0**-7)
        assert calls == [(256, 2), (8192, 64), (512, 4)]
        assert row.error == abs(values[0] - values[1])
        assert row.error_half == abs(values[2] - values[1])

    def test_l2_differs_from_l1_past_the_first_node(self):
        # node 2 of the 2^-8 grid: L2 is already quadratic there, so the
        # fixed-time construction depends on the scheme after the first step
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        t = 2.0**-7
        l2 = SchemeKind.l2()
        l2_err = abs(scheme_value(l2, 0.3, f, 2.0**-8, t) - scheme_value(l2, 0.3, f, t / 64, t))
        l1_err = order_fixed_time(f, 0.3, 2.0**-8, t).error
        assert l2_err < 1e-3 * l1_err

    def test_rejects_off_grid_time(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            order_fixed_time(f, 0.5, 2.0**-7, 2.0**-8)

    @pytest.mark.parametrize("tau_exp", [30, 40])
    def test_round_off_is_not_a_rate(self, tau_exp):
        """At t = tau = 2^-30 and 2^-40 both errors are round-off of the
        reference; they were once reported as rates -0.004 and 0.14."""
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(DegenerateDifferenceError, match="fixed-time error"):
            order_fixed_time(f, 0.5, 2.0**-tau_exp, 2.0**-tau_exp)

    def test_fine_step_above_round_off_keeps_its_rate(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        row = order_fixed_time(f, 0.5, 2.0**-20, 2.0**-20)
        assert row.measured_R == pytest.approx(1.408, abs=5e-4)

    def test_rejects_step_too_close_to_reference(self):
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            order_fixed_time(f, 0.5, 2.0**-12, 2.0**-7)

    def test_rejects_a_time_of_three_steps(self):
        """t = 3 tau is a node of both grids, but the step-tau grid is no
        stride of the one reference sampling; t/tau < 32 once admitted it."""
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        with pytest.raises(ValueError, match="must be 1, 2, 4, 8 or 16 steps"):
            order_fixed_time(f, 0.5, 2.0**-8, 3 * 2.0**-8)


def _count_probe_calls(monkeypatch) -> list[int]:
    """Count HolderTestFunction calls, with the probe memo emptied so the
    count does not depend on the calls of earlier tests."""
    _memo.cache_clear()
    calls = [0]
    original = HolderTestFunction.__call__

    def counted(self, t):
        calls[0] += 1
        return original(self, t)

    monkeypatch.setattr(HolderTestFunction, "__call__", counted)
    return calls


class _Shifted(HolderTestFunction):
    """The test family plus 0.1 t^2.5: equal fields and hash, another class.
    No scheme is exact on t^2.5, so its rate is not the family's, by far
    more than round-off; a constant or a linear term every scheme takes
    exactly, and only round-off would tell the two apart."""

    def __call__(self, t):
        return HolderTestFunction.__call__(self, t) + 0.1 * t**2.5


class _Scaled(HolderTestFunction):
    """The test family times 2^-60: every node value, error and round-off
    floor scales exactly, so its rates are the family's bit for bit."""

    def __call__(self, t):
        return HolderTestFunction.__call__(self, t) * 2.0**-60


class TestScaleInvariance:
    """A row is refused by its own round-off floor only, which scales with
    u; an absolute floor once refused these rows, whose errors sit near
    1e-23 (interior differences 1.7e-24 and 3.6e-25)."""

    @pytest.mark.parametrize(
        "measure",
        [
            lambda f: order_interior(SchemeKind.l2(), f, 0.3, 2.0**-7),
            lambda f: order_first_node(SchemeKind.l2(), f, 0.3, 2.0**-7),
            lambda f: order_fixed_time(f, 0.3, 2.0**-8, 2.0**-7),
        ],
        ids=["interior", "first-node", "fixed-time"],
    )
    @pytest.mark.parametrize("beta", [0.2, 0.8])
    def test_scaled_probe_keeps_its_rate(self, measure, beta):
        plain = measure(HolderTestFunction(m=2, beta=beta, xi=0.5))
        scaled = measure(_Scaled(m=2, beta=beta, xi=0.5))
        assert scaled.error == plain.error * 2.0**-60
        assert scaled.error_half == plain.error_half * 2.0**-60
        assert scaled.measured_R.hex() == plain.measured_R.hex()


class TestProbeMemo:
    def test_one_probe_is_sampled_once_across_schemes_and_alphas(self, monkeypatch):
        """Eight interior cells, L2 and L1-2 at four alphas, read one
        sampling of nodes 0..256 on the step-2^-9 grid."""
        calls = _count_probe_calls(monkeypatch)
        f = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        for scheme in (SchemeKind.l2(), SchemeKind.l12()):
            for alpha in (0.1, 0.3, 0.5, 0.7):
                order_interior(scheme, f, alpha, 2.0**-7)
        assert calls[0] == 257
        assert _memo.cache_info().currsize == 1

    def test_reference_grids_are_sampled_once(self, monkeypatch):
        """Two first-node cells read one sampling, nodes 0..256 of the finest
        reference grid, which both grids and the other reference read at a
        stride."""
        calls = _count_probe_calls(monkeypatch)
        f = HolderTestFunction(m=2, beta=0.2, xi=0.5)
        for scheme, alpha in ((SchemeKind.l2(), 0.3), (SchemeKind.l12(), 0.5)):
            order_first_node(scheme, f, alpha, 2.0**-7)
        assert calls[0] == 257
        assert _memo.cache_info().currsize == 1

    @pytest.mark.parametrize("other", [_CapProbe(0.5, 1, 0.5, 2), _Shifted(1, 0.5, 0.5)],
                             ids=["cap", "shifted"])
    def test_another_probe_class_never_reads_the_test_family(self, other):
        f = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        _memo.cache_clear()
        cold = order_interior(SchemeKind.l2(), other, 0.3, 2.0**-7)
        _memo.cache_clear()
        plain = order_interior(SchemeKind.l2(), f, 0.3, 2.0**-7)
        assert order_interior(SchemeKind.l2(), other, 0.3, 2.0**-7) == cold
        assert abs(cold.measured_R - plain.measured_R) > 1e-5
        assert _memo.cache_info().currsize == 2

    def test_an_unhashable_probe_is_sampled_anew(self, monkeypatch):
        class Unhashable(HolderTestFunction):
            __hash__ = None

        calls = _count_probe_calls(monkeypatch)
        f = Unhashable(1, 0.5, 0.5)
        rows = [order_interior(SchemeKind.l2(), f, 0.3, 2.0**-7) for _ in range(2)]
        assert rows[0] == rows[1]
        assert rows[0].measured_R == order_interior(
            SchemeKind.l2(), HolderTestFunction(1, 0.5, 0.5), 0.3, 2.0**-7).measured_R
        assert calls[0] == 3 * 257 and _memo.cache_info().currsize == 1

    def test_warm_rows_equal_cold_rows_bit_for_bit(self):
        warm = [reproduce_table(i) for i in (1, 2, 3, 4)]
        assert _memo.cache_info().currsize >= 25
        _memo.cache_clear()
        cold = [reproduce_table(i) for i in (1, 2, 3, 4)]
        assert [render(r, "csv") for r in warm] == [render(r, "csv") for r in cold]
        for w, c in zip(warm, cold):
            pairs = zip(w.interior_cells + w.first_node_cells, c.interior_cells + c.first_node_cells)
            for a, b in ((a.row, b.row) for a, b in pairs if a.row):
                assert a == b and a.measured_R.hex() == b.measured_R.hex()

    def test_threads_share_the_memo_bit_for_bit(self):
        """Four threads measure twelve cells over three probes, each in its
        own order, from an empty memo under a short switch interval."""
        cells = [(scheme, alpha, HolderTestFunction(m, beta, 0.5))
                 for scheme in (SchemeKind.l2(), SchemeKind.l12()) for alpha in (0.3, 0.7)
                 for m, beta in ((1, 0.5), (2, 0.2), (0, 0.9))]
        want = {c: order_interior(c[0], c[2], c[1], 2.0**-7) for c in cells}
        _memo.cache_clear()
        barrier = threading.Barrier(4, timeout=60.0)
        wrong, done = [], []

        def work(seed):
            order = random.Random(seed).sample(cells, len(cells))
            barrier.wait()
            for c in order:
                if order_interior(c[0], c[2], c[1], 2.0**-7) != want[c]:
                    wrong.append(c)
            done.append(seed)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3]
        assert wrong == []
        assert _memo.cache_info().currsize == 3

    def test_retained_memory_stays_under_its_bound(self):
        """A full memo of the largest samplings it keeps stays under the
        0.3 MB the module states, and a fine-step measurement, sampled
        without it, adds nothing."""
        _memo.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            for i in range(64):
                assert len(_samples(HolderTestFunction(1, 0.5, (i + 1) / 128), 2.0**-9, 1.0)) == 513
            order_interior(SchemeKind.l1(), HolderTestFunction(1, 0.5, 0.5), 0.5, 2.0**-9)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, caputo_lk.harness.__file__)])
        retained = sum(stat.size for stat in mine.statistics("filename"))
        info = _memo.cache_info()
        assert (info.currsize, info.misses) == (64, 64)
        assert 64 * 8 * 513 < retained < 300_000
        _memo.cache_clear()


class TestReproduceTable:
    def test_interior_study_shape(self):
        rep = reproduce_table(1)
        assert rep.first_node_cells == ()
        assert len(rep.interior_cells) == 40
        dashes = [c for c in rep.interior_cells if c.row is None]
        # regularity at or below alpha carries no rate
        assert len(dashes) == 5
        for c in dashes:
            assert c.total <= c.alpha + 1e-12

    def test_first_node_study_shape(self):
        rep = reproduce_table(3)
        assert rep.interior_cells == ()
        assert len(rep.first_node_cells) == 18
        for c in rep.first_node_cells:
            assert c.row.t == c.row.tau == 2.0**-c.tau_exp
            assert c.row.tau_ref == c.row.tau / 128

    def test_first_node_study_evaluates_four_nodes_per_cell(self, monkeypatch):
        """Each of the 18 cells evaluates its two grids and two references
        once: 72 node evaluations, where 144 once also measured each cell
        at a fixed time that no table prints."""
        calls = [0]
        original = caputo_lk.harness.discrete_caputo

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(caputo_lk.harness, "discrete_caputo", counted)
        reproduce_table(3)
        assert calls[0] == 72

    def test_unknown_table_rejected(self):
        """reproduce_table(1.0), (3.0) and (True) once returned tables 1, 3
        and 1."""
        for table_id in (0, 5):
            with pytest.raises(ValueError, match=r"table id must be an integer in 1\.\.4, got "):
                reproduce_table(table_id)
        for table_id in (1.0, 3.0, "1", True):
            with pytest.raises(ValueError, match="table id must be an integer"):
                reproduce_table(table_id)

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

    def test_hand_built_report(self):
        """The renderers read rows and columns from cell order alone: an
        interior row opening on a dash, and one first-node row over two
        betas, in one report, which no built-in study has."""
        l2 = SchemeKind.l2()
        interior = (
            InteriorCell(alpha=0.5, total=0.3, row=None),
            InteriorCell(alpha=0.5, total=1.5,
                         row=OrderRow(l2, 0.5, 1, 0.5, 0.5, 0.5, 0.0625, 0.03125, 0.01, 0.01 * 2.0**-0.987)),
        )
        first_node = tuple(
            FirstNodeCell(
                alpha=0.3,
                tau_exp=4,
                beta=beta,
                row=OrderRow(l2, 0.3, 2, beta, 0.5, 0.0625, 0.0625, 2.0**-11, error, error * 2.0**-r),
            )
            for beta, error, r in ((0.2, 0.00125, 1.704), (0.8, 0.0025, 1.6))
        )
        rep = Report("hand-built", l2, 0.5, 4, interior_cells=interior, first_node_cells=first_node)
        assert render(rep, "markdown") == (
            "## hand-built\n"
            "\n"
            "| alpha \\ m+beta | 0.3 | 1.5 |\n"
            "| --- | --- | --- |\n"
            "| 0.5 | - | 0.99 |\n"
            "\n"
            "| alpha | tau | error (beta=0.2) | error (beta=0.8) | R |\n"
            "| --- | --- | --- | --- | --- |\n"
            "| 0.3 | 2^-4 | 0.00125 | 0.0025 | 1.70 |\n"
        )
        assert render(rep, "csv") == (
            "scheme,alpha,m,beta,xi,tau,measured_R,theoretical_order,error\n"
            "L2,0.5,0,0.3,0.5,0.0625,-,-0.2,\n"
            "L2,0.5,1,0.5,0.5,0.0625,0.987,1,\n"
            "L2,0.3,2,0.2,0.5,0.0625,1.704,1.7,0.00125\n"
            "L2,0.3,2,0.8,0.5,0.0625,1.6,1.7,0.0025\n"
        )

    def test_six_significant_digits(self):
        rep = reproduce_table(3)
        lines = render(rep, "csv").splitlines()
        # 5.829087e-05 rounds to 5.82909e-05 at six significant digits
        assert lines[1].split(",")[8] == "5.82909e-05"
