"""Tests for grids and the Holder test family."""

from __future__ import annotations

import math
import re

import pytest

from caputo_lk.holder import (
    HolderTestFunction,
    NotAGridNodeError,
    RegularityClass,
    UniformGrid,
)


class TestUniformGrid:
    def test_nodes(self):
        g = UniformGrid(horizon=1.0, steps=8)
        assert g.tau == 0.125
        assert g.time(0) == 0.0
        assert g.time(8) == 1.0

    def test_node_lookup(self):
        g = UniformGrid(horizon=1.0, steps=128)
        assert g.node_index(0.5) == 64
        assert g.node_index(1.0) == 128

    def test_off_grid_time_rejected(self):
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(NotAGridNodeError):
            g.node_index(0.3)
        with pytest.raises(NotAGridNodeError):
            g.node_index(1.125)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_quotient_rejected(self, t):
        """An infinite or NaN t / tau once escaped as OverflowError or as
        round()'s ValueError about NaN, not as the node error naming t."""
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(NotAGridNodeError, match=re.escape(f"time {t!r} is not a node")):
            g.node_index(t)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            UniformGrid(horizon=0.0, steps=4)
        with pytest.raises(ValueError):
            UniformGrid(horizon=1.0, steps=0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError):
                UniformGrid(horizon=horizon, steps=4)

    @pytest.mark.parametrize("steps", [2.5, 2.0, math.nan, "4"])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="grid steps must be an integer"):
            UniformGrid(horizon=1.0, steps=steps)


class TestRegularityClass:
    @pytest.mark.parametrize(
        "total,m,beta",
        [
            (0.3, 0, 0.3),
            (1.0, 0, 1.0),
            (1.3, 1, 0.3),
            (2.2, 2, 0.2),
            (3.0, 2, 1.0),
            (3.6, 3, 0.6),
        ],
    )
    def test_canonical_split(self, total, m, beta):
        rc = RegularityClass.from_total(total)
        assert rc.m == m
        assert rc.beta == pytest.approx(beta, abs=1e-12)
        assert rc.m + rc.beta == pytest.approx(total, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RegularityClass(m=1, beta=0.0)
        with pytest.raises(ValueError):
            RegularityClass(m=-1, beta=0.5)
        with pytest.raises(ValueError):
            RegularityClass.from_total(0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("excess", [1e-13, 5e-13])
    def test_total_just_above_an_integer_snaps_to_beta_one(self, k, excess):
        """A total within the 1e-12 slack above an integer k splits as
        (k - 1, 1.0); the Holder exponent 1 + excess was once refused."""
        rc = RegularityClass.from_total(k + excess)
        assert (rc.m, rc.beta) == (k - 1, 1.0)

    @pytest.mark.parametrize("total", [1e-13, 1e-12, -0.5, math.nan])
    def test_rejects_total_at_or_below_the_slack(self, total):
        """A total up to 1e-12 is refused with a message naming it, not as
        the derivative count m = -1."""
        with pytest.raises(ValueError, match=f"total smoothness.*got {total!r}"):
            RegularityClass.from_total(total)

    @pytest.mark.parametrize("m", [1.5, 1.0, math.nan])
    def test_rejects_non_integer_m(self, m):
        with pytest.raises(ValueError, match="derivative count m must be an integer"):
            RegularityClass(m=m, beta=0.5)
        with pytest.raises(ValueError, match="derivative count m must be an integer"):
            HolderTestFunction(m=m, beta=0.5, xi=0.5)


class TestHolderTestFunction:
    def test_values(self):
        u = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        assert u(0.5) == 0.0
        assert u(1.0) == pytest.approx(0.5**2.5)
        # left of the kink the sign comes from (t - xi)^m
        assert u(0.0) == pytest.approx(0.5**2.5)
        v = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        assert v(0.0) == pytest.approx(-(0.5**1.5))

    def test_derivatives_vanish_at_kink(self):
        u = HolderTestFunction(m=3, beta=0.4, xi=0.25)
        for p in range(4):
            assert u.derivative(p, 0.25) == 0.0

    def test_derivative_matches_finite_difference(self):
        """Away from the kink the analytic derivative must agree with a
        central difference of the level below."""
        u = HolderTestFunction(m=2, beta=0.7, xi=0.5)
        h = 1e-6
        for t in (0.1, 0.3, 0.8, 0.95):
            for p in (1, 2):
                fd = (u.derivative(p - 1, t + h) - u.derivative(p - 1, t - h)) / (2 * h)
                assert u.derivative(p, t) == pytest.approx(fd, rel=1e-7)

    def test_derivative_order_capped(self):
        u = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            u.derivative(2, 0.3)

    def test_rejects_kink_at_origin(self):
        with pytest.raises(ValueError):
            HolderTestFunction(m=0, beta=0.5, xi=0.0)
        for xi in (math.inf, math.nan):
            with pytest.raises(ValueError):
                HolderTestFunction(m=0, beta=0.5, xi=xi)


class TestModulusProbe:
    """The m-th derivative's modulus of continuity at the kink, probed
    directly: it is exactly the Holder power of the offset."""

    @pytest.mark.parametrize("m,beta", [(0, 0.5), (1, 0.3), (2, 0.8)])
    def test_holder_slope(self, m, beta):
        """|u^(m)(xi +- d) - u^(m)(xi)| = prod_{i<m} (m+beta-i) d^beta."""
        xi = 0.5
        u = HolderTestFunction(m=m, beta=beta, xi=xi)
        factor = math.prod(m + beta - i for i in range(m))
        for e in range(4, 11):
            d = 2.0**-e
            want = factor * d**beta
            for t in (xi - d, xi + d):
                got = abs(u.derivative(m, t) - u.derivative(m, xi))
                assert got == pytest.approx(want, rel=1e-12)
