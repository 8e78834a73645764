"""Tests for grids and the Holder test family."""

from __future__ import annotations

import itertools
import math
import re

import pytest

from caputo_lk.holder import (
    HolderTestFunction,
    RegularityClass,
    UniformGrid,
)


def derivative(u: HolderTestFunction, order: int, t: float) -> float:
    """Classical derivative of u of the stated order; valid for order <= m.

    d^p/dt^p u = (prod_{i<p} (m+beta-i)) (t-xi)^(m-p) |t-xi|^beta,
    which vanishes at the kink itself for every admissible p.
    """
    if not 0 <= order <= u.m:
        raise ValueError(f"derivative order {order} exceeds the classical count m={u.m}")
    d = t - u.xi
    if d == 0.0:
        return 0.0
    factor = 1.0
    for i in range(order):
        factor *= u.m + u.beta - i
    return factor * d ** (u.m - order) * abs(d) ** u.beta


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
        with pytest.raises(ValueError, match="is not a node"):
            g.node_index(0.3)
        with pytest.raises(ValueError, match="is not a node"):
            g.node_index(1.125)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_quotient_rejected(self, t):
        """An infinite or NaN t / tau once escaped as OverflowError or as
        round()'s ValueError about NaN, not as the node error naming t."""
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(ValueError, match=re.escape(f"time {t!r} is not a node")):
            g.node_index(t)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            UniformGrid(horizon=0.0, steps=4)
        with pytest.raises(ValueError):
            UniformGrid(horizon=1.0, steps=0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError):
                UniformGrid(horizon=horizon, steps=4)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_time_refuses_a_non_integer_index(self, n):
        """time(2.5) once returned 0.625 on this grid, which is no node."""
        g = UniformGrid(horizon=1.0, steps=4)
        with pytest.raises(ValueError, match="node index must be an integer"):
            g.time(n)

    @pytest.mark.parametrize("steps", [2.5, 2.0, math.nan, "4", True])
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

    @pytest.mark.parametrize("m", [1.5, 1.0, math.nan, True])
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

    @pytest.mark.parametrize("m", range(7))
    def test_call_is_the_zeroth_derivative_bit_for_bit(self, m):
        """u(t) takes the formula of derivative(u, 0, t) without its factor
        1.0 and its branch at the kink, so the two agree bit for bit on both
        sides of the kink and at it."""
        for beta, xi in itertools.product((0.3, 0.5, 1.0), (0.25, 0.5, 0.37109375, 1.0 / 3.0)):
            u = HolderTestFunction(m=m, beta=beta, xi=xi)
            for t in (0.0, xi / 3.0, xi - 2.0**-40, xi, xi + 2.0**-40, 0.7, 1.0):
                assert u(t).hex() == derivative(u, 0, t).hex(), (beta, xi, t)

    def test_derivatives_vanish_at_kink(self):
        u = HolderTestFunction(m=3, beta=0.4, xi=0.25)
        for p in range(4):
            assert derivative(u, p, 0.25) == 0.0

    def test_derivative_matches_finite_difference(self):
        """Away from the kink the analytic derivative must agree with a
        central difference of the level below."""
        u = HolderTestFunction(m=2, beta=0.7, xi=0.5)
        h = 1e-6
        for t in (0.1, 0.3, 0.8, 0.95):
            for p in (1, 2):
                fd = (derivative(u, p - 1, t + h) - derivative(u, p - 1, t - h)) / (2 * h)
                assert derivative(u, p, t) == pytest.approx(fd, rel=1e-7)

    def test_derivative_order_capped(self):
        u = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        with pytest.raises(ValueError):
            derivative(u, 2, 0.3)

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
                got = abs(derivative(u, m, t) - derivative(u, m, xi))
                assert got == pytest.approx(want, rel=1e-12)
