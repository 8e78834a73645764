"""Tests for grids and the Holder test family."""

from __future__ import annotations

import math
import random

import pytest

from caputo_lk.holder import (
    HolderTestFunction,
    NotAGridNodeError,
    RegularityClass,
    UniformGrid,
    grid_node_index,
    modulus_probe,
)


class TestUniformGrid:
    def test_nodes(self):
        g = UniformGrid(horizon=1.0, steps=8)
        assert g.tau == 0.125
        assert g.time(0) == 0.0
        assert g.time(8) == 1.0

    def test_node_lookup(self):
        g = UniformGrid(horizon=1.0, steps=128)
        assert grid_node_index(g, 0.5) == 64
        assert g.node_index(1.0) == 128

    def test_off_grid_time_rejected(self):
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(NotAGridNodeError):
            grid_node_index(g, 0.3)
        with pytest.raises(NotAGridNodeError):
            grid_node_index(g, 1.125)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            UniformGrid(horizon=0.0, steps=4)
        with pytest.raises(ValueError):
            UniformGrid(horizon=1.0, steps=0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError):
                UniformGrid(horizon=horizon, steps=4)


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
        assert rc.total == pytest.approx(total, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RegularityClass(m=1, beta=0.0)
        with pytest.raises(ValueError):
            RegularityClass(m=-1, beta=0.5)
        with pytest.raises(ValueError):
            RegularityClass.from_total(0.0)


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
    @pytest.mark.parametrize("m,beta", [(0, 0.5), (1, 0.3), (2, 0.8)])
    def test_holder_slope(self, m, beta):
        """log-log slope of the sampled modulus of the m-th derivative
        must sit near the Holder exponent beta."""
        u = HolderTestFunction(m=m, beta=beta, xi=0.5)
        deltas = [2.0**-e for e in range(4, 11)]
        vals = [modulus_probe(u, m, d, samples=2001) for d in deltas]
        slopes = [
            math.log2(vals[i] / vals[i + 1]) for i in range(len(vals) - 1)
        ]
        fitted = sum(slopes) / len(slopes)
        assert abs(fitted - beta) <= 0.1

    def test_monotone_in_delta(self):
        u = HolderTestFunction(m=1, beta=0.6, xi=0.5)
        rng = random.Random(7)
        prev = 0.0
        for d in sorted(rng.uniform(0.001, 0.5) for _ in range(10)):
            cur = modulus_probe(u, 1, d, samples=501)
            assert cur >= prev - 1e-15
            prev = cur

    def test_zero_scale(self):
        u = HolderTestFunction(m=0, beta=0.5, xi=0.5)
        assert modulus_probe(u, 0, 0.0, samples=100) == 0.0
