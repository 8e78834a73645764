"""Tests for Lagrange pieces, difference operators, and scheme interpolants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.interp import (
    LagrangePiece,
    SchemeKind,
    SchemeTag,
    backward_difference,
    build_interpolant,
    divided_coeff,
    lagrange_eval,
)


def random_piece(rng: random.Random, k: int, values=None) -> LagrangePiece:
    tau = 2.0 ** -rng.randrange(2, 8)
    start = rng.randrange(0, 20)
    times = tuple((start + i) * tau for i in range(k + 1))
    if values is None:
        values = tuple(rng.uniform(-2.0, 2.0) for _ in range(k + 1))
    return LagrangePiece(
        degree=k,
        anchor=start + k,
        node_times=times,
        node_values=tuple(values),
        interval=(times[-2], times[-1]),
        tau=tau,
    )


class TestSchemeKind:
    def test_labels(self):
        assert SchemeKind.l1().label == "L1"
        assert SchemeKind.l2().label == "L2"
        assert SchemeKind.l12().label == "L1-2"
        assert SchemeKind.lk(3).label == "L1-2-3"

    def test_degrees(self):
        assert SchemeKind.l1().degree == 1
        assert SchemeKind.l2().degree == 2
        assert SchemeKind.l12().degree == 2
        assert SchemeKind.lk(5).degree == 5

    def test_lk_needs_valid_k(self):
        with pytest.raises(ValueError):
            SchemeKind.lk(0)
        with pytest.raises(ValueError):
            SchemeKind.lk(7)
        with pytest.raises(ValueError):
            SchemeKind(SchemeTag.L2, k=2)


class TestDividedCoeff:
    def test_reciprocals_sum_to_zero(self):
        """The Lagrange weights of any stencil sum to one, which forces the
        reciprocal denominators to cancel exactly."""
        for k in range(1, 7):
            total = sum(Fraction(1, divided_coeff(k, l)) for l in range(k + 1))
            assert total == 0

    def test_values_small_k(self):
        assert [divided_coeff(1, l) for l in range(2)] == [1, -1]
        assert [divided_coeff(2, l) for l in range(3)] == [2, -1, 2]
        assert [divided_coeff(3, l) for l in range(4)] == [6, -2, 2, -6]

    def test_range_checked(self):
        with pytest.raises(ValueError):
            divided_coeff(3, 4)


class TestLagrangeEval:
    def test_partition_of_unity(self):
        rng = random.Random(101)
        worst = 0.0
        for k in range(1, 7):
            for _ in range(34):
                piece = random_piece(rng, k, values=(1.0,) * (k + 1))
                lo = piece.node_times[0] - piece.tau
                hi = piece.node_times[-1] + piece.tau
                s = rng.uniform(lo, hi)
                worst = max(worst, abs(lagrange_eval(piece, s) - 1.0))
        assert worst < 1e-11

    def test_reproduces_node_values(self):
        rng = random.Random(13)
        for k in range(1, 7):
            piece = random_piece(rng, k)
            for t, v in zip(piece.node_times, piece.node_values):
                assert lagrange_eval(piece, t) == pytest.approx(v, abs=5e-13)

    def test_polynomial_exactness(self):
        rng = random.Random(41)
        for k in range(1, 7):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(k + 1)]

            def poly(s):
                return math.fsum(c * s**p for p, c in enumerate(coeffs))

            tau = 0.125
            times = tuple(0.25 + i * tau for i in range(k + 1))
            piece = LagrangePiece(
                degree=k,
                anchor=k,
                node_times=times,
                node_values=tuple(poly(t) for t in times),
                interval=(times[-2], times[-1]),
                tau=tau,
            )
            for _ in range(20):
                s = rng.uniform(times[0], times[-1])
                assert lagrange_eval(piece, s) == pytest.approx(poly(s), rel=1e-10, abs=1e-12)

    def test_near_node_evaluation_is_stable(self):
        # evaluation within a node's cancellation guard must fall back to
        # the product form, not blow up
        rng = random.Random(3)
        piece = random_piece(rng, 3)
        t1 = piece.node_times[1]
        for eps in (0.0, 1e-13 * piece.tau, -1e-13 * piece.tau):
            got = lagrange_eval(piece, t1 + eps)
            assert got == pytest.approx(piece.node_values[1], abs=1e-9)

    def test_kink_interpolation_error_scaling(self):
        """Sup-norm interpolation error on a stencil straddling the kink
        scales as tau^min(m+beta, k+1)."""
        for (m, beta) in [(0, 0.5), (1, 0.3), (2, 1.0)]:
            u = HolderTestFunction(m=m, beta=beta, xi=0.5)
            for k in (2, 3):
                errs = []
                for e in range(4, 10):
                    tau = 2.0**-e
                    base = 0.5 - (k * 0.5 + 0.37) * tau
                    times = tuple(base + i * tau for i in range(k + 1))
                    piece = LagrangePiece(
                        degree=k,
                        anchor=k,
                        node_times=times,
                        node_values=tuple(u(t) for t in times),
                        interval=(times[-2], times[-1]),
                        tau=tau,
                    )
                    worst = 0.0
                    for i in range(401):
                        s = times[0] + (times[-1] - times[0]) * i / 400
                        worst = max(worst, abs(u(s) - lagrange_eval(piece, s)))
                    errs.append(worst)
                slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
                fitted = sum(slopes) / len(slopes)
                assert abs(fitted - min(m + beta, k + 1)) <= 0.15

    def test_piece_validation(self):
        with pytest.raises(ValueError):
            LagrangePiece(
                degree=2,
                anchor=2,
                node_times=(0.0, 0.25),
                node_values=(0.0, 1.0, 2.0),
                interval=(0.0, 0.25),
                tau=0.25,
            )
        with pytest.raises(ValueError):
            LagrangePiece(
                degree=1,
                anchor=1,
                node_times=(0.0, 0.25),
                node_values=(0.0, 1.0),
                interval=(0.25, 0.25),
                tau=0.25,
            )


class TestBackwardDifference:
    def test_annihilates_low_degrees(self):
        rng = random.Random(59)
        for order in range(1, 7):
            for _ in range(15):
                deg = rng.randrange(0, order)
                coeffs = [rng.uniform(-1.0, 1.0) for _ in range(deg + 1)]
                samples = [
                    math.fsum(c * float(i) ** p for p, c in enumerate(coeffs))
                    for i in range(order + 1)
                ]
                scale = max(abs(v) for v in samples) + 1.0
                assert abs(backward_difference(samples, order)) <= 1e-12 * scale

    def test_leading_coefficient(self):
        # order-l difference of i^l equals l!
        for order in range(1, 7):
            samples = [float(i) ** order for i in range(order + 1)]
            got = backward_difference(samples, order)
            assert got == pytest.approx(math.factorial(order), rel=1e-12)

    def test_taylor_consistency(self):
        """For smooth u the order-l difference over step tau approaches
        tau^l u^(l); the defect must shrink at one extra order."""
        u = math.exp
        t = 0.7
        for order in (1, 2, 3):
            errs = []
            for e in range(4, 10):
                tau = 2.0**-e
                samples = [u(t - (order - i) * tau) for i in range(order + 1)]
                # exp is its own derivative at every order
                errs.append(abs(backward_difference(samples, order) - tau**order * u(t)))
            slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
            fitted = sum(slopes) / len(slopes)
            assert fitted >= order + 0.9

    def test_needs_enough_history(self):
        with pytest.raises(ValueError):
            backward_difference([1.0, 2.0], 2)


class TestBuildInterpolant:
    def grid_and_values(self, n, u, steps=None):
        g = UniformGrid(horizon=1.0, steps=steps or n)
        return g, [u(g.time(i)) for i in range(n + 1)]

    def test_covers_evaluation_window(self):
        u = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        for scheme in [SchemeKind.l1(), SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(4)]:
            for n in (1, 2, 5, 9):
                g, vals = self.grid_and_values(n, u, steps=16)
                p = build_interpolant(scheme, g, vals, n)
                if n == 1:
                    # every scheme's first step is the single L1 piece
                    assert [(q.degree, q.anchor) for q in p.pieces] == [(1, 1)]
                assert p.pieces[0].interval[0] == 0.0
                assert p.t_end == pytest.approx(g.time(n), abs=1e-15)
                for a, b in zip(p.pieces, p.pieces[1:]):
                    assert a.interval[1] == pytest.approx(b.interval[0], abs=1e-12)

    def test_interpolates_node_values(self):
        rng = random.Random(17)
        u = HolderTestFunction(m=2, beta=0.3, xi=0.4)
        for scheme in [SchemeKind.l1(), SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(3)]:
            n = rng.randrange(max(2, scheme.degree), 12)
            g, vals = self.grid_and_values(n, u, steps=16)
            p = build_interpolant(scheme, g, vals, n)
            for i in range(n + 1):
                assert p(g.time(i)) == pytest.approx(vals[i], abs=1e-11)

    def test_l1_piece_layout(self):
        u = HolderTestFunction(m=0, beta=0.5, xi=0.5)
        g, vals = self.grid_and_values(6, u, steps=8)
        p = build_interpolant(SchemeKind.l1(), g, vals, 6)
        assert len(p.pieces) == 6
        assert all(piece.degree == 1 for piece in p.pieces)

    def test_l2_piece_layout(self):
        """Quadratics throughout: forward stencils on every interval, the
        last interval reusing the stencil of its predecessor."""
        u = HolderTestFunction(m=0, beta=0.5, xi=0.5)
        g, vals = self.grid_and_values(5, u, steps=8)
        p = build_interpolant(SchemeKind.l2(), g, vals, 5)
        assert len(p.pieces) == 5
        assert all(piece.degree == 2 for piece in p.pieces)
        # interval j < n uses nodes {j-1, j, j+1}
        assert p.pieces[0].anchor == 2
        assert p.pieces[3].anchor == 5
        # final interval keeps the previous stencil
        assert p.pieces[4].anchor == 5
        assert p.pieces[4].node_times == p.pieces[3].node_times

    def test_l12_piece_layout(self):
        u = HolderTestFunction(m=0, beta=0.5, xi=0.5)
        g, vals = self.grid_and_values(5, u, steps=8)
        p = build_interpolant(SchemeKind.l12(), g, vals, 5)
        assert len(p.pieces) == 5
        assert p.pieces[0].degree == 1
        # backward stencils {j-2, j-1, j} from the second interval on
        for j, piece in enumerate(p.pieces[1:], start=2):
            assert piece.degree == 2
            assert piece.anchor == j

    def test_lk_startup_layout(self):
        u = HolderTestFunction(m=1, beta=0.8, xi=0.5)
        g, vals = self.grid_and_values(7, u, steps=8)
        p = build_interpolant(SchemeKind.lk(4), g, vals, 7)
        assert [piece.degree for piece in p.pieces] == [1, 2, 3, 4, 4, 4, 4]
        # growing startup pieces are anchored at their own right endpoint
        for j in range(3):
            assert p.pieces[j].anchor == j + 1

    def test_needs_all_node_values(self):
        u = HolderTestFunction(m=0, beta=0.5, xi=0.5)
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(ValueError):
            build_interpolant(SchemeKind.l1(), g, [0.0, 1.0], 4)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="u\\^2 is not finite"):
                build_interpolant(SchemeKind.l2(), g, [0.0, 1.0, bad, 3.0, 4.0], 4)

    def test_piece_at_boundaries(self):
        u = HolderTestFunction(m=1, beta=0.8, xi=0.5)
        g, vals = self.grid_and_values(6, u, steps=8)
        p = build_interpolant(SchemeKind.l12(), g, vals, 6)
        # an interior node belongs to the piece that ends there
        for j in range(1, 6):
            assert p.piece_at(g.time(j)) is p.pieces[j - 1]
            assert p.piece_at(0.5 * (g.time(j - 1) + g.time(j))) is p.pieces[j - 1]
        assert p.piece_at(0.0) is p.pieces[0]
        assert p.piece_at(p.t_end) is p.pieces[-1]
        assert p.piece_at(p.t_end * (1.0 + 1e-13)) is p.pieces[-1]
        for outside in (-1e-15, -0.5, p.t_end * (1.0 + 1e-11), 2.0, math.nan):
            with pytest.raises(ValueError, match="outside"):
                p.piece_at(outside)
