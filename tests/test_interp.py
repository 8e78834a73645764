"""Tests for Lagrange pieces and scheme interpolants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.interp import (
    LagrangePiece,
    MAX_DEGREE,
    SchemeKind,
    _runs,
    build_interpolant,
    divided_coeff,
)


def random_piece(rng: random.Random, k: int, values=None) -> LagrangePiece:
    tau = 2.0 ** -rng.randrange(2, 8)
    start = rng.randrange(0, 20)
    times = tuple((start + i) * tau for i in range(k + 1))
    if values is None:
        values = tuple(rng.uniform(-2.0, 2.0) for _ in range(k + 1))
    return LagrangePiece(
        node_times=times,
        node_values=tuple(values),
        interval=(times[-2], times[-1]),
        tau=tau,
    )


_SEVEN_SCHEMES = (
    SchemeKind.l1(),
    SchemeKind.l2(),
    SchemeKind.l12(),
    SchemeKind.lk(3),
    SchemeKind.lk(4),
    SchemeKind.lk(5),
    SchemeKind.lk(6),
)


class TestSchemeKind:
    def test_labels(self):
        assert [s.label for s in _SEVEN_SCHEMES] == [
            "L1", "L2", "L1-2", "L1-2-3", "L1-2-3-4", "L1-2-3-4-5", "L1-2-3-4-5-6"
        ]

    def test_degrees(self):
        assert [s.degree for s in _SEVEN_SCHEMES] == [1, 2, 2, 3, 4, 5, 6]

    def test_l1_and_l12_are_lk1_and_lk2(self):
        """The two spellings of each scheme are one value: equal, with
        equal hashes, so every cache keyed by scheme holds one entry."""
        for short, k in ((SchemeKind.l1(), 1), (SchemeKind.l12(), 2)):
            assert short == SchemeKind.lk(k)
            assert hash(short) == hash(SchemeKind.lk(k))
        assert SchemeKind.l12() != SchemeKind.l2()

    def test_lk_needs_valid_k(self):
        """A rejection names the bad k."""
        for k in (0, 7, 2.5):
            for make in (SchemeKind.lk, lambda k: SchemeKind(k=k)):
                with pytest.raises(ValueError) as excinfo:
                    make(k)
                assert f"got {k!r}" in str(excinfo.value)

    def test_no_degree_is_l2(self):
        """L2 is the one member without a settled degree k."""
        assert SchemeKind() == SchemeKind.l2()
        assert hash(SchemeKind()) == hash(SchemeKind.l2())

    def test_lk_refuses_a_missing_degree(self):
        """lk(None) once returned L2; l2() is the one way to get it."""
        with pytest.raises(ValueError, match=r"Lk degree k must be an integer in 1\.\.6, got None"):
            SchemeKind.lk(None)

    @pytest.mark.parametrize("k", [2.0, 2.5, True])
    def test_lk_refuses_a_non_integer_k(self, k):
        """lk(2.0) was once accepted: its label raised TypeError, and
        discrete_caputo raised on a cold cache but read Lk(2)'s weights on a
        warm one."""
        with pytest.raises(ValueError, match="Lk degree k must be an integer"):
            SchemeKind.lk(k)


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
        """Constant data, in the Newton form ``piece(s)`` evaluates and in
        the monomial basis the closed form integrates."""
        rng = random.Random(101)
        worst = 0.0
        for k in range(1, 7):
            for _ in range(34):
                piece = random_piece(rng, k, values=(1.0,) * (k + 1))
                lo = piece.node_times[0] - piece.tau
                hi = piece.node_times[-1] + piece.tau
                s = rng.uniform(lo, hi)
                sigma = (s - piece.node_times[-1]) / piece.tau
                coeffs = piece.monomial_coefficients()
                monomial = math.fsum(b * sigma**r for r, b in enumerate(coeffs))
                worst = max(worst, abs(piece(s) - 1.0), abs(monomial - 1.0))
        assert worst < 1e-11

    def test_reproduces_node_values(self):
        rng = random.Random(13)
        for k in range(1, 7):
            piece = random_piece(rng, k)
            for t, v in zip(piece.node_times, piece.node_values):
                assert piece(t) == pytest.approx(v, abs=5e-13)
            # bit for bit at the anchor: the integrated oracle's u(t_n)
            assert piece(piece.node_times[-1]) == piece.node_values[-1]

    def test_polynomial_exactness(self):
        for tau in (0.125, 2.0**-12):
            rng = random.Random(41)
            for k in range(1, 7):
                coeffs = [rng.uniform(-1.0, 1.0) for _ in range(k + 1)]

                def poly(s):
                    return math.fsum(c * s**p for p, c in enumerate(coeffs))

                times = tuple(0.25 + i * tau for i in range(k + 1))
                piece = LagrangePiece(
                    node_times=times,
                    node_values=tuple(poly(t) for t in times),
                    interval=(times[-2], times[-1]),
                    tau=tau,
                )
                for _ in range(20):
                    s = rng.uniform(times[0], times[-1])
                    assert piece(s) == pytest.approx(poly(s), rel=1e-10, abs=1e-12)

    def test_near_node_evaluation_is_stable(self):
        # the Newton form divides by no (s - t_l), so evaluation on or a
        # rounding error away from an interior node needs no special case
        rng = random.Random(3)
        piece = random_piece(rng, 3)
        t1 = piece.node_times[1]
        for eps in (0.0, 1e-13 * piece.tau, -1e-13 * piece.tau):
            got = piece(t1 + eps)
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
                        node_times=times,
                        node_values=tuple(u(t) for t in times),
                        interval=(times[-2], times[-1]),
                        tau=tau,
                    )
                    worst = 0.0
                    for i in range(401):
                        s = times[0] + (times[-1] - times[0]) * i / 400
                        worst = max(worst, abs(u(s) - piece(s)))
                    errs.append(worst)
                slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
                fitted = sum(slopes) / len(slopes)
                assert abs(fitted - min(m + beta, k + 1)) <= 0.15

    def test_piece_validation(self):
        with pytest.raises(ValueError):
            LagrangePiece(
                node_times=(0.0, 0.25),
                node_values=(0.0, 1.0),
                interval=(0.25, 0.25),
                tau=0.25,
            )

    # LagrangePiece((0.0, 0.5), (0.0, 1.0), (0.0, 0.5), 0.5) is valid;
    # each case below replaces one field with a bad value it must name
    _VALID = dict(
        node_times=(0.0, 0.5),
        node_values=(0.0, 1.0),
        interval=(0.0, 0.5),
        tau=0.5,
    )

    @pytest.mark.parametrize(
        "times, values, got",
        [
            ((0.0,), (1.0,), "got 1 times and 1 values"),
            (
                tuple(0.5 * i for i in range(MAX_DEGREE + 2)),
                (1.0,) * (MAX_DEGREE + 2),
                f"got {MAX_DEGREE + 2} times and {MAX_DEGREE + 2} values",
            ),
            ((0.0, 0.5), (0.0, 1.0, 2.0), "got 2 times and 3 values"),
            ((0.0, 0.5, 1.0), (0.0, 1.0), "got 3 times and 2 values"),
        ],
        ids=["one-node", "too-many-nodes", "extra-value", "missing-value"],
    )
    def test_rejects_bad_stencil_size(self, times, values, got):
        """The stencil fixes the degree, 1..MAX_DEGREE, so it needs
        2..MAX_DEGREE + 1 nodes with one value per node."""
        with pytest.raises(ValueError, match=got):
            LagrangePiece(**{**self._VALID, "node_times": times, "node_values": values})

    @pytest.mark.parametrize(
        "times, bad",
        [
            ((0.0, 0.0), 0.0),
            ((0.5, 0.0), 0.0),
            ((0.0, math.nan), math.nan),
            ((-math.inf, 0.5), -math.inf),
            ((0.0, math.inf), math.inf),
        ],
        ids=["repeated", "descending", "nan", "-inf", "inf"],
    )
    def test_rejects_bad_node_times(self, times, bad):
        with pytest.raises(ValueError) as excinfo:
            LagrangePiece(**{**self._VALID, "node_times": times})
        assert repr(bad) in str(excinfo.value)

    def test_rejects_node_times_not_tau_apart(self):
        """Node times (0, 0.5, 1) with tau = 0.25 once built a piece that
        read 0.5625 at s = 0.75 through evaluate, which reads the node
        times, and 0.25 through monomial_coefficients, which reads tau."""
        with pytest.raises(ValueError, match="tau=0.25 apart"):
            LagrangePiece((0.0, 0.5, 1.0), (0.0, 0.25, 1.0), (0.5, 1.0), 0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_node_values(self, bad):
        """A NaN value once built a piece whose oracle value was nan, which
        a max over errors then skipped."""
        with pytest.raises(ValueError, match="stencil node values must be finite") as excinfo:
            LagrangePiece(**{**self._VALID, "node_values": (0.0, bad)})
        assert repr(bad) in str(excinfo.value)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -0.5])
    def test_rejects_bad_step(self, tau):
        with pytest.raises(ValueError) as excinfo:
            LagrangePiece(**{**self._VALID, "tau": tau})
        assert repr(tau) in str(excinfo.value)

    @pytest.mark.parametrize(
        "interval, bad",
        [((0.0, math.inf), math.inf), ((-math.inf, 0.5), -math.inf)],
        ids=["inf", "-inf"],
    )
    def test_rejects_non_finite_interval_end(self, interval, bad):
        with pytest.raises(ValueError) as excinfo:
            LagrangePiece(**{**self._VALID, "interval": interval})
        assert repr(bad) in str(excinfo.value)


class TestRuns:
    def test_steady_run_starts_at_the_degree(self):
        """The run that grows with n first covers a whole stencil at node
        first + offset = scheme.degree, the lo CaputoWeights splits its
        heads from its row at."""
        for scheme in _SEVEN_SCHEMES:
            k = scheme.degree
            for n in range(2 * k + 2, 2 * k + 7):
                grown = [
                    first + offset
                    for (_, offset, first, last), (_, _, first2, last2) in zip(
                        _runs(scheme, n), _runs(scheme, n + 1)
                    )
                    if last2 - first2 > last - first
                ]
                assert grown == [k], (scheme.label, n)


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
                    assert [(q.degree, q.node_times[-1]) for q in p.pieces] == [(1, g.time(1))]
                # interval j's stencil ends at node j + offset, as _runs lays it out
                layout = [
                    (degree, (j + offset) * g.tau)
                    for degree, offset, first, last in _runs(scheme, n)
                    for j in range(first, last + 1)
                ]
                assert [(q.degree, q.node_times[-1]) for q in p.pieces] == layout
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
        assert p.pieces[0].node_times[-1] == g.time(2)
        assert p.pieces[3].node_times[-1] == g.time(5)
        # final interval keeps the previous stencil
        assert p.pieces[4].node_times[-1] == g.time(5)
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
            assert piece.node_times[-1] == g.time(j)

    def test_lk_startup_layout(self):
        u = HolderTestFunction(m=1, beta=0.8, xi=0.5)
        g, vals = self.grid_and_values(7, u, steps=8)
        p = build_interpolant(SchemeKind.lk(4), g, vals, 7)
        assert [piece.degree for piece in p.pieces] == [1, 2, 3, 4, 4, 4, 4]
        # growing startup pieces end their stencil at their own right endpoint
        for j in range(3):
            assert p.pieces[j].node_times[-1] == g.time(j + 1)

    def test_needs_all_node_values(self):
        u = HolderTestFunction(m=0, beta=0.5, xi=0.5)
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(ValueError):
            build_interpolant(SchemeKind.l1(), g, [0.0, 1.0], 4)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="u\\^2 is not finite"):
                build_interpolant(SchemeKind.l2(), g, [0.0, 1.0, bad, 3.0, 4.0], 4)

    def test_rejects_an_integer_beyond_float_range(self):
        """10**400 is a real number with no float: float() once raised a
        bare OverflowError that named no node.  10**5000 is past the int-to-str
        digit limit, so the refusal names the node and the type, not the value."""
        g = UniformGrid(horizon=1.0, steps=8)
        for big in (10**400, 10**5000):
            with pytest.raises(ValueError, match=r"u\^1 is not a real number in float range, got type int"):
                build_interpolant(SchemeKind.l1(), g, [0, big, 2, 3, 4], 4)

    def test_finite_values_may_overflow_their_sum(self):
        """Finiteness is checked on the values' sum first, item by item
        only when that is not finite: finite values whose sum overflows
        pass, and the first bad value after them is still named."""
        g = UniformGrid(horizon=1.0, steps=8)
        big = [0.0, 1e308, 1e308, -1e308, 1e308]
        assert len(build_interpolant(SchemeKind.l1(), g, big, 4).pieces) == 4
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="u\\^3 is not finite"):
                build_interpolant(SchemeKind.l1(), g, big[:3] + [bad, -1e308], 4)

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
