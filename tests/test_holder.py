"""Tests for grids and the Holder test family."""

from __future__ import annotations

import itertools
import math
import re

import pytest

from caputo_lk.harness import (
    order_fixed_time,
    order_first_node,
    order_interior,
    render,
    reproduce_table,
)
from caputo_lk.holder import (
    HolderTestFunction,
    RegularityClass,
    UniformGrid,
    _check_alpha,
)
from caputo_lk.interp import (
    _ALL_SCHEMES,
    LagrangePiece,
    PiecewisePolynomial,
    SchemeKind,
    build_interpolant,
    divided_coeff,
)
from caputo_lk.oracle import exact_caputo_monomial, quad_caputo_integrated, quad_caputo_piecewise
from caputo_lk.schemes import (
    CaputoWeights,
    KernelMoment,
    caputo_of_piece,
    discrete_caputo,
    kernel_moment,
    kernel_moments,
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
        with pytest.raises(ValueError, match=re.escape(f"time {t!r} is not a node") + "|"
                           + re.escape(f"time t must be a real number in (-inf, inf), got {t!r}")):
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


_GRID = UniformGrid(horizon=1.0, steps=8)
_PROBE = HolderTestFunction(m=2, beta=0.5, xi=0.5)
# the L1 interpolant of the probe for node 4 of _GRID, at t_n = 0.5
_INTERP = build_interpolant(SchemeKind.l1(), _GRID, _PROBE, 4)

# every count parameter: the name its refusal gives it, and a call that takes it
_COUNTS = [
    ("Lk degree k", lambda k: float(SchemeKind.lk(k).degree)),
    ("grid steps", lambda steps: UniformGrid(1.0, steps).tau),
    ("node index", lambda n: _GRID.time(n)),
    ("evaluation node n", lambda n: discrete_caputo(SchemeKind.l1(), _GRID, _PROBE, n, 0.5).value),
    ("derivative count m", lambda m: RegularityClass(m, 0.5).beta),
    ("monomial degree", lambda p: exact_caputo_monomial(p, 1.0, 0.5)),
    ("table id", lambda table_id: reproduce_table(table_id).xi),
    ("stencil degree k", lambda k: float(divided_coeff(k, 0))),
    ("stencil node l", lambda l: float(divided_coeff(6, l))),
    ("monomial degree q", lambda q: kernel_moment(KernelMoment(1.0, 0.0, 0.5, 0.0, q, 0.5))),
]

# every real parameter once compared before it was checked, likewise
_REALS = [
    ("evaluation time t_n", lambda t: quad_caputo_piecewise(_INTERP, t, 0.5)),
    ("evaluation time t_n", lambda t: quad_caputo_integrated(_INTERP, t, 0.5)),
    ("tolerance", lambda tol: quad_caputo_piecewise(_INTERP, 0.5, 0.5, tol=tol)),
    ("tolerance", lambda tol: quad_caputo_integrated(_INTERP, 0.5, 0.5, tol=tol)),
    ("time t", lambda t: float(_GRID.node_index(t))),
    ("evaluation time t", lambda t: kernel_moments(t, 0.0, 0.5, 0.0, 1, 0.5)[1]),
    ("window start a", lambda a: kernel_moments(1.0, a, 0.5, 0.0, 1, 0.5)[1]),
    ("window end b", lambda b: kernel_moments(1.0, 0.0, b, 0.0, 1, 0.5)[1]),
    ("expansion centre c", lambda c: kernel_moment(KernelMoment(1.0, 0.0, 0.5, c, 1, 0.5))),
]


# one piece of _INTERP, on (0.125, 0.25)
_PIECE = _INTERP.pieces[1]

# an object of the wrong kind where each kind enters the package: the
# parameter its refusal names, and a call that passes it
_KINDS = [
    ("scheme must be a SchemeKind", lambda s: discrete_caputo(s, _GRID, _PROBE, 4, 0.5).value),
    ("scheme must be a SchemeKind", lambda s: CaputoWeights(s, 0.5).alpha),
    ("scheme must be a SchemeKind", lambda s: build_interpolant(s, _GRID, _PROBE, 4).t_end),
    ("scheme must be a SchemeKind", lambda s: order_interior(s, _PROBE, 0.5, 0.125).measured_R),
    ("scheme must be a SchemeKind", lambda s: order_first_node(s, _PROBE, 0.5, 0.125).error),
    ("grid must be a UniformGrid", lambda g: discrete_caputo(SchemeKind.l1(), g, _PROBE, 4, 0.5).value),
    ("grid must be a UniformGrid", lambda g: build_interpolant(SchemeKind.l1(), g, _PROBE, 4).t_end),
    ("node values must be a sequence or a callable",
     lambda u: discrete_caputo(SchemeKind.l1(), _GRID, u, 4, 0.5).value),
    ("node values must be a sequence or a callable",
     lambda u: build_interpolant(SchemeKind.l1(), _GRID, u, 4).t_end),
    ("probe must be callable", lambda f: order_interior(SchemeKind.l2(), f, 0.5, 0.125).measured_R),
    ("probe must be callable", lambda f: order_first_node(SchemeKind.l2(), f, 0.5, 0.125).error),
    ("probe must be callable", lambda f: order_fixed_time(f, 0.5, 2.0**-8, 2.0**-7).error),
    ("report must be a Report", lambda r: float(len(render(r)))),
    ("stencil node times and values must be reals", lambda x: LagrangePiece(x, (0.0, 1.0), (0.0, 1.0), 1.0).tau),
    ("stencil node times and values must be reals", lambda x: LagrangePiece((0.0, 1.0), x, (0.0, 1.0), 1.0).tau),
    ("validity interval must be a pair of reals", lambda x: LagrangePiece((0.0, 1.0), (0.0, 1.0), x, 1.0).tau),
    ("pieces must be LagrangePieces", lambda x: PiecewisePolynomial((x, x)).t_end),
]

# every real of a piece, a point on an interpolant and the reference
# route's window, which were compared before they were checked
_PIECE_REALS = [
    ("stencil node times and values must be reals",
     lambda t: LagrangePiece((t, 0.25), (0.0, 1.0), (0.125, 0.25), 0.125).tau),
    ("stencil node times and values must be reals",
     lambda v: LagrangePiece((0.125, 0.25), (0.0, v), (0.125, 0.25), 0.125).tau),
    ("point s must be a real number", lambda s: _INTERP.piece_at(s).tau),
    ("window start a must be a real number",
     lambda a: caputo_of_piece(_PIECE, (a, 0.25), 0.5, 0.5)),
    ("window end b must be a real number",
     lambda b: caputo_of_piece(_PIECE, (0.125, b), 0.5, 0.5)),
    ("evaluation time t must be a real number",
     lambda t: caputo_of_piece(_PIECE, (0.125, 0.25), t, 0.5)),
]


def _finite_or_value_error(call) -> None:
    """call() returns a finite float or raises ValueError; any other
    exception, TypeError and OverflowError included, propagates."""
    try:
        got = call()
    except ValueError:
        return
    assert isinstance(got, float) and math.isfinite(got), got


class TestInputContract:
    """Every public entry point refuses a parameter that is not a real
    number in its range with ValueError naming it, never TypeError or
    OverflowError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _check_alpha(None),
            lambda: _check_alpha(1j),
            lambda: _check_alpha("0.5"),
            lambda: UniformGrid(None, 4),
            lambda: UniformGrid(5e-324, 2),
            lambda: UniformGrid(1.0, 10**400),
            lambda: RegularityClass(1, None),
            lambda: RegularityClass.from_total(None),
            lambda: HolderTestFunction(1, 0.5, None),
            lambda: order_interior(SchemeKind.l2(), _PROBE, 0.5, None),
            lambda: order_first_node(SchemeKind.l2(), _PROBE, 0.5, None),
            lambda: order_fixed_time(_PROBE, 0.5, None, 2.0**-7),
            lambda: order_fixed_time(_PROBE, 0.5, 2.0**-8, None),
            lambda: exact_caputo_monomial(6, 1e300, 0.5),
            lambda: exact_caputo_monomial(1, "1", 0.5),
            lambda: exact_caputo_monomial(1, None, 0.5),
        ],
    )
    def test_refusal_is_a_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    def test_refusal_names_the_parameter(self):
        kink = r"kink location must be a real number in \(0, inf\), got type NoneType"
        with pytest.raises(ValueError, match=kink):
            HolderTestFunction(1, 0.5, None)
        with pytest.raises(ValueError, match=r"fractional order must be .* \(0, 1\), got 1\.5"):
            _check_alpha(1.5)

    @pytest.mark.parametrize("huge", [10**5000, -(10**5000)], ids=["10**5000", "-10**5000"])
    @pytest.mark.parametrize("what, call", _COUNTS, ids=[what for what, _ in _COUNTS])
    def test_count_past_the_digit_limit_is_named(self, what, call, huge):
        """An int of 5001 digits once broke most of these refusals' own
        messages with 'Exceeds the limit (4300 digits)', naming no parameter."""
        got = re.escape(what) + r" must be an integer in \S+, got an int past 1e308$"
        with pytest.raises(ValueError, match=got):
            call(huge)

    @pytest.mark.parametrize("bad", [None, "1", math.nan, 1j], ids=repr)
    @pytest.mark.parametrize("what, call", _REALS, ids=[f"{i}-{w}" for i, (w, _) in enumerate(_REALS)])
    def test_real_parameter_is_checked_before_use(self, what, call, bad):
        """None, "1" and 1j once raised TypeError from a comparison or from
        math.isfinite, and nan was refused, if at all, as some other fault."""
        with pytest.raises(ValueError, match=re.escape(what) + " must be a real number in "):
            call(bad)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: discrete_caputo("L1", _GRID, _PROBE, 4, 0.5), "scheme must be a SchemeKind, got type str"),
            (lambda: discrete_caputo([1], _GRID, _PROBE, 4, 0.5), "scheme must be a SchemeKind, got type list"),
            (lambda: CaputoWeights("L1", 0.5), "scheme must be a SchemeKind, got type str"),
            (lambda: order_interior("L2", _PROBE, 0.5, 2.0**-7), "scheme must be a SchemeKind, got type str"),
            (lambda: order_first_node("L2", _PROBE, 0.5, 2.0**-7), "scheme must be a SchemeKind, got type str"),
            (lambda: discrete_caputo(SchemeKind.l1(), "g", _PROBE, 4, 0.5),
             "grid must be a UniformGrid, got type str"),
        ],
        ids=["str", "unhashable", "weights", "interior", "first-node", "grid"],
    )
    def test_refusal_names_the_kind(self, call, message):
        """A scheme given by its label or as a list, and a grid given as a
        string, once raised AttributeError or TypeError."""
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()

    @pytest.mark.parametrize("bad", [None, 5, object()], ids=lambda x: type(x).__name__)
    @pytest.mark.parametrize("what, call", _KINDS, ids=[f"{i}-{w.split()[0]}" for i, (w, _) in enumerate(_KINDS)])
    def test_object_of_another_kind_is_named(self, what, call, bad):
        """A scheme, grid, container of node values, probe or report of
        another kind once raised AttributeError or TypeError ("has no
        len()", "unhashable type"), or, in order_first_node, failed while
        formatting its own refusal; so did a piece's stencil or interval and
        an interpolant's pieces of another kind."""
        with pytest.raises(ValueError, match=re.escape(what)):
            call(bad)

    @pytest.mark.parametrize("bad", [None, "1", 10**5000, 1j], ids=lambda x: type(x).__name__)
    @pytest.mark.parametrize("what, call", _PIECE_REALS,
                             ids=[f"{i}-{w.split()[0]}" for i, (w, _) in enumerate(_PIECE_REALS)])
    def test_piece_real_is_named(self, what, call, bad):
        """None, "1" and 1j once raised TypeError from a comparison or from
        math.isfinite, and 10**5000 OverflowError; a LagrangePiece refused
        numeric strings with TypeError, though node values take them."""
        with pytest.raises(ValueError, match=re.escape(what)):
            call(bad)

    def test_stencil_times_past_float_range_are_named(self):
        """Ints past float range one step apart once passed as node times,
        and the piece raised OverflowError when evaluated."""
        big = 10**400
        with pytest.raises(ValueError, match="stencil node times and values must be reals"):
            LagrangePiece((big, big + 1), (0.0, 1.0), (0.0, 1.0), 1.0)

    def test_step_whose_power_overflows_is_named(self):
        """tau^-alpha overflows for tau = 1e-320 at alpha = 0.99, and the
        refusal once blamed the node values 0 and 1; at alpha = 0.1 it is finite."""
        grid = UniformGrid(1e-320, 1)
        with pytest.raises(ValueError, match=r"step tau = 1e-320 is too small: tau\^-alpha overflows"):
            discrete_caputo(SchemeKind.l1(), grid, [0.0, 1.0], 1, 0.99)
        assert math.isfinite(discrete_caputo(SchemeKind.l1(), grid, [0.0, 1.0], 1, 0.1).value)

    @pytest.mark.parametrize("route", [quad_caputo_piecewise, quad_caputo_integrated])
    def test_stats_is_checked_before_the_integrand(self, route, monkeypatch):
        """stats=[] once ran the whole integral, then raised AttributeError."""

        def unread(self, s):
            raise AssertionError(f"the interpolant was read at {s!r}")

        monkeypatch.setattr(PiecewisePolynomial, "piece_at", unread)
        with pytest.raises(ValueError, match="stats must be a dict or None, got type list"):
            route(_INTERP, 0.5, 0.5, stats=[])

    @pytest.mark.parametrize("t, c", [(1.0, 1e300), (1e300, 0.0)], ids=["binomial", "series"])
    def test_kernel_moment_past_float_range_is_refused(self, t, c):
        """The binomial sum once raised OverflowError from float **, and the
        far-field series returned inf."""
        with pytest.raises(ValueError, match="kernel moment of degree 6 or less overflows"):
            kernel_moments(t, 0.0, 0.5, c, 6, 0.5)

    def test_probe_past_float_range_is_not_finite(self):
        """float ** raises OverflowError where the product would be inf; the
        probe gives +-inf, which the node check refuses by index."""
        assert HolderTestFunction(6, 1.0, 1e300)(0.0) == math.inf
        assert HolderTestFunction(5, 1.0, 1e300)(0.0) == -math.inf
        with pytest.raises(ValueError, match=r"u\^0 is not finite"):
            discrete_caputo(SchemeKind.l1(), _GRID, HolderTestFunction(6, 1.0, 1e300), 4, 0.5)

    def test_power_rule_values_are_unchanged(self):
        """Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha), bit for bit, for p <= 6."""
        for p in range(7):
            for t in (0.25, 1.0, 3.0):
                want = math.gamma(p + 1.0) / math.gamma(p + 1.0 - 0.3) * t ** (p - 0.3)
                assert exact_caputo_monomial(p, t, 0.3) == (want if p else 0.0)

    def test_property(self):
        """Arbitrary ints, bools, floats (nan, +-inf, subnormal, huge),
        strings, None and complex values as alpha, grid and probe
        parameters, node values, exact_caputo_monomial's arguments, every
        count of _COUNTS and every real of _REALS and _PIECE_REALS; any of
        those, and unhashable lists, as a scheme or a grid, and None, ints or
        lists as the container of node values.  The table ids 1..4 are left
        out, as each runs a whole study."""
        hp = pytest.importorskip("hypothesis")
        st = hp.strategies
        anything = st.one_of(
            st.integers(), st.booleans(), st.floats(), st.just(10**400), st.just(10**5000),
            st.text(max_size=6), st.sampled_from(["0.5", "1", "nan", "1e400"]), st.none(),
            st.complex_numbers(),
        )
        alpha = st.one_of(st.floats(0.0, 1.0), anything)
        positive = st.one_of(st.floats(0.0, 2.0), st.floats(min_value=0.0), anything)

        # no explain phase: it traces each failing case, for minutes on end
        @hp.settings(
            derandomize=True,
            max_examples=300,
            deadline=None,
            database=None,
            phases=(hp.Phase.generate, hp.Phase.shrink),
        )
        @hp.given(
            alpha=alpha,
            horizon=positive,
            steps=st.one_of(st.integers(-2, 64), anything),
            m=st.one_of(st.integers(-1, 7), anything),
            beta=st.one_of(st.floats(0.0, 1.5), anything),
            xi=positive,
            values=st.lists(st.one_of(st.floats(-1e308, 1e308), anything), min_size=5, max_size=5),
            p=st.one_of(st.integers(-1, 200), anything),
            t=positive,
            counts=st.tuples(*(st.one_of(st.integers(-1, 9), anything) for _ in _COUNTS)),
            reals=st.tuples(*(st.one_of(st.floats(-1.0, 2.0), st.just(0.5), anything) for _ in _REALS)),
            window=st.lists(st.one_of(st.floats(-1.0, 2.0), anything), min_size=4, max_size=4),
            scheme=st.one_of(st.sampled_from(_ALL_SCHEMES), anything, st.lists(st.integers(), max_size=2)),
            grid=st.one_of(st.just(_GRID), anything),
            container=st.one_of(st.none(), st.integers(), st.lists(st.floats(-1.0, 1.0), max_size=6)),
            piece_reals=st.tuples(*(st.one_of(st.floats(0.0, 0.5), anything) for _ in _PIECE_REALS)),
        )
        def check(alpha, horizon, steps, m, beta, xi, values, p, t, counts, reals, window,
                  scheme, grid, container, piece_reals):
            l1 = SchemeKind.l1()
            for call in (
                lambda: discrete_caputo(scheme, _GRID, _PROBE, 4, 0.5).value,
                lambda: build_interpolant(scheme, grid, container, 4).t_end,
                lambda: discrete_caputo(l1, grid, container, 4, 0.5).value,
                lambda: discrete_caputo(l1, _GRID, values, 4, 0.5).value,
                lambda: discrete_caputo(SchemeKind.l2(), _GRID, _PROBE, 4, alpha).value,
                lambda: discrete_caputo(l1, UniformGrid(horizon, steps), abs, 1, 0.5).value,
                lambda: discrete_caputo(l1, _GRID, HolderTestFunction(m, beta, xi), 4, 0.5).value,
                lambda: RegularityClass.from_total(beta).beta,
                lambda: exact_caputo_monomial(p, t, alpha),
                lambda: kernel_moments(*window, counts[-1], alpha)[-1],
            ):
                _finite_or_value_error(call)
            for (what, call), x in zip(_COUNTS + _REALS + _PIECE_REALS, counts + reals + piece_reals):
                if what != "table id" or not (type(x) is int and 1 <= x <= 4):
                    _finite_or_value_error(lambda: call(x))

        check()
