"""Tests for the discrete Caputo operators."""

from __future__ import annotations

import gc
import math
import operator
import random
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import caputo_lk.harness
import caputo_lk.schemes
from caputo_lk.holder import HolderTestFunction, UniformGrid
from caputo_lk.harness import order_interior, reproduce_table
from caputo_lk.interp import LagrangePiece, SchemeKind, _runs, build_interpolant
from caputo_lk.oracle import exact_caputo_monomial, quad_caputo_piecewise
from caputo_lk.schemes import (
    CaputoWeights,
    caputo_of_piece,
    discrete_caputo,
)

ALL_SCHEMES = [
    SchemeKind.l1(),
    SchemeKind.l2(),
    SchemeKind.l12(),
    SchemeKind.lk(3),
    SchemeKind.lk(4),
    SchemeKind.lk(5),
    SchemeKind.lk(6),
]


class TestCaputoOfPiece:
    def test_constant_piece_vanishes(self):
        piece = LagrangePiece(
            node_times=(0.0, 0.5),
            node_values=(3.0, 3.0),
            interval=(0.0, 0.5),
            tau=0.5,
        )
        assert caputo_of_piece(piece, (0.0, 0.5), 1.0, 0.4) == 0.0

    def test_unit_slope_half_order(self):
        """d/dt of t under order one half over the whole history gives
        t^(1/2) / Gamma(3/2) = 2/sqrt(pi) at t = 1."""
        piece = LagrangePiece(
            node_times=(0.0, 1.0),
            node_values=(0.0, 1.0),
            interval=(0.0, 1.0),
            tau=1.0,
        )
        got = caputo_of_piece(piece, (0.0, 1.0), 1.0, 0.5)
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    def test_frozen_quadratic_window(self):
        # pinned from adaptive Gauss-Kronrod quadrature of
        # p'(s) (t-s)^-alpha / Gamma(1-alpha) over the window
        piece = LagrangePiece(
            node_times=(0.0, 0.25, 0.5),
            node_values=(0.1, -0.3, 0.4),
            interval=(0.0, 0.25),
            tau=0.25,
        )
        got = caputo_of_piece(piece, (0.0, 0.25), 0.75, 0.6)
        assert got == pytest.approx(-0.2272638327801592, rel=1e-12)

    def test_window_must_sit_left_of_t(self):
        piece = LagrangePiece(
            node_times=(0.0, 0.5),
            node_values=(0.0, 1.0),
            interval=(0.0, 0.5),
            tau=0.5,
        )
        with pytest.raises(ValueError):
            caputo_of_piece(piece, (0.0, 0.5), 0.25, 0.5)


def _l1_row(n, alpha):
    """Lags 0..n-1 of the engine's L1 row, read through unit steps
    u^i = [i >= n - lag] at node n of the unit-step grid: the value there is
    b_lag / Gamma(2 - alpha)."""
    g = UniformGrid(horizon=float(n), steps=n)
    weights = CaputoWeights(SchemeKind.l1(), alpha)
    steps = ([float(i >= n - lag) for i in range(n + 1)] for lag in range(n))
    return [weights.value(g, u, n) * math.gamma(2.0 - alpha) for u in steps]


class TestL1Weights:
    """The engine's L1 row against its closed form
    b_i = (i+1)^(1-alpha) - i^(1-alpha)."""

    def test_values(self):
        for alpha in (0.1, 0.5, 0.9):
            p = 1.0 - alpha
            want = [(j + 1) ** p - j**p for j in range(30)]
            assert _l1_row(30, alpha) == pytest.approx(want, rel=1e-11)

    def test_positive_decreasing(self):
        for alpha in (0.1, 0.5, 0.9):
            w = _l1_row(30, alpha)
            assert all(x > 0.0 for x in w)
            assert all(x > y for x, y in zip(w, w[1:]))

    def test_convolution_matches_piecewise_form(self):
        # tau^-alpha/Gamma(2-alpha) sum_j b_{n-j} (u^j - u^{j-1})
        rng = random.Random(211)
        for _ in range(25):
            n = rng.randrange(1, 40)
            steps = n + rng.randrange(0, 4)
            g = UniformGrid(horizon=steps * 0.03125, steps=steps)
            alpha = rng.uniform(0.05, 0.95)
            vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
            a = discrete_caputo(SchemeKind.l1(), g, vals, n, alpha).value
            p = 1.0 - alpha
            acc = math.fsum(
                ((n - j + 1) ** p - (n - j) ** p) * (vals[j] - vals[j - 1])
                for j in range(1, n + 1)
            )
            b = acc * g.tau ** (-alpha) / math.gamma(2.0 - alpha)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-13)


class TestDiscreteCaputo:
    def test_linear_exactness(self):
        """Any scheme reproduces c0 + c1 t exactly, giving the power rule
        value c1 t^(1-alpha) / Gamma(2-alpha)."""
        g = UniformGrid(horizon=1.0, steps=16)
        for scheme in ALL_SCHEMES:
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
                for n in (1, 2, 8, 16):
                    got = discrete_caputo(
                        scheme, g, lambda t: 0.7 - 1.3 * t, n, alpha
                    ).value
                    want = -1.3 * g.time(n) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
                    assert got == pytest.approx(want, rel=1e-10)

    def test_first_step_collapse(self):
        # every scheme reduces to the linear first step at n = 1
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=0, beta=0.4, xi=0.5)
        base = discrete_caputo(SchemeKind.l1(), g, u, 1, 0.3).value
        for scheme in ALL_SCHEMES[1:]:
            assert discrete_caputo(scheme, g, u, 1, 0.3).value == pytest.approx(
                base, rel=1e-14
            )

    def test_first_step_closed_form(self):
        g = UniformGrid(horizon=1.0, steps=8)
        tau = g.tau
        got = discrete_caputo(SchemeKind.l2(), g, lambda t: t * t, 1, 0.3).value
        want = tau**2 * tau**-0.3 / math.gamma(2.0 - 0.3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_degree_family_collapses(self):
        """L1 and L1-2 are Lk(1) and Lk(2) themselves, so every route
        gives the two spellings one value and one cached weights object."""
        assert SchemeKind.l1() == SchemeKind.lk(1)
        assert SchemeKind.l12() == SchemeKind.lk(2)

    def test_frozen_holder_instance(self):
        # pinned from the adaptive quadrature oracle on the assembled
        # interpolant (agreement 3e-15 at pin time)
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        got = discrete_caputo(SchemeKind.l2(), g, u, 8, 0.5).value
        assert got == pytest.approx(0.3053063694661947, rel=1e-12)

    def test_cubic_kink_exact_value(self):
        """For beta = 1 and m = 2 the probe is an exact cubic left of the
        kink, so the operator at the kink approaches
        -3/Gamma(1-alpha) xi^(3-alpha)/(3-alpha)."""
        alpha = 0.1
        exact = -3.0 / math.gamma(1.0 - alpha) * 0.5 ** (3 - alpha) / (3 - alpha)
        g = UniformGrid(horizon=1.0, steps=128)
        u = HolderTestFunction(m=2, beta=1.0, xi=0.5)
        got = discrete_caputo(SchemeKind.l2(), g, u, 64, alpha).value
        assert got == pytest.approx(exact, rel=1e-6)

    def test_callable_and_sequence_agree(self):
        g = UniformGrid(horizon=1.0, steps=8)
        u = HolderTestFunction(m=1, beta=0.5, xi=0.4)
        vals = [u(g.time(i)) for i in range(9)]
        a = discrete_caputo(SchemeKind.l12(), g, u, 8, 0.5).value
        b = discrete_caputo(SchemeKind.l12(), g, vals, 8, 0.5).value
        assert a == b

    def test_result_metadata(self):
        g = UniformGrid(horizon=1.0, steps=8)
        r = discrete_caputo(SchemeKind.l1(), g, lambda t: t, 4, 0.5)
        assert r.node == 4
        assert r.time == pytest.approx(0.5)
        assert r.alpha == 0.5
        assert r.scheme.label == "L1"

    def test_rejects_bad_node(self):
        g = UniformGrid(horizon=1.0, steps=8)
        with pytest.raises(ValueError):
            discrete_caputo(SchemeKind.l1(), g, lambda t: t, 0, 0.5)
        with pytest.raises(ValueError):
            discrete_caputo(SchemeKind.l1(), g, lambda t: t, 9, 0.5)
        # a non-finite node value fails loudly instead of propagating
        for bad in (math.nan, math.inf):
            vals = [0.0, 0.1, bad, 0.3, 0.4]
            for scheme in (SchemeKind.l1(), SchemeKind.l2()):
                with pytest.raises(ValueError, match="not finite"):
                    discrete_caputo(scheme, g, vals, 4, 0.5)

    @pytest.mark.parametrize("n", [3.0, 2.5, "3"])
    def test_rejects_non_integer_node(self, n):
        """n = 3.0 once failed inside islice for node values and with a
        TypeError from range for a callable."""
        g = UniformGrid(horizon=1.0, steps=8)
        for u in ([0.1 * i for i in range(9)], lambda t: t):
            with pytest.raises(ValueError, match=f"evaluation node n must be an integer, got {n!r}"):
                discrete_caputo(SchemeKind.l2(), g, u, n, 0.5)

    def test_against_quadrature_oracle(self):
        """Closed-form kernel moments against adaptive quadrature on the
        same interpolant: the dual route must agree to near round-off."""
        rng = random.Random(421)
        for scheme in [SchemeKind.l1(), SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(4)]:
            n = rng.randrange(max(2, scheme.degree), 12)
            g = UniformGrid(horizon=1.0, steps=n + rng.randrange(0, 6))
            alpha = rng.uniform(0.1, 0.9)
            u = HolderTestFunction(
                m=rng.randrange(0, 3), beta=rng.uniform(0.1, 1.0), xi=rng.uniform(0.2, 0.9)
            )
            vals = [u(g.time(i)) for i in range(n + 1)]
            fast = discrete_caputo(scheme, g, vals, n, alpha).value
            interp = build_interpolant(scheme, g, vals, n)
            slow = quad_caputo_piecewise(interp, g.time(n), alpha, tol=1e-12)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


def _reference_terms(scheme, grid, vals, n, alpha):
    """Per-piece values of the reference route: ``caputo_of_piece`` over
    the pieces of the scheme's interpolant."""
    interp = build_interpolant(scheme, grid, vals, n)
    t_n = grid.time(n)
    return [caputo_of_piece(p, p.interval, t_n, alpha) for p in interp.pieces]


class TestReferenceRoute:
    """discrete_caputo works from weight columns in grid units, indexed by
    lag; the per-piece route through Lagrange pieces in time units stays as
    its reference."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
    def test_matches_per_piece_route(self, scheme):
        rng = random.Random(9)
        k = scheme.degree
        for n in sorted({1, 2, k, k + 1, 33, 256}):
            # a dyadic step and one that is not
            for steps in (256, 3 * n + 7):
                if n > steps:
                    continue
                g = UniformGrid(horizon=1.0, steps=steps)
                vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
                for alpha in (0.05, 0.5, 0.95):
                    got = discrete_caputo(scheme, g, vals, n, alpha).value
                    parts = _reference_terms(scheme, g, vals, n, alpha)
                    bound = 1e-12 * sum(map(abs, parts))
                    assert abs(got - math.fsum(parts)) <= bound, (n, steps, alpha)

    def test_one_moment_evaluation_per_new_lag(self, monkeypatch):
        """A shared CaputoWeights builds no interpolant, no Lagrange piece
        and no per-piece route.  A node's first evaluation evaluates the
        columns of the intervals whose entries land on a node value no row
        entry or head weighs yet: the row's new lags, at most k seam lags
        below them and its startup or final intervals; a repeat evaluates
        none (node 20 here).  Every node costs one gamma call.  The values
        match one column evaluation per interval within ``_fold_bound``
        (each weight rounds its sum of column entries first)."""
        g = UniformGrid(horizon=1.0, steps=23)
        alpha = 0.4
        vals = [math.sin(3.0 * g.time(i)) for i in range(g.steps + 1)]
        nodes = (20, 5, 20, 23, 1, 12, 2)
        want = {
            (scheme, n): _per_interval_value(scheme, g, vals, n, alpha)
            for scheme in ALL_SCHEMES
            for n in nodes
        }

        def refuse(*args, **kwargs):
            raise AssertionError("piece route called on the hot path")

        monkeypatch.setattr(caputo_lk.schemes, "build_interpolant", refuse)
        monkeypatch.setattr(caputo_lk.schemes, "caputo_of_piece", refuse)
        monkeypatch.setattr(LagrangePiece, "monomial_coefficients", refuse)
        keys = _record_moment_keys(monkeypatch)
        gammas = []
        original_gamma = caputo_lk.schemes.gamma
        monkeypatch.setattr(
            caputo_lk.schemes, "gamma", lambda x: gammas.append(x) or original_gamma(x)
        )
        for scheme in ALL_SCHEMES:
            keys.clear()
            gammas.clear()
            weights = CaputoWeights(scheme, alpha)
            for n in nodes:
                got, (value, size) = weights.value(g, vals, n), want[scheme, n]
                assert abs(got - value) <= _fold_bound(got, value, size), (scheme.label, n)
            assert Counter(keys) == _expected_keys(scheme, nodes), scheme.label
            assert len(gammas) == len(nodes)

    @pytest.mark.parametrize(
        "scheme,alpha,n,seed",
        [(SchemeKind.l1(), 0.9744001663350091, 4, 28717), (SchemeKind.lk(4), 0.8662136002295102, 32, 55797)],
        ids=["L1", "L1-2-3-4"],
    )
    def test_fold_may_exceed_eps_size(self, scheme, alpha, n, seed):
        """Cases from a random search (80-step grid, uniform(-1, 1) node
        values) where the two routes differ by more than eps sum|u w|
        (1.73 and 1.72 times it), inside ``_fold_bound``."""
        g = UniformGrid(horizon=1.0, steps=80)
        rng = random.Random(seed)
        vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
        got = CaputoWeights(scheme, alpha).value(g, vals, n)
        value, size = _per_interval_value(scheme, g, vals, n, alpha)
        assert _EPS * size < abs(got - value) <= _fold_bound(got, value, size)

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(3)], ids=lambda s: s.label
    )
    def test_interior_cell_fills_each_lag_once(self, monkeypatch, scheme):
        """The three grids of an interior cell, nodes n, 2n and 4n, share
        one CaputoWeights: the 4n steady lags are evaluated once, plus at
        most k + 1 seam lags per node (not the 7n of three separate
        evaluations), and each grid's own startup or final intervals, once
        per node."""
        keys = _record_moment_keys(monkeypatch)
        f = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        order_interior(scheme, f, 0.5, 2.0**-5)
        n = 16
        assert Counter(keys) == _expected_keys(scheme, (n, 2 * n, 4 * n))
        edges = sum(1 for key in keys if key[:2] != _steady(scheme))
        assert len(keys) - edges <= 4 * n + 3 * (scheme.degree + 1)


class TestFoldedRow:
    """The steady run of a node is one product per node value: the row
    entry c(m), the weight of u^(n-m), is the fsum of the column entries
    l = 0..min(k, m) of the steady stencil on that node value; for L2, c(m)
    takes in the final interval's entry on u^(n-m) too, m <= 2."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
    def test_each_entry_is_the_fsum_of_the_columns_it_folds(self, scheme):
        """Bit for bit, however the row grew: from steady runs of fewer than
        k + 1 intervals (n = k, k + 1), one node at a time, in jumps and
        after a deeper node."""
        g = UniformGrid(horizon=1.0, steps=64)
        vals = [math.sin(3.0 * g.time(i)) for i in range(g.steps + 1)]
        asked = (scheme.degree, scheme.degree + 1, scheme.degree + 2, 2 * scheme.degree + 5, 40, 17, 64)
        for alpha in (0.05, 0.5, 0.95):
            weights = CaputoWeights(scheme, alpha)
            for n in asked:
                weights.value(g, vals, n)
            assert len(weights._store[0]) == 64 - weights._lo + 1
            _check_store(scheme, alpha, weights, set(asked))


def _check_store(scheme, alpha, weights, asked):
    """Every weight ``weights`` keeps against the fsum of the per-interval
    column entries on its node value (``_entries_on``): the head entries
    of each asked node, and each row entry c(m) at the shallowest and the
    deepest node asked that reads it, at every node for m <= k, where L2's
    final interval lands.  Nodes never asked keep no head."""
    lo = weights._lo
    row, heads = weights._store
    for n in range(len(heads) // lo):
        head = heads[n * lo : n * lo + min(n + 1, lo)]
        if n not in asked:
            assert all(map(math.isnan, head)), n
            continue
        want = [math.fsum(_entries_on(scheme, n, i, alpha)) for i in range(len(head))]
        assert list(head) == want, n
    deepest = max(asked)
    for m, c in enumerate(row):
        nodes = range(lo + m, deepest + 1) if m <= scheme.degree else (lo + m, deepest)
        for n in nodes:
            assert c == math.fsum(_entries_on(scheme, n, n - m, alpha)), (m, n)


def _entries_on(scheme, n, i, alpha):
    """The column entries on u^i at node n, one ``_columns`` call per
    interval: entry l of every interval j whose stencil holds node
    i = j + offset - l."""
    entries = []
    for degree, offset, first, last in _runs(scheme, n):
        for l in range(degree + 1):
            if first <= i + l - offset <= last:
                col = caputo_lk.schemes._columns(degree, offset, (n - i - l + offset,), alpha)[l]
                entries.extend(col)
    return entries


class TestNodeWeights:
    """Node n is sum_i W(n, i) u^i, one weight per node value: row entry
    c(n - i) for i >= h = min(n + 1, lo), and below h entry i of the head
    kept for node n, computed the first time node n is asked for."""

    def test_each_weight_is_the_fsum_of_the_column_entries_on_its_node(self):
        """Nodes asked in any order, one at a time and in jumps: every head
        entry and every row entry is the fsum of the per-interval column
        entries on its node value (``_check_store``)."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            asks=st.lists(st.tuples(st.integers(1, 64), st.integers(1, 6)), min_size=1, max_size=5),
        )
        def check(scheme, alpha, asks):
            g = UniformGrid(horizon=1.0, steps=64)
            vals = [math.sin(3.0 * g.time(i)) for i in range(65)]
            weights = CaputoWeights(scheme, alpha)
            asked = set()
            for start, count in asks:
                for n in range(start, min(start + count, 65)):
                    weights.value(g, vals, n)
                    asked.add(n)
            _check_store(scheme, alpha, weights, asked)

        check()

    def test_second_pass_evaluates_no_column(self, monkeypatch):
        """A node's head is kept from its first evaluation, so a second
        pass over nodes 1..64 of every scheme makes no ``_columns`` call
        and gives the first pass's values bit for bit."""
        keys = _record_moment_keys(monkeypatch)
        g = UniformGrid(horizon=1.0, steps=64)
        vals = [math.sin(3.0 * g.time(i)) for i in range(65)]
        for scheme in ALL_SCHEMES:
            weights = CaputoWeights(scheme, 0.45)
            first = [weights.value(g, vals, n) for n in range(1, 65)]
            assert Counter(keys) == _expected_keys(scheme, range(1, 65)), scheme.label
            keys.clear()
            assert [weights.value(g, vals, n) for n in range(1, 65)] == first
            assert keys == [], scheme.label

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
    def test_fill_order_leaves_the_same_weights(self, scheme):
        """Nodes 1..64 asked ascending, descending, and 64 first and then
        the rest give the same node values and keep the same row and heads,
        bit for bit, whichever seam lags each fill evaluated."""
        g = UniformGrid(horizon=1.0, steps=64)
        vals = [math.sin(3.0 * g.time(i)) for i in range(65)]
        orders = (range(1, 65), range(64, 0, -1), (64, *range(1, 64)))
        for alpha in (0.05, 0.95):
            kept = set()
            for order in orders:
                weights = CaputoWeights(scheme, alpha)
                values = {n: weights.value(g, vals, n).hex() for n in order}
                row, heads = weights._store
                size = 65 * weights._lo
                assert all(map(math.isnan, heads[size:]))
                kept.add((tuple(sorted(values.items())), tuple(row), heads[:size].tobytes()))
            assert len(kept) == 1, alpha

    @pytest.mark.parametrize("scheme", [SchemeKind.l1(), SchemeKind.l2(), SchemeKind.lk(6)], ids=lambda s: s.label)
    def test_heads_grow_geometrically(self, scheme):
        """4096 nodes asked in turn copy the heads O(log n) times (61 to 64
        measured): each copy grows them by an eighth at least, not by the
        one node asked."""
        weights = CaputoWeights(scheme, 0.4)
        copies = 0
        for n in range(1, 4097):
            heads = weights._store[1]
            weights._fill(n)
            copies += weights._store[1] is not heads
        assert copies <= 100

    def test_heads_retain_about_eight_bytes_per_weight(self):
        """L1-...-6 asked for every node 1..2^10: the row retains 32 B per
        lag (a list of floats), and the heads no more than 8 h B per node
        with room for a quarter more, h = 6.  79 B per node in all
        measured; keeping the k + 1 steady columns besides the row measured
        136.  A full garbage collection empties the interpreter's free
        lists, whose objects would count as retained."""
        n_max = 2**10
        scheme = SchemeKind.lk(6)
        # the column series of every startup degree, cached per alpha
        CaputoWeights(scheme, 0.4).value(UniformGrid(horizon=1.0, steps=20), [0.0] * 21, 20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            weights = CaputoWeights(scheme, 0.4)
            # what a node's first evaluation keeps, without tracing the
            # products of every evaluation
            for n in range(1, n_max + 1):
                weights._fill(n)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert weights._lo == 6
        assert retained <= n_max * (32 + 1.25 * 8 * 6), retained / n_max


class TestSharedWeights:
    """discrete_caputo reads one CaputoWeights per (scheme, alpha) from a
    bounded cache, so a later call evaluates only the steady lags no
    earlier call at that (scheme, alpha) reached."""

    def test_later_call_fills_only_new_lags(self, monkeypatch):
        keys = _record_moment_keys(monkeypatch)
        g = UniformGrid(horizon=1.0, steps=40)
        vals = [math.cos(2.0 * g.time(i)) for i in range(41)]
        for scheme in ALL_SCHEMES:
            discrete_caputo(scheme, g, vals, 17, 0.45)
            keys.clear()
            got = discrete_caputo(scheme, g, vals, 40, 0.45).value
            new = _expected_keys(scheme, (17, 40)) - _expected_keys(scheme, (17,))
            assert Counter(keys) == new, scheme.label
            assert got == CaputoWeights(scheme, 0.45).value(g, vals, 40)

    def test_seventeenth_pair_evicts_the_first(self, monkeypatch):
        keys = _record_moment_keys(monkeypatch)
        g = UniformGrid(horizon=1.0, steps=8)
        alphas = [0.05 * i + 0.05 for i in range(17)]
        for alpha in alphas:
            discrete_caputo(SchemeKind.l1(), g, lambda t: t * t, 8, alpha)
        keys.clear()
        discrete_caputo(SchemeKind.l1(), g, lambda t: t * t, 8, alphas[1])
        assert keys == []
        discrete_caputo(SchemeKind.l1(), g, lambda t: t * t, 8, alphas[0])
        assert keys == [(1, 0, lag) for lag in range(8)]

    def test_repeated_measurement_fills_no_steady_lag(self, monkeypatch):
        """The harness reads these shared objects too, so a second
        order_interior at the same (scheme, alpha, tau) evaluates no column:
        its nodes' steady lags and heads are all kept."""
        keys = _record_moment_keys(monkeypatch)
        f = HolderTestFunction(m=1, beta=0.5, xi=0.5)
        for scheme in (SchemeKind.l2(), SchemeKind.l12(), SchemeKind.lk(3)):
            first = order_interior(scheme, f, 0.3, 2.0**-5)
            assert any(key[:2] == _steady(scheme) for key in keys)
            keys.clear()
            assert order_interior(scheme, f, 0.3, 2.0**-5) == first
            assert keys == [], scheme.label

    def test_second_round_of_the_studies_fills_no_steady_lag(self, monkeypatch):
        """The four built-in studies use 14 (scheme, alpha) pairs, which the
        cache holds at once, so a second round in the same process asks
        only for nodes the first round asked for, and evaluates no column."""
        keys = _record_moment_keys(monkeypatch)
        nodes = []
        original = caputo_lk.harness.discrete_caputo

        def recorded(scheme, grid, u, n, alpha):
            nodes.append((scheme, n))
            return original(scheme, grid, u, n, alpha)

        monkeypatch.setattr(caputo_lk.harness, "discrete_caputo", recorded)
        first = [reproduce_table(i) for i in (1, 2, 3, 4)]
        assert caputo_lk.schemes._shared_weights.cache_info().currsize == 14
        keys.clear()
        nodes.clear()
        assert [reproduce_table(i) for i in (1, 2, 3, 4)] == first
        assert nodes and keys == []

    def test_both_spellings_share_one_entry(self):
        """l1() and lk(1), like l12() and lk(2), key one cached object."""
        caputo_lk.schemes._shared_weights.cache_clear()
        g = UniformGrid(horizon=1.0, steps=8)
        for scheme in (SchemeKind.l1(), SchemeKind.lk(1), SchemeKind.l12(), SchemeKind.lk(2)):
            discrete_caputo(scheme, g, lambda t: t * t, 8, 0.35)
        assert caputo_lk.schemes._shared_weights.cache_info().currsize == 2

    def test_refused_call_leaves_the_cached_weights_intact(self):
        caputo_lk.schemes._shared_weights.cache_clear()
        g = UniformGrid(horizon=1.0, steps=12)
        vals = [math.sin(3.0 * g.time(i)) for i in range(13)]
        for scheme in (SchemeKind.l2(), SchemeKind.lk(4)):
            discrete_caputo(scheme, g, vals, 6, 0.6)
            with pytest.raises(ValueError, match="not finite"):
                discrete_caputo(scheme, g, vals[:9] + [math.nan] + vals[10:], 12, 0.6)
            with pytest.raises(ValueError):
                discrete_caputo(scheme, g, vals + [0.0], 13, 0.6)
            with pytest.raises(ValueError):
                discrete_caputo(scheme, g, vals, 12, 1.0)
            fresh = CaputoWeights(scheme, 0.6)
            for n in (12, 3, 6, 1):
                assert discrete_caputo(scheme, g, vals, n, 0.6).value == fresh.value(g, vals, n)
        assert caputo_lk.schemes._shared_weights.cache_info().currsize == 2

    def test_threads_share_one_object_bit_for_bit(self):
        """Four threads ask the same two objects for nodes 1..400 in their
        own orders under a short switch interval.  Extending the steady
        columns in place raced (a thread read the length another was still
        extending, shifting every later lag); a copy published in one
        assignment does not."""
        caputo_lk.schemes._shared_weights.cache_clear()
        g = UniformGrid(horizon=1.0, steps=400)
        vals = [math.sin(5.0 * g.time(i)) + g.time(i) ** 1.5 for i in range(401)]
        pairs = [(SchemeKind.lk(6), 0.35), (SchemeKind.l2(), 0.65)]
        want = {(s, a, n): CaputoWeights(s, a).value(g, vals, n) for s, a in pairs for n in range(1, 401)}
        barrier = threading.Barrier(4, timeout=60.0)
        wrong, done = [], []

        def work(seed):
            order = [(s, a, n) for s, a in pairs for n in range(1, 401)]
            random.Random(seed).shuffle(order)
            barrier.wait()
            for s, a, n in order:
                if discrete_caputo(s, g, vals, n, a).value != want[s, a, n]:
                    wrong.append((s.label, a, n))
            done.append(seed)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3]
        assert wrong == []


def _record_moment_keys(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch the column function to record each column evaluation as
    (degree, offset, lag), with the cache of shared objects emptied so the
    count does not depend on the calls of earlier tests."""
    caputo_lk.schemes._shared_weights.cache_clear()
    keys = []
    core = caputo_lk.schemes._columns

    def recorded(degree, offset, lags, al):
        keys.extend((degree, offset, lag) for lag in lags)
        return core(degree, offset, lags, al)

    monkeypatch.setattr(caputo_lk.schemes, "_columns", recorded)
    return keys


def _steady(scheme) -> tuple[int, int]:
    """(degree, offset) of the run of ``_runs`` that grows with n."""
    return (2, 1) if scheme == SchemeKind.l2() else (scheme.degree, 0)


def _expected_keys(scheme, nodes) -> Counter:
    """The (degree, offset, lag) one CaputoWeights evaluates for these node
    evaluations, with multiplicity.  A node's first evaluation evaluates
    each interval j whose stencil reaches a node value u^i, i <= top, that
    no weight kept covers yet: i < min(n + 1, lo) for its head, and
    i <= n - len(row) below the row, whose entries c(0..n - lo) it then
    keeps (lo = 2 for L2, k for Lk).  A repeat evaluates none."""
    lo = 2 if scheme == SchemeKind.l2() else scheme.degree
    keys, rows = Counter(), 0
    for n in dict.fromkeys(nodes):
        top = max(min(n + 1, lo) - 1, n - rows)
        for degree, offset, first, last in _runs(scheme, n):
            keys.update((degree, offset, n - j) for j in range(first, last + 1) if j + offset - degree <= top)
        rows = max(rows, n - lo + 1)
    return keys


def _per_interval_products(scheme, vals, n, alpha):
    """The products u^(j+offset-l) w_l(n - j) of node n, from one column
    evaluation per interval."""
    products = []
    for degree, offset, first, last in _runs(scheme, n):
        for j in range(first, last + 1):
            col = caputo_lk.schemes._columns(degree, offset, (n - j,), alpha)
            products.extend(vals[j + offset - l] * w for l, (w,) in enumerate(col))
    return products


def _per_interval_value(scheme, grid, vals, n, alpha):
    """The node value from ``_per_interval_products``, no column shared
    between intervals or nodes, and the products' size sum|u w|, both
    times the scale tau^-alpha / Gamma(1 - alpha)."""
    products = _per_interval_products(scheme, vals, n, alpha)
    sums = (math.fsum(products), math.fsum(map(abs, products)))
    return tuple(x * grid.tau ** (-alpha) / math.gamma(1.0 - alpha) for x in sums)


_EPS = 2.0**-52


def _fold_bound(got, value, size):
    """How far the folded route's ``got`` may lie from the per-interval
    ``value`` of size ``size`` (both from ``_per_interval_value``):
    1.5 eps (size + |got| + |value|), times 1 + 8 eps.

    Both routes take the same float node values u and column entries w,
    so with S the exact sum of the exact products, A = sum|u w|, s the
    exact scale and unit roundoff r = eps/2, to first order in r:
    * per interval, each product rounds once and the fsum once:
      |P - S| <= r A + r |P|;
    * folded, each weight (a row entry c(m) or a head entry, the fsum of
      the column entries on one node value) rounds once, and so does its
      product, then the fsum: |F - S| <= 2r A + r |F|;
    * each route then multiplies its sum by tau^-alpha and divides by
      Gamma(1 - alpha), two roundings: |F' - s F| <= 2r s |F|, as for P.
    So |F' - P'| <= 3r s (A + |F| + |P|), at most 9r s A.  The r^2 terms,
    and the dozen roundings by which |got|, |value| and size stand in for
    s|F|, s|P| and s A and this bound is evaluated, each move it by a
    relative r at most; the factor 1 + 8 eps covers them."""
    return 1.5 * _EPS * (1.0 + 8.0 * _EPS) * (size + abs(got) + abs(value))


def _basis_derivative(degree, offset, l):
    """Exact coefficients of sigma^p in L_l'(sigma), the derivative of the
    Lagrange basis polynomial of stencil node anchor - l, anchor = 1 + offset,
    on the window [0, 1] of ``_columns``."""
    anchor = 1 + offset
    poly = [Fraction(1)]
    for m in range(degree + 1):
        if m != l:
            # times (sigma - (anchor - m)) / (m - l)
            nxt = [Fraction(0)] * (len(poly) + 1)
            for r, cr in enumerate(poly):
                nxt[r + 1] += cr / (m - l)
                nxt[r] -= cr * (anchor - m) / (m - l)
            poly = nxt
    return [r * poly[r] for r in range(1, len(poly))]


def _reference_moments(mpmath, alpha, lags):
    """int_0^1 (lag+1-sigma)^-alpha sigma^p dsigma for p = 0..5 at each lag,
    as mpf at the caller's precision, by the binomial closed form in
    w = lag + 1 - sigma.  Its cancellation costs about lag^p, so 60 digits
    keep 40 at lag 2^14."""
    al = mpmath.mpf(alpha)
    out = {}
    for lag in lags:
        hi = lag + 1
        hi_pow, lo_pow = mpmath.mpf(hi) ** -al, mpmath.mpf(lag) ** -al if lag else 0
        # int_lag^(lag+1) w^(i-alpha) dw, i = 0..5
        f = [(hi_pow * hi ** (i + 1) - lo_pow * lag ** (i + 1)) / (i + 1 - al) for i in range(6)]
        out[lag] = [
            mpmath.fsum(math.comb(p, i) * hi ** (p - i) * (-1) ** i * f[i] for i in range(p + 1))
            for p in range(6)
        ]
    return out


def _exact_node_value(mpmath, ref, scheme, grid, vals, n, alpha):
    """The discrete operator at node n on these float node values, as a
    60-digit mpf from the moments ``ref`` of ``_reference_moments`` at lags
    0..n-1: the sum over intervals j and degrees p of M_p(n - j) times the
    exact integer den 2^shift sum_l L_l'[p] u^(j+offset-l)."""
    # the node values exactly, as integers over 2^shift
    ratios = [v.as_integer_ratio() for v in vals[: n + 1]]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (shift - den.bit_length() + 1) for num, den in ratios]
    runs = [(run, [_basis_derivative(*run[:2], l) for l in range(run[0] + 1)]) for run in _runs(scheme, n)]
    den = math.lcm(*(c.denominator for _, coef in runs for row in coef for c in row))
    moments, weights = [], []
    for (degree, offset, first, last), coef in runs:
        by_degree = [[int(row[p] * den) for row in coef] for p in range(degree)]
        for j in range(first, last + 1):
            window = ints[j + offset - degree : j + offset + 1][::-1]
            moments.extend(ref[n - j][:degree])
            weights.extend(sum(map(operator.mul, c, window)) for c in by_degree)
    with mpmath.workdps(60):
        scale = mpmath.mpf(grid.tau) ** -alpha / mpmath.gamma(1 - mpmath.mpf(alpha))
        return mpmath.fdot(moments, weights) * scale / (den << shift)


# the (degree, offset) of every column set the engine evaluates; each
# scheme's startup and final sets are the steady set of another
_COLUMN_SETS = sorted({run[:2] for s in ALL_SCHEMES for run in _runs(s, 2 * s.degree + 2)})


def _check_columns(lags):
    """Every column set at these lags, for alpha 0.05, 0.5 and 0.95,
    against the 60-digit closed form: 5e-15 relative, flat."""
    mpmath = pytest.importorskip("mpmath")
    for alpha in (0.05, 0.5, 0.95):
        with mpmath.workdps(60):
            ref = _reference_moments(mpmath, alpha, lags)
        for degree, offset in _COLUMN_SETS:
            cols = caputo_lk.schemes._columns(degree, offset, lags, alpha)
            for l, col in enumerate(cols):
                coef = _basis_derivative(degree, offset, l)
                for lag, got in zip(lags, col):
                    with mpmath.workdps(60):
                        want = mpmath.fsum(mpmath.mpf(cp.numerator) / cp.denominator * m for cp, m in zip(coef, ref[lag]))
                        rel = float(abs(got - want) / abs(want))
                    assert rel <= 5e-15, (degree, offset, alpha, l, lag, rel)


class TestColumnPrecision:
    """Column entries w_l(lag) = int_0^1 (lag+1-sigma)^-alpha L_l'(sigma)
    dsigma of every column set against a 60-digit evaluation.  The series
    about the window's midpoint has an exact leading coefficient (0 or +-1),
    so no column cancels: every entry stays within a flat 5e-15 relative
    (at most 1.1e-15 measured), where the fold of moments it replaced lost
    digits like lag * eps (2.0e-9 near lag 2^14)."""

    def test_columns_against_mpmath_at_near_lags(self):
        _check_columns((1, 2, 3, 10, 100, 1000))

    def test_steady_columns_against_mpmath_at_fine_lags(self):
        _check_columns((2**12 - 3, 2**12, 2**13 - 1, 2**13 + 5, 2**14 - 2, 2**14))

    def test_node_values_against_60_digits(self):
        """All seven schemes at node N = 1024 of u = t^4.2 on [0, 1], alpha
        0.1, 0.5 and 0.9, against the same discrete operator evaluated at 60
        digits on the same float node values.  The error stays within eps
        times the products' scale sum |u w| (0.21 of it measured; the fold of
        moments these columns replaced reached 2.0).  That scale is the
        floor: eps sum|u w| / |value| reaches 7.6e-13 for k = 6 at alpha
        0.9, whose error is 2.1e-13, against 2.5e-15 at alpha 0.1."""
        mpmath = pytest.importorskip("mpmath")
        eps = 2.0**-52
        n = 1024
        g = UniformGrid(horizon=1.0, steps=n)
        vals = [g.time(i) ** 4.2 for i in range(n + 1)]
        for alpha in (0.1, 0.5, 0.9):
            with mpmath.workdps(60):
                ref = _reference_moments(mpmath, alpha, range(n))
                scale = mpmath.mpf(g.tau) ** -alpha / mpmath.gamma(1 - mpmath.mpf(alpha))
            for scheme in ALL_SCHEMES:
                got = discrete_caputo(scheme, g, vals, n, alpha).value
                size = math.fsum(map(abs, _per_interval_products(scheme, vals, n, alpha)))
                want = _exact_node_value(mpmath, ref, scheme, g, vals, n, alpha)
                with mpmath.workdps(60):
                    err = float(abs(got - want))
                bound = eps * size * float(scale)
                assert err <= bound, (scheme.label, alpha, err / abs(got), bound / abs(got))

    def test_first_node_reference_against_60_digits(self):
        """The 128-fold reference of ``first-node --scheme l2 --alpha 0.5
        --beta 0.5 --tau-exp 20`` (node 128 of the steps 2^-27 and 2^-28)
        against 60 digits on the same node values: both stay within eps
        sum|u w|, and one weight per node value is nearer than one product
        per column entry, 6.8e-14 against 2.71e-13 and 3.77e-13 against
        5.36e-13.  So is the error it prints, 4.643148e-10 against
        4.646538e-10 for the exact 4.643830e-10 (and 1.643641e-10 against
        1.642053e-10 for 1.647411e-10 at tau = 2^-21): its R = 1.4982 is
        nearer the exact 1.4951 than the 1.5007 the per-column route
        printed."""
        mpmath = pytest.importorskip("mpmath")
        f = HolderTestFunction(m=2, beta=0.5, xi=0.5)
        scheme, alpha = SchemeKind.l2(), 0.5
        with mpmath.workdps(60):
            ref = _reference_moments(mpmath, alpha, range(128))
        weights = CaputoWeights(scheme, alpha)
        for tau in (2.0**-20, 2.0**-21):
            nodes = []
            for g, n in ((UniformGrid(horizon=1.0, steps=round(1.0 / tau)), 1),
                         (UniformGrid(horizon=1.0, steps=round(128.0 / tau)), 128)):
                vals = [f(g.time(i)) for i in range(n + 1)]
                value, size = _per_interval_value(scheme, g, vals, n, alpha)
                bound = _EPS * size
                nodes.append((weights.value(g, vals, n), value,
                              _exact_node_value(mpmath, ref, scheme, g, vals, n, alpha)))
            (coarse, coarse_per_column, coarse_exact), (fine, fine_per_column, fine_exact) = nodes
            assert coarse == coarse_per_column
            with mpmath.workdps(60):
                assert abs(fine - fine_exact) <= bound
                assert abs(fine_per_column - fine_exact) <= bound
                assert abs(fine - fine_exact) < abs(fine_per_column - fine_exact)
                exact = abs(coarse_exact - fine_exact)
                assert abs(abs(coarse - fine) - exact) < abs(abs(coarse - fine_per_column) - exact)


def _property_tools():
    """hypothesis, its strategies and the settings every property here
    shares: derandomized, no example database, a few dozen examples.
    Skips the calling test when hypothesis is not installed."""
    hp = pytest.importorskip("hypothesis")
    settings = hp.settings(derandomize=True, max_examples=25, deadline=None, database=None)
    return hp, hp.strategies, settings


# the step shared by every property grid; dyadic, so node times are exact
_TAU = 2.0**-6


def _grid(n):
    return UniformGrid(horizon=n * _TAU, steps=n)


class TestProperties:
    """Properties of discrete_caputo over random alpha, n <= 64 and all
    seven schemes.  Rounding in the value grows like tau^-alpha times the
    node count, which sets the absolute slack below."""

    def test_linear_in_node_values(self):
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            coeffs=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
            data=st.data(),
        )
        def check(scheme, alpha, coeffs, data):
            n = data.draw(st.integers(1, 64))
            nodes = st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)
            u, v = data.draw(nodes), data.draw(nodes)
            a, b = coeffs
            g = _grid(n)
            combined = [a * x + b * y for x, y in zip(u, v)]
            mixed = discrete_caputo(scheme, g, combined, n, alpha).value
            du = discrete_caputo(scheme, g, u, n, alpha).value
            dv = discrete_caputo(scheme, g, v, n, alpha).value
            slack = 1e-13 * (abs(a) + abs(b)) * n * _TAU**-alpha
            assert mixed == pytest.approx(a * du + b * dv, rel=1e-12, abs=slack)

        check()

    def test_exact_on_the_smallest_piece_degree(self):
        """Every layout reproduces polynomials up to the degree of its
        lowest-degree piece: linear ones for L1, L1-2 and Lk, whose first
        piece is linear, and quadratics for L2 from n = 2 on."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            n=st.integers(1, 64),
            coeffs=st.tuples(*(st.floats(-2.0, 2.0) for _ in range(3))),
        )
        def check(scheme, alpha, n, coeffs):
            degree = 2 if scheme == SchemeKind.l2() and n >= 2 else 1
            c = coeffs[: degree + 1]
            g = _grid(n)
            values = [
                math.fsum(ci * g.time(i) ** p for p, ci in enumerate(c)) for i in range(n + 1)
            ]
            got = discrete_caputo(scheme, g, values, n, alpha).value
            t_n = g.time(n)
            parts = [ci * exact_caputo_monomial(p, t_n, alpha) for p, ci in enumerate(c)]
            slack = 1e-13 * sum(map(abs, c)) * n * _TAU**-alpha
            assert got == pytest.approx(math.fsum(parts), rel=1e-10, abs=slack)

        check()

    def test_shift_invariance(self):
        """Values that vanish on nodes 0..k (k the scheme degree) never meet
        a startup piece, so prepending m zeros on the same grid moves the
        value from node n to node n + m bit for bit.  The grid's step is
        usually not dyadic."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            m=st.integers(1, 16),
            data=st.data(),
        )
        def check(scheme, alpha, m, data):
            k = scheme.degree
            n = data.draw(st.integers(k + 1, 48))
            tail = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n - k, max_size=n - k))
            values = [0.0] * (k + 1) + tail
            g = UniformGrid(horizon=1.0, steps=data.draw(st.integers(n + m, n + m + 16)))
            here = discrete_caputo(scheme, g, values, n, alpha).value
            shifted = discrete_caputo(scheme, g, [0.0] * m + values, n + m, alpha).value
            assert shifted == here

        check()

    def test_shared_weights_match_one_shot(self):
        """One CaputoWeights asked for nodes on grids of several steps, in
        any order, gives every value bit for bit as a fresh discrete_caputo,
        and within ``_fold_bound`` of one column evaluation per interval."""
        hp, st, settings = _property_tools()

        @settings
        @hp.given(
            scheme=st.sampled_from(ALL_SCHEMES),
            alpha=st.floats(0.01, 0.99),
            requests=st.lists(
                st.tuples(st.integers(1, 64), st.integers(0, 63)), min_size=1, max_size=6
            ),
            seed=st.integers(0, 2**16),
        )
        def check(scheme, alpha, requests, seed):
            rng = random.Random(seed)
            weights = CaputoWeights(scheme, alpha)
            for steps, back in requests:
                g = UniformGrid(horizon=1.0, steps=steps)
                n = steps - back % steps
                values = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
                got = weights.value(g, values, n)
                assert got == discrete_caputo(scheme, g, values, n, alpha).value
                value, size = _per_interval_value(scheme, g, values, n, alpha)
                assert abs(got - value) <= _fold_bound(got, value, size)

        check()
