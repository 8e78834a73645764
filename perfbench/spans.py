"""Tracing for the benchmark's traced run: wrappers it installs, then removes.

Each wrapper replaces a name in the namespace of the module that calls it
(``caputo_lk.schemes.kernel_moment``, ``caputo_lk.harness.scheme_value``,
...) or, for the benchmark's own calls, on the package itself.  A span
wrapper records its duration and its parent, the span open when it was
entered; a layer's self time is its spans' durations minus the part their
child spans cover.  Spans are folded into per-layer totals as they close,
so memory stays flat however many there are.  Hot inner calls that run
thousands of times per operation get a counter without a span, and their
time stays with the span that called them.

The layers are the package's modules.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _takes_series(m) -> bool:
    # The branch rule of ``kernel_moment``, applied to its public arguments.
    w0 = m.t - m.c
    vmax = max(abs(m.a - m.c), abs(m.b - m.c))
    return m.a != m.b and w0 > 0.0 and w0 >= 2.0 * vmax


class Tracer:
    """Span stack, per-layer self times and counters of one traced run."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)  # layer -> self seconds
        self.total_s: defaultdict[str, float] = defaultdict(float)  # span -> inclusive seconds
        self.calls: Counter[str] = Counter()  # span or counter name -> calls
        self.edges: Counter[tuple[str, str]] = Counter()  # (parent, child) -> calls
        self.raised: Counter[str] = Counter()  # span -> exceptions passed through
        self.counts: Counter[str] = Counter()  # derived counts
        self.node_s: defaultdict[int, list[float]] = defaultdict(list)  # node -> seconds
        self.root_s = 0.0  # seconds inside spans that have no parent

    def span(self, layer: str, name: str, fn, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
                self.self_s[layer] += dur - frame[1]
                self.total_s[name] += dur
                self.calls[name] += 1
                self.edges[(parent, name)] += 1
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # hooks run after a span closes ------------------------------------

    def _after_node(self, args, kwargs, result, dur) -> None:
        self.node_s[args[3]].append(dur)  # discrete_caputo(scheme, grid, u, n, alpha)

    def _after_interpolant(self, args, kwargs, result, dur) -> None:
        self.counts["interp.pieces"] += len(result.pieces)

    def _after_moment(self, args, kwargs, result, dur) -> None:
        if _takes_series(args[0]):
            self.counts["special.series"] += 1

    def install(self, C) -> None:
        """Wrap the package ``C`` (the imported ``caputo_lk``)."""
        span, counter, patch = self.span, self.counter, self.patch
        # the benchmark's own call sites
        patch(C, "order_interior", lambda f: span("harness", "order_interior", f))
        patch(C, "order_first_node", lambda f: span("harness", "order_first_node", f))
        patch(C, "discrete_caputo", lambda f: span("schemes", "discrete_caputo", f, self._after_node))
        patch(C, "build_interpolant", lambda f: span("interp", "build_interpolant", f, self._after_interpolant))
        patch(C, "quad_caputo_piecewise", lambda f: span("oracle", "quad_caputo_piecewise", f))
        patch(C, "quad_caputo_integrated", lambda f: span("oracle", "quad_caputo_integrated", f))
        # calls between the package's modules
        patch(C.harness, "scheme_value", lambda f: span("harness", "scheme_value", f))
        patch(C.harness, "discrete_caputo", lambda f: span("schemes", "discrete_caputo", f, self._after_node))
        patch(C.schemes, "build_interpolant", lambda f: span("interp", "build_interpolant", f, self._after_interpolant))
        patch(C.schemes, "caputo_of_piece", lambda f: span("schemes", "caputo_of_piece", f))
        patch(C.schemes, "KernelMoment", lambda f: span("special", "KernelMoment", f))
        patch(C.schemes, "kernel_moment", lambda f: span("special", "kernel_moment", f, self._after_moment))
        patch(C.schemes, "gamma", lambda f: span("special", "gamma", f))
        patch(C.oracle, "gamma", lambda f: span("special", "gamma", f))
        patch(C.interp.LagrangePiece, "monomial_coefficients", lambda f: span("interp", "monomial_coefficients", f))
        patch(C.holder.HolderTestFunction, "__call__", lambda f: span("holder", "u", f))
        # integrand evaluations inside the oracle: counted, no span
        patch(C.oracle, "_piece_derivative", lambda f: counter("oracle.piece_derivative", f))
        patch(C.interp.PiecewisePolynomial, "__call__", lambda f: counter("oracle.interpolant", f))


@contextmanager
def installed(C):
    """Install a Tracer's wrappers on ``C`` for the duration of the block."""
    tracer = Tracer()
    try:
        tracer.install(C)
        yield tracer
    finally:
        tracer.uninstall()
