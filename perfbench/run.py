#!/usr/bin/env python3
"""Benchmark of caputo-lk: studies, trajectories and oracle cross-checks.

Run from the repository root:

    python3 perfbench/run.py --workload studies --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``studies``, ``trajectory``,
``crosscheck``.  Each is a closed loop with one caller in this one
process; the seed fixes the operation list.  The list is run in full
passes until ``--seconds`` have elapsed (at least one pass).  The host
probe of ``probe.py`` runs before every operation and after it; an
operation's cost in ``ref`` is its time divided by the mean of the two
probes around it.  Every timing that a later change is judged on is in
``ref``; raw seconds go to the diagnostics line.

Outputs are checked after the passes, outside the timed region.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics (Python
version, core count, git SHA, raw seconds, sample counts, and in a traced
run the span breakdown).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced pass.  The metric
definitions and the layer-to-end-to-end map are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "caputo_lk"
WORKLOADS = ("studies", "trajectory", "crosscheck")

# setup_s is the median of this many fresh interpreters, launched at even
# intervals across the timed passes (between two operations, never inside
# one), so that one slow stretch of the host does not cover them all.  One
# more launch before the passes compiles bytecode and is not counted.
SETUP_LAUNCHES = 21
_CHILD_TIMEOUT_S = 120


def import_package():
    """Import ``caputo_lk`` from this checkout's ``src``, or exit non-zero."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at {PACKAGE}")
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    import caputo_lk

    if Path(caputo_lk.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"run.py: imported caputo_lk from {caputo_lk.__file__}, not {PACKAGE}")
    return caputo_lk


def _setup_child(workload: str, seed: int) -> None:
    # Timed: the package import plus input generation.
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.build(workload, seed)
    print(repr(time.perf_counter() - t0))


class SetupSampler:
    """Times set-up in fresh interpreters, spread evenly over ``seconds``.

    Constructing it makes one uncounted launch, which compiles bytecode.
    """

    def __init__(self, workload: str, seed: int, launches: int, seconds: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)]
        self.launches = launches
        self.interval = seconds / launches
        # bytecode is written (to __pycache__ in the checkout) even where the
        # caller's environment turns that off, so every counted launch reads it
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.samples: list[float] = []
        self._launch()
        self.start = time.perf_counter()

    def _launch(self) -> float:
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=_CHILD_TIMEOUT_S, check=True)
        return float(proc.stdout.split()[-1])

    def __call__(self) -> bool:
        """Launch once if a launch is due; True when one ran."""
        k = len(self.samples)
        if k >= self.launches or time.perf_counter() - self.start < (k + 0.5) * self.interval:
            return False
        self.samples.append(self._launch())
        return True

    def finish(self) -> list[float]:
        while len(self.samples) < self.launches:
            self.samples.append(self._launch())
        return self.samples


@dataclass
class Pass:
    """One full pass over the operation list."""

    op_s: list[float]
    ref_s: list[float]  # per operation: mean of the probes just before and after it
    probe_s: list[float]  # every probe, in order
    outputs: list

    def op_ref(self) -> list[float]:
        return [t / r for t, r in zip(self.op_s, self.ref_s)]

    def unit_ref(self) -> float:
        return sum(self.op_ref())


def run_pass(ops, between=None) -> Pass:
    """Time every operation between two probes.

    ``between`` runs between operations; when it reports that it did work,
    a fresh probe is taken before the next operation.
    """
    clock = time.perf_counter
    probes = [probe()]
    times, refs, outputs = [], [], []
    for op in ops:
        if between is not None and between():
            probes.append(probe())
        t0 = clock()
        out = op.call()
        times.append(clock() - t0)
        outputs.append(out)
        probes.append(probe())
        refs.append(0.5 * (probes[-2] + probes[-1]))
    return Pass(times, refs, probes, outputs)


def run_passes(ops, budget_s: float, between=None) -> list[Pass]:
    """Full passes until budget_s has elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, between))
        if time.perf_counter() - start >= budget_s:
            return passes


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _per_op(passes: list[Pass], field) -> list[float]:
    rows = [field(p) for p in passes]
    return [statistics.median(col) for col in zip(*rows)]


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _layer_metrics(tracer, traced: Pass, untraced: list[Pass]) -> dict:
    ref = statistics.median(traced.probe_s)
    calls, self_s = tracer.calls, tracer.self_s

    def ratio(a, b):
        return a / b if b else 0.0

    def node_ref(n):
        xs = tracer.node_s.get(n)
        return statistics.median(xs) / ref if xs else 0.0

    cells = calls["order_interior"] + calls["order_first_node"]
    nodes = calls["discrete_caputo"]
    pieces = calls["caputo_of_piece"]
    moments = calls["kernel_moment"]
    oracle_calls = calls["quad_caputo_piecewise"] + calls["quad_caputo_integrated"]
    oracle_evals = calls["oracle.piece_derivative"] + calls["oracle.interpolant"]
    probes_ms = [1e3 * x for p in untraced for x in p.probe_s]
    q1, q2, q3 = statistics.quantiles(probes_ms, n=4)
    wall_op = _per_op(untraced, lambda p: p.op_s)
    untraced_unit = sum(_per_op(untraced, Pass.op_ref))
    return {
        "harness.cells": (cells, "count"),
        "harness.grids_per_cell": (ratio(calls["scheme_value"], cells), "grids/cell"),
        "harness.self_ref": (self_s["harness"] / ref, "ref"),
        "schemes.nodes": (nodes, "count"),
        "schemes.self_ref": (self_s["schemes"] / ref, "ref"),
        "schemes.ref_per_piece": (ratio(tracer.total_s["discrete_caputo"] / ref, pieces), "ref/piece"),
        "schemes.node_ref.n64": (node_ref(64), "ref"),
        "schemes.node_ref.n256": (node_ref(256), "ref"),
        "schemes.node_ref.nmax": (node_ref(max(tracer.node_s, default=0)), "ref"),
        "interp.pieces": (tracer.counts["interp.pieces"], "count"),
        "interp.pieces_per_node": (ratio(tracer.counts["interp.pieces"], calls["build_interpolant"]), "pieces/node"),
        "interp.self_ref": (self_s["interp"] / ref, "ref"),
        "special.moments": (moments, "count"),
        "special.moments_per_piece": (ratio(moments, pieces), "moments/piece"),
        "special.series_frac": (ratio(tracer.counts["special.series"], moments), "fraction"),
        "special.gamma_calls": (calls["gamma"], "count"),
        "special.self_ref": (self_s["special"] / ref, "ref"),
        "oracle.piecewise_calls": (calls["quad_caputo_piecewise"], "count"),
        "oracle.integrated_calls": (calls["quad_caputo_integrated"], "count"),
        "oracle.failures": (tracer.raised["quad_caputo_piecewise"] + tracer.raised["quad_caputo_integrated"], "count"),
        "oracle.u_evals_per_call": (ratio(oracle_evals, oracle_calls), "evals/call"),
        "oracle.self_ref": (self_s["oracle"] / ref, "ref"),
        "holder.u_evals": (calls["u"], "count"),
        "host.probe_ms.p25": (q1, "ms"),
        "host.probe_ms.p50": (q2, "ms"),
        "host.probe_ms.p75": (q3, "ms"),
        "wall.unit_s": (statistics.median(sum(p.op_s) for p in untraced), "s"),
        "wall.op_p50_ms": (1e3 * statistics.median(wall_op), "ms"),
        "wall.op_p90_ms": (1e3 * _p90(wall_op), "ms"),
        "trace.overhead_frac": (traced.unit_ref() / untraced_unit - 1.0, "fraction"),
    }


def _span_breakdown(tracer, traced: Pass) -> dict:
    ref = statistics.median(traced.probe_s)
    return {
        "span_calls": dict(sorted(tracer.calls.items())),
        "span_total_ref": {k: v / ref for k, v in sorted(tracer.total_s.items())},
        "self_ref_by_layer": {k: v / ref for k, v in sorted(tracer.self_s.items())},
        "edges": {f"{p} > {c}": n for (p, c), n in sorted(tracer.edges.items())},
        "outside_spans_frac": 1.0 - tracer.root_s / sum(traced.op_s),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            limit: int | None = None, setup_launches: int = SETUP_LAUNCHES) -> tuple[dict, dict]:
    """Run one benchmark measurement; returns (diagnostics, result)."""
    C = import_package()
    import workloads

    ops = workloads.build(workload, seed, limit)
    expected = workloads.load_expected(workload)
    check = workloads.checker(workload, expected)
    known = workloads.known_failures(expected)

    setup = []
    if trace:
        import spans

        passes = run_passes(ops, seconds / 2)
        with spans.installed(C) as tracer:
            # rebuilt under the wrappers, so input generation is counted too
            traced = run_pass(workloads.build(workload, seed, limit))
        checked = passes + [traced]
    else:
        sampler = SetupSampler(workload, seed, setup_launches, seconds)
        passes = run_passes(ops, seconds, sampler)
        setup = sampler.finish()
        checked = passes

    attempted = failed = 0
    failed_keys = set()
    for p in checked:
        for op, out in zip(ops, p.outputs):
            attempted += 1
            if not check(op, out):
                failed += 1
                failed_keys.add(op.key)
    unexpected = sorted(failed_keys - set(known))

    per_op_ref = _per_op(passes, Pass.op_ref)
    probes_ms = [1e3 * x for p in passes for x in p.probe_s]
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_samples": len(per_op_ref),
        "wall_unit_s": [sum(p.op_s) for p in passes],
        "unit_ref_per_pass": [p.unit_ref() for p in passes],
        "probe_ms_quartiles": statistics.quantiles(probes_ms, n=4),
        "setup_s_samples": setup,
        "failed_ops": sorted(failed_keys),
        "unexpected_failures": unexpected,
    }
    if trace:
        metrics = _layer_metrics(tracer, traced, passes)
        diagnostics.update(_span_breakdown(tracer, traced))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "unit_ref": (sum(per_op_ref), "ref"),
            "op_p50_ref": (statistics.median(per_op_ref), "ref"),
            "op_p90_ref": (_p90(per_op_ref), "ref"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return diagnostics, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        _setup_child(args.workload, args.seed)
        return 0
    diagnostics, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
