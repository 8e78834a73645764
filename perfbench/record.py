#!/usr/bin/env python3
"""Write the reference outputs in ``perfbench/expected/`` from the package.

Run from the repository root at the commit whose outputs are the
reference (the benchmark never runs this):

    python3 perfbench/record.py

* studies: every cell's measured R (and first-node error), checked to be
  identical to the value ``reproduce_table`` reports for that cell.
* trajectory: every node value of every catalogue trajectory, spot-checked
  against ``quad_caputo_piecewise`` on the same interpolant.
* crosscheck: the catalogue cases whose three routes do not agree (or whose
  quadrature does not settle), each with the reason.  They stay in the
  workload and count as failures; the check only refuses new ones.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import caputo_lk as C  # noqa: E402

import workloads as W  # noqa: E402

# Nodes of every recorded trajectory that are also computed by quadrature.
_SPOT_NODES = (1, 2, 7, 64, W.TRAJECTORY_N)
_SPOT_RTOL = 1e-9


def _write(name: str, payload: dict) -> None:
    path = W.EXPECTED_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(HERE.parent)}")


def record_studies() -> None:
    tables = {t: C.reproduce_table(t) for t in (1, 2, 3, 4)}
    from_tables = {}
    for t, report in tables.items():
        for cell in report.interior_cells:
            if cell.row is not None:
                from_tables[(t, cell.alpha, cell.row.m, cell.row.beta)] = cell.row
        for cell in report.first_node_cells:
            from_tables[(t, cell.alpha, cell.tau_exp, cell.beta)] = cell.row
    records = {}
    for cell in W.study_cells():
        row = W.run_study_cell(cell)
        if cell.table == 3:
            key = (3, cell.alpha, cell.tau_exp, cell.f.beta)
            records[cell.key] = {"R": row.measured_R, "error": row.error}
        else:
            key = (cell.table, cell.alpha, cell.f.m, cell.f.beta)
            records[cell.key] = {"R": row.measured_R}
        if from_tables.pop(key) != row:
            raise SystemExit(f"{cell.key}: benchmark cell differs from reproduce_table")
    if from_tables:
        raise SystemExit(f"built-in study cells missing from the benchmark: {sorted(from_tables)}")
    _write("studies", {"records": records})


def record_trajectory() -> None:
    records = {}
    for cfg in W.trajectory_catalogue():
        grid, values = W.trajectory_values(cfg)
        out = [
            C.discrete_caputo(cfg.scheme, grid, values, n, cfg.alpha).value
            for n in range(1, W.TRAJECTORY_N + 1)
        ]
        for n in _SPOT_NODES:
            scheme = C.SchemeKind.l1() if n == 1 else cfg.scheme
            interp = C.build_interpolant(scheme, grid, values, n)
            quad = C.quad_caputo_piecewise(interp, grid.time(n), cfg.alpha, tol=1e-12)
            if abs(quad - out[n - 1]) > _SPOT_RTOL * max(1.0, abs(quad)):
                raise SystemExit(f"{cfg.key} node {n}: {out[n - 1]!r} vs quadrature {quad!r}")
        records[cfg.key] = {"params": cfg.params, "values": out}
        print(f"  {cfg.key}: {len(out)} nodes, spot nodes agree with quadrature")
    _write("trajectory", {"records": records})


def record_crosscheck() -> None:
    failures = {}
    for case in W.crosscheck_catalogue():
        grid, values = W.crosscheck_values(case)
        t0 = time.perf_counter()
        out = W.run_crosscheck(case, grid, values)
        dt = time.perf_counter() - t0
        if W.crosscheck_agrees(out):
            continue
        where = (
            f"n={case.n}, steps={case.steps}, alpha={case.alpha:.4f}, "
            f"m={case.m}, beta={case.beta:.4f}, kink node {case.kink_node}"
        )
        if out is None:
            reason = f"quadrature did not settle ({where})"
        else:
            closed, piecewise, integrated = out
            d1 = abs(closed - piecewise) / max(abs(closed), abs(piecewise), 1e-12)
            d2 = abs(piecewise - integrated) / max(abs(piecewise), abs(integrated), 1e-10)
            reason = f"routes disagree: closed/piecewise {d1:.1e}, piecewise/integrated {d2:.1e} ({where})"
        failures[case.key] = reason
        print(f"  {case.key}: {reason} [{dt:.2f} s]")
    _write("crosscheck", {"known_failures": failures})


if __name__ == "__main__":
    W.EXPECTED_DIR.mkdir(exist_ok=True)
    record_studies()
    record_trajectory()
    record_crosscheck()
