"""Operation lists of the three benchmark workloads and their output checks.

Every workload is a closed loop with one caller: a fixed list of
operations, each a call into the package's public functions, fixed by the
seed alone (never by a time budget), so the attempted operations and their
outcomes repeat exactly for a given seed.

* ``studies``: the 113 measured cells of the four built-in studies, in
  seed-shuffled order.  Cost is the same for every seed.
* ``trajectory``: one full trajectory (every node 1..N) per scheme of the
  family.  For each scheme the seed picks one of a few recorded
  (alpha, probe) configurations, so cost barely depends on the seed while
  every node value can be checked against a recorded value.
* ``crosscheck``: a fixed catalogue of small-n cases drawn once from the
  documented domains of all three routes, in seed-shuffled order.  Its
  oracle failures are part of the catalogue, so ``ok_frac`` does not move
  with the seed.

Output checks run outside the timed region, against the files in
``expected/`` that ``record.py`` wrote from the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import caputo_lk as C

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Scheme family swept by trajectory and crosscheck: L1, L2, L1-2, L1-2-3 .. L1-..-6.
SCHEMES = (C.SchemeKind.l1(), C.SchemeKind.l2(), C.SchemeKind.l12()) + tuple(
    C.SchemeKind.lk(k) for k in range(3, 7)
)

# Fixed seeds of the recorded catalogues; the run seed only selects and orders.
_TRAJECTORY_CATALOGUE_SEED = 2504_07391
_CROSSCHECK_CATALOGUE_SEED = 2504_07392

TRAJECTORY_N = 256
TRAJECTORY_CONFIGS = 4
CROSSCHECK_CASES = 147
CROSSCHECK_MAX_N = 32

# Tolerances of the checks.  The cross-route ones are those of ``verify``;
# the recorded ones leave room for a rounding-level change of summation order.
STUDY_R_TOL = 1e-6
STUDY_ERROR_RTOL = 1e-6
TRAJECTORY_RTOL = 1e-10
CLOSED_VS_PIECEWISE_RTOL = 1e-9
PIECEWISE_VS_INTEGRATED_RTOL = 1e-7
PIECEWISE_TOL = 1e-12
INTEGRATED_TOL = 1e-11


@dataclass(frozen=True)
class Op:
    """One operation: ``call()`` does the timed work and returns its output."""

    key: str
    call: Callable[[], object]


# --------------------------------------------------------------------------
# studies

_TOTALS_HALF = (0.3, 0.5, 0.9, 1.3, 1.5, 1.9, 2.2, 2.5, 2.7, 3.0)
_TOTALS_QUARTER = (0.5, 0.8, 1.3, 1.6, 2.3, 2.6, 3.2, 3.4, 3.6)
_INTERIOR_TABLES = (
    (1, C.SchemeKind.l2(), 0.5, (0.1, 0.3, 0.5, 0.7), _TOTALS_HALF),
    (2, C.SchemeKind.l12(), 0.5, (0.1, 0.3, 0.5, 0.7), _TOTALS_HALF),
    (4, C.SchemeKind.lk(3), 0.25, (0.3, 0.5, 0.7), _TOTALS_QUARTER),
)
_INTERIOR_TAU_EXP = 7
_FIRST_NODE_ALPHAS = (0.3, 0.5, 0.7)
_FIRST_NODE_TAU_EXPS = (7, 8)
_FIRST_NODE_BETAS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class StudyCell:
    key: str
    table: int
    scheme: C.SchemeKind
    alpha: float
    f: C.HolderTestFunction
    tau_exp: int

    @property
    def tau(self) -> float:
        return 2.0**-self.tau_exp


def study_cells() -> list[StudyCell]:
    """The measured (non-dash) cells of built-in studies 1-4, in table order."""
    cells = []
    for table, scheme, xi, alphas, totals in _INTERIOR_TABLES:
        for alpha in alphas:
            for total in totals:
                if total <= alpha + 1e-12:
                    continue
                rc = C.RegularityClass.from_total(total)
                f = C.HolderTestFunction(m=rc.m, beta=rc.beta, xi=xi)
                cells.append(
                    StudyCell(f"t{table}/a{alpha}/s{total}", table, scheme, alpha, f, _INTERIOR_TAU_EXP)
                )
    for alpha in _FIRST_NODE_ALPHAS:
        for tau_exp in _FIRST_NODE_TAU_EXPS:
            for beta in _FIRST_NODE_BETAS:
                f = C.HolderTestFunction(m=2, beta=beta, xi=0.5)
                cells.append(
                    StudyCell(
                        f"t3/a{alpha}/tau2^-{tau_exp}/b{beta}",
                        3,
                        C.SchemeKind.l2(),
                        alpha,
                        f,
                        tau_exp,
                    )
                )
    return cells


def run_study_cell(cell: StudyCell):
    # Looked up on the package at call time, so a traced run sees its wrappers.
    if cell.table == 3:
        return C.order_first_node(cell.scheme, cell.f, cell.alpha, cell.tau)
    return C.order_interior(cell.scheme, cell.f, cell.alpha, cell.tau)


def _studies(seed: int, limit: int | None) -> list[Op]:
    ops = [Op(c.key, lambda c=c: run_study_cell(c)) for c in study_cells()[:limit]]
    random.Random(seed).shuffle(ops)
    return ops


def _check_studies(records: dict) -> Callable[[Op, object], bool]:
    def check(op: Op, row) -> bool:
        want = records[op.key]
        if abs(row.measured_R - want["R"]) > STUDY_R_TOL:
            return False
        if "error" in want:
            return abs(row.error - want["error"]) <= STUDY_ERROR_RTOL * want["error"]
        return True

    return check


# --------------------------------------------------------------------------
# trajectory


@dataclass(frozen=True)
class TrajectoryConfig:
    key: str
    scheme: C.SchemeKind
    alpha: float
    m: int
    beta: float
    kink_node: int

    @property
    def params(self) -> list:
        return [self.alpha, self.m, self.beta, self.kink_node]


def trajectory_catalogue() -> list[TrajectoryConfig]:
    """TRAJECTORY_CONFIGS recorded (alpha, Holder probe) pairs per scheme."""
    rng = random.Random(_TRAJECTORY_CATALOGUE_SEED)
    out = []
    for scheme in SCHEMES:
        for i in range(TRAJECTORY_CONFIGS):
            alpha = rng.uniform(0.1, 0.9)
            m = rng.randrange(0, 3)
            beta = rng.uniform(0.1, 1.0)
            kink = rng.randrange(1, TRAJECTORY_N)
            out.append(TrajectoryConfig(f"{scheme.label}#{i}", scheme, alpha, m, beta, kink))
    return out


def trajectory_values(cfg: TrajectoryConfig) -> tuple[C.UniformGrid, list[float]]:
    grid = C.UniformGrid(horizon=1.0, steps=TRAJECTORY_N)
    u = C.HolderTestFunction(m=cfg.m, beta=cfg.beta, xi=grid.time(cfg.kink_node))
    return grid, [u(grid.time(i)) for i in range(TRAJECTORY_N + 1)]


def _node_op(cfg: TrajectoryConfig, grid: C.UniformGrid, values: list[float], n: int) -> Op:
    return Op(
        f"{cfg.key}/n{n}",
        lambda: C.discrete_caputo(cfg.scheme, grid, values, n, cfg.alpha).value,
    )


def _trajectory(seed: int, limit: int | None) -> list[Op]:
    rng = random.Random(seed)
    catalogue = trajectory_catalogue()
    chosen = [
        catalogue[s * TRAJECTORY_CONFIGS + rng.randrange(TRAJECTORY_CONFIGS)]
        for s in range(len(SCHEMES))
    ]
    rng.shuffle(chosen)
    ops = []
    for cfg in chosen:
        grid, values = trajectory_values(cfg)
        ops.extend(_node_op(cfg, grid, values, n) for n in range(1, TRAJECTORY_N + 1))
    return ops[:limit]


def _check_trajectory(records: dict) -> Callable[[Op, object], bool]:
    for cfg in trajectory_catalogue():
        if records[cfg.key]["params"] != cfg.params:
            raise ValueError(f"recorded trajectory {cfg.key} has other parameters; rerun record.py")

    def check(op: Op, value) -> bool:
        cfg_key, node = op.key.rsplit("/n", 1)
        want = records[cfg_key]["values"][int(node) - 1]
        return abs(value - want) <= TRAJECTORY_RTOL * max(1.0, abs(want))

    return check


# --------------------------------------------------------------------------
# crosscheck


@dataclass(frozen=True)
class CrossCase:
    key: str
    scheme: C.SchemeKind
    n: int
    steps: int
    alpha: float
    m: int
    beta: float
    kink_node: int


def crosscheck_catalogue() -> list[CrossCase]:
    """Small-n cases inside every route's documented domain.

    The kink sits on a grid node and m + beta > alpha, so the test function
    is Holder with exponent above alpha everywhere, the evaluation time
    included, as the integrated form requires.  Schemes cycle through the
    family; alpha is fresh on every case.
    """
    rng = random.Random(_CROSSCHECK_CATALOGUE_SEED)
    out = []
    for i in range(CROSSCHECK_CASES):
        scheme = SCHEMES[i % len(SCHEMES)]
        n = rng.randrange(2, CROSSCHECK_MAX_N + 1)
        steps = n + rng.randrange(0, 9)
        alpha = rng.uniform(0.1, 0.9)
        m = rng.randrange(0, 3)
        beta = rng.uniform(0.1, 1.0)
        while m + beta <= alpha:
            beta = rng.uniform(0.1, 1.0)
        kink = rng.randrange(1, steps + 1)
        out.append(CrossCase(f"c{i:03d}/{scheme.label}", scheme, n, steps, alpha, m, beta, kink))
    return out


def crosscheck_values(case: CrossCase) -> tuple[C.UniformGrid, list[float]]:
    grid = C.UniformGrid(horizon=1.0, steps=case.steps)
    u = C.HolderTestFunction(m=case.m, beta=case.beta, xi=grid.time(case.kink_node))
    return grid, [u(grid.time(i)) for i in range(case.n + 1)]


def run_crosscheck(case: CrossCase, grid: C.UniformGrid, values: list[float]):
    """The same value three ways, or None when a quadrature does not settle."""
    closed = C.discrete_caputo(case.scheme, grid, values, case.n, case.alpha).value
    interp = C.build_interpolant(case.scheme, grid, values, case.n)
    t_n = grid.time(case.n)
    try:
        piecewise = C.quad_caputo_piecewise(interp, t_n, case.alpha, tol=PIECEWISE_TOL)
        integrated = C.quad_caputo_integrated(interp, t_n, case.alpha, tol=INTEGRATED_TOL)
    except C.QuadratureConvergenceError:
        return None
    return closed, piecewise, integrated


def crosscheck_agrees(out) -> bool:
    if out is None:
        return False
    closed, piecewise, integrated = out
    d1 = abs(closed - piecewise) / max(abs(closed), abs(piecewise), 1e-12)
    d2 = abs(piecewise - integrated) / max(abs(piecewise), abs(integrated), 1e-10)
    return d1 < CLOSED_VS_PIECEWISE_RTOL and d2 < PIECEWISE_VS_INTEGRATED_RTOL


def _crosscheck(seed: int, limit: int | None) -> list[Op]:
    ops = []
    for case in crosscheck_catalogue()[:limit]:
        grid, values = crosscheck_values(case)
        ops.append(Op(case.key, lambda c=case, g=grid, v=values: run_crosscheck(c, g, v)))
    random.Random(seed).shuffle(ops)
    return ops


def _check_crosscheck(records: dict) -> Callable[[Op, object], bool]:
    return lambda op, out: crosscheck_agrees(out)


# --------------------------------------------------------------------------

BUILDERS = {"studies": _studies, "trajectory": _trajectory, "crosscheck": _crosscheck}
_CHECKERS = {
    "studies": _check_studies,
    "trajectory": _check_trajectory,
    "crosscheck": _check_crosscheck,
}


def build(workload: str, seed: int, limit: int | None = None) -> list[Op]:
    """Input generation: the workload's operation list for this seed."""
    return BUILDERS[workload](seed, limit)


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def checker(workload: str, expected: dict) -> Callable[[Op, object], bool]:
    """Output check for one operation, run outside the timed region."""
    return _CHECKERS[workload](expected.get("records", {}))


def known_failures(expected: dict) -> dict[str, str]:
    """Operations recorded as failing at the commit that wrote ``expected``."""
    return expected.get("known_failures", {})
