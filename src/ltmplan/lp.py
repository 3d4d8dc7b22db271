"""Small dense linear programs with certified solutions.

The model has one form, min c'x subject to A x <= b and x >= 0, which is
the planner's: non-negative masses, grid rows that bound the curve lift from
below (written negated) and per-type budget rows.  Solving is delegated to
HiGHS, driven directly through the solver object scipy ships
(`scipy.optimize._highspy._core._Highs`): each model is passed once as
row-wise sparse arrays.  HiGHS's model status maps to an outcome through one
three-entry table: Optimal, Infeasible and Unbounded are themselves, and
every other status is an error, as is a model HiGHS rejects at load.  No
other module touches that private API.  Every reported optimum is
re-certified here: primal residuals are recomputed from scratch, and the
returned row duals, clipped to y <= 0, must give a safe dual bound that
meets the primal objective.  A solve that cannot be certified is reported
as a failure, never as a silent wrong answer.

HiGHS runs first unscaled and without presolve, which is faster on the
planner's small dense LPs: presolve only removes their singleton budget
rows, and scaling doubles the simplex iterations.  That answer stands only
when it is a certified optimum.  Anything else is solved again with HiGHS's
defaults, whose outcome is reported: without presolve HiGHS often ends an
infeasible LP in status "Unknown".  An option HiGHS rejects makes its
configuration an error, so the defaults answer.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize._highspy import _core as highs

FEAS_TOL = 1e-9
GAP_TOL = 1e-8

# (name, HiGHS options) in the order tried; the last one's outcome stands
CONFIGURATIONS = (
    ("unscaled, no presolve", {"presolve": "off", "simplex_scale_strategy": 0}),
    ("HiGHS defaults", {}),
)
TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}

# HiGHS model status -> outcome; every other status is an "error"
OUTCOMES = {highs.HighsModelStatus.kOptimal: "optimal",
            highs.HighsModelStatus.kInfeasible: "infeasible",
            highs.HighsModelStatus.kUnbounded: "unbounded"}

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LpModel:
    """min objective . x  s.t.  rows @ x <= rhs, x >= 0."""

    objective: np.ndarray
    rows: np.ndarray          # (m, n) coefficient matrix
    rhs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        a = np.asarray(self.rows, dtype=float)
        b = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if a.shape != (b.size, c.size):
            raise ValueError("rows of shape %s do not match %d rows of %d variables"
                             % (a.shape, b.size, c.size))
        for arr in (c, a, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite model coefficients")
        for name, arr in (("objective", c), ("rows", a), ("rhs", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LpSolution:
    status: str               # optimal | infeasible | unbounded | error
    x: np.ndarray | None
    objective: float | None
    max_violation: float | None
    dual_gap: float | None
    iterations: int           # over every HiGHS solve made
    message: str = ""
    configuration: str | None = None  # CONFIGURATIONS name that answered


def check_solution(model: LpModel, x) -> tuple[float, float]:
    """Independent residual check: (max constraint/bound violation, objective).

    A feasible point has violation <= 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.num_vars,):
        raise ValueError("point has %d entries, model has %d variables"
                         % (x.size, model.num_vars))
    viol = float(np.max(model.rows @ x - model.rhs, initial=0.0))
    viol = max(viol, float(np.max(-x, initial=0.0)))
    return viol, float(model.objective @ x)


def solve(model: LpModel) -> LpSolution:
    """Solve the model and certify the answer.

    status 'optimal' guarantees: max violation <= FEAS_TOL and a safe dual
    bound within GAP_TOL relative of the primal objective.  The bound takes
    the row duals clipped to y <= 0; a negative reduced cost lowers it by
    its column's upper bound from a row of non-negative coefficients, and
    must lie within FEAS_TOL of 0 (relative to the cost) on a column no such
    row bounds.
    """
    if model.num_vars == 0:
        # vacuous model: feasible iff every row already holds at x = ()
        if check_solution(model, np.zeros(0))[0] <= FEAS_TOL:
            return LpSolution("optimal", np.zeros(0), 0.0, 0.0, 0.0, 0)
        return LpSolution("infeasible", None, None, None, None, 0,
                          "empty model with unsatisfiable row")
    start = time.perf_counter()
    iterations = 0
    for name, options in CONFIGURATIONS:
        sol = _certify(model, _highs(model, options))
        iterations += sol.iterations
        if sol.status == "optimal":
            break
    sol = replace(sol, iterations=iterations, configuration=name)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("LP %d x %d, %d non-zeros: %s after %d iterations (%s), %.3f s",
                  model.num_rows, model.num_vars, np.count_nonzero(model.rows),
                  sol.status, iterations, name, time.perf_counter() - start)
    return sol


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS solve: the outcome, x and the row duals (<= 0 at an optimum of
    this form; None otherwise) and the simplex iterations it took."""

    outcome: str              # optimal | infeasible | unbounded | error
    message: str
    x: np.ndarray | None
    row_dual: np.ndarray | None
    nit: int


def _highs(model: LpModel, options: dict) -> HighsResult:
    """HiGHS's result for the model under `options` (on top of TOLERANCES)."""
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    for name, value in {**TOLERANCES, **options}.items():
        if h.setOptionValue(name, value) != highs.HighsStatus.kOk:
            return HighsResult("error", "HiGHS rejected option %s = %r" % (name, value),
                               None, None, 0)
    m, n = model.num_rows, model.num_vars
    row, col = np.nonzero(model.rows)
    if h.passModel(n, m, row.size, highs.MatrixFormat.kRowwise,
                   highs.ObjSense.kMinimize, 0.0, model.objective, np.zeros(n),
                   np.full(n, highs.kHighsInf), np.full(m, -highs.kHighsInf), model.rhs,
                   np.searchsorted(row, np.arange(m)).astype(np.int32),
                   col.astype(np.int32), model.rows[row, col],
                   np.zeros(n, dtype=np.int32)) == highs.HighsStatus.kError:
        return HighsResult("error", "HiGHS rejected the model", None, None, 0)
    h.run()
    status, info = h.getModelStatus(), h.getInfo()
    outcome, nit = OUTCOMES.get(status, "error"), info.simplex_iteration_count
    message = "model_status is %s; primal_status is %s" % (
        h.modelStatusToString(status),
        h.solutionStatusToString(info.primal_solution_status))
    if outcome != "optimal":
        return HighsResult(outcome, message, None, None, nit)
    sol = h.getSolution()
    return HighsResult(outcome, message, np.array(sol.col_value), np.array(sol.row_dual),
                       nit)


def _certify(model: LpModel, res: HighsResult) -> LpSolution:
    """The solution HiGHS's result `res` reports, with an optimum kept only
    when its residuals, dual feasibility and dual bound check out here."""
    if res.outcome != "optimal":
        return LpSolution(res.outcome, None, None, None, None, res.nit, res.message)
    x, y = res.x, np.minimum(res.row_dual, 0.0)
    viol, obj = check_solution(model, x)
    # with y <= 0, c.x >= b.y + (c - A'y).x for every feasible x.  A column
    # that a row of non-negative coefficients bounds, x_j <= u_j, costs the
    # bound at most max(0, -rc_j) u_j (Neumaier & Shcherbina, Math. Program.
    # 99:283, 2004), so round-off in the reduced cost of a basic column
    # loosens the bound instead of failing it; every other column needs
    # rc_j >= 0, checked relative to its cost
    a, b, c = model.rows, model.rhs, model.objective
    rc = c - y @ a
    neg = np.flatnonzero(rc < 0.0)
    bounding = np.flatnonzero(a.min(axis=1, initial=0.0) >= 0.0)
    rows = a[np.ix_(bounding, neg)]
    ratio = np.divide(b[bounding, None], rows, out=np.full(rows.shape, np.inf),
                      where=rows > 0.0)
    u = np.maximum(ratio.min(axis=0, initial=np.inf), 0.0)
    free = np.isinf(u)
    dual_viol = float(np.max(-rc[neg[free]] / np.maximum(1.0, np.abs(c[neg[free]])),
                             initial=0.0))
    bound = float(y @ b) + float(rc[neg[~free]] @ u[~free])
    gap = abs(obj - bound) / max(1.0, abs(obj))
    if viol > FEAS_TOL or dual_viol > FEAS_TOL or gap > GAP_TOL:
        return LpSolution("error", x, obj, viol, gap, res.nit,
                          "certification failed: violation=%g dual violation=%g gap=%g"
                          % (viol, dual_viol, gap))
    return LpSolution("optimal", x, obj, viol, gap, res.nit, res.message)
