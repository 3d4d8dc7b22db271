"""Small dense linear programs with certified solutions.

The model has one form, min c'x subject to A x <= b and x >= 0, which is
the planner's: non-negative masses, grid rows that bound the curve lift from
below (written negated) and per-type budget rows.  Solving is delegated to
HiGHS, driven directly through the solver object scipy ships
(`scipy.optimize._highspy._core._Highs`): each model is passed once as
row-wise sparse arrays, and its outcomes and messages keep the wording of
scipy's own LP front end.  No other module touches that private API.  Every
reported optimum is re-certified here: primal residuals are recomputed from
scratch, the returned row duals must be dual feasible, and the dual bound
they give must meet the primal objective.  A solve that cannot be certified
is reported as a failure, never as a silent wrong answer.

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

# HiGHS model status -> (outcome, message prefix), in scipy's wording
OUTCOMES = {
    "kOptimal": ("optimal", "Optimization terminated successfully. "),
    "kInfeasible": ("infeasible", "The problem is infeasible. "),
    "kModelError": ("infeasible", ""),
    "kUnbounded": ("unbounded", "The problem is unbounded. "),
    "kUnboundedOrInfeasible": ("error", "The problem is unbounded or infeasible. "),
    "kTimeLimit": ("error", "Time limit reached. "),
    "kIterationLimit": ("error", "Iteration limit reached. "),
    **dict.fromkeys(("kNotset", "kLoadError", "kPresolveError", "kSolveError",
                     "kPostsolveError", "kModelEmpty", "kObjectiveBound",
                     "kObjectiveTarget"), ("error", "")),
}
UNRECOGNIZED = ("error", "The HiGHS status code was not recognized. ")

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

    status 'optimal' guarantees: max violation <= FEAS_TOL and a dual bound
    from dual-feasible multipliers (to FEAS_TOL) within GAP_TOL relative of
    the primal objective.
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
        return _result(h, highs.HighsModelStatus.kModelError)
    if h.run() == highs.HighsStatus.kError:
        return _result(h, h.getModelStatus())
    status, info = h.getModelStatus(), h.getInfo()
    if status != highs.HighsModelStatus.kOptimal:
        return _result(h, status, info.simplex_iteration_count,
                       "model_status is %s; primal_status is %s"
                       % (h.modelStatusToString(status),
                          h.solutionStatusToString(info.primal_solution_status)))
    sol = h.getSolution()
    return _result(h, status, info.simplex_iteration_count,
                   x=np.array(sol.col_value), row_dual=np.array(sol.row_dual))


def _result(h, status, nit=0, detail=None, x=None, row_dual=None) -> HighsResult:
    """The result for HiGHS's model `status`, with scipy's message for it."""
    outcome, prefix = OUTCOMES.get(status.name, UNRECOGNIZED)
    detail = h.modelStatusToString(status) if detail is None else detail
    return HighsResult(outcome, "%s(HiGHS Status %d: %s)" % (prefix, int(status), detail),
                       x, row_dual, nit)


def _certify(model: LpModel, res: HighsResult) -> LpSolution:
    """The solution HiGHS's result `res` reports, with an optimum kept only
    when its residuals, dual feasibility and dual bound check out here."""
    if res.outcome != "optimal":
        return LpSolution(res.outcome, None, None, None, None, res.nit, res.message)
    x, y = res.x, res.row_dual
    viol, obj = check_solution(model, x)
    # y <= 0 and c - A'y >= 0 make b.y a lower bound on every feasible c.x
    # (the x >= 0 bounds have rhs 0 and add nothing to it); reduced costs are
    # checked relative to their cost
    c = model.objective
    dual_viol = max(float(np.max(y, initial=0.0)),
                    float(np.max((y @ model.rows - c) / np.maximum(1.0, np.abs(c)),
                                 initial=0.0)))
    gap = abs(obj - float(y @ model.rhs)) / max(1.0, abs(obj))
    if viol > FEAS_TOL or dual_viol > FEAS_TOL or gap > GAP_TOL:
        return LpSolution("error", x, obj, viol, gap, res.nit,
                          "certification failed: violation=%g dual violation=%g gap=%g"
                          % (viol, dual_viol, gap))
    return LpSolution("optimal", x, obj, viol, gap, res.nit, res.message)
