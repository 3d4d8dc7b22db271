"""Small dense linear programs with certified solutions.

The model has one form, min c'x subject to A x <= b and x >= 0, which is
the planner's: non-negative masses, grid rows that bound the curve lift from
below (written negated) and per-type budget rows.  Solving is delegated to
scipy's HiGHS backend behind this interface, but every reported optimum is
re-certified here: primal residuals are recomputed from scratch and a dual
bound is assembled from the returned multipliers.  A solve that cannot be
certified is reported as a failure, never as a silent wrong answer.

HiGHS runs first unscaled and without presolve, which is faster on the
planner's small dense LPs: presolve only removes their singleton budget
rows, and scaling doubles the simplex iterations.  That answer stands only
when it is a certified optimum.  Anything else is solved again with HiGHS's
defaults, whose outcome is reported: without presolve HiGHS often ends an
infeasible LP in status "Unknown", and a scipy that drops the scaling option
runs the first solve scaled, which does not always certify.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import OptimizeWarning, linprog

FEAS_TOL = 1e-9
GAP_TOL = 1e-8

# (name, HiGHS options) in the order tried; the last one's outcome stands
CONFIGURATIONS = (
    ("unscaled, no presolve", {"presolve": False, "simplex_scale_strategy": 0}),
    ("HiGHS defaults", {}),
)
TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}

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
    within GAP_TOL relative of the primal objective.
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


def _highs(model: LpModel, options: dict):
    """linprog's HiGHS result for the model under `options`."""
    with warnings.catch_warnings():
        # scipy passes HiGHS options it does not know, such as the scaling
        # strategy, on verbatim and warns that it does
        warnings.filterwarnings("ignore", "Unrecognized options",
                                OptimizeWarning)
        return linprog(model.objective,
                       A_ub=model.rows if model.num_rows else None,
                       b_ub=model.rhs if model.num_rows else None,
                       bounds=(0, None), method="highs",
                       options={**TOLERANCES, **options})


def _certify(model: LpModel, res) -> LpSolution:
    """The solution linprog's result `res` reports, with an optimum kept only
    when its residuals and dual bound check out here."""
    iters = int(getattr(res, "nit", 0) or 0)
    if res.status == 2:
        return LpSolution("infeasible", None, None, None, None, iters, res.message)
    if res.status == 3:
        return LpSolution("unbounded", None, None, None, None, iters, res.message)
    if res.status != 0:
        return LpSolution("error", None, None, None, None, iters, res.message)
    x = np.asarray(res.x, dtype=float)
    viol, obj = check_solution(model, x)
    # dual bound from the returned multipliers (HiGHS's inequality marginals
    # are <= 0); the x >= 0 bounds have rhs 0 and add nothing to it
    dual = float(res.ineqlin.marginals @ model.rhs) if model.num_rows else 0.0
    gap = abs(obj - dual) / max(1.0, abs(obj))
    if viol > FEAS_TOL or gap > GAP_TOL:
        return LpSolution("error", x, obj, viol, gap, iters,
                          "certification failed: violation=%g gap=%g" % (viol, gap))
    return LpSolution("optimal", x, obj, viol, gap, iters, res.message)
