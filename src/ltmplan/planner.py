"""Assembly and auditing of the discretized intervention program.

The planner turns statistics into a finite LP: decision variables are the
per-type masses moved to each reduction depth, the objective is the
intervention cost, and the constraints pin the degree-weighted activation
curve above the diagonal by a margin Delta on an even grid of the shrunken
domain [0, 1 - alpha].  Solutions are audited independently of the solver on
finer grids against both the relaxed and the original constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp, meanfield
from .typestats import (Statistics, StatIntervention, intervention_cost,
                        intervention_to_records)


# A plan mass at most this, of a unit total, is round-off: the LP leaves
# budget residues of up to 2.5e-15 on power-grid plans, whose smallest real
# entry is 5e-6.  It is less than a node on any network of under 1e14 nodes,
# and far inside typestats.MASS_TOL.
ROUNDOFF = 1e-14


class PlannerError(ValueError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    eps: float
    grid_n: int = 100
    delta: float | str = "auto"   # 'auto' means the guarantee value delta_n
    fine_m: int | None = None     # audit grid, default 10 * grid_n
    eta_mode: str = "full"        # 'full' or 'seed-only' (eta in {0, r_w})

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise PlannerError("eps must lie in (0, 1]")
        if self.grid_n < 1:
            raise PlannerError("grid size N must be >= 1")
        if self.fine_m is not None and self.fine_m < 1:
            raise PlannerError("audit grid size M must be >= 1")
        if self.delta != "auto" and not float(self.delta) > 0.0:
            raise PlannerError("Delta must be positive or 'auto'")
        if self.eta_mode not in ("full", "seed-only"):
            raise PlannerError("eta_mode must be 'full' or 'seed-only'")

    @property
    def audit_points(self) -> int:
        return self.fine_m if self.fine_m is not None else 10 * self.grid_n


def alpha_eps(p0: Statistics, eps: float) -> float:
    """Domain-shrinking constant eps * d_min / <p, d>."""
    if not (0.0 < eps <= 1.0):
        raise PlannerError("eps must lie in (0, 1]")
    d_min = p0.d_min()
    if d_min == 0:
        raise PlannerError(
            "types with in-degree 0 carry positive mass: the constraint domain "
            "becomes [0, 1] and phi(1) <= 1 makes the margin constraint "
            "unsatisfiable at z = 1. Remove zero-in-degree types (they can "
            "never be activated through links) and rescale before planning.")
    return eps * d_min / p0.moment("d")


def delta_n(p0: Statistics, eps: float, grid_n: int) -> float:
    """Margin under which grid feasibility certifies the continuum constraint:
    half the grid spacing times the uniform derivative bound.  inf when the
    bound overflows: then no margin certifies anything."""
    if grid_n < 1:
        raise PlannerError("grid size N must be >= 1")
    alpha = alpha_eps(p0, eps)
    return (1.0 - alpha) / (2.0 * grid_n) * meanfield.derivative_bound(p0)


def _grid_and_margins(p0: Statistics, cfg: PlannerConfig):
    """(alpha, the LP's even grid of [0, 1 - alpha], Delta used, guarantee
    value Delta_N); 'auto' needs a finite Delta_N."""
    alpha = alpha_eps(p0, cfg.eps)
    zs = (1.0 - alpha) * np.arange(cfg.grid_n + 1) / cfg.grid_n
    delta_guar = delta_n(p0, cfg.eps, cfg.grid_n)
    if cfg.delta != "auto":
        return alpha, zs, float(cfg.delta), delta_guar
    if not math.isfinite(delta_guar):
        raise PlannerError(
            "Delta 'auto' needs the guarantee margin Delta_N, but its derivative "
            "bound overflows at k_max = %d; give an explicit Delta (empirical "
            "regime)" % p0.k_max())
    return alpha, zs, delta_guar, delta_guar


def _variables(p0: Statistics, eta_mode: str):
    """(type, eta) columns: reductions 1..r_w of every type (seed-only keeps
    eta = r_w alone).  Per column, its type's code in p0.types(), eta, cost."""
    codes = np.flatnonzero(p0.r > 0)
    if eta_mode == "full":
        r = p0.r[codes]
        owner = np.repeat(codes, r)
        # eta counts 1..r_w along each type's run of columns
        eta = np.arange(owner.size) - np.repeat(np.cumsum(r) - r, r) + 1
    else:
        owner, eta = codes, p0.r[codes]
    return owner, eta, p0.cost(owner, eta)


def build_lp(p0: Statistics, cfg: PlannerConfig):
    """Assemble the discretized program as min c.x s.t. A x <= b, x >= 0.

    Returns (LpModel, columns, grid) where columns, an (nv, 2) integer
    array, holds the (type code, eta) of each variable.  The eta = 0 slack is
    eliminated: grid rows lower-bound the curve lift, written negated as
    -lift(z) <= phi0(z) - (z + Delta), and one budget row per type caps the
    moved mass at the type mass.
    Columns that cannot lift any grid point but cost something are pruned.
    """
    _, zs, delta, _ = _grid_and_margins(p0, cfg)
    owner, eta, cost = _variables(p0, cfg.eta_mode)
    phi0, coeffs, _ = meanfield.lift(p0, p0.d[owner], p0.k[owner], p0.r[owner],
                                     eta, zs)
    # a column that can never help would never be selected
    keep = np.any(coeffs > 0.0, axis=0) | (cost <= 0.0)
    owner, eta = owner[keep], eta[keep]
    columns = np.column_stack([owner, eta])
    nv = len(columns)
    # one budget row per type that keeps a column, in type order
    used, row_of = np.unique(owner, return_inverse=True)
    # both blocks are written into one matrix, so no block is copied; the
    # kept indices are in range, and mode="clip" lets take write into `grid`
    # without the temporary copy its default mode makes
    rows = np.zeros((zs.size + used.size, nv))
    grid = rows[:zs.size]
    np.negative(np.take(coeffs, np.flatnonzero(keep), axis=1, out=grid, mode="clip"),
                out=grid)
    rows[zs.size + row_of, np.arange(nv)] = 1.0
    rows.setflags(write=False)   # so the model shares it
    rhs = np.concatenate([phi0 - (zs + delta), p0.m[used]])
    return lp.LpModel(cost[keep], rows, rhs), columns, zs


def solution_to_intervention(p0: Statistics, columns, x) -> StatIntervention:
    """Rebuild the full intervention from LP variables, restoring the eta = 0
    mass of each type from mass conservation.  A mass of at most ROUNDOFF,
    moved or left, is the solver's or the subtraction's round-off and is
    dropped, so that it cannot change which entries a plan has (and with
    them the nodes it realizes)."""
    code, eta = np.asarray(columns, dtype=np.int64).reshape(-1, 2).T
    x = np.asarray(x, dtype=float)
    x = np.where(x > ROUNDOFF, x, 0.0)
    moved = np.bincount(code, x, minlength=p0.m.size)
    x = x * np.divide(p0.m, moved, out=np.ones(p0.m.size), where=moved > p0.m)[code]
    rest = p0.m - np.bincount(code, x, minlength=p0.m.size)
    rest[rest <= ROUNDOFF] = 0.0
    return StatIntervention(p0, np.append(code, np.arange(rest.size)),
                            np.append(eta, np.zeros(rest.size)), np.append(x, rest))


@dataclass(frozen=True)
class AuditReport:
    zmax: float
    margin: float
    argmin_z: float

    @property
    def ok(self) -> bool:
        return self.margin > 0.0


def audit_original(xi: StatIntervention, eps: float, m: int) -> AuditReport:
    """Check the un-relaxed constraint: the post-intervention curve must stay
    strictly above the diagonal up to psi^{-1}(1 - eps)."""
    zmax = meanfield.psi_inverse(xi.post, 1.0 - eps)
    zs = np.linspace(0.0, zmax, m + 1)
    margins = meanfield.phi(xi.post, zs) - zs
    i = int(np.argmin(margins))
    return AuditReport(zmax, float(margins[i]), float(zs[i]))


def audit_relaxed(xi: StatIntervention, eps: float, m: int) -> AuditReport:
    """Check the relaxed constraint on the fixed domain [0, 1 - alpha],
    cross-checking the decomposed curve against a direct evaluation; both
    are read off one tail table."""
    alpha = alpha_eps(xi.base, eps)
    zs = np.linspace(0.0, 1.0 - alpha, m + 1)
    direct, decomposed = meanfield.phi_post(xi, zs)
    mismatch = float(np.max(np.abs(direct - decomposed)))
    if mismatch > 1e-8:
        raise PlannerError("decomposition cross-check failed: %g" % mismatch)
    margins = direct - zs
    i = int(np.argmin(margins))
    return AuditReport(1.0 - alpha, float(margins[i]), float(zs[i]))


@dataclass(frozen=True)
class PlanResult:
    xi: StatIntervention
    cost: float
    alpha: float
    delta_used: float
    delta_guarantee: float
    guarantee_regime: bool       # delta_used >= delta_guarantee
    grid_margin: float           # min over grid rows of lift minus requirement
    relaxed_audit: AuditReport
    original_audit: AuditReport
    lp: lp.LpSolution            # the certified solve
    config: PlannerConfig

    def to_dict(self):
        return {
            "config": {
                "eps": self.config.eps, "grid_n": self.config.grid_n,
                "delta": self.config.delta, "fine_m": self.config.audit_points,
                "eta_mode": self.config.eta_mode,
            },
            "alpha_eps": self.alpha,
            "delta_used": self.delta_used,
            # strict JSON has no infinity: an overflowing bound is written as null
            "delta_N": (self.delta_guarantee if math.isfinite(self.delta_guarantee)
                        else None),
            "regime": "guarantee (Delta >= Delta_N)" if self.guarantee_regime
                      else "empirical (Delta < Delta_N)",
            "cost": self.cost,
            "xi": intervention_to_records(self.xi),
            "audit": {
                "grid_margin": self.grid_margin,
                "relaxed_margin": self.relaxed_audit.margin,
                "original_margin": self.original_audit.margin,
                "zmax": self.original_audit.zmax,
            },
            "lp": {"status": self.lp.status, "iterations": self.lp.iterations,
                   "gap": self.lp.dual_gap, "configuration": self.lp.configuration},
        }


def plan(p0: Statistics, cfg: PlannerConfig) -> PlanResult:
    """Solve the discretized program and audit the result.

    Seeding every type makes phi = 1, and phi <= 1 at z = 1 - alpha, so the
    program is feasible exactly when Delta <= alpha.  A Delta above alpha by
    more than 1e-12 relative raises PlannerError before any LP is built,
    naming the first five grid points z with z + Delta > 1.
    """
    alpha, zs, delta, delta_guar = _grid_and_margins(p0, cfg)
    if delta > alpha * (1.0 + 1e-12):
        # z + Delta > 1 on a tail of zs, kept to the top point at least
        # where rounding hides its excess
        first = min(int(np.count_nonzero(zs + delta <= 1.0)), cfg.grid_n)
        raise PlannerError(
            "LP infeasible: Delta = %g exceeds alpha_eps = %g; budgets cannot "
            "lift the curve above z + Delta at grid points %s"
            % (delta, alpha, [float(z) for z in zs[first:first + 5]]))
    model, columns, _ = build_lp(p0, cfg)
    sol = lp.solve(model)
    if sol.status != "optimal":
        raise PlannerError("LP solve failed: %s (%s)" % (sol.status, sol.message))
    xi = solution_to_intervention(p0, columns, sol.x)
    # the grid rows' slack is the lift minus the requirement
    grid_margin = float(np.min(model.rhs[: zs.size] - model.rows[: zs.size] @ sol.x))
    m = cfg.audit_points
    return PlanResult(
        xi=xi, cost=intervention_cost(xi), alpha=alpha, delta_used=delta,
        delta_guarantee=delta_guar, guarantee_regime=delta >= delta_guar - 1e-15,
        grid_margin=grid_margin, relaxed_audit=audit_relaxed(xi, cfg.eps, m),
        original_audit=audit_original(xi, cfg.eps, m), lp=sol, config=cfg)
