"""Brute-force vertex-enumeration oracle for small LPs.

Independent of the production solver: enumerates every basic point of the
constraint system (rows plus non-negativity), keeps the feasible ones, and
returns the best objective.  Only valid for pointed feasible regions with
bounded optimum, which the random test models guarantee by using strictly
positive objectives and x >= 0.
"""

import itertools

import numpy as np

from ltmplan.lp import LpModel


def vertex_enumerate(model: LpModel, tol: float = 1e-9):
    """Returns (status, objective) with status 'optimal' or 'infeasible'."""
    nv = model.num_vars
    # the rows, then -x_v <= 0 for every variable
    g = np.vstack([model.rows, -np.eye(nv)])
    h = np.concatenate([model.rhs, np.zeros(nv)])
    best = None
    for combo in itertools.combinations(range(len(h)), nv):
        a = g[list(combo)]
        b = h[list(combo)]
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, b)
        if np.all(g @ x <= h + tol):
            val = float(model.objective @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_model(rng, max_vars=8, max_rows=8):
    """Random bounded LP: strictly positive objective, x >= 0, each row
    a x >= b or a x <= b with even odds (a >= row stored negated)."""
    nv = int(rng.integers(1, max_vars + 1))
    nr = int(rng.integers(1, max_rows + 1))
    c = rng.uniform(0.1, 2.0, size=nv)
    a = rng.normal(size=(nr, nv))
    signs = np.array([-1.0 if rng.random() < 0.5 else 1.0 for _ in range(nr)])
    b = rng.normal(size=nr)
    return LpModel(c, a * signs[:, None], b * signs)
