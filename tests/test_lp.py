import numpy as np
import pytest

from lp_oracle import random_model, vertex_enumerate
from ltmplan.lp import GE, LE, LpModel, check_solution, solve


def small_model():
    # min x0 + x1  s.t.  x0 + x1 >= 1, x0 <= 0.6, x >= 0
    return LpModel(np.array([1.0, 1.0]),
                   np.array([[1.0, 1.0], [1.0, 0.0]]),
                   (GE, LE), np.array([1.0, 0.6]),
                   np.zeros(2), np.full(2, np.inf))


def test_model_validation():
    with pytest.raises(ValueError):
        LpModel(np.array([1.0]), np.array([[1.0, 2.0]]), (GE,),
                np.array([1.0]), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        LpModel(np.array([1.0]), np.array([[1.0]]), ("==",),
                np.array([1.0]), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        LpModel(np.array([1.0]), np.array([[1.0]]), (GE,),
                np.array([np.nan]), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        LpModel(np.array([1.0]), np.array([[1.0]]), (GE,),
                np.array([1.0]), np.ones(1), np.zeros(1))


def test_check_solution():
    m = small_model()
    viol, obj = check_solution(m, [0.6, 0.4])
    assert viol <= 0.0 and obj == pytest.approx(1.0)
    viol, _ = check_solution(m, [0.2, 0.2])
    assert viol == pytest.approx(0.6)      # row 0 short by 0.6
    viol, _ = check_solution(m, [0.7, 0.5])
    assert viol == pytest.approx(0.1)      # upper row exceeded
    viol, _ = check_solution(m, [-0.3, 1.5])
    assert viol == pytest.approx(0.3)      # below lower bound
    with pytest.raises(ValueError):
        check_solution(m, [1.0])


def test_solve_small():
    sol = solve(small_model())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.max_violation <= 1e-9 and sol.dual_gap <= 1e-8


def test_solve_infeasible():
    m = LpModel(np.array([1.0]), np.array([[1.0], [1.0]]), (GE, LE),
                np.array([2.0, 1.0]), np.zeros(1), np.full(1, np.inf))
    assert solve(m).status == "infeasible"


def test_solve_unbounded():
    m = LpModel(np.array([-1.0]), np.array([[1.0]]), (GE,),
                np.array([0.0]), np.zeros(1), np.full(1, np.inf))
    assert solve(m).status == "unbounded"


def test_solve_vacuous_models():
    ok = LpModel(np.zeros(0), np.zeros((1, 0)), (GE,), np.array([-1.0]),
                 np.zeros(0), np.zeros(0))
    sol = solve(ok)
    assert sol.status == "optimal" and sol.objective == 0.0
    bad = LpModel(np.zeros(0), np.zeros((1, 0)), (GE,), np.array([1.0]),
                  np.zeros(0), np.zeros(0))
    assert solve(bad).status == "infeasible"


def test_solve_respects_upper_bounds():
    m = LpModel(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), (GE,),
                np.array([1.0]), np.zeros(2), np.array([0.3, np.inf]))
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.3, abs=1e-9)
    assert sol.objective == pytest.approx(0.3 + 2 * 0.7, abs=1e-9)


def test_solve_matches_vertex_oracle():
    rng = np.random.default_rng(31)
    optimal = infeasible = 0
    for _ in range(120):
        m = random_model(rng, max_vars=5, max_rows=5)
        ref_status, ref_obj = vertex_enumerate(m)
        sol = solve(m)
        assert sol.status == ref_status
        if ref_status == "optimal":
            optimal += 1
            assert sol.objective == pytest.approx(ref_obj, abs=1e-7)
            assert sol.max_violation <= 1e-9
        else:
            infeasible += 1
    # both branches must actually be exercised
    assert optimal >= 20 and infeasible >= 20
