import collections
import logging
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_statistics
from lp_oracle import random_model, vertex_enumerate
from ltmplan import lp
from ltmplan.lp import LpModel, check_solution, solve
from ltmplan.planner import PlannerConfig, build_lp
from test_planner import powergrid_instance


def small_model():
    # min x0 + x1  s.t.  x0 + x1 >= 1, x0 <= 0.6, x >= 0
    return LpModel(np.array([1.0, 1.0]),
                   np.array([[-1.0, -1.0], [1.0, 0.0]]),
                   np.array([-1.0, 0.6]))


def test_model_validation():
    with pytest.raises(ValueError):
        LpModel(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        LpModel(np.array([1.0]), np.array([[1.0]]), np.array([np.nan]))
    # one row of two variables given as a column: rejected, not reshaped
    with pytest.raises(ValueError):
        LpModel(np.array([1.0, 2.0]), np.array([[1.0], [1.0]]), np.array([1.0]))


def test_check_solution():
    m = small_model()
    viol, obj = check_solution(m, [0.6, 0.4])
    assert viol <= 0.0 and obj == pytest.approx(1.0)
    viol, _ = check_solution(m, [0.2, 0.2])
    assert viol == pytest.approx(0.6)      # row 0 short by 0.6
    viol, _ = check_solution(m, [0.7, 0.5])
    assert viol == pytest.approx(0.1)      # upper row exceeded
    viol, _ = check_solution(m, [-0.3, 1.5])
    assert viol == pytest.approx(0.3)      # x0 negative
    with pytest.raises(ValueError):
        check_solution(m, [1.0])


def test_solve_small():
    sol = solve(small_model())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.max_violation <= 1e-9 and sol.dual_gap <= 1e-8


def infeasible_model():
    # x >= 2 and x <= 1
    return LpModel(np.array([1.0]), np.array([[-1.0], [1.0]]),
                   np.array([-2.0, 1.0]))


def test_solve_infeasible():
    assert solve(infeasible_model()).status == "infeasible"


def test_solve_unbounded():
    m = LpModel(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))
    assert solve(m).status == "unbounded"


def test_solve_vacuous_models():
    ok = LpModel(np.zeros(0), np.zeros((1, 0)), np.array([1.0]))
    sol = solve(ok)
    assert sol.status == "optimal" and sol.objective == 0.0
    bad = LpModel(np.zeros(0), np.zeros((1, 0)), np.array([-1.0]))
    assert solve(bad).status == "infeasible"


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


def planner_models(rng, count):
    """`count` planner LPs with variables on random statistics, alternating
    the full and the seed-only eta mode; margins up to 0.3 make many of them
    infeasible."""
    models = []
    while len(models) < count:
        mode = ("full", "seed-only")[len(models) % 2]
        cfg = PlannerConfig(eps=float(rng.uniform(0.05, 0.4)),
                            grid_n=int(rng.integers(10, 60)),
                            delta=float(rng.uniform(0.005, 0.3)), eta_mode=mode)
        model = build_lp(random_statistics(rng, max_types=6, k_max=12), cfg)[0]
        if model.num_vars:
            models.append((mode, model))
    return models


def test_solve_matches_highs_defaults(monkeypatch):
    """solve() tries a faster HiGHS configuration first, yet reports what
    linprog with HiGHS's defaults reports: the same status, the same optimum
    to 1e-9, and for anything but an optimum the same message."""
    assert lp.CONFIGURATIONS[-1] == ("HiGHS defaults", {})
    nits = []
    highs = lp._highs

    def counted(*args):
        res = highs(*args)
        nits.append(res.nit)
        return res
    monkeypatch.setattr(lp, "_highs", counted)
    seen = collections.Counter()
    for mode, model in planner_models(np.random.default_rng(57), 60):
        ref = linprog(model.objective, A_ub=model.rows, b_ub=model.rhs,
                      bounds=(0, None), method="highs", options=lp.TOLERANCES)
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status, "error")
        nits.clear()
        sol = solve(model)
        assert sol.status == status
        # iterations count every solve made; the last one answered
        assert sol.iterations == sum(nits)
        assert sol.configuration == lp.CONFIGURATIONS[len(nits) - 1][0]
        if status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
        else:
            assert len(nits) == len(lp.CONFIGURATIONS)
            assert sol.message == ref.message
        seen[mode, status, sol.configuration] += 1
    for mode in ("full", "seed-only"):
        assert seen[mode, "optimal", lp.CONFIGURATIONS[0][0]] > 0
        assert seen[mode, "infeasible", "HiGHS defaults"] > 0


def linprog_reference(model, options):
    """linprog's HiGHS result under `options`, given in HiGHS's native values
    as lp.CONFIGURATIONS gives them."""
    opts = {**lp.TOLERANCES, **options}
    if "presolve" in opts:
        opts["presolve"] = opts["presolve"] != "off"
    with warnings.catch_warnings():
        # linprog passes options it does not know on to HiGHS and warns
        warnings.filterwarnings("ignore", "Unrecognized options")
        return linprog(model.objective, A_ub=model.rows if model.num_rows else None,
                       b_ub=model.rhs if model.num_rows else None,
                       bounds=(0, None), method="highs", options=opts)


def assert_same_as_linprog(model, options):
    ref = linprog_reference(model, options)
    res = lp._highs(model, options)
    assert res.outcome == {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        ref.status, "error")
    assert res.message == ref.message
    assert res.nit == ref.nit
    if ref.status == 0:
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.row_dual, ref.ineqlin.marginals)
    else:
        assert res.x is None and res.row_dual is None
    return res.outcome


def test_highs_matches_linprog():
    """The direct HiGHS solve returns linprog's x, row duals, iterations,
    outcome and message, bit for bit, under every configuration."""
    models = [build_lp(powergrid_instance(),
                       PlannerConfig(eps=0.3, grid_n=100, delta=0.05))[0]]
    models += [model for _, model in planner_models(np.random.default_rng(57), 60)]
    # variables and no rows: optimal at x = 0, and unbounded
    models += [LpModel(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0)),
               LpModel(np.array([1.0, -2.0]), np.zeros((0, 2)), np.zeros(0))]
    seen = collections.Counter()
    for model in models:
        for _, options in lp.CONFIGURATIONS:
            seen[assert_same_as_linprog(model, options)] += 1
    assert seen["optimal"] > 0 and seen["infeasible"] > 0 and seen["unbounded"] > 0
    assert seen["error"] > 0      # status Unknown without presolve


def test_certify_rejects_infeasible_duals():
    """A dual vector whose bound b.y meets c.x proves nothing unless it is
    dual feasible: y <= 0 and c - A'y >= 0."""
    model = small_model()
    x = np.array([0.6, 0.4])
    good = lp.HighsResult("optimal", "", x, np.array([-1.0, 0.0]), 1)
    assert lp._certify(model, good).status == "optimal"
    for y in ([0.0, 1.0 / 0.6],       # a positive row dual
              [-2.0, -5.0 / 3.0]):    # y <= 0, but c - A'y < 0 for x1
        y = np.array(y)
        assert y @ model.rhs == pytest.approx(1.0)
        sol = lp._certify(model, lp.HighsResult("optimal", "", x, y, 1))
        assert sol.status == "error" and "dual violation" in sol.message


def test_rejected_option_falls_back_to_defaults(monkeypatch, capfd):
    monkeypatch.setattr(lp, "CONFIGURATIONS",
                        (("unscaled, no presolve", {"no_such_option": 0}),
                         lp.CONFIGURATIONS[-1]))
    res = lp._highs(small_model(), lp.CONFIGURATIONS[0][1])
    assert res.outcome == "error" and "no_such_option" in res.message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(small_model())
    assert sol.status == "optimal" and sol.configuration == "HiGHS defaults"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert capfd.readouterr() == ("", "")


def test_solve_raises_no_optimize_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(small_model()).status == "optimal"
        assert solve(infeasible_model()).status == "infeasible"


def test_solve_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="ltmplan.lp"):
        solve(small_model())
    [record] = caplog.records
    assert record.getMessage().startswith(
        "LP 2 x 2, 3 non-zeros: optimal after 1 iterations "
        "(unscaled, no presolve), ")
