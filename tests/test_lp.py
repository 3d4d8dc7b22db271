import collections
import logging
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_statistics
from lp_oracle import random_model, vertex_enumerate
from ltmplan import lp
from ltmplan.lp import LpModel, check_solution, solve
from ltmplan.planner import PlannerConfig, alpha_eps, build_lp
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


def test_model_leaves_caller_arrays_writeable():
    # a writeable input is copied before the model freezes it; a read-only
    # float64 matrix, as build_lp hands over, is shared
    c, a, b = np.ones(2), np.eye(2), np.ones(2)
    model = LpModel(c, a, b)
    a[0, 0] = c[0] = 5.0
    assert model.rows[0, 0] == 1.0 and model.objective[0] == 1.0
    assert not any(v.flags.writeable for v in (model.objective, model.rows, model.rhs))
    a.setflags(write=False)
    assert LpModel(c, a, b).rows is a


def test_records_with_arrays_compare_by_identity():
    # the generated __eq__ would compare the arrays and raise: a model or
    # solution is equal only to itself, and hashes
    model = small_model()
    for make in (small_model, lambda: solve(model)):
        one, other = make(), make()
        assert one == one and one != other and len({one, other}) == 2


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


def test_model_highs_rejects_is_an_error():
    """Both models are feasible, but HiGHS refuses to load them: it takes
    matrix values >= 1e15 as too large and |bounds| >= 1e20 as infinite."""
    for model in (LpModel([1.0, 1.0], [[-1.0, -1e16]], [-1.0]),
                  LpModel([1.0, 1.0], [[-1.0, -1.0]], [-1e25])):
        sol = solve(model)
        assert sol.status == "error" and "rejected the model" in sol.message
        assert sol.configuration == "HiGHS defaults"


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
    to 1e-9, and for anything but an optimum the same HiGHS model status."""
    assert lp.CONFIGURATIONS[-1] == ("HiGHS defaults", {})
    nits = []
    highs = lp._highs

    def counted(*args):
        res = highs(*args)
        nits.append(res.iterations)
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
            assert names_same_model_status(sol.message, ref.message)
        seen[mode, status, sol.configuration] += 1
    for mode in ("full", "seed-only"):
        assert seen[mode, "optimal", lp.CONFIGURATIONS[0][0]] > 0
        assert seen[mode, "infeasible", "HiGHS defaults"] > 0


def names_same_model_status(message, linprog_message):
    """Whether `message` names the HiGHS model status that linprog's
    message names, as "(HiGHS Status 8: model_status is Infeasible; ...)"
    or "(HiGHS Status 7: Optimal)"."""
    status = re.search(r"HiGHS Status \d+: (?:model_status is )?([^;)]+)",
                       linprog_message).group(1)
    return "model_status is %s;" % status in message


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
    assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        ref.status, "error")
    assert names_same_model_status(res.message, ref.message)
    assert res.iterations == ref.nit
    if ref.status == 0:
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.row_dual, ref.ineqlin.marginals)
    else:
        assert res.x is None and res.row_dual is None
    return res.status


def test_highs_matches_linprog():
    """The direct HiGHS solve returns linprog's x, row duals, iterations and
    outcome, bit for bit, and names its HiGHS model status, under every
    configuration."""
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
    good = lp.LpSolution("optimal", x, iterations=1, row_dual=np.array([-1.0, 0.0]))
    assert lp._certify(model, good).status == "optimal"
    for y in ([0.0, 1.0 / 0.6],       # a positive row dual
              [-2.0, -5.0 / 3.0]):    # y <= 0, but c - A'y < 0 for x1
        y = np.array(y)
        assert y @ model.rhs == pytest.approx(1.0)
        sol = lp._certify(model, lp.LpSolution("optimal", x, iterations=1, row_dual=y))
        assert sol.status == "error" and "dual violation" in sol.message


def test_certify_bounds_round_off_on_bounded_columns():
    """A reduced cost a little below 0 costs the dual bound its column's
    upper bound times that shortfall when a row of non-negative
    coefficients bounds the column, and fails the certificate otherwise."""
    x = np.array([0.6, 0.4])
    # y misses the optimal duals (-1, 0) by 2e-9: both reduced costs are
    # -2e-9, beyond FEAS_TOL
    y = np.array([-1.0 - 2e-9, 0.0, 0.0])
    # + x0 + x1 <= 2 bounds both columns: b.y less 2e-9 * (0.6 + 2) is
    # within GAP_TOL of the optimum 1
    model = LpModel(np.array([1.0, 1.0]),
                    np.array([[-1.0, -1.0], [1.0, 0.0], [1.0, 1.0]]),
                    np.array([-1.0, 0.6, 2.0]))
    sol = lp._certify(model, lp.LpSolution("optimal", x, iterations=1, row_dual=y))
    assert sol.status == "optimal"
    assert sol.dual_gap == pytest.approx(2e-9 * 1.6, rel=1e-6)
    # without that row nothing bounds x1, whose reduced cost must then be >= 0
    sol = lp._certify(small_model(), lp.LpSolution("optimal", x, iterations=1, row_dual=y[:2]))
    assert sol.status == "error" and "dual violation=2e-09" in sol.message


def test_planner_lps_certify():
    """1,500 seeded planner LPs, every one feasible (Delta <= alpha_eps),
    all certify as optimal.  In 8 of them HiGHS's row duals give a basic
    column a reduced cost of -1.6e-9 to -5.7e-8 (so its exact value, 0, is
    lost to round-off); a check of c - A'y >= -1e-9 alone rejected them."""
    rng = np.random.default_rng(0)
    failed = []
    for i in range(1500):
        max_types = int(rng.integers(2, 20))
        k_max = int(rng.integers(2, 40))
        p0 = random_statistics(rng, max_types, k_max)
        eps = float(rng.uniform(0.05, 0.6))
        grid_n = int(rng.integers(5, 200))
        delta = float(rng.uniform(0.01, 1)) * alpha_eps(p0, eps)
        cfg = PlannerConfig(eps=eps, grid_n=grid_n, delta=delta,
                            eta_mode=("full", "seed-only")[i % 2])
        sol = solve(build_lp(p0, cfg)[0])
        if sol.status != "optimal":
            failed.append((i, sol.message))
    assert failed == []


def test_rejected_option_falls_back_to_defaults(monkeypatch, capfd):
    monkeypatch.setattr(lp, "CONFIGURATIONS",
                        (("unscaled, no presolve", {"no_such_option": 0}),
                         lp.CONFIGURATIONS[-1]))
    res = lp._highs(small_model(), lp.CONFIGURATIONS[0][1])
    assert res.status == "error" and "no_such_option" in res.message
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
