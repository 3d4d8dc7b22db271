import json
import math
import re

import numpy as np
import pytest

from conftest import lin, random_statistics
from ltmplan import lp, meanfield, planner
from ltmplan.graph import MultiGraph
from ltmplan.sampler import realize_intervention
from ltmplan.planner import (PlannerConfig, PlannerError, alpha_eps,
                             audit_original, audit_relaxed, build_lp, delta_n,
                             plan, solution_to_intervention)
from ltmplan.typestats import (AgentType, Statistics, StatIntervention,
                               cost_rule, extract_statistics,
                               intervention_cost, threshold_rule)


def mixed_quartic():
    """d = k = 4 family with thresholds 1, 2, 3."""
    return Statistics({AgentType(4, 4, 1, lin(1)): 0.3,
                       AgentType(4, 4, 2, lin(2)): 0.4,
                       AgentType(4, 4, 3, lin(3)): 0.3})


def powergrid_instance(n=600, seed=3):
    """Statistics of one power-grid-shaped network: a connected spatial tree
    (each node joins its nearest earlier node) plus short links, mean degree
    2.67, undirected, uniform-random thresholds."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    edges = {(int(np.argmin(dist[i, :i])), i) for i in range(1, n)}
    near = np.argsort(dist, axis=1)[:, 1:6]
    while len(edges) < round(1.335 * n):
        i = int(rng.integers(n))
        j = int(near[i, rng.integers(5)])
        edges.add((min(i, j), max(i, j)))
    t, h = np.array(sorted(edges)).T
    g = MultiGraph(n, np.concatenate([t, h]), np.concatenate([h, t]))
    rho = threshold_rule("uniform-random", seed=seed)(g)
    return extract_statistics(g, rho, cost_rule("linear"))[0]


def guarantee_config(p0, eps):
    """Grid fine enough that the certified margin fits under alpha."""
    alpha = alpha_eps(p0, eps)
    n = math.ceil(meanfield.derivative_bound(p0) * (1.0 - alpha) / alpha)
    return PlannerConfig(eps=eps, grid_n=n, delta="auto")


def test_config_validation():
    with pytest.raises(PlannerError):
        PlannerConfig(eps=0.0)
    with pytest.raises(PlannerError):
        PlannerConfig(eps=0.1, grid_n=0)
    with pytest.raises(PlannerError):
        PlannerConfig(eps=0.1, delta=-0.1)
    with pytest.raises(PlannerError):
        PlannerConfig(eps=0.1, eta_mode="bogus")
    with pytest.raises(PlannerError):
        PlannerConfig(eps=0.1, fine_m=0)
    assert PlannerConfig(eps=0.1, grid_n=50).audit_points == 500
    assert PlannerConfig(eps=0.1, fine_m=77).audit_points == 77


def test_config_rejects_nan_delta():
    # NaN compares false both ways, so it must not pass as positive
    with pytest.raises(PlannerError, match="Delta must be positive or 'auto'"):
        PlannerConfig(eps=0.1, delta=math.nan)


def test_alpha_eps():
    p = Statistics({AgentType(1, 1, 1, lin(1)): 2 / 3,
                    AgentType(2, 2, 2, lin(2)): 1 / 3})
    # eps * d_min / <d> = 0.2 * 1 / (4/3)
    assert alpha_eps(p, 0.2) == pytest.approx(0.15)
    with pytest.raises(PlannerError, match="in-degree 0"):
        alpha_eps(Statistics({AgentType(0, 2, 1, lin(1)): 1.0}), 0.2)
    with pytest.raises(PlannerError, match="eps must lie in"):
        alpha_eps(p, 0.0)


def test_delta_n():
    p = mixed_quartic()
    alpha = alpha_eps(p, 0.1)
    expect = (1.0 - alpha) / 200 * meanfield.derivative_bound(p)
    assert delta_n(p, 0.1, 100) == pytest.approx(expect)
    with pytest.raises(PlannerError, match="grid size N must be >= 1"):
        delta_n(p, 0.1, 0)


def test_build_lp_structure():
    p0 = mixed_quartic()
    cfg = PlannerConfig(eps=0.1, grid_n=10, delta=0.05)
    model, columns, zs = build_lp(p0, cfg)
    # reductions 1..r for each type: 1 + 2 + 3 variables
    assert len(columns) == 6
    assert model.num_rows == 11 + 3          # grid rows plus one budget per type
    assert zs[0] == 0.0 and zs[-1] == pytest.approx(1.0 - alpha_eps(p0, 0.1))
    # grid rows read lift >= z + Delta - phi0(z), stored negated as A x <= b
    phi0 = meanfield.phi(p0, zs)
    assert np.array_equal(model.rhs[:11], -(zs + 0.05 - phi0))
    for i, (code, eta) in enumerate(columns):
        assert model.rows[:11, i] == pytest.approx(
            -meanfield.coeff_a(p0.types()[code], eta, zs, p0), abs=1e-15)
    # objective carries each type's cost table
    types = p0.types()
    for c, (code, eta) in zip(model.objective, columns):
        assert c == types[code].cost[eta]


@pytest.mark.parametrize("p0, eps", [(mixed_quartic(), 0.1), (powergrid_instance(), 0.3)],
                         ids=["mixed quartic", "power grid"])
def test_build_lp_matches_stacked_blocks(p0, eps):
    # reference: the grid block and the budget block built apart and stacked
    cfg = PlannerConfig(eps=eps, grid_n=20, delta=0.05)
    model, columns, zs = build_lp(p0, cfg)
    owner, eta, cost = planner._variables(p0, cfg.eta_mode)
    phi0, coeffs, _ = meanfield.lift(p0, p0.d[owner], p0.k[owner], p0.r[owner],
                                     eta, zs)
    keep = np.any(coeffs > 0.0, axis=0) | (cost <= 0.0)
    used, row_of = np.unique(owner[keep], return_inverse=True)
    budget_rows = np.zeros((used.size, keep.sum()))
    budget_rows[row_of, np.arange(keep.sum())] = 1.0
    assert np.array_equal(columns, np.column_stack([owner[keep], eta[keep]]))
    assert np.array_equal(model.rows, np.vstack([-coeffs[:, keep], budget_rows]))
    assert np.array_equal(model.rhs, np.concatenate([phi0 - (zs + 0.05), p0.m[used]]))
    assert np.array_equal(model.objective, cost[keep])


def test_build_lp_seed_only():
    p0 = mixed_quartic()
    _, columns, _ = build_lp(p0, PlannerConfig(eps=0.1, grid_n=10, delta=0.05,
                                               eta_mode="seed-only"))
    assert [(p0.r[c], eta) for c, eta in columns.tolist()] == [(1, 1), (2, 2), (3, 3)]


def test_solution_to_intervention_round_trip():
    p0 = mixed_quartic()
    cfg = PlannerConfig(eps=0.1, grid_n=20, delta=0.05)
    model, columns, _ = build_lp(p0, cfg)
    sol = lp.solve(model)
    assert sol.status == "optimal"
    xi = solution_to_intervention(p0, columns, sol.x)
    assert xi.base is p0
    assert np.abs(np.bincount(xi.code, xi.mass, minlength=3) - p0.m).max() <= 1e-12
    assert intervention_cost(xi) == pytest.approx(sol.objective, abs=1e-9)


def test_solution_round_off_is_dropped():
    # a mass far below its type's mass, moved or left over, is the LP's or
    # the subtraction's round-off: it must not add an entry to the plan and
    # with it shift the draws that pick the realized nodes
    p0 = mixed_quartic()
    columns = [(0, 1), (1, 1), (1, 2), (2, 1), (2, 3)]
    clean = solution_to_intervention(p0, columns, [0.3, 0.1, 0.05, 0.0, 0.105])
    residue = solution_to_intervention(
        p0, columns, [0.3 * (1 - 1e-15), 0.1, 0.05, 2e-17, 0.105])
    for a, b in ((clean.code, residue.code), (clean.eta, residue.eta)):
        assert np.array_equal(a, b)
    assert np.abs(clean.mass - residue.mass).max() <= 1e-15
    # 110 nodes: the last type rounds 21.45 and 11.55 nodes, which draws
    type_of = np.repeat(np.arange(3), [33, 44, 33])
    rho = p0.r[type_of]
    for seed in range(5):
        assert np.array_equal(realize_intervention(type_of, rho, clean, seed=seed),
                              realize_intervention(type_of, rho, residue, seed=seed))


def test_plan_reference_instance():
    # the cheapest fix is moving mass of the threshold-1 type down one step
    res = plan(mixed_quartic(), PlannerConfig(eps=0.1, grid_n=100, delta=0.05))
    assert res.cost == pytest.approx(0.05, abs=1e-8)
    assert not res.guarantee_regime
    xi = res.xi
    moved = xi.moved()
    active = {(r, eta): m for r, eta, m in zip(xi.base.r[xi.code[moved]].tolist(),
                                               xi.eta[moved].tolist(),
                                               xi.mass[moved].tolist())}
    assert set(active) == {(1, 1)}
    assert active[(1, 1)] == pytest.approx(0.05, abs=1e-8)
    assert res.grid_margin >= -1e-9
    assert res.relaxed_audit.margin > 0.0
    assert res.original_audit.ok
    assert res.lp.status == "optimal"


def test_plan_guarantee_regime_random():
    rng = np.random.default_rng(41)
    for _ in range(12):
        p0 = random_statistics(rng, max_types=4, k_max=5, d_equals_k=True)
        eps = float(rng.uniform(0.3, 0.6))
        res = plan(p0, guarantee_config(p0, eps))
        assert res.guarantee_regime
        assert res.grid_margin >= -1e-9
        # certified regime implies the continuum constraints hold
        assert res.relaxed_audit.margin > 0.0
        assert res.original_audit.margin > 0.0
        assert np.abs(np.bincount(res.xi.code, res.xi.mass, minlength=p0.m.size)
                      - p0.m).max() <= 1e-12


@pytest.mark.parametrize("eta_mode", ["full", "seed-only"])
def test_grid_margin_is_lift_over_requirement(eta_mode):
    # the grid rows are stored negated: their slack must read as the
    # post-intervention curve minus z + Delta on build_lp's grid
    rng = np.random.default_rng(44)
    for _ in range(8):
        p0 = random_statistics(rng, max_types=5, k_max=8)
        eps = float(rng.uniform(0.3, 0.6))
        delta = float(rng.uniform(0.2, 0.9)) * alpha_eps(p0, eps)
        cfg = PlannerConfig(eps=eps, grid_n=int(rng.integers(10, 40)),
                            delta=delta, eta_mode=eta_mode)
        res = plan(p0, cfg)
        zs = build_lp(p0, cfg)[2]
        lift = meanfield.phi_decomposed(res.xi, zs) - zs - delta
        assert res.grid_margin == pytest.approx(np.min(lift), abs=1e-9)


def test_plan_cost_decreases_with_grid_refinement():
    p0 = Statistics({AgentType(2, 2, 1, lin(1)): 0.4,
                     AgentType(2, 2, 2, lin(2)): 0.6})
    costs = []
    for n in (25, 50, 100, 200):
        res = plan(p0, PlannerConfig(eps=0.45, grid_n=n, delta="auto"))
        costs.append(res.cost)
    assert all(b <= a + 1e-10 for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]


def test_plan_seed_only_never_cheaper():
    rng = np.random.default_rng(42)
    strict = 0
    for _ in range(10):
        p0 = random_statistics(rng, max_types=4, k_max=5, d_equals_k=True)
        eps = float(rng.uniform(0.3, 0.6))
        cfg = guarantee_config(p0, eps)
        full = plan(p0, cfg)
        seed = plan(p0, PlannerConfig(eps=eps, grid_n=cfg.grid_n,
                                      delta="auto", eta_mode="seed-only"))
        assert full.cost <= seed.cost + 1e-9
        if full.cost < seed.cost - 1e-9:
            strict += 1
    assert strict >= 1


def test_build_lp_columns_match_coeff_a():
    rng = np.random.default_rng(43)
    pruned = 0
    for trial in range(12):
        masses = {w: 0.8 * m
                  for w, m in random_statistics(rng, k_max=8).masses.items()}
        # a zero-threshold type (no columns) and a high-degree type whose
        # partial reductions cannot lift the coarsest grid (pruned columns)
        for w in (AgentType(3, 3, 0, (0.0,)), AgentType(40, 40, 3, lin(3))):
            masses[w] = masses.get(w, 0.0) + 0.1
        p0 = Statistics(masses)
        cfg = PlannerConfig(eps=0.2, grid_n=(1, 2, 5)[trial % 3], delta=0.05)
        model, columns, zs = build_lp(p0, cfg)
        n_rows = cfg.grid_n + 1
        assert np.array_equal(model.rhs[:n_rows],
                              -(zs + 0.05 - meanfield.phi(p0, zs)))
        pruned += sum(w.r for w in p0.types()) - len(columns)
        for i, (code, eta) in enumerate(columns):
            w = p0.types()[code]
            assert np.max(np.abs(-model.rows[:n_rows, i]
                                 - meanfield.coeff_a(w, eta, zs, p0))) <= 1e-15
            assert model.objective[i] == w.cost[eta]
            # exactly one budget row holds the column, capped at its type mass
            (j,) = np.flatnonzero(model.rows[n_rows:, i])
            assert model.rows[n_rows + j, i] == 1.0
            assert model.rhs[n_rows + j] == p0.m[code]
    assert pruned > 0


def test_plan_infeasible_reports_grid_points():
    p0 = Statistics({AgentType(2, 2, 2, lin(2)): 1.0})
    # Delta far above alpha: near z = 1 - alpha even full seeding cannot
    # reach z + Delta.  The best single column at full mass is seeding, with
    # lift 1 - z^2 against a need of z + 0.2 - z^2, so every grid point
    # 0.9 i / 50 above z = 0.8 fails; the first five are reported
    with pytest.raises(PlannerError, match="infeasible") as exc:
        plan(p0, PlannerConfig(eps=0.1, grid_n=50, delta=0.2))
    listed = re.search(r"grid points \[(.*)\]", str(exc.value)).group(1)
    assert [float(v) for v in listed.split(",")] == pytest.approx(
        [0.81, 0.828, 0.846, 0.864, 0.882], abs=1e-12)


def test_plan_feasible_iff_delta_within_alpha(monkeypatch):
    # seeding every type makes phi = 1, so the LP is feasible exactly when
    # Delta <= alpha_eps; above it plan() names the grid points with
    # z + Delta > 1 and never calls the solver
    solve, infeasible = lp.solve, []

    def guarded(model):
        assert not infeasible[-1], "lp.solve called with Delta > alpha_eps"
        return solve(model)
    monkeypatch.setattr(lp, "solve", guarded)
    # delta_N = 0.3825 against alpha_eps = 0.1
    cases = [(Statistics({AgentType(2, 2, 2, lin(2)): 1.0}),
              PlannerConfig(eps=0.1, grid_n=20, delta="auto"))]
    rng = np.random.default_rng(2026)
    for i in range(200):
        cases.append((random_statistics(rng, k_max=12),
                      PlannerConfig(eps=0.5, grid_n=int(rng.integers(5, 60)),
                                    delta=float(rng.uniform(0.005, 0.3)),
                                    eta_mode=("full", "seed-only")[i % 2])))
    for p0, cfg in cases:
        alpha = alpha_eps(p0, cfg.eps)
        delta = (delta_n(p0, cfg.eps, cfg.grid_n) if cfg.delta == "auto"
                 else cfg.delta)
        infeasible.append(delta > alpha)
        if not infeasible[-1]:
            assert plan(p0, cfg).lp.status == "optimal"
            continue
        with pytest.raises(PlannerError, match="infeasible") as exc:
            plan(p0, cfg)
        zs = (1.0 - alpha) * np.arange(cfg.grid_n + 1) / cfg.grid_n
        listed = re.search(r"grid points \[(.*)\]", str(exc.value)).group(1)
        assert [float(v) for v in listed.split(",")] == list(zs[zs + delta > 1.0][:5])
    assert 0 < sum(infeasible) < len(cases)


def test_plan_beyond_float_derivative_bound():
    # k_max = 1100 puts 2^(k_max + 1) past the float range: Delta_N is inf
    p0 = Statistics({AgentType(1100, 1100, 2, lin(2)): 1.0})
    res = plan(p0, PlannerConfig(eps=0.1, grid_n=20, delta=0.05))
    assert res.delta_guarantee == math.inf and not res.guarantee_regime
    doc = json.loads(json.dumps(res.to_dict(), allow_nan=False))
    assert doc["delta_N"] is None and "empirical" in doc["regime"]
    assert res.original_audit.ok
    with pytest.raises(PlannerError, match="overflows"):
        plan(p0, PlannerConfig(eps=0.1, grid_n=20, delta="auto"))


def test_audits_flag_inadequate_intervention():
    p0 = mixed_quartic()
    from ltmplan.typestats import null_intervention
    xi = null_intervention(p0)
    rel = audit_relaxed(xi, 0.1, 200)
    orig = audit_original(xi, 0.1, 200)
    # without seeded mass the curve starts on the diagonal at z = 0, so the
    # strict-margin requirement already fails there
    assert not rel.ok and rel.margin <= 0.0
    assert not orig.ok


@pytest.mark.parametrize("p0, cfg", [
    (mixed_quartic(), PlannerConfig(eps=0.1, grid_n=100, delta=0.05)),
    (powergrid_instance(), PlannerConfig(eps=0.3, grid_n=100, delta=0.05)),
], ids=["criterion6", "powergrid"])
def test_audits_share_post_statistics(p0, cfg, post_calls):
    # both audits read the post-intervention statistics off the plan's
    # intervention, built once per intervention; stand-alone calls, on it
    # and on a fresh copy that builds its own, must read the same, and the
    # curve the relaxed audit reads off its table must be phi of those
    # statistics
    res = plan(p0, cfg)
    assert post_calls == [res.xi]
    post = res.xi.post
    m = cfg.audit_points
    fresh = StatIntervention(p0, res.xi.code, res.xi.eta, res.xi.mass)
    for audit, report in ((audit_relaxed, res.relaxed_audit),
                          (audit_original, res.original_audit)):
        for got in (audit(res.xi, cfg.eps, m), audit(fresh, cfg.eps, m)):
            assert got.zmax == pytest.approx(report.zmax, abs=1e-12)
            assert got.margin == pytest.approx(report.margin, abs=1e-12)
            assert got.argmin_z == pytest.approx(report.argmin_z, abs=1e-12)
    assert post_calls == [res.xi, fresh]
    assert res.xi.post is post and fresh.post is not post
    zs = np.linspace(0.0, 1.0 - res.alpha, m + 1)
    direct = meanfield.phi(post, zs)
    assert np.max(np.abs(direct - meanfield.phi_decomposed(res.xi, zs))) < 1e-12
    assert res.relaxed_audit.margin == pytest.approx(np.min(direct - zs), abs=1e-12)
    assert res.relaxed_audit.margin > 0.0


def test_audit_cross_check_fires(monkeypatch):
    # a corrupted coefficient path makes the decomposed curve disagree with
    # the direct one read off the same table
    res = plan(mixed_quartic(), PlannerConfig(eps=0.1, grid_n=100, delta=0.05))
    columns = meanfield._columns
    monkeypatch.setattr(meanfield, "_columns", lambda *a: 1.001 * columns(*a))
    with pytest.raises(PlannerError, match="cross-check"):
        audit_relaxed(res.xi, 0.1, 1000)


@pytest.mark.parametrize("p0, cfg", [
    (mixed_quartic(), PlannerConfig(eps=0.1, grid_n=100, delta=0.05)),
    (powergrid_instance(), PlannerConfig(eps=0.3, grid_n=100, delta=0.05)),
], ids=["criterion6", "powergrid"])
def test_lp_and_audit_each_read_one_tail_table(p0, cfg, monkeypatch):
    # the LP's grid rhs and its columns come off one tail evaluation, and
    # the relaxed audit's two curves off one more
    calls = []
    tail = meanfield._tail
    monkeypatch.setattr(meanfield, "_tail", lambda *a: calls.append(1) or tail(*a))
    model, columns, zs = build_lp(p0, cfg)
    assert len(calls) == 1
    x = lp.solve(model).x
    audit_relaxed(solution_to_intervention(p0, columns, x), cfg.eps, cfg.audit_points)
    assert len(calls) == 2


def test_wrong_lp_columns_fail_the_audit(monkeypatch):
    # the LP's columns and the audit's decomposition come from one routine,
    # so columns that misstate the lift make the plan fail its own audit
    lift = meanfield.lift

    def scaled(*args, **kwargs):
        phi0, columns, post = lift(*args, **kwargs)
        return phi0, 1.001 * columns, post
    monkeypatch.setattr(meanfield, "lift", scaled)
    with pytest.raises(PlannerError, match="cross-check"):
        plan(mixed_quartic(), PlannerConfig(eps=0.1, grid_n=100, delta=0.05))


def test_plan_to_dict_is_json_ready():
    res = plan(mixed_quartic(), PlannerConfig(eps=0.1, grid_n=50, delta=0.05))
    doc = res.to_dict()
    text = json.dumps(doc)
    assert "empirical" in doc["regime"]
    assert doc["cost"] == pytest.approx(res.cost)
    assert json.loads(text)["lp"]["status"] == "optimal"
