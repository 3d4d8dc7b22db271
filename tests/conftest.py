import numpy as np
import pytest

from ltmplan import typestats
from ltmplan.typestats import AgentType, Statistics, StatIntervention


def lin(r):
    """Linear cost table c(eta) = eta."""
    return tuple(float(e) for e in range(r + 1))


def random_cost(rng, r):
    """Random non-decreasing cost table with c(0) = 0."""
    steps = rng.uniform(0.0, 2.0, size=r)
    return (0.0,) + tuple(np.cumsum(steps))


def random_statistics(rng, max_types=6, k_max=8, d_equals_k=False, d_min=1):
    """Random type distribution with positive in-degrees."""
    nt = int(rng.integers(2, max_types + 1))
    masses = rng.dirichlet(np.ones(nt))
    types = {}
    for m in masses:
        k = int(rng.integers(1, k_max + 1))
        d = k if d_equals_k else int(rng.integers(d_min, k_max + 1))
        r = int(rng.integers(0, k + 1))
        w = AgentType(d, k, r, random_cost(rng, r))
        types[w] = types.get(w, 0.0) + float(m)
    return Statistics(types)


def random_intervention(rng, p0):
    """Random valid intervention: per type, a Dirichlet split over 0..r."""
    masses = {}
    for w in p0.types():
        split = rng.dirichlet(np.ones(w.r + 1)) * p0.masses[w]
        for eta, m in enumerate(split):
            masses[(w, eta)] = float(m)
    return StatIntervention.from_masses(p0, masses)


@pytest.fixture
def post_calls(monkeypatch):
    """The interventions `typestats.post_statistics` is called on, in order,
    while the test runs."""
    calls = []
    build = typestats.post_statistics

    def counted(xi):
        calls.append(xi)
        return build(xi)
    monkeypatch.setattr(typestats, "post_statistics", counted)
    return calls


@pytest.fixture
def matvec_calls(monkeypatch):
    """The states `MultiGraph.neighbor_activity` multiplies, in order, while
    the test runs: one entry per sparse product."""
    from ltmplan.graph import MultiGraph
    calls = []
    product = MultiGraph.neighbor_activity

    def counted(g, x):
        calls.append(x)
        return product(g, x)
    monkeypatch.setattr(MultiGraph, "neighbor_activity", counted)
    return calls


@pytest.fixture
def path3():
    """3-node path with bidirected edges 0-1, 1-2; kappa = delta = (1, 2, 1)."""
    from ltmplan.graph import MultiGraph
    return MultiGraph(3, np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]))
