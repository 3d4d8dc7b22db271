import logging
import warnings

import numpy as np
import pytest

from conftest import lin
from ltmplan.graph import (GraphError, MultiGraph, active_fraction,
                           apply_intervention, cascade_fractions, check_target,
                           check_thresholds, ltm_step, ltm_trajectory,
                           parse_edge_list)
from ltmplan.sampler import sample_configuration_model
from ltmplan.typestats import AgentType, Statistics


def test_degrees_and_no_self_loops(path3):
    assert list(path3.out_degrees) == [1, 2, 1]
    assert list(path3.in_degrees) == [1, 2, 1]
    assert path3.edge_count == 4
    with pytest.raises(GraphError, match="self-loop"):
        MultiGraph(2, np.array([0, 1]), np.array([1, 1]))
    for n, tails, heads, message in (
            (0, [], [], "at least one node, got n=0"),
            (2, [0, 1], [1], "1-D arrays of equal length"),
            (2, [0, 2], [1, 0], "tail node id out of range"),
            (2, [-1, 1], [1, 0], "tail node id out of range"),
            (2, [2**40, 1], [1, 0], "tail node id out of range"),
            (2, [2**62, 1], [1, 0], "tail node id out of range"),
            (2, [0, 1], [1, -1], "head node id out of range"),
            (2, [0, 1], [2**40, 0], "head node id out of range"),
            (2, [0, 1], [2**62, 0], "head node id out of range")):
        with pytest.raises(GraphError, match=message):
            MultiGraph(n, tails, heads)


@pytest.mark.parametrize("order", ["unsorted", "sorted"])
def test_neighbor_activity_counts_parallel_edges(order):
    # random multigraphs with many parallel edges: the product with the
    # adjacency counts each repeated head once per edge, in either edge order
    rng = np.random.default_rng(31)
    for n in (2, 5, 40):
        tails = rng.integers(0, n, 6 * n)
        heads = (tails + rng.integers(1, n, tails.size)) % n
        if order == "sorted":
            keep = np.argsort(tails, kind="stable")
            tails, heads = tails[keep], heads[keep]
        g = MultiGraph(n, tails, heads)
        dense = np.zeros((n, n), dtype=np.int64)
        np.add.at(dense, (tails, heads), 1)
        for _ in range(3):
            x = rng.integers(0, 2, n)
            assert np.array_equal(g.neighbor_activity(x), dense @ x)
        assert np.array_equal(g.out_degrees, np.bincount(tails, minlength=n))
        assert np.array_equal(g.in_degrees, np.bincount(heads, minlength=n))
        for degrees in (g.out_degrees, g.in_degrees):
            with pytest.raises(ValueError, match="read-only"):
                degrees[0] = 7


def test_graph_leaves_its_inputs_writeable():
    # a writeable input is copied: the caller may still write it, and the
    # graph does not see the write
    for dtype in (np.int64, np.int32):
        tails, heads = np.array([0, 1, 2], dtype=dtype), np.array([1, 2, 0], dtype=dtype)
        g = MultiGraph(3, tails, heads)
        tails[0], heads[0] = 1, 2
        assert tails.flags.writeable and heads.flags.writeable
        assert g.tails.tolist() == [0, 1, 2] and g.heads.tolist() == [1, 2, 0]
        assert g.neighbor_activity(np.array([0, 1, 0])).tolist() == [1, 0, 0]
        for a in (g.tails, g.heads):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
    # a read-only contiguous int64 input is shared as it is
    frozen = np.array([0, 1, 2])
    frozen.setflags(write=False)
    g = MultiGraph(3, frozen, np.array([1, 2, 0]))
    assert g.tails is frozen


def test_graph_equality_is_identity(path3):
    g = MultiGraph(3, [0, 1], [1, 2])
    assert g == g and g != MultiGraph(3, [0, 1], [1, 2])
    assert len({g, path3, g}) == 2


def test_step_sequence(path3):
    rho = np.array([0, 1, 1])
    x = np.zeros(3, dtype=np.int8)
    x = ltm_step(path3, rho, x)
    assert list(x) == [1, 0, 0]
    x = ltm_step(path3, rho, x)
    assert list(x) == [1, 1, 0]
    x = ltm_step(path3, rho, x)
    assert list(x) == [1, 1, 1]


def test_step_zero_thresholds_all_activate(path3):
    out = ltm_step(path3, np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    assert list(out) == [1, 1, 1]


def test_states_may_revert(path3):
    out = ltm_step(path3, np.array([1, 2, 1]), np.array([1, 0, 0]))
    assert list(out) == [0, 0, 0]


def test_step_does_not_mutate_input(path3):
    x = np.zeros(3, dtype=np.int8)
    ltm_step(path3, np.array([0, 1, 1]), x)
    assert list(x) == [0, 0, 0]


def test_trajectory_fixed_point(path3):
    states, fixed, t, _ = ltm_trajectory(path3, np.array([0, 1, 1]),
                                         np.zeros(3), 5)
    assert fixed and t == 3
    assert list(states[-1]) == [1, 1, 1]


def test_trajectory_constant_cases(path3):
    kappa = path3.out_degrees
    states, fixed, t, _ = ltm_trajectory(path3, kappa, np.ones(3), 5)
    assert fixed and t == 0 and list(states[0]) == [1, 1, 1]
    states, fixed, t, _ = ltm_trajectory(path3, np.array([1, 1, 1]), np.zeros(3), 5)
    assert fixed and t == 0 and states[0].sum() == 0


def test_trajectory_rejects_negative_horizon(path3):
    with pytest.raises(GraphError):
        ltm_trajectory(path3, np.zeros(3, dtype=int), np.zeros(3), -1)
    for x0, message in ((np.zeros(2), "state has length 2, expected 3"),
                        (np.array([0, 2, 0]), "entries must be 0 or 1"),
                        (np.array([0, -1, 0]), "entries must be 0 or 1"),
                        (np.array([0, 0.5, 0]), "entries must be 0 or 1"),
                        (np.array([0, np.nan, 0]), "entries must be 0 or 1")):
        with pytest.raises(GraphError, match=message):
            ltm_trajectory(path3, np.zeros(3, dtype=int), x0, 5)


def test_apply_intervention():
    assert list(apply_intervention([2, 1, 0], [1, 0, 0])) == [1, 1, 0]
    assert list(apply_intervention([2, 1, 0], [0, 0, 0])) == [2, 1, 0]
    with pytest.raises(GraphError, match="infeasible"):
        apply_intervention([1, 1], [2, 0])
    with pytest.raises(GraphError, match="length 1 does not match thresholds 2"):
        apply_intervention([1, 1], [1])
    with pytest.raises(GraphError, match="must be non-negative"):
        apply_intervention([1, 1], [-1, 0])


def test_active_fraction():
    assert active_fraction([1, 1, 0, 0]) == 0.5
    assert active_fraction([0, 0]) == 0.0
    assert active_fraction([1, 1, 1]) == 1.0


def test_check_target(path3):
    # reducing only the end node leaves the middle stuck below its threshold
    ok, frac, _ = check_target(path3, np.array([1, 2, 1]), np.array([1, 0, 0]), 0.1)
    assert not ok and frac == pytest.approx(1 / 3)
    # reducing the middle node too lets the cascade complete
    ok, frac, _ = check_target(path3, np.array([1, 2, 1]), np.array([1, 1, 0]), 0.1)
    assert ok and frac == 1.0
    ok, _, _ = check_target(path3, np.array([1, 2, 1]), np.zeros(3, dtype=int), 0.1)
    assert not ok
    ok, _, _ = check_target(path3, np.array([1, 2, 1]), np.zeros(3, dtype=int), 1.0)
    assert ok
    with pytest.raises(GraphError):
        check_target(path3, np.array([1, 2, 1]), np.zeros(3, dtype=int), 0.0)


def _random_graph(rng, n=12, m=30):
    tails = rng.integers(0, n, size=m)
    heads = rng.integers(0, n, size=m)
    keep = tails != heads
    return MultiGraph(n, tails[keep], heads[keep])


def test_step_monotone_in_state():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = _random_graph(rng)
        kappa = g.out_degrees
        rho = rng.integers(0, kappa + 1)
        lo = (rng.random(g.n) < 0.3).astype(np.int8)
        hi = np.maximum(lo, (rng.random(g.n) < 0.3).astype(np.int8))
        out_lo = ltm_step(g, rho, lo)
        out_hi = ltm_step(g, rho, hi)
        assert np.all(out_lo <= out_hi)


def test_trajectory_from_zero_monotone_and_short():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = _random_graph(rng)
        rho = rng.integers(0, g.out_degrees + 1)
        states, fixed, t, _ = ltm_trajectory(g, rho, np.zeros(g.n), g.n)
        assert fixed and t <= g.n
        for a, b in zip(states, states[1:]):
            assert np.all(a <= b)


def test_check_target_without_links():
    # no link to weigh Z by: the cascade reads Z = 0, without a warning
    g = MultiGraph(2, np.array([], dtype=int), np.array([], dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_target(g, np.zeros(2, dtype=int), np.zeros(2, dtype=int), 0.1) \
            == (True, 1.0, 1)
        ys, zs = cascade_fractions(g, np.zeros(2, dtype=int))
    assert ys.tolist() == [0.0, 1.0] and zs.tolist() == [0.0, 0.0]


def _dense_cascade(n, tails, heads, rho):
    """Reference cascade from all-zeros: one dense product per state, Z as
    the share of links whose head is active."""
    adj = np.zeros((n, n), dtype=np.int64)
    np.add.at(adj, (tails, heads), 1)
    states = [np.zeros(n, dtype=np.int64)]
    while True:
        x = (adj @ states[-1] >= rho).astype(np.int64)
        if np.array_equal(x, states[-1]):
            break
        states.append(x)
    links = float(len(tails)) or 1.0
    ys = np.array([np.count_nonzero(x) / n for x in states])
    zs = np.array([x[heads].sum() / links for x in states])
    return ys, zs


@pytest.mark.parametrize("order", ["unsorted", "sorted"])
def test_cascade_matches_dense_reference(order):
    rng = np.random.default_rng(47)
    cases = []
    for n in (3, 9, 60):
        # parallel edges among the first n - 1 nodes; the last is isolated
        tails = rng.integers(0, n - 1, 3 * n)
        heads = (tails + rng.integers(1, n - 1, tails.size)) % (n - 1)
        kappa = np.bincount(tails, minlength=n)
        cases += [(n, tails, heads, rng.integers(0, kappa + 1)),
                  (n, tails, heads, np.zeros(n, dtype=int))]
        # no zero threshold: every node observes at least one link
        ring = np.arange(n)
        t2, h2 = np.concatenate([tails, ring]), np.concatenate([heads, (ring + 1) % n])
        cases.append((n, t2, h2, rng.integers(1, np.bincount(t2, minlength=n) + 1)))
    # 70,000 parallel out-links, all needed: counts cannot be narrower than int32
    many = 70_000
    cases.append((3, np.array([0] * many + [2]), np.array([1] * many + [0]),
                  np.array([many, 0, 1])))
    for n, tails, heads, rho in cases:
        if order == "sorted":
            keep = np.argsort(tails, kind="stable")
            tails, heads = tails[keep], heads[keep]
        ys, zs = cascade_fractions(MultiGraph(n, tails, heads), rho)
        ref_ys, ref_zs = _dense_cascade(n, tails, heads, rho)
        assert np.array_equal(ys, ref_ys) and np.array_equal(zs, ref_zs)
    assert ys.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]


def test_cascade_multiplies_once_per_step(path3, matvec_calls):
    # each product is a step: the first is read off the zero thresholds, and
    # the last confirms the fixed point
    ys, _ = cascade_fractions(path3, np.array([0, 1, 1]))
    assert ys.size - 1 == 3 and len(matvec_calls) == 3
    del matvec_calls[:]
    ys, _ = cascade_fractions(path3, path3.out_degrees)
    assert ys.tolist() == [0.0] and matvec_calls == []


@pytest.mark.parametrize("order", ["unsorted", "sorted"])
def test_trajectory_links_sum_each_product(order, matvec_calls):
    # links[t] is in_degrees . x(t) for exactly the states that were
    # multiplied, in order: all of them at a fixed point, all but the last
    # after a t_max cut-off, none at t_max = 0
    rng = np.random.default_rng(83)
    for n in (4, 11, 50):
        # parallel edges among the first n - 1 nodes; the last is isolated
        tails = rng.integers(0, n - 1, 4 * n)
        heads = (tails + rng.integers(1, n - 1, tails.size)) % (n - 1)
        if order == "sorted":
            keep = np.argsort(tails, kind="stable")
            tails, heads = tails[keep], heads[keep]
        g = MultiGraph(n, tails, heads)
        rho = rng.integers(0, g.out_degrees + 1)
        for x0 in (np.zeros(n), (rng.random(n) < 0.3).astype(np.int8)):
            for t_max in (n, 1, 0):
                del matvec_calls[:]
                states, fixed, t, links = ltm_trajectory(g, rho, x0, t_max)
                assert len(links) == len(matvec_calls) <= t_max
                assert len(links) == len(states) - (not fixed)
                for x, sent, total in zip(states, matvec_calls, links):
                    assert np.array_equal(x, sent)
                    assert type(total) is int and total == g.in_degrees @ x
                if t_max == 0:
                    assert links == [] and t == 0 and not fixed
                elif t_max == n and not x0.any():
                    assert fixed  # from all-zeros, n steps reach the fixed point
    # cut off after two steps: x(2) was never multiplied
    g = MultiGraph(3, [0, 1, 1, 2], [1, 0, 2, 1])
    states, fixed, t, links = ltm_trajectory(g, [0, 1, 1], np.zeros(3), 2)
    assert not fixed and t == 2 and links == [0, 1]
    # a link-free graph sums no link
    g = MultiGraph(3, np.array([], dtype=int), np.array([], dtype=int))
    states, fixed, t, links = ltm_trajectory(g, np.zeros(3, dtype=int), np.zeros(3), 5)
    assert fixed and t == 1 and links == [0, 0]


def test_sampled_cascade_leaves_in_degrees_uncounted():
    p = Statistics({AgentType(2, 2, 1, lin(1)): 0.5,
                    AgentType(3, 3, 0, lin(0)): 0.5})
    g, rho, _, _ = sample_configuration_model(p, 200, seed=3)
    ys, _ = cascade_fractions(g, rho)
    assert ys[-1] > 0.5
    assert "in_degrees" not in vars(g)
    assert np.array_equal(g.in_degrees, np.bincount(g.heads, minlength=g.n))
    assert g.in_degrees is g.in_degrees
    with pytest.raises(ValueError, match="read-only"):
        g.in_degrees[0] = 7


def test_parallel_edges_count_with_multiplicity():
    g1 = MultiGraph(2, np.array([0]), np.array([1]))
    g2 = MultiGraph(2, np.array([0, 0]), np.array([1, 1]))
    x = np.array([0, 1], dtype=np.int8)
    assert g1.neighbor_activity(x)[0] == 1
    assert g2.neighbor_activity(x)[0] == 2
    # threshold 2 is reachable only with the doubled edge
    assert ltm_step(g2, np.array([2, 0]), x)[0] == 1


def test_threshold_validation(path3):
    with pytest.raises(GraphError, match="exceeds out-degree"):
        check_thresholds(path3, np.array([2, 1, 1]))
    clamped = check_thresholds(path3, np.array([2, 3, 1]), clamp=True)
    assert list(clamped) == [1, 2, 1]
    with pytest.raises(GraphError):
        check_thresholds(path3, np.array([-1, 0, 0]))
    with pytest.raises(GraphError, match="length"):
        check_thresholds(path3, np.array([0, 0]))
    with pytest.raises(GraphError, match="must be integers"):
        check_thresholds(path3, np.array([0.5, 0.0, 0.0]))


def test_non_integer_inputs_are_rejected(path3):
    # entries that are not finite whole numbers are named, not truncated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in (
                (lambda: MultiGraph(3, [0.5, 1.7], [1, 2]), "tails must be integers"),
                (lambda: MultiGraph(2, [np.nan, 1], [1, 0]), "tails must be integers"),
                (lambda: MultiGraph(2, [0, 1], [1, np.inf]), "heads must be integers"),
                (lambda: apply_intervention([1, 1, 1], [0.6, 0, 0]),
                 "intervention entries must be integers"),
                (lambda: apply_intervention([1, 1], [np.nan, 0]),
                 "intervention entries must be integers"),
                (lambda: apply_intervention([1.5, 1], [0, 0]), "thresholds must be integers"),
                (lambda: check_thresholds(path3, [np.inf, 0, 0]),
                 "thresholds must be integers")):
            with pytest.raises(GraphError, match=message):
                call()
        # whole-valued floats are the integers they hold
        g = MultiGraph(3, np.array([0.0, 1.0]), [1.0, 2.0])
        assert g.tails.tolist() == [0, 1] and g.heads.tolist() == [1, 2]
        assert apply_intervention([1.0, 1], [1.0, 0]).tolist() == [0, 1]
        assert check_thresholds(path3, [1.0, 0.0, 1.0]).tolist() == [1, 0, 1]


def test_parse_edge_list(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n% other comment\na b\nb c\n\nc a\n")
    g, ids = parse_edge_list(p)
    assert g.n == 3 and g.edge_count == 3
    assert set(ids) == {"a", "b", "c"}

    g2, _ = parse_edge_list(p, undirected=True)
    assert g2.edge_count == 6
    assert np.all(g2.out_degrees == g2.in_degrees)


def test_parse_edge_list_errors(tmp_path, caplog):
    loop = tmp_path / "loop.txt"
    loop.write_text("a b\nc c\n")
    with pytest.raises(GraphError, match="loop.txt:2"):
        parse_edge_list(loop)
    with caplog.at_level(logging.WARNING, logger="ltmplan.graph"):
        g, _ = parse_edge_list(loop, drop_self_loops=True)
    assert g.edge_count == 1
    assert caplog.messages == ["dropped 1 self-loop line(s) from %s" % loop]

    bad = tmp_path / "bad.txt"
    bad.write_text("a b\njusttoken\n")
    with pytest.raises(GraphError, match="bad.txt:2"):
        parse_edge_list(bad)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(GraphError, match="empty"):
        parse_edge_list(empty)
