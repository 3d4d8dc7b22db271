import collections
import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import lin
from ltmplan import sampler
from ltmplan.graph import cascade_fractions
from ltmplan.sampler import (SamplerError, _largest_remainder,
                             monte_carlo_validate, realize_intervention,
                             sample_configuration_model, trajectory_table)
from ltmplan.typestats import (AgentType, StatIntervention, Statistics,
                               null_intervention)


def test_largest_remainder_exact_integers():
    rng = np.random.default_rng(51)
    out = _largest_remainder([3.0, 5.0, 2.0], [0, 0, 0], [10], rng)
    assert list(out) == [3, 5, 2]


def test_largest_remainder_sums_and_ranking():
    rng = np.random.default_rng(52)
    out = _largest_remainder([2.7, 4.1, 3.2], [0, 0, 0], [10], rng)
    assert out.sum() == 10
    # the largest remainder (0.7) gets the leftover unit
    assert list(out) == [3, 4, 3]
    out = _largest_remainder([0.5, 0.5], [0, 0], [1], rng)
    assert out.sum() == 1


def test_largest_remainder_handles_overshoot():
    rng = np.random.default_rng(53)
    out = _largest_remainder([2.0, 3.0], [0, 0], [4], rng)
    assert out.sum() == 4 and np.all(out >= 0)


def test_largest_remainder_plan_exact_case():
    w = AgentType(3, 3, 2, lin(2))
    xi = StatIntervention.from_masses(Statistics({w: 1.0}), {(w, 0): 0.7, (w, 1): 0.3})
    counts = _largest_remainder(10 * xi.mass, xi.code, [10], np.random.default_rng(1))
    assert counts.tolist() == [7, 3]      # aligned with the entries (w, 0), (w, 1)


def test_largest_remainder_plan_per_type_totals():
    w1 = AgentType(2, 2, 1, lin(1))
    w2 = AgentType(3, 3, 2, lin(2))
    p = Statistics({w1: 0.6, w2: 0.4})
    xi = StatIntervention.from_masses(p, {(w1, 0): 0.33, (w1, 1): 0.27,
                                          (w2, 0): 0.15, (w2, 2): 0.25})
    counts = _largest_remainder(100 * xi.mass, xi.code, np.rint(100 * p.m),
                                np.random.default_rng(2))
    assert counts[xi.code == 0].sum() == 60
    assert counts[xi.code == 1].sum() == 40


def _one_group_rounding(targets, total, rng):
    """The rounding of one group as it was before groups were rounded in
    one call: the reference rule of the grouped `_largest_remainder`.  Its
    overshoot branch sorted with numpy's default kind, whose order of equal
    remainders depends on the sort kernel (numpy 2.4 on x86-64 puts 0.5 at
    entry 2 before 0.5 at entry 0); here that sort is stable, the order the
    grouped rule keeps."""
    targets = np.asarray(targets, dtype=float)
    nearest = np.round(targets)
    near = np.abs(targets - nearest) <= 1e-9 * np.maximum(1.0, nearest)
    targets = np.where(near, nearest, targets)
    floors = np.floor(targets).astype(np.int64)
    leftover = total - int(floors.sum())
    if leftover < 0:
        order = np.argsort(targets - floors, kind="stable")
        for idx in order:
            if leftover == 0:
                break
            if floors[idx] > 0:
                floors[idx] -= 1
                leftover += 1
    if leftover > 0:
        remainders = targets - floors
        jitter = rng.random(targets.size) * 1e-9
        order = np.argsort(-(remainders + jitter), kind="stable")
        for idx in order[:leftover]:
            floors[idx] += 1
    return floors


def _rounding_case(rng):
    """Targets of 1 to 5 groups of 1 to 8 entries each, in group order,
    and each group's total; group codes may skip a value, whose total is
    then 0.  Targets mix exact ties, integers off by +-1e-12, half-integers
    and plain fractions; totals are the rounded sum, or one unit off it
    either way, or an overshoot of up to three units below the floors."""
    codes = np.flatnonzero(rng.random(7) < 0.6)[:5]
    if not codes.size:
        codes = np.array([0])
    totals = np.zeros(codes[-1] + 1, dtype=np.int64)
    targets, group = [], []
    for code in codes.tolist():
        size = int(rng.integers(1, 9))
        kind = rng.integers(4, size=size)
        base = rng.integers(0, 6, size=size).astype(float)
        tie = rng.choice([0.25, 0.5, 0.75])
        values = np.select([kind == 0, kind == 1, kind == 2],
                           [base + tie, base + rng.choice([-1e-12, 1e-12], size=size),
                            base + 0.5], base + rng.random(size))
        values = np.maximum(values, 0.0)
        total = int(round(values.sum())) + int(rng.integers(-1, 2))
        if rng.random() < 0.25:
            total = int(np.floor(values).sum()) - int(rng.integers(1, 4))
        targets += values.tolist()
        group += [code] * size
        totals[code] = max(total, 0)
    return np.array(targets), np.array(group), totals


def test_largest_remainder_matches_one_group_at_a_time():
    # on seeded random cases the grouped call gives the counts, and leaves
    # the generator where, the reference rule called once per group in
    # group order gives and leaves them
    cases = np.random.default_rng(2024)
    kinds = collections.Counter()
    for seed in range(2000):
        targets, group, totals = _rounding_case(cases)
        grouped_rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
        counts = _largest_remainder(targets, group, totals, grouped_rng)
        expected = np.concatenate([
            _one_group_rounding(targets[group == code], totals[code], reference_rng)
            for code in np.unique(group).tolist()])
        assert counts.tolist() == expected.tolist(), seed
        assert grouped_rng.random() == reference_rng.random(), seed
        floors = np.bincount(group, np.floor(np.round(targets, 9)), totals.size)
        kinds["short"] += bool(np.any(floors < totals))
        kinds["over"] += bool(np.any(floors > totals))
        remainders = np.round(targets, 9) % 1
        kinds["tie"] += len(set(remainders.tolist())) < remainders.size
    # short groups, overshooting groups and exact ties each occur often
    assert kinds["short"] > 1000 and kinds["over"] > 500 and kinds["tie"] > 500, kinds


def test_sample_matches_requested_statistics():
    p = Statistics({AgentType(2, 2, 1, lin(1)): 0.5,
                    AgentType(3, 3, 2, lin(2)): 0.5})
    g, rho, type_of, info = sample_configuration_model(p, 100, seed=7)
    node_types = [p.types()[i] for i in type_of]
    assert g.n == 100
    kappa = np.array([w.k for w in node_types])
    assert np.all(g.out_degrees == kappa)
    assert np.all(g.in_degrees >= 0) and g.in_degrees.sum() == kappa.sum()
    assert np.all(rho == np.array([w.r for w in node_types]))
    assert not np.any(g.tails == g.heads)
    assert sum(1 for w in node_types if w.k == 2) == 50
    assert info.predicted_acceptance == pytest.approx(
        math.exp(-p.moment("dk") / p.moment("d")))


def test_sample_is_reproducible():
    p = Statistics({AgentType(3, 3, 1, lin(1)): 1.0})
    g1, _, _, _ = sample_configuration_model(p, 60, seed=9)
    g2, _, _, _ = sample_configuration_model(p, 60, seed=9)
    assert np.array_equal(g1.tails, g2.tails)
    assert np.array_equal(g1.heads, g2.heads)
    g3, _, _, _ = sample_configuration_model(p, 60, seed=10)
    assert not np.array_equal(g1.heads, g3.heads)
    # attempts spawn child streams; a SeedSequence seed is not advanced
    ss = np.random.SeedSequence(9)
    g4, _, _, _ = sample_configuration_model(p, 60, seed=ss)
    g5, _, _, _ = sample_configuration_model(p, 60, seed=ss)
    assert np.array_equal(g4.heads, g5.heads)


def test_sample_stops_after_max_retries():
    # d = k = 3 accepts about one pairing in e^3: seed 0 needs 19 attempts
    # and seed 1 needs 9.  The same seed draws the same network again, and a
    # budget of one attempt fewer finds none
    p = Statistics({AgentType(3, 3, 1, lin(1)): 1.0})
    for seed in (0, 1):
        runs = []
        for _ in range(2):
            runs.append(sample_configuration_model(p, 200, seed=seed))
            attempts = runs[-1][3].attempts
            with pytest.raises(SamplerError, match="in %d draws" % (attempts - 1)):
                sample_configuration_model(p, 200, seed=seed,
                                           max_retries=attempts - 1)
        (g1, rho1, types1, info1), (g2, rho2, types2, info2) = runs
        assert info1.attempts == info2.attempts > 4
        assert np.array_equal(g1.tails, g2.tails)
        assert np.array_equal(g1.heads, g2.heads)
        assert np.array_equal(rho1, rho2)
        assert [p.types()[i] for i in types1] == [p.types()[i] for i in types2]


def test_sample_is_uniform_over_loop_free_pairings():
    # two nodes of (d, k) = (2, 1) and two of (1, 2): of the 720 permutations
    # of the 6 in-stubs, 176 are loop-free and give 16 distinct edge
    # multisets with unequal probabilities; the sampler must draw them in
    # exactly those proportions
    p = Statistics({AgentType(2, 1, 1, lin(1)): 0.5,
                    AgentType(1, 2, 1, lin(1)): 0.5})
    _, _, type_of, _ = sample_configuration_model(p, 4, seed=0)
    node_types = [p.types()[i] for i in type_of]
    tails = np.repeat(np.arange(4), [w.k for w in node_types])
    heads_base = np.repeat(np.arange(4), [w.d for w in node_types])

    def multiset(tails, heads):
        return tuple(sorted(zip(tails.tolist(), heads.tolist())))

    law = collections.Counter()
    for perm in itertools.permutations(range(heads_base.size)):
        heads = heads_base[list(perm)]
        if not np.any(tails == heads):
            law[multiset(tails, heads)] += 1
    assert sum(law.values()) == 176 and len(law) == 16
    draws = 2000
    seen = collections.Counter()
    for s in range(draws):
        g, _, _, _ = sample_configuration_model(p, 4, seed=s)
        seen[multiset(g.tails, g.heads)] += 1
    assert set(seen) <= set(law)
    keys = sorted(law)
    expected = [draws * law[k] / 176 for k in keys]
    _, pvalue = chisquare([seen[k] for k in keys], expected)
    assert pvalue > 1e-3


@pytest.mark.parametrize("out_deg, in_deg, groups, outcomes", [
    ((2, 1, 2, 1, 1), (1, 2, 1, 2, 1), 2, 328),
    # the last group has no in-stubs
    ((2, 2, 2, 3), (3, 3, 3, 0), 3, 174),
])
def test_grouped_pairing_is_uniform_over_loop_free_pairings(
        monkeypatch, out_deg, in_deg, groups, outcomes):
    # GROUP_COST = 1 splits the m stubs into isqrt(m) groups, the most the
    # rule allows.  Every loop-free sequence of in-stub nodes along the
    # out-stubs must be drawn equally often, and an attempt must be accepted
    # with the exact loop-free share of all sequences
    monkeypatch.setattr(sampler, "GROUP_COST", 1)
    pairing = sampler._Pairing(np.array(out_deg), np.array(in_deg))
    assert pairing.out_at.size == groups + 1
    tails = pairing.tails
    sequences = set(itertools.permutations(pairing.heads_base.tolist()))
    law = sorted(s for s in sequences if not np.any(tails == np.array(s)))
    assert len(law) == outcomes
    rng = np.random.default_rng(17)
    draws = 10 * outcomes
    seen = collections.Counter()
    attempts = 0
    while sum(seen.values()) < draws:
        attempts += 1
        heads = pairing.draw(rng)
        if heads is not None:
            seen[tuple(heads.tolist())] += 1
    assert set(seen) <= set(law)
    _, pvalue = chisquare([seen[s] for s in law])
    assert pvalue > 1e-3
    exact = outcomes / len(sequences)
    assert abs(draws / attempts - exact) < 4 * math.sqrt(exact * (1 - exact) / attempts)


def test_grouped_pairing_acceptance_law(monkeypatch):
    # d = k = 4 at n = 2,000 split into 16 groups: an attempt that stops at
    # its first loop must still be accepted with probability e^-4
    monkeypatch.setattr(sampler, "GROUP_COST", 31)
    degrees = np.full(2000, 4)
    pairing = sampler._Pairing(degrees, degrees)
    assert pairing.out_at.size - 1 >= 16
    rng = np.random.default_rng(18)
    attempts = 10_000
    accepted = sum(pairing.draw(rng) is not None for _ in range(attempts))
    law = math.exp(-4.0)
    assert abs(accepted / attempts - law) < 4 * math.sqrt(law * (1 - law) / attempts)


def enumerated_loop_free(out_nodes, in_nodes, n):
    """Share of the pairs (n-subset of the out-stubs, ordered n-sequence of
    distinct in-stubs) that join no node to itself."""
    good = total = 0
    for outs in itertools.combinations(out_nodes, n):
        for ins in itertools.permutations(in_nodes, n):
            total += 1
            good += all(u != v for u, v in zip(outs, ins))
    return good / total


@pytest.mark.parametrize("runs", [
    # (out-degree, in-degree, nodes): multi-stub nodes, a node without
    # in-stubs, a repeated (k, d) pair, and a group in which every matching
    # of all three in-stubs holds a loop
    [(2, 1, 1), (1, 3, 1), (2, 0, 1), (0, 1, 1)],
    [(3, 2, 1), (1, 1, 1), (2, 0, 1)],
    [(2, 2, 3), (1, 0, 1)],
    [(3, 2, 1), (1, 1, 1)],
])
def test_loop_free_probability_matches_enumeration(runs):
    out_nodes, in_nodes = [], []
    for node, (k, d, _) in enumerate(r for r in runs for _ in range(r[2])):
        out_nodes += [node] * k
        in_nodes += [node] * d
    a, b = len(out_nodes), len(in_nodes)
    loop_free = sampler._LoopFree(runs, a, b, group=0)
    for n in range(min(a, b) + 1):
        assert abs(loop_free(n) - enumerated_loop_free(out_nodes, in_nodes, n)) < 1e-12, n


def test_loop_free_probability_refuses_round_off():
    # 200 nodes of d = k = 20 in one group: a block of N stub pairs expects
    # N / 200 loops, and the alternating sum cancels to round-off well
    # before N = 4,000 (20 loops); a draw must raise rather than accept
    loop_free = sampler._LoopFree([(20, 20, 200)], 4000, 4000, group=3)
    assert loop_free(600) == pytest.approx(math.exp(-3.0), rel=0.05)
    with pytest.raises(SamplerError, match="group 3: .* 10 loops expected"):
        loop_free(2000)


@pytest.mark.parametrize("out_deg, in_deg, groups", [
    # d = k = 7 at n = 300 expects 7 loops in all and d = k = 20 at
    # n = 200 expects 20, both in one group by stub count alone
    (np.full(300, 7), np.full(300, 7), 3),
    (np.full(200, 20), np.full(200, 20), 7),
    # 20 hubs of d = k = 30 before 980 nodes of d = k = 2: the group that
    # holds the hubs expects most of the 8.6 loops
    (np.repeat([30, 2], [20, 980]), np.repeat([30, 2], [20, 980]), 11),
])
def test_pairing_bounds_loops_per_block(out_deg, in_deg, groups):
    # groups are added until no diagonal block expects more than
    # LOOPS_PER_BLOCK loops at its typical size, sum_u k_u d_u / m, which
    # keeps every q a draw meets in its trusted range: no draw raises
    pairing = sampler._Pairing(out_deg, in_deg)
    m = pairing.tails.size
    assert pairing.out_at.size - 1 == groups
    for start, end in zip(pairing.out_at[:-1], pairing.out_at[1:]):
        assert in_deg[pairing.tails[start:end]].sum() <= sampler.LOOPS_PER_BLOCK * m
    rng = np.random.default_rng(22)
    for _ in range(1000):
        pairing.draw(rng)


def test_sample_with_many_loops_per_network():
    # d = k = 7 at n = 300 accepts about one pairing in e^7 = 1,097
    p = Statistics({AgentType(7, 7, 1, lin(1)): 1.0})
    for seed in range(4):
        g, _, _, info = sample_configuration_model(p, 300, seed=seed,
                                                   max_retries=10_000)
        assert not np.any(g.tails == g.heads)
        assert np.all(g.out_degrees == 7) and np.all(g.in_degrees == 7)
        assert 1 < info.attempts < 10_000


class CountingGenerator:
    """Forwards to a Generator and counts the methods called on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def test_rejected_draw_samples_no_stubs(monkeypatch):
    # a rejected table costs table rows and Bernoulli draws only; the stubs
    # of an accepted one are drawn block by block
    monkeypatch.setattr(sampler, "GROUP_COST", 31)
    degrees = np.full(2000, 4)
    pairing = sampler._Pairing(degrees, degrees)
    rng = CountingGenerator(np.random.default_rng(19))
    rejected = 0
    while True:
        rng.calls.clear()
        heads = pairing.draw(rng)
        if heads is not None:
            break
        rejected += 1
        assert rng.calls["choice"] == 0 and rng.calls["multivariate_hypergeometric"] >= 1
    assert rejected > 0
    assert rng.calls["choice"] >= 2 * (pairing.out_at.size - 1)


def test_deal_by_rows_matches_stable_sort():
    # stubs laid out by column blocks reach the row blocks in the order a
    # stable sort on their row labels gives
    rng = np.random.default_rng(23)
    for groups in (1, 2, 5, 19):
        table = rng.integers(0, 4, size=(groups, groups))
        table[rng.random(table.shape) < 0.3] = 0
        np.fill_diagonal(table, 0)
        stubs = rng.permutation(int(table.sum()) + 5)[:table.sum()]
        row = np.repeat(np.tile(np.arange(groups), groups), table.T.ravel())
        assert np.array_equal(sampler._deal_by_rows(stubs, table),
                              stubs[np.argsort(row, kind="stable")])


def test_sample_rejects_unbalanced_statistics():
    p = Statistics({AgentType(1, 3, 1, lin(1)): 1.0})  # <d> != <k>
    with pytest.raises(SamplerError, match="not realizable"):
        sample_configuration_model(p, 50, seed=1)
    # balanced in the mean, but 3 nodes round to two of one type and one of
    # the other
    p = Statistics({AgentType(1, 2, 1, lin(1)): 0.5, AgentType(2, 1, 1, lin(1)): 0.5})
    with pytest.raises(SamplerError,
                       match=r"stub imbalance after rounding: (5 out vs 4|4 out vs 5) in"):
        sample_configuration_model(p, 3, seed=1)


def test_sample_without_links():
    # <d> = 0: no stub to pair, so the first attempt is loop-free
    p = Statistics({AgentType(0, 0, 0, (0.0,)): 1.0})
    g, rho, type_of, info = sample_configuration_model(p, 5, seed=1)
    assert (g.n, g.edge_count) == (5, 0)
    assert list(rho) == [0] * 5 and list(type_of) == [0] * 5
    assert info.attempts == 1 and info.predicted_acceptance == 1.0


def test_sample_acceptance_law():
    # single type d = k = 3: the measured no-self-loop acceptance follows
    # exp(-<dk>/<d>) = e^-3, an order of magnitude below exp(-nu/2) = e^-1
    p = Statistics({AgentType(3, 3, 1, lin(1)): 1.0})
    attempts = []
    for s in range(120):
        _, _, _, info = sample_configuration_model(p, 200, seed=1000 + s)
        attempts.append(info.attempts)
    mean_attempts = float(np.mean(attempts))
    assert 1.0 / math.exp(-3.0) * 0.6 < mean_attempts < 1.0 / math.exp(-3.0) * 1.6
    assert mean_attempts > 2.0 / math.exp(-1.0)  # far off the e^-1 prediction


def test_realize_intervention():
    p = Statistics({AgentType(2, 2, 2, lin(2)): 0.5,
                    AgentType(3, 3, 1, lin(1)): 0.5})
    g, rho, type_of, _ = sample_configuration_model(p, 40, seed=11)
    w = AgentType(2, 2, 2, lin(2))
    xi = StatIntervention.from_masses(p, {(w, 0): 0.3, (w, 1): 0.1, (w, 2): 0.1,
                                          (AgentType(3, 3, 1, lin(1)), 0): 0.5})
    h = realize_intervention(type_of, rho, xi, seed=12)
    assert np.all(h <= rho) and np.all(h >= 0)
    reduced = {eta: 0 for eta in (1, 2)}
    for i in range(g.n):
        w_i = p.types()[type_of[i]]
        if h[i] > 0:
            assert w_i == w
            reduced[h[i]] += 1
    assert reduced == {1: 4, 2: 4}  # 0.1 * 40 nodes at each depth
    # the same plan on thresholds of 1: a reduction by 2 overshoots them
    with pytest.raises(SamplerError, match="realized intervention exceeds thresholds"):
        realize_intervention(type_of, np.ones_like(rho), xi, seed=12)


def test_realize_intervention_ignores_round_off():
    # 100 * (0.17 - 1e-12) is 16.9999999999, LP round-off of 17 nodes: it
    # must not draw a leftover node, which would shift every later pick
    w = AgentType(3, 3, 2, lin(2))
    p = Statistics({w: 1.0})
    picks = []
    for delta in (0.0, 1e-12):
        xi = StatIntervention.from_masses(p, {(w, 0): 0.83 + delta,
                                              (w, 1): 0.17 - delta})
        picks.append(realize_intervention(np.zeros(100, dtype=np.int64),
                                          np.full(100, 2), xi, seed=19))
    assert np.count_nonzero(picks[0]) == 17
    assert np.array_equal(picks[0], picks[1])


def test_realize_intervention_is_uniform():
    # 4 nodes of one type rounded to 2 at eta 0, 1 at eta 1 and 1 at eta 2:
    # each of the 4! / 2! = 12 assignments is equally likely
    w = AgentType(2, 2, 2, lin(2))
    xi = StatIntervention.from_masses(Statistics({w: 1.0}),
                                      {(w, 0): 0.5, (w, 1): 0.25, (w, 2): 0.25})
    seen = collections.Counter(
        tuple(realize_intervention(np.zeros(4, dtype=np.int64), np.full(4, 2), xi,
                                   seed=s).tolist())
        for s in range(6000))
    assert set(seen) == set(itertools.permutations((0, 0, 1, 2)))
    assert chisquare(list(seen.values())).pvalue > 1e-3


def test_realize_intervention_rejects_surplus_nodes():
    # a 6/4 network under a plan that rounds to 5/5: not the network the
    # plan was computed for, although its one eta = 1 node of the first
    # type is available; the short type is named first
    first, second = AgentType(2, 2, 2, lin(2)), AgentType(3, 3, 1, lin(1))
    p = Statistics({first: 0.5, second: 0.5})
    xi = StatIntervention.from_masses(p, {(first, 0): 0.4, (first, 1): 0.1,
                                          (second, 0): 0.5})
    type_of = np.repeat([0, 1], [6, 4])
    with pytest.raises(SamplerError, match=r"asks for 5 nodes of type \(d=3, k=3, "
                                           r"r=1\), only 4 available"):
        realize_intervention(type_of, np.full(10, 2), xi, seed=14)
    # three types of mass 1/3 round to 3 nodes each on 10: the fourth node
    # of the first type is a surplus, with no shortage elsewhere
    types = [AgentType(2, 2, 1, lin(1)), first, second]
    p = Statistics({w: 1 / 3 for w in types})
    xi = StatIntervention.from_masses(p, {(w, 1): 1 / 3 for w in types})
    with pytest.raises(SamplerError, match=r"places 3 nodes of type \(d=2, k=2, "
                                           r"r=1\), the network has 4"):
        realize_intervention(np.repeat([0, 1, 2], [4, 3, 3]), np.full(10, 2), xi)


def test_realize_intervention_rejects_missing_nodes():
    # p's second type has mass, but no node of the network has that type
    first, second = AgentType(2, 2, 2, lin(2)), AgentType(3, 3, 1, lin(1))
    p = Statistics({first: 0.5, second: 0.5})
    xi = StatIntervention.from_masses(p, {(first, 0): 0.5, (second, 1): 0.5})
    type_of = np.zeros(10, dtype=np.int64)
    with pytest.raises(SamplerError, match=r"type \(d=3, k=3, r=1\), only 0 available"):
        realize_intervention(type_of, np.full(10, 2), xi, seed=14)


@pytest.mark.parametrize("type_of", [[0, 0, 0, 1, 1, 1, 2, 2, 2, 5],
                                     [0, 0, 0, 1, 1, 1, 2, 2, 2, -1]],
                         ids=["code past the table", "negative code"])
def test_realize_checks_type_codes(type_of):
    # three types of mass 1/3: codes 0, 1 and 2 are the only ones
    types = [AgentType(2, 2, 1, lin(1)), AgentType(2, 2, 2, lin(2)),
             AgentType(3, 3, 1, lin(1))]
    xi = null_intervention(Statistics({w: 1 / 3 for w in types}))
    with pytest.raises(SamplerError, match=r"type codes must lie in 0\.\.2"):
        realize_intervention(np.array(type_of), np.full(10, 2), xi, seed=3)


def test_cascade_fractions(path3):
    ys, zs, fixed = cascade_fractions(path3, np.array([0, 1, 1]))
    assert fixed
    assert ys == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
    # links weighted by in-degree: middle node holds half of them
    assert zs == pytest.approx([0.0, 0.25, 0.75, 1.0])


def test_trajectory_table_holds_shorter_trajectory():
    rec = [(0.0, 0.0), (0.5, 0.25), (0.75, 0.5), (0.875, 0.75)]
    table = trajectory_table(np.array([0.0, 1.0]), np.array([0.0, 1.0]), rec)
    assert table.tolist() == [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.25, 0.5],
                              [1.0, 1.0, 0.5, 0.75], [1.0, 1.0, 0.75, 0.875]]
    assert trajectory_table(np.zeros(6), np.ones(6), rec)[4:, 2:].tolist() \
        == [[0.75, 0.875]] * 2


def test_monte_carlo_tracks_recursion():
    p0 = Statistics({AgentType(3, 3, 0, (0.0,)): 0.2,
                     AgentType(3, 3, 1, lin(1)): 0.8})
    rep = monte_carlo_validate(null_intervention(p0), n=20_000,
                               replicates=3, eps=0.1, seed=15)
    assert rep.replicates == 3
    assert rep.success_rate == 1.0
    assert rep.sup_dev_y < 0.02 and rep.sup_dev_z < 0.02
    assert np.all(rep.final_fractions > 0.99)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["success_rate"] == 1.0
    assert len(doc["attempts"]) == 3 and min(doc["attempts"]) >= 1
    assert doc["mean_attempts"] == pytest.approx(np.mean(doc["attempts"]))
    assert doc["predicted_acceptance"] == pytest.approx(math.exp(-3.0))


def test_monte_carlo_reads_its_tables():
    # final fractions and sup deviations are read off the per-replicate
    # run-versus-recursion tables
    p0 = Statistics({AgentType(3, 3, 0, (0.0,)): 0.2,
                     AgentType(3, 3, 1, lin(1)): 0.8})
    rep = monte_carlo_validate(null_intervention(p0), n=2_000,
                               replicates=2, eps=0.1, seed=17)
    assert len(rep.tables) == 2
    assert [t[-1, 0] for t in rep.tables] == list(rep.final_fractions)
    for col, sup in ((0, rep.sup_dev_y), (1, rep.sup_dev_z)):
        assert sup == max(np.abs(t[:, col] - t[:, col + 2]).max() for t in rep.tables)


def test_monte_carlo_reports_compare_by_identity():
    p0 = Statistics({AgentType(3, 3, 0, (0.0,)): 0.2,
                     AgentType(3, 3, 1, lin(1)): 0.8})
    one, other = (monte_carlo_validate(null_intervention(p0), n=200, replicates=1,
                                       eps=0.1, seed=18) for _ in range(2))
    assert one == one and one != other and len({one, other}) == 2


@pytest.mark.parametrize("eps", [0.0, 1.5, math.nan])
def test_monte_carlo_rejects_eps_outside_unit_interval(monkeypatch, eps):
    # checked before any network is sampled
    monkeypatch.setattr(sampler, "sample_configuration_model",
                        lambda *args, **kwargs: pytest.fail("sampled a network"))
    p0 = Statistics({AgentType(3, 3, 1, lin(1)): 1.0})
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
        monte_carlo_validate(null_intervention(p0), n=200, replicates=1, eps=eps)


def test_monte_carlo_shares_one_pairing(monkeypatch):
    # replicates that round to the same type counts (n * p_w are integers
    # here) set up one pairing, and each draws the network, thresholds and
    # attempts that sampling alone draws on its child seed
    built, runs = [], []

    class Counted(sampler._Pairing):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    def recorded(g, rho):
        runs.append((g, rho))
        return cascade_fractions(g, rho)
    monkeypatch.setattr(sampler, "_Pairing", Counted)
    monkeypatch.setattr(sampler, "cascade_fractions", recorded)
    xi = null_intervention(Statistics({AgentType(3, 3, 0, (0.0,)): 0.2,
                                       AgentType(3, 3, 1, lin(1)): 0.8}))
    rep = monte_carlo_validate(xi, n=2_000, replicates=4, eps=0.1, seed=21)
    assert len(built) == 1
    assert len(runs) == 4 and max(rep.attempts) > 1
    for (g, rho), attempts, child in zip(runs, rep.attempts,
                                         np.random.SeedSequence(21).spawn(4)):
        want, want_rho, _, info = sample_configuration_model(xi.post, 2_000, seed=child)
        assert np.array_equal(g.tails, want.tails)
        assert np.array_equal(g.heads, want.heads)
        assert np.array_equal(rho, want_rho)
        assert attempts == info.attempts


def test_pairing_keeps_one_table_per_group():
    # d = k = 4 at n = 1e4: 6 groups of two compositions (their node counts
    # differ by one); each group holds its own table, so a round-off error
    # names the group it happened in
    degrees = np.full(10_000, 4)
    pairing = sampler._Pairing(degrees, degrees)
    assert len(pairing.loop_free) == 6
    assert len({(t.most, tuple(t.rook)) for t in pairing.loop_free}) == 2
    assert [t.group for t in pairing.loop_free] == list(range(6))


def test_sampled_graphs_share_the_pairing_tails():
    # the pairing's stub lists are frozen when built, so every graph drawn
    # from one pairing holds its tails uncopied
    p = Statistics({AgentType(3, 3, 1, lin(1)): 1.0})
    pairings = {}
    graphs = [sample_configuration_model(p, 200, seed=seed, _pairings=pairings)[0]
              for seed in (1, 2)]
    (pairing,) = pairings.values()
    assert np.shares_memory(graphs[0].tails, graphs[1].tails)
    assert np.shares_memory(graphs[0].tails, pairing.tails)
    assert not np.shares_memory(graphs[0].heads, graphs[1].heads)


def test_loop_free_memo_keeps_its_values():
    # a memoized q(N) is the float a fresh table computes, on first and on
    # repeated calls; N = most + 1 holds no loop-free matching
    runs, a, b = [(4, 4, 60), (2, 3, 40)], 320, 360
    memo = sampler._LoopFree(runs, a, b, group=0)
    sizes = list(range(memo.most + 2))
    for n in sizes + sizes[::-1]:
        assert memo(n) == sampler._LoopFree(runs, a, b, group=0)(n), n
    assert memo(memo.most + 1) == 0.0


def test_loop_free_memo_raises_again():
    # a block whose q is lost to round-off raises on every call
    loop_free = sampler._LoopFree([(20, 20, 200)], 4000, 4000, group=3)
    for _ in range(2):
        with pytest.raises(SamplerError, match="group 3: .* 10 loops expected"):
            loop_free(2000)


def test_monte_carlo_detects_failure():
    # thresholds at the out-degree: nothing ever activates
    p0 = Statistics({AgentType(3, 3, 3, lin(3)): 1.0})
    rep = monte_carlo_validate(null_intervention(p0), n=2_000,
                               replicates=2, eps=0.1, seed=16)
    assert rep.success_rate == 0.0
    assert np.all(rep.final_fractions == 0.0)
    # no replicates would leave the success rate undefined
    with pytest.raises(ValueError, match="replicates"):
        monte_carlo_validate(null_intervention(p0), n=2_000, replicates=0, eps=0.1)
