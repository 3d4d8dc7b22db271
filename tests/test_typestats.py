import collections
import json
import math

import numpy as np
import pytest

from conftest import lin, random_intervention, random_statistics
from ltmplan.graph import MultiGraph
from ltmplan.meanfield import phi, psi
from ltmplan.typestats import (AgentType, StatIntervention, Statistics,
                               StatsError, check_well_posed, cost_rule,
                               extract_statistics, intervention_cost,
                               intervention_from_records,
                               intervention_to_records, null_intervention,
                               post_statistics, statistics_from_records,
                               statistics_to_records, threshold_rule)


def test_agent_type_validation():
    AgentType(2, 3, 2, (0.0, 1.0, 1.5))
    with pytest.raises(StatsError):
        AgentType(2, 3, 4, (0.0, 1.0, 2.0, 3.0, 4.0))   # r > k
    with pytest.raises(StatsError):
        AgentType(2, 3, 1, (1.0, 2.0))                  # c(0) != 0
    with pytest.raises(StatsError):
        AgentType(2, 3, 2, (0.0, 2.0, 1.0))             # decreasing
    with pytest.raises(StatsError):
        AgentType(2, 3, 1, (0.0,))                      # wrong length
    with pytest.raises(StatsError):
        AgentType(2, 3, 1, (0.0, float("nan")))         # not finite
    with pytest.raises(StatsError, match="degrees must be non-negative"):
        AgentType(-1, 3, 1, (0.0, 1.0))
    with pytest.raises(StatsError, match="eta=3 outside 0..r=2"):
        AgentType(2, 3, 2, (0.0, 1.0, 1.5)).reduced(3)


def test_statistics_validation():
    w = AgentType(1, 1, 0, (0.0,))
    with pytest.raises(StatsError):
        Statistics({w: 0.5})
    with pytest.raises(StatsError):
        Statistics({})
    with pytest.raises(StatsError):
        Statistics({w: float("nan")})


def test_statistics_hold_only_positive_masses():
    # a type of mass within MASS_TOL of 0, either side, is round-off: it is
    # dropped where the table is built, so no reader sees it
    w = AgentType(1, 1, 0, (0.0,))
    for rest in ({AgentType(0, 5, 0, (0.0,)): 0.0, AgentType(3, 3, 1, lin(1)): -5e-13},
                 {AgentType(3, 3, 1, lin(1)): 5e-13}):
        p = Statistics({w: 1.0, **rest})
        assert p.types() == p.support() == [w]
        assert p.m.tolist() == [1.0] and p.masses == {w: 1.0}
        assert (p.d_min(), p.d_max(), p.k_max()) == (1, 1, 1)
        # (1, 1, 0) is always active, so both curves are exactly 1
        assert psi(p, 0.5) == 1.0 and phi(p, 0.5) == 1.0


def test_statistics_reject_n_below_one():
    w = AgentType(1, 1, 0, (0.0,))
    for n in (0, -3):
        with pytest.raises(StatsError, match="n must be >= 1"):
            Statistics({w: 1.0}, n=n)


def test_type_table():
    w1, w2 = AgentType(1, 2, 1, lin(1)), AgentType(3, 1, 0, (0.0,))
    p = Statistics({w2: 0.75, w1: 0.25})
    assert p.types() == [w1, w2]
    assert (p.d.tolist(), p.k.tolist(), p.r.tolist()) == ([1, 3], [2, 1], [1, 0])
    assert p.m.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        p.m[0] = 0.5
    # equality is identity: two distributions with the same n are not equal
    assert p != Statistics({w1: 0.5, w2: 0.5}) and p == p


def test_extract_homogeneous():
    # 4-cycle doubled in both directions: every node d = k = 2
    tails = np.array([0, 1, 1, 2, 2, 3, 3, 0])
    heads = np.array([1, 0, 2, 1, 3, 2, 0, 3])
    g = MultiGraph(4, tails, heads)
    p0, type_of = extract_statistics(g, np.ones(4, dtype=int), cost_rule("linear"))
    assert len(p0.masses) == 1
    (w, m), = p0.masses.items()
    assert (w.d, w.k, w.r) == (2, 2, 1) and m == 1.0
    assert all(p0.types()[a] == w for a in type_of)


def test_extract_path(path3):
    p0, _ = extract_statistics(path3, np.array([1, 2, 1]), cost_rule("linear"))
    by_key = {(w.d, w.k, w.r): m for w, m in p0.masses.items()}
    assert by_key == {(1, 1, 1): pytest.approx(2 / 3), (2, 2, 2): pytest.approx(1 / 3)}
    assert p0.counts[p0.types().index(AgentType(1, 1, 1, lin(1)))] == 2
    assert math.fsum(p0.masses.values()) == pytest.approx(1.0, abs=1e-12)


def test_extract_matches_per_node_grouping():
    # extraction groups nodes with one sort; a per-node loop is the
    # reference for the codes, the counts and the masses
    rng = np.random.default_rng(8)
    tails, heads = rng.integers(0, 30, 120), rng.integers(0, 30, 120)
    loop = tails == heads
    g = MultiGraph(30, tails[~loop], heads[~loop])
    rho = rng.integers(0, g.out_degrees + 1)
    p0, type_of = extract_statistics(g, rho, cost_rule("seeding"))
    counts = {}
    for i in range(g.n):
        w = p0.types()[type_of[i]]
        assert (w.d, w.k, w.r) == (g.in_degrees[i], g.out_degrees[i], rho[i])
        assert w.cost == cost_rule("seeding")(w.d, w.k, w.r)
        counts[w] = counts.get(w, 0) + 1
    assert dict(zip(p0.types(), p0.counts.tolist())) == counts
    assert p0.masses == {w: c / g.n for w, c in counts.items()}


class StubGraph:
    """What extraction reads of a network: n and the degree sequences."""

    def __init__(self, in_degrees, out_degrees):
        self.n = in_degrees.size
        self.in_degrees, self.out_degrees = in_degrees, out_degrees


def test_extract_matches_sorted_tuples():
    # degrees near 2**31: a key packed as d * (k_max + 1) * (r_max + 1) + ...
    # overflows int64 there; sorted (d, k, r) tuples are the reference for
    # the type table, the codes and the counts
    rng = np.random.default_rng(12)
    big = 2**31
    for n in (1, 7, 400):
        d = rng.choice([0, 1, 2, 5, big - 1, big, big + 3], n)
        k = rng.choice([3, 4, big - 2, big, big + 1], n)
        r = rng.integers(0, 4, n)
        p0, type_of = extract_statistics(StubGraph(d, k), r, cost_rule("seeding"))
        rows = list(zip(d.tolist(), k.tolist(), r.tolist()))
        table = sorted(set(rows))
        assert [(w.d, w.k, w.r) for w in p0.types()] == table
        assert type_of.tolist() == [table.index(row) for row in rows]
        assert {(w.d, w.k, w.r): c for w, c in zip(p0.types(), p0.counts.tolist())} \
            == collections.Counter(rows)
        assert p0.n == n and p0.m.tolist() == [rows.count(t) / n for t in table]


def test_null_intervention():
    w1 = AgentType(1, 1, 1, lin(1))
    w2 = AgentType(2, 2, 2, lin(2))
    p0 = Statistics({w1: 0.5, w2: 0.5})
    xi = null_intervention(p0)
    assert (xi.code.tolist(), xi.eta.tolist(), xi.mass.tolist()) == \
        ([0, 1], [0, 0], [0.5, 0.5])
    assert intervention_cost(xi) == 0.0
    assert post_statistics(xi).masses == p0.masses


def test_post_statistics_single_shift():
    w = AgentType(2, 2, 2, lin(2))
    p0 = Statistics({w: 1.0})
    xi = StatIntervention.from_masses(p0, {(w, 0): 0.7, (w, 2): 0.3})
    p = post_statistics(xi)
    by_r = {t.r: m for t, m in p.masses.items()}
    assert by_r == {2: pytest.approx(0.7), 0: pytest.approx(0.3)}


def test_post_statistics_mixed_shift():
    w = AgentType(2, 2, 2, lin(2))
    p0 = Statistics({w: 1.0})
    xi = StatIntervention.from_masses(p0, {(w, 0): 0.5, (w, 1): 0.3, (w, 2): 0.2})
    by_r = {t.r: m for t, m in post_statistics(xi).masses.items()}
    assert by_r == {2: pytest.approx(0.5), 1: pytest.approx(0.3),
                    0: pytest.approx(0.2)}


def test_post_statistics_conserves_mass_and_moments():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p0 = random_statistics(rng)
        xi = random_intervention(rng, p0)
        p = post_statistics(xi)
        assert math.fsum(p.masses.values()) == pytest.approx(1.0, abs=1e-12)
        for which in ("d", "k"):
            assert p.moment(which) == pytest.approx(p0.moment(which), abs=1e-12)


def test_post_statistics_rejects_inconsistent_intervention():
    w = AgentType(2, 2, 2, lin(2))
    p0 = Statistics({w: 1.0})
    # conservation is checked once, when the intervention is built
    with pytest.raises(StatsError, match="does not match"):
        StatIntervention.from_masses(p0, {(w, 0): 0.5, (w, 2): 0.3})


def test_intervention_holds_only_positive_masses():
    # conservation is checked over every entry; then only positive ones stay
    w = AgentType(2, 2, 1, lin(1))
    p0 = Statistics({w: 1.0})
    xi = StatIntervention(p0, [0, 0], [0, 1], [1.0, -5e-13])
    assert (xi.code.tolist(), xi.eta.tolist(), xi.mass.tolist()) == ([0], [0], [1.0])
    assert not xi.moved().any()
    with pytest.raises(StatsError, match="does not match"):
        StatIntervention(p0, [0, 0], [0, 1], [0.5, 0.0])


def test_intervention_cost():
    w = AgentType(2, 2, 2, lin(2))
    p0 = Statistics({w: 1.0})
    xi = StatIntervention.from_masses(p0, {(w, 0): 0.5, (w, 1): 0.3, (w, 2): 0.2})
    assert intervention_cost(xi) == pytest.approx(0.7)

    ws = AgentType(2, 2, 2, cost_rule("seeding")(2, 2, 2))
    p0s = Statistics({ws: 1.0})
    assert p0s.cost(0, 1) == 2.0
    xis = StatIntervention.from_masses(p0s, {(ws, 0): 0.5, (ws, 1): 0.3, (ws, 2): 0.2})
    assert intervention_cost(xis) == pytest.approx(1.0)


def test_cost_presets():
    assert cost_rule("linear")(1, 3, 2) == (0.0, 1.0, 2.0)
    assert cost_rule("seeding")(1, 3, 2) == (0.0, 2.0, 2.0)
    assert cost_rule("unit-seeding")(1, 3, 2) == (0.0, 1.0, 1.0)
    with pytest.raises(StatsError):
        cost_rule("nope")


def test_cost_rule_file(tmp_path):
    p = tmp_path / "costs.json"
    p.write_text(json.dumps([{"d": 1, "k": 2, "r": 1, "cost": [0.0, 5.0]}]))
    rule = cost_rule("file:%s" % p)
    assert rule(1, 2, 1) == (0.0, 5.0)
    with pytest.raises(StatsError):
        rule(9, 9, 1)


def record_readers(tmp_path):
    """Each reader of type records, as a function of a record list, and a
    record list it reads: statistics, a null intervention on them, and a
    cost file."""
    p0 = Statistics({AgentType(2, 2, 1, (0.0, 1.0)): 1.0})
    costs = tmp_path / "costs.json"

    def read_cost_file(records):
        costs.write_text(json.dumps(records))
        return cost_rule("file:%s" % costs)
    return [(statistics_from_records, statistics_to_records(p0)),
            (lambda records: intervention_from_records(records, p0),
             intervention_to_records(null_intervention(p0))),
            (read_cost_file, [{"d": 2, "k": 2, "r": 1, "cost": [0.0, 1.0]}])]


@pytest.mark.parametrize("key, value", [
    ("d", 2.7), ("r", True), ("cost", "01"), ("eta", 1.9), ("cost", [0, None]),
], ids=["d 2.7", "r true", 'cost "01"', "eta 1.9", "cost null entry"])
def test_record_readers_take_integers_and_cost_lists(tmp_path, key, value):
    # int() and tuple() would read d 2.7 as 2, r true as 1, eta 1.9 as 1 and
    # the cost "01" as the table (0.0, 1.0)
    for read, records in record_readers(tmp_path):
        if key not in records[0]:
            continue
        for rec in records:
            rec[key] = value
        with pytest.raises(ValueError, match="record 0: %s is" % key) as exc:
            read(records)
        assert type(exc.value) is ValueError


@pytest.mark.parametrize("edit, message", [
    (lambda records: {"types": records}, "must be a list, got dict"),
    (lambda records: [3], "record 0 is not an object"),
    (lambda records: [{k: v for k, v in records[0].items() if k != "k"}],
     "record 0 lacks key 'k'"),
], ids=["not a list", "not an object", "lacking k"])
def test_record_readers_reject_malformed_record_lists(tmp_path, edit, message):
    for read, records in record_readers(tmp_path):
        with pytest.raises(ValueError, match=message) as exc:
            read(edit(records))
        assert type(exc.value) is ValueError


def test_threshold_rules(path3):
    assert list(threshold_rule("half-out-degree")(path3)) == [0, 1, 0]
    draw = threshold_rule("uniform-random", seed=3)
    rho = draw(path3)
    assert np.all(rho >= 1) and np.all(rho <= path3.out_degrees)
    assert list(threshold_rule("uniform-random", seed=3)(path3)) == list(
        threshold_rule("uniform-random", seed=3)(path3))


def test_threshold_rule_file(tmp_path, path3):
    p = tmp_path / "rho.txt"
    p.write_text("1\n2\n1\n")
    assert list(threshold_rule("file:%s" % p)(path3)) == [1, 2, 1]
    p.write_text("1\n2\n")
    with pytest.raises(StatsError):
        threshold_rule("file:%s" % p)(path3)


def test_check_well_posed_from_graph(path3):
    p0, _ = extract_statistics(path3, np.array([1, 2, 1]), cost_rule("linear"))
    assert check_well_posed(path3.n, p0).ok


def test_check_well_posed_degree_bound():
    w = AgentType(3, 3, 0, (0.0,))
    p = Statistics({w: 1.0})
    assert check_well_posed(2, p).degree_bound       # 3 + 3 <= 2 * 3
    assert not check_well_posed(1, p).degree_bound   # 3 + 3 > 1 * 3
    with pytest.raises(StatsError, match="n must be >= 1"):
        check_well_posed(0, p)


def test_check_well_posed_moment_balance():
    p = Statistics({AgentType(2, 3, 0, (0.0,)): 1.0})
    rep = check_well_posed(10, p)
    assert not rep.moment_balance and not rep.ok


def test_moments():
    w = AgentType(3, 3, 0, (0.0,))
    p = Statistics({w: 1.0})
    assert p.moment("d") == 3.0
    assert p.moment("dk") == 9.0
    assert p.nu() == pytest.approx(2.0)

    p2 = Statistics({AgentType(1, 1, 0, (0.0,)): 0.5,
                     AgentType(3, 3, 0, (0.0,)): 0.5})
    assert p2.moment("d") == 2.0
    assert p2.moment("d2") == 5.0
    with pytest.raises(StatsError):
        p2.moment("d3")


def test_serialization_round_trip():
    rng = np.random.default_rng(12)
    p0 = random_statistics(rng)
    doc = json.dumps(statistics_to_records(p0))
    p1 = statistics_from_records(json.loads(doc))
    assert p1.masses == p0.masses

    xi = random_intervention(rng, p0)
    doc = json.dumps(intervention_to_records(xi))
    xi1 = intervention_from_records(json.loads(doc), p0)
    assert xi1.base is p0
    for name in ("code", "eta", "mass"):
        assert getattr(xi1, name).tolist() == getattr(xi, name).tolist()


def test_validate_against_detects_mismatch():
    w = AgentType(2, 2, 1, lin(1))
    p0 = Statistics({w: 1.0})
    other = AgentType(3, 3, 1, lin(1))
    with pytest.raises(StatsError, match="absent"):
        StatIntervention.from_masses(p0, {(other, 0): 1.0})


def test_statistics_counts_by_code():
    w1, w2 = AgentType(1, 1, 1, lin(1)), AgentType(2, 2, 0, (0.0,))
    records = [{"d": 2, "k": 2, "r": 0, "cost": [0.0], "mass": 0.7},
               {"d": 1, "k": 1, "r": 1, "cost": [0.0, 1.0], "mass": 0.3}]
    p = statistics_from_records(records, n=10)
    assert p.types() == [w1, w2] and p.counts.tolist() == [3, 7]
    assert statistics_from_records(records).counts is None
    with pytest.raises(StatsError, match="do not sum to n"):
        statistics_from_records(records, n=5)


def test_statistics_counts_are_whole():
    # masses 0.34 and 0.66 round to 3 and 7 of n = 10 nodes, which sum to
    # n, yet are 3.4 and 6.6 nodes; check_well_posed reads the same rule
    w1, w2 = AgentType(1, 1, 1, lin(1)), AgentType(2, 2, 0, (0.0,))
    with pytest.raises(StatsError, match=r"type \(d=1, k=1, r=1\) has n m = 3\.4"):
        Statistics({w1: 0.34, w2: 0.66}, n=10)
    assert not check_well_posed(10, Statistics({w1: 0.34, w2: 0.66})).integer_masses
    # the round-off of a whole count is that count: 30 * 0.1 = 3.0000000000000004
    p = Statistics({w1: 0.1, w2: 0.9}, n=30)
    assert p.counts.tolist() == [3, 27] and check_well_posed(30, p).integer_masses


@pytest.mark.parametrize("code, eta, message", [
    (5, 0, "type code 5 outside the whole numbers 0..1"),
    (-1, 0, "type code -1 outside the whole numbers 0..1"),
    (1.7, 0, "type code 1.7 outside the whole numbers 0..1"),
    (1, 0.6, r"eta=0\.6, .*: eta outside the whole numbers 0..r")])
def test_intervention_checks_codes_and_depths(code, eta, message):
    w1, w2 = AgentType(1, 1, 1, lin(1)), AgentType(2, 2, 2, lin(2))
    p0 = Statistics({w1: 0.5, w2: 0.5})
    with pytest.raises(StatsError, match=message):
        StatIntervention(p0, [0, code], [0, eta], [0.5, 0.5])
    # whole-valued floats, as a plan's restored eta = 0 entries, are whole
    xi = StatIntervention(p0, np.array([0.0, 1.0]), np.array([1.0, 2.0]), [0.5, 0.5])
    assert xi.code.tolist() == [0, 1] and xi.eta.tolist() == [1, 2]


def test_cost_table_by_code():
    w1, w2 = AgentType(1, 1, 1, (0.0, 3.0)), AgentType(2, 2, 2, (0.0, 1.0, 4.0))
    p = Statistics({w1: 0.5, w2: 0.5})
    assert [p.cost(0, e) for e in range(2)] == [0.0, 3.0]
    assert p.cost(np.array([1, 1, 1, 0]), np.array([0, 1, 2, 1])).tolist() == \
        [0.0, 1.0, 4.0, 3.0]


def test_merge_rule_after_reduction():
    # seeding prices a reduction of (2, 2, 2) at 2, the native (2, 2, 1) type
    # at 1: one step down, the two cost tables differ, so the types stay
    # apart; under linear costs they agree and merge
    for rule, merged in (("seeding", False), ("linear", True)):
        cost = cost_rule(rule)
        high, low = AgentType(2, 2, 2, cost(2, 2, 2)), AgentType(2, 2, 1, cost(2, 2, 1))
        p0 = Statistics({high: 0.5, low: 0.5})
        xi = StatIntervention.from_masses(p0, {(high, 0): 0.3, (high, 1): 0.2,
                                               (low, 0): 0.5})
        post = post_statistics(xi)
        if merged:
            assert post.types() == [low, high]
            assert post.m.tolist() == pytest.approx([0.7, 0.3], abs=1e-15)
        else:
            moved = high.reduced(1)
            assert moved.cost == (0.0, 2.0) != low.cost
            assert post.types() == [low, moved, high]
            assert post.m.tolist() == pytest.approx([0.5, 0.2, 0.3], abs=1e-15)


def test_intervention_rejects_non_finite_mass():
    w = AgentType(2, 2, 1, lin(1))
    p0 = Statistics({w: 1.0})
    for bad in (math.nan, math.inf):
        with pytest.raises(StatsError, match="not finite"):
            StatIntervention.from_masses(p0, {(w, 0): 1.0, (w, 1): bad})


def test_intervention_rejects_duplicate_records():
    rng = np.random.default_rng(13)
    p0 = random_statistics(rng)
    records = intervention_to_records(random_intervention(rng, p0))
    with pytest.raises(StatsError, match="duplicate"):
        intervention_from_records(records + records[:1], p0)


def test_type_messages_name_degrees_not_cost_table():
    # a 200-entry cost table would print 200 floats in an AgentType repr
    w = AgentType(201, 200, 199, lin(199))
    absent = AgentType(202, 200, 199, lin(199))
    p0 = Statistics({w: 1.0})
    failures = [
        (lambda: StatIntervention.from_masses(p0, {(w, 0): 0.5}), "does not match"),
        (lambda: StatIntervention.from_masses(p0, {(w, 0): 1.5, (w, 1): -0.5}),
         "negative"),
        (lambda: StatIntervention.from_masses(p0, {(w, 200): 1.0}), "outside"),
        (lambda: Statistics({w: -0.5, AgentType(1, 1, 0, (0.0,)): 1.5}), "negative"),
        (lambda: statistics_from_records(statistics_to_records(p0) * 2), "duplicate"),
    ]
    for fail, what in failures:
        with pytest.raises(StatsError, match=what) as exc:
            fail()
        text = str(exc.value)
        assert len(text) < 200 and "(d=201, k=200, r=199)" in text, text
    with pytest.raises(StatsError, match="absent") as exc:
        StatIntervention.from_masses(p0, {(w, 0): 1.0, (absent, 0): 0.0})
    text = str(exc.value)
    assert len(text) < 200 and "(d=202, k=200, r=199)" in text, text
