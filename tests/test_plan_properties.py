"""Property suite: `ltmplan plan` on extreme statistics documents either
plans (exit 0) or fails in the plan stage with one stderr line (exit 4); it
never raises.  On small directed and undirected edge lists, with computed,
drawn, file or clamped file thresholds and preset or file costs, every plan
that `stats -> plan` makes is realized by `validate --edges` at any pick
seed; a cost file that lacks a node's type stops `stats` with one line that
names the type."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ltmplan.cli import (EXIT_OK, EXIT_PLAN, EXIT_STATS,  # noqa: E402
                         EXIT_VALIDATE, main)
from ltmplan.planner import alpha_eps  # noqa: E402
from ltmplan.typestats import statistics_from_records  # noqa: E402


@st.composite
def type_records(draw):
    k = draw(st.one_of(st.integers(0, 12), st.integers(0, 100_000)))
    r = draw(st.integers(0, min(k, 3)))
    d = draw(st.one_of(st.just(0), st.just(k), st.integers(1, 12),
                       st.integers(1, 100_000)))
    steps = draw(st.lists(st.floats(0.0, 5.0), min_size=r, max_size=r))
    cost = [0.0]
    for s in steps:
        cost.append(cost[-1] + s)
    return {"d": d, "k": k, "r": r, "cost": cost}


@st.composite
def statistics_docs(draw):
    types = draw(st.lists(type_records(), min_size=1, max_size=4,
                          unique_by=lambda t: (t["d"], t["k"], t["r"], tuple(t["cost"]))))
    # near-degenerate masses: weights spanning 16 orders of magnitude
    weights = draw(st.lists(st.one_of(st.floats(1e-16, 1.0), st.just(0.0)),
                            min_size=len(types), max_size=len(types)))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    total = sum(weights)
    for rec, w in zip(types, weights):
        rec["mass"] = w / total
    # now and then a mass that is not a finite number
    types[-1]["mass"] = draw(st.sampled_from([types[-1]["mass"]] * 8
                                             + [math.nan, math.inf]))
    return {"n": draw(st.one_of(st.none(), st.integers(1, 10**6))), "types": types}


def _alpha(doc, eps):
    """alpha_eps of a statistics document that plans can be made for, else None."""
    try:
        return alpha_eps(statistics_from_records(doc["types"], n=doc["n"]), eps)
    except ValueError:
        return None


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(doc=statistics_docs(), delta=st.sampled_from(["0.01", "0.05", "0.3"]))
def test_plan_never_raises(doc, delta):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "statistics.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["plan", "--statistics", path, "--eps", "0.3",
                       "--grid-n", "10", "--delta", delta,
                       "--out", os.path.join(tmp, "out")])
    assert rc in (EXIT_OK, EXIT_PLAN)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert (rc == EXIT_OK) == (err.getvalue() == "")
    # Delta above alpha_eps is decided before any LP is solved
    alpha = _alpha(doc, 0.3)
    if alpha is not None and float(delta) > alpha * (1.0 + 1e-12):
        assert rc == EXIT_PLAN and "infeasible" in err.getvalue(), err.getvalue()
        assert "LP solve failed" not in err.getvalue()


@st.composite
def edge_lists(draw):
    """Lines of a small edge list, whether it has self-loop lines (which
    `stats --drop-self-loops` drops), and one threshold from 0 to 4 per node
    that a non-loop line names, some of them above the node's out-degree."""
    n = draw(st.integers(5, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=3 * n))
    named = sorted({u for e in pairs for u in e})
    # a line into every node that has none: no plan lifts a node of
    # in-degree 0, which would stop every directed list at the plan stage
    heads = {v for _, v in pairs}
    pairs += [(draw(st.sampled_from([u for u in named if u != v])), v)
              for v in named if v not in heads]
    loops = draw(st.lists(node, max_size=3))
    lines = ["%d %d" % e for e in pairs] + ["%d %d" % (u, u) for u in loops]
    thresholds = draw(st.lists(st.integers(0, 4), min_size=len(named),
                               max_size=len(named)))
    return draw(st.permutations(lines)), bool(loops), thresholds


def _degrees(lines, undirected):
    """In- and out-degree of each node of the network `stats` reads from
    these lines, self-loop lines dropped, in the order of its id map."""
    ids, d, k = {}, [], []
    for line in lines:
        u, v = line.split()
        if u == v:
            continue
        for w in (u, v):
            if w not in ids:
                ids[w] = len(ids)
                d.append(0)
                k.append(0)
        for tail, head in ((u, v), (v, u))[:1 + undirected]:
            k[ids[tail]] += 1
            d[ids[head]] += 1
    return d, k


def _cost_records(pairs, rng):
    """A random non-decreasing cost table with c(0) = 0, some steps of 0,
    for every (d, k, r), 0 <= r <= k, of these degree pairs."""
    records = []
    for d, k in sorted(set(pairs)):
        for r in range(k + 1):
            steps = rng.uniform(0.0, 5.0, r) * (rng.random(r) < 0.8)
            records.append({"d": d, "k": k, "r": r,
                            "cost": [0.0, *np.cumsum(steps).tolist()]})
    return records


def _run(argv):
    """main(argv) with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


# threshold flags of `stats`; "file" reads the drawn thresholds, which
# --clamp-thresholds lowers to the out-degree where they exceed it
RULES = {"half-out-degree": [],
         "uniform-random": ["--threshold-rule", "uniform-random", "--seed", "3"],
         "file": ["--threshold-rule", "file:{}"],
         "clamped file": ["--threshold-rule", "file:{}", "--clamp-thresholds"]}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(edges=edge_lists(), undirected=st.booleans(),
                  rule=st.sampled_from(sorted(RULES)),
                  delta=st.sampled_from(["0.01", "0.05"]),
                  costs=st.sampled_from(["preset", "file", "file without a type"]),
                  cost_seed=st.integers(0, 2**32 - 1))
def test_realize_any_plan(edges, undirected, rule, delta, costs, cost_seed):
    lines, loops, thresholds = edges
    d, k = _degrees(lines, undirected)
    rng = np.random.default_rng(cost_seed)
    records, lacking = _cost_records(zip(d, k), rng), None
    if costs == "file without a type" and rule.endswith("file"):
        # drop one node's (d, k, r); stats must name it unless a file
        # threshold above its out-degree stops stats first
        r = np.minimum(thresholds, k) if rule == "clamped file" else thresholds
        types = list(zip(d, k, (int(v) for v in r)))
        lacking = types[rng.integers(len(types))]
        records = [rec for rec in records if (rec["d"], rec["k"], rec["r"]) != lacking]
        if any(t[2] > t[1] for t in types):
            lacking = None
    with tempfile.TemporaryDirectory() as tmp:
        path, rho, cost = (os.path.join(tmp, name)
                           for name in ("edges.txt", "thresholds.txt", "costs.json"))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(rho, "w") as fh:
            fh.write("".join("%d\n" % r for r in thresholds))
        with open(cost, "w") as fh:
            json.dump(records, fh)
        stats, plan = (os.path.join(tmp, name) for name in ("statistics.json", "plan.json"))
        stages = [
            ["stats", "--edges", path, *(["--undirected"] if undirected else []),
             *(arg.format(rho) for arg in RULES[rule]),
             *([] if costs == "preset" else ["--cost-rule", "file:" + cost]),
             *(["--drop-self-loops"] if loops else []), "--out", tmp],
            ["plan", "--statistics", stats, "--eps", "0.3", "--grid-n", "10",
             "--delta", delta, "--out", tmp],
            *(["validate", "--statistics", stats, "--plan", plan, "--eps", "0.3",
               "--edges", path, "--seed", seed, "--out", os.path.join(tmp, seed)]
              for seed in ("1", "2")),
        ]
        for argv in stages:
            rc, err = _run(argv)
            assert rc in (EXIT_OK, EXIT_STATS, EXIT_PLAN, EXIT_VALIDATE), (argv, err)
            assert err.count("\n") <= 1, err
            # a network the plan was made for is one it can be realized on
            assert rc == EXIT_OK or argv[0] != "validate", err
            if argv[0] == "stats" and lacking:
                assert rc == EXIT_STATS and err.startswith("statistics error:"), err
                assert "no cost table for (d=%d, k=%d, r=%d)" % lacking in err, err
            # clamped thresholds never exceed the out-degree
            assert rc == EXIT_OK or argv[0] != "stats" or rule != "clamped file" \
                or lacking, err
            if rc != EXIT_OK:
                break
