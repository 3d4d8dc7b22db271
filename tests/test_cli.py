import json
import os
import re
import shlex
import warnings

import pytest

from ltmplan import lp
from ltmplan.cli import (EXIT_OK, EXIT_PLAN, EXIT_STATS, EXIT_USAGE,
                         EXIT_VALIDATE, _write_json, main, parse_args)

DATA = os.path.join(os.path.dirname(__file__), "data", "toy_network.txt")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_text(path):
    with open(path) as fh:
        return fh.read()


def config_of(path):
    return read_json(path)["config"]


def run_stats(tmp_path, extra=()):
    out = str(tmp_path / "stats")
    rc = main(["stats", "--edges", DATA, "--undirected", "--out", out,
               *extra])
    assert rc == EXIT_OK
    return os.path.join(out, "statistics.json")


def run_plan(tmp_path, stats_path, extra=()):
    out = str(tmp_path / "plan")
    rc = main(["plan", "--statistics", stats_path, "--out", out,
               "--eps", "0.1", "--grid-n", "50", "--delta", "0.05", *extra])
    assert rc == EXIT_OK
    return os.path.join(out, "plan.json")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_write_json_is_indented_dumps(tmp_path):
    doc = {"a": [1, 2.5, None, True], "b": {"c": "\u00e9", "d": 1e-300}, "e": {}}
    path = tmp_path / "doc.json"
    _write_json(path, doc)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    # a document the CLI wrote reads back to the same bytes
    plan_path = run_plan(tmp_path, run_stats(tmp_path))
    with open(plan_path) as fh:
        text = fh.read()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_stats(tmp_path):
    path = run_stats(tmp_path)
    doc = read_json(path)
    # 4-regular circulant: a single (d, k, r) = (4, 4, 2) type
    assert doc["n"] == 20 and doc["edges"] == 80
    assert doc["num_types"] == 1
    assert doc["types"][0]["d"] == 4 and doc["types"][0]["r"] == 2
    assert doc["moments"]["d"] == 4.0
    assert doc["config"]["threshold_rule"] == "half-out-degree"


def test_plan(tmp_path):
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    doc = read_json(plan_path)
    assert doc["lp"]["status"] == "optimal"
    assert doc["lp"]["configuration"] == "unscaled, no presolve"
    assert doc["cost"] > 0.0
    assert doc["audit"]["original_margin"] > 0.0
    plan_dir = os.path.dirname(plan_path)
    assert os.path.exists(os.path.join(plan_dir, "curves_baseline.csv"))
    assert os.path.exists(os.path.join(plan_dir, "curves_planned.csv"))


def test_validate_monte_carlo(tmp_path):
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    out = str(tmp_path / "mc")
    rc = main(["validate", "--statistics", stats, "--plan", plan_path,
               "--eps", "0.1", "--mc-n", "2000", "--replicates", "2",
               "--seed", "3", "--out", out])
    assert rc == EXIT_OK
    doc = read_json(os.path.join(out, "validate.json"))
    assert doc["replicates"] == 2
    assert os.path.exists(os.path.join(out, "trajectory_rep000.csv"))
    assert os.path.exists(os.path.join(out, "trajectory_rep001.csv"))
    header = read_text(os.path.join(out, "trajectory_rep000.csv")).splitlines()[0]
    assert header == "t,Y,Z,y_recursion,z_recursion"


def test_post_statistics_built_once_per_stage(tmp_path, post_calls):
    # one intervention per plan, realized run or Monte Carlo run, and its
    # post-intervention statistics built once for every use
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    assert len(post_calls) == 1
    validate = ["validate", "--statistics", stats, "--plan", plan_path,
                "--eps", "0.1", "--seed", "3", "--out", str(tmp_path / "v")]
    assert main(validate + ["--mc-n", "2000", "--replicates", "2"]) == EXIT_OK
    assert len(post_calls) == 2
    assert main(validate + ["--edges", DATA]) == EXIT_OK
    assert len(post_calls) == 3
    assert main(["experiment", "--edges", DATA, "--undirected",
                 "--threshold-rule", "uniform-random", "--instances", "2",
                 "--eps", "0.3", "--grid-n", "50", "--seed", "5",
                 "--out", str(tmp_path / "exp")]) == EXIT_OK
    assert len(post_calls) == 5


def test_validate_realize(tmp_path):
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    out = str(tmp_path / "realized")
    rc = main(["validate", "--statistics", stats, "--plan", plan_path,
               "--eps", "0.1", "--edges", DATA, "--seed", "4", "--out", out])
    assert rc == EXIT_OK
    doc = read_json(os.path.join(out, "validate.json"))
    assert doc["mode"] == "realize" and doc["n"] == 20
    assert 0.0 <= doc["final_fraction"] <= 1.0
    assert os.path.exists(os.path.join(out, "trajectory_realized.csv"))
    # realized_cost is per node, like the plan's cost; they differ only by
    # rounding each (type, eta) mass to whole nodes, under one node each
    plan_doc = read_json(plan_path)
    slack = sum(rec["cost"][rec["eta"]] for rec in plan_doc["xi"]) / doc["n"]
    assert plan_doc["cost"] > 0.0
    assert abs(doc["realized_cost"] - plan_doc["cost"]) <= slack


def test_validate_realize_checks_network_statistics(tmp_path, capsys):
    # another edge list rebuilt by the same recipe has other type masses
    stats = run_stats(tmp_path, ["--threshold-rule", "uniform-random", "--seed", "1"])
    plan_path = run_plan(tmp_path, stats)
    other = tmp_path / "other.txt"
    other.write_text("".join("%d %d\n" % (i, (i + 1) % 20) for i in range(20)))
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["validate", "--statistics", stats, "--plan", plan_path,
                 "--edges", str(other), "--out", str(out)]) == EXIT_VALIDATE
    err = assert_one_line(capsys, "statistics error:")
    assert str(other) in err and stats in err
    assert not out.exists()    # failed before any output


def test_validate_realize_reads_recipe_from_statistics(tmp_path):
    # thresholds drawn with seed 1 are redrawn from config.seed, so one plan
    # is realized at any pick seed
    stats = run_stats(tmp_path, ["--threshold-rule", "uniform-random", "--seed", "1"])
    plan_path = run_plan(tmp_path, stats)
    docs = []
    for seed in ("1", "2"):
        out = str(tmp_path / ("pick" + seed))
        assert main(["validate", "--statistics", stats, "--plan", plan_path,
                     "--edges", DATA, "--seed", seed, "--out", out]) == EXIT_OK
        docs.append(read_json(os.path.join(out, "validate.json")))
    assert [doc["seed"] for doc in docs] == [1, 2]
    assert all(doc["mode"] == "realize" and doc["n"] == 20 for doc in docs)


RECIPE_KEYS = ("undirected", "drop_self_loops", "threshold_rule", "cost_rule",
               "seed", "clamped")


@pytest.mark.parametrize("key, value, message", [
    ("config", None, "missing key 'config'"),
    *((key, None, "missing key 'config.%s'" % key) for key in RECIPE_KEYS),
    ("seed", "1", "config.seed is '1'"),
    ("seed", True, "config.seed is True"),
], ids=["no-config", *("no-" + key for key in RECIPE_KEYS), "seed-text", "seed-bool"])
def test_validate_realize_needs_recorded_recipe(tmp_path, capsys, key, value, message):
    # None drops the key; any other value replaces it
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    doc = read_json(stats)
    record = doc if key == "config" else doc["config"]
    if value is None:
        del record[key]
    else:
        record[key] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["validate", "--statistics", str(edited), "--plan", plan_path,
                 "--edges", DATA, "--out", str(out)]) == EXIT_VALIDATE
    err = assert_one_line(capsys, "input error:")
    assert str(edited) in err and message in err
    assert not out.exists()


def test_validate_realize_missing_edges_makes_no_output(tmp_path, capsys):
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    missing = str(tmp_path / "missing.txt")
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["validate", "--statistics", stats, "--plan", plan_path,
                 "--edges", missing, "--out", str(out)]) == EXIT_VALIDATE
    assert missing in assert_one_line(capsys, "input error:")
    assert not out.exists()


def test_validate_takes_no_network_flags(tmp_path, capsys):
    # the recipe is read from --statistics, never restated
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--statistics", "s.json", "--plan", "p.json",
              "--mc-n", "200", "--threshold-rule", "half-out-degree",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert "--threshold-rule" in assert_one_line(capsys, "usage error:")
    assert not os.path.exists(tmp_path / "x")


def test_validate_has_eight_options():
    args = parse_args(["validate", "--statistics", "s.json", "--plan", "p.json"])
    options = set(vars(args)) - {"command", "func", "stage"}
    assert options == {"statistics", "plan", "eps", "mc_n", "replicates",
                       "edges", "seed", "out"}


def test_experiment(tmp_path):
    out = str(tmp_path / "exp")
    rc = main(["experiment", "--edges", DATA, "--undirected",
               "--threshold-rule", "uniform-random", "--instances", "2",
               "--eps", "0.3", "--grid-n", "50", "--delta", "0.05",
               "--seed", "5", "--out", out])
    assert rc == EXIT_OK
    summary = read_json(os.path.join(out, "experiment.json"))
    assert summary["instances"] == 2
    assert summary["cost_mean"] >= 0.0
    finals = []
    for inst in range(2):
        d = os.path.join(out, "instance%02d" % inst)
        for name in ("statistics.json", "plan.json", "trajectory.csv"):
            assert os.path.exists(os.path.join(d, name))
        assert config_of(os.path.join(d, "plan.json"))["seed"] == 5 + inst
        with open(os.path.join(d, "trajectory.csv")) as fh:
            finals.append(float(fh.read().split()[-1].split(",")[1]))
    # one realized final fraction per instance, and the share reaching 1 - eps
    assert summary["final_fractions"] == finals
    assert summary["final_fraction_mean"] == pytest.approx(sum(finals) / 2)
    assert summary["hit_rate"] == sum(f >= 0.7 for f in finals) / 2


def test_experiment_unseeded_records_null_seed(tmp_path):
    # without --seed the thresholds are drawn unseeded, so no seed may be
    # recorded as if it reproduced them
    out = str(tmp_path / "exp")
    rc = main(["experiment", "--edges", DATA, "--undirected",
               "--threshold-rule", "uniform-random", "--instances", "2",
               "--eps", "0.3", "--grid-n", "50", "--out", out])
    assert rc == EXIT_OK
    for inst in range(2):
        d = os.path.join(out, "instance%02d" % inst)
        for name in ("statistics.json", "plan.json"):
            config = config_of(os.path.join(d, name))
            assert config["seed"] is None and config["instance"] == inst


def test_experiment_preset_fills_defaults(monkeypatch):
    argv = ["experiment", "--preset", "powergrid", "--edges", DATA]
    args = parse_args(argv)
    assert args.preset == "powergrid"
    assert args.undirected is True
    assert args.threshold_rule == "uniform-random"
    assert args.eps == 0.3 and args.instances == 10
    # precedence: flag > preset > environment > built-in default
    monkeypatch.setenv("LTMPLAN_EPS", "0.2")
    monkeypatch.setenv("LTMPLAN_FINE_M", "300")
    args = parse_args(argv + ["--instances", "3"])
    assert args.instances == 3
    assert args.eps == 0.3
    assert args.fine_m == 300
    assert args.cost_rule == "linear" and args.delta == 0.05
    args = parse_args(["experiment", "--edges", DATA])
    assert args.eps == 0.2 and args.instances == 1 and not args.undirected


def test_experiment_preset_applied(tmp_path):
    out = str(tmp_path / "exp")
    rc = main(["experiment", "--preset", "powergrid", "--edges", DATA,
               "--seed", "0", "--out", out])
    assert rc == EXIT_OK
    summary = read_json(os.path.join(out, "experiment.json"))
    assert summary["preset"] == "powergrid"
    assert summary["eps"] == 0.3 and summary["instances"] == 10
    for inst in range(10):
        path = os.path.join(out, "instance%02d" % inst, "statistics.json")
        config = config_of(path)
        assert config["undirected"] is True
        assert config["threshold_rule"] == "uniform-random"


def test_experiment_preset_epinions_plans_below_alpha_eps(tmp_path):
    # an Epinions-shaped network, d_min 1 and <d> 13.5: a 28-node clique
    # with 33 pendant nodes.  alpha_eps = 0.1 / 13.5 is about 0.0074, so
    # the preset's Delta must lie below it for the LP to be feasible.
    edges = tmp_path / "epinions_shaped.txt"
    pairs = [(i, j) for i in range(28) for j in range(i + 1, 28)]
    pairs += [(i % 28, 28 + i) for i in range(33)]
    edges.write_text("".join("%d %d\n" % pair for pair in pairs))
    out = str(tmp_path / "exp")
    rc = main(["experiment", "--preset", "epinions", "--edges", str(edges),
               "--seed", "0", "--out", out])
    assert rc == EXIT_OK
    summary = read_json(os.path.join(out, "experiment.json"))
    assert summary["preset"] == "epinions" and summary["delta"] == 0.005
    stats = read_json(os.path.join(out, "instance00", "statistics.json"))
    assert stats["d_min"] == 1 and stats["moments"]["d"] == pytest.approx(822 / 61)


def test_exit_code_usage(tmp_path):
    rc = main(["stats", "--out", str(tmp_path / "x")])
    assert rc == EXIT_USAGE


def test_exit_code_stats_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a a\n")
    rc = main(["stats", "--edges", str(bad), "--out", str(tmp_path / "x")])
    assert rc == EXIT_STATS


# a cost for every type of the directed three-node cycle (d = k = 1)
CYCLE_COSTS = [{"d": 1, "k": 1, "r": 0, "cost": [0.0]},
               {"d": 1, "k": 1, "r": 1, "cost": [0.0, 1.0]}]


def cycle_stats_argv(tmp_path, thresholds, costs):
    """`stats` argv for a directed three-node cycle whose thresholds and
    costs are read from files with these contents."""
    edges, rho, cost = (tmp_path / name for name in ("cycle.txt", "rho.txt", "costs.json"))
    edges.write_text("0 1\n1 2\n2 0\n")
    rho.write_text(thresholds)
    cost.write_text(json.dumps(costs))
    return ["stats", "--edges", str(edges), "--threshold-rule", "file:%s" % rho,
            "--cost-rule", "file:%s" % cost, "--out", str(tmp_path / "x")]


def test_file_threshold_above_out_degree_is_named_before_costs(tmp_path, capsys):
    # the cost file has no entry for r = 5, but the threshold is at fault
    rc = main(cycle_stats_argv(tmp_path, "5\n0\n0\n", CYCLE_COSTS))
    assert rc == EXIT_STATS
    assert "threshold 5 exceeds out-degree 1 at node 0" in assert_one_line(
        capsys, "graph error:")


@pytest.mark.parametrize("thresholds, costs, culprit, named", [
    ("", CYCLE_COSTS, "rho.txt", ""),
    ("2.5\n0\n0\n", CYCLE_COSTS, "rho.txt", ""),
    ("0\n0\n0\n", [{"d": 1}], "costs.json", ""),
    ("1\n1\n1\n", CYCLE_COSTS + [{"d": 1, "k": 1, "r": 1, "cost": [0, 9]}],
     "costs.json", "statistics error: duplicate cost table for (d=1, k=1, r=1)"),
    ("1\n1\n1\n", [{"d": 1, "k": 1, "r": 1, "cost": [1, 2]}], "costs.json",
     "statistics error: cost table for (d=1, k=1, r=1)"),
], ids=["empty thresholds", "fractional threshold", "cost record without k",
        "repeated cost record", "cost record rejected by its type"])
def test_malformed_rule_file_fails_in_one_line_naming_it(tmp_path, capsys, thresholds,
                                                         costs, culprit, named):
    argv = cycle_stats_argv(tmp_path, thresholds, costs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == EXIT_STATS
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path / culprit) in err, err
    assert err.startswith(named), err


def test_cost_file_lacking_a_type_names_file_and_type(tmp_path, capsys):
    # node 0's type (d=1, k=1, r=1) has no entry in the cost file
    argv = cycle_stats_argv(tmp_path, "1\n0\n0\n", CYCLE_COSTS[:1])
    assert main(argv) == EXIT_STATS
    err = assert_one_line(capsys, "statistics error:")
    assert str(tmp_path / "costs.json") in err and "(d=1, k=1, r=1)" in err, err


def test_validate_realize_ignores_zero_mass_record(tmp_path):
    # a type record of mass 0 is no type of the statistics: planning and
    # realizing from the document give what they give without it
    stats = run_stats(tmp_path)
    doc = read_json(stats)
    d = max(rec["d"] for rec in doc["types"]) + 1
    doc["types"].append({"d": d, "k": d, "r": 1, "cost": [0.0, 1.0], "mass": 0.0})
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    reports = []
    for name, path in (("plain", stats), ("edited", str(edited))):
        plan_path = run_plan(tmp_path / name, path)
        out = str(tmp_path / name / "realized")
        assert main(["validate", "--statistics", path, "--plan", plan_path,
                     "--eps", "0.1", "--edges", DATA, "--seed", "4",
                     "--out", out]) == EXIT_OK
        reports.append(read_text(os.path.join(out, "validate.json")))
    assert reports[0] == reports[1]


def test_exit_code_plan_error(tmp_path):
    stats = run_stats(tmp_path)
    rc = main(["plan", "--statistics", stats, "--eps", "0.1",
               "--grid-n", "50", "--delta", "0.9",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_PLAN


def test_exit_code_lp_failure(tmp_path, capsys, monkeypatch):
    # a solve that fails outright is a plan-stage error of one line
    stats = run_stats(tmp_path)
    failed = lp.LpSolution("error", None, None, None, None, 0, "no basis")
    monkeypatch.setattr(lp, "solve", lambda model: failed)
    capsys.readouterr()
    rc = main(["plan", "--statistics", stats, "--eps", "0.1", "--grid-n", "50",
               "--delta", "0.05", "--out", str(tmp_path / "x")])
    assert rc == EXIT_PLAN
    assert "LP solve failed: error (no basis)" in assert_one_line(capsys, "planner error:")


def assert_one_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_exit_code_plan_input_errors(tmp_path, capsys):
    # a malformed document or type record is one input error naming its file
    record = {"d": 1, "k": 1, "r": 0, "cost": [0.0], "mass": 1.0}
    paths = [str(tmp_path / "missing.json")]
    for name, text in (("bad", "{not json"), ("keyless", '{"n": 3}'),
                       ("types_not_list", '{"types": 5}'),
                       ("cost_not_list", json.dumps({"types": [{**record, "cost": 5}]})),
                       ("massless", json.dumps({"types": [
                           {k: v for k, v in record.items() if k != "mass"}]})),
                       # n is absent, null or a JSON integer >= 1
                       *(("n_%d" % i, json.dumps({"n": n, "types": [record]}))
                         for i, n in enumerate(["abc", 2.5, 0, -3, True]))):
        paths.append(str(tmp_path / (name + ".json")))
        (tmp_path / (name + ".json")).write_text(text)
    for path in paths:
        rc = main(["plan", "--statistics", path, "--out", str(tmp_path / "x")])
        assert rc == EXIT_PLAN
        assert path in assert_one_line(capsys, "input error:")


def test_plan_rejects_counts_that_are_not_whole(tmp_path, capsys):
    # masses 0.34 and 0.66 of n = 10 nodes are 3.4 and 6.6 nodes
    stats = tmp_path / "statistics.json"
    stats.write_text(json.dumps({"n": 10, "types": [
        {"d": 1, "k": 1, "r": 1, "cost": [0.0, 1.0], "mass": 0.34},
        {"d": 2, "k": 2, "r": 0, "cost": [0.0], "mass": 0.66}]}))
    rc = main(["plan", "--statistics", str(stats), "--out", str(tmp_path / "x")])
    assert rc == EXIT_PLAN
    err = assert_one_line(capsys, "statistics error:")
    assert str(stats) in err and "not a whole count" in err
    assert not os.path.exists(tmp_path / "x")


def test_plan_nan_delta_is_planner_error(tmp_path, capsys):
    # --delta nan parses as a float; it is rejected with the other
    # non-positive margins, before any LP is built or output written
    stats = run_stats(tmp_path)
    capsys.readouterr()
    rc = main(["plan", "--statistics", stats, "--eps", "0.1", "--delta", "nan",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_PLAN
    assert "Delta must be positive or 'auto'" in assert_one_line(capsys, "planner error:")
    assert not os.path.exists(tmp_path / "x")


def test_plan_fine_m_below_one_is_usage_error(tmp_path, capsys):
    # an audit grid of M = 0 would audit z = 0 alone and report its margin
    stats = run_stats(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--statistics", stats, "--eps", "0.1", "--fine-m", "0",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert "must be >= 1" in assert_one_line(capsys, "usage error: argument --fine-m")
    assert not os.path.exists(tmp_path / "x")


def test_exit_code_validate_malformed_plan(tmp_path, capsys):
    stats = run_stats(tmp_path)
    bad = tmp_path / "plan.json"
    for text in ("{not json", '{"cost": 1}', '{"xi": [3]}'):
        bad.write_text(text)
        capsys.readouterr()
        rc = main(["validate", "--statistics", stats, "--plan", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATE
        assert str(bad) in assert_one_line(capsys, "input error:")


def test_exit_code_validate_mismatch(tmp_path, capsys):
    plan_path = run_plan(tmp_path, run_stats(tmp_path))
    other = run_stats(tmp_path / "other", ["--threshold-rule", "uniform-random",
                                           "--seed", "1"])
    capsys.readouterr()
    rc = main(["validate", "--statistics", other, "--plan", plan_path,
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_VALIDATE
    assert_one_line(capsys, "statistics error:")


@pytest.mark.parametrize("eps, network", [
    ("2", ["--edges", DATA]), ("nan", []), ("0", []),
], ids=["realize-2", "monte-carlo-nan", "monte-carlo-0"])
def test_validate_eps_out_of_range(tmp_path, capsys, eps, network):
    # eps 2 would set the target to -1 and call any run a success
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    out = tmp_path / "v"
    capsys.readouterr()
    rc = main(["validate", "--statistics", stats, "--plan", plan_path, "--eps", eps,
               "--mc-n", "200", *network, "--out", str(out)])
    assert rc == EXIT_VALIDATE
    assert "eps must lie in (0, 1]" in assert_one_line(capsys, "input error:")
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("LTMPLAN_EPS", "abc"),
                                         ("LTMPLAN_ETA_MODE", "none")])
def test_bad_env_value_is_usage_error(tmp_path, capsys, monkeypatch, name, value):
    stats = run_stats(tmp_path)
    monkeypatch.setenv(name, value)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--statistics", stats, "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert_one_line(capsys, "usage error:")


@pytest.mark.parametrize("env, argv", [
    ({}, ["experiment", "--edges", DATA, "--instances", "0"]),
    ({}, ["experiment", "--edges", DATA, "--instances", "-2"]),
    ({}, ["validate", "--statistics", "s.json", "--plan", "p.json", "--replicates", "-1"]),
    ({"LTMPLAN_REPLICATES": "-1"}, ["validate", "--statistics", "s.json", "--plan", "p.json"]),
    ({}, ["validate", "--statistics", "s.json", "--plan", "p.json", "--mc-n", "0"]),
    ({"LTMPLAN_MC_N": "0"}, ["validate", "--statistics", "s.json", "--plan", "p.json"]),
    ({}, ["experiment", "--edges", DATA, "--grid-n", "0"]),
    ({}, ["experiment", "--edges", DATA, "--grid-n", "-3"]),
    ({"LTMPLAN_FINE_M": "0"}, ["experiment", "--edges", DATA]),
], ids=["instances0", "instances-2", "replicates-1", "env-replicates-1", "mc-n0",
        "env-mc-n0", "grid-n0", "grid-n-3", "env-fine-m0"])
def test_count_below_one_is_usage_error(tmp_path, capsys, monkeypatch, env, argv):
    # a count below 1 would average over nothing: NaN means in the output
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert "must be >= 1" in assert_one_line(capsys, "usage error: argument --")
    assert not os.path.exists(tmp_path / "x")


def test_experiment_exit_code_is_failing_stage(tmp_path, capsys):
    common = ["experiment", "--edges", DATA, "--undirected", "--eps", "0.1",
              "--grid-n", "50", "--out", str(tmp_path / "x")]
    assert main(common + ["--threshold-rule", "bogus"]) == EXIT_STATS
    assert_one_line(capsys, "statistics error:")
    assert main(common + ["--delta", "0.9"]) == EXIT_PLAN
    assert_one_line(capsys, "planner error:")


def test_env_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("LTMPLAN_EDGES", DATA)
    monkeypatch.setenv("LTMPLAN_UNDIRECTED", "1")
    out = str(tmp_path / "env")
    rc = main(["stats", "--out", out])
    assert rc == EXIT_OK
    assert read_json(os.path.join(out, "statistics.json"))["n"] == 20


def test_plan_beyond_float_derivative_bound(tmp_path, capsys):
    # one type at k = 1100: Delta_N overflows, so 'auto' is a plan-stage
    # error while an explicit Delta plans in the empirical regime
    stats = tmp_path / "statistics.json"
    stats.write_text(json.dumps({"n": 10, "types": [
        {"d": 1100, "k": 1100, "r": 2, "cost": [0.0, 1.0, 2.0], "mass": 1.0}]}))
    out = str(tmp_path / "plan")
    common = ["plan", "--statistics", str(stats), "--eps", "0.1",
              "--grid-n", "20", "--out", out]
    capsys.readouterr()
    assert main(common + ["--delta", "auto"]) == EXIT_PLAN
    err = capsys.readouterr().err
    assert err.startswith("planner error:") and err.count("\n") == 1
    assert main(common + ["--delta", "0.05"]) == EXIT_OK
    text = read_text(os.path.join(out, "plan.json"))
    doc = json.loads(text, parse_constant=lambda name: pytest.fail(name))
    assert doc["delta_N"] is None and "empirical" in doc["regime"]


def _edited_plan(tmp_path, plan_path, edit):
    doc = read_json(plan_path)
    edit(doc["xi"])
    path = tmp_path / "edited_plan.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_checks_plan_masses_at_load(tmp_path, capsys):
    # conservation is checked once, at MASS_TOL, when the plan is loaded: a
    # mass off by 1e-10 is an error there, naming the type
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)

    def nudge(xi):
        xi[0]["mass"] += 1e-10
    edited = _edited_plan(tmp_path, plan_path, nudge)
    capsys.readouterr()
    rc = main(["validate", "--statistics", stats, "--plan", edited,
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_VALIDATE
    err = assert_one_line(capsys, "statistics error:")
    assert "does not match" in err and "(d=4, k=4, r=2)" in err and edited in err
    assert not os.path.exists(tmp_path / "x")    # failed before any output


def test_validate_rejects_duplicate_plan_record(tmp_path, capsys):
    stats = run_stats(tmp_path)
    plan_path = run_plan(tmp_path, stats)
    edited = _edited_plan(tmp_path, plan_path, lambda xi: xi.append(xi[0]))
    capsys.readouterr()
    rc = main(["validate", "--statistics", stats, "--plan", edited,
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_VALIDATE
    err = assert_one_line(capsys, "statistics error:")
    assert "duplicate" in err and edited in err


ONE_TYPE = {"d": 1, "k": 1, "r": 1, "cost": [0.0, 1.0], "mass": 1.0}


@pytest.mark.parametrize("stats_type, plan_record, rc, culprit, label", [
    (dict(ONE_TYPE, cost=[1, 2]), None, EXIT_PLAN, "statistics.json", "(d=1, k=1, r=1)"),
    (ONE_TYPE, dict(ONE_TYPE, cost=[0, 2, 3], eta=0), EXIT_VALIDATE, "plan.json",
     "(d=1, k=1, r=1)"),
    (ONE_TYPE, dict(ONE_TYPE, d=2, k=2, eta=0), EXIT_VALIDATE, "plan.json",
     "(d=2, k=2, r=1)"),
], ids=["statistics cost rejected by its type", "plan cost rejected by its type",
        "plan type absent from the statistics"])
def test_statistics_errors_name_file_and_type(tmp_path, capsys, stats_type, plan_record,
                                              rc, culprit, label):
    stats, plan = tmp_path / "statistics.json", tmp_path / "plan.json"
    stats.write_text(json.dumps({"types": [stats_type]}))
    out = str(tmp_path / "out")
    if plan_record is None:
        argv = ["plan", "--statistics", str(stats), "--eps", "0.1", "--out", out]
    else:
        plan.write_text(json.dumps({"xi": [plan_record]}))
        argv = ["validate", "--statistics", str(stats), "--plan", str(plan), "--out", out]
    assert main(argv) == rc
    err = assert_one_line(capsys, "statistics error:")
    assert str(tmp_path / culprit) in err and label in err, err


def test_readme_cli_examples_parse():
    # every `ltmplan ...` command of README.md's sh blocks, continuations
    # joined, parses
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    blocks = re.findall(r"^```sh\n(.*?)^```", read_text(path), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ltmplan ")]
    assert {argv[0] for argv in commands} == {"stats", "plan", "validate", "experiment"}
    for argv in commands:
        parse_args(argv)
