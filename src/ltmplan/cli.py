"""Command-line pipeline: stats -> plan -> validate -> experiment.

All randomness is seeded explicitly, every output document embeds the
resolved configuration, and all tabular output is headed CSV so the curves
can be plotted directly.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .graph import (GraphError, apply_intervention, cascade_fractions,
                    check_thresholds, parse_edge_list)
from .meanfield import dump_curves, recursion
from .planner import PlannerConfig, PlannerError, plan
from .sampler import (SamplerError, monte_carlo_validate, realize_intervention,
                      trajectory_table)
from .typestats import (StatsError, cost_rule, extract_statistics,
                        intervention_from_records, statistics_from_records,
                        statistics_to_records, threshold_rule)

ENV_PREFIX = "LTMPLAN_"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STATS = 3
EXIT_PLAN = 4
EXIT_VALIDATE = 5

# literature parameterizations; dataset files must be supplied by the user
PRESETS = {
    "epinions": {
        "undirected": True, "threshold_rule": "half-out-degree",
        "cost_rule": "linear", "eps": 0.1, "grid_n": 100, "delta": 0.005,
        "instances": 1,
    },
    "powergrid": {
        "undirected": True, "threshold_rule": "uniform-random",
        "cost_rule": "linear", "eps": 0.3, "grid_n": 100, "delta": 0.05,
        "instances": 10,
    },
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one line, as every other
    failure does, and exit with EXIT_USAGE."""

    def error(self, message):
        self.exit(EXIT_USAGE, "usage error: %s\n" % message)


# message prefix per failure type; main reports any other error as "input"
FAILURE_KINDS = ((UsageError, "usage"), (GraphError, "graph"),
                 (StatsError, "statistics"), (PlannerError, "planner"),
                 (SamplerError, "sampler"))


def _write_json(path, doc):
    # one dumps and one write: json.dump writes chunk by chunk
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


@contextmanager
def _naming(path):
    """A ValueError raised inside is reraised naming path, a StatsError as
    a StatsError so that its kind stays: what is malformed is the input
    read from it."""
    try:
        yield
    except ValueError as exc:
        kind = StatsError if isinstance(exc, StatsError) else ValueError
        raise kind("%s: %s" % (path, exc)) from exc


def _read_json(path, *keys):
    """The JSON object in path, holding at least `keys`; a malformed one is a
    ValueError naming it."""
    with open(path) as fh, _naming(path):
        doc = json.load(fh)
    missing = [key for key in keys if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise ValueError("%s: missing key %r" % (path, missing[0]))
    return doc


def _load_stats_doc(path):
    doc = _read_json(path, "types")
    with _naming(path):
        return statistics_from_records(doc["types"], n=doc.get("n")), doc


# The settings that, with its edge list, rebuild a network and its thresholds,
# as statistics.json's config records them and `validate --edges` reads them
# back: each key with the JSON types its value may take.
RECIPE = {"undirected": bool, "drop_self_loops": bool, "threshold_rule": str,
          "cost_rule": str, "seed": (int, type(None)), "clamped": bool}


def _recipe(args, seed):
    """The recipe of the network `stats` and `experiment` build from args,
    its thresholds drawn with `seed`."""
    return dict(zip(RECIPE, (args.undirected, args.drop_self_loops,
                             args.threshold_rule, args.cost_rule, seed,
                             args.clamp_thresholds)))


def _read_recipe(path, doc):
    """The recipe recorded in the statistics document doc, read from path."""
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ValueError("%s: missing key 'config'" % path)
    for key, kind in RECIPE.items():
        if key not in config:
            raise ValueError("%s: missing key 'config.%s'" % (path, key))
        value = config[key]
        # bool is an int in Python, but a recorded seed of true is no seed
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError("%s: config.%s is %r" % (path, key, value))
    return {key: config[key] for key in RECIPE}


def _write_statistics(path, g, p0, edges, recipe, **extra):
    """Write statistics.json; returns its config block."""
    config = {"edges": edges, **recipe, **extra}
    # clamped stays the last key, after experiment's instance, so the
    # documents keep their layout
    config["clamped"] = config.pop("clamped")
    _write_json(path, {
        "n": g.n,
        "edges": g.edge_count,
        "d_min": p0.d_min(),
        "d_max": p0.d_max(),
        "k_max": p0.k_max(),
        "moments": {m: p0.moment(m) for m in ("d", "k", "d2", "k2", "dk")},
        "nu": p0.nu(),
        "num_types": p0.m.size,
        "config": config,
        "types": statistics_to_records(p0),
    })
    return config


def _network(edges, recipe):
    if not edges:
        raise UsageError("no edge list given (--edges or LTMPLAN_EDGES)")
    return parse_edge_list(edges, undirected=recipe["undirected"],
                           drop_self_loops=recipe["drop_self_loops"])[0]


def _statistics(g, recipe):
    """Thresholds drawn by the recipe and checked, then the type statistics
    of g and each node's type code into them."""
    rho = threshold_rule(recipe["threshold_rule"], seed=recipe["seed"])(g)
    rho = check_thresholds(g, rho, clamp=recipe["clamped"])
    p0, type_of = extract_statistics(g, rho, cost_rule(recipe["cost_rule"]))
    return rho, p0, type_of


def cmd_stats(args):
    recipe = _recipe(args, args.seed)
    g = _network(args.edges, recipe)
    _, p0, _ = _statistics(g, recipe)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "statistics.json")
    _write_statistics(path, g, p0, args.edges, recipe)
    print("wrote %s (n=%d, %d types)" % (path, g.n, p0.m.size))
    return EXIT_OK


def _run_plan(p0, args):
    return plan(p0, PlannerConfig(eps=args.eps, grid_n=args.grid_n,
                                  delta=args.delta, fine_m=args.fine_m,
                                  eta_mode=args.eta_mode))


def cmd_plan(args):
    p0, _ = _load_stats_doc(args.statistics)
    result = _run_plan(p0, args)
    os.makedirs(args.out, exist_ok=True)
    doc = result.to_dict()
    doc["config"]["statistics"] = args.statistics
    _write_json(os.path.join(args.out, "plan.json"), doc)
    dump_curves(p0, os.path.join(args.out, "curves_baseline.csv"))
    dump_curves(result.xi.post, os.path.join(args.out, "curves_planned.csv"))
    print("plan cost %.6g [%s], original-constraint margin %.4g"
          % (result.cost, doc["regime"], result.original_audit.margin))
    return EXIT_OK


def _write_trajectory_csv(path, table):
    """A run-versus-recursion table (`trajectory_table`), one row per step."""
    with open(path, "w") as fh:
        fh.write("t,Y,Z,y_recursion,z_recursion\n")
        for t, row in enumerate(table.tolist()):
            fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (t, *row))


def _realize_and_compare(g, type_of, rho, xi, seed, csv_path):
    """Realize xi on the concrete network g, whose node i has type
    xi.base.types()[type_of[i]], run the cascade from all-zeros, and write
    its trajectory beside the mean-field recursion of the post-intervention
    statistics xi.post.  Returns (per-node reductions h, Y(t))."""
    h = realize_intervention(type_of, rho, xi, seed=seed)
    ys, zs = cascade_fractions(g, apply_intervention(rho, h))
    rec, _ = recursion(xi.post)
    _write_trajectory_csv(csv_path, trajectory_table(ys, zs, rec))
    return h, ys


def cmd_validate(args):
    if not 0.0 < args.eps <= 1.0:
        raise ValueError("eps must lie in (0, 1], got %r" % args.eps)
    # every input is read and checked before --out is made
    p0, stats_doc = _load_stats_doc(args.statistics)
    plan_doc = _read_json(args.plan, "xi")
    with _naming(args.plan):
        xi = intervention_from_records(plan_doc["xi"], p0)
    if args.edges:
        # realize mode: rebuild the network by the recipe --statistics
        # recorded and apply the plan to it; --seed only picks the nodes
        recipe = _read_recipe(args.statistics, stats_doc)
        g = _network(args.edges, recipe)
        rho, p_net, type_of = _statistics(g, recipe)
        if p_net.types() != p0.types() or np.any(np.abs(p_net.m - p0.m) > 1e-9):
            raise StatsError("network %s does not have the type statistics of %s"
                             % (args.edges, args.statistics))
        os.makedirs(args.out, exist_ok=True)
        # equal type tables: the network's codes index p0.types() as well
        h, ys = _realize_and_compare(
            g, type_of, rho, xi, args.seed,
            os.path.join(args.out, "trajectory_realized.csv"))
        # each node priced by its type's cost table; per node, as a plan's cost
        cost = p0.cost(type_of, h).mean()
        report = {"mode": "realize", "n": g.n, "final_fraction": float(ys[-1]),
                  "target": 1.0 - args.eps,
                  "ok": bool(ys[-1] >= 1.0 - args.eps),
                  "realized_cost": float(cost), "seed": args.seed}
        _write_json(os.path.join(args.out, "validate.json"), report)
        print("realized run: final fraction %.4f (target %.4f)"
              % (ys[-1], 1.0 - args.eps))
        return EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    report = monte_carlo_validate(xi, n=args.mc_n,
                                  replicates=args.replicates,
                                  eps=args.eps, seed=args.seed)
    for rep, table in enumerate(report.tables):
        _write_trajectory_csv(
            os.path.join(args.out, "trajectory_rep%03d.csv" % rep), table)
    _write_json(os.path.join(args.out, "validate.json"), report.to_dict())
    print("monte carlo: %d replicates, success rate %.2f, sup|Y-y|=%.4f"
          % (report.replicates, report.success_rate, report.sup_dev_y))
    return EXIT_OK


def cmd_experiment(args):
    # args.stage follows the running stage: a failure exits with its code
    g = _network(args.edges, _recipe(args, args.seed))
    os.makedirs(args.out, exist_ok=True)
    costs, finals = [], []
    base_seed = args.seed if args.seed is not None else 0
    for inst in range(args.instances):
        inst_dir = os.path.join(args.out, "instance%02d" % inst)
        os.makedirs(inst_dir, exist_ok=True)
        args.stage = EXIT_STATS
        # without --seed the thresholds are drawn unseeded: recorded as null
        seed = None if args.seed is None else args.seed + inst
        recipe = _recipe(args, seed)
        rho, p0, type_of = _statistics(g, recipe)
        config = _write_statistics(os.path.join(inst_dir, "statistics.json"),
                                   g, p0, args.edges, recipe, instance=inst)
        args.stage = EXIT_PLAN
        result = _run_plan(p0, args)
        doc = result.to_dict()
        doc["config"].update(config)
        _write_json(os.path.join(inst_dir, "plan.json"), doc)
        args.stage = EXIT_VALIDATE
        _, ys = _realize_and_compare(
            g, type_of, rho, result.xi, base_seed + 1000 + inst,
            os.path.join(inst_dir, "trajectory.csv"))
        costs.append(result.cost)
        finals.append(float(ys[-1]))
        print("instance %d: cost %.6g, final fraction %.4f"
              % (inst, result.cost, ys[-1]))
    summary = {
        "preset": args.preset, "instances": args.instances,
        "eps": args.eps, "grid_n": args.grid_n, "delta": args.delta,
        "seed": args.seed,
        "cost_mean": float(np.mean(costs)), "cost_std": float(np.std(costs)),
        "final_fraction_mean": float(np.mean(finals)),
        "final_fraction_std": float(np.std(finals)),
        "final_fractions": finals,
        "hit_rate": float(np.mean(np.array(finals) >= 1.0 - args.eps)),
    }
    _write_json(os.path.join(args.out, "experiment.json"), summary)
    print("experiment: mean cost %.6g, mean final fraction %.4f"
          % (summary["cost_mean"], summary["final_fraction_mean"]))
    return EXIT_OK


def delta_or_auto(text):
    return text if text == "auto" else float(text)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _add_network_args(p):
    p.add_argument("--edges", help="edge-list file, one 'tail head' pair per line")
    p.add_argument("--undirected", action="store_true",
                   help="emit both directions for every input line")
    p.add_argument("--drop-self-loops", action="store_true",
                   help="drop self-loop lines with a warning instead of failing")
    p.add_argument("--threshold-rule", default="half-out-degree",
                   help="half-out-degree | uniform-random | file:PATH")
    p.add_argument("--cost-rule", default="linear",
                   help="linear | seeding | unit-seeding | file:PATH")
    p.add_argument("--clamp-thresholds", action="store_true",
                   help="clamp file thresholds above the out-degree (recorded)")


def _add_plan_args(p):
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--grid-n", type=positive_int, default=100)
    p.add_argument("--delta", type=delta_or_auto, default=0.05,
                   help="margin, a positive real or 'auto' for the guarantee value")
    p.add_argument("--fine-m", type=positive_int, default=None,
                   help="audit grid size (default 10 * grid-n)")
    p.add_argument("--eta-mode", choices=("full", "seed-only"), default="full")


def _env_defaults(p):
    """Default every flag of p from LTMPLAN_<DEST>.  argparse converts a
    string default with the flag's type when the flag is not given, so a
    bad value is a usage error; switches read '' and '0' as off."""
    for action in p._actions:
        value = os.environ.get(ENV_PREFIX + action.dest.upper())
        if value is None or action.dest == "help":
            continue
        if action.nargs == 0:
            value = value not in ("", "0")
        elif value not in (action.choices or (value,)):
            p.error("invalid choice %s%s=%r" % (ENV_PREFIX, action.dest.upper(), value))
        action.default = value
        action.required = False


def build_parser(preset=None):
    """Flag defaults by rising precedence: built in, LTMPLAN_<DEST>, the
    value `preset` gives; a flag given on the command line beats all three."""
    parser = _Parser(
        prog="ltmplan",
        description="Least-cost threshold-reduction planning for linear "
                    "threshold cascades")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="extract type statistics from an edge list")
    _add_network_args(p)
    p.set_defaults(func=cmd_stats, stage=EXIT_STATS)

    p = sub.add_parser("plan", help="solve the discretized intervention LP")
    p.add_argument("--statistics", required=True, help="statistics.json from 'stats'")
    _add_plan_args(p)
    p.set_defaults(func=cmd_plan, stage=EXIT_PLAN)

    p = sub.add_parser("validate",
                       help="Monte Carlo validation, or realize a plan on a "
                            "concrete network when --edges is given")
    p.add_argument("--statistics", required=True)
    p.add_argument("--plan", required=True, help="plan.json from 'plan'")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--mc-n", type=positive_int, default=10000)
    p.add_argument("--replicates", type=positive_int, default=1)
    p.add_argument("--edges", help="the edge list of --statistics, rebuilt by "
                                   "the recipe its config records")
    p.set_defaults(func=cmd_validate, stage=EXIT_VALIDATE)

    p = sub.add_parser("experiment", help="full stats -> plan -> realize pipeline")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named parameterization (dataset supplied by user)")
    p.add_argument("--instances", type=positive_int, default=1,
                   help="threshold instances to average over (random rules)")
    _add_network_args(p)
    _add_plan_args(p)
    p.set_defaults(func=cmd_experiment, stage=EXIT_STATS)
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out")
        _env_defaults(p)
    sub.choices["experiment"].set_defaults(**PRESETS.get(preset, {}))
    return parser


def parse_args(argv=None):
    """Parse argv; a preset, once known, is parsed in as defaults."""
    args = build_parser().parse_args(argv)
    if getattr(args, "preset", None):
        args = build_parser(args.preset).parse_args(argv)
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        return args.func(args)
    except (*(cls for cls, _ in FAILURE_KINDS), OSError, ValueError) as exc:
        kind = next((name for cls, name in FAILURE_KINDS if isinstance(exc, cls)),
                    "input")
        text = "%s: %s" % (type(exc).__name__, exc) if kind == "input" else str(exc)
        print("%s error: %s" % (kind, text.partition("\n")[0]), file=sys.stderr)
        return EXIT_USAGE if kind == "usage" else args.stage


if __name__ == "__main__":
    sys.exit(main())
