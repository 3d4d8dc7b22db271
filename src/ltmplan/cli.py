"""Command-line pipeline: stats -> plan -> validate -> experiment.

All randomness is seeded explicitly, every output document embeds the
resolved configuration, and all tabular output is headed CSV so the curves
can be plotted directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .graph import (GraphError, apply_intervention, check_thresholds,
                    parse_edge_list)
from .meanfield import dump_curves, recursion
from .planner import PlannerConfig, PlannerError, plan
from .sampler import (SamplerError, cascade_fractions, monte_carlo_validate,
                      realize_intervention)
from .typestats import (StatsError, cost_rule, extract_statistics,
                        intervention_from_records, post_statistics,
                        statistics_from_records, statistics_to_records,
                        threshold_rule)

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
        "cost_rule": "linear", "eps": 0.1, "grid_n": 100, "delta": 0.05,
        "instances": 1,
    },
    "powergrid": {
        "undirected": True, "threshold_rule": "uniform-random",
        "cost_rule": "linear", "eps": 0.3, "grid_n": 100, "delta": 0.05,
        "instances": 10,
    },
}


def _env_default(name, fallback):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_stats_doc(path):
    with open(path) as fh:
        doc = json.load(fh)
    return statistics_from_records(doc["types"], n=doc.get("n")), doc


def _stats_doc(g, p0, config):
    return {
        "n": g.n,
        "edges": g.edge_count,
        "d_min": p0.d_min(),
        "d_max": p0.d_max(),
        "k_max": p0.k_max(),
        "moments": {m: p0.moment(m) for m in ("d", "k", "d2", "k2", "dk")},
        "nu": p0.nu(),
        "num_types": len(p0.support()),
        "config": config,
        "types": statistics_to_records(p0),
    }


class UsageError(ValueError):
    pass


def _build_stats(args, seed_offset=0):
    if not args.edges:
        raise UsageError("no edge list given (--edges or LTMPLAN_EDGES)")
    g, _ = parse_edge_list(args.edges, undirected=args.undirected,
                           drop_self_loops=args.drop_self_loops)
    seed = None if args.seed is None else args.seed + seed_offset
    rho = threshold_rule(args.threshold_rule, seed=seed)(g)
    if args.clamp_thresholds:
        rho = check_thresholds(g, rho, clamp=True)
    p0, assignment = extract_statistics(g, rho, cost_rule(args.cost_rule))
    return g, rho, p0, assignment


def cmd_stats(args):
    g, _, p0, _ = _build_stats(args)
    config = {"edges": args.edges, "undirected": args.undirected,
              "threshold_rule": args.threshold_rule,
              "cost_rule": args.cost_rule, "seed": args.seed,
              "clamped": args.clamp_thresholds}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "statistics.json")
    _write_json(path, _stats_doc(g, p0, config))
    print("wrote %s (n=%d, %d types)" % (path, g.n, len(p0.support())))
    return EXIT_OK


def _run_plan(p0, args):
    delta = args.delta if args.delta == "auto" else float(args.delta)
    cfg = PlannerConfig(eps=args.eps, grid_n=args.grid_n, delta=delta,
                        fine_m=args.fine_m, eta_mode=args.eta_mode)
    return plan(p0, cfg)


def cmd_plan(args):
    p0, _ = _load_stats_doc(args.statistics)
    result = _run_plan(p0, args)
    os.makedirs(args.out, exist_ok=True)
    doc = result.to_dict()
    doc["config"]["statistics"] = args.statistics
    _write_json(os.path.join(args.out, "plan.json"), doc)
    dump_curves(p0, os.path.join(args.out, "curves_baseline.csv"))
    dump_curves(post_statistics(p0, result.xi),
                os.path.join(args.out, "curves_planned.csv"))
    print("plan cost %.6g [%s], original-constraint margin %.4g"
          % (result.cost, doc["regime"], result.original_audit.margin))
    return EXIT_OK


def _write_trajectory_csv(path, ys, zs, rec):
    rec_z = [z for z, _ in rec]
    rec_y = [y for _, y in rec]
    horizon = max(len(ys), len(rec_y))

    def pick(seq, t):
        return seq[t] if t < len(seq) else seq[-1]

    with open(path, "w") as fh:
        fh.write("t,Y,Z,y_recursion,z_recursion\n")
        for t in range(horizon):
            fh.write("%d,%.17g,%.17g,%.17g,%.17g\n"
                     % (t, pick(ys, t), pick(zs, t), pick(rec_y, t), pick(rec_z, t)))


def _realize_and_compare(g, assignment, rho, p0, xi, seed, csv_path):
    """Realize xi on the concrete network, run the cascade from all-zeros,
    and write its trajectory beside the mean-field recursion of the
    post-intervention statistics.  Returns (per-node reductions h, Y(t))."""
    h = realize_intervention(g, assignment, rho, xi, seed=seed)
    ys, zs, _ = cascade_fractions(g, apply_intervention(rho, h))
    rec, _ = recursion(post_statistics(p0, xi))
    _write_trajectory_csv(csv_path, ys, zs, rec)
    return h, ys


def cmd_validate(args):
    p0, _ = _load_stats_doc(args.statistics)
    with open(args.plan) as fh:
        plan_doc = json.load(fh)
    xi = intervention_from_records(plan_doc["xi"]).validate_against(p0, tol=1e-9)
    os.makedirs(args.out, exist_ok=True)
    if args.edges:
        # realize mode: apply the plan to a concrete network
        g, rho, _, assignment = _build_stats(args)
        h, ys = _realize_and_compare(
            g, assignment, rho, p0, xi, args.seed,
            os.path.join(args.out, "trajectory_realized.csv"))
        report = {"mode": "realize", "n": g.n, "final_fraction": float(ys[-1]),
                  "target": 1.0 - args.eps,
                  "ok": bool(ys[-1] >= 1.0 - args.eps),
                  "realized_cost": float(sum(
                      w.cost_at(int(h[i])) for i, w in enumerate(assignment))),
                  "seed": args.seed}
        _write_json(os.path.join(args.out, "validate.json"), report)
        print("realized run: final fraction %.4f (target %.4f)"
              % (ys[-1], 1.0 - args.eps))
        return EXIT_OK
    report = monte_carlo_validate(p0, xi, n=args.mc_n,
                                  replicates=args.replicates,
                                  eps=args.eps, seed=args.seed)
    for rep, (ys, zs) in enumerate(report.network_trajectories):
        _write_trajectory_csv(
            os.path.join(args.out, "trajectory_rep%03d.csv" % rep),
            ys, zs, report.recursion_trajectory)
    _write_json(os.path.join(args.out, "validate.json"), report.to_dict())
    print("monte carlo: %d replicates, success rate %.2f, sup|Y-y|=%.4f"
          % (report.replicates, report.success_rate, report.sup_dev_y))
    return EXIT_OK


def cmd_experiment(args):
    preset = PRESETS.get(args.preset)
    if preset:
        for key, val in preset.items():
            if getattr(args, key, None) in (None, "preset"):
                setattr(args, key, val)
    if args.instances is None:
        args.instances = 1
    os.makedirs(args.out, exist_ok=True)
    costs, finals = [], []
    base_seed = args.seed if args.seed is not None else 0
    for inst in range(args.instances):
        inst_dir = os.path.join(args.out, "instance%02d" % inst)
        os.makedirs(inst_dir, exist_ok=True)
        try:
            g, rho, p0, assignment = _build_stats(args, seed_offset=inst)
        except (GraphError, StatsError) as exc:
            print("experiment aborted in stats stage: %s" % exc, file=sys.stderr)
            return EXIT_STATS
        config = {"edges": args.edges, "undirected": args.undirected,
                  "threshold_rule": args.threshold_rule,
                  "cost_rule": args.cost_rule, "seed": base_seed + inst,
                  "instance": inst, "clamped": args.clamp_thresholds}
        _write_json(os.path.join(inst_dir, "statistics.json"),
                    _stats_doc(g, p0, config))
        try:
            result = _run_plan(p0, args)
        except PlannerError as exc:
            print("experiment aborted in plan stage: %s" % exc, file=sys.stderr)
            return EXIT_PLAN
        doc = result.to_dict()
        doc["config"].update(config)
        _write_json(os.path.join(inst_dir, "plan.json"), doc)
        try:
            _, ys = _realize_and_compare(
                g, assignment, rho, p0, result.xi, base_seed + 1000 + inst,
                os.path.join(inst_dir, "trajectory.csv"))
        except SamplerError as exc:
            print("experiment aborted in validate stage: %s" % exc, file=sys.stderr)
            return EXIT_VALIDATE
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
    }
    _write_json(os.path.join(args.out, "experiment.json"), summary)
    print("experiment: mean cost %.6g, mean final fraction %.4f"
          % (summary["cost_mean"], summary["final_fraction_mean"]))
    return EXIT_OK


def _add_network_args(p):
    p.add_argument("--edges", default=_env_default("edges", None),
                   help="edge-list file, one 'tail head' pair per line")
    p.add_argument("--undirected", action="store_true",
                   default=_env_default("undirected", "") not in ("", "0"),
                   help="emit both directions for every input line")
    p.add_argument("--drop-self-loops", action="store_true",
                   help="drop self-loop lines with a warning instead of failing")
    p.add_argument("--threshold-rule",
                   default=_env_default("threshold_rule", "half-out-degree"),
                   help="half-out-degree | uniform-random | file:PATH")
    p.add_argument("--cost-rule", default=_env_default("cost_rule", "linear"),
                   help="linear | seeding | unit-seeding | file:PATH")
    p.add_argument("--clamp-thresholds", action="store_true",
                   help="clamp file thresholds above the out-degree (recorded)")


def _add_plan_args(p):
    p.add_argument("--eps", type=float, default=float(_env_default("eps", 0.1)))
    p.add_argument("--grid-n", type=int, default=int(_env_default("grid_n", 100)))
    p.add_argument("--delta", default=_env_default("delta", 0.05),
                   help="margin, a positive real or 'auto' for the guarantee value")
    p.add_argument("--fine-m", type=int, default=None,
                   help="audit grid size (default 10 * grid-n)")
    p.add_argument("--eta-mode", choices=("full", "seed-only"), default="full")


def _add_common(p):
    p.add_argument("--seed", type=int,
                   default=None if _env_default("seed", None) is None
                   else int(_env_default("seed", None)))
    p.add_argument("--out", default=_env_default("out", "out"))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltmplan",
        description="Least-cost threshold-reduction planning for linear "
                    "threshold cascades")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="extract type statistics from an edge list")
    _add_network_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("plan", help="solve the discretized intervention LP")
    p.add_argument("--statistics", required=True, help="statistics.json from 'stats'")
    _add_plan_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate",
                       help="Monte Carlo validation, or realize a plan on a "
                            "concrete network when --edges is given")
    p.add_argument("--statistics", required=True)
    p.add_argument("--plan", required=True, help="plan.json from 'plan'")
    p.add_argument("--eps", type=float, default=float(_env_default("eps", 0.1)))
    p.add_argument("--mc-n", type=int, default=int(_env_default("mc_n", 10000)))
    p.add_argument("--replicates", type=int,
                   default=int(_env_default("replicates", 1)))
    _add_network_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("experiment", help="full stats -> plan -> realize pipeline")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named parameterization (dataset supplied by user)")
    p.add_argument("--instances", type=int, default=None,
                   help="threshold instances to average over (random rules)")
    _add_network_args(p)
    _add_plan_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print("graph error: %s" % exc, file=sys.stderr)
        return EXIT_STATS
    except StatsError as exc:
        print("statistics error: %s" % exc, file=sys.stderr)
        return EXIT_STATS
    except PlannerError as exc:
        print("planner error: %s" % exc, file=sys.stderr)
        return EXIT_PLAN
    except SamplerError as exc:
        print("sampler error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATE


if __name__ == "__main__":
    sys.exit(main())
