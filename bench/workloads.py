"""Benchmark workloads: seeded input generators, the CLI stages of one
operation, and the checks run on what those stages write.

Every generator is deterministic in its seed and writes plain edge-list
(and threshold) files; the program only ever sees those files through its
command-line stages.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

# tolerances of the output checks
LP_GAP_TOL = 1e-8
LP_VIOLATION_TOL = 1e-9
COST_REL_TOL = 1e-9

# seeds of the seed-dependent workloads whose plan costs are recorded
REFERENCE_SEEDS = 100
MC_SUP_DEV_TOL = 0.02
MC_SUCCESS_MIN = 0.95

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def write_edge_list(path, tails, heads):
    with open(path, "w") as fh:
        fh.write("".join("%d %d\n" % e for e in zip(tails.tolist(), heads.tolist())))


def first_appearance_order(tails, heads):
    """Node labels in the order an edge-list parser first meets them, which
    is the node order a threshold file must follow."""
    tokens = np.column_stack([tails, heads]).ravel()
    labels, first = np.unique(tokens, return_index=True)
    return labels[np.argsort(first)]


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_reference():
    return load_json(REFERENCE_PATH) if os.path.exists(REFERENCE_PATH) else {}


def rel_diff(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class Outcome:
    """What the checks read off one operation's outputs."""

    target: float                                   # 1 - eps
    problems: list = field(default_factory=list)    # failed checks, one line each
    finals: list = field(default_factory=list)      # final active fraction per cascade
    costs: list = field(default_factory=list)       # costs compared with the reference
    margins: list = field(default_factory=list)     # (relaxed, original) per plan

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


class Workload:
    """One benchmark workload.

    Subclasses define `generate` (write inputs into a directory from a seed
    and return the facts the checks compare against), `properties` (the
    generator's defining properties), `stages` (the CLI argument lists of
    one operation, every flag spelled out) and `check`.
    """

    name = ""
    eps = delta = grid_n = None
    threshold_rule = None

    def __init__(self, seed):
        self.seed = seed

    def input_files(self, d):
        return [os.path.join(d, "edges.txt")]

    def replay_after_failure(self, stage, d, out):
        """Work a traced operation does after `stage` failed; None if none."""
        return None

    def reference_costs(self):
        """Plan costs recorded at the commit that defined the benchmark, or
        None when none were recorded for this seed."""
        return load_reference().get(self.name, {}).get(str(self.seed))

    def check_costs(self, outcome):
        """Compare the operation's plan costs with the recorded reference."""
        if not outcome.costs:
            return
        ref = self.reference_costs()
        if ref is None:
            outcome.problems.append("no plan costs recorded for %s seed %d"
                                    % (self.name, self.seed))
            return
        outcome.expect(len(ref) == len(outcome.costs), "reference has %d costs, run %d"
                       % (len(ref), len(outcome.costs)))
        for i, (got, want) in enumerate(zip(outcome.costs, ref)):
            outcome.expect(rel_diff(got, want) <= COST_REL_TOL,
                           "plan %d cost %.17g, reference %.17g" % (i, got, want))

    # flags shared by the undirected workloads -------------------------------

    def network_args(self, d):
        return ["--edges", os.path.join(d, "edges.txt"), "--undirected",
                "--threshold-rule", self.threshold_rule, "--cost-rule", "linear",
                "--seed", str(self.seed)]

    def plan_args(self):
        return ["--eps", str(self.eps), "--grid-n", str(self.grid_n),
                "--delta", str(self.delta), "--fine-m", str(10 * self.grid_n),
                "--eta-mode", "full"]

    # checks shared by the workloads ------------------------------------------

    def check_statistics(self, outcome, path, facts, undirected, rule):
        """The statistics document echoes the workload's flags and sizes."""
        doc = load_json(path)
        cfg = doc["config"]
        outcome.expect(cfg["undirected"] is undirected, "%s: undirected=%r"
                       % (path, cfg["undirected"]))
        outcome.expect(cfg["threshold_rule"] == rule, "%s: threshold_rule=%r"
                       % (path, cfg["threshold_rule"]))
        outcome.expect(cfg["cost_rule"] == "linear", "%s: cost_rule=%r"
                       % (path, cfg["cost_rule"]))
        outcome.expect(doc["n"] == facts["n"], "%s: n=%r, generated %d"
                       % (path, doc["n"], facts["n"]))
        outcome.expect(doc["edges"] == facts["links"], "%s: %r links, generated %d"
                       % (path, doc["edges"], facts["links"]))
        outcome.expect(doc["num_types"] == len(doc["types"]),
                       "%s: num_types disagrees with its type list" % path)
        if facts.get("types") is not None:
            outcome.expect(doc["num_types"] == facts["types"], "%s: %r types, generated %d"
                           % (path, doc["num_types"], facts["types"]))
        return doc

    def check_plan(self, outcome, path):
        """The plan echoes eps, Delta and grid_n, its LP is certified
        optimal, and both audit margins are reported; returns its cost."""
        doc = load_json(path)
        cfg = doc["config"]
        outcome.expect(cfg["eps"] == self.eps, "%s: eps=%r" % (path, cfg["eps"]))
        outcome.expect(float(cfg["delta"]) == self.delta == doc["delta_used"],
                       "%s: delta=%r, delta_used=%r" % (path, cfg["delta"], doc["delta_used"]))
        outcome.expect(cfg["grid_n"] == self.grid_n, "%s: grid_n=%r" % (path, cfg["grid_n"]))
        lp = doc["lp"]
        outcome.expect(lp["status"] == "optimal", "%s: LP status %r" % (path, lp["status"]))
        outcome.expect(lp["gap"] <= LP_GAP_TOL, "%s: LP gap %r" % (path, lp["gap"]))
        # plan.json reports the grid rows' margin; the budget rows are
        # re-checked when validate reloads the intervention
        audit = doc["audit"]
        outcome.expect(audit["grid_margin"] >= -LP_VIOLATION_TOL,
                       "%s: grid-row violation %r" % (path, -audit["grid_margin"]))
        margins = (audit.get("relaxed_margin"), audit.get("original_margin"))
        outcome.expect(all(isinstance(m, float) and math.isfinite(m) for m in margins),
                       "%s: audit margins missing" % path)
        outcome.margins.append(margins)
        return doc["cost"]


class EpinionsHeavy(Workload):
    # Chosen because it is the only workload where LP assembly, the HiGHS
    # solve, the audits and post_statistics run at real size: an undirected
    # heavy-tailed network at Epinions scale, k_max in the thousands.  It is
    # also the workload that exposes the 2.0 ** (k_max + 1) overflow in the
    # derivative bound, so its plan stage fails until that is fixed.
    name = "epinions-heavy"
    eps, delta, grid_n = 0.3, 0.005, 100
    threshold_rule = "half-out-degree"
    nodes, edges_target, gamma, offset = 75_000, 500_000, 2.3, 8

    def generate(self, d):
        """Chung-Lu-style sampling: both endpoints of each edge drawn from
        weights (i + offset)^(-1/(gamma-1)), self-loops and repeats dropped."""
        rng = np.random.default_rng(self.seed)
        n = self.nodes
        weights = (np.arange(n) + self.offset) ** (-1.0 / (self.gamma - 1.0))
        cdf = np.cumsum(weights)
        draws = int(self.edges_target * 1.06)
        u = np.searchsorted(cdf, rng.random(draws) * cdf[-1])
        v = np.searchsorted(cdf, rng.random(draws) * cdf[-1])
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.unique((lo * n + hi)[lo != hi])
        keys = rng.permutation(keys)[: self.edges_target]
        labels = rng.permutation(n)
        tails, heads = labels[keys // n], labels[keys % n]
        write_edge_list(os.path.join(d, "edges.txt"), tails, heads)
        deg = np.bincount(np.concatenate([tails, heads]), minlength=n)
        deg = deg[deg > 0]
        # undirected input: d = k = degree and r = k // 2, so a type is a degree
        return {"n": int(deg.size), "links": 2 * int(tails.size),
                "k_max": int(deg.max()), "types": int(np.unique(deg).size)}

    def properties(self, facts):
        return [("k_max >= 1023", facts["k_max"] >= 1023),
                ("hundreds of types", 100 <= facts["types"] < 1000)]

    def stages(self, d, out):
        stats, plan = os.path.join(out, "statistics.json"), os.path.join(out, "plan.json")
        return [
            ("stats", ["stats"] + self.network_args(d) + ["--out", out]),
            ("plan", ["plan", "--statistics", stats] + self.plan_args()
             + ["--seed", str(self.seed), "--out", out]),
            ("validate", ["validate", "--statistics", stats, "--plan", plan,
                          "--eps", str(self.eps)] + self.network_args(d) + ["--out", out]),
        ]

    def replay_after_failure(self, stage, d, out):
        """Traced runs only: when the plan stage fails, carry on through the
        public functions with the explicit Delta (build_lp, solve, audits,
        realize, cascade, recursion) so every layer is measured."""
        if stage != "plan":
            return None
        from ltmplan import graph, lp, meanfield, planner, sampler, typestats
        doc = load_json(os.path.join(out, "statistics.json"))
        p0 = typestats.statistics_from_records(doc["types"], n=doc["n"])
        m = 10 * self.grid_n
        cfg = planner.PlannerConfig(eps=self.eps, grid_n=self.grid_n, delta=self.delta,
                                    fine_m=m, eta_mode="full")
        model, columns, _ = planner.build_lp(p0, cfg)
        sol = lp.solve(model)
        if sol.status != "optimal":
            return {"lp_status": sol.status}
        xi = planner.solution_to_intervention(p0, columns, sol.x)
        lp.check_solution(model, sol.x)
        relaxed = planner.audit_relaxed(p0, xi, self.eps, m)
        original = planner.audit_original(p0, xi, self.eps, m)
        g, _ = graph.parse_edge_list(os.path.join(d, "edges.txt"), undirected=True)
        rho = typestats.threshold_rule(self.threshold_rule)(g)
        _, assignment = typestats.extract_statistics(g, rho, typestats.cost_rule("linear"))
        h = sampler.realize_intervention(g, assignment, rho, xi, seed=self.seed)
        ys, _, _ = sampler.cascade_fractions(g, graph.apply_intervention(rho, h))
        meanfield.recursion(typestats.post_statistics(p0, xi))
        return {"lp_status": sol.status, "lp_gap": sol.dual_gap,
                "lp_violation": sol.max_violation, "cost": typestats.intervention_cost(xi),
                "relaxed_margin": relaxed.margin, "original_margin": original.margin,
                "final_fraction": float(ys[-1]), "target": 1.0 - self.eps}

    def check(self, facts, d, out, done):
        outcome = Outcome(1.0 - self.eps)
        if "stats" in done:
            self.check_statistics(outcome, os.path.join(out, "statistics.json"), facts,
                                  True, self.threshold_rule)
        if "plan" in done:
            outcome.costs.append(self.check_plan(outcome, os.path.join(out, "plan.json")))
        if "validate" in done:
            outcome.finals.append(
                load_json(os.path.join(out, "validate.json"))["final_fraction"])
        return outcome


class McCriterion6(Workload):
    # Chosen because rejection sampling is almost all of its time (the LP is
    # trivial), so sampler changes show here and planner changes should not.
    # The statistics are exactly those of acceptance criterion 6: three
    # d = k = 4 types with thresholds 1, 2, 3, masses 0.3 / 0.4 / 0.3 and
    # linear costs.  The stats stage reads them off a small 4-regular
    # realization, so parse work stays near zero.
    name = "mc-criterion6"
    eps, delta, grid_n = 0.1, 0.05, 100
    mc_n, replicates = 100_000, 20
    # Validation draws the same networks in every operation and every run:
    # draws per replicate are geometric (sd about equal to the mean), which
    # would put a ~20% spread on one operation.  106 is criterion 6's seed.
    validate_seed = 106
    nodes = 10_000
    thresholds = ((1, 0.3), (2, 0.4), (3, 0.3))

    def input_files(self, d):
        return [os.path.join(d, "edges.txt"), os.path.join(d, "thresholds.txt")]

    def generate(self, d):
        """Circulant 4-regular directed network on a seeded node order, with
        seeded threshold labels in exact 3:4:3 proportions."""
        rng = np.random.default_rng(self.seed)
        n = self.nodes
        order = rng.permutation(n)
        tails = np.concatenate([order] * 4)
        heads = np.concatenate([np.roll(order, -off) for off in (1, 2, 3, 4)])
        rho = rng.permutation(np.repeat([r for r, _ in self.thresholds],
                                        [round(m * n) for _, m in self.thresholds]))
        write_edge_list(os.path.join(d, "edges.txt"), tails, heads)
        with open(os.path.join(d, "thresholds.txt"), "w") as fh:
            fh.write("".join("%d\n" % r for r in rho[first_appearance_order(tails, heads)]))
        out_deg = np.bincount(tails, minlength=n)
        in_deg = np.bincount(heads, minlength=n)
        return {"n": n, "links": int(tails.size), "types": len(self.thresholds),
                "regular": bool(np.all(out_deg == 4) and np.all(in_deg == 4)),
                "self_loops": int(np.sum(tails == heads)),
                "shares": {r: float(np.mean(rho == r)) for r, _ in self.thresholds}}

    def properties(self, facts):
        exact = all(facts["shares"][r] == m for r, m in self.thresholds)
        return [("d = k = 4 at every node", facts["regular"]),
                ("no self-loops", facts["self_loops"] == 0),
                ("threshold masses 0.3 / 0.4 / 0.3", exact)]

    def stages(self, d, out):
        stats, plan = os.path.join(out, "statistics.json"), os.path.join(out, "plan.json")
        return [
            ("stats", ["stats", "--edges", os.path.join(d, "edges.txt"),
                       "--threshold-rule", "file:" + os.path.join(d, "thresholds.txt"),
                       "--cost-rule", "linear", "--seed", str(self.seed), "--out", out]),
            ("plan", ["plan", "--statistics", stats] + self.plan_args()
             + ["--seed", str(self.seed), "--out", out]),
            ("validate", ["validate", "--statistics", stats, "--plan", plan,
                          "--eps", str(self.eps), "--mc-n", str(self.mc_n),
                          "--replicates", str(self.replicates),
                          "--seed", str(self.validate_seed), "--out", out]),
        ]

    def check(self, facts, d, out, done):
        outcome = Outcome(1.0 - self.eps)
        if "stats" in done:
            doc = self.check_statistics(outcome, os.path.join(out, "statistics.json"), facts,
                                        False, "file:" + os.path.join(d, "thresholds.txt"))
            got = sorted((t["d"], t["k"], t["r"], tuple(t["cost"]), t["mass"])
                         for t in doc["types"])
            want = sorted((4, 4, r, tuple(float(e) for e in range(r + 1)), m)
                          for r, m in self.thresholds)
            outcome.expect(got == want, "statistics.json: not the criterion-6 statistics")
        if "plan" in done:
            outcome.costs.append(self.check_plan(outcome, os.path.join(out, "plan.json")))
        if "validate" in done:
            doc = load_json(os.path.join(out, "validate.json"))
            outcome.expect(doc["replicates"] == self.replicates,
                           "validate.json: %r replicates" % doc["replicates"])
            outcome.expect(doc["sup_dev_y"] <= MC_SUP_DEV_TOL,
                           "validate.json: sup|Y-y| = %.4g" % doc["sup_dev_y"])
            outcome.expect(doc["sup_dev_z"] <= MC_SUP_DEV_TOL,
                           "validate.json: sup|Z-z| = %.4g" % doc["sup_dev_z"])
            outcome.expect(doc["success_rate"] >= MC_SUCCESS_MIN,
                           "validate.json: success rate %.3g" % doc["success_rate"])
            outcome.finals.extend(doc["final_fractions"])
        return outcome

    def reference_costs(self):
        # the statistics do not depend on the seed, so neither does the plan
        return load_reference().get(self.name, {}).get("any")


class PowergridInstances(Workload):
    # Chosen because it loads the planner layers the opposite way from
    # epinions-heavy: many tiny LPs on the small-k scalar binomial-tail path,
    # and the CLI re-parses the network for every threshold instance.  A
    # change that buys large-LP speed with per-call set-up cost shows here.
    # The network has the power grid's shape: sparse, connected, spatially
    # local (long diameter), n = 4941 and 6594 undirected edges.
    name = "powergrid-instances"
    eps, delta, grid_n = 0.3, 0.05, 100
    threshold_rule = "uniform-random"
    instances = 10
    nodes, edges_target = 4941, 6594

    def __init__(self, seed):
        # The seed picks one of REFERENCE_SEEDS networks, the ones whose plan
        # costs bench/reference.json holds, so every seed has a reference.
        super().__init__(seed % REFERENCE_SEEDS)

    def generate(self, d):
        """Random geometric tree (each node joins its nearest earlier node in
        a seeded order) plus short links to one of the 5 nearest neighbours."""
        rng = np.random.default_rng(self.seed)
        n = self.nodes
        pts = rng.random((n, 2))
        edges = set()
        for i in range(1, n):
            j = int(np.argmin(((pts[:i] - pts[i]) ** 2).sum(axis=1)))
            edges.add((j, i))
        _, near = cKDTree(pts).query(pts, k=6)
        while len(edges) < self.edges_target:
            i = int(rng.integers(n))
            j = int(near[i, rng.integers(1, 6)])
            edges.add((min(i, j), max(i, j)))
        e = np.array(sorted(edges))
        e = e[rng.permutation(len(e))]
        write_edge_list(os.path.join(d, "edges.txt"), e[:, 0], e[:, 1])
        adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
        components, _ = connected_components(adj, directed=False)
        deg = np.bincount(e.ravel(), minlength=n)
        # thresholds are drawn by the program, so the type count is not known here
        return {"n": n, "links": 2 * len(e), "types": None, "k_max": int(deg.max()),
                "components": int(components), "mean_degree": float(deg.mean())}

    def properties(self, facts):
        return [("connected", facts["components"] == 1),
                ("mean degree 2.67", abs(facts["mean_degree"] - 2.67) < 0.01),
                ("k_max <= 20", facts["k_max"] <= 20)]

    def stages(self, d, out):
        return [("experiment", ["experiment"] + self.network_args(d) + self.plan_args()
                 + ["--instances", str(self.instances), "--out", out])]

    def check(self, facts, d, out, done):
        outcome = Outcome(1.0 - self.eps)
        if "experiment" in done:
            summary = load_json(os.path.join(out, "experiment.json"))
            for key in ("instances", "eps", "grid_n"):
                outcome.expect(summary[key] == getattr(self, key),
                               "experiment.json: %s=%r" % (key, summary[key]))
            outcome.expect(float(summary["delta"]) == self.delta,
                           "experiment.json: delta=%r" % summary["delta"])
            for inst in range(self.instances):
                inst_dir = os.path.join(out, "instance%02d" % inst)
                self.check_statistics(outcome, os.path.join(inst_dir, "statistics.json"),
                                      facts, True, self.threshold_rule)
                outcome.costs.append(self.check_plan(outcome,
                                                     os.path.join(inst_dir, "plan.json")))
                outcome.finals.append(_final_fraction(os.path.join(inst_dir, "trajectory.csv")))
        return outcome


def _final_fraction(trajectory_csv):
    """Y at the last row of a trajectory CSV (t,Y,Z,...)."""
    with open(trajectory_csv) as fh:
        last = fh.read().strip().splitlines()[-1]
    return float(last.split(",")[1])


WORKLOADS = {w.name: w for w in (EpinionsHeavy, McCriterion6, PowergridInstances)}
