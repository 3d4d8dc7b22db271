"""Agent types, empirical statistics and statistical interventions.

A type bundles in-degree, out-degree, threshold and the threshold-reduction
cost table of an agent.  Statistics are the empirical distribution of types,
held as one sorted type table: `types()` and the aligned read-only arrays
`d`, `k`, `r` and `m` (the masses), built once per `Statistics`.  A node of
a concrete network carries its type as an integer code into that table, so
per-node work is array indexing.  A statistical intervention moves per-type
mass to lower-threshold copies of the same type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


class StatsError(ValueError):
    """Inconsistent types, statistics or interventions."""


@dataclass(frozen=True, order=True)
class AgentType:
    """(in-degree, out-degree, threshold, cost table c(0..r))."""

    d: int
    k: int
    r: int
    cost: tuple

    def __post_init__(self):
        if self.d < 0 or self.k < 0:
            raise StatsError("degrees must be non-negative")
        if not (0 <= self.r <= self.k):
            raise StatsError("threshold r=%d outside 0..k=%d" % (self.r, self.k))
        cost = tuple(float(c) for c in self.cost)
        if len(cost) != self.r + 1:
            raise StatsError("cost table must have r+1=%d entries, got %d"
                             % (self.r + 1, len(cost)))
        if cost and cost[0] != 0.0:
            raise StatsError("cost of the null reduction must be 0")
        if any(b < a for a, b in zip(cost, cost[1:])):
            raise StatsError("cost table must be non-decreasing")
        if not all(0.0 <= c < math.inf for c in cost):
            raise StatsError("costs must be finite and non-negative")
        object.__setattr__(self, "cost", cost)

    def cost_at(self, eta: int) -> float:
        return self.cost[eta]

    def reduced(self, eta: int) -> "AgentType":
        """The type obtained by lowering the threshold by eta units.

        The cost table is the same underlying function, truncated to the new
        threshold range; two types merge after reduction iff they agree on
        degrees and on the surviving cost entries.
        """
        if not (0 <= eta <= self.r):
            raise StatsError("reduction eta=%d outside 0..r=%d" % (eta, self.r))
        return AgentType(self.d, self.k, self.r - eta, self.cost[: self.r - eta + 1])


@dataclass(frozen=True, eq=False)
class Statistics:
    """Probability distribution over agent types.

    When extracted from a concrete graph, exact integer counts and n are kept
    alongside the float masses so integrality checks do not suffer drift.
    Equality is identity: compare type tables and masses explicitly.
    """

    masses: dict
    counts: dict | None = None
    n: int | None = None

    def __post_init__(self):
        masses = {w: float(m) for w, m in self.masses.items()}
        if not masses:
            raise StatsError("statistics must contain at least one type")
        for w, m in masses.items():
            if not -MASS_TOL <= m < math.inf:
                raise StatsError("mass %g on type %s is negative or not finite"
                                 % (m, w))
        total = math.fsum(masses.values())
        if abs(total - 1.0) > 1e-9:
            raise StatsError("type masses sum to %.17g, expected 1" % total)
        object.__setattr__(self, "masses", masses)
        if self.counts is not None:
            if self.n is None:
                raise StatsError("counts given without n")
            if sum(self.counts.values()) != self.n:
                raise StatsError("type counts do not sum to n")
        # the type table: sorted types and aligned degree, threshold and
        # mass arrays; a type's code is its index here
        types = tuple(sorted(masses))
        table = {name: np.array([getattr(w, name) for w in types], dtype=np.int64)
                 for name in ("d", "k", "r")}
        table["m"] = np.array([masses[w] for w in types])
        for name, array in table.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_types", types)

    def types(self):
        return list(self._types)

    def mass(self, w: AgentType) -> float:
        return self.masses.get(w, 0.0)

    def support(self):
        return [self._types[i] for i in np.flatnonzero(self.m > 0.0)]

    def moment(self, which: str) -> float:
        """<p, f> for f in {d, k, d2, k2, dk}."""
        try:
            factors = {"d": "d", "k": "k", "d2": "dd", "k2": "kk", "dk": "dk"}[which]
        except KeyError:
            raise StatsError("unknown moment %r (use d, k, d2, k2, dk)" % which)
        f = np.prod([getattr(self, name) for name in factors], axis=0)
        return math.fsum((self.m * f).tolist())

    def nu(self) -> float:
        """<p, dk>/<p, d> - 1, the excess-degree parameter.  The directed
        configuration sampler draws a self-loop-free wiring with probability
        exp(-<dk>/<d>) = exp(-(nu + 1)), not the undirected exp(-nu/2)."""
        return self.moment("dk") / self.moment("d") - 1.0

    def d_min(self) -> int:
        return int(self.d[self.m > 0.0].min())

    def d_max(self) -> int:
        return int(self.d[self.m > 0.0].max())

    def k_max(self) -> int:
        return int(self.k[self.m > 0.0].max())


class StatIntervention:
    """Per-type mass moved to each reduction depth eta.

    masses maps (AgentType, eta) -> mass for eta = 0..r_w; for every type the
    masses over eta must sum to the type's mass in the base statistics.
    """

    def __init__(self, masses: dict):
        self.masses = {}
        for (w, eta), m in masses.items():
            if not (0 <= eta <= w.r):
                raise StatsError("eta=%d outside 0..r=%d for type %s" % (eta, w.r, w))
            m = float(m)
            if m < -MASS_TOL:
                raise StatsError("negative intervention mass %g" % m)
            if m != 0.0:
                self.masses[(w, eta)] = m

    def mass(self, w: AgentType, eta: int) -> float:
        return self.masses.get((w, eta), 0.0)

    def items(self):
        return sorted(self.masses.items())

    def active_items(self):
        """(w, eta, mass) triples with eta >= 1 and positive mass."""
        return [(w, eta, m) for (w, eta), m in self.items() if eta >= 1 and m > 0.0]

    def validate_against(self, p0: Statistics, tol: float = MASS_TOL):
        seen = set()
        for (w, eta) in self.masses:
            seen.add(w)
            if w not in p0.masses:
                raise StatsError("intervention touches type %s absent from p0" % (w,))
        for w in p0.support():
            total = math.fsum(self.mass(w, eta) for eta in range(w.r + 1))
            if abs(total - p0.mass(w)) > tol:
                raise StatsError(
                    "intervention mass %.17g on type %s does not match p0 mass %.17g"
                    % (total, w, p0.mass(w)))
        return self


def null_intervention(p0: Statistics) -> StatIntervention:
    """All mass at eta = 0; leaves the statistics unchanged and costs 0."""
    return StatIntervention({(w, 0): m for w, m in p0.masses.items()})


def post_statistics(p0: Statistics, xi: StatIntervention) -> Statistics:
    """Statistics after applying xi: each reduced slice of a type becomes the
    corresponding lower-threshold type.  Total mass and the d/k first moments
    are conserved exactly."""
    xi.validate_against(p0)
    out: dict[AgentType, float] = dict(p0.masses)
    for w, eta, m in xi.active_items():
        out[w] = out.get(w, 0.0) - m
        w2 = w.reduced(eta)
        out[w2] = out.get(w2, 0.0) + m
    out = {w: m for w, m in out.items() if abs(m) > MASS_TOL}
    # clip the tiny negatives cancellation can leave behind
    out = {w: (0.0 if -MASS_TOL < m < 0.0 else m) for w, m in out.items()}
    return Statistics(out)


def intervention_cost(xi: StatIntervention) -> float:
    return math.fsum(m * w.cost_at(eta) for (w, eta), m in xi.masses.items())


# ---------------------------------------------------------------------------
# cost and threshold rules

def cost_rule(name: str):
    """Preset cost-table builders mapping (d, k, r) -> tuple c(0..r).

    linear:       c(eta) = eta
    seeding:      c(eta) = r for eta > 0 (all-or-nothing, weighted)
    unit-seeding: c(eta) = 1 for eta > 0 (all-or-nothing, unit cost)
    file:PATH:    explicit JSON list of {d, k, r, cost} records
    """
    if name == "linear":
        return lambda d, k, r: tuple(float(e) for e in range(r + 1))
    if name == "seeding":
        return lambda d, k, r: (0.0,) + (float(r),) * r
    if name == "unit-seeding":
        return lambda d, k, r: (0.0,) + (1.0,) * r
    if name.startswith("file:"):
        with open(name[5:]) as fh:
            records = json.load(fh)
        table = {(int(rec["d"]), int(rec["k"]), int(rec["r"])): tuple(rec["cost"])
                 for rec in records}

        def lookup(d, k, r):
            try:
                return table[(d, k, r)]
            except KeyError:
                raise StatsError("no cost table for (d=%d, k=%d, r=%d) in file" % (d, k, r))
        return lookup
    raise StatsError("unknown cost rule %r" % name)


def threshold_rule(name: str, seed=None):
    """Preset per-node threshold builders given a graph.

    half-out-degree: r_i = floor(kappa_i / 2)
    uniform-random:  r_i uniform on {1..kappa_i} (0 when kappa_i = 0)
    file:PATH:       one integer per line, node order of the id map
    """
    if name == "half-out-degree":
        return lambda g: g.out_degrees // 2
    if name == "uniform-random":
        rng = np.random.default_rng(seed)

        def draw(g):
            kappa = g.out_degrees
            rho = np.zeros(g.n, dtype=np.int64)
            pos = kappa >= 1
            rho[pos] = rng.integers(1, kappa[pos] + 1)
            return rho
        return draw
    if name.startswith("file:"):
        path = name[5:]

        def load(g):
            rho = np.loadtxt(path, dtype=np.int64, ndmin=1)
            if rho.size != g.n:
                raise StatsError("threshold file has %d entries, graph has %d nodes"
                                 % (rho.size, g.n))
            return rho
        return load
    raise StatsError("unknown threshold rule %r" % name)


def extract_statistics(g, rho, cost_fn):
    """Group nodes by (in-degree, out-degree, threshold); the cost table is
    cost_fn of those three.

    Returns (Statistics with exact counts, per-node type codes into its
    `types()`).
    """
    keys = np.stack([g.in_degrees, g.out_degrees, np.asarray(rho, dtype=np.int64)])
    # one stable sort on (d, k, r), d first; a type starts wherever a row
    # differs from the one before.  Nothing is packed, so no key can overflow.
    order = np.lexsort(keys[::-1])
    rows = keys[:, order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(rows[:, 1:] != rows[:, :-1], axis=0)
    type_of = np.empty(order.size, dtype=np.int64)
    type_of[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    counts = np.diff(np.append(first, order.size))
    # lexicographic (d, k, r) order is the sorted type order, since the cost
    # table is a function of (d, k, r)
    types = [AgentType(d, k, r, cost_fn(d, k, r))
             for d, k, r in rows[:, first].T.tolist()]
    counts = dict(zip(types, counts.tolist()))
    masses = {w: c / g.n for w, c in counts.items()}
    return Statistics(masses, counts=counts, n=g.n), type_of


# ---------------------------------------------------------------------------
# well-posedness

@dataclass(frozen=True)
class WellPosedReport:
    integer_masses: bool
    moment_balance: bool
    degree_bound: bool

    @property
    def ok(self) -> bool:
        return self.integer_masses and self.moment_balance and self.degree_bound


def check_well_posed(n: int, p: Statistics) -> WellPosedReport:
    """Diagnose whether a type distribution can be realized on n nodes as a
    self-loop-free multigraph: integer type counts, total in-degree equal to
    total out-degree, and no single node demanding more stubs than exist."""
    if n < 1:
        raise StatsError("n must be >= 1")
    integer_ok = bool(np.all(np.abs(n * p.m - np.round(n * p.m)) <= 1e-9))
    mean_d = p.moment("d")
    mean_k = p.moment("k")
    balance_ok = abs(mean_d - mean_k) <= 1e-12 * max(1.0, mean_d)
    degree_ok = bool(np.all((p.d + p.k)[p.m > 0.0] <= n * mean_d + 1e-9))
    return WellPosedReport(integer_ok, balance_ok, degree_ok)


# ---------------------------------------------------------------------------
# serialization (JSON shapes shared with the CLI)

def statistics_to_records(p: Statistics):
    return [{"d": w.d, "k": w.k, "r": w.r, "cost": list(w.cost), "mass": m}
            for w, m in zip(p.types(), p.m.tolist())]


def statistics_from_records(records, n=None):
    masses = {}
    for rec in records:
        w = AgentType(int(rec["d"]), int(rec["k"]), int(rec["r"]), tuple(rec["cost"]))
        if w in masses:
            raise StatsError("duplicate type record for %s" % (w,))
        masses[w] = float(rec["mass"])
    p = Statistics(masses)      # checks the masses before they are counted
    if not n:
        return p
    counts = {w: int(round(n * m)) for w, m in p.masses.items()}
    return Statistics(p.masses, counts=counts, n=n)


def intervention_to_records(xi: StatIntervention):
    return [{"d": w.d, "k": w.k, "r": w.r, "cost": list(w.cost),
             "eta": eta, "mass": m}
            for (w, eta), m in xi.items()]


def intervention_from_records(records) -> StatIntervention:
    masses = {}
    for rec in records:
        w = AgentType(int(rec["d"]), int(rec["k"]), int(rec["r"]), tuple(rec["cost"]))
        key = (w, int(rec["eta"]))
        masses[key] = masses.get(key, 0.0) + float(rec["mass"])
    return StatIntervention(masses)
