"""Agent types, empirical statistics and statistical interventions.

A type bundles in-degree, out-degree, threshold and the threshold-reduction
cost table of an agent.  Statistics are the empirical distribution of types,
held as one sorted type table: `types()`, the aligned read-only arrays
`d`, `k`, `r` and `m` (the masses) and `cost(code, eta)`, built once per
`Statistics`.  A node of a concrete network, and an entry of a statistical
intervention (mass moved to a lower-threshold copy of a type), carry their
type as an integer code into that table, so per-type work is array indexing.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

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

    @property
    def label(self) -> str:   # for messages: a cost table can be thousands long
        return "(d=%d, k=%d, r=%d)" % (self.d, self.k, self.r)

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
    """Probability distribution over agent types, each of mass > MASS_TOL.

    Given n (as when extracted from a graph), `counts` holds the exact node
    count of each type of `types()`, so integrality checks do not drift.
    Equality is identity: compare type tables and masses explicitly.
    """

    masses: dict
    n: int | None = None

    def __post_init__(self):
        masses = {w: float(m) for w, m in self.masses.items()}
        for w, m in masses.items():
            if not -MASS_TOL <= m < math.inf:
                raise StatsError("mass %g on type %s is negative or not finite"
                                 % (m, w.label))
        total = math.fsum(masses.values())
        if abs(total - 1.0) > 1e-9:
            raise StatsError("type masses sum to %.17g, expected 1" % total)
        if self.n is not None and self.n < 1:
            raise StatsError("n must be >= 1, got %r" % (self.n,))
        masses = {w: m for w, m in masses.items() if m > MASS_TOL}
        object.__setattr__(self, "masses", masses)
        # the type table: sorted types and aligned degree, threshold and
        # mass arrays; a type's code is its index here
        types = tuple(sorted(masses))
        table = {name: np.array([getattr(w, name) for w in types], dtype=np.int64)
                 for name in ("d", "k", "r")}
        table["m"] = np.array([masses[w] for w in types])
        # the cost tables end to end: type i's starts at _offset[i]
        table["_offset"] = np.cumsum([0] + [len(w.cost) for w in types[:-1]])
        table["_costs"] = np.array([c for w in types for c in w.cost])
        if self.n is not None:
            nodes = self.n * table["m"]
            table["counts"] = np.rint(nodes).astype(np.int64)
            if int(table["counts"].sum()) != self.n:
                raise StatsError("type counts do not sum to n")
            bad = np.flatnonzero(~_whole_counts(nodes))
            if bad.size:
                raise StatsError("type %s has n m = %.17g nodes, not a whole count"
                                 % (types[bad[0]].label, nodes[bad[0]]))
        object.__setattr__(self, "counts", None)
        for name, array in table.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_types", types)

    def types(self):
        return list(self._types)

    def cost(self, code, eta):
        """c_w(eta) of the type with the given code; broadcasts over arrays."""
        return self._costs[self._offset[code] + eta]

    support = types

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
        return int(self.d.min())

    def d_max(self) -> int:
        return int(self.d.max())

    def k_max(self) -> int:
        return int(self.k.max())


def _whole_counts(nodes) -> np.ndarray:
    """Whether each n m of `nodes` is a whole node count: within
    1e-9 max(1, n m) of an integer, the round-off a count may carry."""
    return np.abs(nodes - np.rint(nodes)) <= 1e-9 * np.maximum(1.0, nodes)


class StatIntervention:
    """Mass moved from each type of `base` down by eta = 0..r_w threshold
    units: aligned read-only arrays `code` (into base.types()), `eta` and
    `mass`, sorted by (code, eta), positive masses only.  Checked once, here:
    per type of the table, the masses over eta sum to its mass in base.
    Everything computed from an intervention reads its base and its
    post-intervention statistics off it: `base` and `post`."""

    def __init__(self, base: Statistics, code, eta, mass):
        code, eta, mass = (np.asarray(v, dtype=float).reshape(-1) for v in (code, eta, mass))
        bad = np.flatnonzero(~((code >= 0) & (code < base.m.size) & (code == np.rint(code))))
        if bad.size:
            raise StatsError("intervention type code %g outside the whole numbers 0..%d"
                             % (code[bad[0]], base.m.size - 1))
        code = code.astype(np.int64)
        order = np.lexsort((eta, code))
        code, eta, mass = code[order], eta[order], mass[order]
        repeated = np.append(False, (code[1:] == code[:-1]) & (eta[1:] == eta[:-1]))
        for bad, what in (((eta < 0) | (eta > base.r[code]) | (eta != np.rint(eta)),
                           "eta outside the whole numbers 0..r"),
                          (~np.isfinite(mass), "mass not finite"),
                          (mass < -MASS_TOL, "negative mass"),
                          (repeated, "duplicate entry")):
            if bad.any():
                i = np.flatnonzero(bad)[0]
                raise StatsError("intervention eta=%g, mass %g on type %s: %s" % (
                    eta[i], mass[i], base.types()[code[i]].label, what))
        eta = eta.astype(np.int64)
        totals = np.bincount(code, mass, minlength=base.m.size)
        bad = np.flatnonzero(np.abs(totals - base.m) > MASS_TOL)
        if bad.size:
            i = bad[0]
            raise StatsError("intervention mass %.17g on type %s does not match "
                             "its mass %.17g"
                             % (totals[i], base.types()[i].label, base.m[i]))
        keep = mass > 0.0
        code, eta, mass = code[keep], eta[keep], mass[keep]
        for array in (code, eta, mass):
            array.setflags(write=False)
        self.base, self.code, self.eta, self.mass = base, code, eta, mass

    def moved(self) -> np.ndarray:
        """Mask of the entries that move mass, eta >= 1."""
        return self.eta > 0

    @cached_property
    def post(self) -> Statistics:
        """The statistics after this intervention, built on first use."""
        return post_statistics(self)

    @staticmethod
    def from_masses(base: Statistics, masses: dict) -> "StatIntervention":
        """From {(AgentType, eta): mass}; every type must be in base."""
        return _from_entries(base, masses.items())


def _from_entries(base: Statistics, entries) -> StatIntervention:
    """An intervention from ((AgentType, eta), mass) pairs, each type looked
    up in base's table; an unknown type is a StatsError."""
    code = {w: i for i, w in enumerate(base.types())}
    for (w, _), _ in entries:
        if w not in code:
            raise StatsError("intervention touches type %s absent from the "
                             "statistics" % w.label)
    return StatIntervention(base, [code[w] for (w, _), _ in entries],
                            [eta for (_, eta), _ in entries], [m for _, m in entries])


def null_intervention(p0: Statistics) -> StatIntervention:
    """All mass at eta = 0; leaves the statistics unchanged and costs 0."""
    return StatIntervention(p0, np.arange(p0.m.size), np.zeros(p0.m.size), p0.m)


def post_statistics(xi: StatIntervention) -> Statistics:
    """Statistics after applying xi to its base: each reduced slice of a type
    becomes the corresponding lower-threshold type.  Total mass and the d/k
    first moments are conserved exactly.  `xi.post` holds the result."""
    types = xi.base.types()
    out: dict[AgentType, float] = dict(xi.base.masses)
    for i in np.flatnonzero(xi.moved()).tolist():
        w, m = types[xi.code[i]], float(xi.mass[i])
        out[w] = out.get(w, 0.0) - m
        w2 = w.reduced(int(xi.eta[i]))
        out[w2] = out.get(w2, 0.0) + m
    return Statistics(out)


def intervention_cost(xi: StatIntervention) -> float:
    return math.fsum((xi.mass * xi.base.cost(xi.code, xi.eta)).tolist())


# ---------------------------------------------------------------------------
# cost and threshold rules

def _record_type(d, k, r, cost, where="") -> AgentType:
    """The type a record describes; a table it rejects is a StatsError
    naming the record's (d, k, r) and `where` it was read."""
    try:
        return AgentType(d, k, r, tuple(cost))
    except StatsError as exc:
        raise StatsError("cost table for (d=%d, k=%d, r=%d)%s: %s"
                         % (d, k, r, where, exc)) from exc


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
        path = name[5:]
        with open(path) as fh:
            try:
                records = _read_records(json.load(fh), "d", "k", "r", "cost")
            except ValueError as exc:
                raise ValueError("%s: %s" % (path, exc)) from exc
        table = {}   # each record checked as the type it prices
        for d, k, r, cost in records:
            if (d, k, r) in table:
                raise StatsError("duplicate cost table for (d=%d, k=%d, r=%d) in %s"
                                 % (d, k, r, path))
            table[d, k, r] = _record_type(d, k, r, cost, " in " + path).cost

        def lookup(d, k, r):
            try:
                return table[(d, k, r)]
            except KeyError:
                raise StatsError("no cost table for (d=%d, k=%d, r=%d) in %s"
                                 % (d, k, r, path))
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
            with warnings.catch_warnings():
                # an empty file is reported by its entry count, below
                warnings.simplefilter("ignore", UserWarning)
                try:
                    rho = np.loadtxt(path, dtype=np.int64, ndmin=1)
                except ValueError as exc:
                    raise ValueError("%s: %s" % (path, exc)) from exc
            if rho.size != g.n:
                raise StatsError("threshold file %s has %d entries, graph has %d nodes"
                                 % (path, rho.size, g.n))
            return rho
        return load
    raise StatsError("unknown threshold rule %r" % name)


def extract_statistics(g, rho, cost_fn):
    """Group nodes by (in-degree, out-degree, threshold); the cost table is
    cost_fn of those three.

    Returns (Statistics with n, so with exact counts, per-node type codes
    into its `types()`).
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
    masses = {AgentType(d, k, r, cost_fn(d, k, r)): c / g.n
              for (d, k, r), c in zip(rows[:, first].T.tolist(), counts.tolist())}
    return Statistics(masses, n=g.n), type_of


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
    integer_ok = bool(np.all(_whole_counts(n * p.m)))
    mean_d = p.moment("d")
    mean_k = p.moment("k")
    balance_ok = abs(mean_d - mean_k) <= 1e-12 * max(1.0, mean_d)
    degree_ok = bool(np.all(p.d + p.k <= n * mean_d + 1e-9))
    return WellPosedReport(integer_ok, balance_ok, degree_ok)


# ---------------------------------------------------------------------------
# serialization (JSON shapes shared with the CLI)

# the JSON type of each field of a type record: `type(v) is int` keeps
# true and 2.0 out of the integer fields
_NUMBER = (int, float)
_FIELDS = {"d": (int,), "k": (int,), "r": (int,), "eta": (int,), "mass": _NUMBER,
           "cost": (list,)}


def _read_records(records, *keys):
    """The values at `keys` of each record of a statistics, intervention or
    cost-file record list, one tuple per record.  d, k, r and eta must be
    JSON integers, mass a number and cost a list of numbers; anything else
    is a ValueError naming the record."""
    if not isinstance(records, list):
        raise ValueError("type records must be a list, got %s" % type(records).__name__)
    rows = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError("record %d is not an object" % i)
        missing = [key for key in keys if key not in rec]
        if missing:
            raise ValueError("record %d lacks key %r" % (i, missing[0]))
        row = tuple(rec[key] for key in keys)
        for key, value in zip(keys, row):
            if type(value) not in _FIELDS[key]:
                raise ValueError("record %d: %s is %s" % (i, key, json.dumps(value)))
            if key == "cost" and any(type(c) not in _NUMBER for c in value):
                raise ValueError("record %d: cost is not a list of numbers" % i)
        rows.append(row)
    return rows


def statistics_to_records(p: Statistics):
    return [{"d": w.d, "k": w.k, "r": w.r, "cost": list(w.cost), "mass": m}
            for w, m in zip(p.types(), p.m.tolist())]


def statistics_from_records(records, n=None):
    if n is not None and not (type(n) is int and n >= 1):
        raise ValueError("n is %s, expected an integer >= 1" % json.dumps(n))
    masses = {}
    for d, k, r, cost, mass in _read_records(records, "d", "k", "r", "cost", "mass"):
        w = _record_type(d, k, r, cost)
        if w in masses:
            raise StatsError("duplicate type record for %s" % w.label)
        masses[w] = float(mass)
    return Statistics(masses, n=n)


def intervention_to_records(xi: StatIntervention):
    types = xi.base.types()
    return [{"d": w.d, "k": w.k, "r": w.r, "cost": list(w.cost),
             "eta": eta, "mass": m}
            for w, eta, m in zip([types[c] for c in xi.code.tolist()],
                                 xi.eta.tolist(), xi.mass.tolist())]


def intervention_from_records(records, p0: Statistics) -> StatIntervention:
    """The intervention on p0 that the records describe; a repeated
    (type, eta) record is rejected, as a repeated type is in statistics."""
    return _from_entries(p0, [
        ((_record_type(d, k, r, cost), eta), float(mass)) for d, k, r, cost, eta, mass
        in _read_records(records, "d", "k", "r", "cost", "eta", "mass")])
