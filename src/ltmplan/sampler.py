"""Configuration-model sampling and realization of statistical interventions.

Networks are drawn by pairing out-stubs with in-stubs uniformly at random,
rejecting and redrawing whole pairings until none of them joins a node to
itself.  That is exact rejection: the accepted wiring is uniform over the
self-loop-free pairings, and a pairing is accepted with probability about
exp(-<dk>/<d>).  Per-edge repair is deliberately not used: it would bias the
law away from the uniform conditional distribution.

A pairing is drawn as a table of stub counts between contiguous groups of
nodes plus a uniform matching inside each block (`_Pairing`).  Only the
diagonal blocks can hold a self-loop.  An attempt keeps each table row with
the exact probability that its diagonal block holds none (`_LoopFree`, by
inclusion-exclusion over rook numbers) and stops at the first rejection, so
a rejected draw samples no stub.  Only an accepted table draws its blocks,
each diagonal one by rejection within the block.  The table is accepted with
the probability that a uniform pairing is loop-free and each block is then
uniform over its loop-free matchings, so the law is that of whole-pairing
rejection.  Attempts run one after another on the calling thread; attempt j
draws from child j of the seed's generator (`Generator.spawn`), so the wiring
depends only on the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import MultiGraph, cascade_fractions
from .meanfield import recursion
from .typestats import Statistics, StatIntervention, check_well_posed

log = logging.getLogger(__name__)


class SamplerError(RuntimeError):
    pass


def _largest_remainder(targets, total: int, rng) -> np.ndarray:
    """Integer counts summing to total, floor + largest remainder; exact
    remainder ties broken by a seeded shuffle so runs are reproducible."""
    targets = np.asarray(targets, dtype=float)
    # a target within round-off of an integer is that integer: LP round-off
    # such as 16.999999999996742 for 17 nodes must not draw a leftover unit
    nearest = np.round(targets)
    near = np.abs(targets - nearest) <= 1e-9 * np.maximum(1.0, nearest)
    targets = np.where(near, nearest, targets)
    floors = np.floor(targets).astype(np.int64)
    leftover = total - int(floors.sum())
    if leftover < 0:
        # tolerate tiny overshoot from float noise
        order = np.argsort(targets - floors)
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


def round_intervention(xi: StatIntervention, n: int, seed=None) -> np.ndarray:
    """Integer node counts per entry of xi summing per type to round(n * p_w).

    Idempotent when all n * xi_w(eta) are already integers.
    """
    rng = np.random.default_rng(seed)
    counts = np.zeros(xi.code.size, dtype=np.int64)
    # entries are sorted by type code: each type is one run of them
    for run in np.split(np.arange(xi.code.size), np.flatnonzero(np.diff(xi.code)) + 1):
        masses = xi.mass[run]
        total = int(round(n * float(masses.sum())))
        counts[run] = _largest_remainder(n * masses, total, rng)
    return counts


@dataclass(frozen=True)
class SampleInfo:
    attempts: int
    predicted_acceptance: float   # exp(-<dk>/<d>), the law of this sampler


def _type_counts(p: Statistics, n: int, rng) -> np.ndarray:
    """Node count per entry of p.types(), rounded over the support only."""
    support = p.m > 0.0
    counts = np.zeros(p.m.size, dtype=np.int64)
    counts[support] = _largest_remainder(n * p.m[support], n, rng)
    return counts


def _expected_loops(p: Statistics) -> float:
    # a uniform pairing joins sum_i d_i k_i / (n <d>) = <dk>/<d> stub pairs
    # of the same node on average, Poisson in the large-n limit; with no
    # links there is none
    mean_d = p.moment("d")
    return p.moment("dk") / mean_d if mean_d else 0.0


# G is about sqrt(m / GROUP_COST).  A rejected attempt of G groups draws
# about G / <loops> table rows, each one multivariate hypergeometric draw and
# one loop-free probability, and no stub; the accepted one draws each
# diagonal block about e^(<loops> / G) times.  Fewer groups make rejections
# cheaper and the accepted draw dearer.  Measured with numpy 2.4 on an x86-64
# Xeon vCPU at d = k = 4 and m = 4e5, draws interleaved: a rejected attempt
# costs 78-116 us at 1024 (19 groups) and 45-64 us at 4096 (9 groups), the
# accepted draw 1.5-2.3 ms more at 4096, and the expected time per network
# is flat within 3% from 1024 to 4096 (likewise at m = 1.2e5).
GROUP_COST = 1024

# A loop-free probability q is summed until the terms left fall below
# TRUNCATION * q, and it is trusted only while the round-off of its
# alternating sum, EPS_SUM * (sum of the terms' magnitudes), stays below
# TRUST * q.  An accepted q is therefore at least EPS_SUM / TRUST = 1e-6, so
# a table whose dropped terms add up to less than TRUNCATION * 1e-6 is long
# enough for every probability that can be accepted.
TRUNCATION = 1e-17
EPS_SUM = 1e-15
TRUST = 1e-9

# q of a block that expects lam loops is about e^-lam against terms of about
# e^lam in all, so it is trusted up to lam of about 6.9.  A group of nodes u
# with a_i out-stubs and b_i in-stubs holds about a_i b_i / m stub pairs in
# its diagonal block, which then expects sum_u k_u d_u / m loops; groups are
# added until no block expects more than LOOPS_PER_BLOCK, so a block must
# draw more than twice its typical size to leave the trusted range.
LOOPS_PER_BLOCK = 3.0


def _shuffle_runs(rng, a, sizes):
    """Shuffle the array a in place within consecutive runs of these sizes."""
    ends = np.cumsum(sizes).tolist()
    for start, end in zip([0] + ends, ends):
        rng.shuffle(a[start:end])


def _deal_by_rows(stubs, table):
    """Reorder stubs laid out block by block in column-major order of table
    (block (i, j) holds table[i, j] of them) into row-major order, keeping
    the order inside each block: each block is copied from its column-major
    offset to its row-major offset."""
    counts = table.ravel()
    by_col = table.T.ravel()
    col_at = (np.cumsum(by_col) - by_col).reshape(table.shape).T.ravel()
    row_at = np.cumsum(counts) - counts
    dealt = np.empty_like(stubs)
    for size, row, col in zip(counts.tolist(), row_at.tolist(), col_at.tolist()):
        dealt[row:row + size] = stubs[col:col + size]
    return dealt


def _power(poly, c, size):
    """The polynomial poly to the power c, truncated to `size` coefficients."""
    out = np.ones(1)
    while True:
        if c & 1:
            out = np.convolve(out, poly)[:size]
        c >>= 1
        if not c:
            return out
        poly = np.convolve(poly, poly)[:size]


class _LoopFree:
    """Loop-free probabilities of one node group's diagonal block.

    The group's loop board holds the cells (out-stub, in-stub) of the same
    node.  Its rook numbers r_j, the ways to place j non-attacking rooks on
    it, are [x^j] prod_u sum_l C(k_u, l) C(d_u, l) l! x^l over the group's
    nodes u.  By inclusion-exclusion over the loops a matching holds, a
    uniform matching of N of the group's a out-stubs with N of its b
    in-stubs is loop-free with probability

        q(N) = sum_j (-1)^j r_j N^(j) / (a^(j) b^(j))

    (x^(j) the falling factorial; Riordan, An Introduction to Combinatorial
    Analysis, 1958, ch. 7-8).  The terms decay like lam^j / j!, lam = r_1 N
    / (a b) the expected number of loops, so only the first few are kept.
    """

    def __init__(self, runs, a, b, group):
        # runs: (k, d, node count) of the group; no matching of more than
        # `most` stubs is loop-free (Hall's condition on the node with the
        # most stubs)
        self.group, self.known = group, {}
        self.most = min(a, b, a + b - max((k + d for k, d, _ in runs), default=0))
        r1 = sum(k * d * c for k, d, c in runs)
        self.rook, self.fall = [1.0], []
        if not r1 or not self.most:
            return
        # x is scaled by s = most / (a b), so the stored r_j s^j stay near
        # lam_max^j / j! with lam_max = r_1 s, the most loops expected
        scale = self.most / (a * b)
        lam, wide = r1 * scale, max(a, b)
        # keep terms 0, ..., size - 1, where `bound` bounds |term size| at
        # every N: r_j <= r_1^j / j! and N^(j) / (a^(j) b^(j)) <= s^j
        # wide^j / wide^(j) for N <= most
        size, bound = 1, 1.0
        while size <= self.most:
            step = lam * wide / (size * (wide - size + 1))
            bound *= step
            if step <= 0.5 and 2 * bound < TRUNCATION * EPS_SUM / TRUST:
                break
            size += 1
        rook = np.ones(1)
        for k, d, c in runs:
            if k and d:
                # C(k, l) C(d, l) l! s^l for l = 0, 1, ...
                top = np.arange(min(k, d, size - 1))
                poly = np.cumprod(np.concatenate(
                    ([1.0], (k - top) * (d - top) * scale / (top + 1))))
                rook = np.convolve(rook, _power(poly, c, size))[:size]
        self.rook = rook.tolist()
        top = np.arange(len(self.rook) - 1)
        self.fall = (1.0 / ((a - top) * (b - top) * scale)).tolist()

    def __call__(self, n: int) -> float:
        """q(n), 0 when no matching of n stubs is loop-free."""
        q = self.known.get(n)
        if q is None:
            # a q lost to round-off raises on every call and is not kept
            q = self.known[n] = self._sum(n)
        return q

    def _sum(self, n: int) -> float:
        if n > self.most:
            return 0.0
        rook, fall = self.rook, self.fall
        q = total = term = run = 1.0
        for j in range(1, min(n, len(fall)) + 1):
            run *= (j - 1 - n) * fall[j - 1]
            last, term = term, rook[j] * run
            if 2 * abs(term) <= TRUNCATION * q and 2 * abs(term) <= abs(last):
                break
            q += term
            total += abs(term)
        if EPS_SUM * total > TRUST * q:
            raise SamplerError(
                "group %d: the loop-free probability of its %d diagonal stub "
                "pairs is lost to round-off, %.3g loops expected"
                % (self.group, n, rook[1] * n * fall[0]))
        return q


class _Pairing:
    """Uniform pairings of out-stubs with in-stubs, each list sorted by node.

    The nodes are split into G contiguous ranges with about equal stub counts,
    enough of them that no diagonal block expects more than LOOPS_PER_BLOCK
    loops.
    A uniform pairing is a G x G table N of stub counts between the groups
    plus a uniform matching inside each block.  Row i of N is multivariate
    hypergeometric over the in-stubs that rows < i left, and since groups
    are node ranges only a diagonal block can hold a self-loop.  An attempt
    therefore draws row i and keeps it with the probability `_LoopFree` gives
    that block N_ii of no loop, i = 0, 1, ..., and stops at the first
    rejection, drawing no stub.  Only an accepted table draws its blocks:
    each diagonal block by rejection among its own matchings, which makes it
    uniform over the loop-free ones, then the off-diagonal blocks.
    """

    def __init__(self, kappa, delta):
        nodes = np.arange(kappa.size)
        self.tails = np.repeat(nodes, kappa)
        self.heads_base = np.repeat(nodes, delta)
        # read-only, so every graph drawn from this pairing shares tails
        self.tails.setflags(write=False)
        self.heads_base.setflags(write=False)
        m = self.tails.size
        groups = max(1, math.isqrt(m // GROUP_COST))
        stubs = np.cumsum(kappa + delta)
        loops = kappa * delta
        while True:
            # first node of groups 1, ..., G - 1
            cut = 1 + np.searchsorted(stubs, np.arange(1, groups) * (2 * m / groups))
            # a group's block expects the sum of its nodes' k_u d_u over m
            # loops; starts of empty groups repeat and are dropped
            starts = np.unique(np.concatenate(([0], cut)))
            worst = np.add.reduceat(loops, starts[starts < kappa.size]).max() if m else 0
            if worst <= LOOPS_PER_BLOCK * m or groups >= kappa.size:
                break
            groups = min(kappa.size, max(groups + 1, math.ceil(
                groups * worst / (LOOPS_PER_BLOCK * m))))
        # group i owns tails[out_at[i]:out_at[i + 1]], likewise heads_base
        self.out_at = np.concatenate(([0], np.searchsorted(self.tails, cut), [m]))
        self.in_at = np.concatenate(([0], np.searchsorted(self.heads_base, cut), [m]))
        self.out_count, self.in_count = np.diff(self.out_at), np.diff(self.in_at)
        # each group's runs of nodes with equal (k, d), as (k, d, nodes)
        first = np.minimum(np.concatenate(([0], cut)), kappa.size)
        change = 1 + np.flatnonzero((np.diff(kappa) != 0) | (np.diff(delta) != 0))
        starts = np.union1d(first, change)
        starts = starts[starts < kappa.size]
        runs = [[] for _ in range(groups)]
        for group, k, d, size in zip(
                (np.searchsorted(first, starts, "right") - 1).tolist(),
                kappa[starts].tolist(), delta[starts].tolist(),
                np.diff(starts, append=kappa.size).tolist()):
            runs[group].append((k, d, size))
        self.loop_free = [
            _LoopFree(group_runs, a, b, group) for group, (group_runs, a, b) in
            enumerate(zip(runs, self.out_count.tolist(), self.in_count.tolist()))]

    def draw(self, rng):
        """Heads aligned with tails for a loop-free pairing, or None when the
        table was rejected."""
        out_count, in_count = self.out_count, self.in_count
        in_left = in_count.copy()
        table = np.empty((out_count.size, out_count.size), dtype=np.int64)
        for i, loop_free in enumerate(self.loop_free):
            table[i] = rng.multivariate_hypergeometric(in_left, out_count[i])
            in_left -= table[i]
            q = loop_free(int(table[i, i]))
            if q < 1.0 and rng.random() >= q:
                return None
        heads = np.empty_like(self.heads_base)
        free_out = np.ones(heads.size, dtype=bool)
        free_in = np.ones(heads.size, dtype=bool)
        for i in range(out_count.size):
            # block i: a uniform set of N_ii out-stubs of group i, paired with
            # a uniform sequence of N_ii of its in-stubs, until loop-free; an
            # accepted q is at least EPS_SUM / TRUST, so this ends, after
            # 1 / q draws on average
            while True:
                out = self.out_at[i] + rng.choice(out_count[i], table[i, i],
                                                  replace=False, shuffle=False)
                inn = self.in_at[i] + rng.choice(in_count[i], table[i, i],
                                                 replace=False)
                ends = self.heads_base[inn]
                if not np.any(self.tails[out] == ends):
                    break
            heads[out] = ends
            free_out[out] = False
            free_in[inn] = False
        # the off-diagonal blocks: shuffle the free in-stubs' nodes within
        # their column group, deal them to the rows by the off-diagonal
        # counts, then shuffle them within each row onto that row's free
        # out-stubs
        np.fill_diagonal(table, 0)
        ends = self.heads_base[free_in]
        _shuffle_runs(rng, ends, table.sum(axis=0))
        ends = _deal_by_rows(ends, table)
        _shuffle_runs(rng, ends, table.sum(axis=1))
        heads[free_out] = ends
        return heads


def sample_configuration_model(p: Statistics, n: int, seed=None,
                               max_retries: int = 1000, *, _pairings=None):
    """Draw a network with n nodes and type statistics p.

    Out-stubs (node repeated by out-degree) are matched to in-stubs (node
    repeated by in-degree) by a uniform pairing, redrawn until no stub
    pairing joins a node to itself.  Attempt j (1-based, at most
    max_retries) draws from child j of `Generator.spawn`; the first
    loop-free attempt is accepted and `SampleInfo.attempts` is its index.
    Returns (graph, thresholds, per-node type codes into p.types(),
    SampleInfo).

    `_pairings`, a dict one caller keeps across its calls on the same p and
    n, shares one `_Pairing` among the calls that round to the same type
    counts; the draws do not depend on it.
    """
    if isinstance(seed, np.random.SeedSequence):
        # spawning advances a SeedSequence; spawn from a copy so that the
        # same seed draws the same network on every call
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    rng = np.random.default_rng(seed)
    counts = _type_counts(p, n, rng)
    report = check_well_posed(n, p)
    if not report.moment_balance or not report.degree_bound:
        raise SamplerError("statistics not realizable on %d nodes: %s" % (n, report))
    type_of = np.repeat(np.arange(counts.size), counts)
    kappa, delta, rho = p.k[type_of], p.d[type_of], p.r[type_of]
    if int(kappa.sum()) != int(delta.sum()):
        raise SamplerError("stub imbalance after rounding: %d out vs %d in"
                           % (int(kappa.sum()), int(delta.sum())))
    pairings = {} if _pairings is None else _pairings
    key = counts.tobytes()
    if key not in pairings:
        pairings[key] = _Pairing(kappa, delta)
    pairing = pairings[key]
    loops = _expected_loops(p)
    acceptance = math.exp(-loops)
    for attempt in range(1, max_retries + 1):
        heads = pairing.draw(rng.spawn(1)[0])
        if heads is not None:
            log.debug("accepted attempt %d, predicted acceptance "
                      "exp(-<dk>/<d>) = %.4g", attempt, acceptance)
            heads.setflags(write=False)
            g = MultiGraph(type_of.size, pairing.tails, heads)
            return g, rho, type_of, SampleInfo(attempt, acceptance)
    raise SamplerError(
        "no self-loop-free wiring found in %d draws; asymptotic acceptance is "
        "exp(-<dk>/<d>) = %.3g with <dk>/<d> = %.3g, consider a larger retry "
        "budget" % (max_retries, acceptance, loops))


def realize_intervention(type_of, rho, xi: StatIntervention,
                         seed=None) -> np.ndarray:
    """Turn a statistical intervention into per-node threshold reductions on a
    concrete network whose node i has type xi.base.types()[type_of[i]].

    xi is rounded to node counts per entry on len(type_of) nodes, and each
    type's counts must add up to its node count on the network: a network
    with more or fewer nodes of a type is not one xi was planned for.  The
    nodes are shuffled once and stably sorted by type, so each type's nodes
    form one run in uniform random order, and the entries' reductions are
    dealt onto them in (type, eta) order.  Returns the per-node reductions h.
    """
    rng = np.random.default_rng(seed)
    type_of = np.asarray(type_of)
    counts = round_intervention(xi, type_of.size, seed=rng)
    types = xi.base.types()
    have = np.bincount(type_of, minlength=len(types))
    want = np.bincount(xi.code, counts, minlength=have.size).astype(np.int64)
    for bad, text in ((want > have, "asks for %d nodes of type %s, only %d available"),
                      (want < have, "places %d nodes of type %s, the network has %d")):
        if bad.any():
            code = np.flatnonzero(bad)[0]
            raise SamplerError("intervention " + text
                               % (want[code], types[code].label, have[code]))
    order = rng.permutation(type_of.size)
    h = np.empty(type_of.size, dtype=np.int64)
    h[order[np.argsort(type_of[order], kind="stable")]] = np.repeat(xi.eta, counts)
    rho = np.asarray(rho, dtype=np.int64)
    if np.any(h > rho):
        raise SamplerError("realized intervention exceeds thresholds")
    return h


def trajectory_table(ys, zs, rec) -> np.ndarray:
    """Rows (Y(t), Z(t), y(t), z(t)): a run's active and link fractions
    beside the mean-field recursion's list of (z, y) pairs, aligned by
    index; the shorter trajectory holds its last value."""
    columns = [ys, zs, *np.array(rec).T[::-1]]
    horizon = max(c.size for c in columns)
    return np.column_stack([np.pad(c, (0, horizon - c.size), mode="edge")
                            for c in columns])


@dataclass(frozen=True)
class McReport:
    replicates: int
    final_fractions: np.ndarray
    success_rate: float
    sup_dev_y: float
    sup_dev_z: float
    tables: list                  # trajectory_table of each replicate
    nu: float
    mean_attempts: float
    attempts: list                # accepted attempt index per replicate
    predicted_acceptance: float   # exp(-<dk>/<d>) of the sampled statistics
    seed: object = None

    def to_dict(self):
        return {
            "replicates": self.replicates,
            "final_fractions": [float(v) for v in self.final_fractions],
            "success_rate": self.success_rate,
            "sup_dev_y": self.sup_dev_y,
            "sup_dev_z": self.sup_dev_z,
            "nu": self.nu,
            "mean_attempts": self.mean_attempts,
            "attempts": list(self.attempts),
            "predicted_acceptance": self.predicted_acceptance,
            "seed": self.seed,
        }


def monte_carlo_validate(xi: StatIntervention, n: int, replicates: int,
                         eps: float, seed=None) -> McReport:
    """Sample networks from the post-intervention statistics xi.post, run the
    cascade from all-zeros, and compare against the mean-field recursion.

    Success per replicate means the final active fraction reaches 1 - eps.
    Replicates use independent child seeds and merge deterministically; the
    replicates that round to the same type counts share one `_Pairing`.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1, got %d" % replicates)
    post = xi.post
    rec, _ = recursion(post)
    attempts, tables, pairings = [], [], {}
    for rng_seed in np.random.SeedSequence(seed).spawn(replicates):
        g, rho, _, info = sample_configuration_model(post, n, seed=rng_seed,
                                                     _pairings=pairings)
        attempts.append(info.attempts)
        ys, zs, _ = cascade_fractions(g, rho)
        tables.append(trajectory_table(ys, zs, rec))
    finals = np.array([table[-1, 0] for table in tables])
    sup = np.max([np.abs(table[:, :2] - table[:, 2:]).max(axis=0)
                  for table in tables], axis=0)
    return McReport(
        replicates=replicates, final_fractions=finals,
        success_rate=float(np.mean(finals >= 1.0 - eps)),
        sup_dev_y=float(sup[0]), sup_dev_z=float(sup[1]),
        tables=tables,
        nu=post.nu(),
        mean_attempts=float(np.mean(attempts)),
        attempts=attempts,
        predicted_acceptance=math.exp(-_expected_loops(post)),
        seed=seed,
    )
