"""Configuration-model sampling and realization of statistical interventions.

Networks are drawn by pairing out-stubs with in-stubs through a uniform
random permutation, rejecting and redrawing whole permutations until none of
the pairings is a self-loop.  That is exact rejection: the accepted wiring
is uniform over the self-loop-free pairings, and a pairing is accepted with
probability about exp(-<dk>/<d>).  Per-edge repair is deliberately not used:
it would bias the law away from the uniform conditional distribution.

Attempts run concurrently, a batch at a time, on one thread per CPU this
process may use, or inline when that is one; numpy releases the interpreter
lock for the shuffle and the loop check.  Attempt j draws from child j of
the seed's generator (`Generator.spawn`), and the lowest-index loop-free
attempt is accepted, so the wiring depends only on the seed, never on the
number of threads.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .graph import MultiGraph, ltm_trajectory
from .meanfield import recursion
from .typestats import Statistics, StatIntervention, check_well_posed

log = logging.getLogger(__name__)


class SamplerError(RuntimeError):
    pass


def _largest_remainder(targets, total: int, rng) -> np.ndarray:
    """Integer counts summing to total, floor + largest remainder; exact
    remainder ties broken by a seeded shuffle so runs are reproducible."""
    targets = np.asarray(targets, dtype=float)
    floors = np.floor(targets + 1e-12).astype(np.int64)
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
    nu: float
    predicted_acceptance: float   # exp(-<dk>/<d>), the law of this sampler


def _type_counts(p: Statistics, n: int, rng) -> np.ndarray:
    """Node count per entry of p.types(), rounded over the support only."""
    support = p.m > 0.0
    counts = np.zeros(p.m.size, dtype=np.int64)
    counts[support] = _largest_remainder(n * p.m[support], n, rng)
    return counts


def _expected_loops(p: Statistics) -> float:
    # a uniform pairing joins sum_i d_i k_i / (n <d>) = <dk>/<d> stub pairs
    # of the same node on average, Poisson in the large-n limit
    return p.moment("dk") / p.moment("d")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def sample_configuration_model(p: Statistics, n: int, seed=None,
                               max_retries: int = 1000):
    """Draw a network with n nodes and type statistics p.

    Out-stubs (node repeated by out-degree) are matched to in-stubs (node
    repeated by in-degree) by a uniform permutation, redrawn until no stub
    pairing joins a node to itself.  Attempt j (1-based, at most
    max_retries) shuffles with child j of `Generator.spawn`; the first
    loop-free attempt is accepted and `SampleInfo.attempts` is its index.
    Returns (graph, thresholds, per-node type codes into p.types(),
    SampleInfo).
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
    tails = np.repeat(np.arange(type_of.size), kappa)
    heads_base = np.repeat(np.arange(type_of.size), delta)
    loops = _expected_loops(p)
    acceptance = math.exp(-loops)

    def draw(stream):
        heads = stream.permutation(heads_base)
        return None if np.any(tails == heads) else heads

    # no more workers than attempts; one worker draws inline, where a pool
    # would only add its set-up cost
    workers = min(_cpu_count(), max_retries)
    with (ThreadPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        run = map if pool is None else pool.map
        tried = 0
        while tried < max_retries:
            batch = min(workers, max_retries - tried)
            drawn = list(run(draw, rng.spawn(batch)))
            for attempt, heads in enumerate(drawn, tried + 1):
                if heads is not None:
                    log.debug("accepted attempt %d, predicted acceptance "
                              "exp(-<dk>/<d>) = %.4g, %d workers",
                              attempt, acceptance, workers)
                    g = MultiGraph(type_of.size, tails, heads)
                    info = SampleInfo(attempt, p.nu(), acceptance)
                    return g, rho, type_of, info
            tried += batch
    raise SamplerError(
        "no self-loop-free wiring found in %d draws; asymptotic acceptance is "
        "exp(-<dk>/<d>) = %.3g with <dk>/<d> = %.3g, consider a larger retry "
        "budget" % (max_retries, acceptance, loops))


def realize_intervention(type_of, rho, xi: StatIntervention,
                         seed=None) -> np.ndarray:
    """Turn a statistical intervention into per-node threshold reductions on a
    concrete network whose node i has type xi.base.types()[type_of[i]].

    xi is rounded to node counts per entry on len(type_of) nodes; for
    each count with eta >= 1, in (type, eta) order, that many nodes of the
    type not yet picked are drawn uniformly without replacement and reduced
    by eta.  Returns the per-node reductions h.
    """
    rng = np.random.default_rng(seed)
    type_of = np.asarray(type_of)
    counts = round_intervention(xi, type_of.size, seed=rng)
    h = np.zeros(type_of.size, dtype=np.int64)
    pools: dict = {}
    for code, eta, c in zip(xi.code.tolist(), xi.eta.tolist(), counts.tolist()):
        if eta == 0 or c == 0:
            continue
        pool = pools[code] if code in pools else np.flatnonzero(type_of == code)
        if c > pool.size:
            raise SamplerError("intervention asks for %d nodes of type %s, only %d "
                               "available" % (c, xi.base.types()[code].label, pool.size))
        chosen = rng.choice(pool.size, size=c, replace=False)
        h[pool[chosen]] = eta
        pools[code] = np.delete(pool, chosen)
    rho = np.asarray(rho, dtype=np.int64)
    if np.any(h > rho):
        raise SamplerError("realized intervention exceeds thresholds")
    return h


def cascade_fractions(g: MultiGraph, rho):
    """Run the cascade from all-zeros; return per-step (active fraction Y,
    fraction of links pointing to active nodes Z)."""
    # from all-zeros the dynamics are monotone, so the fixed point arrives
    # within n steps; one extra step confirms it
    states, fixed, _ = ltm_trajectory(g, rho, np.zeros(g.n, dtype=np.int8), g.n + 1)
    delta = g.in_degrees
    total_links = float(delta.sum())
    ys = np.array([s.sum() / g.n for s in states])
    zs = np.array([(delta * s).sum() / total_links for s in states])
    return ys, zs, fixed


@dataclass(frozen=True)
class McReport:
    replicates: int
    final_fractions: np.ndarray
    success_rate: float
    sup_dev_y: float
    sup_dev_z: float
    network_trajectories: list
    recursion_trajectory: list
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
    Replicates use independent child seeds and merge deterministically.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1, got %d" % replicates)
    post = xi.post
    rec, _ = recursion(post)
    # the recursion output lags one step: y(t+1) = psi(z(t)); align by index
    mean_field = np.array(rec).T[::-1]      # rows y(t), z(t)
    sup = np.zeros(2)
    finals = []
    attempts = []
    trajectories = []
    for rng_seed in np.random.SeedSequence(seed).spawn(replicates):
        g, rho, _, info = sample_configuration_model(post, n, seed=rng_seed)
        attempts.append(info.attempts)
        ys, zs, _ = cascade_fractions(g, rho)
        trajectories.append((ys, zs))
        finals.append(float(ys[-1]))
        # the shorter trajectory holds its last value
        horizon = max(ys.size, len(rec))
        network = np.pad([ys, zs], ((0, 0), (0, horizon - ys.size)), mode="edge")
        predicted = np.pad(mean_field, ((0, 0), (0, horizon - len(rec))), mode="edge")
        sup = np.maximum(sup, np.max(np.abs(network - predicted), axis=1))
    finals = np.array(finals)
    return McReport(
        replicates=replicates, final_fractions=finals,
        success_rate=float(np.mean(finals >= 1.0 - eps)),
        sup_dev_y=float(sup[0]), sup_dev_z=float(sup[1]),
        network_trajectories=trajectories,
        recursion_trajectory=rec,
        nu=post.nu(),
        mean_attempts=float(np.mean(attempts)),
        attempts=attempts,
        predicted_acceptance=math.exp(-_expected_loops(post)),
        seed=seed,
    )
