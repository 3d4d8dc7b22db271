"""Directed multigraph storage and synchronous threshold dynamics.

A node observes the heads of its outgoing links: node i switches to state 1
when at least rho_i of the nodes it points to are in state 1.  Thresholds are
therefore bounded by the out-degree.  Parallel edges count with multiplicity;
self-loops are never allowed.

The adjacency is a CSR matrix whose index arrays and data share one integer
dtype, int32 whenever the node and link counts are below 2**31 and int64
otherwise (`_index_dtype`).  A node's active count never exceeds its
out-degree, hence never the link count, so products in that dtype cannot
overflow.  In-degrees are counted only when read.  A product A x sums to
the number of links into active nodes, so a cascade reads its link
fractions off the products it makes.  A cascade from all-zeros reads its
first step off the thresholds, x(1) = (rho == 0), so every product it makes
is a step that can change the state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)


class GraphError(ValueError):
    """Malformed graph, state, threshold or intervention data."""


def _index_dtype(size: int):
    """The CSR index and count dtype for a graph whose node and link counts
    are at most `size`."""
    return np.int32 if size < 2**31 else np.int64


def _own(a) -> np.ndarray:
    """a as a contiguous int64 array for the graph to freeze: a itself when
    it is read-only already, else a copy, so the caller's writeable array
    stays writeable."""
    if (isinstance(a, np.ndarray) and a.dtype == np.int64
            and a.flags.c_contiguous and not a.flags.writeable):
        return a
    return np.array(a, dtype=np.int64, ndmin=1)


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Immutable directed multigraph given by parallel tail/head arrays,
    with its out-degrees stored read-only and its in-degrees counted, and
    frozen, the first time they are read.  Two graphs compare equal only
    when they are the same object.

    A tail or head array that is already read-only, contiguous and int64 is
    shared; any other input is copied, so the graph never freezes or sees
    later writes to its caller's writeable arrays.

    The adjacency's index arrays and data are int32 while n and the link
    count are below 2**31, else int64; `neighbor_activity` returns its
    counts in that dtype.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray
    out_degrees: np.ndarray = field(init=False, repr=False)
    _adj: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph must have at least one node, got n=%d" % self.n)
        tails, heads = _own(self.tails), _own(self.heads)
        if tails.shape != heads.shape or tails.ndim != 1:
            raise GraphError("tails and heads must be 1-D arrays of equal length")
        for name, ids in (("tail", tails), ("head", heads)):
            if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.n:
                raise GraphError("%s node id out of range [0, %d)" % (name, self.n))
        loops = tails == heads
        if loops.any():
            bad = int(np.argmax(loops))
            raise GraphError("self-loop at edge %d (node %d)" % (bad, int(tails[bad])))
        out_degrees = np.bincount(tails, minlength=self.n)
        for name, a in (("tails", tails), ("heads", heads), ("out_degrees", out_degrees)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # row i of the adjacency lists the heads of node i's edges, repeated
        # heads included, in any order: a product with it counts them with
        # multiplicity.  Sampled networks come with their tails sorted.
        by_tail = heads[np.argsort(tails)] if np.any(tails[1:] < tails[:-1]) else heads
        dtype = _index_dtype(max(self.n, tails.size))
        indptr = np.zeros(self.n + 1, dtype=dtype)
        np.cumsum(out_degrees, dtype=dtype, out=indptr[1:])
        adj = sp.csr_matrix(
            (np.ones(tails.size, dtype=dtype), by_tail.astype(dtype), indptr),
            shape=(self.n, self.n),
        )
        object.__setattr__(self, "_adj", adj)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """Per-node count of incoming links, counted and frozen when first
        read."""
        in_degrees = np.bincount(self.heads, minlength=self.n)
        in_degrees.setflags(write=False)
        return in_degrees

    @property
    def edge_count(self) -> int:
        return int(self.tails.size)

    def neighbor_activity(self, x: np.ndarray) -> np.ndarray:
        """Per-node count of active observed neighbors in the 0/1 state x,
        with multiplicity, in the adjacency's dtype.  The counts sum to the
        number of links into active nodes."""
        return self._adj @ x.astype(self._adj.dtype)


def _check_state(g: MultiGraph, x) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (g.n,):
        raise GraphError("state has length %d, expected %d" % (x.size, g.n))
    if not ((x == 0) | (x == 1)).all():
        raise GraphError("state entries must be 0 or 1")
    return x.astype(np.int8)


def check_thresholds(g: MultiGraph, rho, clamp: bool = False) -> np.ndarray:
    """Validate a threshold vector against out-degrees.

    With clamp=True, entries above the out-degree are lowered to it instead of
    rejected (callers should record that this happened).
    """
    rho = np.asarray(rho)
    if rho.shape != (g.n,):
        raise GraphError("threshold vector has length %d, expected %d" % (rho.size, g.n))
    if not np.issubdtype(rho.dtype, np.integer):
        if not np.all(rho == np.floor(rho)):
            raise GraphError("thresholds must be integers")
    rho = rho.astype(np.int64)
    if rho.min(initial=0) < 0:
        raise GraphError("thresholds must be non-negative")
    kappa = g.out_degrees
    if np.any(rho > kappa):
        if clamp:
            rho = np.minimum(rho, kappa)
        else:
            bad = int(np.flatnonzero(rho > kappa)[0])
            raise GraphError(
                "threshold %d exceeds out-degree %d at node %d"
                % (int(rho[bad]), int(kappa[bad]), bad)
            )
    return rho


def ltm_step(g: MultiGraph, rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One synchronous update: node i is active iff its observed active count
    meets its threshold.  The input state is not modified."""
    x = _check_state(g, x)
    rho = check_thresholds(g, rho)
    return (g.neighbor_activity(x) >= rho).astype(np.int8)


def ltm_trajectory(g: MultiGraph, rho, x0, t_max: int):
    """Iterate the threshold map from x0 for up to t_max steps.

    Returns (states, fixed_point, t_stop, links) where states = [x(0), ...,
    x(t_stop)] and fixed_point is True when x(t_stop) maps to itself
    (detected one step early, so the trajectory is not padded with repeats).
    links[t] is the number of links into nodes active in x(t), the sum of
    the product that stepped from x(t), for every state that was multiplied:
    all of them when fixed_point is True, all but x(t_stop) when t_max cut
    the run off.
    """
    if t_max < 0:
        raise GraphError("t_max must be >= 0")
    x = _check_state(g, x0)
    # a threshold is at most its node's out-degree, so it fits the counts' dtype
    rho = check_thresholds(g, rho).astype(g._adj.dtype)
    states = [x]
    links = []
    fixed = False
    for _ in range(t_max):
        counts = g.neighbor_activity(x)
        links.append(int(counts.sum(dtype=np.int64)))
        x_next = (counts >= rho).view(np.int8)
        if np.array_equal(x_next, x):
            fixed = True
            break
        states.append(x_next)
        x = x_next
    return states, fixed, len(states) - 1, links


def cascade_fractions(g: MultiGraph, rho):
    """Run the cascade from all-zeros; return per-step (active fraction Y,
    fraction of links pointing to active nodes Z) and the fixed-point flag.

    Z(t) is read off the product that stepped from x(t); Z(0) = 0."""
    rho = check_thresholds(g, rho)
    zero = np.zeros(g.n, dtype=np.int8)
    # the first step from all-zeros activates exactly the zero thresholds
    first = (rho == 0).view(np.int8)
    if first.any():
        # from all-zeros the dynamics are monotone: after x(1), at most n - 1
        # steps change the state and one more confirms the fixed point, so
        # every state is multiplied within n products
        states, fixed, _, links = ltm_trajectory(g, rho, first, g.n)
        assert fixed and len(links) == len(states)
        states.insert(0, zero)
    else:
        states, fixed, links = [zero], True, []
    # a link-free network has Z = 0 throughout
    total_links = float(g.edge_count) or 1.0
    ys = np.array([np.count_nonzero(s) / g.n for s in states])
    zs = np.array([0] + links) / total_links
    return ys, zs, fixed


def apply_intervention(rho, h) -> np.ndarray:
    """Reduce thresholds entry-wise; h must not exceed rho anywhere."""
    rho = np.asarray(rho, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    if rho.shape != h.shape:
        raise GraphError("intervention length %d does not match thresholds %d"
                         % (h.size, rho.size))
    if h.min(initial=0) < 0:
        raise GraphError("intervention entries must be non-negative")
    if np.any(h > rho):
        bad = int(np.flatnonzero(h > rho)[0])
        raise GraphError("infeasible intervention: h=%d > rho=%d at node %d"
                         % (int(h[bad]), int(rho[bad]), bad))
    return rho - h


def active_fraction(x) -> float:
    x = np.asarray(x)
    return float(x.sum()) / x.size


def check_target(g: MultiGraph, rho, h, eps: float):
    """Simulate from the all-zeros state under reduced thresholds and test
    whether the final active fraction reaches 1 - eps.

    Returns (ok, final_fraction, t_stop), read off `cascade_fractions`.
    """
    if not (0 < eps <= 1):
        raise GraphError("eps must lie in (0, 1]")
    ys, _, _ = cascade_fractions(g, apply_intervention(check_thresholds(g, rho), h))
    frac = float(ys[-1])
    return frac >= 1.0 - eps, frac, ys.size - 1


def parse_edge_list(path, undirected: bool = False, drop_self_loops: bool = False):
    """Read a whitespace-separated "tail head" file into a MultiGraph.

    Lines starting with '#' or '%' are comments.  Node tokens are arbitrary
    strings, remapped to contiguous ids; the mapping is returned so results
    can be reported in the original labels.  With undirected=True every line
    u v emits both (u, v) and (v, u).
    """
    id_map: dict[str, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    dropped = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError("%s:%d: expected 'tail head', got %r"
                                 % (path, lineno, line))
            u_tok, v_tok = parts[0], parts[1]
            if u_tok == v_tok:
                if drop_self_loops:
                    dropped += 1
                    continue
                raise GraphError("%s:%d: self-loop on node %r (use --drop-self-loops)"
                                 % (path, lineno, u_tok))
            u = id_map.setdefault(u_tok, len(id_map))
            v = id_map.setdefault(v_tok, len(id_map))
            tails.append(u)
            heads.append(v)
            if undirected:
                tails.append(v)
                heads.append(u)
    if not id_map:
        raise GraphError("%s: no edges found, empty network rejected" % path)
    if dropped:
        log.warning("dropped %d self-loop line(s) from %s", dropped, path)
    g = MultiGraph(len(id_map), tails, heads)
    return g, id_map
