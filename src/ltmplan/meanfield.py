"""Binomial-tail numerics and the one-dimensional mean-field maps.

Everything here is built on one quantity, the survival probability of a
Binomial(k, z) variable at level r.  It has two kernels behind one entry
point, `_tail`.  A scalar z, and any evaluation whose (k, r) triangle is
large, goes through the regularized incomplete beta identity
P[Bin(k, z) >= r] = I_z(r, k - r + 1).  An array z whose triangle of all
pairs up to the largest k has at most PASCAL_COST entries per value betainc
would compute instead fills that whole triangle by Pascal's rule and reads
the pairs off it.  `_Curves` builds every tail table, one column per
distinct (k, r) pair; psi and phi weigh each type's column by its mass and
by its link share, and each intervention coefficient is a difference of two
columns.  An independent summation oracle lives in the test suite.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy import special as sc

RECURSION_STEPS = 10_000
RECURSION_TOL = 1e-12
BISECTION_STEPS = 60
Z_SLACK = 1e-15   # rounding allowed outside [0, 1] before z is clipped
# One betainc value costs as much as 11 to 30 entries of the Pascal triangle,
# its gather included: 58-67 ns against 3.5-5.8 ns for k <= 13 on a
# 1001-point grid, 97 against 3.3 ns at k = 60 (the ratio grows with k).
# 8 keeps the triangle a clear win wherever it is chosen.
PASCAL_COST = 8


def binom_tail(k, r, z):
    """P[Bin(k, z) >= r] for z in [0, 1], broadcast over k, r and z.

    Scalar in, scalar out.  Accurate to ~1e-13 relative up to k of order 1e5.
    """
    return _scalar(_tail(_tail_params(k, r), _unit(z)))


def _scalar(values):
    """A 0-d result as a float: a scalar z gives a scalar curve value."""
    return float(values) if np.ndim(values) == 0 else values


def _tail_params(k, r):
    """The checked parameters of P[Bin(k, z) >= r]: k and r broadcast
    together, betainc's (r, k - r + 1) and the mask of the sure events r = 0."""
    k, r = np.broadcast_arrays(np.asarray(k), np.asarray(r))
    bad = (r < 0) | (r > k)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError("need 0 <= r <= k, got r=%d, k=%d" % (r.flat[i], k.flat[i]))
    return k, r, np.maximum(r, 1), k - r + 1, r == 0


def _unit(z) -> np.ndarray:
    """z as a float array, checked to lie in [0, 1] up to rounding (NaN fails)."""
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= -Z_SLACK and z.max() <= 1 + Z_SLACK):
        raise ValueError("z outside [0, 1]")
    return np.clip(z, 0.0, 1.0)


def _grid(z) -> np.ndarray:
    """z from `_unit` with a trailing axis for the pairs of a tail table; a
    0-d z stays 0-d, so that a single point is one betainc evaluation."""
    z = _unit(z)
    return z[..., None] if z.ndim else z


def _tail(params, z) -> np.ndarray:
    """The tail at parameters from `_tail_params` and z from `_unit`,
    broadcast together.  An array z takes Pascal's rule when the triangle of
    all pairs up to the largest k costs at most PASCAL_COST entries per value
    betainc would compute; a scalar z, and every larger triangle, betainc."""
    k, r, a, b, sure = params
    if getattr(z, "ndim", 0) and k.size and z.size:
        k_max = int(k.max())
        values = math.prod(np.broadcast_shapes(k.shape, z.shape))
        if (k_max + 1) * (k_max + 2) // 2 * z.size <= PASCAL_COST * values:
            return _pascal(k, r, z, k_max)
    # I_z(r, k - r + 1) is 0 at z = 0 and 1 at z = 1; r = 0 is the sure event
    return np.where(sure, 1.0, sc.betainc(a, b, z))


def _pascal(k, r, z, k_max: int) -> np.ndarray:
    """The tails at (k, r) broadcast against z, read off every tail up to
    k_max at every z, built at once by T(j, s) = z T(j-1, s-1) + (1-z) T(j-1, s)
    with T(j, 0) = 1.  Each step is a convex combination of non-negative
    numbers: nothing cancels, and z = 0 and z = 1 give exactly 0 and 1."""
    zs = z.reshape(-1)
    # row j (j + 1) / 2 + s holds T(j, s) at every z
    table = np.empty(((k_max + 1) * (k_max + 2) // 2, zs.size))
    table[0] = 1.0
    q = 1.0 - zs
    for j in range(1, k_max + 1):
        prev = table[(j - 1) * j // 2: j * (j + 1) // 2]
        row = table[j * (j + 1) // 2: (j + 1) * (j + 2) // 2]
        row[0] = 1.0
        np.multiply(prev, zs, out=row[1:])
        # T(j - 1, j) = 0: the top entry has no (1 - z) term
        row[1:-1] += prev[1:] * q
    at = (k * (k + 1) // 2 + r) * zs.size + np.arange(zs.size).reshape(z.shape)
    return table.ravel().take(at)


def _distinct_pairs(k: np.ndarray, r: np.ndarray):
    """Distinct (k, r) pairs of two integer arrays, with the index of each
    input position into them."""
    stride = int(r.max(initial=0)) + 1
    _, first, inverse = np.unique(k * stride + r, return_index=True,
                                  return_inverse=True)
    return k[first], r[first], inverse.reshape(-1)


def _gather(table, at, weights):
    """The sum over i of table column at[i] times weights[i].  The gather is
    C-ordered, so every z shape sums the same terms in the same order."""
    return _scalar(table.take(at, axis=-1) @ weights)


def _link_share(p) -> np.ndarray:
    """Each type's link share d m / <p, d>: phi's weights."""
    mean_d = p.moment("d")
    if not mean_d > 0.0:
        raise ValueError("degree-weighted map undefined: <p, d> = 0")
    return p.d * p.m / mean_d


class _Curves:
    """The one builder of a tail table, over the distinct (k, r) pairs of p's
    types and of further (k, r) groups, checked once; `at[i]` holds group i's
    columns.  psi and phi weigh p's type columns by mass m and link share."""

    def __init__(self, p, *groups):
        ks, rs = zip((p.k, p.r), *groups)
        k, r, inverse = _distinct_pairs(np.concatenate(ks), np.concatenate(rs))
        self._params = _tail_params(k, r)
        self.p = p
        self.types, *self.at = np.split(inverse, np.cumsum([k.size for k in ks])[:-1])

    @cached_property
    def link(self) -> np.ndarray:
        return _link_share(self.p)

    def tails(self, z) -> np.ndarray:
        if isinstance(z, float):
            # the bisection and recursion steps: _unit's check and clip in
            # plain Python, which costs far less than on a 0-d array
            if not -Z_SLACK <= z <= 1 + Z_SLACK:
                raise ValueError("z outside [0, 1]")
            return _tail(self._params, min(max(z, 0.0), 1.0))
        return _tail(self._params, _grid(z))

    def psi(self, z):
        return _gather(self.tails(z), self.types, self.p.m)

    def phi(self, z):
        return _gather(self.tails(z), self.types, self.link)

    def psi_phi(self, z):
        """Both curves from one tail evaluation."""
        tails = self.tails(z)
        return _gather(tails, self.types, self.p.m), _gather(tails, self.types, self.link)


def psi(p, z):
    """Mass-weighted activation probability: expected fraction of active
    agents when each observed neighbor is active independently w.p. z.
    Scalar or array z."""
    return _Curves(p).psi(z)


def phi(p, z):
    """Degree-weighted activation probability: expected fraction of links
    pointing to active agents.  Scalar or array z."""
    return _Curves(p).phi(z)


def _columns(table, lo, hi, d, mean_d: float) -> np.ndarray:
    """Coefficient columns d (T[lo] - T[hi]) / <p0, d> of a tail table T,
    where lo and hi index each column's (k, r - eta) and (k, r) tails."""
    out = table[..., lo] - table[..., hi]
    np.clip(out, 0.0, None, out=out)
    out *= d
    out /= mean_d
    return out


def lift(p0, d, k, r, eta, z, post=None):
    """(phi of p0, coefficients a, phi of the statistics `post` or None) at
    z from one tail table.  Column j of a, shape z.shape + (columns,), is
    d (P[Bin(k, z) >= r - eta] - P[Bin(k, z) >= r]) / <p0, d>, the rise of
    phi per unit mass of type (d, k, r) moved down by eta threshold units:
    non-negative, and moving masses x makes phi0 + a @ x of phi."""
    d, k, r, eta = (np.atleast_1d(np.asarray(v, dtype=np.int64)) for v in (d, k, r, eta))
    bad = (eta < 1) | (eta > r)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError("eta=%d outside 1..r=%d" % (eta[i], r[i]))
    groups = [(k, r - eta), (k, r)] + ([] if post is None else [(post.k, post.r)])
    curves = _Curves(p0, *groups)
    table = curves.tails(z)
    lo, hi, *at = curves.at
    return (_gather(table, curves.types, curves.link),
            _columns(table, lo, hi, d, p0.moment("d")),
            None if post is None else _gather(table, at[0], _link_share(post)))


def coeff_a(w, eta: int, z, p0):
    """Coefficient a_{w,eta}(z) of one (type, eta) column; see lift."""
    return _scalar(lift(p0, w.d, w.k, w.r, eta, z)[1][..., 0])


def phi_post(xi, z):
    """phi after the intervention xi over z, from one tail table: (direct,
    from xi.post; decomposed, as phi0 plus the lift of the moved masses).
    The relaxed audit cross-checks the two."""
    p0, moved = xi.base, xi.moved()
    code = xi.code[moved]
    phi0, columns, direct = lift(p0, p0.d[code], p0.k[code], p0.r[code],
                                 xi.eta[moved], z, xi.post)
    return direct, phi0 + columns @ xi.mass[moved]


def phi_decomposed(xi, z):
    """phi of the post-intervention statistics written as the baseline curve
    plus a linear correction in the intervention masses; see phi_post."""
    return _scalar(phi_post(xi, z)[1])


def recursion(p):
    """Iterate z(t+1) = phi_p(z(t)), y(t+1) = psi_p(z(t)) from (0, 0).

    Returns (list of (z, y) pairs, converged flag).  The map is monotone from
    0, so z is non-decreasing and the iteration stops once the step drops
    below RECURSION_TOL, or after RECURSION_STEPS steps.
    """
    curves = _Curves(p)
    traj = [(0.0, 0.0)]
    for _ in range(RECURSION_STEPS):
        y, z = curves.psi_phi(traj[-1][0])
        traj.append((z, y))
        if abs(z - traj[-2][0]) < RECURSION_TOL:
            return traj, True
    return traj, False


def derivative_bound(p0) -> float:
    """Uniform bound d_max 2^(k_max+1) k_max / <p0, d> + 1 on
    |d/dz (phi(z) - z)| over every intervention of p0.

    Astronomically loose on heavy-tailed networks (the 2^k_max factor);
    meaningful only at small maximum out-degree.  The power of two is applied
    as an exponent shift, and a bound beyond the float range is returned as
    inf: no grid is fine enough, so only the empirical regime is available.
    """
    k_max = p0.k_max()
    scale = p0.d_max() * k_max / p0.moment("d")
    try:
        return math.ldexp(scale, k_max + 1) + 1.0
    except OverflowError:
        return math.inf


def psi_inverse(p, level: float) -> float:
    """Generalized inverse inf{z in [0,1] : psi(z) >= level} by
    BISECTION_STEPS bisection steps; robust to plateaus since psi is
    non-decreasing."""
    if not (0.0 <= level <= 1.0):
        raise ValueError("level must lie in [0, 1]")
    curves = _Curves(p)
    hi_val = curves.psi(1.0)
    if level > hi_val + 1e-15:
        raise ValueError("level %.17g exceeds psi(1) = %.17g" % (level, hi_val))
    if curves.psi(0.0) >= level:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if curves.psi(mid) >= level:
            hi = mid
        else:
            lo = mid
    return hi


def dump_curves(p, path, num: int = 1001):
    """Write z, psi, phi, phi - z on an even grid as CSV."""
    zs = np.linspace(0.0, 1.0, num)
    psis, phis = _Curves(p).psi_phi(zs)
    with open(path, "w") as fh:
        fh.write("z,psi,phi,phi_minus_z\n")
        for z, a, b in zip(zs, psis, phis):
            fh.write("%.17g,%.17g,%.17g,%.17g\n" % (z, a, b, b - z))
