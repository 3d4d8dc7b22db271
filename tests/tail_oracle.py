"""Summation oracle for the binomial survival function.

Independent of the production incomplete-beta evaluation: sums the binomial
terms directly, starting at the mode so every accumulated term is
representable even at large k.
"""

import math


def tail_sum(k: int, r: int, z: float) -> float:
    """Scalar P[Bin(k, z) >= r] by a term-recurrence sum started at the
    binomial mode and expanded outward."""
    z = float(z)
    if z <= 0.0:
        return 0.0 if r >= 1 else 1.0
    if z >= 1.0:
        return 1.0
    u0 = min(max(int((k + 1) * z), r), k)
    log_t0 = (math.lgamma(k + 1) - math.lgamma(u0 + 1) - math.lgamma(k - u0 + 1)
              + u0 * math.log(z) + (k - u0) * math.log1p(-z))
    t0 = math.exp(log_t0)
    total = t0
    t = t0
    ratio = z / (1.0 - z)
    for u in range(u0, k):
        t *= (k - u) / (u + 1.0) * ratio
        total += t
        if t < total * 1e-20:
            break
    t = t0
    inv = (1.0 - z) / z
    for u in range(u0, r, -1):
        t *= u / (k - u + 1.0) * inv
        total += t
        if t < total * 1e-20:
            break
    return min(total, 1.0)
