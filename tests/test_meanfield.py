import math

import numpy as np
import pytest
from scipy.stats import binom

from conftest import lin, random_intervention, random_statistics
from ltmplan import meanfield
from ltmplan.meanfield import (binom_tail, coeff_a, derivative_bound,
                               dump_curves, phi, phi_decomposed, psi,
                               psi_inverse, recursion)
from ltmplan.typestats import AgentType, Statistics, post_statistics
from tail_oracle import tail_sum


def test_binom_tail_edges():
    assert binom_tail(5, 0, 0.3) == 1.0
    assert binom_tail(5, 3, 0.0) == 0.0
    assert binom_tail(5, 3, 1.0) == 1.0
    assert binom_tail(5, 0, 0.0) == 1.0
    assert binom_tail(1, 1, 0.25) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="need 0 <= r <= k, got r=4, k=3"):
        binom_tail(3, 4, 0.5)


def test_binom_tail_against_scipy_sf():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(1, 60))
        r = int(rng.integers(1, k + 1))
        z = float(rng.random())
        got = binom_tail(k, r, z)
        ref = float(binom.sf(r - 1, k, z))
        worst = max(worst, abs(got - ref))
    assert worst < 1e-12


def test_binom_tail_small_k_brute_force():
    # direct term-by-term sums for every (k, r) up to k = 30
    for k in (1, 2, 3, 7, 30):
        for r in range(1, k + 1):
            for z in (0.01, 0.3, 0.5, 0.77, 0.99):
                ref = math.fsum(math.comb(k, u) * z**u * (1 - z)**(k - u)
                                for u in range(r, k + 1))
                assert binom_tail(k, r, z) == pytest.approx(ref, abs=1e-13)


def test_binom_tail_large_k_cross_check():
    # incomplete-beta evaluation vs the independent mode-centered summation
    rng = np.random.default_rng(22)
    for _ in range(60):
        k = int(rng.integers(31, 2000))
        r = int(rng.integers(1, k + 1))
        z = float(rng.random())
        got = binom_tail(k, r, z)
        ref = tail_sum(k, r, z)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_binom_tail_extreme_underflow_regime():
    # far-below-mode tail must not collapse to zero
    assert binom_tail(500, 1, 0.78) == pytest.approx(1.0, abs=1e-12)
    assert binom_tail(5000, 4900, 0.5) == 0.0  # astronomically small
    assert binom_tail(5000, 2500, 0.5) == pytest.approx(
        float(binom.sf(2499, 5000, 0.5)), rel=1e-9)


def test_binom_tail_monotone_in_z():
    zs = np.linspace(0.0, 1.0, 200)
    for k, r in ((4, 2), (40, 13), (120, 60)):
        vals = np.array([binom_tail(k, r, z) for z in zs])
        assert np.all(np.diff(vals) >= -1e-12)


def test_psi_phi_worked_example(path3=None):
    # two types: (d=1, k=1, r=1) mass 2/3 and (d=2, k=2, r=2) mass 1/3
    p = Statistics({AgentType(1, 1, 1, lin(1)): 2 / 3,
                    AgentType(2, 2, 2, lin(2)): 1 / 3})
    z = 0.5
    assert psi(p, z) == pytest.approx(5 / 12)
    assert phi(p, z) == pytest.approx(0.375)
    # no in-link to weigh by: phi is undefined
    with pytest.raises(ValueError, match="degree-weighted map undefined"):
        phi(Statistics({AgentType(0, 2, 1, lin(1)): 1.0}), z)


def test_grid_matches_scalar():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_statistics(rng, k_max=40)
        zs = rng.random(17)
        assert psi(p, zs) == pytest.approx(
            np.array([psi(p, z) for z in zs]), abs=1e-13)
        assert phi(p, zs) == pytest.approx(
            np.array([phi(p, z) for z in zs]), abs=1e-13)


def test_float_tails_match_array_tails():
    # a Python float z is checked and clipped without numpy; the tails must
    # be those of the same z as a 0-d array, bit for bit
    rng = np.random.default_rng(29)
    for _ in range(5):
        curves = meanfield._Curves(random_statistics(rng, k_max=40))
        for z in [0.0, 1.0, -1e-15, 1 + 1e-15, -0.0, 5e-324, *rng.random(20)]:
            fast, ref = curves.tails(float(z)), curves.tails(np.asarray(z))
            assert fast.shape == ref.shape and np.array_equal(fast, ref), z
        for z in (-2e-15, 1 + 3e-15, -0.5, 2.0, math.nan):
            with pytest.raises(ValueError, match="outside"):
                curves.tails(z)
            with pytest.raises(ValueError, match="outside"):
                curves.tails(np.asarray(z))


def all_pairs(k_max):
    k = np.repeat(np.arange(k_max + 1), np.arange(1, k_max + 2))
    return k, np.arange(k.size) - k * (k + 1) // 2


def tail_table(zs, k, r):
    """The tail table of _Curves over the pairs (k, r), whose statistics are
    one type on the first pair, and the table column of each pair."""
    p = Statistics({AgentType(1, int(k[0]), int(r[0]), lin(int(r[0]))): 1.0})
    curves = meanfield._Curves(p, (k, r))
    return curves.tails(zs), curves.at


@pytest.fixture
def betainc_calls(monkeypatch):
    """Count the incomplete-beta evaluations the tail kernels make."""
    calls = []
    betainc = meanfield.sc.betainc

    def counted(*args):
        calls.append(args)
        return betainc(*args)

    monkeypatch.setattr(meanfield.sc, "betainc", counted)
    return calls


def test_pascal_tails_match_oracle(betainc_calls):
    # the whole triangle up to k = 60 is one value per pair: Pascal's rule
    k, r = all_pairs(60)
    zs = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(0.0, 1.0, 201),
                         [1.0 - 1e-12, 1.0]])
    got = meanfield._tail(meanfield._tail_params(k, r), meanfield._grid(zs))
    assert got.shape == (zs.size, k.size) and not betainc_calls
    ref = np.array([[tail_sum(ki, ri, z) for ki, ri in zip(k.tolist(), r.tolist())]
                    for z in zs])
    big = ref > 1e-290
    assert np.all(np.abs(got - ref)[big] <= 2e-13 * ref[big])
    assert np.all(got[~big] <= 1e-280)
    # exact at the ends: the sure event, then 0 at z = 0 and 1 at z = 1
    assert np.all(got[:, r == 0] == 1.0)
    assert np.all(got[0, r > 0] == 0.0) and np.all(got[-1] == 1.0)


def test_pascal_and_betainc_tables_agree(monkeypatch, betainc_calls):
    rng = np.random.default_rng(31)
    k, r = all_pairs(13)
    pick = rng.choice(k.size, 20, replace=False)
    zs = np.linspace(0.0, 1.0, 1001)
    pascal, (at,) = tail_table(zs, k[pick], r[pick])
    assert not betainc_calls
    monkeypatch.setattr(meanfield, "PASCAL_COST", 0)
    beta, (at_beta,) = tail_table(zs, k[pick], r[pick])
    assert len(betainc_calls) == 1 and np.array_equal(at, at_beta)
    assert np.all(np.abs(pascal - beta) <= 2e-13 * beta)


def test_large_triangle_stays_on_betainc(monkeypatch, betainc_calls):
    # heavy's pairs reach k = 3,320: a triangle of 5.5M entries for 4 pairs
    def no_triangle(*args):
        raise AssertionError("triangle built")

    monkeypatch.setattr(meanfield, "_pascal", no_triangle)
    k, r = np.array([3320, 3320, 1000, 13]), np.array([1660, 1661, 500, 6])
    zs = np.linspace(0.0, 1.0, 1001)
    table, (at,) = tail_table(zs, k, r)
    assert len(betainc_calls) == 1 and table.shape == (1001, 4)
    for j in (1, 500, 999):
        for i in range(4):
            ref = tail_sum(int(k[i]), int(r[i]), zs[j])
            # criterion 1's bound between betainc and the oracle at large k
            assert table[j, at[i]] == pytest.approx(ref, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("cost", [0, 10**6], ids=["betainc", "pascal"])
def test_shared_pairs_match_per_type_oracle(monkeypatch, cost):
    # three types on (4, 2) and two on (6, 1), each with its own d, and a
    # zero-mass type on (4, 2): each type weighs its own tail, by mass in
    # psi and by link share d m / <p, d> in phi
    monkeypatch.setattr(meanfield, "PASCAL_COST", cost)
    masses = {AgentType(1, 4, 2, lin(2)): 0.2, AgentType(3, 4, 2, lin(2)): 0.15,
              AgentType(7, 4, 2, lin(2)): 0.1, AgentType(9, 4, 2, lin(2)): 0.0,
              AgentType(2, 6, 1, lin(1)): 0.25, AgentType(5, 6, 1, lin(1)): 0.2,
              AgentType(2, 3, 0, (0.0,)): 0.1}
    p = Statistics(masses)
    mean_d = math.fsum(w.d * m for w, m in masses.items())

    def psi_ref(z):
        return math.fsum(m * tail_sum(w.k, w.r, z) for w, m in masses.items())

    def phi_ref(z):
        return math.fsum(w.d * m * tail_sum(w.k, w.r, z)
                         for w, m in masses.items()) / mean_d

    zs = np.linspace(0.0, 1.0, 41)
    for got, ref in ((psi(p, zs), psi_ref), (phi(p, zs), phi_ref)):
        assert np.abs(got - [ref(z) for z in zs]).max() <= 1e-13
    for z in zs[1::8].tolist():
        assert abs(psi(p, z) - psi_ref(z)) <= 1e-13
        assert abs(phi(p, z) - phi_ref(z)) <= 1e-13
    # each recursion step reads both curves at the step before it
    path, _ = recursion(p)
    assert len(path) > 5
    for (z, _), (z_next, y_next) in zip(path[:5], path[1:6]):
        assert abs(z_next - phi_ref(z)) <= 1e-13
        assert abs(y_next - psi_ref(z)) <= 1e-13


def test_coeff_a_worked_example():
    w = AgentType(2, 2, 2, lin(2))
    p0 = Statistics({AgentType(1, 1, 1, lin(1)): 2 / 3, w: 1 / 3})
    # <p0, d> = 4/3; a = d (phi_{2,1} - phi_{2,2}) / <p0, d> = 2(0.75-0.25)/(4/3)
    assert coeff_a(w, 1, 0.5, p0) == pytest.approx(0.75)
    assert coeff_a(w, 2, 0.5, p0) == pytest.approx(2 * (1.0 - 0.25) / (4 / 3))
    assert coeff_a(w, 1, 0.0, p0) == 0.0
    with pytest.raises(ValueError):
        coeff_a(w, 0, 0.5, p0)
    with pytest.raises(ValueError):
        coeff_a(w, 3, 0.5, p0)


def test_decomposition_matches_post_statistics():
    rng = np.random.default_rng(24)
    for _ in range(25):
        p0 = random_statistics(rng)
        xi = random_intervention(rng, p0)
        post = post_statistics(xi)
        for z in rng.random(5):
            assert phi_decomposed(xi, z) == pytest.approx(
                phi(post, z), abs=1e-12)


def test_recursion_all_or_nothing():
    # a small seed plus r = 1 agents cascades to one; without seeds the
    # start at zero is already a fixed point
    grows = Statistics({AgentType(3, 3, 0, (0.0,)): 0.05,
                        AgentType(3, 3, 1, lin(1)): 0.95})
    path, converged = recursion(grows)
    assert converged and path[-1][0] == pytest.approx(1.0, abs=1e-9)
    assert path[-1][1] == pytest.approx(1.0, abs=1e-9)

    stuck = Statistics({AgentType(3, 3, 1, lin(1)): 1.0})
    path, converged = recursion(stuck)
    assert converged and path[-1][0] == pytest.approx(0.0, abs=1e-12)


def test_recursion_starts_at_zero_and_is_monotone():
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = random_statistics(rng)
        path, converged = recursion(p)
        assert converged
        assert path[0] == (0.0, 0.0)
        zs = [z for z, _ in path]
        ys = [y for _, y in path]
        assert all(b >= a - 1e-15 for a, b in zip(zs, zs[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(ys, ys[1:]))
        # limit is a fixed point of phi
        z_star = zs[-1]
        assert phi(p, z_star) == pytest.approx(z_star, abs=1e-9)


def test_recursion_seeded_mass_activates_immediately():
    p = Statistics({AgentType(2, 2, 0, (0.0,)): 0.4,
                    AgentType(2, 2, 2, lin(2)): 0.6})
    path, _ = recursion(p)
    # step one activates exactly the zero-threshold mass
    assert path[1][1] == pytest.approx(0.4)
    assert path[1][0] == pytest.approx(0.4)


def test_derivative_bound_worked_example():
    p = Statistics({AgentType(1, 1, 1, lin(1)): 2 / 3,
                    AgentType(2, 2, 2, lin(2)): 1 / 3})
    # d_max 2^(k_max+1) k_max / <p0, d> + 1 = 2 * 8 * 2 / (4/3) + 1 = 25
    assert derivative_bound(p) == pytest.approx(25.0)


def test_derivative_bound_beyond_float_range():
    # the exponent shift keeps the old product's value wherever it is finite
    # and reports inf (empirical regime only) where 2^(k_max+1) overflows
    near = Statistics({AgentType(3, 1000, 1, lin(1)): 0.5,
                       AgentType(5, 2, 1, lin(1)): 0.5})
    direct = 5 * 2.0 ** 1001 * 1000 / 4.0 + 1.0
    assert derivative_bound(near) == pytest.approx(direct, rel=1e-12)
    assert derivative_bound(Statistics({AgentType(1100, 1100, 2, lin(2)): 1.0})) \
        == math.inf


def test_derivative_bound_dominates_slope():
    rng = np.random.default_rng(26)
    for _ in range(15):
        p = random_statistics(rng, k_max=6)
        bound = derivative_bound(p)
        zs = np.linspace(0.0, 1.0, 2001)
        vals = phi(p, zs) - zs
        slopes = np.abs(np.diff(vals)) / np.diff(zs)
        assert np.max(slopes) <= bound + 1e-9


def test_psi_inverse():
    p = Statistics({AgentType(2, 2, 1, lin(1)): 1.0})
    # psi(z) = 1 - (1-z)^2; inverse of level 0.75 is 0.5
    assert psi_inverse(p, 0.75) == pytest.approx(0.5, abs=1e-12)
    assert psi_inverse(p, 0.0) == pytest.approx(0.0, abs=1e-12)
    # the top level is only attained at (or numerically near) z = 1
    assert psi_inverse(p, 1.0) == pytest.approx(1.0, abs=1e-7)
    high = Statistics({AgentType(2, 2, 0, (0.0,)): 0.5,
                       AgentType(2, 2, 2, lin(2)): 0.5})
    z = psi_inverse(high, 0.6)
    assert psi(high, z) == pytest.approx(0.6, abs=1e-9)
    with pytest.raises(ValueError):
        psi_inverse(p, 1.5)
    # masses within round-off of 1 put psi(1) just below the top level
    short = Statistics({AgentType(2, 2, 1, lin(1)): 0.5,
                        AgentType(2, 2, 0, (0.0,)): 0.5 - 1e-10})
    with pytest.raises(ValueError, match="exceeds psi"):
        psi_inverse(short, 1.0)


def test_dump_curves(tmp_path):
    p = Statistics({AgentType(2, 2, 1, lin(1)): 1.0})
    out = tmp_path / "curves.csv"
    dump_curves(p, out, num=11)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "z,psi,phi,phi_minus_z"
    assert len(rows) == 12
    z, ps, ph, diff = map(float, rows[6].split(","))
    assert z == pytest.approx(0.5)
    assert ps == pytest.approx(psi(p, 0.5))
    assert diff == pytest.approx(ph - z)
