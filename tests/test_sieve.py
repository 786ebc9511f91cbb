import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from linnik_lab import arith, group as g, multfunc as mf, sieve
from linnik_lab.errors import DomainError, PreconditionError, ResourceError
from lemma_oracles import is_rough, majorant_nu, sum_over_array, weighted_divisor_sum


def dfs_beta_sieve(z, D, budget=10**7):
    """The truncated Buchstab recursion as a depth-first search into dicts:
    the reference for build_beta_sieve.  Dict order is the search's pre-order
    (larger primes first), which fixes the summation order of sieve_accuracy."""
    ps = [int(p) for p in arith.primes_upto(int(math.ceil(z)) - 1 if z == int(z) else int(z))
          if p < z]
    prev_prime = {p: (ps[i - 1] if i else None) for i, p in enumerate(ps)}
    plus, minus = {1: 1}, {1: 1}

    def budget_ok(c, p):
        hat = prev_prime[p]
        return c <= D if hat is None else c * hat <= D

    count = 0

    def dfs(start_idx, c, depth, mu, ok_plus, ok_minus):
        nonlocal count
        for i in range(start_idx, -1, -1):
            p = ps[i]
            c2 = c * p
            if c2 > D:
                continue
            d2 = depth + 1
            mu2 = -mu
            checked_plus = d2 % 2 == 1
            op = ok_plus and (budget_ok(c2, p) if checked_plus else True)
            om = ok_minus and (budget_ok(c2, p) if not checked_plus else True)
            if not op and not om:
                continue
            count += 1
            if count > budget:
                raise ResourceError("sieve support enumeration exceeded the budget")
            if op:
                plus[c2] = mu2
            if om:
                minus[c2] = mu2
            dfs(i - 1, c2, d2, mu2, op, om)

    dfs(len(ps) - 1, 1, 0, 1, True, True)
    return plus, minus


def dfs_weighted_sum(weights, g_fn):
    """sum lambda_d g(d) in dict order, g(d) multiplied over factorize(d)."""
    total = 0.0
    for d, w in weights.items():
        gd = 1.0
        for p in arith.factorize(d).primes:
            gd *= g_fn(p)
        total += w * gd
    return total


def rough_indicator(z, N):
    rough = np.ones(N + 1, dtype=np.int64)
    rough[0] = 0
    for p in arith.primes_upto(int(z)):
        p = int(p)
        if p < z:
            rough[p::p] = 0
    return rough


def test_trivial_and_single_prime():
    plus, minus = sieve.build_beta_sieve(2, 10)
    assert plus.weights == {1: 1} and minus.weights == {1: 1}
    plus, minus = sieve.build_beta_sieve(3, 10)
    assert plus.weights == {1: 1, 2: -1}
    assert minus.weights == {1: 1, 2: -1}
    # exact reproduction of the indicator with z=2 (no sifting at all)
    s = sum_over_array(plus, 50)
    assert np.array_equal(s[1:], rough_indicator(3, 50)[1:] * 0 + s[1:])


def test_weight_invariants():
    for z, D in ((10, 100), (30, 1000), (50, 5000)):
        plus, minus = sieve.build_beta_sieve(z, D)
        for w in (plus, minus):
            assert w.weights[1] == 1
            assert max(abs(v) for v in w.weights.values()) <= 1
            for d in w.weights:
                assert d <= D
                assert arith.is_squarefree(d)
                assert all(p < z for p in arith.factorize(d).primes)


@pytest.mark.parametrize("z,D,N", [(30, 1000, 100000), (100, 100000, 100000)])
def test_sandwich_exhaustive(z, D, N):
    plus, minus = sieve.build_beta_sieve(z, D)
    ind = rough_indicator(z, N)
    su = sum_over_array(plus, N)
    sl = sum_over_array(minus, N)
    assert np.all(sl[1:] <= ind[1:])
    assert np.all(ind[1:] <= su[1:])


def test_accuracy_sandwich():
    pair = sieve.build_beta_sieve(10, 10**12)
    rep = sieve.sieve_accuracy(pair, lambda ps: np.zeros(len(ps)), 10, K=1.0)
    assert rep["upper"] == 1.0 and rep["lower"] == 1.0 and rep["reference"] == 1.0
    rep = sieve.sieve_accuracy(pair, lambda p: 1 / p, 10, K=2.0)
    assert rep["lower"] <= rep["reference"] * (1 + 1e-12)
    rep = sieve.sieve_accuracy(pair, lambda ps: np.where(6 % ps == 0, 0.0, 1 / ps), 10, K=2.0)
    assert rep["upper"] >= rep["reference"] * (1 - 1e-12)
    # hypothesis s >= 9 kappa + 1 enforced
    small = sieve.build_beta_sieve(10, 1000)
    with pytest.raises(PreconditionError):
        sieve.sieve_accuracy(small, lambda p: 1 / p, 10, K=2.0)
    # declared K too small is rejected
    with pytest.raises(PreconditionError):
        sieve.sieve_accuracy(pair, lambda p: 1 / p, 10, K=1.0)


def test_rough_count_in_coset():
    psi = [c for c in g.real_characters(5) if not c.is_principal][0]
    coset = g.CosetSpec(psi, 2)
    count, rep = sieve.rough_count_in_coset(20, coset, 2)
    assert count == 8  # n = 2,3,7,8,12,13,17,18
    # partition over the two cosets of H = total rough count coprime to q
    H_coset = g.CosetSpec(psi, 1)
    c1, _ = sieve.rough_count_in_coset(20, H_coset, 2)
    total_coprime = sum(1 for n in range(1, 21) if math.gcd(n, 5) == 1)
    assert c1 + count == total_coprime
    # z > cap: only n = 1 is rough
    c, _ = sieve.rough_count_in_coset(20, H_coset, 50)
    assert c == int(H_coset.member_mask(np.array([1]))[0])
    c, _ = sieve.rough_count_in_coset(20, coset, 50)
    assert c == 0


def test_majorant_dominates_sign_indicators():
    lam = mf.liouville_fn()
    for q in (35, 101, 499):
        z, D = q ** 0.2, 50.0
        R = float(q)
        interval = arith.IntegerInterval(R / math.e, R)
        weights_plus, _ = sieve.build_beta_sieve(z, D)
        nu = majorant_nu(z, D, q, interval, weights_plus)
        norm = arith.mertens_product(z, q, inverse=True)
        for n in interval.members():
            if math.gcd(n, q) != 1:
                assert nu(n) == 0.0
                continue
            for delta in (1, -1):
                f = norm if (is_rough(n, z) and lam.sign(n) == delta) else 0.0
                assert nu(n) >= f - 1e-12
        assert nu(interval.ilo) == 0.0  # outside the interval


# 30030 = P(13) and 9699690 = P(20) are chain products met exactly by D;
# (60, 1e30) and (53, 1e18) take the object-dtype path; at (46351, 1e5) the
# product of the two largest primes passes 2^31 while D stays below it
ORACLE_GRID = [(2, 10), (3, 10), (10, 100), (30, 1e3), (50, 5e3), (100, 1e5), (10, 1e12),
               (200, 1e6), (7.5, 210), (12.5, 1e4), (13, 30030), (20, 30030), (20, 9699690),
               (23, 9699690), (31, 1e9), (60, 1e30), (53, 1e18), (46351, 1e5)]


@pytest.mark.parametrize("z,D", ORACLE_GRID)
def test_matches_dfs_oracle(z, D):
    plus, minus = sieve.build_beta_sieve(z, D)
    ref_plus, ref_minus = dfs_beta_sieve(z, D)
    for side, ref in ((plus, ref_plus), (minus, ref_minus)):
        assert side.d.tolist() == sorted(ref)
        assert side.mu.tolist() == [ref[d] for d in sorted(ref)]
        assert side.mu.dtype == np.int8
    assert (plus.d.dtype == object) == ((z, D) in ((60, 1e30), (53, 1e18)))


@pytest.mark.parametrize("budget", [0, 1, 15, 16, 100, 1000, 3000, 3245, 3300, 3306, 3307])
def test_budget_matches_dfs_oracle(monkeypatch, budget):
    monkeypatch.setattr(sieve, "_SUPPORT_BUDGET", budget)
    for z, D in ((10, 1e12), (30, 1e3), (100, 1e5), (200, 1e6)):
        try:
            dfs_beta_sieve(z, D, budget)
            ref_raises = False
        except ResourceError:
            ref_raises = True
        if ref_raises:
            with pytest.raises(ResourceError):
                sieve.build_beta_sieve(z, D)
        else:
            sieve.build_beta_sieve(z, D)


def test_weights_mapping_view():
    plus, minus = sieve.build_beta_sieve(100, 1e5)
    ref_plus, _ = dfs_beta_sieve(100, 1e5)
    w = plus.weights
    assert w == ref_plus and len(w) == len(ref_plus) == plus.d.size
    assert dict(w.items()) == ref_plus and list(w) == sorted(ref_plus)
    assert sorted(w.values()) == sorted(ref_plus.values())
    assert all(type(d) is int and type(v) is int for d, v in w.items())
    assert w[1] == 1 and 4 not in w and 2**70 not in w
    with pytest.raises(KeyError):
        w[4]
    json.dumps({d: v for d, v in w.items()})
    big, _ = sieve.build_beta_sieve(60, 1e30)
    json.dumps({d: v for d, v in big.weights.items()})
    with pytest.raises(ValueError):
        plus.d[0] = 2
    assert weighted_divisor_sum(plus, 2 * 3 * 5 * 7) == 0
    assert weighted_divisor_sum(plus, 2**70 * 3) == weighted_divisor_sum(plus, 6) == 0
    assert weighted_divisor_sum(plus, 101**10) == weighted_divisor_sum(plus, 101) == 1
    assert weighted_divisor_sum(big, 10**40 + 1) == sum(
        v for d, v in big.weights.items() if (10**40 + 1) % d == 0)


@pytest.mark.parametrize("z,D,K", [(2, 1e4, 2.0), (3, 1e5, 2.0), (10, 1e12, 2.0),
                                   (30, 1e15, 3.0), (10.5, 1e13, 2.0), (20, 1e14, 2.0)])
def test_accuracy_matches_dfs_order(z, D, K):
    def g_fn(p):
        return 1.0 / p

    rep = sieve.sieve_accuracy(sieve.build_beta_sieve(z, D), g_fn, z, K)
    ref_plus, ref_minus = dfs_beta_sieve(z, D)
    assert rep["upper"] == dfs_weighted_sum(ref_plus, g_fn)
    assert rep["lower"] == dfs_weighted_sum(ref_minus, g_fn)


def test_size_limits_and_bad_levels():
    for z, D in ((10, float("nan")), (float("nan"), 100), (1.5, 100), (10, 1.5)):
        with pytest.raises(DomainError):
            sieve.build_beta_sieve(z, D)
    with pytest.raises(ResourceError):
        sieve.rough_count_in_coset(sieve._ROUGH_CAP_LIMIT + 1, None, 3)
    plus, _ = sieve.build_beta_sieve(3, 10)
    with pytest.raises(ResourceError):
        sum_over_array(plus, arith.PRIME_TABLE_LIMIT + 1)


def test_rough_count_blocks(monkeypatch):
    psi = [c for c in g.real_characters(35) if not c.is_principal][1]
    coset = g.CosetSpec(psi, 2)
    whole = sieve.rough_count_in_coset(10**5, coset, 13)
    monkeypatch.setattr(sieve, "_ROUGH_BLOCK", 1000)
    assert sieve.rough_count_in_coset(10**5, coset, 13) == whole
    monkeypatch.setattr(sieve, "_ROUGH_BLOCK", 997)
    assert sieve.rough_count_in_coset(10**5, coset, 13) == whole
    n = np.arange(1, 10**5 + 1)
    rough = rough_indicator(13, 10**5)[1:] == 1
    assert whole[0] == int(np.sum(rough & coset.member_mask(n)))
    assert whole[1]["total_rough"] == int(np.sum(rough))


# the reports at the last dict-based recursion, byte for byte
SIEVE_REPORTS = {
    ("sieve", "--z", "200", "--D", "1e8"): """{
  "audit": "sieve-weight-construction",
  "command": "sieve",
  "params": {
    "D": 100000000.0,
    "command": "sieve",
    "fmt": "json",
    "kappa": 1.0,
    "seed": 0,
    "threads": 1,
    "z": 200.0
  },
  "result": {
    "lambda_1": [
      1,
      1
    ],
    "max_abs": 1,
    "s": 3.4767039174087495,
    "support_minus": 378574,
    "support_plus": 416909
  },
  "schema": "linnik-lab/1"
}
""",
    ("sieve", "--z", "10", "--D", "1e12", "--accuracy-K", "2"): """{
  "audit": "sieve-weight-construction",
  "command": "sieve",
  "params": {
    "D": 1000000000000.0,
    "accuracy_K": 2.0,
    "command": "sieve",
    "fmt": "json",
    "kappa": 1.0,
    "seed": 0,
    "threads": 1,
    "z": 10.0
  },
  "result": {
    "accuracy_g_inv_p": {
      "error_factor": 50.98195800869277,
      "lower": 0.22857142857142854,
      "reference": 0.22857142857142862,
      "s": 11.999999999999998,
      "upper": 0.22857142857142854
    },
    "lambda_1": [
      1,
      1
    ],
    "max_abs": 1,
    "s": 11.999999999999998,
    "support_minus": 16,
    "support_plus": 16
  },
  "schema": "linnik-lab/1"
}
""",
}


@pytest.mark.parametrize("argv", list(SIEVE_REPORTS))
def test_sieve_report_golden(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-m", "linnik_lab.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == SIEVE_REPORTS[argv]
