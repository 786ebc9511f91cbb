import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linnik_lab import arith
from linnik_lab.errors import DomainError, ResourceError


def test_factorize_examples():
    assert arith.factorize(1).factors == ()
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(9991).factors == ((97, 1), (103, 1))
    with pytest.raises(DomainError):
        arith.factorize(0)


def test_factorize_random_against_trial_division():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 10**7)
        fac = arith.factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert arith.is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert fac.primes == tuple(sorted(fac.primes))


def test_mobius_liouville_examples():
    assert arith.mobius(1) == 1 and arith.liouville(1) == 1
    assert arith.mobius(12) == 0 and arith.liouville(12) == -1
    assert arith.mobius(14) == 1 and arith.liouville(14) == 1
    assert arith.is_squarefree(14) and not arith.is_squarefree(12)


def test_mobius_divisor_sum_identity():
    # sum_{d|n} mu(d) = 1_{n=1}, accumulated by sieve up to 1e5
    N = 10**5
    wf = arith.factor_window(0, N)
    mu = np.where(wf.squarefree, 1 - 2 * (wf.big_omega.astype(np.int64) % 2), 0)
    acc = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        if mu[d - 1]:
            acc[d::d] += mu[d - 1]
    assert acc[1] == 1
    assert not np.any(acc[2:])


def test_liouville_completely_multiplicative():
    rng = random.Random(7)
    for _ in range(10**4):
        m = rng.randint(1, 10**6)
        n = rng.randint(1, 10**6)
        assert arith.liouville(m * n) == arith.liouville(m) * arith.liouville(n)


def test_is_rough_examples():
    assert arith.is_rough(1, 100)
    assert arith.is_rough(35, 5)
    assert not arith.is_rough(6, 5)
    assert not arith.is_rough(7, 11)  # 7 itself is a prime below 11
    assert arith.is_rough(121, 11)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=100))
@settings(max_examples=200, deadline=None)
def test_is_rough_matches_factorization(n, z):
    assert arith.is_rough(n, z) == all(p >= z for p in arith.factorize(n).primes)


def test_interval_membership_and_counts():
    I = arith.IntegerInterval(0, 10)
    assert list(I.members()) == list(range(1, 11))
    assert 10 in I and 0 not in I and 11 not in I
    J = arith.IntegerInterval.e_adic(10.0, 1)  # (10, 10e]
    assert 10 not in J and 11 in J and 27 in J and 28 not in J
    # guard band snaps nearly-integral endpoints
    K = arith.IntegerInterval(9.9999999999, 20.0000000001)
    assert K.ilo == 10 and K.ihi == 20
    # the band is at most 1e-6 wide, so an integral endpoint snaps to itself
    assert arith.snap(1e9) == 10**9 and arith.snap(999999999.0) == 999999999
    assert arith.snap(1e11) == 10**11 and arith.snap(1e11 - 0.5) == 10**11 - 1
    assert arith.IntegerInterval(0, 1e9).ihi == 10**9
    assert arith.snap(1e9 - 1e-7) == 10**9


def test_count_units_in_interval_examples():
    exact, main, err = arith.count_units_in_interval(arith.IntegerInterval(0, 10), 4)
    assert exact == 5 and main == 5.0
    exact, _, _ = arith.count_units_in_interval(arith.IntegerInterval(0, 1), 30)
    assert exact == 1
    I = arith.IntegerInterval(10, 100)
    exact, _, _ = arith.count_units_in_interval(I, 6)
    brute = sum(1 for n in range(11, 101) if math.gcd(n, 6) == 1)
    assert exact == brute


def test_count_units_random_vs_bruteforce_and_tau_bound():
    rng = random.Random(5)
    for _ in range(500):
        q = rng.randint(1, 10**4)
        lo = rng.uniform(0, 5000)
        hi = lo + rng.uniform(0, 5000)
        I = arith.IntegerInterval(lo, hi)
        exact, main, err = arith.count_units_in_interval(I, q)
        brute = sum(1 for n in I.members() if math.gcd(n, q) == 1)
        assert exact == brute
        assert abs(err) <= arith.factorize(q).tau() + 1e-9


def test_B_of_q():
    assert arith.B_of_q(1) == 2.0
    assert abs(arith.B_of_q(2) - 35.7715) < 1e-3
    b = arith.B_of_q(2)
    assert abs(b - 10 * math.log(b)) < 1e-6  # root of z = 10 log z


def test_B_of_q_20logq_bound():
    # The 20 log q comparison holds for all q <= 1e4 except a computable set
    # of moduli packed with small primes (1490 of them, q = 2 the smallest:
    # B(2) = 35.77 > 20 log 2 = 13.86 directly from the definition).  Each
    # claimed violation is re-confirmed against the definition itself.
    violators = []
    for q in range(2, 10**4 + 1):
        B = arith.B_of_q(q)
        if B <= 20 * math.log(q) + 1e-9:
            continue
        violators.append(q)
        z = B * (1 - 1e-9)  # just below B there must be a genuine violation
        ps = arith.factorize(q).primes
        count = sum(1 for p in ps if p <= z)
        assert count > z / (10 * math.log(z)), q
    assert len(violators) == 1490
    assert violators[0] == 2 and violators[-1] == 9996
    # and the bound does hold for every prime modulus from 7 on
    for q in range(7, 10**4):
        if arith.is_prime(q):
            assert arith.B_of_q(q) <= 20 * math.log(q) + 1e-9


def test_B_of_q_is_minimal_threshold():
    # just below B the defining inequality must fail, at/above B it holds
    for q in (2, 6, 30, 210, 2310):
        B = arith.B_of_q(q)
        ps = arith.factorize(q).primes

        def count(z):
            return sum(1 for p in ps if p <= z)

        z = B - 1e-6
        if B > 2:
            assert count(z) > z / (10 * math.log(z))
        for z in np.linspace(B, B + 1000, 500):
            assert count(z) <= z / (10 * math.log(z)) + 1e-12


def test_mertens_product():
    assert arith.mertens_product(2) == 1.0
    assert arith.mertens_product(5, 1, inverse=True) == 3.0
    assert arith.mertens_product(5, 3, inverse=True) == 2.0


def test_count_pairs_in_class():
    count, _ = arith.count_pairs_in_class(5, 5, 1, 5)
    assert count == 4
    count, _ = arith.count_pairs_in_class(0, 5, 1, 5)
    assert count == 0
    count, _ = arith.count_pairs_in_class(7, 7, 1, 7)
    brute = sum(1 for k in range(1, 8) for l in range(1, 8) if k * l % 7 == 1)
    assert count == brute
    with pytest.raises(DomainError):
        arith.count_pairs_in_class(5, 5, 2, 4)


def test_window_sieves_match_pointwise():
    wf = arith.factor_window(100, 400)
    assert wf.big_omega.dtype == np.int8
    for i, n in enumerate(range(101, 401)):
        assert (-1) ** int(wf.big_omega[i]) == arith.liouville(n)
        assert wf.squarefree[i] == arith.is_squarefree(n)
    wf = arith.factor_window(100, 200)
    for i, n in enumerate(range(101, 201)):
        assert _row(wf, i) == arith.factorize(n).factors


def _row(wf, i):
    """The (prime, exponent) pairs of the i-th integer of a factor window."""
    lo, hi = wf.start[i], wf.start[i + 1]
    return tuple(zip(wf.primes[lo:hi].tolist(), wf.exps[lo:hi].tolist()))


def _check_window(lo, width, intervals, factors_of):
    """Every array of factor_window(lo, lo + width) against factors_of(n),
    the sorted (prime, exponent) pairs of n."""
    hi = lo + width
    wf = arith.factor_window(lo, hi)
    assert wf.start.shape == (width + 1,) and wf.start[0] == 0
    assert wf.start[-1] == len(wf.primes) == len(wf.exps)
    assert np.array_equal(wf.ns, np.arange(lo + 1, hi + 1))
    counts = [wf.count_in(P, Q) for P, Q in intervals]
    for i, n in enumerate(range(lo + 1, hi + 1)):
        pairs = factors_of(n)
        primes = [p for p, _ in pairs]
        assert _row(wf, i) == pairs, n
        assert wf.omega[i] == len(pairs)
        assert wf.big_omega[i] == sum(e for _, e in pairs)
        assert wf.squarefree[i] == all(e == 1 for _, e in pairs)
        assert wf.spf[i] == (primes[0] if primes else 0)
        for (P, Q), c in zip(intervals, counts):
            assert c[i] == sum(1 for p in primes if P < p <= Q), (n, P, Q)


WINDOW_LO = st.one_of(st.integers(0, 2000), st.integers(0, 10**9))
# integer endpoints meet primes exactly; float ones fall between integers
INTERVALS = st.lists(st.tuples(st.one_of(st.integers(0, 3000), st.floats(0, 3000)),
                               st.one_of(st.integers(0, 10**5), st.floats(0, 10**5))),
                     max_size=3)


@given(WINDOW_LO, st.integers(0, 200), INTERVALS)
@settings(max_examples=60, deadline=None)
def test_factor_window_matches_factorize(lo, width, intervals):
    _check_window(lo, width, intervals, lambda n: arith.factorize(n).factors)


def test_factor_window_refuses_a_window_past_the_limit():
    # checked before anything is allocated
    with pytest.raises(ResourceError):
        arith.factor_window(10**12, 10**12 + arith.WINDOW_LIMIT + 1)
    with pytest.raises(ResourceError):
        arith.factor_window(0, 10**11)


def test_factor_window_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @given(WINDOW_LO, st.integers(0, 200), INTERVALS)
    @settings(max_examples=40, deadline=None)
    def check(lo, width, intervals):
        _check_window(lo, width, intervals,
                      lambda n: tuple(sorted(sympy.factorint(n).items())))

    check()
    # a window of primes and semiprimes with cofactors near 10^9
    _check_window(10**9, 50, [(1e4, 1e9), (30000.5, 10**9 + 9), (2, 5)],
                  lambda n: tuple(sorted(sympy.factorint(n).items())))
