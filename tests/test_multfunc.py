import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linnik_lab import arith, group, multfunc as mf
from linnik_lab.errors import DomainError


def test_sgn():
    assert mf.sgn(3.5) == 1
    assert mf.sgn(-2) == -1
    assert mf.sgn(-1) * mf.sgn(-1) == 1
    with pytest.raises(DomainError):
        mf.sgn(0)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_builtins_multiplicative(m, n):
    if math.gcd(m, n) != 1:
        return
    for h in (mf.liouville_fn(), mf.mobius_fn(), mf.one_fn()):
        assert h.value(m * n) == h.value(m) * h.value(n)


def test_multiplicative_on_random_coprime_pairs():
    rng = random.Random(11)
    hs = [mf.liouville_fn(), mf.mobius_fn(), mf.one_fn(),
          mf.character_fn(group.real_characters(5)[1])]
    pairs = 0
    while pairs < 10**4:
        m = rng.randint(1, 10**6)
        n = rng.randint(1, 10**6)
        if math.gcd(m, n) != 1:
            continue
        pairs += 1
        for h in hs:
            assert h.value(m * n) == pytest.approx(h.value(m) * h.value(n))


def _sign(v):
    return 0 if v == 0 else (1 if v > 0 else -1)


def test_signs_match_values():
    generic = mf.MultiplicativeFunction("generic", lambda p, e: (-0.5) ** e if p % 3 == 1
                                        else float(e % 3))
    for h in (mf.liouville_fn(), mf.mobius_fn(), mf.one_fn(), generic):
        for lo in (0, 10**6):
            win = h.signs(arith.factor_window(lo, lo + 300))
            assert win.dtype == np.int8
            for i, n in enumerate(range(lo + 1, lo + 301)):
                assert win[i] == _sign(h.value(n))
    quad = [c for c in group.real_characters(5) if not c.is_principal][0]
    h = mf.character_fn(quad)
    win = h.signs(arith.factor_window(0, 50))
    for i, n in enumerate(range(1, 51)):
        assert win[i] == (0 if n % 5 == 0 else (1 if quad(n).real > 0 else -1))


SQUAREFREE_SIGN_FNS = (
    mf.liouville_fn(), mf.mobius_fn(), mf.one_fn(),
    mf.character_fn(group.real_characters(7)[1]),
    # kind "generic": the rule product over the factor arrays
    mf.MultiplicativeFunction("generic", lambda p, e: -1.0 if p % 4 == 3 else float(e % 3)),
)


@given(st.sampled_from(SQUAREFREE_SIGN_FNS), st.integers(min_value=0, max_value=10**5),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=100, deadline=None)
def test_squarefree_signs_match_values(h, lo, width):
    """Signs masked by the window's squarefree flags, the way the witness
    scan and the squarefree sets count them."""
    hi = lo + width
    ns = range(lo + 1, hi + 1)
    sqf = np.array([arith.is_squarefree(n) for n in ns], dtype=bool)
    wf = arith.factor_window(lo, hi)
    assert np.array_equal(wf.squarefree, sqf)
    got = np.where(wf.squarefree, h.signs(wf), 0)
    assert got.dtype == np.int8
    want = [_sign(h.value(n)) if s else 0 for n, s in zip(ns, sqf)]
    assert np.array_equal(got, np.array(want, dtype=np.int8))


# primes on both sides of sqrt(10^7) = 3162.3, and primes near 10^6 to
# stand as a large cofactor
_NEAR_ROOT = arith.primes_in(3000, 3400).tolist()
_LARGE = arith.primes_in(10**6, 10**6 + 2000).tolist()
_ORACLE_INPUTS = st.one_of(
    st.integers(min_value=1, max_value=10**7),
    # squares of primes near the root, times a small factor
    st.tuples(st.sampled_from(_NEAR_ROOT), st.integers(min_value=1, max_value=3)).map(
        lambda t: t[0] * t[0] * t[1]),
    # two primes near the root
    st.tuples(st.sampled_from(_NEAR_ROOT), st.sampled_from(_NEAR_ROOT)).map(
        lambda t: t[0] * t[1]),
    # a large prime cofactor times a small, possibly non-squarefree, part
    st.tuples(st.integers(min_value=1, max_value=9), st.sampled_from(_LARGE)).map(
        lambda t: t[0] * t[1]),
)


@given(st.sampled_from(SQUAREFREE_SIGN_FNS), st.lists(_ORACLE_INPUTS, max_size=60))
@example(mf.liouville_fn(), [])
@example(mf.liouville_fn(), [3163 * 3163])
@example(mf.mobius_fn(), [3163 * 3167, 3163 * 3163, 3167])
@settings(max_examples=100, deadline=None)
def test_squarefree_sign_table_matches_values(h, ns):
    """The oracle's trial division against scalar values, with no scalar
    factorize call: squares at the root of the largest input and large
    prime cofactors included."""
    ns = np.array(ns, dtype=np.int64)
    calls = []
    factorize = arith.factorize
    arith.factorize = lambda n: calls.append(n) or factorize(n)
    try:
        got = h.squarefree_signs(ns)
    finally:
        arith.factorize = factorize
    assert calls == []
    assert got.dtype == np.int8
    want = [_sign(h.value(n)) if arith.is_squarefree(n) else 0 for n in ns.tolist()]
    assert np.array_equal(got, np.array(want, dtype=np.int8))


def test_pretentious_distance():
    lam, one = mf.liouville_fn(), mf.one_fn()
    assert mf.pretentious_distance(lam, lam, 100) == 0.0
    expected = math.sqrt(2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7))
    assert mf.pretentious_distance(lam, one, 10) == pytest.approx(expected, abs=1e-12)
    assert mf.pretentious_distance(lam, one, 10, r=2) == pytest.approx(
        math.sqrt(2 * (1 / 3 + 1 / 5 + 1 / 7)), abs=1e-12)
    # symmetry
    assert mf.pretentious_distance(lam, one, 50) == mf.pretentious_distance(one, lam, 50)


def test_pretend_sum():
    lam = mf.liouville_fn()
    chi0_4 = group.real_characters(4)[0]
    assert chi0_4.is_principal
    s = mf.pretend_sum(lam, chi0_4, 10)
    assert s == pytest.approx(1 / 3 + 1 / 5 + 1 / 7, abs=1e-12)
    assert mf.pretend_sum(lam, chi0_4, 1.5) == 0.0
    # h agreeing with chi never contributes
    quad = [c for c in group.real_characters(5) if not c.is_principal][0]
    h = mf.character_fn(quad)
    assert mf.pretend_sum(h, quad, 10**4) == 0.0
    nonreal = [c for c in group.characters(5) if not c.is_real][0]
    with pytest.raises(DomainError):
        mf.pretend_sum(lam, nonreal, 10)


def test_pretend_sum_matches_character_values():
    # the sign table against chi(p).real one prime at a time, float for float
    for q in (1, 2, 3, 4, 8, 12, 24, 35, 97):
        for chi in group.real_characters(q):
            for h in (mf.liouville_fn(), mf.mobius_fn(), mf.character_fn(chi)):
                ref = 0.0
                for p in arith.primes_upto(3000).tolist():
                    if h.value(p) * chi(p).real < 0:
                        ref += 1.0 / p
                assert mf.pretend_sum(h, chi, 3000) == ref, (q, chi.label(), h.name)


def test_pretend_sum_monotone_in_cutoff():
    lam = mf.liouville_fn()
    chi0 = group.real_characters(7)[0]
    vals = [mf.pretend_sum(lam, chi0, c) for c in (2, 5, 10, 50, 200, 1000)]
    assert vals == sorted(vals)


def test_sign_density_counts():
    lam, one = mf.liouville_fn(), mf.one_fn()
    c, _ = mf.sign_density_counts(one, 1, 10, -1)
    assert c == 0
    c, _ = mf.sign_density_counts(lam, 1, 10, 1)
    assert c == 3  # {1, 6, 10}
    c, _ = mf.sign_density_counts(lam, 1, 10, -1)
    assert c == 4  # {2, 3, 5, 7}


def test_sign_density_partition_property():
    lam = mf.liouville_fn()
    for q, y in ((1, 500), (6, 800), (35, 1000)):
        plus, _ = mf.sign_density_counts(lam, q, y, 1)
        minus, _ = mf.sign_density_counts(lam, q, y, -1)
        total = sum(1 for n in range(1, y + 1)
                    if arith.is_squarefree(n) and math.gcd(n, q) == 1)
        assert plus + minus == total


def test_rough_squarefree_density():
    d, rep = mf.rough_squarefree_density(10, lambda p: True)
    assert d == pytest.approx(0.7)
    d, _ = mf.rough_squarefree_density(10, lambda p: False)
    assert d == pytest.approx(0.1)
    d, _ = mf.rough_squarefree_density(100, lambda p: p % 4 == 1)
    brute = sum(1 for n in range(1, 101) if arith.is_squarefree(n)
                and all(p % 4 == 1 for p in arith.factorize(n).primes))
    assert d == pytest.approx(brute / 100)


def test_L1_closed_forms():
    chi3 = [c for c in group.real_characters(3) if not c.is_principal][0]
    assert mf.dirichlet_L1(chi3) == pytest.approx(math.pi / math.sqrt(27), rel=1e-10)
    chi4 = [c for c in group.real_characters(4) if not c.is_principal][0]
    assert mf.dirichlet_L1(chi4) == pytest.approx(math.pi / 4, rel=1e-10)


def test_L_of_q():
    val, rows = mf.L_of_q(3)
    assert val == pytest.approx((math.pi / math.sqrt(27)) ** -1 * (2 / 3), rel=1e-8)
    val, rows = mf.L_of_q(4)
    assert val == pytest.approx(3 / math.pi, rel=1e-8)
    with pytest.raises(DomainError):
        mf.L_of_q(2)
    # the Euler-product cross-check stays within a few percent at this scale
    _, rows = mf.L_of_q(5, prime_cutoff=100000)
    assert rows[0]["L1_euler_truncated"] == pytest.approx(rows[0]["L1"], rel=0.05)


def test_one_star_psi_sum():
    q = 3
    psi = [c for c in group.real_characters(q) if not c.is_principal][0]
    total, rep = mf.one_star_psi_sum(q, psi, 10, 0)
    brute = 0
    for n in range(1, 11):
        brute += sum(psi(d).real for d in arith.divisors(n))
    assert total == pytest.approx(brute, abs=1e-9)
    # (1 * psi)(1) = 1 alone when the rough cutoff removes everything else
    total, _ = mf.one_star_psi_sum(q, psi, 2, 2.5)
    assert total == pytest.approx(1.0)
    # (1 * psi)(p) = 1 + psi(p)
    total, _ = mf.one_star_psi_sum(q, psi, 2, 0)
    assert total == pytest.approx(1.0 + 1.0 + psi(2).real)
