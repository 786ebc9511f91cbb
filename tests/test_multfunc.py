import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linnik_lab import arith, charsums, group, multfunc as mf, pipeline
from linnik_lab.errors import DomainError
from test_pipeline import WITNESS_FNS


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
    generic = mf.MultiplicativeFunction("generic", lambda p, e: np.where(p % 3 == 1, (-0.5) ** e,
                                                                         e % 3))
    for h in (mf.liouville_fn(), mf.mobius_fn(), mf.one_fn(), generic) + WITNESS_FNS:
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
    # kind "generic": the product of the rule's signs over the factor arrays
    mf.MultiplicativeFunction("generic", lambda p, e: np.where(p % 4 == 3, -1.0, e % 3)),
)


@given(st.sampled_from(SQUAREFREE_SIGN_FNS + WITNESS_FNS),
       st.integers(min_value=0, max_value=10**5), st.integers(min_value=0, max_value=500))
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


@given(st.sampled_from(SQUAREFREE_SIGN_FNS + WITNESS_FNS), st.lists(_ORACLE_INPUTS, max_size=60))
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


@given(st.sampled_from(SQUAREFREE_SIGN_FNS + WITNESS_FNS),
       st.lists(st.integers(min_value=1, max_value=400), min_size=60, max_size=200),
       st.integers(min_value=3200, max_value=10**7))
@settings(max_examples=50, deadline=None)
def test_squarefree_signs_of_repeated_small_values(h, ns, big):
    """Many repeats of small n (max n below 8 len(ns)) are marked in a table,
    not sorted; with one large n appended they are sorted.  Both routes give
    the scalar values."""
    ns = np.array(ns, dtype=np.int64)
    want = [_sign(h.value(n)) if arith.is_squarefree(n) else 0 for n in ns.tolist() + [big]]
    assert np.array_equal(h.squarefree_signs(ns), np.array(want[:-1], dtype=np.int8))
    assert np.array_equal(h.squarefree_signs(np.append(ns, big)), np.array(want, dtype=np.int8))


# a rule whose values underflow in a product (-1e-200 at every p^e), and one
# that mixes a zero at p = 7 with values whose products overflow to +-inf
TINY = mf.MultiplicativeFunction("tiny", lambda p, e: np.full(np.shape(p), -1e-200))
HUGE = mf.MultiplicativeFunction("huge", lambda p, e: np.where(
    p == 7, 0.0, np.where(p % 3 == 1, 1e200, -1e200)))


@pytest.mark.parametrize("h", (TINY, HUGE))
def test_window_signs_multiply_signs_not_values(h):
    """The window route multiplies the signs of the rule's values, so a
    product that would underflow to 0 or overflow to inf (0 * inf = nan)
    keeps its sign: the squarefree signs match the trial-division oracle."""
    for lo in (0, 10**6):
        wf = arith.factor_window(lo, lo + 3000)
        signs = h.signs(wf)
        assert np.array_equal(np.where(wf.squarefree, signs, 0), h.squarefree_signs(wf.ns))
        if h is TINY:
            # h(n) has the sign (-1)^omega(n) at every n
            assert np.array_equal(signs, 1 - 2 * (wf.omega & 1))
        else:
            assert np.array_equal(signs == 0, wf.ns % 7 == 0)


def test_tiny_rule_has_the_thresholds_of_liouville():
    """sgn TINY(n) = (-1)^omega(n) = lambda(n) on squarefree n, so R is R(lambda)."""
    assert TINY.sign(6) == TINY.sign(12) == 1 and TINY.sign(30) == -1
    res = pipeline.R_of_h_q(TINY, 5, 500)
    assert res.R_value == 33 == pipeline.R_of_h_q(mf.liouville_fn(), 5, 500).R_value
    assert pipeline.verify_witnesses(res, TINY)


@pytest.mark.parametrize("h", SQUAREFREE_SIGN_FNS + WITNESS_FNS + (TINY, HUGE))
def test_rule_on_empty_arrays(h):
    empty = np.empty(0, dtype=np.int64)
    assert h.rule(empty, empty).shape == (0,)
    assert h.value(1) == 1.0 and h.sign(1) == 1


# scalar per-prime loops: each reads h at one prime at a time through
# value(p), which is rule(p, 1), and adds its terms from 0.0 in increasing p

def _distance_loop(f, g, x, r):
    total = 0.0
    for p in arith.primes_upto(int(x)).tolist():
        if r % p:
            total += (1.0 - f.value(p) * g.value(p)) / p
    return total


def _pretend_loop(h, chi, cutoff):
    table = chi.real_sign_table()
    total = 0.0
    for p in arith.primes_upto(int(cutoff)).tolist():
        if h.value(p) * int(table[p % chi.group.q]) < 0:
            total += 1.0 / p
    return total


def _q_set_loop(h, q, Q1, delta):
    return [p for p in arith.primes_in(Q1 / math.e, Q1).tolist()
            if math.gcd(p, q) == 1 and _sign(h.value(p)) == delta]


@pytest.mark.parametrize("h", SQUAREFREE_SIGN_FNS + WITNESS_FNS)
def test_prime_sites_match_scalar_loops(h):
    """Each site that reads h at a list of primes, with one rule call,
    against a loop over the primes: float for float, list for list."""
    lam = mf.liouville_fn()
    for g, x, r in ((lam, 5000, 1), (h, 3000, 1), (lam, 2000, 30), (mf.one_fn(), 7919, 7)):
        assert mf.pretentious_distance_squared(h, g, x, r) == _distance_loop(h, g, x, r)
        assert mf.pretentious_distance_squared(g, h, x, r) == _distance_loop(g, h, x, r)
    for q in (1, 4, 7, 24):
        for chi in group.real_characters(q):
            assert mf.pretend_sum(h, chi, 4000) == _pretend_loop(h, chi, 4000)
    for q, Q1 in ((7, 60.0), (35, 500.0), (101, 3000.0)):
        G = group.build_unit_group(q)
        for delta in (1, -1):
            assert charsums.q_set(G, h, Q1, None, delta).tolist() == _q_set_loop(h, q, Q1, delta)


def test_pretentious_distance():
    lam, one = mf.liouville_fn(), mf.one_fn()
    assert mf.pretentious_distance_squared(lam, lam, 100) == 0.0
    expected = 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)
    assert mf.pretentious_distance_squared(lam, one, 10) == pytest.approx(expected, abs=1e-12)
    assert mf.pretentious_distance_squared(lam, one, 10, r=2) == pytest.approx(
        2 * (1 / 3 + 1 / 5 + 1 / 7), abs=1e-12)
    # symmetry
    assert mf.pretentious_distance_squared(lam, one, 50) == \
        mf.pretentious_distance_squared(one, lam, 50)
    # every p divides 0: r < 1 is refused rather than read as a sum over no primes
    for r in (0, -6):
        with pytest.raises(DomainError):
            mf.pretentious_distance_squared(lam, one, 10, r)
    # r past 2^63 stays exact
    assert mf.pretentious_distance_squared(lam, one, 10, 2 * 3**50) == \
        mf.pretentious_distance_squared(lam, one, 10, 6)


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


def test_L1_closed_forms():
    # q = 3 and q = 4 each have one non-principal real character
    (row3,) = mf.L_of_q(3)[1]
    assert row3["L1"] == pytest.approx(math.pi / math.sqrt(27), rel=1e-10)
    (row4,) = mf.L_of_q(4)[1]
    assert row4["L1"] == pytest.approx(math.pi / 4, rel=1e-10)


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


def test_L_of_q_peak_memory():
    """L_of_q reads one int8 sign per (character, prime) and runs the float
    Euler products one character at a time: at q = 120 (15 non-principal
    real characters) and the 155,611 primes below 2^21 its peak stays below
    r + 32 bytes a prime, where float rows of every character at once would
    take several times 8 r."""
    import mpmath  # noqa: F401  (imported before the trace starts)
    q, cutoff = 120, 1 << 21
    r = len(group.build_unit_group(q).real_characters()) - 1
    n = len(arith.primes_upto(cutoff))
    tracemalloc.start()
    try:
        mf.L_of_q(q, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (r + 32) * n, peak / n

