import collections
import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from linnik_lab import arith, charsums as cs, cli, group as g, multfunc as mf, pipeline as pl
from linnik_lab.errors import DomainError, ResourceError


LAM = mf.liouville_fn()


def test_paramset_defaults_and_relations():
    ps = pl.ParamSet.from_q(101, 0.04, easy_mode=False)
    assert abs(ps.U * ps.R - 101) <= 1e-9 * 101
    assert abs(ps.R**2 * ps.M - 101) <= 1e-9 * 101
    assert ps.K == int(0.04**2 * math.log(101))
    easy = pl.ParamSet.from_q(101, 0.04)
    assert easy.R == pytest.approx(math.sqrt(101))
    d = easy.as_dict()
    assert d["ladder"]["J"] == 1 and d["q"] == 101
    with pytest.raises(DomainError):
        pl.ParamSet.from_q(2, 0.04)


def test_E_sets():
    plus, minus = pl.E_sets(LAM, 3, 1)
    assert plus == {1} and minus == set()
    plus, minus = pl.E_sets(LAM, 3, 14)
    assert plus == {1, 2} and minus == {1, 2}
    # monotone in x
    prev_p, prev_m = set(), set()
    for x in (1, 5, 10, 14, 50):
        p_, m_ = pl.E_sets(LAM, 3, x)
        assert prev_p <= p_ and prev_m <= m_
        prev_p, prev_m = p_, m_
    # character h: the two sets never intersect
    quad = [c for c in g.real_characters(5) if not c.is_principal][0]
    hq = mf.character_fn(quad)
    p_, m_ = pl.E_sets(hq, 5, 10**4)
    assert p_ & m_ == set()


def test_R_of_h_q_examples():
    res = pl.R_of_h_q(LAM, 1, 10)
    assert res.R_value == 2 and res.witnesses[0] == {1: 1, -1: 2}
    res = pl.R_of_h_q(LAM, 3, 100)
    assert res.R_value == 14
    assert res.witnesses[2][1] == 14
    assert pl.verify_witnesses(res, LAM)
    # the witnesses are a read-only view of the first-hit table
    assert res.first.shape == (3, 2) and res.first[2, 0] == 14
    with pytest.raises(TypeError):
        res.witnesses[2][1] = 13
    with pytest.raises(ValueError):
        res.first[2, 0] = 13
    # a table with no hits is verified vacuously, with no member read
    empty = pl.RFunctionResult(5, 1, np.full((5, 2), pl._NO_HIT))
    assert not empty.complete and empty.R_value is None and empty.witnesses == {}
    assert pl.verify_witnesses(empty, LAM)
    # R is the first x at which both E-sets fill up
    plus, minus = pl.E_sets(LAM, 3, 13)
    assert plus != {1, 2} or minus != {1, 2}
    # insufficient cap -> None
    res = pl.R_of_h_q(LAM, 3, 13)
    assert res.R_value is None and not res.complete


# the tracemalloc peak of verify_block over the rfunc batch tables of
# q = 3..400: its groups of 2^13 classes (~27k members) peak near 1.1 MB
VERIFY_BLOCK_PEAK = 2 << 20
# the peak of verifying the q = 2003 table with groups of 64 classes and
# ranges and member windows of 2^10: ~135 KB, and about as much at q = 20011
LARGE_TABLE_PEAK = 320 << 10


def test_verify_witnesses_retains_nothing(monkeypatch):
    """The oracle keeps no table or memo of what it evaluated: after the
    first verify at q = 2003, or of the block q = 3..400, nothing it
    allocated is still held, and the block's groups keep its peak small; a
    table larger than a group is read in ranges.  Other tables, with
    another instance of h, are verified first, which fills the interpreter's
    free lists but no memo of the traced inputs."""
    def caps(qs):
        return [int(q * q * 20 * max(math.log(q), 1.0)) + 1 for q in qs]

    other = mf.liouville_fn()
    assert pl.verify_witnesses(pl.R_of_h_q(other, 2011, 10**7), other)
    assert all(pl.verify_block(list(pl.R_block(other, range(401, 421), caps(range(401, 421)))), other))
    h = mf.liouville_fn()
    res = pl.R_of_h_q(h, 2003, 10**7)
    qs = range(3, 401)
    block = list(pl.R_block(h, qs, caps(qs)))
    for verify in (lambda: pl.verify_witnesses(res, h),
                   lambda: all(pl.verify_block(block, h))):
        tracemalloc.start()
        try:
            assert verify()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 16 * 1024, kept
    assert peak <= VERIFY_BLOCK_PEAK, peak
    monkeypatch.setattr(pl, "_VERIFY_GROUP", 64)
    monkeypatch.setattr(pl, "_VERIFY_BLOCK", 1 << 10)
    tracemalloc.start()
    try:
        assert pl.verify_block([res], h) == [True]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LARGE_TABLE_PEAK, peak


def test_R_of_character_never_exists():
    for q in (5, 8, 12, 35):
        for chi in g.real_characters(q):
            if chi.is_principal:
                continue
            h = mf.character_fn(chi)
            res = pl.R_of_h_q(h, q, q**3)
            assert res.R_value is None
            # found witnesses agree with the slow scan
            slow_plus, slow_minus = pl.E_sets(h, q, 200)
            fast_plus = {a for a, d in res.witnesses.items() if 1 in d and d[1] <= 200}
            assert slow_plus <= fast_plus


def _first_squarefree_terms(q):
    """{a: the least squarefree n = a mod q} over the units a, by trial division."""
    def squarefree(n):
        return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))
    return {a: next(n for n in range(a, 10**9, q) if squarefree(n))
            for a in range(1, q) if math.gcd(a, q) == 1}


@pytest.mark.parametrize("q", [7, 14, 21, 35])
def test_character_scan_matches_first_squarefree_terms(q, monkeypatch):
    """For a real character of modulus 7 and q a multiple of 7 the witness
    of each class is its first squarefree term, with the class's sign, and
    the scan retires q once each class has it: at a large cap it stops after
    its first windows, far short of the cap."""
    sieved = []
    sieve = arith.factor_window

    def counting(lo, hi):
        sieved.append(hi)
        return sieve(lo, hi)

    monkeypatch.setattr(arith, "factor_window", counting)
    first = _first_squarefree_terms(q)
    for chi in g.real_characters(7):
        h = mf.character_fn(chi)
        table = chi.real_sign_table()
        res = pl.R_of_h_q(h, q, q**3)
        assert res.R_value is None and not res.complete
        assert res.witnesses == {a: {int(table[a % 7]): n} for a, n in first.items()}
        # q^3 lies inside the first window for q = 7, 14: stopping short is
        # seen at a cap far past it
        sieved.clear()
        assert pl.R_of_h_q(h, q, 1 << 20).witnesses == res.witnesses
        assert max(sieved) < 1 << 20, sieved


def test_one_stops_once_every_plus_witness_is_in(monkeypatch):
    """h = one never takes -1: the scan stops at the window that completes the
    + witnesses, and the result is the full scan's."""
    sieved = []
    sieve = arith.factor_window

    def counting(lo, hi):
        sieved.append(hi - lo)
        return sieve(lo, hi)

    monkeypatch.setattr(arith, "factor_window", counting)
    res = pl.R_of_h_q(mf.one_fn(), 50, 10**6)
    assert sum(sieved) <= 8192
    assert res.R_value is None and not res.complete
    # the + witness of each class is its first squarefree member
    expect = {a: {1: next(n for n in range(a, 10**6, 50) if arith.is_squarefree(n))}
              for a in range(1, 50) if math.gcd(a, 50) == 1}
    assert res.witnesses == expect and max(w[1] for w in expect.values()) == 149
    assert pl.verify_witnesses(res, mf.one_fn())


def test_mu_equals_lambda_threshold():
    mu = mf.mobius_fn()
    for q in (3, 5, 8, 12):
        cap = 40 * q * q
        assert pl.R_of_h_q(mu, q, cap).R_value == pl.R_of_h_q(LAM, q, cap).R_value


@pytest.mark.parametrize("cutoff", [None, 1e4])
def test_block_pretend_sums_match_pretend_sum(cutoff):
    """audit_block's pretend table, read for the whole block at once, holds
    pretend_sum's values float for float, at the default cutoff sqrt(q) and
    at 10^4."""
    qs = range(3, 121)
    for h in WITNESS_FNS:
        for q, row in zip(qs, pl.audit_block(h, qs, 10.0, 1.0, pretend_cutoff=cutoff)):
            want = cutoff if cutoff is not None else math.sqrt(q)
            sums = [mf.pretend_sum(h, chi, want) for chi in g.real_characters(q)]
            assert row["pretend_cutoff"] == want
            assert [t["pretend_sum"] for t in row["pretend_table"]] == sums, (h.name, q)
            assert [t["character"] for t in row["pretend_table"]] == \
                [chi.label() for chi in g.real_characters(q)]
            assert row["min_pretend_sum"] == min(sums)


def test_scan_builds_one_unit_group_per_modulus(monkeypatch):
    """R_block and audit_block each build every q's unit group exactly once;
    the tables and their verify build no group."""
    qs = range(1, 200)
    built = []
    init = g.UnitGroup.__init__

    def counting(self, q):
        built.append(q)
        init(self, q)

    monkeypatch.setattr(g.UnitGroup, "__init__", counting)
    results = list(pl.R_block(LAM, qs, [20 * q * q for q in qs]))
    assert all(pl.verify_block(results, LAM))
    assert all(res.complete for res in results[1:])
    assert built == list(qs)
    built.clear()
    assert [row["q"] for row in pl.audit_block(LAM, qs, 10.0, 1.0)] == list(qs)
    assert built == list(qs)


def test_scans_build_no_dlog_table(monkeypatch):
    """R_block and audit_block read each group's units and real parity code,
    so no group builds its dlog tables."""
    qs = range(1, 200)
    groups = []
    init = g.UnitGroup.__init__

    def keeping(self, q):
        init(self, q)
        groups.append(self)

    monkeypatch.setattr(g.UnitGroup, "__init__", keeping)
    results = list(pl.R_block(LAM, qs, [20 * q * q for q in qs]))
    assert all(res.complete for res in results[1:])
    assert len(list(pl.audit_block(mf.mobius_fn(), qs, 10.0, 1.0))) == len(qs)
    assert len(groups) == 2 * len(qs)
    assert not any("_dlog_tables" in G.__dict__ for G in groups)


def test_real_sign_table_peak_memory():
    """One real character's sign table at q = 510510 (64 real characters),
    the parity code built on the way, peaks below 20 q bytes: no (64, q)
    table and no int64 angle rows."""
    q = 510510
    G = g.UnitGroup(q)
    chi = G.real_characters()[37]
    tracemalloc.start()
    try:
        table = chi.real_sign_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int8 and table.shape == (q,)
    assert peak < 20 * q, peak / q


def test_theorem_audit():
    quad = [c for c in g.real_characters(7) if not c.is_principal][0]
    aud = pl.theorem_audit(mf.character_fn(quad), 7, 10.0, 1.0)
    assert aud["verdict"] == "branch2" and aud["min_pretend_sum"] == 0.0
    aud = pl.theorem_audit(LAM, 3, 10.0, 1.0)
    assert aud["verdict"] in ("branch1", "both") and aud["R"] == 14
    mu = mf.mobius_fn()
    for q in range(3, 30):
        aud = pl.theorem_audit(mu, q, 10.0, 1.0)
        assert aud["verdict"] in ("branch1", "branch2", "both")


def _walk_verify(result, h, q):
    """The small-q oracle of verify_witnesses: every class member below each
    witness, one scalar is_squarefree and h.value at a time."""
    def sign_of(n):
        v = h.value(n)
        return (v > 0) - (v < 0)

    for a, d in result.witnesses.items():
        for s, n in d.items():
            if not arith.is_squarefree(n) or (n - a) % q != 0 or sign_of(n) != s:
                return False
            m = a if a > 0 else (1 if q == 1 else q)
            while m < n:
                if m >= 1 and arith.is_squarefree(m) and sign_of(m) == s:
                    return False  # an earlier witness was missed
                m += q
    return True


# liouville, mobius, chi_7 (vanishes on multiples of 7) and a generic rule
# (vanishes on multiples of 11, sign -1 at the primes 1 mod 3)
WITNESS_FNS = (LAM, mf.mobius_fn(), mf.character_fn(g.real_characters(7)[1]),
               mf.MultiplicativeFunction("generic", lambda p, e: np.where(
                   p == 11, 0.0, np.where(p % 3 == 1, (-0.5) ** e, 2.0))))


@functools.cache
def _witness_block(i):
    """The tables of WITNESS_FNS[i] for q = 1..60 at cap 20 q^2, one block."""
    qs = range(1, 61)
    return tuple(pl.R_block(WITNESS_FNS[i], qs, [20 * q * q for q in qs]))


def _next_member(q, after, want):
    """The first m = after + q, after + 2q, ... with want(m), within 100
    terms, or None."""
    for m in range(after + q, after + 101 * q, q):
        if want(m):
            return m
    return None


@given(st.sampled_from(WITNESS_FNS), st.integers(min_value=1, max_value=60),
       st.sampled_from(("none", "later", "sign", "squarefree", "class")), st.data())
@settings(max_examples=150, deadline=None)
def test_verify_witnesses_matches_the_walk(h, q, mutation, data):
    res = pl.R_of_h_q(h, q, 20 * q * q)
    assume(res.witnesses)
    a, d = data.draw(st.sampled_from(sorted(res.witnesses.items())))
    s, n = data.draw(st.sampled_from(sorted(d.items())))
    col = (1 - s) // 2   # the first-hit table's column of sign s
    first = res.first.copy()
    if mutation == "later":
        # a witness of the same class and sign, but not the first one
        later = _next_member(q, n, lambda m: arith.is_squarefree(m)
                             and (h.value(m) > 0) - (h.value(m) < 0) == s)
        assume(later is not None)
        first[a, col] = later
    elif mutation == "sign":
        first[a, 1 - col] = n
    elif mutation == "squarefree":
        square = _next_member(q, a, lambda m: not arith.is_squarefree(m))
        assume(square is not None)
        first[a, col] = square
    elif mutation == "class":
        others = [int(b) for b in g.build_unit_group(q).units if b != a]
        assume(others)
        b = data.draw(st.sampled_from(others))
        first[b, col] = n
    bad = pl.RFunctionResult(q, res.cap, first)
    want = mutation == "none"
    assert _walk_verify(bad, h, q) is want
    assert pl.verify_witnesses(bad, h) is want
    # the same table inside the block q = 1..60 fails that q alone
    block = list(_witness_block(WITNESS_FNS.index(h)))
    block[q - 1] = bad
    assert pl.verify_block(block, h) == [want or r is not bad for r in block]


@pytest.mark.parametrize("group, chunk", [(pl._VERIFY_GROUP, pl._VERIFY_BLOCK),
                                          (1 << 14, pl._VERIFY_BLOCK),
                                          (1, pl._VERIFY_BLOCK), (64, 7)])
def test_verify_block_agrees_with_each_table(group, chunk, monkeypatch):
    """Groups of one table or of many, and chunks that cut through hits and
    tables, flag exactly the tables verify_witnesses fails: every fifth
    table of the block q = 1..60 gets a witness of the wrong sign.  No
    oracle call reads more than a chunk."""
    monkeypatch.setattr(pl, "_VERIFY_GROUP", group)
    monkeypatch.setattr(pl, "_VERIFY_BLOCK", chunk)
    sizes = []
    oracle = mf.MultiplicativeFunction.squarefree_signs

    def counting_oracle(self, ns):
        sizes.append(len(ns))
        return oracle(self, ns)

    monkeypatch.setattr(mf.MultiplicativeFunction, "squarefree_signs", counting_oracle)
    for i, h in enumerate(WITNESS_FNS):
        block = list(_witness_block(i))
        for j in range(0, len(block), 5):
            res = block[j]
            rows, cols = np.nonzero(pl._hits(res.first))
            if rows.size:
                first = res.first.copy()
                first[rows[0], 1 - cols[0]] = first[rows[0], cols[0]]
                block[j] = pl.RFunctionResult(res.q, res.cap, first)
        flags = pl.verify_block(block, h)
        assert flags == [pl.verify_witnesses(r, h) for r in block]
        assert flags == [r is _witness_block(i)[j] for j, r in enumerate(block)]
        assert pl.verify_block([], h) == []
    assert 0 < max(sizes) <= chunk


def _moved(res, a, col, n):
    """res with the (a, col) witness replaced by n."""
    first = res.first.copy()
    first[a, col] = n
    return pl.RFunctionResult(res.q, res.cap, first)


@pytest.mark.parametrize("q", [7, 30, 59])
def test_verify_reads_each_class_up_to_its_later_hit(q):
    """A class whose - hit comes before its + hit: moving the - hit to a later
    - member, past the + hit, makes it the class's later hit, and the first
    - member it skipped fails the table, alone and in the block q = 1..60."""
    res = pl.R_of_h_q(LAM, q, 20 * q * q)
    a, (plus, minus) = next((a, (d[1], d[-1])) for a, d in sorted(res.witnesses.items())
                            if d[-1] < d[1])
    later = _next_member(q, plus, lambda m: arith.is_squarefree(m) and LAM.value(m) < 0)
    bad = _moved(res, a, 1, later)
    assert bad.R_value == max(res.R_value, later)
    assert not _walk_verify(bad, LAM, q)
    assert not pl.verify_witnesses(bad, LAM)
    block = list(_witness_block(0))
    block[q - 1] = bad
    assert pl.verify_block(block, LAM) == [r is not bad for r in block]


@pytest.mark.parametrize("h", [mf.one_fn(), cli._fn("character:7:1")])
def test_verify_one_sided_classes(h):
    """h = one and a real character of modulus 7 at q = 14 take one sign on
    each class: the other cell holds 0 and is not read.  The tables verify,
    alone and in a block, and a witness moved to a later member of its class
    and sign fails."""
    res = pl.R_of_h_q(h, 14, 10**4)
    assert res.R_value is None and len(res.witnesses) == 6
    assert all(len(d) == 1 for d in res.witnesses.values())
    assert pl.verify_witnesses(res, h)
    block = list(pl.R_block(h, range(10, 20), [10**4] * 10))
    assert pl.verify_block(block, h) == [True] * 10
    a, d = next(iter(sorted(res.witnesses.items())))
    (s, n), = d.items()
    later = _next_member(14, n, lambda m: arith.is_squarefree(m) and (h.value(m) > 0) - (h.value(m) < 0) == s)
    bad = _moved(res, a, (1 - s) // 2, later)
    assert not pl.verify_witnesses(bad, h)
    block[4] = bad
    assert pl.verify_block(block, h) == [r is not bad for r in block]


def test_verify_of_a_large_table_holds_a_range(monkeypatch):
    """With groups of 64 classes and ranges of 2^10, a table of q classes is
    read in ranges: the verify's tracemalloc peak is one bound at q = 2003
    and at q = 20011, alone and as a block of one."""
    tables = [pl.R_of_h_q(LAM, q, 10**9) for q in (2003, 20011)]
    monkeypatch.setattr(pl, "_VERIFY_GROUP", 64)
    monkeypatch.setattr(pl, "_VERIFY_BLOCK", 1 << 10)
    for res in tables:
        for verify in (lambda: pl.verify_witnesses(res, LAM),
                       lambda: pl.verify_block([res], LAM) == [True]):
            tracemalloc.start()
            try:
                assert verify()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= LARGE_TABLE_PEAK, (res.q, peak)


def test_block_matches_single_q_scans():
    """Moduli sharing one stream, with caps that end inside and past it,
    get the witness tables of scans of their own."""
    for h in WITNESS_FNS:
        qs = list(range(1, 61, 3))
        caps = [(7 * q * q + 5) if q % 2 else max(1, q * 10 - 50) for q in qs]
        for q, cap, res in zip(qs, caps, pl.R_block(h, qs, caps)):
            one = pl.R_of_h_q(h, q, cap)
            assert (res.q, res.cap, res.R_value, res.complete, res.witnesses) == \
                (q, cap, one.R_value, one.complete, one.witnesses)


TOY35 = dict(q=35, epsilon=0.1, R=20.0, Q1=16.0, z=3.0)
TOY101 = dict(q=101, epsilon=0.1, R=30.0, Q1=16.0, z=3.0)


def _easy_ctx(spec):
    params = pl.ParamSet.from_q(spec["q"], spec["epsilon"], easy_mode=True,
                                R=spec["R"], Q1=spec["Q1"], z=spec["z"])
    return pl.build_context(LAM, spec["q"], params)


def test_s_dual_route_easy():
    for spec in (TOY35, TOY101):
        ctx = _easy_ctx(spec)
        for a in (1, 2):
            for deltas in ((-1, -1, -1), (-1, -1, 1)):
                direct, extras = pl.s_function_easy(ctx, a, None, None, deltas)
                chars = pl.s_function_easy_chars(ctx, a, None, None, deltas)
                assert abs(direct - chars) <= max(1e-9 * abs(direct), 1e-12)
                assert extras["loss"] <= direct + 1e-15


def test_s_empty_prime_set():
    ctx = _easy_ctx(TOY35)
    # Delta2 = +1 never happens for Liouville at primes
    v, _ = pl.s_function_easy(ctx, 1, None, None, (-1, 1, -1))
    assert v == 0.0
    assert pl.t_function_easy(ctx, 1, None, None, (-1, 1, -1)) == pytest.approx(0.0, abs=1e-15)


def test_t_constant_for_flat_inputs():
    # with g = constant both signs and full cosets T is constant over classes
    ctx = _easy_ctx(TOY101)
    vals = [pl.t_function_easy(ctx, a, None, None, (-1, -1, -1))
            for a in (1, 2, 3, 5)]
    model = ctx.models[(0, -1)]
    if len(model.spectrum) == 1:  # constant dense model at this delta
        assert max(vals) - min(vals) <= 1e-12


def test_t_easy_matches_group_convolution():
    ctx = _easy_ctx(TOY35)
    G = ctx.G
    deltas = (-1, -1, -1)
    gvec = ctx.models[(0, -1)].g
    qvec = cs.class_weights(G, cs.q_set(G, LAM, ctx.params.Q1, None, -1)).real
    uvec = cs.class_weights(G, cs.u_set_easy(G, LAM, ctx.params.R, None, -1)).real
    conv = g.convolve_group(G, gvec, gvec)
    conv = g.convolve_group(G, conv, gvec)
    conv = g.convolve_group(G, conv, qvec)
    conv = g.convolve_group(G, conv, uvec)
    Tn = G.phi**3 * ctx.params.Q1 * ctx.params.R
    for a in (1, 4, 11):
        assert pl.t_function_easy(ctx, a, None, None, deltas) == pytest.approx(
            float(conv[G.unit_pos[a]]) / Tn, abs=1e-12)


def _ladder09_ctx():
    """The criterion-09 configuration: m has two primes >= 17, one in (16, 60]."""
    params = pl.ParamSet.from_q(35, 0.1, easy_mode=False, R=14.0, U=22.0, M=2000.0,
                                Q1=16.0, z=3.0, K=1, ladder_overrides=[(16.0, 60.0)])
    return pl.build_context(LAM, 35, params, ks=(-1, 0, 1)), [(0, 0, 0), (1, 0, -1), (-1, 1, 0)]


def test_t_general_matches_group_convolution():
    ctx, kset = _ladder09_ctx()
    G, pm = ctx.G, ctx.params
    d1, d2, d3, d4, d5, d6 = deltas = (-1, -1, -1, -1, 1, 1)
    qvec = cs.class_weights(G, cs.q_set(G, LAM, pm.Q1, None, d4)).real
    expect = np.zeros(G.phi)
    for k1, k2, k3 in kset:
        uvec = cs.class_weights(G, cs.u_set(G, LAM, pm.U, -k1, None, d5)).real
        mvec = cs.class_weights(G, cs.m_set(G, LAM, pm.M, -k2 - k3, pm.ladder, None, d6)).real
        conv = ctx.models[(k1, d1)].g
        for vec in (ctx.models[(k2, d2)].g, ctx.models[(k3, d3)].g, qvec, uvec, mvec):
            conv = g.convolve_group(G, conv, vec)
        expect += conv / (G.phi**3 * pm.Q1 * pm.U * math.exp(-k1) * pm.M * math.exp(-k2 - k3))
    assert np.abs(expect).max() > 0
    for a in (1, 2, 34):
        assert pl.t_function_general(ctx, a, None, None, None, deltas, kset) == pytest.approx(
            float(expect[G.unit_pos[a]]), abs=1e-12)


def test_budget(monkeypatch):
    ctx = _easy_ctx(TOY101)
    with pytest.raises(ResourceError):
        pl.s_function_easy(ctx, 1, None, None, (-1, -1, -1), budget=10)
    # on the ladder the budget covers all terms and is checked before any join
    ctx, kset = _ladder09_ctx()
    deltas = (-1, -1, -1, -1, 1, 1)
    _, extras = pl.s_function_general(ctx, 1, None, None, None, deltas, kset)
    monkeypatch.setattr(pl, "_class_join", None)
    with pytest.raises(ResourceError):
        pl.s_function_general(ctx, 1, None, None, None, deltas, kset,
                              budget=extras["tuples"] - 1)


def test_class_join_sieves_nothing(monkeypatch):
    """The join reads the squarefree flags its lists came with."""
    inside = []
    join, sieve = pl._class_join, arith.factor_window

    def watched_join(*args):
        inside.append(True)
        try:
            return join(*args)
        finally:
            inside.pop()

    def watched_sieve(lo, hi):
        assert not inside, "factor_window called inside the class join"
        return sieve(lo, hi)

    monkeypatch.setattr(pl, "_class_join", watched_join)
    monkeypatch.setattr(arith, "factor_window", watched_sieve)
    ctx = _easy_ctx(TOY35)
    assert pl.s_function_easy(ctx, 1, None, None, (-1, -1, -1))[1]["count"] > 0
    ctx, kset = _ladder09_ctx()
    assert pl.s_function_general(ctx, 1, None, None, None, (-1, -1, -1, -1, 1, 1),
                                 kset)[1]["count"] > 0


def _easy_nested(q, a, r_list, p_set, u_list):
    """(count, loss) of the easy S by nested loops over (r1, r2, r3, p, u)."""
    sqf = {n: arith.is_squarefree(n) for n in set(r_list) | set(u_list)}
    pr = {n: set(arith.factorize(n).primes) for n in set(r_list) | set(u_list)}
    count = loss = 0
    for r1 in r_list:
        for r2 in r_list:
            for r3 in r_list:
                c = r1 * r2 * r3 % q
                for p in p_set:
                    cp = c * p % q
                    for u in u_list:
                        if cp * u % q != a:
                            continue
                        count += 1
                        ok = (sqf[r1] and sqf[r2] and sqf[r3] and sqf[u]
                              and not (pr[r1] & pr[r2]) and not (pr[r1] & pr[r3])
                              and not (pr[r2] & pr[r3])
                              and p not in pr[r1] | pr[r2] | pr[r3] | pr[u]
                              and not ((pr[r1] | pr[r2] | pr[r3]) & pr[u]))
                        loss += not ok
    return count, loss


def _general_nested(q, a, r1l, r2l, r3l, p_set, u_list, m_list):
    """(count, loss) of one k-triple of the ladder S by nested loops."""
    elems = set(r1l) | set(r2l) | set(r3l) | set(u_list) | set(m_list)
    sqf = {n: arith.is_squarefree(n) for n in elems}
    pr = {n: set(arith.factorize(n).primes) for n in elems}
    count = loss = 0
    for r1 in r1l:
        for r2 in r2l:
            for r3 in r3l:
                c = r1 * r2 * r3 % q
                for p in p_set:
                    cp = c * p % q
                    for u in u_list:
                        cpu = cp * u % q
                        for m in m_list:
                            if cpu * m % q != a:
                                continue
                            count += 1
                            ok = all(sqf[x] for x in (r1, r2, r3, u, m))
                            seen: set[int] = set()
                            for x in (r1, r2, r3, u, m):
                                ok = ok and not (seen & pr[x])
                                seen |= pr[x]
                            loss += not (ok and p not in seen)
    return count, loss


def _flags(lists):
    """The squarefree flags of each list, by scalar factorization."""
    return [np.array([arith.is_squarefree(n) for n in x], dtype=bool) for x in lists]


def _easy_lists(ctx, deltas):
    d1, d2, d3 = deltas
    return (ctx.supports[(0, d1)], cs.q_set(ctx.G, LAM, ctx.params.Q1, None, d2),
            cs.u_set_easy(ctx.G, LAM, ctx.params.R, None, d3))


def test_class_join_matches_nested_loops_easy():
    # q = 35 has losses (r1 = r2, shared primes); at q = 3 the hits span
    # several join blocks
    for spec, big in ((TOY35, False), (dict(TOY35, q=3, R=90.0), True)):
        ctx = _easy_ctx(spec)
        q = spec["q"]
        losses = 0
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for deltas in ((-1, -1, -1), (-1, -1, 1), (1, -1, -1)):
                r, p, u = _easy_lists(ctx, deltas)
                count, loss = _easy_nested(q, a, r, p, u)
                assert pl._class_join(ctx.G, a, [r, r, r, p, u], _flags([r, r, r, p, u])) == \
                    (count, loss)
                value, extras = pl.s_function_easy(ctx, a, None, None, deltas)
                S_norm = ctx.interval_counts[0] ** 3 * ctx.params.Q1 * ctx.params.R
                assert extras["count"] == count
                assert value == ctx.norm**3 * count / S_norm
                assert extras["loss"] == ctx.norm**3 * loss / S_norm
                losses += loss
                if big and deltas == (-1, -1, -1):
                    assert count > pl._JOIN_HITS
        assert losses > 0


def test_class_join_matches_nested_loops_general():
    # the criterion-09 configuration: m has two primes >= 17, one in (16, 60]
    params = pl.ParamSet.from_q(35, 0.1, easy_mode=False, R=14.0, U=22.0, M=2000.0,
                                Q1=16.0, z=3.0, K=1, ladder_overrides=[(16.0, 60.0)])
    ctx = pl.build_context(LAM, 35, params, ks=(-1, 0, 1))
    kset = [(0, 0, 0), (1, 0, -1), (-1, 1, 0)]
    pm = ctx.params
    for a in (1, 2, 34):
        for deltas in ((-1, -1, -1, -1, 1, 1), (-1, -1, 1, -1, 1, 1)):
            d1, d2, d3, d4, d5, d6 = deltas
            p_set = cs.q_set(ctx.G, LAM, pm.Q1, None, d4)
            value = loss_value = 0.0
            losses = 0
            for k1, k2, k3 in kset:
                lists = [ctx.supports[(k1, d1)], ctx.supports[(k2, d2)], ctx.supports[(k3, d3)],
                         p_set, cs.u_set(ctx.G, LAM, pm.U, -k1, None, d5),
                         cs.m_set(ctx.G, LAM, pm.M, -k2 - k3, pm.ladder, None, d6)]
                if not all(map(len, lists)):
                    continue
                count, loss = _general_nested(35, a, *lists)
                assert pl._class_join(ctx.G, a, lists, _flags(lists)) == (count, loss)
                S_norm = (pm.interval(k1).length * pm.interval(k2).length
                          * pm.interval(k3).length * pm.Q1
                          * pm.U * math.exp(-k1) * pm.M * math.exp(-k2 - k3))
                value += ctx.norm**3 * count / S_norm
                loss_value += ctx.norm**3 * loss / S_norm
                losses += loss
            got, extras = pl.s_function_general(ctx, a, None, None, None, deltas, kset)
            assert (got, extras["loss"]) == (value, loss_value) and value > 0
            assert losses > 0
    # squares next to coprime parts: losses only the squarefree flags see
    G = g.build_unit_group(101)
    lists = [np.array(x) for x in ([9, 11, 49], [13, 4, 17], [19, 23, 8], [29, 31],
                                   [37, 41, 27], [43, 3127, 121])]
    for a in range(1, 101):
        assert pl._class_join(G, a, lists, _flags(lists)) == _general_nested(101, a, *lists)


@pytest.mark.parametrize("oracle", [test_class_join_matches_nested_loops_easy,
                                    test_class_join_matches_nested_loops_general])
def test_class_join_gcd_route_matches_nested_loops(monkeypatch, oracle):
    """The nested-loop oracles again with every pair of lists too large for a
    coprimality table, so each pair goes through np.gcd (and one-row blocks)."""
    monkeypatch.setattr(pl, "_JOIN_HITS", 0)
    oracle()


def _product_nested(q, lists):
    """{class: (count, loss)} of the tuples of lists by their exact products."""
    by_class = collections.defaultdict(lambda: [0, 0])
    for parts in itertools.product(*lists):
        n = math.prod(parts)
        by_class[n % q][0] += 1
        by_class[n % q][1] += not arith.is_squarefree(n)
    return {c: tuple(v) for c, v in by_class.items()}


def test_class_join_mixes_tables_and_gcds(monkeypatch):
    """1 in several lists, 3 and 9 in several lists, squares next to
    coprime parts; with the cap at 150 the pairs of the first list keep
    their tables while the others, inside the left grid and across it, go
    through np.gcd, in the same call."""
    G = g.build_unit_group(101)
    lists = [np.array([1, 2, 3]), np.array([1, 3, 5, 9]), np.arange(1, 41), np.arange(2, 42)]
    cells = [len(x) * len(y) for x, y in itertools.combinations(lists, 2)]
    flags, expect = _flags(lists), _product_nested(101, lists)
    for cap in (pl._JOIN_HITS, 150, 0):
        monkeypatch.setattr(pl, "_JOIN_HITS", cap)
        if cap == 150:
            assert min(cells) <= cap < max(cells)
        for a in range(1, 101):
            assert pl._class_join(G, a, lists, flags) == expect.get(a, (0, 0)), (cap, a)


def test_class_join_over_the_cap_keeps_memory_bounded():
    """Two lists of 2000 units: their coprimality table would hold 4 million
    cells (32 MB of int64 gcds on the way), far past the _JOIN_HITS cap, so
    the pair is tested by np.gcd in blocks and the join peaks below
    64 _JOIN_HITS bytes."""
    G = g.build_unit_group(101)
    x = np.array([n for n in range(1, 2100) if n % 101], dtype=np.int64)[:2000]
    lists = [x, x[::-1].copy()]
    flags = _flags(lists)
    assert len(x) ** 2 > pl._JOIN_HITS
    tracemalloc.start()
    try:
        count, loss = pl._class_join(G, 1, lists, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(x) ** 2 // 100 and 0 < loss < count
    assert peak < 64 * pl._JOIN_HITS, peak


# The benchmark's S operations (perfbench/workloads.py: S_EASY, S_GENERAL) at
# the classes its seeds 7 and 11 draw, with their outputs before the pair
# tables: a change to the join that moves any of them fails here.
S_EASY = {"q": 101, "epsilon": 0.1, "R": 200.0, "Q1": 16.0, "z": 3.0}
S_GENERAL = {"q": 101, "epsilon": 0.1, "R": 30.0, "U": 80.0, "M": 5000.0,
             "Q1": 16.0, "z": 3.0, "K": 1, "ladder": [[16.0, 60.0]],
             "kset": [[0, 0, 0], [1, 0, -1], [-1, 1, 0]],
             "deltas": [-1, -1, -1, -1, -1, 1]}
# (deltas, a) -> (value, count, loss, tuples)
S_EASY_PINNED = {
    ((-1, -1, -1), 42): (0.00010271818898047167, 82190, 7.26563406079657e-05, 8232000),
    ((-1, -1, 1), 20): (9.146280499266138e-05, 73184, 6.578763192519807e-05, 7331625),
    ((-1, -1, -1), 58): (0.00010288065843621399, 82320, 7.243638196019149e-05, 8232000),
    ((-1, -1, 1), 72): (9.148530076345647e-05, 73202, 6.578763192519807e-05, 7331625),
}
# a -> (value, count, loss, tuples)
S_GENERAL_PINNED = {
    51: (1.1853208734508763e-05, 64668, 9.393596437725606e-06, 6451164),
    100: (1.1769260420034755e-05, 64210, 9.359320597536437e-06, 6451164),
}


def _pinned(value, extras):
    return value, extras["count"], extras["loss"], extras["tuples"]


def test_benchmark_s_outputs_are_pinned():
    sp = S_EASY
    ctx = pl.build_context(LAM, sp["q"], pl.ParamSet.from_q(
        sp["q"], sp["epsilon"], easy_mode=True, R=sp["R"], Q1=sp["Q1"], z=sp["z"]))
    for (deltas, a), want in S_EASY_PINNED.items():
        assert _pinned(*pl.s_function_easy(ctx, a, None, None, deltas)) == want, (deltas, a)
    sp = S_GENERAL
    kset = [tuple(k) for k in sp["kset"]]
    params = pl.ParamSet.from_q(sp["q"], sp["epsilon"], easy_mode=False, R=sp["R"],
                                U=sp["U"], M=sp["M"], Q1=sp["Q1"], z=sp["z"], K=sp["K"],
                                ladder_overrides=sp["ladder"])
    ctx = pl.build_context(LAM, sp["q"], params, tuple(sorted({k for t in kset for k in t})))
    for a, want in S_GENERAL_PINNED.items():
        got = pl.s_function_general(ctx, a, None, None, None, tuple(sp["deltas"]), kset)
        assert _pinned(*got) == want, a


def test_non_unit_class_is_a_domain_error():
    ctx = _easy_ctx(TOY35)
    for a in (7, 35, -5):
        for route in (pl.s_function_easy, pl.s_function_easy_chars, pl.t_function_easy):
            with pytest.raises(DomainError):
                route(ctx, a, None, None, (-1, -1, -1))
    params = pl.ParamSet.from_q(35, 0.1, easy_mode=False, R=14.0, U=22.0, M=2000.0,
                                Q1=16.0, z=3.0, K=1, ladder_overrides=[(16.0, 60.0)])
    ctx = pl.build_context(LAM, 35, params, ks=(0,))
    for route in (pl.s_function_general, pl.s_function_general_chars, pl.t_function_general):
        with pytest.raises(DomainError):
            route(ctx, 14, None, None, None, (-1, -1, -1, -1, 1, 1), [(0, 0, 0)])


def test_general_variant_dual_route():
    params = pl.ParamSet.from_q(35, 0.1, easy_mode=False, R=14.0, U=22.0, M=26.0,
                                Q1=16.0, z=3.0, K=1)
    ctx = pl.build_context(LAM, 35, params, ks=(-1, 0, 1))
    kset = [(0, 0, 0), (1, 0, -1)]
    deltas = (-1, -1, -1, -1, 1, 1)
    for a in (1, 2):
        direct, _ = pl.s_function_general(ctx, a, None, None, None, deltas, kset)
        chars = pl.s_function_general_chars(ctx, a, None, None, None, deltas, kset)
        assert abs(direct - chars) <= max(1e-9 * abs(direct), 1e-12)
    # empty K set
    v, _ = pl.s_function_general(ctx, 1, None, None, None, deltas, [])
    assert v == 0.0
    rep = pl.st_compare_general(ctx, 1, None, None, None, deltas, kset)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs_shape)


def test_st_compare_and_loss():
    ctx = _easy_ctx(TOY35)
    rep = pl.st_compare_easy(ctx, 1, None, None, (-1, -1, -1))
    assert math.isfinite(rep.ratio) and not rep.asserted
    # the squarefree loss is the part of S from non-squarefree products
    value, extras = pl.s_function_easy(ctx, 1, None, None, (-1, -1, -1))
    assert 0.0 <= extras["loss"] <= value + 1e-15
    assert math.isfinite(extras["loss"])


def test_case_analysis_toy():
    params = pl.ParamSet.from_q(101, 0.08, easy_mode=True, R=101.0, z=2.5)
    rep = pl.case_analysis(LAM, 101, params)
    assert rep.case in ("Case1", "Case2->1", "Case3.1", "Case3.2->1", "Undetermined")
    assert rep.per_k and rep.per_k[0]["k"] == 0
    d = rep.as_dict()
    assert "case" in d and "per_k" in d


def test_case_analysis_full_sets_is_case1():
    # h = 1: every rough interval point has sign +, the + model is the rough
    # density and A+ = full group at small eps, forcing Case 1 via expansion
    one = mf.one_fn()
    params = pl.ParamSet.from_q(101, 0.08, easy_mode=True, R=101.0, z=2.5)
    rep = pl.case_analysis(one, 101, params)
    assert rep.case in ("Case1", "Case2->1")


def test_case_analysis_opposite_cosets_is_case31():
    # h = real character: signs align with the cosets of its kernel, so both
    # level sets sit on opposite cosets of the same index-2 subgroup
    q = 13
    psi = [c for c in g.real_characters(q) if not c.is_principal][0]
    h = mf.character_fn(psi)
    params = pl.ParamSet.from_q(q, 0.08, easy_mode=True, R=float(q), z=2.0,
                                delta=0.02)
    rep = pl.case_analysis(h, q, params)
    assert rep.case == "Case3.1"
    assert rep.certificates["psi"] == psi.label()
    table = psi.real_sign_table()
    assert table[rep.certificates["b_plus"] % q] == 1
    assert table[rep.certificates["b_minus"] % q] == -1


def test_each_window_is_sieved_once(monkeypatch):
    """The window functions read signs, flags, roughness and marks from one
    sieve of their window: every window sieve of arith together sieves
    exactly as many integers as the window holds."""
    sieved = []

    def counting(sieve):
        def wrapped(lo, hi):
            sieved.append(hi - lo)
            return sieve(lo, hi)
        return wrapped

    for name, fn in list(vars(arith).items()):
        if name.endswith("_window") and callable(fn):
            monkeypatch.setattr(arith, name, counting(fn))
    G = g.build_unit_group(35)
    lad = cs.ladder_build(10.0, 35, overrides=[(10.0, 100.0)])
    m_iv = arith.IntegerInterval.e_adic(600.0, 0)
    f_iv = arith.IntegerInterval(100, 400)
    cases = [
        (lambda: cs.m_set(G, LAM, 600.0, 0, lad, None, 1), m_iv.count()),
        (lambda: cs.ramare_decompose(G, LAM, None, 1, 0, 2, lad, 600.0), m_iv.ihi),
        (lambda: cs.f_support(G, LAM, 3.0, f_iv), f_iv.count()),
        # cap 1000 lies inside the first chunk of the scan
        (lambda: pl.E_sets(LAM, 35, 1000), 1000),
    ]
    for call, length in cases:
        sieved.clear()
        call()
        assert sieved and sum(sieved) == length, (sieved, length)


def test_batch_block_sieves_each_integer_once(monkeypatch, capsys):
    """A serial batch is one block: its scans read one stream of disjoint
    windows from 0, and the witness oracle sieves nothing and reads the
    tables of many moduli per call."""
    windows = []
    sieve = arith.factor_window
    oracle_calls = []
    oracle = mf.MultiplicativeFunction.squarefree_signs

    def counting(lo, hi):
        windows.append((lo, hi))
        return sieve(lo, hi)

    def counting_oracle(self, ns):
        oracle_calls.append(len(ns))
        return oracle(self, ns)

    checked = []
    check = pl.verify_witnesses

    def counting_check(result, h, read=None):
        checked.append(result.q)
        return check(result, h, read)

    monkeypatch.setattr(arith, "factor_window", counting)
    monkeypatch.setattr(mf.MultiplicativeFunction, "squarefree_signs", counting_oracle)
    monkeypatch.setattr(pl, "verify_witnesses", counting_check)
    assert cli.run(["batch", "--what", "rfunc", "--qmin", "3", "--qmax", "60"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["table"]
    assert len(rows) == 58 and all(r["verified"] for r in rows)
    assert 1 <= len(oracle_calls) <= 2, oracle_calls
    # each table is still checked by its own verify_witnesses call, on the
    # signs of the shared oracle calls
    assert checked == list(range(3, 61))
    assert windows[0][0] == 0
    assert all(prev[1] == cur[0] for prev, cur in zip(windows, windows[1:])), windows
    assert sum(hi - lo for lo, hi in windows) == windows[-1][1]
