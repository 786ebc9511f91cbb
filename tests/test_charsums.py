import cmath
import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from linnik_lab import arith, charsums as cs, group as g, multfunc as mf, pipeline as pl, sieve
from linnik_lab.errors import DomainError, PreconditionError
from lemma_oracles import is_rough, pv_burgess_check


def f_delta_value(n: int, delta: int, h, q: int, z: float,
                  interval: arith.IntegerInterval) -> float:
    """The per-integer oracle for f^Delta(n): the Mertens-normalized indicator
    of the sign-delta, z-rough points of [I]_q."""
    if n not in interval or math.gcd(n, q) != 1:
        return 0.0
    if not is_rough(n, z):
        return 0.0
    if h.sign(n) != delta:
        return 0.0
    return arith.mertens_product(z, q, inverse=True)


def context_f_hat(h, q: int, R: float, z: float, delta: int) -> np.ndarray:
    """F^Delta(chi) for every chi, as pipeline.build_context computes it on
    I = (R/e, R]."""
    params = pl.ParamSet.from_q(q, 0.1, easy_mode=True, R=R, z=z)
    return pl.build_context(h, q, params).models[(0, delta)].f_hat


def test_f_delta_and_transform():
    lam = mf.liouville_fn()
    G = g.build_unit_group(7)
    iv = arith.IntegerInterval(7.0, 21.0)
    # build_context's I = (21/e, 21] holds the same integers
    assert list(arith.IntegerInterval.e_adic(21.0, 0).members()) == list(iv.members())
    norm = arith.mertens_product(3.0, 7, inverse=True)
    # pointwise values
    assert f_delta_value(9, 1, lam, 7, 3.0, iv) == norm
    assert f_delta_value(11, 1, lam, 7, 3.0, iv) == 0.0
    assert f_delta_value(11, -1, lam, 7, 3.0, iv) == norm
    assert f_delta_value(14, -1, lam, 7, 3.0, iv) == 0.0  # not coprime
    assert f_delta_value(12, -1, lam, 7, 3.0, iv) == 0.0  # not rough
    # h = 1: F^- vanishes identically
    one = mf.one_fn()
    tbl = context_f_hat(one, 7, 21.0, 3.0, -1)
    assert np.abs(tbl).max() == 0.0
    # transform table matches a hand-rolled expectation
    tbl = context_f_hat(lam, 7, 21.0, 3.0, -1)
    members = [n for n in iv.members() if math.gcd(n, 7) == 1]
    supp = [n for n in members if is_rough(n, 3.0) and lam.sign(n) == -1]
    chi = g.characters(G.q, G)[1]
    byhand = norm * sum(chi(n).conjugate() for n in supp) / len(members)
    assert cmath.isclose(tbl[1], byhand, abs_tol=1e-12)
    # F^+(chi0) + F^-(chi0) is the normalized rough density (about 1)
    tot = context_f_hat(lam, 7, 21.0, 3.0, 1)[0] + tbl[0]
    dens = norm * len([n for n in members if is_rough(n, 3.0)]) / len(members)
    assert tot.real == pytest.approx(dens, abs=1e-12)


@pytest.mark.parametrize("h, q, R, z", [
    (mf.liouville_fn(), 7, 21.0, 3.0),
    (mf.one_fn(), 7, 21.0, 3.0),
    (mf.liouville_fn(), 35, 200.0, 5.0),
    (mf.liouville_fn(), 24, 150.0, 4.0),
])
def test_context_f_hat_matches_the_per_integer_oracle(h, q, R, z):
    """Every coefficient build_context computes is E_{n in [I]_q}
    f^Delta(n) conj(chi(n)) with f^Delta read one integer at a time."""
    G = g.build_unit_group(q)
    iv = arith.IntegerInterval.e_adic(R, 0)
    members = [n for n in iv.members() if math.gcd(n, q) == 1]
    for delta in (1, -1):
        got = context_f_hat(h, q, R, z, delta)
        for i, chi in enumerate(g.characters(G.q, G)):
            want = sum(f_delta_value(n, delta, h, q, z, iv) * chi(n).conjugate()
                       for n in members) / len(members)
            assert cmath.isclose(got[i], want, abs_tol=1e-12), (delta, i)


def test_sets_and_sums():
    lam = mf.liouville_fn()
    G = g.build_unit_group(11)
    qs = cs.q_set(G, lam, 50.0, None, -1)
    assert qs.tolist() == [19, 23, 29, 31, 37, 41, 43, 47]
    assert cs.q_set(G, lam, 50.0, None, 1).tolist() == []  # primes have sign -1
    # the normalized prime sums (1/Q1) sum_p conj(chi(p)): the triangle bound,
    # with equality at chi0
    vals = cs.all_char_sums(G, qs) / 50.0
    assert vals[0] == pytest.approx(len(qs) / 50.0)
    assert np.abs(vals).max() <= len(qs) / 50.0 + 1e-12
    us = cs.u_set_easy(G, lam, 20.0, None, 1)
    assert us.tolist() == [1, 6, 10, 14, 15]
    psi = [c for c in g.real_characters(11) if not c.is_principal][0]
    B = g.CosetSpec(psi, 1)
    us_H = cs.u_set_easy(G, lam, 20.0, B, 1)
    assert set(us_H) <= set(us)


def test_ladder_build_and_membership():
    lad = cs.ladder_build(10.0, 101)
    assert lad.J == 1 and lad.intervals == () and cs.in_S(8, lad)
    lad = cs.ladder_build(10.0, 101, overrides=[(10.0, 100.0)])
    assert cs.in_S(77, lad)        # 11 lies in (10, 100]
    assert not cs.in_S(8, lad)
    assert not cs.in_S(101 * 103, lad)
    lad2 = cs.ladder_build(10.0, 101, overrides=[(10.0, 100.0), (150.0, 1500.0)])
    assert cs.in_S(11 * 151, lad2) and not cs.in_S(11 * 13, lad2)
    with pytest.raises(DomainError):
        cs.ladder_build(10.0, 101, overrides=[(10.0, 100.0), (50.0, 1500.0)])
    with pytest.raises(DomainError):
        cs.ladder_build(2.0, 101)
    for q in (0, -5):
        with pytest.raises(DomainError):
            cs.ladder_build(10.0, q)
    # a genuinely non-empty formula ladder needs tiny log q^(1/2) thresholds,
    # i.e. enormous q; at desk scale J < 2 always
    assert cs.ladder_build(3.0, 10**7).intervals == ()


def test_m_set():
    lam = mf.liouville_fn()
    G = g.build_unit_group(35)
    lad = cs.ladder_build(10.0, 35, overrides=[(10.0, 100.0)])
    ms = cs.m_set(G, lam, 600.0, 0, lad, None, 1)
    for m in ms:
        fac = arith.factorize(m)
        assert fac.is_squarefree
        assert math.gcd(m, 35) == 1
        assert all(p >= 10 for p in fac.primes)
        assert any(10 < p <= 100 for p in fac.primes)
        assert lam.value(m) > 0
        assert m in arith.IntegerInterval.e_adic(600.0, 0)
    assert 11 * 31 in ms and 13 * 37 in ms


def test_mvt_check():
    rep = cs.mvt_check(np.array([1]), np.array([1.0]), 10, 7)
    assert rep.ok and rep.lhs == 1.0
    rng = np.random.default_rng(0)
    for q in (7, 101, 499):
        coeffs = rng.choice((-1.0, 1.0), size=500)
        rep = cs.mvt_check(np.arange(1, 501), coeffs, 500, q)
        assert rep.ok
    # near-extremal: a_n = chi'(n)
    G = g.build_unit_group(101)
    chi = g.characters(G.q, G)[3]
    ns = np.arange(1, 102)
    rep = cs.mvt_check(ns, np.array([chi(n) for n in range(1, 102)]), 101, 101)
    assert rep.ok and rep.ratio > 0.4


def test_sum_report_ratio_of_empty_sides():
    # 0 / 0 reads 0: the report must stay valid JSON, which has no NaN
    assert cs.SumReport.make(0, 0).ratio == 0.0
    assert cs.SumReport.make(0.0, -0.0).ratio == 0.0
    assert cs.SumReport.make(2, 0).ratio == math.inf
    assert cs.SumReport.make(1, 4).ratio == 0.25


def test_mvt_matches_direct_character_sum():
    rng = np.random.default_rng(5)
    q = 13
    G = g.build_unit_group(q)
    coeffs = np.array([complex(rng.normal(), rng.normal()) for n in range(1, 40)])
    rep = cs.mvt_check(np.arange(1, 40), coeffs, 39, q)
    direct = 0.0
    for chi in g.characters(G.q, G):
        s = sum(c * chi(n) for n, c in zip(range(1, 40), coeffs))
        direct += abs(s) ** 2
    assert rep.lhs == pytest.approx(direct / G.phi, rel=1e-9)


def test_halasz_montgomery_report():
    rng = np.random.default_rng(1)
    q, eps = 101, 0.3
    z = q**eps
    ns = np.array([n for n in range(1, 2000) if is_rough(n, z)])
    coeffs = rng.choice((-1.0, 1.0), size=len(ns))
    G, rows = g.build_unit_group(q), range(10)
    rep = cs.halasz_montgomery_report(ns, coeffs, G, rows, 2000, eps)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs_shape)
    assert not rep.asserted
    with pytest.raises(PreconditionError, match="n=4 "):
        cs.halasz_montgomery_report(np.array([1, 23, 4, 2]), np.ones(4), G, rows, 23, eps)
    with pytest.raises(DomainError):
        cs.halasz_montgomery_report(np.array([0]), np.ones(1), G, rows, 10, eps)


def test_large_values_census():
    count, rep = cs.large_values_census(lambda ps: np.zeros(len(ps)), 500.0, 101, 0.25)
    assert count == 0
    count, rep = cs.large_values_census(None, 500.0, 101, 0.25)
    assert 0 <= count <= 100 and math.isfinite(rep.rhs_shape)
    # alpha = 0: threshold P itself; only sums of absolute value >= P count
    count0, _ = cs.large_values_census(None, 500.0, 101, 0.0)
    assert count0 <= count


def test_pv_and_burgess():
    chi5 = [c for c in g.real_characters(5) if not c.is_principal][0]
    rep = pv_burgess_check(chi5, 0, 5)
    assert rep.lhs == 0.0  # 1 - 1 - 1 + 1 + 0
    rep = pv_burgess_check(chi5, 0, 0)
    assert rep.lhs == 0.0
    for q in (101, 203):
        bound = math.sqrt(q) * math.log(q)
        sups = cs.pv_max_windows(g.build_unit_group(q))
        assert len(sups) == g.build_unit_group(q).phi - 1
        assert sups.max() <= bound
    with pytest.raises(DomainError):
        pv_burgess_check(g.characters(5)[0], 0, 5)


def brute_window_sup(chi) -> float:
    """max |S(m) - S(n)| over all pairs of the prefix sums S(0..q), each
    chi(n) from its exact rotation."""
    q = chi.group.q
    prefix = np.concatenate([[0j], np.cumsum([chi(n) for n in range(1, q + 1)])])
    return float(np.abs(prefix[:, None] - prefix[None, :]).max())


@pytest.mark.parametrize("q", [3, 5, 8, 15, 16, 24, 35, 101, 105, 720])
def test_block_pv_matches_all_pairs(q):
    """Every non-principal character, cyclic and non-cyclic groups, and
    characters of small order whose prefix points repeat many times."""
    G = g.build_unit_group(q)
    sups = cs.pv_max_windows(G)
    assert sups.shape == (G.phi - 1,)
    for i, chi in enumerate(g.characters(G.q, G)[1:], start=1):
        assert abs(sups[i - 1] - brute_window_sup(chi)) <= 1e-12, (q, chi.label())
        # the single-character API is the block route's row
        assert cs.pv_max_window(chi)[0] == sups[i - 1]
    # any rows, in any order, read the same values
    rows = np.random.default_rng(q).permutation(np.arange(1, G.phi))[:7]
    assert np.array_equal(cs.pv_max_windows(G, rows), sups[rows - 1])
    with pytest.raises(DomainError):
        cs.pv_max_windows(G, [0])


def test_block_pv_blocks_and_directions_do_not_move_the_sup(monkeypatch):
    """One row per block, many rows per block, and other direction counts
    all give the same floats: the filter only drops points that cannot end
    a diameter."""
    G = g.build_unit_group(105)
    want = cs.pv_max_windows(G)
    for cells, dirs in ((1, 8), (1 << 16, 8), (1 << 12, 2), (1 << 12, 3), (1 << 12, 32)):
        monkeypatch.setattr(cs, "_PV_CELLS", cells)
        monkeypatch.setattr(cs, "_PV_DIRECTIONS", dirs)
        assert np.array_equal(cs.pv_max_windows(G), want), (cells, dirs)


def test_block_pv_peak_memory():
    """The sweep at q = 1009 holds one block of _PV_CELLS prefix cells at a
    time, and one character's pair distances in steps of _PV_CELLS."""
    G = g.build_unit_group(1009)
    G.unit_dlogs, G.units, G.roots, G.orders   # cached before tracing
    cs.pv_max_windows(g.build_unit_group(7))   # and numpy's one-time set-up
    budget = 160 * cs._PV_CELLS + (1 << 16)
    tracemalloc.start()
    try:
        cs.pv_max_windows(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)
    # many candidates in one row: the pair matrix is chunked, not m x m
    pts = np.exp(2j * np.pi * np.arange(3000) / 3000)
    tracemalloc.start()
    try:
        d = cs._max_pair_distance(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == pytest.approx(2.0, abs=1e-12)
    assert peak <= 48 * cs._PV_CELLS + 16 * len(pts) + (1 << 16), peak


def test_ladder_primes_where_h_vanishes_have_no_sign():
    # chi_7 vanishes at the prime 7, a unit mod 11
    chi = [c for c in g.real_characters(7) if not c.is_principal][0]
    chi7 = mf.character_fn(chi)
    G = g.build_unit_group(11)
    # the full group and both cosets of the squares mod 11 (2 is a non-square);
    # (19/e, 19] = (6.99, 19] holds 7
    psi = [c for c in g.real_characters(11, G) if not c.is_principal][0]
    for B, delta in itertools.product((None, g.CosetSpec(psi, 1), g.CosetSpec(psi, 2)),
                                      (1, -1)):
        qs = cs.q_set(G, chi7, 19.0, B, delta)
        assert 7 not in qs
        byhand = [p for p in arith.primes_in(19.0 / math.e, 19.0).tolist()
                  if p != 11 and chi(p).real * delta > 0
                  and (B is None or B.member_mask(np.array([p]))[0])]
        assert qs.tolist() == byhand
    # a prime of the j-th ladder interval where h vanishes is refused by name
    with pytest.raises(DomainError, match="h vanishes at a prime"):
        cs.ramare_decompose(G, chi7, None, 1, 0, 2,
                            cs.ladder_build(3.0, 11, overrides=[(5.0, 60.0)]), 5.0)


def _ramare_case(q, h, B, delta, j, ladder, M):
    """The decomposition at v = -1, 0, 1, each checked; {v: its output}."""
    G = g.build_unit_group(q)
    outs = {}
    for v in (-1, 0, 1):
        out = outs[v] = cs.ramare_decompose(G, h, B, delta, v, j, ladder, M)
        assert out["defect"] <= 1e-12, (v, out["defect"])
        assert out["max_coefficient"] <= 1.0 + 1e-12
    return outs


def test_ramare_identity_toy():
    lam = mf.liouville_fn()
    lad = cs.ladder_build(10.0, 35, overrides=[(10.0, 100.0)])
    outs = _ramare_case(35, lam, None, 1, 2, lad, 600.0)
    assert all(out["members"] > 0 for out in outs.values())
    assert all(outs[v]["e1_terms"] > 0 and outs[v]["e2_terms"] > 0 for v in (0, 1))
    # empty M side: identity still balances to zero
    out = _ramare_case(35, lam, None, -1, 2, lad, 600.0)[0]
    assert out["members"] == 0
    # coset-restricted variants across all 24 characters
    psi = [c for c in g.real_characters(35) if not c.is_principal][0]
    for b in (1, next(int(a) for a in g.build_unit_group(35).units
                      if psi.real_sign_table()[int(a)] == -1)):
        _ramare_case(35, lam, g.CosetSpec(psi, b), 1, 2, lad, 600.0)


def test_ramare_refuses_marked_primes_below_Q1():
    """m is Q1-rough, so a unit prime below Q1 in the j-th interval divides no
    m while Mtilde still counts it; a prime that divides q is no unit."""
    lam = mf.liouville_fn()
    G = g.build_unit_group(101)
    for lo, p in ((1.0, 2), (3.0, 5), (6.0, 7)):
        with pytest.raises(DomainError, match=f"the prime {p} "):
            cs.ramare_decompose(G, lam, None, 1, 0, 2,
                                cs.ladder_build(10.0, 101, overrides=[(lo, 100.0)]), 2000.0)
    _ramare_case(101, lam, None, 1, 2, cs.ladder_build(10.0, 101, overrides=[(7.0, 100.0)]), 2000.0)
    _ramare_case(35, lam, None, 1, 2, cs.ladder_build(10.0, 35, overrides=[(6.0, 100.0)]), 2000.0)


def test_subwindows_match_the_scalar_log():
    """w = ceil(H log p) by np.log equals the per-prime math.log value for
    every prime below 10^6 at the ladder scales H_j(Q1); np.log differs from
    math.log in the last bit at a few of these primes."""
    ps = arith.primes_upto(10**6)
    for j, Q1 in itertools.product((2, 3, 4), (3.0, 10.0, 16.0, 100.0)):
        H = cs._H_j(j, Q1)
        scalar = [math.ceil(H * math.log(p) - 1e-12) for p in ps.tolist()]
        assert cs._subwindows(ps, H).tolist() == scalar, (j, Q1)


def test_amplify_report():
    rep = cs.amplify_report(101, 10.0, 100.0, 2000.0)
    assert rep.tag == "prime-power-amplification"
    assert rep.extra["ell"] == 2
    assert math.isfinite(rep.lhs) and rep.lhs >= 0
    rng = np.random.default_rng(3)
    rep = cs.amplify_report(101, 10.0, 100.0, 2000.0,
                            c_p=lambda ps: rng.choice((-1.0, 1.0), size=len(ps)),
                            a_n=lambda ns: rng.choice((-1.0, 1.0), size=len(ns)))
    assert math.isfinite(rep.lhs)
    rep = cs.amplify_report(101, 10.0, 100.0, 2000.0,
                            c_p=lambda ps: np.where(ps == 11, 1.0, 0.0))
    assert math.isfinite(rep.lhs)
    # Y2 in (1/Y1, 1] gives l = 0; Y1 Y2 <= 1 would give l < 0
    rep = cs.amplify_report(101, 10.0, 0.5, 2000.0)
    assert rep.extra["ell"] == 0 and math.isfinite(rep.lhs)
    for Y1, Y2 in ((1.0, 100.0), (0.5, 100.0), (10.0, 0.1), (10.0, 0.0)):
        with pytest.raises(DomainError):
            cs.amplify_report(101, Y1, Y2, 2000.0)


def test_coefficient_rules_are_read_by_one_call():
    """The density g and the coefficients a_p, c_p and a_n are array rules:
    each is called once, on the whole int64 array of its primes or n."""
    calls = collections.Counter()

    def rule(name, value):
        def read(xs):
            calls[name] += 1
            return np.full(np.shape(xs), value)
        return read

    cs.large_values_census(rule("a_p", 1.0), 500.0, 101, 0.25)
    cs.amplify_report(101, 10.0, 100.0, 2000.0, c_p=rule("c_p", 1.0), a_n=rule("a_n", -1.0))
    sieve.sieve_accuracy(sieve.build_beta_sieve(10, 10**12), rule("g", 0.0), 10, K=1.0)
    assert calls == {"a_p": 1, "c_p": 1, "a_n": 1, "g": 1}


def test_square_and_shorts_moments():
    sq, sh = cs.square_and_shorts_moments(35, 5000, 10.0, 40.0, 50.0, 8.0, 2, 0.3)
    assert math.isfinite(sq.lhs) and math.isfinite(sh.lhs)
    assert sq.extra["n_terms"] > 0 and sh.extra["n_terms"] > 0
    sq, sh = cs.square_and_shorts_moments(101, 10000, 10.0, 40.0, 50.0, 8.0, 2, 0.3)
    assert math.isfinite(sq.ratio) and math.isfinite(sh.ratio)
