import cmath
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from linnik_lab import arith, charsums as cs, group as g, multfunc as mf, pipeline as pl
from linnik_lab.errors import DomainError, PreconditionError


def f_delta_value(n: int, delta: int, h, q: int, z: float,
                  interval: arith.IntegerInterval) -> float:
    """The per-integer oracle for f^Delta(n): the Mertens-normalized indicator
    of the sign-delta, z-rough points of [I]_q."""
    if n not in interval or math.gcd(n, q) != 1:
        return 0.0
    if not arith.is_rough(n, z):
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
    supp = [n for n in members if arith.is_rough(n, 3.0) and lam.sign(n) == -1]
    chi = G.characters()[1]
    byhand = norm * sum(chi(n).conjugate() for n in supp) / len(members)
    assert cmath.isclose(tbl[1], byhand, abs_tol=1e-12)
    # F^+(chi0) + F^-(chi0) is the normalized rough density (about 1)
    tot = context_f_hat(lam, 7, 21.0, 3.0, 1)[0] + tbl[0]
    dens = norm * len([n for n in members if arith.is_rough(n, 3.0)]) / len(members)
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
        for i, chi in enumerate(G.characters()):
            want = sum(f_delta_value(n, delta, h, q, z, iv) * chi(n).conjugate()
                       for n in members) / len(members)
            assert cmath.isclose(got[i], want, abs_tol=1e-12), (delta, i)


def test_sets_and_sums():
    lam = mf.liouville_fn()
    G = g.build_unit_group(11)
    qs = cs.q_set(G, lam, 50.0, None, -1)
    assert qs == [19, 23, 29, 31, 37, 41, 43, 47]
    assert cs.q_set(G, lam, 50.0, None, 1) == []  # primes have sign -1
    chi0 = G.characters()[0]
    val = cs.prime_sum_Q(chi0, qs, 50.0)
    assert val == pytest.approx(len(qs) / 50.0)
    # triangle bound with equality at chi0
    for chi in G.characters():
        assert abs(cs.prime_sum_Q(chi, qs, 50.0)) <= len(qs) / 50.0 + 1e-12
    us = cs.u_set_easy(G, lam, 20.0, None, 1)
    assert us == [1, 6, 10, 14, 15]
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
    rep = cs.mvt_check({1: 1.0}, 10, 7)
    assert rep.ok and rep.lhs == 1.0
    rng = np.random.default_rng(0)
    for q in (7, 101, 499):
        coeffs = {n: complex(rng.choice((-1.0, 1.0))) for n in range(1, 501)}
        rep = cs.mvt_check(coeffs, 500, q)
        assert rep.ok
    # near-extremal: a_n = chi'(n)
    G = g.build_unit_group(101)
    chi = G.characters()[3]
    coeffs = {n: chi(n) for n in range(1, 102)}
    rep = cs.mvt_check(coeffs, 101, 101)
    assert rep.ok and rep.ratio > 0.4


def test_mvt_matches_direct_character_sum():
    rng = np.random.default_rng(5)
    q = 13
    G = g.build_unit_group(q)
    coeffs = {n: complex(rng.normal(), rng.normal()) for n in range(1, 40)}
    rep = cs.mvt_check(coeffs, 39, q)
    direct = 0.0
    for chi in G.characters():
        s = sum(c * chi(n) for n, c in coeffs.items())
        direct += abs(s) ** 2
    assert rep.lhs == pytest.approx(direct / G.phi, rel=1e-9)


def test_halasz_montgomery_report():
    rng = np.random.default_rng(1)
    q, eps = 101, 0.3
    z = q**eps
    coeffs = {n: complex(rng.choice((-1.0, 1.0)))
              for n in range(1, 2000) if arith.is_rough(n, z)}
    chars = list(g.characters(q))[:10]
    rep = cs.halasz_montgomery_report(coeffs, chars, 2000, q, eps)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs_shape)
    assert not rep.asserted
    with pytest.raises(PreconditionError, match="n=4 "):
        cs.halasz_montgomery_report({1: 1.0, 23: 1.0, 4: 1.0, 2: 1.0}, chars, 23, q, eps)
    with pytest.raises(DomainError):
        cs.halasz_montgomery_report({0: 1.0}, chars, 10, q, eps)


def test_large_values_census():
    count, rep = cs.large_values_census(lambda p: 0.0, 500.0, 101, 0.25)
    assert count == 0
    count, rep = cs.large_values_census(None, 500.0, 101, 0.25)
    assert 0 <= count <= 100 and math.isfinite(rep.rhs_shape)
    # alpha = 0: threshold P itself; only sums of absolute value >= P count
    count0, _ = cs.large_values_census(None, 500.0, 101, 0.0)
    assert count0 <= count


def test_pv_and_burgess():
    chi5 = [c for c in g.real_characters(5) if not c.is_principal][0]
    rep = cs.pv_burgess_check(chi5, 0, 5)
    assert rep.lhs == 0.0  # 1 - 1 - 1 + 1 + 0
    rep = cs.pv_burgess_check(chi5, 0, 0)
    assert rep.lhs == 0.0
    for q in (101, 203):
        bound = math.sqrt(q) * math.log(q)
        sups = cs.pv_max_windows(g.build_unit_group(q))
        assert len(sups) == g.build_unit_group(q).phi - 1
        assert sups.max() <= bound
    with pytest.raises(DomainError):
        cs.pv_burgess_check(g.characters(5)[0], 0, 5)


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
    for i, chi in enumerate(G.characters()[1:], start=1):
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
    G.unit_dlogs(), G.units, G.root_table()   # cached before tracing
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


def test_partition_characters():
    lam = mf.liouville_fn()
    lad = cs.ladder_build(50.0, 101)
    part = cs.partition_characters(101, lad, None, lam, eta=1 / 160)
    sizes = part.sizes()
    assert sum(sizes.values()) == 100
    # at desk scale the j=1 threshold Q1^(-alpha_1) ~ 0.94 dominates every
    # normalized prime sum (<= pi(Q1)/Q1), so X_1 absorbs the whole dual and
    # the residual set is empty; the partition property is what is asserted
    assert sizes["X1"] == 100 and part.residual == []
    # with an override ladder every character still lands somewhere
    lad2 = cs.ladder_build(50.0, 101, overrides=[(10.0, 100.0)])
    psi = [c for c in g.real_characters(101) if not c.is_principal][0]
    part2 = cs.partition_characters(101, lad2, psi, lam, eta=1 / 160)
    assert sum(part2.sizes().values()) == 100
    with pytest.raises(DomainError):
        cs.partition_characters(101, lad, None, lam, eta=0.5)


def test_partition_with_artificial_threshold_exercises_deeper_classes():
    # same machinery with the j=2 window sums against an override ladder;
    # verify by hand that the class rule is the advertised one
    lam = mf.liouville_fn()
    q = 35
    G = g.build_unit_group(q)
    lad = cs.ladder_build(10.0, q, overrides=[(10.0, 100.0)])
    part = cs.partition_characters(q, lad, None, lam, eta=1 / 160)
    assert sum(part.sizes().values()) == G.phi
    for j, members in part.classes.items():
        assert all(isinstance(i, int) for i in members)
    sums = cs.ladder_prime_sums(G, lam, lad, 2, None, -1)
    assert sums  # the override interval has sign-minus primes
    for w, vals in sums.items():
        assert len(vals) == G.phi


def test_ladder_primes_where_h_vanishes_have_no_sign():
    # chi_7 vanishes at the ladder prime 7, a unit mod 11
    chi = [c for c in g.real_characters(7) if not c.is_principal][0]
    chi7 = mf.character_fn(chi)
    G = g.build_unit_group(11)
    lad = cs.ladder_build(5.0, 11, overrides=[(5.0, 60.0)])
    H = cs._H_j(2, lad.Q1)
    # the full group and both cosets of the squares mod 11 (2 is a non-square)
    psi = [c for c in g.real_characters(11, G) if not c.is_principal][0]
    for B, delta in itertools.product((None, g.CosetSpec(psi, 1), g.CosetSpec(psi, 2)),
                                      (1, -1)):
        sums = cs.ladder_prime_sums(G, chi7, lad, 2, B, delta)
        assert cs._w_of_p(7, H) not in sums
        byhand: dict[int, np.ndarray] = {}
        for p in arith.primes_in(5.0, 60.0).tolist():
            if p != 11 and chi(p).real * delta > 0 and (B is None or B.contains(p)):
                w = cs._w_of_p(p, H)
                row = np.array([c(p).conjugate() for c in G.characters()]) * math.exp(-w / H)
                byhand[w] = byhand.get(w, 0) + row
        assert sorted(sums) == sorted(byhand)
        for w, vals in sums.items():
            assert np.allclose(vals, byhand[w], atol=1e-12)
    part = cs.partition_characters(11, lad, None, chi7, eta=1 / 160)
    assert sum(part.sizes().values()) == G.phi
    # a prime above the factor table where h vanishes is refused by name
    with pytest.raises(DomainError, match="h vanishes at a prime"):
        cs.ramare_decompose(G, chi7, None, 1, 0, 2,
                            cs.ladder_build(3.0, 11, overrides=[(5.0, 60.0)]), 5.0)


def _ramare_case(q, h, B, delta, v, j, ladder, M):
    G = g.build_unit_group(q)
    out = cs.ramare_decompose(G, h, B, delta, v, j, ladder, M)
    assert out["defect"] <= 1e-12, out["defect"]
    assert out["max_coefficient"] <= 1.0 + 1e-12
    return out


def test_ramare_identity_toy():
    lam = mf.liouville_fn()
    lad = cs.ladder_build(10.0, 35, overrides=[(10.0, 100.0)])
    out = _ramare_case(35, lam, None, 1, 0, 2, lad, 600.0)
    assert out["members"] > 0 and out["e1_terms"] > 0 and out["e2_terms"] > 0
    # empty M side: identity still balances to zero
    out = _ramare_case(35, lam, None, -1, 0, 2, lad, 600.0)
    assert out["members"] == 0
    # coset-restricted variants across all 24 characters
    psi = [c for c in g.real_characters(35) if not c.is_principal][0]
    for b in (1, next(int(a) for a in g.build_unit_group(35).units
                      if psi.real_sign_table()[int(a)] == -1)):
        _ramare_case(35, lam, g.CosetSpec(psi, b), 1, 0, 2, lad, 600.0)


def test_amplify_report():
    rep = cs.amplify_report(101, 10.0, 100.0, 2000.0)
    assert rep.tag == "prime-power-amplification"
    assert rep.extra["ell"] == 2
    assert math.isfinite(rep.lhs) and rep.lhs >= 0
    rng = np.random.default_rng(3)
    rep = cs.amplify_report(101, 10.0, 100.0, 2000.0,
                            c_p=lambda p: float(rng.choice((-1, 1))),
                            a_n=lambda n: float(rng.choice((-1, 1))))
    assert math.isfinite(rep.lhs)
    rep = cs.amplify_report(101, 10.0, 100.0, 2000.0,
                            c_p=lambda p: 1.0 if p == 11 else 0.0)
    assert math.isfinite(rep.lhs)
    # Y2 in (1/Y1, 1] gives l = 0; Y1 Y2 <= 1 would give l < 0
    rep = cs.amplify_report(101, 10.0, 0.5, 2000.0)
    assert rep.extra["ell"] == 0 and math.isfinite(rep.lhs)
    for Y1, Y2 in ((1.0, 100.0), (0.5, 100.0), (10.0, 0.1), (10.0, 0.0)):
        with pytest.raises(DomainError):
            cs.amplify_report(101, Y1, Y2, 2000.0)


def test_square_and_shorts_moments():
    sq, sh = cs.square_and_shorts_moments(35, 5000, 10.0, 40.0, 50.0, 8.0, 2, 0.3)
    assert math.isfinite(sq.lhs) and math.isfinite(sh.lhs)
    assert sq.extra["n_terms"] > 0 and sh.extra["n_terms"] > 0
    sq, sh = cs.square_and_shorts_moments(101, 10000, 10.0, 40.0, 50.0, 8.0, 2, 0.3)
    assert math.isfinite(sq.ratio) and math.isfinite(sh.ratio)
