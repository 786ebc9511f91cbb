import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from linnik_lab import arith, group as g, multfunc as mf, pipeline as pl
from linnik_lab.errors import DomainError
from lemma_oracles import (convolve_group_transform, fourier_forward, index2_subgroups,
                           orthogonality_exact, parseval_gap)


def test_build_examples():
    G5 = g.build_unit_group(5)
    assert G5.phi == 4
    assert G5.components[0].generator == 2
    assert [G5.dlog(a)[0] for a in (2, 4, 3, 1)] == [1, 2, 3, 0]
    G8 = g.build_unit_group(8)
    assert sorted(c.order for c in G8.components) == [2, 2]
    G1 = g.build_unit_group(1)
    assert G1.phi == 1 and len(g.characters(1, G1)) == 1
    with pytest.raises(DomainError):
        g.build_unit_group(0)


def test_a_dropped_group_is_freed():
    """A group is a plain value: once its caller drops it, nothing holds it,
    whatever was read from it, and no reference cycle waits for the
    collector."""
    G = g.build_unit_group(101)
    G.real_characters(), G.orders, G.roots, G.unit_dlogs, g.characters(101, G)
    ref = weakref.ref(G)
    del G
    assert ref() is None


def test_orders_by_row_match_each_character():
    for q in range(1, 301):
        G = g.build_unit_group(q)
        assert G.orders.tolist() == [g.DirichletCharacter(G, G.dual_vector(i)).order
                                     for i in range(G.phi)], q


@pytest.mark.parametrize("q", [720, 1009])
def test_orthogonality_reads_every_row(q, monkeypatch):
    """One corrupted row fails the check wherever it lies, so the walk over
    the rows in blocks reads them all (q = 720 has four axes)."""
    G = g.build_unit_group(q)
    assert orthogonality_exact(G)
    angles = g.UnitGroup.character_angles
    for bad in (1, G.phi // 2, G.phi - 1):
        def corrupted(self, rows, bad=bad):
            out = angles(self, rows)
            hit = np.flatnonzero(np.asarray(rows).reshape(-1) == bad)
            u = self.units[0]
            out[hit, u] = (out[hit, u] + 1) % self.angle_modulus
            return out

        monkeypatch.setattr(g.UnitGroup, "character_angles", corrupted)
        assert not orthogonality_exact(G), bad


def test_dlog_homomorphism():
    rng = random.Random(3)
    for q in (5, 8, 24, 35, 101, 360):
        G = g.build_unit_group(q)
        units = [int(a) for a in G.units]
        for _ in range(60):
            a, b = rng.choice(units), rng.choice(units)
            xa, xb, xab = G.dlog(a), G.dlog(b), G.dlog(a * b % q)
            for c, va, vb, vab in zip(G.components, xa, xb, xab):
                assert (va + vb) % c.order == vab
        # each prime power's components rebuild u mod that prime power
        for u in units:
            for m, same in itertools.groupby(zip(G.components, G.dlog(u)),
                                             key=lambda cx: cx[0].modulus):
                assert math.prod(pow(c.generator, x, m) for c, x in same) % m == u % m


def test_character_count_and_orthogonality():
    for q in list(range(1, 60)) + [101, 105, 200]:
        G = g.build_unit_group(q)
        assert len(g.characters(G.q, G)) == G.phi
        assert orthogonality_exact(G)


def test_character_values_exact():
    G5 = g.build_unit_group(5)
    chars = g.characters(5, G5)
    chi0 = chars[0]
    assert chi0(5) == 0
    quad = [c for c in chars if c.is_real and not c.is_principal][0]
    assert quad(2) == -1 and quad(3) == -1 and quad(4) == 1 and quad(1) == 1
    assert quad.rotation(2) == Fraction(1, 2)
    # orthogonality of two fixed characters at shifted arguments
    total = sum(c(2) * c(3).conjugate() for c in chars)
    assert abs(total) < 1e-12


def test_real_characters_and_index2():
    assert len(index2_subgroups(3)) == 1 and index2_subgroups(3)[0] == frozenset({1})
    assert sorted(map(sorted, index2_subgroups(8))) == [[1, 3], [1, 5], [1, 7]]
    assert index2_subgroups(5) == [frozenset({1, 4})]
    for q in (3, 4, 5, 8, 12, 24, 35, 101):
        G = g.build_unit_group(q)
        reals = g.real_characters(q, G)
        subs = index2_subgroups(q, G)
        assert len(subs) == len(reals) - 1
        for H in subs:
            assert len(H) * 2 == G.phi
        # kernels are subgroups: closed under product and inverse
        for H in subs:
            for a in H:
                assert pow(a, -1, q) in H
                for b in H:
                    assert a * b % q in H


def test_coset_spec():
    G = g.build_unit_group(5)
    psi = [c for c in g.real_characters(5) if not c.is_principal][0]
    cs = g.CosetSpec(psi, 2)
    assert cs.index == 2
    assert cs.members() == frozenset({2, 3})
    assert cs.member_mask(np.array([7, 4, 5])).tolist() == [True, False, False]
    full = g.CosetSpec(G.real_characters()[0], 1)
    assert full.index == 1 and full.members() == frozenset({1, 2, 3, 4})


def test_fourier_roundtrip_and_parseval():
    rng = np.random.default_rng(0)
    for q in (24, 35, 101):
        G = g.build_unit_group(q)
        for _ in range(20):
            f = rng.normal(size=len(G.units)) + 1j * rng.normal(size=len(G.units))
            coeffs = fourier_forward(G, f)
            back = g.fourier_inverse(G, coeffs)
            assert np.abs(back - f).max() < 1e-9
            assert parseval_gap(G, f) < 1e-9


def test_fourier_examples():
    G = g.build_unit_group(7)
    ones = np.ones(len(G.units))
    coeffs = fourier_forward(G, ones)
    assert abs(coeffs[0] - 1) < 1e-12 and np.abs(coeffs[1:]).max() < 1e-12
    delta = np.zeros(G.phi)
    delta[G.unit_pos[1]] = 1.0
    coeffs = fourier_forward(G, delta)
    assert np.abs(coeffs - 1 / G.phi).max() < 1e-12


def test_convolution():
    G = g.build_unit_group(5)
    delta1 = np.zeros(G.phi)
    delta1[G.unit_pos[1]] = 1.0
    out = g.convolve_group(G, delta1, delta1)
    assert out[G.unit_pos[1]] == 1 and out.sum() == 1
    # 1_H * 1_H = (phi/2) 1_H for index-2 H
    for q in (5, 8, 12):
        G = g.build_unit_group(q)
        for H in index2_subgroups(q):
            ind = np.array([1 if int(a) in H else 0 for a in G.units])
            conv = g.convolve_group(G, ind, ind)
            expect = np.where(ind > 0, G.phi // 2, 0)
            assert np.array_equal(conv.astype(int), expect)
    # direct equals transform route on random integer functions
    rng = np.random.default_rng(1)
    G = g.build_unit_group(24)
    f = rng.integers(-5, 6, size=len(G.units))
    h = rng.integers(-5, 6, size=len(G.units))
    direct = g.convolve_group(G, f, h)
    trans = convolve_group_transform(G, f, h)
    assert np.abs(direct - trans).max() < 1e-9
    # multi-axis grids take the row gather at every support share
    for q in (720, 9240):
        G = g.build_unit_group(q)
        h = rng.integers(-5, 6, size=G.phi)
        for share in np.arange(1, 10) / 10:
            f = np.zeros(G.phi, dtype=np.int64)
            size = int(share * G.phi)
            f[rng.choice(G.phi, size, replace=False)] = rng.integers(-5, 6, size)
            direct = g.convolve_group(G, f, h)
            assert direct.dtype == np.int64
            assert np.abs(direct - convolve_group_transform(G, f, h)).max() < 1e-6, (q, share)


def test_convolution_commutative_associative_exact():
    rng = np.random.default_rng(2)
    for q in (8, 15, 21, 50):
        G = g.build_unit_group(q)
        f = rng.integers(-4, 5, size=len(G.units))
        h = rng.integers(-4, 5, size=len(G.units))
        k = rng.integers(-4, 5, size=len(G.units))
        fh = g.convolve_group(G, f, h)
        hf = g.convolve_group(G, h, f)
        assert np.array_equal(fh, hf)
        left = g.convolve_group(G, fh, k)
        right = g.convolve_group(G, f, g.convolve_group(G, h, k))
        assert np.array_equal(left, right)


def test_large_modulus_has_units_and_R():
    # no size bound but _Q_LIMIT: the element list exists at q > 10^5, and the
    # witness scan reaches R(liouville; q) there
    q = 100003  # prime
    assert arith.is_prime(q)
    G = g.UnitGroup(q)
    assert G.phi == arith.euler_phi(q)
    assert np.array_equal(G.units, np.arange(1, q))
    assert G.unit_pos[0] == -1 and np.array_equal(G.unit_pos[G.units], np.arange(q - 1))
    chi = g.DirichletCharacter(G, tuple(1 for _ in G.components))
    vals = [chi(n) for n in (2, 3, 7)]
    assert all(abs(abs(v) - 1) < 1e-12 for v in vals)
    assert chi(q) == 0
    lam = mf.liouville_fn()
    res = pl.R_of_h_q(lam, q, 10**7)
    assert res.complete and res.R_value == 2833555
    # the oracle re-checks the whole table: 420,230 class members
    assert pl.verify_witnesses(res, lam)


def _dlog_oracle(m: int, comps) -> list[np.ndarray]:
    """The tables of the components of one prime power m by a pow loop over
    every exponent vector: entry g_1^x_1 ... g_k^x_k mod m holds x_i."""
    tables = [np.full(m, -1, dtype=np.int64) for _ in comps]
    for xs in itertools.product(*(range(c.order) for c in comps)):
        a = math.prod(pow(c.generator, x, m) for c, x in zip(comps, xs)) % m
        for t, x in zip(tables, xs):
            t[a] = x
    return tables


def test_dlog_tables_match_pow_loop_oracle():
    oracle = {}
    for q in list(range(1, 2001)) + [2**e for e in range(3, 17)]:
        G = g.UnitGroup(q)
        assert len(G._dlog_tables) == len(G.components)
        for m, same in itertools.groupby(zip(G.components, G._dlog_tables),
                                         key=lambda ct: ct[0].modulus):
            comps, tables = zip(*same)
            if m not in oracle:
                oracle[m] = _dlog_oracle(m, comps)
            for got, want in zip(tables, oracle[m]):
                assert np.array_equal(got, want), (q, m)
        assert np.array_equal(G.units, [a for a in range(q) if math.gcd(a, q) == 1] or [0])


def test_dlog_tables_built_in_chunks_match_one_step(monkeypatch):
    # tiny chunks: many steps per component, a partial last row, the
    # <-1> x <5> pair of 2^e filled chunk by chunk
    qs = [3**7, 2**12, 8 * 27 * 11, 2 * 5**5, 10007]
    whole = {q: g.UnitGroup(q)._dlog_tables for q in qs}
    monkeypatch.setattr(g, "_DLOG_CHUNK", 50)
    for q in qs:
        got = g.UnitGroup(q)._dlog_tables
        assert all(np.array_equal(a, b) for a, b in zip(got, whole[q], strict=True)), q


@pytest.mark.parametrize("q", [9999991, 2**23])
def test_large_group_construction_peak(q):
    """Construction and the first read of the dlog tables, which builds them,
    peak within 1.5 times the tables kept."""
    tracemalloc.start()
    try:
        G = g.UnitGroup(q)
        tables = G._dlog_tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(t.nbytes for t in tables)
    assert peak <= 1.5 * kept, (peak, kept)


def _real_code_oracle(G):
    """The parity code from the dlog tables: bit i of a unit's code is x_i & 1
    (the first component most significant), 2^k off the units."""
    code = np.zeros(G.q, dtype=np.int64)
    for comp, table in zip(G.components, G._dlog_tables):
        code = 2 * code + np.tile(table % 2, G.q // comp.modulus)
    code[[math.gcd(a, G.q) > 1 for a in range(G.q)]] = 1 << len(G.components)
    return code


def test_real_code_from_residues_matches_dlog_parity():
    for q in range(1, 2001):
        G = g.UnitGroup(q)
        code = G._real_code
        # read from residues: the dlog tables are built on first read, not here
        assert "_dlog_tables" not in G.__dict__
        assert code.dtype == np.int16
        assert np.array_equal(code, _real_code_oracle(G)), q
