import itertools
import random

import numpy as np
import pytest

from linnik_lab import group as g, setcomb as sc
from linnik_lab.errors import DomainError, PreconditionError
from lemma_oracles import convolution_lower_check, index2_subgroups


def all_nonempty_subsets(units):
    for r in range(1, len(units) + 1):
        yield from itertools.combinations(units, r)


def test_stabilizer_examples():
    G = g.build_unit_group(5)
    assert sc.stabilizer(G, [2, 3]).tolist() == [1, 4]
    assert sc.stabilizer(G, [1, 2, 3]).tolist() == [1]
    assert sc.stabilizer(G, [1, 2, 3, 4]).tolist() == [1, 2, 3, 4]
    assert sc.stabilizer(G, []).tolist() == [1, 2, 3, 4]


def test_stabilizer_is_subgroup():
    rng = random.Random(1)
    for _ in range(100):
        q = rng.randint(3, 40)
        G = g.build_unit_group(q)
        units = [int(a) for a in G.units]
        S = rng.sample(units, rng.randint(1, len(units)))
        H = sc.stabilizer(G, S).tolist()
        assert 1 in H
        for a in H:
            assert pow(a, -1, q) in H
            for b in H:
                assert a * b % q in H


def test_kneser_exhaustive_small():
    for q in (3, 4, 5, 8, 12):
        G = g.build_unit_group(q)
        units = [int(a) for a in G.units]
        for A in all_nonempty_subsets(units):
            for B in all_nonempty_subsets(units):
                sc.kneser_check(G, A, B)


@pytest.mark.parametrize("q", [101, 24])
def test_set_arrays_match_brute_force(q):
    # arrays with repeats and residues below 0 and past q, read mod q, on a
    # one-axis and a multi-axis grid
    G = g.build_unit_group(q)
    rng = np.random.default_rng(q)
    units = [int(u) for u in G.units]

    def draw(size):
        return rng.choice(units, size) + q * rng.integers(-2, 3, size)

    def stab(S):
        return {h for h in units if {h * s % q for s in S} == S}

    for size_a, size_b in ((1, 1), (3, 5), (G.phi // 3, G.phi // 2), (G.phi, 2 * G.phi)):
        A, B = draw(size_a), draw(size_b)
        a, b = {int(x) % q for x in A}, {int(x) % q for x in B}
        ab = {x * y % q for x in a for y in b}
        got = sc.product_set(G, A, B)
        assert got.dtype == np.int64 and got.tolist() == sorted(ab)
        assert sc.stabilizer(G, A).tolist() == sorted(stab(a))
        H = stab(ab)
        assert sc.stabilizer(G, got).tolist() == sorted(H)
        aH, bH = ({x * h % q for x in S for h in H} for S in (a, b))
        assert sc.kneser_check(G, A, B) == {
            "|AB|": len(ab), "|AH|+|BH|-|H|": len(aH) + len(bH) - len(H),
            "|A|+|B|-|H|": len(a) + len(b) - len(H), "|H|": len(H)}
    with pytest.raises(DomainError):
        sc.product_set(G, [1, 2 * q], [1])


def test_kneser_example():
    G = g.build_unit_group(5)
    rep = sc.kneser_check(G, [1, 2], [1, 3])
    assert rep["|AB|"] == 3 and rep["|A|+|B|-|H|"] == 3
    rep = sc.kneser_check(G, [1], [1])
    assert rep["|AB|"] == 1


def test_convolution_lower_bounds():
    G = g.build_unit_group(5)
    rep = convolution_lower_check(G, [1, 2, 4], [1, 3, 4])
    assert rep["min_conv"] >= 2
    full = [1, 2, 3, 4]
    rep = convolution_lower_check(G, full, full)
    assert rep["min_conv"] == 4
    # coset variant
    G8 = g.build_unit_group(8)
    H = [1, 3]
    rep = convolution_lower_check(G8, [1, 3], [5, 7], cosets=(H, 1, 5))
    assert rep["min_conv_on_abH"] >= rep["bound_ii"]
    with pytest.raises(PreconditionError):
        convolution_lower_check(G8, [1, 5], [5, 7], cosets=(H, 1, 5))


def test_conv_routes_agree():
    rng = np.random.default_rng(9)
    G = g.build_unit_group(35)
    units = [int(a) for a in G.units]
    for _ in range(10):
        A = rng.choice(units, 9, replace=False)
        B = rng.choice(units, 13, replace=False)
        C = rng.choice(units, 7, replace=False)
        assert np.abs(sc.conv3(G, A, B, C) - sc.conv3_transform(G, A, B, C)).max() < 1e-8


def test_triple_conv_coset_value():
    # (1_H * 1_H * 1_H)(a) = phi^2/4 on H, 0 off H, for index-2 H
    for q in (5, 13, 101):
        G = g.build_unit_group(q)
        H = index2_subgroups(q)[0]
        cv = sc.conv3(G, sorted(H), sorted(H), sorted(H))
        for a, v in zip(G.units, cv):
            expect = G.phi**2 // 4 if int(a) in H else 0
            assert v == expect


def test_triple_conv_classify():
    G = g.build_unit_group(101)
    full = G.units
    out = sc.triple_conv_classify(G, full, full, full, 0.08)
    assert out.branch == sc.EXPANDS and out.witnesses["min_conv"] == G.phi**2
    H = sorted(index2_subgroups(101)[0])
    out = sc.triple_conv_classify(G, H, H, H, 0.08)
    assert out.branch == sc.COSET
    cert = out.witnesses["coset_certificate"]
    assert cert["min_conv_on_coset"] == G.phi**2 // 4
    with pytest.raises(PreconditionError):
        sc.triple_conv_classify(G, full[:10], full, full, 0.08)
