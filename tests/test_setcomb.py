import itertools
import random

import numpy as np
import pytest

from linnik_lab import group as g, setcomb as sc
from linnik_lab.errors import PreconditionError


def all_nonempty_subsets(units):
    for r in range(1, len(units) + 1):
        yield from itertools.combinations(units, r)


def test_stabilizer_examples():
    G = g.build_unit_group(5)
    assert sc.stabilizer(G, {2, 3}) == frozenset({1, 4})
    assert sc.stabilizer(G, {1, 2, 3}) == frozenset({1})
    assert sc.stabilizer(G, {1, 2, 3, 4}) == frozenset({1, 2, 3, 4})
    assert sc.stabilizer(G, set()) == frozenset({1, 2, 3, 4})


def test_stabilizer_is_subgroup():
    rng = random.Random(1)
    for _ in range(100):
        q = rng.randint(3, 40)
        G = g.build_unit_group(q)
        units = [int(a) for a in G.units]
        S = rng.sample(units, rng.randint(1, len(units)))
        H = sc.stabilizer(G, S)
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


def test_kneser_example():
    G = g.build_unit_group(5)
    rep = sc.kneser_check(G, {1, 2}, {1, 3})
    assert rep["|AB|"] == 3 and rep["|A|+|B|-|H|"] == 3
    rep = sc.kneser_check(G, {1}, {1})
    assert rep["|AB|"] == 1


def test_convolution_lower_bounds():
    G = g.build_unit_group(5)
    rep = sc.convolution_lower_check(G, {1, 2, 4}, {1, 3, 4})
    assert rep["min_conv"] >= 2
    full = {1, 2, 3, 4}
    rep = sc.convolution_lower_check(G, full, full)
    assert rep["min_conv"] == 4
    # coset variant
    G8 = g.build_unit_group(8)
    H = {1, 3}
    rep = sc.convolution_lower_check(G8, {1, 3}, {5, 7}, cosets=(H, 1, 5))
    assert rep["min_conv_on_abH"] >= rep["bound_ii"]
    with pytest.raises(PreconditionError):
        sc.convolution_lower_check(G8, {1, 5}, {5, 7}, cosets=(H, 1, 5))


def test_conv_routes_agree():
    rng = np.random.default_rng(9)
    G = g.build_unit_group(35)
    units = [int(a) for a in G.units]
    for _ in range(10):
        A = set(rng.choice(units, 9, replace=False).tolist())
        B = set(rng.choice(units, 13, replace=False).tolist())
        C = set(rng.choice(units, 7, replace=False).tolist())
        assert np.abs(sc.conv3(G, A, B, C) - sc.conv3_transform(G, A, B, C)).max() < 1e-8


def test_triple_conv_coset_value():
    # (1_H * 1_H * 1_H)(a) = phi^2/4 on H, 0 off H, for index-2 H
    for q in (5, 13, 101):
        G = g.build_unit_group(q)
        H = g.index2_subgroups(q)[0]
        cv = sc.conv3(G, H, H, H)
        for a, v in zip(G.units, cv):
            expect = G.phi**2 // 4 if int(a) in H else 0
            assert v == expect


def test_popular_kneser():
    G = g.build_unit_group(5)
    full = {1, 2, 3, 4}
    out = sc.popular_kneser_classify(G, full, full, 1, 1)
    assert out.branch in (sc.EXPANDS, sc.BOTH) and out.verified
    G8 = g.build_unit_group(8)
    H = {1, 3}
    out = sc.popular_kneser_classify(G8, H, H, 1, 1)
    assert out.verified
    with pytest.raises(PreconditionError):
        sc.popular_kneser_classify(G, {1}, {2}, 3, 1)


def test_popular_kneser_random_trials():
    rng = random.Random(23)
    G = g.build_unit_group(35)
    units = [int(a) for a in G.units]
    for _ in range(200):
        A = rng.sample(units, rng.randint(6, len(units)))
        B = rng.sample(units, rng.randint(6, len(units)))
        t = rng.randint(2, 6)
        u = rng.randint(1, t)
        out = sc.popular_kneser_classify(G, A, B, t, u)
        assert out.verified, (sorted(A), sorted(B), t, u)


def test_structure_classify():
    G = g.build_unit_group(5)
    full = {1, 2, 3, 4}
    out = sc.structure_classify(G, full, full, 0.41, 0.5, 0.6)
    assert out["branch"] == "a"
    H = {1, 4}
    out = sc.structure_classify(G, H, H, 0.41, 0.5, 0.6)
    assert out["branch"] == "b" and out["stabilizer_index"] == 2
    with pytest.raises(PreconditionError):
        sc.structure_classify(G, H, H, 0.2, 0.5, 0.6)  # beta >= 2 alpha
    # random hypothesis-satisfying instances always land in one branch
    rng = random.Random(4)
    for _ in range(60):
        q = rng.choice([5, 8, 12, 13, 24, 40, 60])
        Gq = g.build_unit_group(q)
        units = [int(a) for a in Gq.units]
        size = max(1, int(0.45 * len(units)) + 1)
        A = set(rng.sample(units, size))
        B = set(rng.sample(units, size))
        try:
            out = sc.structure_classify(Gq, A, B, 0.41, 0.45, 0.6)
        except PreconditionError:
            continue
        assert out["branch"] in ("a", "b")


def test_subgroups_of_index_below():
    G = g.build_unit_group(24)  # Z_2^3, seven subgroups of index 2, seven of index 4
    subs = sc.subgroups_of_index_below(G, 5)
    idx2 = [H for H in subs if len(H) * 2 == G.phi]
    idx4 = [H for H in subs if len(H) * 4 == G.phi]
    assert len(idx2) == 7 and len(idx4) == 7
    for H in subs:
        for a in H:
            for b in H:
                assert a * b % 24 in H


def _subgroups_from_characters(G, bound):
    """subgroups_of_index_below with the generators filtered from every
    DirichletCharacter of G, one order at a time."""
    small = [c.vector for c in G.characters() if 1 < c.order < bound]
    out, seen = [], set()
    for i, v1 in enumerate(small):
        for v2 in small[i:]:
            vecs = {v1, v2, tuple(0 for _ in G.components)}
            while True:
                more = {tuple((a + b) % c.order for a, b, c in zip(v, w, G.components))
                        for v in vecs for w in vecs} - vecs
                if not more:
                    break
                vecs |= more
            if 1 < len(vecs) < bound and frozenset(vecs) not in seen:
                seen.add(frozenset(vecs))
                out.append(frozenset.intersection(
                    *(g.DirichletCharacter(G, v).kernel() for v in vecs)))
    return out


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 8, 15, 16, 24, 35, 60, 101, 211, 1009])
def test_subgroups_of_index_below_match_character_orders(q):
    """The orders read from the dual vectors against each character's own,
    through the subgroups both generator lists give, in the same order."""
    G = g.UnitGroup(q)
    for bound in (2, 3, 4.5, 6):
        assert sc.subgroups_of_index_below(G, bound) == _subgroups_from_characters(
            g.UnitGroup(q), bound)
    # the characters themselves were never built
    assert "_characters" not in vars(G)


def test_triple_conv_classify():
    G = g.build_unit_group(101)
    full = frozenset(int(a) for a in G.units)
    out = sc.triple_conv_classify(G, full, full, full, 0.08)
    assert out.branch == sc.EXPANDS and out.witnesses["min_conv"] == G.phi**2
    H = g.index2_subgroups(101)[0]
    out = sc.triple_conv_classify(G, H, H, H, 0.08)
    assert out.branch == sc.COSET
    cert = out.witnesses["coset_certificate"]
    assert cert["min_conv_on_coset"] == G.phi**2 // 4
    with pytest.raises(PreconditionError):
        sc.triple_conv_classify(G, set(list(full)[:10]), full, full, 0.08)
