"""Differential tests of the dlog-grid route (FFT transforms, integer-angle
character values, exact grid convolution, hull-diameter Polya-Vinogradov)
against brute-force oracles built from scalar Fraction rotations and plain
double loops."""

import cmath
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linnik_lab import charsums as cs, group as g, setcomb as sc
from lemma_oracles import fourier_forward, index2_subgroups

# trivial groups, the <-1> x <5> split of 2^e, and multi-component grids
QS = (1, 2, 8, 16, 24, 35, 101, 105, 720)
EXAMPLES = settings(max_examples=40, deadline=None)


def fraction_rotation(chi, n):
    """sum_i t_i x_i / d_i mod 1 in exact rationals, None off the units."""
    G = chi.group
    if not G.is_unit(n % G.q):
        return None
    ang = sum((Fraction(t * x, c.order) for t, x, c in
               zip(chi.vector, G.dlog(n), G.components)), Fraction(0))
    return ang % 1


def e(rot):
    return cmath.exp(2j * math.pi * rot)


@st.composite
def weighted_terms(draw):
    q = draw(st.sampled_from(QS))
    ns = draw(st.lists(st.integers(0, 5000), max_size=25))
    ws = draw(st.lists(st.integers(-3, 3), min_size=len(ns), max_size=len(ns)))
    return q, ns, ws


@EXAMPLES
@given(weighted_terms(), st.booleans())
def test_fft_character_sums_match_rotation_sums(case, conj):
    q, ns, ws = case
    G = g.build_unit_group(q)
    fast = cs.all_char_sums(G, ns, ws, conj=conj)
    for i, chi in enumerate(g.characters(G.q, G)):
        total = 0j
        for n, w in zip(ns, ws):
            rot = chi.rotation(n)
            if rot is not None:
                total += w * e(-rot if conj else rot)
        assert abs(fast[i] - total) <= 1e-9 * (1 + sum(map(abs, ws)))


@EXAMPLES
@given(st.sampled_from(QS), st.data())
def test_integer_angles_match_fraction_rotations(q, data):
    G = g.build_unit_group(q)
    chars = g.characters(G.q, G)
    chi = chars[data.draw(st.integers(0, len(chars) - 1))]
    k = chi.angles()
    vals = chi.values()
    L = G.angle_modulus
    for n in range(max(q, 1)):
        rot = fraction_rotation(chi, n)
        assert chi.rotation(n) == rot
        if rot is None:
            assert k[n] == -1 and vals[n] == 0 and chi(n) == 0
        else:
            assert Fraction(int(k[n]), L) == rot
            assert abs(vals[n] - e(rot)) < 1e-12 and abs(chi(n) - e(rot)) < 1e-12
    assert g.characters(G.q, G)[G.character_index(chi)] == chi
    assert G.dual_vector(G.character_index(chi)) == chi.vector


@pytest.mark.parametrize("q", QS)
def test_block_angles_match_fraction_rotations(q):
    """character_angles over rows in shuffled order (at most 12 of them) is
    the exact rotation of each row's character at every residue."""
    G = g.build_unit_group(q)
    rows = np.random.default_rng(q).permutation(G.phi)[:12]
    A = G.character_angles(rows)
    assert A.shape == (len(rows), max(q, 1)) and A.dtype == np.int64
    L = G.angle_modulus
    for r, i in enumerate(rows):
        chi = g.DirichletCharacter(G, G.dual_vector(i))
        for n in range(max(q, 1)):
            rot = fraction_rotation(chi, n)
            assert A[r, n] == -1 if rot is None else Fraction(int(A[r, n]), L) == rot


def test_real_characters_are_the_filtered_dual_in_order():
    for q in QS + tuple(range(3, 60)) + (240, 1155):
        G = g.UnitGroup(q)
        filtered = [c for c in g.characters(G.q, G) if c.is_real]
        fast = g.real_characters(q, G)
        assert [c.label() for c in fast] == [c.label() for c in filtered], q
        kernels = []
        for chi in fast:
            signs = [0 if chi.rotation(n) is None else (1 if chi.rotation(n) == 0 else -1)
                     for n in range(max(q, 1))]
            assert chi.real_sign_table().tolist() == (signs if q > 1 else [1])
            kernels.append(frozenset(int(a) for a in G.units if chi.rotation(int(a)) == 0))
            assert chi.kernel() == kernels[-1]
        assert index2_subgroups(q, G) == kernels[1:]


def test_real_signs_match_the_angle_route():
    """Every real character's signs from the parity code equal its integer
    angles (character_angles on its row of the dual), as int8 with 0 off the
    units, in real_characters() order; kernels and index-2 subgroups are the
    units of angle 0."""
    for q in tuple(range(1, 3001)) + (9240, 30030, 65536):
        G = g.UnitGroup(q)
        reals = G.real_characters()
        k = G.character_angles([G.character_index(chi) for chi in reals])
        signs = G.real_signs()
        assert signs.dtype == np.int8 and signs.shape == k.shape, q
        assert np.array_equal(signs, np.where(k < 0, 0, np.where(k == 0, 1, -1))), q
        assert np.array_equal(G.real_signs(np.arange(-q, 2 * q)), np.tile(signs, 3)), q
        assert [G.real_index(chi) for chi in reals] == list(range(len(reals)))
        if q in (720, 9240, 30030, 65536) or q % 97 == 0:
            units = G.units
            kernels = [frozenset(units[row[units] == 0].tolist()) for row in k]
            assert [chi.kernel() for chi in reals] == kernels, q
            assert index2_subgroups(q, G) == kernels[1:], q


@functools.lru_cache(maxsize=None)
def dense_values(q):
    """V[i, j] = chi_i(units[j]) by scalar evaluation (test oracle only)."""
    G = g.build_unit_group(q)
    return np.array([[chi(int(a)) for a in G.units] for chi in g.characters(G.q, G)])


@EXAMPLES
@given(st.sampled_from(QS), st.data())
def test_fourier_transforms_match_dense_sums(q, data):
    G = g.build_unit_group(q)
    f = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=G.phi, max_size=G.phi)))
    vals = dense_values(q)
    assert np.abs(fourier_forward(G, f) - vals.conj() @ f / G.phi).max() < 1e-12
    assert np.abs(g.fourier_inverse(G, f) - f @ vals).max() < 1e-9
    assert np.abs(g.transform(G, f, conj=False) - vals @ f).max() < 1e-9


def loop_conv(G, f, h):
    out = np.zeros(len(G.units), dtype=np.result_type(f, h))
    for i, a in enumerate(G.units):
        for j, b in enumerate(G.units):
            out[G.unit_pos[int(a) * int(b) % G.q]] += f[i] * h[j]
    return out


@st.composite
def unit_sets(draw, count):
    q = draw(st.sampled_from(QS))
    units = [int(a) for a in g.build_unit_group(q).units]
    return q, [draw(st.sets(st.sampled_from(units), max_size=40)) for _ in range(count)]


@EXAMPLES
@given(unit_sets(3))
def test_grid_convolutions_match_double_loops(case):
    q, (A, B, C) = case
    G = g.build_unit_group(q)
    ind = [np.array([int(a) in S for a in G.units], dtype=np.int64) for S in (A, B, C)]
    c2 = loop_conv(G, ind[0], ind[1])
    assert np.array_equal(sc.conv2(G, sorted(A), sorted(B)), c2)
    assert np.array_equal(sc.conv3(G, sorted(A), sorted(B), sorted(C)), loop_conv(G, c2, ind[2]))
    assert (sc.product_set(G, sorted(A), sorted(B)).tolist()
            == sorted({a * b % q for a in A for b in B}))
    S = A | B
    want = ([int(h) for h in G.units if {int(h) * s % q for s in S} == S]
            if S else G.units.tolist())
    assert sc.stabilizer(G, sorted(S)).tolist() == want
    rng = np.random.default_rng(len(A))
    f, h = rng.integers(-5, 6, (2, G.phi))
    assert np.array_equal(g.convolve_group(G, f, h), loop_conv(G, f, h))


@pytest.mark.parametrize("q", [101, 720])
def test_convolution_on_both_sides_of_the_support_cut(q):
    # supports from empty to the full group, either side of _FULL_SHARE phi,
    # against a factor that is nonzero everywhere, in either argument order
    G = g.build_unit_group(q)
    rng = np.random.default_rng(q)
    cut = math.ceil(g._FULL_SHARE * G.phi)
    dense = rng.integers(1, 6, G.phi) * rng.choice((-1, 1), G.phi)
    for size in (0, 1, cut - 1, cut, G.phi):
        sparse = np.zeros(G.phi, dtype=np.int64)
        sparse[rng.choice(G.phi, size, replace=False)] = rng.integers(1, 4, size)
        want = loop_conv(G, sparse, dense)
        for dtype, out_dtype in ((np.int64, np.int64), (float, float), (complex, float)):
            f, h = sparse.astype(dtype), dense.astype(dtype)
            for got in (g.convolve_group(G, f, h), g.convolve_group(G, h, f)):
                assert got.dtype == out_dtype and np.array_equal(got, want), (size, dtype)


@pytest.mark.parametrize("q", [1, 2, 3, 101, 720])
def test_convolution_dtypes_in_either_order(q):
    # integer, float and complex factors with nonzero imaginary parts, dense
    # and on three points, on one-axis grids (both routes) and several axes:
    # a kernel that conjugates a complex factor fails here
    G = g.build_unit_group(q)
    rng = np.random.default_rng(q)
    f, h = rng.integers(-5, 6, (2, G.phi))
    fi, hi = rng.integers(-5, 6, (2, G.phi))
    sparse = np.zeros(G.phi, dtype=np.int64)
    sparse[:3] = f[:3]
    for a, b in ((f, h), (sparse, h)):
        for x, y in ((a, b), (a.astype(float), b.astype(float)), (a + 1j * fi, b + 1j * hi)):
            want = loop_conv(G, x, y)
            for got in (g.convolve_group(G, x, y), g.convolve_group(G, y, x)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (x.dtype, a is f)


def test_integer_convolution_either_side_of_float_range():
    # f, h within 2^b in size on all of q = 101: support |f|_inf |h|_inf is
    # 100 2^46 < 2^53 at b = 23 (float64 correlation) and 100 2^56 at
    # b = 28 (int64 gather, no wrap below 2^63); both exact as Python ints
    G = g.build_unit_group(101)
    rng = np.random.default_rng(53)
    for b, fast in ((23, True), (28, False)):
        f, h = rng.integers(-2**b, 2**b + 1, (2, G.phi))
        f[0] = h[0] = 2**b
        assert g._float_exact(f, h, G.phi) is fast
        want = loop_conv(G, f.astype(object), h.astype(object)).tolist()
        for got in (g.convolve_group(G, f, h), g.convolve_group(G, h, f)):
            assert got.dtype == np.int64 and got.tolist() == want, b


def test_convolution_peak_memory():
    # dense 0/1 factors and a 600-point factor take the float64 correlation,
    # a 300-point factor the row gather; neither builds a table of support pairs
    G = g.build_unit_group(4001)
    rng = np.random.default_rng(4001)
    f, h = (rng.random((2, G.phi)) < 0.75).astype(np.int64)
    sparse = np.zeros(G.phi, dtype=np.int64)
    sparse[rng.choice(G.phi, 600, replace=False)] = 1
    gather = np.zeros(G.phi, dtype=np.int64)
    gather[rng.choice(G.phi, 300, replace=False)] = 1
    G.unit_grid  # cached before tracing
    for a, b, bound in ((f, h, 2 * 10**6), (sparse, h, 10 * 10**6), (gather, h, 10 * 10**6)):
        tracemalloc.start()
        try:
            g.convolve_group(G, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
