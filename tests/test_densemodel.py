
import math

import numpy as np
import pytest

from linnik_lab import arith, densemodel as dm, group as g, multfunc as mf, pipeline as pl
from linnik_lab.errors import DomainError


def toy_model(q=101, eps=0.04, delta=None, R=None):
    params = pl.ParamSet.from_q(q, eps, easy_mode=True,
                                **({"delta": delta} if delta else {}),
                                **({"R": R} if R else {}))
    ctx = pl.build_context(mf.liouville_fn(), q, params)
    return ctx, params


def loop_f_hat(G, interval, fvals):
    """The per-integer reference for the coefficients of f on [I]_q:
    F(chi) = E_{n in [I]_q} f(n) conj(chi(n)), one fvals call and one class
    update per n of [I]_q, in increasing n."""
    members = [n for n in interval.members() if math.gcd(n, G.q) == 1]
    w = np.zeros(G.phi)
    for n in members:
        v = fvals(n)
        if v:
            w[G.unit_pos[n % G.q]] += v
    return g.transform(G, w) / len(members)


def _quadratic_fn(q):
    return mf.character_fn([c for c in g.real_characters(q) if not c.is_principal][0])


@pytest.mark.parametrize("h, q, R, ks", [
    (mf.liouville_fn(), 101, None, None),
    (mf.liouville_fn(), 101, 101.0, None),
    (mf.liouville_fn(), 1009, 20000.0, None),
    (mf.liouville_fn(), 720, 3000.0, (-1, 0, 1)),
    # h = 1 has no sign -1 point: the minus support is empty
    (mf.one_fn(), 211, 500.0, None),
    # the quadratic character mod 5 on a modulus that 5 divides
    (_quadratic_fn(5), 35, 400.0, (0, 1)),
])
def test_models_match_the_per_integer_transform(h, q, R, ks):
    """build_context takes each f_hat from one class collapse of the
    support; it equals the per-integer loop's exactly, and so do the
    models built from either."""
    params = pl.ParamSet.from_q(q, 0.04, easy_mode=True, **({"R": R} if R else {}))
    ctx = pl.build_context(h, q, params, ks)
    assert ctx.models
    for (k, delta), model in ctx.models.items():
        supp = set(ctx.supports[(k, delta)])
        want = loop_f_hat(ctx.G, params.interval(k),
                          lambda n: ctx.norm if n in supp else 0.0)
        assert np.array_equal(model.f_hat, want), (k, delta)
        ref = dm.build_dense_model(ctx.G, want, params.delta)
        assert model.spectrum == ref.spectrum
        assert np.array_equal(model.g, ref.g)
        if not supp:
            assert not model.f_hat.any() and model.spectrum == (0,)
    if h.kind == "one":
        assert not ctx.supports[(0, -1)]


def test_zero_function_gives_zero_model():
    G = g.build_unit_group(35)
    iv = arith.IntegerInterval(10, 30)
    model = dm.build_dense_model(G, loop_f_hat(G, iv, lambda n: 0.0), 0.3)
    assert np.all(model.g == 0)
    assert model.spectrum == (0,)


def test_large_delta_collapses_to_constant():
    G = g.build_unit_group(35)
    iv = arith.IntegerInterval(10, 60)
    f = lambda n: 1.0 if n % 3 == 0 else 0.0
    big = dm.build_dense_model(G, loop_f_hat(G, iv, f), delta=10.0)
    assert big.spectrum == (0,)
    mean = big.f_hat[0].real
    assert np.allclose(big.g, mean)


def test_constructive_properties_and_monotone_spectrum():
    ctx, params = toy_model(101, 0.04, R=101.0)
    for delta_key in ((0, 1), (0, -1)):
        model = ctx.models[delta_key]
        rep = dm.verify_model(model)
        assert rep["asserted"]["ii"] and rep["asserted"]["iii"] and rep["asserted"]["iv"]
        assert rep["asserted"]["mean_gap"] <= 1e-12
    # enlarging delta shrinks the spectrum
    G = ctx.G
    iv = params.interval(0)
    supp = set(ctx.supports[(0, -1)])
    f = lambda n: ctx.norm if n in supp else 0.0
    spectra = []
    f_hat = loop_f_hat(G, iv, f)
    for delta in (0.01, 0.05, 0.2, 0.8):
        spectra.append(set(dm.build_dense_model(G, f_hat, delta).spectrum))
    for small, large in zip(spectra, spectra[1:]):
        assert large <= small


def test_ghat_matches_fhat_on_spectrum():
    ctx, _ = toy_model(101, 0.04, R=101.0, delta=0.05)
    model = ctx.models[(0, 1)]
    on = np.zeros(len(model.f_hat), dtype=bool)
    on[list(model.spectrum)] = True
    assert np.abs(model.g_hat[on] - model.f_hat[on]).max() <= 1e-12
    assert np.abs(model.g_hat[~on]).max() == 0.0
    # spectrum census: |Lambda| <= 1 + |{chi : |F| >= delta}|
    census = int(np.sum(np.abs(model.f_hat) >= model.delta))
    assert len(model.spectrum) <= 1 + census


def test_coset_property_v_full_group_is_iv():
    ctx, params = toy_model(101, 0.04)
    model = ctx.models[(0, 1)]
    # with H the full group both coset averages equal the means: gap 0
    assert abs(model.mean_g() - model.f_hat[0].real) <= 1e-12


def test_level_sets_and_aprop():
    ctx, params = toy_model(101, 0.04, R=101.0)
    sets = dm.level_sets(ctx.models[(0, 1)], ctx.models[(0, -1)], 0.2)
    G = ctx.G
    # constant models: all or nothing
    for A in (sets.plus, sets.minus):
        assert A == frozenset() or A == frozenset(int(a) for a in G.units)
    ap = dm.aprop_check(sets, G, set(ctx.supports[(0, 1)]), set(ctx.supports[(0, -1)]))
    assert {"total_mass_ok", "coset_rows", "coset_failures"} <= set(ap)
    bad = dm.level_sets(ctx.models[(0, 1)], ctx.models[(0, -1)], 10.0)
    assert bad.plus == frozenset() and bad.minus == frozenset()


def test_model_json_roundtrip():
    ctx, _ = toy_model(101, 0.04, R=101.0)
    model = ctx.models[(0, -1)]
    data = dm.model_to_json(model)
    back = dm.model_from_json(data)
    assert np.abs(back.g - model.g).max() <= 1e-12
    assert back.spectrum == tuple(sorted(model.spectrum))


def test_empty_interval_raises():
    # (R/e, R] holds no integer, or only 3, 4, 5, 6, none a unit mod 30
    for q, R in ((35, 0.9), (30, 6.5)):
        params = pl.ParamSet.from_q(q, 0.04, easy_mode=True, R=R)
        assert arith.count_units_in_interval(params.interval(0), q)[0] == 0
        with pytest.raises(DomainError, match=r"\[I\]_q is empty"):
            pl.build_context(mf.liouville_fn(), q, params)
