"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here and nowhere else: exact integers for counts and
thresholds, 1e-12 for constructive dense-model properties and the
decomposition identity, 1e-9 for Fourier round-trips and dual-route
agreement, sqrt(q) log q for Polya-Vinogradov, (1 + N/q) for the mean value
theorem, e^(9k - s) K^10 for sieve accuracy, 2 delta for coset averages.
"""

import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from linnik_lab import (arith, charsums as cs, densemodel as dm, group as g,
                        multfunc as mf, pipeline as pl, setcomb as sc, sieve)
from lemma_oracles import (fourier_forward, index2_subgroups, is_rough, orthogonality_exact,
                           parseval_gap, pv_burgess_check, sum_over_array)

LAM = mf.liouville_fn()
MU = mf.mobius_fn()


def _report(n, desc, detail=""):
    line = f"[ACCEPTANCE] criterion {n:02d} PASS - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_01_exact_R_values_and_batch():
    t0 = time.time()
    assert pl.R_of_h_q(LAM, 1, 10).R_value == 2
    assert pl.R_of_h_q(LAM, 3, 100).R_value == 14
    table = {}
    for q in range(3, 201):
        cap = int(q * q * 20 * math.log(q)) + 1
        res_l = pl.R_of_h_q(LAM, q, cap)
        res_m = pl.R_of_h_q(MU, q, cap)
        assert res_l.complete, f"R(lambda; {q}) not found below q^2 * 20 log q"
        assert res_l.R_value <= q * q * 20 * math.log(q)
        assert pl.verify_witnesses(res_l, LAM), q
        assert pl.verify_witnesses(res_m, MU), q
        assert res_l.R_value == res_m.R_value, q  # mu and lambda agree on squarefrees
        table[q] = res_l.R_value
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 exceeded 5 minutes ({elapsed:.1f}s)"
    _report(1, "exact R-values and 3<=q<=200 batch with verified witnesses",
            f"max R = {max(table.values())} at q = {max(table, key=table.get)}, "
            f"{elapsed:.1f}s")


def test_criterion_02_real_character_obstruction():
    checked = 0
    for q in range(3, 201):
        for chi in g.real_characters(q):
            if chi.is_principal:
                continue
            h = mf.character_fn(chi)
            res = pl.R_of_h_q(h, q, q**3)
            assert res.R_value is None, (q, chi.label())
            aud = pl.theorem_audit(h, q, 10.0, 1.0)
            assert aud["verdict"] == "branch2", (q, chi.label())
            assert aud["min_pretend_sum"] == 0.0, (q, chi.label())
            checked += 1
    _report(2, "R(chi; q) = NONE at cap q^3 and branch-2 audits",
            f"{checked} non-principal real characters, q <= 200")


def test_criterion_03_group_fourier_suite():
    for q in range(1, 201):
        assert orthogonality_exact(g.build_unit_group(q)), q
    rng = np.random.default_rng(2024)
    worst_rt, worst_pv = 0.0, 0.0
    for q in (24, 35, 101):
        G = g.build_unit_group(q)
        for _ in range(100):
            f = rng.normal(size=len(G.units)) + 1j * rng.normal(size=len(G.units))
            coeffs = fourier_forward(G, f)
            back = g.fourier_inverse(G, coeffs)
            worst_rt = max(worst_rt, float(np.abs(back - f).max()))
            worst_pv = max(worst_pv, parseval_gap(G, f))
    assert worst_rt <= 1e-9 and worst_pv <= 1e-9
    _report(3, "exact orthogonality q <= 200; Fourier round-trip and Parseval",
            f"max round-trip {worst_rt:.2e}, max Parseval gap {worst_pv:.2e}")


def test_criterion_04_kneser_suite():
    for q in (3, 4, 5, 8, 12):
        G = g.build_unit_group(q)
        units = [int(a) for a in G.units]
        subsets = [s for r in range(1, len(units) + 1)
                   for s in itertools.combinations(units, r)]
        for A in subsets:
            for B in subsets:
                sc.kneser_check(G, A, B)
    rng = random.Random(1789)
    for _ in range(10**4):
        q = rng.randint(3, 60)
        G = g.build_unit_group(q)
        units = [int(a) for a in G.units]
        A = rng.sample(units, rng.randint(1, len(units)))
        B = rng.sample(units, rng.randint(1, len(units)))
        sc.kneser_check(G, A, B)

    G = g.build_unit_group(101)
    units = [int(a) for a in G.units]
    H = index2_subgroups(101)[0]
    outside = [u for u in units if u not in H]
    eps = 0.08
    floor = int((0.4 + eps) * G.phi) + 1
    nprng = np.random.default_rng(9)
    branches = {}
    for trial in range(100):
        sets = []
        for _ in range(3):
            if trial % 3 == 2:  # coset-concentrated supersets
                extra = nprng.integers(0, 5)
                S = np.array(sorted(H | set(nprng.choice(outside, size=extra,
                                                         replace=False).tolist())))
            else:
                size = int(nprng.integers(floor, G.phi + 1))
                S = nprng.choice(units, size=size, replace=False)
            sets.append(S)
        out = sc.triple_conv_classify(G, *sets, eps=eps)
        assert out.verified, f"trial {trial}: no certified branch"
        branches[out.branch] = branches.get(out.branch, 0) + 1
    assert branches.get(sc.UNDETERMINED, 0) == 0
    _report(4, "Kneser exhaustive + 1e4 random pairs; 100 certified triples",
            f"branches {branches}")


def test_criterion_05_sieve_suite():
    for z, D in ((30, 10**3), (100, 10**5)):
        plus, minus = sieve.build_beta_sieve(z, D)
        N = 10**5
        su = sum_over_array(plus, N)
        sl = sum_over_array(minus, N)
        rough = np.ones(N + 1, dtype=np.int64)
        rough[0] = 0
        for p in arith.primes_upto(z - 1):
            rough[int(p):: int(p)] = 0
        assert np.all(sl[1:] <= rough[1:]) and np.all(rough[1:] <= su[1:]), (z, D)
    pair = sieve.build_beta_sieve(10, 10**12)
    for gname, gfun, K in (("zero", lambda ps: np.zeros(len(ps)), 1.0),
                           ("1/p", lambda ps: 1.0 / ps, 2.0),
                           ("1/p off 6", lambda ps: np.where(6 % ps == 0, 0.0, 1.0 / ps), 2.0)):
        rep = sieve.sieve_accuracy(pair, gfun, 10, K=K)
        assert math.isfinite(rep["upper"]) and math.isfinite(rep["lower"])
    _report(5, "sandwich for all n <= 1e5 at (30,1e3),(100,1e5); accuracy factor",
            "3 densities asserted with e^(9k-s) K^10")


def test_criterion_06_dense_model():
    failures = 0
    rows = []
    for q in (101, 499):
        delta = math.log(q) ** (-1 / 4)
        for R in (math.sqrt(q), float(q)):  # default easy R and a full-width run
            params = pl.ParamSet.from_q(q, 0.04, easy_mode=True, R=R, delta=delta)
            ctx = pl.build_context(LAM, q, params)
            for d in (1, -1):
                model = ctx.models[(0, d)]
                rep = dm.verify_model(model, tol=1e-12)
                assert rep["asserted"]["ii"] and rep["asserted"]["iii"]
                assert rep["asserted"]["iv"] and rep["asserted"]["mean_gap"] <= 1e-12
                for row in rep["coset_averages"]:
                    if row["gap"] > 2 * delta:
                        failures += 1
                rows.append((q, R, d, rep["max_coset_gap"]))
    assert failures == 0
    _report(6, "dense-model (ii),(iii),(iv) to 1e-12; coset slack <= 2 delta",
            f"worst coset gap {max(r[3] for r in rows):.3e}, 0 failures")


def _ramare_grid():
    """(config, decomposition) over criterion 07's grid: q = 35 and 101, one-
    and two-interval ladders, every j, three cosets, both signs, v = -1, 0, 1."""
    for q in (35, 101):
        G = g.build_unit_group(q)
        lad1 = cs.ladder_build(10.0, q, overrides=[(10.0, 100.0)])
        lad2 = cs.ladder_build(10.0, q, overrides=[(10.0, 100.0), (150.0, 1500.0)])
        psi = [c for c in g.real_characters(q) if not c.is_principal][0]
        b_off = next(int(a) for a in G.units if psi.real_sign_table()[int(a)] == -1)
        cosets = [None, g.CosetSpec(psi, 1), g.CosetSpec(psi, b_off)]
        for v in (-1, 0, 1):
            for lad, M, js in ((lad1, 600.0, (2,)), (lad2, 20000.0, (2, 3))):
                for j in js:
                    for B in cosets:
                        for delta in (1, -1):
                            yield ((q, v, j, delta),
                                   cs.ramare_decompose(G, LAM, B, delta, v, j, lad, M))


def test_criterion_07_ramare_identity():
    worst = 0.0
    configs = []
    for config, out in _ramare_grid():
        assert out["defect"] <= 1e-12, (config, out["defect"])
        assert out["max_coefficient"] <= 1.0 + 1e-12
        worst = max(worst, out["defect"])
        configs.append(config)
    _report(7, "decomposition identity to 1e-12 for every character",
            f"{len(configs)} configurations, worst defect {worst:.2e}")


# sha256 of the M, Mtilde, E1 and E2 bytes over criterion 07's grid, per q
# and v, recorded when the decomposition looped over the primes in Python
RAMARE_ARRAY_DIGESTS = {
    (35, -1): "8938aa0683b7c92c31a8c9262b8eb41d9bf1c37583ef3ede8a5acb32376f33fb",
    (35, 0): "048aab4c7843ba142b08ebc7d243ca4a3ad252c864832c7269c7fa33586d5f06",
    (35, 1): "cb6e38094340817533d4e8eb1f43d14c798a2d07eca2db327fae4b65e316b7b6",
    (101, -1): "cd17e699db77a921bc04681466209d7d295b879fde344fce167972f8abe2fdb0",
    (101, 0): "d45c6658c3e803716aa6900859ad18de49af803d480f6ead244d0877d81a721a",
    (101, 1): "0de9c851958078d1e6f51c4f866e8dbdafb0175b0a798447cca1c6fa871a4cf6",
}


def test_ramare_arrays_are_unchanged():
    digests = {}
    for (q, v, _, _), out in _ramare_grid():
        h = digests.setdefault((q, v), hashlib.sha256())
        for name in ("M", "Mtilde", "E1", "E2"):
            h.update(out[name].tobytes())
    assert {k: h.hexdigest() for k, h in digests.items()} == RAMARE_ARRAY_DIGESTS


def test_criterion_08_explicit_constant_checks():
    rng = np.random.default_rng(4823)
    qs = list(range(7, 500))
    for _ in range(1000):
        q = int(rng.choice(qs))
        N = int(rng.integers(10, 600))
        rep = cs.mvt_check(np.arange(1, N + 1), rng.choice((-1.0, 1.0), size=N), N, q)
        assert rep.ok
    worst = {}
    for q in (101, 203):
        bound = math.sqrt(q) * math.log(q)
        sups = cs.pv_max_windows(g.build_unit_group(q))
        assert sups.max() <= bound, (q, g.characters(q)[1 + int(sups.argmax())].label())
        worst[q] = float(sups.max())
    _report(8, "mean-value inequality (1000 vectors) and PV sqrt(q) log q",
            f"worst window sums {worst[101]:.2f}@101, {worst[203]:.2f}@203")


def _toy_easy(q):
    spec = dict(q=q, R=20.0 if q == 35 else 30.0, Q1=16.0, z=3.0)
    params = pl.ParamSet.from_q(q, 0.1, easy_mode=True, R=spec["R"],
                                Q1=spec["Q1"], z=spec["z"])
    return pl.build_context(LAM, q, params)


def _toy_general(q):
    # m needs two primes >= 17, one of them in the ladder interval (16, 60],
    # so M = 2000 makes the m sets non-empty and the S/T comparisons non-vacuous
    params = pl.ParamSet.from_q(q, 0.1, easy_mode=False, R=14.0, U=22.0, M=2000.0,
                                Q1=16.0, z=3.0, K=1, ladder_overrides=[(16.0, 60.0)])
    return pl.build_context(LAM, q, params, ks=(-1, 0, 1))


def test_criterion_09_dual_route_S():
    checked = 0
    for ctx in (_toy_easy(35), _toy_easy(101)):
        for a in (1, 2):
            for deltas in ((-1, -1, -1), (-1, -1, 1)):
                direct, _ = pl.s_function_easy(ctx, a, None, None, deltas)
                chars = pl.s_function_easy_chars(ctx, a, None, None, deltas)
                assert abs(direct - chars) <= max(1e-9 * abs(direct), 1e-12)
                checked += 1
    ctx = _toy_general(35)
    kset = [(0, 0, 0), (1, 0, -1), (-1, 1, 0)]
    for a in (1, 2):
        for deltas in ((-1, -1, -1, -1, 1, 1), (-1, -1, 1, -1, 1, 1)):
            direct, extras = pl.s_function_general(ctx, a, None, None, None, deltas, kset)
            chars = pl.s_function_general_chars(ctx, a, None, None, None, deltas, kset)
            assert extras["tuples"] > 0 and direct > 0
            assert abs(direct - chars) <= max(1e-9 * abs(direct), 1e-12)
            checked += 1
    _report(9, "direct-enumeration S equals character-expansion S to 1e-9",
            f"{checked} (a, signs) instances across 3 toy configurations")


def test_criterion_10_implied_constant_reports(tmp_path_factory):
    t0 = time.time()
    rng = np.random.default_rng(77)
    reports = {}

    halmon = []
    for q in (101, 203, 1009):
        eps = 0.25
        z = q**eps
        ns = np.array([n for n in range(1, 3000) if is_rough(n, z)])
        coeffs = rng.choice((-1.0, 1.0), size=len(ns))
        G = g.build_unit_group(q)
        pick = rng.choice(G.phi, size=12, replace=False)
        rep = cs.halasz_montgomery_report(ns, coeffs, G, pick, 3000, eps)
        halmon.append({"q": q, "lhs": rep.lhs, "rhs_shape": rep.rhs_shape,
                       "ratio": rep.ratio})
    reports["halasz_montgomery"] = halmon

    burgess = []
    for q in (101, 203):
        chi = [c for c in g.characters(q) if not c.is_principal][3]
        for M, N in ((0, q // 2), (q // 3, q // 2), (0, q)):
            rep = pv_burgess_check(chi, M, N)
            burgess.append({"q": q, "M": M, "N": N, "window_sum": rep.lhs,
                            "burgess_r2": rep.extra["burgess_r2"],
                            "burgess_r3": rep.extra["burgess_r3"]})
    reports["burgess_shapes"] = burgess

    census = []
    for alpha in (0.0, 0.25, 0.5):
        count, rep = cs.large_values_census(None, 500.0, 101, alpha)
        census.append({"alpha": alpha, "count": count, "shape": rep.rhs_shape})
    reports["large_values"] = census

    amp = []
    for label, cp, an in (("ones", None, None),
                          ("random", lambda ps: rng.choice((-1.0, 1.0), size=len(ps)),
                           lambda ns: rng.choice((-1.0, 1.0), size=len(ns))),
                          ("single-prime", lambda ps: np.where(ps == 11, 1.0, 0.0), None)):
        rep = cs.amplify_report(101, 10.0, 100.0, 2000.0, c_p=cp, a_n=an)
        amp.append({"coefficients": label, "lhs": rep.lhs, "rhs_shape": rep.rhs_shape,
                    "ratio": rep.ratio})
    reports["amplification"] = amp

    rough_ratios = []
    for q, cap, z in ((101, 101.0, 2.5), (203, 203.0, 2.5), (101, 50.0, 3.0)):
        psi = [c for c in g.real_characters(q) if not c.is_principal][0]
        for b in (1, 2):
            if not g.build_unit_group(q).is_unit(b):
                continue
            count, rep = sieve.rough_count_in_coset(cap, g.CosetSpec(psi, b), z)
            rough_ratios.append({"q": q, "cap": cap, "z": z, "b": b, **rep})
    reports["rough_coset_share"] = rough_ratios

    st = []
    for ctx in (_toy_easy(35), _toy_easy(101)):
        rep = pl.st_compare_easy(ctx, 1, None, None, (-1, -1, -1))
        st.append({"q": ctx.q, "variant": "easy", "lhs": rep.lhs,
                   "rhs_shape": rep.rhs_shape, "ratio": rep.ratio})
    ctx = _toy_general(35)
    rep = pl.st_compare_general(ctx, 1, None, None, None,
                                (-1, -1, -1, -1, 1, 1), [(0, 0, 0)])
    st.append({"q": 35, "variant": "general", "lhs": rep.lhs,
               "rhs_shape": rep.rhs_shape, "ratio": rep.ratio})
    reports["sparse_dense_comparison"] = st

    sq, sh = cs.square_and_shorts_moments(101, 10000, 10.0, 40.0, 50.0, 8.0, 2, 0.3)
    reports["ramare_error_moments"] = {
        "squares": {"lhs": sq.lhs, "rhs_shape": sq.rhs_shape, "ratio": sq.ratio},
        "shorts": {"lhs": sh.lhs, "rhs_shape": sh.rhs_shape, "ratio": sh.ratio}}

    def all_finite(obj):
        if isinstance(obj, dict):
            return all(all_finite(v) for v in obj.values())
        if isinstance(obj, list):
            return all(all_finite(v) for v in obj)
        if isinstance(obj, float):
            return math.isfinite(obj)
        return True

    assert all_finite(reports)
    out_dir = Path("reports")
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / "implied_constant_reports.json"
    out_path.write_text(json.dumps(reports, indent=2, sort_keys=True))
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 10 exceeded 10 minutes ({elapsed:.1f}s)"
    _report(10, "implied-constant reports generated, finite, archived",
            f"{out_path}, {elapsed:.1f}s")
