"""The benchmark's three workloads: their operations, and the checks of each
operation's output against the independent computations in oracles.py.

A workload turns a seed into a list of operations.  The seed reaches the
program only where it leaves the amount of work unchanged: the random
coefficients and characters of charsum halmon, and the class a of the S
counts.  Each operation is one fresh process running one linnik-lab command
or one library call (op.py).  Its `group` names the per-operation latency it
counts toward; the two operations that fail today belong to no group.

A workload's `prepare` step computes everything the checks need before any
timing starts; a check raises AssertionError when an output is wrong.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc


@dataclass
class Op:
    name: str
    group: str            # per-operation latency metric, "" for none
    kind: str             # "cli" or a library call known to op.py
    args: list[str]
    check: Callable[[bytes], None]


def cli_op(name: str, group: str, args: list[str], check) -> Op:
    return Op(name, group, "cli", args, check)


def call_op(name: str, group: str, kind: str, spec: dict, check) -> Op:
    return Op(name, group, kind, [json.dumps(spec, sort_keys=True)], check)


def result_of(out: bytes) -> dict:
    return json.loads(out)["result"]


def close(a: float, b: float, rel: float = 1e-12, abs_: float = 1e-15) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


class Workload:
    name = ""

    def prepare(self, seed: int, library_call) -> None:
        """Compute the reference values the checks compare against."""

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# thresholds


QMIN, QMAX = 3, 400
FAIL_QMAX = 50


def rfunc_cap(q: int) -> int:
    return int(q * q * 20 * max(math.log(q), 1.0)) + 1


class Thresholds(Workload):
    """R(h; q) tables over many small moduli: window sieves, scalar
    factorization in witness verification, sign windows and pretend sums."""

    name = "thresholds"

    def prepare(self, seed, library_call):
        sv = orc.Sieve(200_000)
        lam = orc.sign_table(sv, "liouville")
        mu = orc.sign_table(sv, "mobius")
        chi7 = orc.sign_table(sv, "character:7:1")
        self.rfunc_rows = [{"q": q, "R": orc.witnesses(sv, lam, q, rfunc_cap(q))[0],
                            "cap": rfunc_cap(q), "verified": True}
                           for q in range(QMIN, QMAX + 1)]
        self.audit_rows = []
        for q in range(QMIN, QMAX + 1):
            cap = int(q * q * 10.0)
            R = orc.witnesses(sv, mu, q, cap)[0]
            best = orc.pretend_min(q, -1, math.sqrt(q))   # mu(p) = -1
            branch2 = best <= 1.0 / 10.0 ** (1 / 100)
            verdict = {(True, True): "both", (True, False): "branch1",
                       (False, True): "branch2", (False, False): "neither"}[(R is not None, branch2)]
            self.audit_rows.append({"q": q, "verdict": verdict, "R": R, "min_pretend_sum": best})
        self.chi7_rows = [{"q": q, "R": orc.witnesses(sv, chi7, q, rfunc_cap(q))[0],
                           "cap": rfunc_cap(q), "verified": True}
                          for q in range(QMIN, FAIL_QMAX + 1)]
        self.chi7_q8 = orc.witnesses(sv, chi7, 8, 1000)

    def check_rfunc_table(self, out):
        assert result_of(out)["table"] == self.rfunc_rows, "R(liouville; q) table differs"

    def check_audit_table(self, out):
        rows = result_of(out)["table"]
        assert [r["q"] for r in rows] == list(range(QMIN, QMAX + 1))
        for got, want in zip(rows, self.audit_rows):
            assert got["R"] == want["R"] and got["verdict"] == want["verdict"], (got, want)
            assert close(got["min_pretend_sum"], want["min_pretend_sum"]), (got, want)

    def check_chi7_rfunc(self, out):
        res = result_of(out)
        R, table = self.chi7_q8
        assert res["R"] == R and res["complete"] == (R is not None)
        assert res["witnesses"] == {str(a): d for a, d in table.items()}
        assert res["witnesses_verified"] is True

    def check_chi7_batch(self, out):
        assert result_of(out)["table"] == self.chi7_rows, "R(chi_7; q) table differs"

    def ops(self, seed):
        qs = ["--qmin", str(QMIN), "--qmax", str(QMAX)]
        return [
            cli_op("batch rfunc liouville", "rfunc_table_s",
                   ["batch", "--what", "rfunc", "--h", "liouville"] + qs,
                   self.check_rfunc_table),
            cli_op("batch rfunc liouville --threads 2", "rfunc_table_parallel_s",
                   ["batch", "--what", "rfunc", "--h", "liouville", "--threads", "2"] + qs,
                   self.check_rfunc_table),
            cli_op("batch audit mobius", "audit_table_s",
                   ["batch", "--what", "audit", "--h", "mobius"] + qs,
                   self.check_audit_table),
            # fail today: sgn(0) in verify_witnesses, and the pool worker
            # accepting only built-in names
            cli_op("rfunc character:7:1 q=8", "",
                   ["rfunc", "--h", "character:7:1", "--q", "8", "--cap", "1000"],
                   self.check_chi7_rfunc),
            cli_op("batch rfunc character:7:1 --threads 2", "",
                   ["batch", "--what", "rfunc", "--h", "character:7:1", "--threads", "2",
                    "--qmin", str(QMIN), "--qmax", str(FAIL_QMAX)],
                   self.check_chi7_batch),
        ]


# ---------------------------------------------------------------------------
# spectral


DENSE_Q, CHARSUM_Q, PV_Q, TRIPLE_Q, KNESER_Q = 4001, 4001, 307, 1009, 211
PRODUCT_SET_SEED = 1


class Spectral(Workload):
    """Fourier analysis on (Z/q)^x: the dense character matrix, per-n exact
    character values, convolutions and product sets."""

    name = "spectral"

    def prepare(self, seed, library_call):
        q = DENSE_Q
        sv = orc.Sieve(20_000)
        dlog = orc.dlog_table(q)
        phi = q - 1
        # densemodel: easy-mode parameters at epsilon 0.04, level_eps 0.2
        eps = 0.04
        R = math.sqrt(q)
        z = q ** math.sqrt(eps)
        delta = math.log(q) ** (-1 / 4)
        norm = orc.mertens_inverse(z, q)
        ns = orc.integers_in(*orc.e_adic(R, 0))
        count = int(np.sum(orc.units_mask(ns, q)))
        units = np.arange(1, q, dtype=np.int64)
        angle = 2j * np.pi * dlog[units] / phi
        self.dense = {}
        for tag, sign in (("plus", 1), ("minus", -1)):
            supp = orc.signed_select(sv, ns, q, sign, min_prime=z)
            f_hat = orc.dual_sums(q, dlog, supp) * (norm / count)
            keep = np.abs(f_hat) >= delta
            keep[0] = True
            ts = np.nonzero(keep)[0]
            g = (f_hat[ts][None, :] * np.exp(angle[:, None] * ts[None, :])).sum(axis=1).real
            self.dense[tag] = (int(keep.sum()), dict(zip(units.tolist(), g.tolist())))
        # halmon: N = 500 coefficients on the q^0.2-rough integers from 2 up
        z_h = CHARSUM_Q ** 0.2
        rough = [n for n in range(2, sv.N + 1) if sv.spf[n] >= z_h][:500]
        self.halmon_N = rough[-1]
        # large values: prime sums over (500/e, 500]
        ps = sv.primes_in(500 / math.e, 500)
        sums = np.abs(orc.dual_sums(CHARSUM_Q, orc.dlog_table(CHARSUM_Q), ps))
        thr = 500 ** 0.75
        if np.any(np.abs(sums - thr) < 1e-9):
            raise ValueError("a prime sum sits on the large-values threshold")
        self.large = (int(np.sum(sums >= thr)), len(ps))
        self.pv = orc.pv_max_window(PV_Q)

    def check_densemodel(self, out):
        res = result_of(out)
        for tag in ("plus", "minus"):
            size, g_ref = self.dense[tag]
            verify = res["models"][tag]["verify"]
            assert all(verify["asserted"][k] for k in ("ii", "iii", "iv"))
            assert verify["spectrum_size"] == size, (tag, verify["spectrum_size"], size)
            g = {int(a): v for a, v in res["models"][tag]["model"]["g"].items()}
            assert g.keys() == g_ref.keys()
            assert max(abs(g[a] - g_ref[a]) for a in g) <= 1e-9, tag
        thr = 0.2 ** 2   # level_eps squared
        for tag, key in (("plus", "A_plus"), ("minus", "A_minus")):
            g_ref = self.dense[tag][1]
            got = set(res["level_sets"][key])
            clear = {a for a, v in g_ref.items() if abs(v - thr) > 1e-9}
            assert got & clear == {a for a in clear if g_ref[a] >= thr}, key

    def check_halmon(self, out):
        res = result_of(out)
        q, eps, N, l2 = CHARSUM_Q, 0.2, self.halmon_N, 500.0
        size = res["extra"]["set_size"]
        rhs = (N / math.log(q) + N ** (2 / 3) * q ** (1 / 9 + 2 * eps) * size) * l2
        assert size == 10 and close(res["rhs_shape"], rhs, 1e-12)
        # the mean value theorem bounds the sum over all phi characters
        assert 0 < res["lhs"] <= (q - 1) * (1 + N / q) * l2
        assert close(res["ratio"], res["lhs"] / res["rhs_shape"], 1e-12)

    def check_large(self, out):
        res = result_of(out)
        count, n_primes = self.large
        assert res["lhs"] == count and res["extra"]["n_primes"] == n_primes, (res, self.large)
        assert close(res["extra"]["threshold"], 500 ** 0.75)
        assert close(res["rhs_shape"], 500 ** 0.5 * CHARSUM_Q ** 1.5)

    def check_pv(self, out):
        res = result_of(out)
        assert abs(res["max_over_characters_windows"] - self.pv) <= 1e-9, (res, self.pv)
        assert close(res["bound"], math.sqrt(PV_Q) * math.log(PV_Q))

    def check_triple(self, out):
        res = result_of(out)
        allowed = {"ExpandsEverywhere", "CosetConcentrated", "Both"}
        assert res["trials"] == 20 and sum(res["outcomes"].values()) == 20
        assert set(res["outcomes"]) <= allowed, res["outcomes"]

    def check_kneser(self, out):
        res = result_of(out)
        phi = KNESER_Q - 1
        assert res["trials"] == 100 and res["all_pass"] is True and res["sample"]
        for row in res["sample"]:
            H, AB = row["|H|"], row["|AB|"]
            assert phi % H == 0 and AB % H == 0 and AB <= phi, row
            assert AB >= row["|AH|+|BH|-|H|"] >= row["|A|+|B|-|H|"], row

    def ops(self, seed):
        return [
            cli_op("densemodel q=4001", "densemodel_s",
                   ["densemodel", "--q", str(DENSE_Q)], self.check_densemodel),
            cli_op("charsum halmon q=4001", "char_sum_s",
                   ["charsum", "halmon", "--q", str(CHARSUM_Q), "--seed", str(seed)],
                   self.check_halmon),
            cli_op("charsum large q=4001", "char_sum_s",
                   ["charsum", "large", "--q", str(CHARSUM_Q)], self.check_large),
            cli_op("charsum pv q=307", "pv_s",
                   ["charsum", "pv", "--q", str(PV_Q)], self.check_pv),
            # random set sizes drawn from the program's seed change the work
            # of these two by several percent, so their seed stays fixed
            cli_op("triple q=1009", "product_set_s",
                   ["triple", "--q", str(TRIPLE_Q), "--seed", str(PRODUCT_SET_SEED)],
                   self.check_triple),
            cli_op("kneser q=211", "product_set_s",
                   ["kneser", "--q", str(KNESER_Q), "--seed", str(PRODUCT_SET_SEED)],
                   self.check_kneser),
        ]


# ---------------------------------------------------------------------------
# ladder


RAMARE = {"q": 1009, "Q1": 10.0, "M": 60000.0, "j": 3,
          "ladder": [(10.0, 100.0), (150.0, 1500.0)]}
S_EASY = {"q": 101, "epsilon": 0.1, "R": 200.0, "Q1": 16.0, "z": 3.0}
S_EASY_SIGNS = ((-1, -1, -1), (-1, -1, 1))
# a ladder configuration whose m set is non-empty: m needs two primes >= 17,
# one of them in (16, 60], so M is well above 17^2 and the sign of m is +1
S_GENERAL = {"q": 101, "epsilon": 0.1, "R": 30.0, "U": 80.0, "M": 5000.0,
             "Q1": 16.0, "z": 3.0, "K": 1, "ladder": [[16.0, 60.0]],
             "kset": [[0, 0, 0], [1, 0, -1], [-1, 1, 0]],
             "deltas": [-1, -1, -1, -1, -1, 1]}
SIEVE = {"z": 200.0, "D": 1e8, "limit": 2_000_000}


def s_easy_reference(sv: orc.Sieve, spec: dict) -> tuple[int, int, float]:
    """(tuples, count, S) for s_function_easy, by class-histogram convolution."""
    q, R, Q1, z, a = spec["q"], spec["R"], spec["Q1"], spec["z"], spec["a"]
    d1, d2, d3 = spec["deltas"]
    interval = orc.integers_in(*orc.e_adic(R, 0))
    r = orc.signed_select(sv, interval, q, d1, min_prime=z)
    p = orc.signed_select(sv, sv.primes_in(Q1 / math.e, Q1), q, d2)
    u = orc.signed_select(sv, orc.integers_in(0, R), q, d3, squarefree=True)
    count = orc.count_products([r, r, r, p, u], q, a)
    norm = orc.mertens_inverse(z, q)
    units = int(np.sum(orc.units_mask(interval, q)))
    return len(r) ** 3 * len(p) * len(u), count, norm ** 3 * count / (units ** 3 * Q1 * R)


def s_general_reference(sv: orc.Sieve, spec: dict) -> tuple[int, float]:
    """(tuples, S) for s_function_general, by class-histogram convolution."""
    q, R, U, M, Q1, z, a = (spec[k] for k in ("q", "R", "U", "M", "Q1", "z", "a"))
    d1, d2, d3, d4, d5, d6 = spec["deltas"]
    norm = orc.mertens_inverse(z, q)
    p = orc.signed_select(sv, sv.primes_in(Q1 / math.e, Q1), q, d4)

    def r_list(k, d):
        return orc.signed_select(sv, orc.integers_in(*orc.e_adic(R, k)), q, d, min_prime=z)

    def length(y, k):
        lo, hi = orc.e_adic(y, k)
        return hi - lo

    tuples, value = 0, 0.0
    for k1, k2, k3 in spec["kset"]:
        lists = [r_list(k1, d1), r_list(k2, d2), r_list(k3, d3), p,
                 orc.signed_select(sv, orc.integers_in(*orc.e_adic(U, -k1)), q, d5,
                                   squarefree=True),
                 orc.signed_select(sv, orc.integers_in(*orc.e_adic(M, -k2 - k3)), q, d6,
                                   squarefree=True, min_prime=Q1, ladder=spec["ladder"])]
        n = math.prod(len(x) for x in lists)
        tuples += n
        if n == 0:
            continue
        s_norm = (length(R, k1) * length(R, k2) * length(R, k3) * Q1
                  * U * math.exp(-k1) * M * math.exp(-k2 - k3))
        value += norm ** 3 * orc.count_products(lists, q, a) / s_norm
    return tuples, value


class Ladder(Workload):
    """The counting pipeline at a moderate modulus: one large factorization
    window, class collapse, the S tuple loops and the sieve recursion."""

    name = "ladder"

    def prepare(self, seed, library_call):
        rng = random.Random(seed)
        self.easy = [dict(S_EASY, a=rng.randrange(1, S_EASY["q"]), deltas=list(d))
                     for d in S_EASY_SIGNS]
        self.general = dict(S_GENERAL, a=rng.randrange(1, S_GENERAL["q"]))
        sv = orc.Sieve(int(RAMARE["M"]) + 1)
        ns = orc.integers_in(RAMARE["M"] / math.e, RAMARE["M"])
        self.ramare_members = len(orc.signed_select(
            sv, ns, RAMARE["q"], 1, squarefree=True, min_prime=RAMARE["Q1"],
            ladder=RAMARE["ladder"]))
        self.easy_ref = [s_easy_reference(sv, spec) for spec in self.easy]
        self.general_ref = s_general_reference(sv, self.general)
        # the character-expansion route of the same S values, untimed
        self.easy_chars = [library_call("s_easy_chars", spec)["value"] for spec in self.easy]
        self.general_chars = library_call("s_general_chars", self.general)["value"]
        weights = library_call("sieve_weights", SIEVE)
        self.sieve_support = weights["support"]
        try:
            self._check_sieve_weights(weights)
            self.sieve_problem = None
        except AssertionError as exc:
            self.sieve_problem = str(exc)

    @staticmethod
    def _check_sieve_weights(weights: dict) -> None:
        """Check the dumped weights themselves: lambda_d = mu(d) on squarefree
        d | P(z), and the sandwich lambda^- <= 1_rough <= lambda^+ for every
        n <= limit.  At z = 200, D = 1e8 both sides equal 1_rough exactly up
        to n = 1,113,120; the limit reaches past that, where truncation acts."""
        N, z = SIEVE["limit"], SIEVE["z"]
        sv = orc.Sieve(N)
        lpf = sv.largest_prime_factor()
        n = np.arange(N + 1)
        rough = ((n == 1) | (sv.spf >= z)).astype(np.int64)
        rough[0] = 0
        for side in ("plus", "minus"):
            ds = np.array([int(d) for d in weights[side]], dtype=np.int64)
            ws = np.array(list(weights[side].values()), dtype=np.int64)
            assert sv.squarefree[ds].all() and (lpf[ds] < z).all(), f"{side}: d not | P(z)"
            assert (ws == sv.liouville[ds]).all(), f"{side}: lambda_d != mu(d)"
            sums = np.zeros(N + 1, dtype=np.int64)
            for d, w in zip(ds.tolist(), ws.tolist()):
                sums[d::d] += w
            ok = sums[1:] >= rough[1:] if side == "plus" else sums[1:] <= rough[1:]
            assert ok.all(), f"sieve sandwich fails on the {side} side"

    def check_ramare(self, out):
        res = result_of(out)
        assert res["members"] == self.ramare_members, (res["members"], self.ramare_members)
        assert res["identity_holds"] is True and res["defect"] <= 1e-12
        assert res["max_coefficient"] <= 1.0 + 1e-12

    def check_s_easy(self, i):
        def check(out):
            res = json.loads(out)
            tuples, count, value = self.easy_ref[i]
            assert res["extras"]["tuples"] == tuples and res["extras"]["count"] == count
            assert close(res["value"], value, 1e-12), (res["value"], value)
            assert close(self.easy_chars[i], res["value"], 1e-9), \
                "direct and character routes differ"
        return check

    def check_s_general(self, out):
        res = json.loads(out)
        tuples, value = self.general_ref
        assert res["extras"]["tuples"] == tuples > 0
        assert close(res["value"], value, 1e-12), (res["value"], value)
        assert close(self.general_chars, res["value"], 1e-9), "direct and character routes differ"

    def check_sieve(self, out):
        assert self.sieve_problem is None, self.sieve_problem
        res = result_of(out)
        assert [res["support_plus"], res["support_minus"]] == self.sieve_support
        assert res["lambda_1"] == [1, 1] and res["max_abs"] == 1
        assert close(res["s"], math.log(SIEVE["D"]) / math.log(SIEVE["z"]))

    def ops(self, seed):
        lad = ",".join(f"{lo:g}:{hi:g}" for lo, hi in RAMARE["ladder"])
        return [
            cli_op("ramare q=1009", "ramare_s",
                   ["ramare", "--q", str(RAMARE["q"]), "--Q1", f"{RAMARE['Q1']:g}",
                    "--M", f"{RAMARE['M']:g}", "--j", str(RAMARE["j"]), "--overrides", lad],
                   self.check_ramare),
            *[call_op(f"s_function_easy signs {spec['deltas']}", "s_direct_s", "s_easy", spec,
                      self.check_s_easy(i)) for i, spec in enumerate(self.easy)],
            call_op("s_function_general", "s_direct_s", "s_general", self.general,
                    self.check_s_general),
            cli_op("sieve z=200 D=1e8", "sieve_s",
                   ["sieve", "--z", f"{SIEVE['z']:g}", "--D", f"{SIEVE['D']:g}"],
                   self.check_sieve),
        ]


WORKLOADS = {w.name: w for w in (Thresholds, Spectral, Ladder)}
