"""Command-line surface: JSON reports for every module and configuration file
support.

Reports are deterministic: a fixed seed and config produce byte-identical
output (keys sorted, no timestamps); diagnostics go to stderr.  Exit codes:
0 success, 1 usage, 2 precondition/domain error, 3 resource error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import arith, charsums, densemodel, group as group_mod, multfunc, pipeline, setcomb, sieve
from .errors import DomainError, PreconditionError, ResourceError

SCHEMA = "linnik-lab/1"


# ---------------------------------------------------------------------------
# serialization

# the leaves json writes as they are, matched by exact type so that numpy's
# float64 (a float subclass) still takes its branch below
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def jsonable(obj):
    if type(obj) in _JSON_SCALARS:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    return obj


def emit(report: dict, args) -> None:
    text = json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"
    if getattr(args, "fmt", "json") == "csv" and "table" in report.get("result", {}):
        buf = io.StringIO()
        rows = report["result"]["table"]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(jsonable(row))
        text = buf.getvalue()
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write --out {args.out}: {exc.strerror}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def report_for(args, audit_tag: str, result: dict, paramset: pipeline.ParamSet | None = None) -> dict:
    resolved = {k: v for k, v in vars(args).items()
                if k not in ("func", "out", "config") and v is not None}
    if paramset is not None:
        resolved["paramset"] = paramset.as_dict()
    return {"schema": SCHEMA, "command": args.command, "audit": audit_tag,
            "params": resolved, "result": result}


# ---------------------------------------------------------------------------
# shared argument helpers

def _pick(items, index, expects: str):
    """items[index] for an integer index in [0, len(items)), else a DomainError."""
    try:
        i = int(index)
    except (TypeError, ValueError):
        i = -1
    if not 0 <= i < len(items):
        raise DomainError(f"{expects} in [0, {len(items)}), got {index!r}")
    return items[i]


def _fn(name: str) -> multfunc.MultiplicativeFunction:
    """h from its spec: a built-in name or character:q:i (i-th real character mod q)."""
    if name.startswith("character:"):
        parts = name.split(":")
        if len(parts) != 3 or not parts[1].isdecimal():
            raise DomainError(f"--h expects character:q:i with integers q and i, got {name!r}")
        chars = group_mod.real_characters(int(parts[1]))
        return multfunc.character_fn(_pick(chars, parts[2], "--h character:q:i expects i"))
    return multfunc.builtin_function(name)


def _real_char(q: int, spec: str):
    chars = group_mod.real_characters(q)
    if spec == "principal":
        return next(c for c in chars if c.is_principal)
    return _pick(chars, spec, "--chi expects 'principal' or an index")


def _coset(args, q: int, G: group_mod.UnitGroup | None = None):
    """The coset of --psi and --b among the real characters of G, the unit
    group mod q (built here when not given), or None without --psi."""
    psi_idx = getattr(args, "psi", None)
    if psi_idx is None:
        return None
    chars = [c for c in group_mod.real_characters(q, G) if not c.is_principal]
    psi = _pick(chars, psi_idx, "--psi expects a non-principal real character index")
    return group_mod.CosetSpec(psi, args.b)


def _overrides(spec: str | None):
    if not spec:
        return None
    out = []
    for part in spec.split(","):
        try:
            a, b = map(float, part.split(":"))
            ok = a < b and math.isfinite(a) and math.isfinite(b)
        except ValueError:
            ok = False
        if not ok:
            raise DomainError("--overrides expects finite lo:hi pairs with lo < hi, "
                              f"comma-separated (e.g. 10:100,150:1500), got {spec!r}")
        out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_factor(args):
    fac = arith.factorize(args.n)
    return report_for(args, "integer-factorization",
                      {"n": fac.n, "factors": [list(t) for t in fac.factors],
                       "mobius": fac.mobius, "liouville": fac.liouville})


def cmd_rfunc(args):
    h = _fn(args.h)
    res = pipeline.R_of_h_q(h, args.q, args.cap)
    out = res.as_dict()
    out["witnesses_verified"] = pipeline.verify_witnesses(res, h)
    return report_for(args, "sign-change-threshold", out)


def cmd_esets(args):
    h = _fn(args.h)
    plus, minus = pipeline.E_sets(h, args.q, args.x)
    phi = arith.euler_phi(args.q)
    return report_for(args, "sign-witness-classes",
                      {"E_plus": sorted(plus), "E_minus": sorted(minus),
                       "phi": phi, "both_full": len(plus) == len(minus) == phi})


def cmd_pretend(args):
    h = _fn(args.h)
    chi = _real_char(args.q, args.chi)
    s = multfunc.pretend_sum(h, chi, args.cutoff)
    res = {"sum": s, "character": chi.label()}
    if args.c is not None and args.Q1 is not None:
        res["holds"] = multfunc.pretend_condition_holds(s, args.c, args.Q1)
    return report_for(args, "character-pretension-sum", res)


def cmd_distance(args):
    f = multfunc.builtin_function(args.f)
    gfn = multfunc.builtin_function(args.g)
    d2 = multfunc.pretentious_distance_squared(f, gfn, args.x, args.r)
    return report_for(args, "pretentious-distance",
                      {"distance": math.sqrt(max(0.0, d2)), "squared": d2})


def cmd_lofq(args):
    val, rows = multfunc.L_of_q(args.q, args.prime_cutoff)
    return report_for(args, "real-character-euler-max",
                      {"L": val, "per_character": rows})


def cmd_sieve(args):
    plus, minus = sieve.build_beta_sieve(args.z, args.D, args.kappa)
    res = {
        "support_plus": plus.d.size, "support_minus": minus.d.size,
        "s": plus.s, "lambda_1": [int(plus.mu[0]), int(minus.mu[0])],   # d[0] = 1
        "max_abs": int(max(np.abs(plus.mu).max(), np.abs(minus.mu).max())),
    }
    if args.accuracy_K is not None:
        res["accuracy_g_inv_p"] = sieve.sieve_accuracy(
            (plus, minus), lambda ps: 1.0 / ps, args.z, K=args.accuracy_K, kappa=args.kappa)
    return report_for(args, "sieve-weight-construction", res)


def cmd_rough(args):
    if args.q < 1:
        raise DomainError(f"rough needs --q >= 1, got {args.q}")
    coset = _coset(args, args.q)
    count, rep = sieve.rough_count_in_coset(args.cap, coset, args.z, args.eps)
    return report_for(args, "rough-coset-count", rep)


def cmd_densemodel(args):
    h = _fn(args.h)
    overrides = {}
    for name in ("R", "Q1", "z", "delta"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    params = pipeline.ParamSet.from_q(args.q, args.epsilon, easy_mode=True, **overrides)
    ctx = pipeline.build_context(h, args.q, params)
    reports = {}
    for delta, tag in ((1, "plus"), (-1, "minus")):
        model = ctx.models[(0, delta)]
        rep = densemodel.verify_model(model)
        reports[tag] = {"verify": rep, "model": densemodel.model_to_json(model)}
    sets = densemodel.level_sets(ctx.models[(0, 1)], ctx.models[(0, -1)], args.level_eps)
    ap = densemodel.aprop_check(sets, ctx.G, ctx.supports[(0, 1)], ctx.supports[(0, -1)])
    return report_for(args, "dense-model-properties",
                      {"models": reports, "level_sets": {
                          "A_plus": sets.plus.tolist(), "A_minus": sets.minus.tolist(),
                          "check": ap}}, paramset=params)


def cmd_kneser(args):
    import random
    if args.trials < 0:
        raise DomainError(f"kneser needs --trials >= 0, got {args.trials}")
    rng = random.Random(args.seed)
    G = group_mod.build_unit_group(args.q)
    units = G.units.tolist()
    rows = []
    for _ in range(args.trials):
        A = np.array(rng.sample(units, rng.randint(1, len(units))))
        B = np.array(rng.sample(units, rng.randint(1, len(units))))
        rows.append(setcomb.kneser_check(G, A, B))
    return report_for(args, "kneser-product-bound",
                      {"trials": args.trials, "all_pass": True, "sample": rows[:5]})


def cmd_triple(args):
    if args.trials < 0:
        raise DomainError(f"triple needs --trials >= 0, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    G = group_mod.build_unit_group(args.q)
    phi = G.phi
    # some set size s must satisfy (2/5 + eps) phi < s <= phi
    if not (args.epsilon > 0 and (0.4 + args.epsilon) * phi < phi):
        raise DomainError(f"triple needs --epsilon > 0 with (2/5 + eps) phi < phi = {phi}, "
                          f"got {args.epsilon}")
    floor_size = int((0.4 + args.epsilon) * phi) + 1
    outcomes = {}
    for t in range(args.trials):
        sets = []
        for _ in range(3):
            size = rng.integers(floor_size, phi + 1)
            sets.append(rng.choice(G.units, size=size, replace=False))
        out = setcomb.triple_conv_classify(G, *sets, eps=args.epsilon)
        outcomes[out.branch] = outcomes.get(out.branch, 0) + 1
        if not out.verified:
            raise AssertionError(f"trial {t}: no branch certified")
    return report_for(args, "triple-convolution-dichotomy",
                      {"trials": args.trials, "outcomes": outcomes})


def cmd_charsum(args):
    sub = args.variant
    if sub == "mvt":
        if args.N < 1:
            raise DomainError(f"charsum mvt needs --N >= 1, got {args.N}")
        rng = np.random.default_rng(args.seed)
        rep = charsums.mvt_check(np.arange(1, args.N + 1), rng.choice((-1.0, 1.0), size=args.N),
                                 args.N, args.q)
        return report_for(args, "mvt-mean-value", jsonable(rep))
    if sub == "pv":
        G = group_mod.build_unit_group(args.q)
        if G.phi < 2:
            raise DomainError(f"charsum pv needs a non-principal character mod q, "
                              f"and there is none for q = {args.q}")
        worst = float(charsums.pv_max_windows(G).max())
        bound = math.sqrt(args.q) * math.log(args.q)
        if worst > bound + 1e-9:
            raise AssertionError("Polya-Vinogradov bound violated")
        return report_for(args, "polya-vinogradov",
                          {"max_over_characters_windows": worst, "bound": bound})
    if sub == "halmon":
        if args.nchars < 0:
            raise DomainError(f"charsum halmon needs --nchars >= 0, got {args.nchars}")
        rng = np.random.default_rng(args.seed)
        # the first N rough n in [2, 100 N + 1], read in blocks of 2^12
        z = args.q**args.eps
        top = 100 * args.N + 1
        rough = [np.empty(0, np.int64)]
        for lo in range(1, top, 1 << 12):
            wf = arith.factor_window(lo, min(lo + (1 << 12), top))
            rough.append(wf.ns[wf.rough(z)])
            if sum(map(len, rough)) >= args.N:
                break
        wf = None   # the window is not needed by the group and the report below
        ns = np.concatenate(rough)[:args.N]
        if not len(ns):
            raise DomainError("charsum halmon needs --N >= 1 and a q^eps-rough n in [2, 100 N + 1]")
        coeffs = rng.choice((-1.0, 1.0), size=len(ns))
        G = group_mod.build_unit_group(args.q)
        pick = rng.choice(G.phi, size=min(args.nchars, G.phi), replace=False)
        rep = charsums.halasz_montgomery_report(ns, coeffs, G, pick, int(ns[-1]), args.eps)
        return report_for(args, "halasz-montgomery-mean", jsonable(rep))
    if sub == "large":
        count, rep = charsums.large_values_census(None, args.P, args.q, args.alpha, args.C)
        return report_for(args, "prime-sum-large-values", jsonable(rep))
    if sub == "amplify":
        rep = charsums.amplify_report(args.q, args.Y1, args.Y2, args.X)
        return report_for(args, "prime-power-amplification", jsonable(rep))
    if sub == "moments":
        sq, sh = charsums.square_and_shorts_moments(
            args.q, args.N, args.P, args.Q, args.M, args.H, args.K, args.eps, args.seed)
        return report_for(args, "ramare-error-moments",
                          {"squares": jsonable(sq), "shorts": jsonable(sh)})
    raise DomainError(f"unknown charsum variant {sub}")


def cmd_ladder(args):
    lad = charsums.ladder_build(args.Q1, args.q, _overrides(args.overrides))
    res = {"J": lad.J, "intervals": list(lad.intervals), "empty": not lad.intervals}
    if args.n is not None:
        res["in_S"] = charsums.in_S(args.n, lad)
    return report_for(args, "prime-factor-ladder", res)


def cmd_ramare(args):
    h = _fn(args.h)
    G = group_mod.build_unit_group(args.q)
    lad = charsums.ladder_build(args.Q1, args.q, _overrides(args.overrides))
    B = _coset(args, args.q, G)
    delta = 1 if args.delta == "plus" else -1
    out = charsums.ramare_decompose(G, h, B, delta, args.v, args.j, lad, args.M)
    res = {"defect": out["defect"], "members": out["members"],
           "e1_terms": out["e1_terms"], "e2_terms": out["e2_terms"],
           "max_coefficient": out["max_coefficient"],
           "identity_holds": out["defect"] <= 1e-12}
    if not res["identity_holds"]:
        raise AssertionError(f"decomposition identity defect {out['defect']}")
    return report_for(args, "ramare-identity", res)


def _toy_params(q: int, variant: str) -> tuple[pipeline.ParamSet, tuple]:
    if variant == "easy":
        params = pipeline.ParamSet.from_q(q, 0.1, easy_mode=True,
                                          R=20.0 if q == 35 else 30.0,
                                          Q1=16.0, z=3.0)
        return params, (None, None, (-1, -1, -1))
    # m needs two primes >= 17, one of them in the ladder interval (16, 60],
    # so M = 2000 makes the m sets, and with them S and T, non-empty
    params = pipeline.ParamSet.from_q(
        q, 0.1, easy_mode=False, R=14.0, U=22.0, M=2000.0, Q1=16.0, z=3.0, K=1,
        ladder_overrides=[(16.0, 60.0)])
    return params, (None, None, None, (-1, -1, -1, -1, 1, 1))


def cmd_stcompare(args):
    h = _fn(args.h)
    params, spec = _toy_params(args.q, args.variant)
    ctx = pipeline.build_context(h, args.q, params)
    if args.variant == "easy":
        rep = pipeline.st_compare_easy(ctx, args.a, *spec)
    else:
        rep = pipeline.st_compare_general(ctx, args.a, *spec, [(0, 0, 0)])
    return report_for(args, "sparse-dense-comparison", jsonable(rep), paramset=params)


def cmd_audit(args):
    h = _fn(args.h)
    res = pipeline.theorem_audit(h, args.q, args.Q1, args.c)
    return report_for(args, "dichotomy-audit", res)


def _worker_count(threads: int) -> int:
    """Pool size for --threads: at least 1, at most the machine's CPU count."""
    return max(1, min(threads, os.cpu_count() or 1))


# bytes a batch may hold while it runs
_BATCH_BUDGET = 1 << 28
# per unit of q, for rfunc and audit alike: a first-hit table (16 q bytes)
# lives until its block's stream ends, and no unit group outlives its setup.
# The tracemalloc peak of a whole batch (h = liouville) over q = 3..2000 is
# 18.8 (rfunc) and 19.7 (audit) bytes per unit of q, and 16.7 and 17.8 over
# q = 3..4000, near the ranges this budget refuses; 21 keeps the ranges the
# budget took when each q also held a unit mask.
_Q_BYTES = 21


def cmd_batch(args):
    if not 1 <= args.qmin <= args.qmax:
        raise DomainError(f"batch needs 1 <= --qmin <= --qmax, got {args.qmin} and {args.qmax}")
    # every block runs at once (one per worker), so all the tables count
    need = _Q_BYTES * (args.qmin + args.qmax) * (args.qmax - args.qmin + 1) // 2
    if need > _BATCH_BUDGET:
        raise ResourceError(f"batch {args.what} over q = {args.qmin}..{args.qmax} would hold "
                            f"{need} bytes of tables, more than the budget {_BATCH_BUDGET}")
    qs = list(range(args.qmin, args.qmax + 1))
    worker = functools.partial(_batch_rows, args.h, args.what, args.Q1, args.c)
    workers = min(_worker_count(args.threads), len(qs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        blocks = [qs[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = sorted((row for rows in pool.map(worker, blocks) for row in rows),
                          key=lambda r: r["q"])
    else:
        rows = worker(qs)
    return report_for(args, "batch-thresholds", {"table": rows})


def _batch_rows(h_spec: str, what: str, Q1: float, c: float, qs) -> list[dict]:
    """The batch rows of one block of moduli, for the serial run (one block)
    and for process pools (one strided block per worker) alike; h is built
    from its spec through _fn."""
    h = _fn(h_spec)
    if what == "rfunc":
        caps = [int(q * q * 20 * max(math.log(q), 1.0)) + 1 for q in qs]
        results = list(pipeline.R_block(h, qs, caps))
        return [{"q": res.q, "R": res.R_value, "cap": res.cap, "verified": ok}
                for res, ok in zip(results, pipeline.verify_block(results, h))]
    return [{"q": res["q"], "verdict": res["verdict"], "R": res["R"],
             "min_pretend_sum": res["min_pretend_sum"]}
            for res in pipeline.audit_block(h, qs, Q1, c)]


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# the flags of every command (dest -> spec), and of each command its
# function and its own flags.  A spec holds add_argument's keywords, the
# option string under "flag" when it is not --dest, and two keys that _resolve
# applies after a config file is read: "default" (else None) and "required".
COMMON_FLAGS: dict[str, dict] = {
    "config": {"help": "JSON config file (schema linnik-lab/1)"},
    "out": {"help": "write the report to this path instead of stdout"},
    "fmt": {"flag": "--format", "choices": ("json", "csv"), "default": "json"},
    "seed": {"type": int, "default": 0},
    "threads": {"type": int, "default": 1},
}

COMMANDS: dict[str, tuple] = {
    "factor": (cmd_factor, {"n": {"type": int, "required": True}}),
    "rfunc": (cmd_rfunc, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "cap": {"type": int, "required": True}}),
    "esets": (cmd_esets, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "x": {"type": int, "required": True}}),
    "pretend": (cmd_pretend, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "cutoff": {"type": float, "required": True}, "chi": {"default": "principal"},
        "c": {"type": float}, "Q1": {"type": float}}),
    "distance": (cmd_distance, {
        "f": {"default": "liouville"}, "g": {"default": "one"},
        "x": {"type": float, "required": True}, "r": {"type": int, "default": 1}}),
    "lofq": (cmd_lofq, {
        "q": {"type": int, "required": True}, "prime_cutoff": {"type": int}}),
    "sieve": (cmd_sieve, {
        "z": {"type": float, "required": True}, "D": {"type": float, "required": True},
        "kappa": {"type": float, "default": 1.0}, "accuracy_K": {"type": float}}),
    "rough": (cmd_rough, {
        "q": {"type": int, "required": True}, "cap": {"type": float, "required": True},
        "z": {"type": float, "required": True}, "psi": {"type": int},
        "b": {"type": int, "default": 1}, "eps": {"type": float, "default": 0.1}}),
    "densemodel": (cmd_densemodel, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "epsilon": {"type": float, "default": 0.04}, "R": {"type": float},
        "Q1": {"type": float}, "z": {"type": float}, "delta": {"type": float},
        "level_eps": {"type": float, "default": 0.2}}),
    "kneser": (cmd_kneser, {
        "q": {"type": int, "required": True}, "trials": {"type": int, "default": 100}}),
    "triple": (cmd_triple, {
        "q": {"type": int, "required": True}, "epsilon": {"type": float, "default": 0.08},
        "trials": {"type": int, "default": 20}}),
    "charsum": (cmd_charsum, {
        "q": {"type": int, "required": True}, "N": {"type": int, "default": 500},
        "eps": {"type": float, "default": 0.2}, "nchars": {"type": int, "default": 10},
        "P": {"type": float, "default": 500.0}, "Q": {"type": float, "default": 1000.0},
        "alpha": {"type": float, "default": 0.25}, "C": {"type": float, "default": 1.0},
        "Y1": {"type": float, "default": 10.0}, "Y2": {"type": float, "default": 100.0},
        "X": {"type": float, "default": 2000.0}, "M": {"type": float, "default": 50.0},
        "H": {"type": float, "default": 8.0}, "K": {"type": int, "default": 2}}),
    "ladder": (cmd_ladder, {
        "Q1": {"type": float, "required": True}, "q": {"type": int, "required": True},
        "overrides": {}, "n": {"type": int}}),
    "ramare": (cmd_ramare, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "Q1": {"type": float, "required": True}, "M": {"type": float, "required": True},
        "v": {"type": int, "default": 0}, "j": {"type": int, "default": 2},
        "delta": {"choices": ("plus", "minus"), "default": "plus"}, "overrides": {},
        "psi": {"type": int}, "b": {"type": int, "default": 1}}),
    "stcompare": (cmd_stcompare, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "a": {"type": int, "default": 1},
        "variant": {"choices": ("easy", "general"), "default": "easy"}}),
    "audit": (cmd_audit, {
        "h": {"default": "liouville"}, "q": {"type": int, "required": True},
        "Q1": {"type": float, "default": 10.0}, "c": {"type": float, "default": 1.0}}),
    "batch": (cmd_batch, {
        "h": {"default": "liouville"},
        "what": {"choices": ("rfunc", "audit"), "default": "rfunc"},
        "qmin": {"type": int, "default": 3}, "qmax": {"type": int, "default": 50},
        "Q1": {"type": float, "default": 10.0}, "c": {"type": float, "default": 1.0}}),
}

# charsum's positional argument, which a config file cannot give
CHARSUM_VARIANTS = ("mvt", "pv", "halmon", "large", "amplify", "moments")


def _flags(command: str) -> dict[str, dict]:
    return {**COMMON_FLAGS, **COMMANDS[command][1]}


def _option(dest: str, spec: dict) -> str:
    return spec.get("flag", f"--{dest.replace('_', '-')}")


def _add_flags(p: argparse.ArgumentParser, flags: dict[str, dict]) -> None:
    for dest, spec in flags.items():
        kwargs = {k: v for k, v in spec.items() if k not in ("flag", "default", "required")}
        p.add_argument(_option(dest, spec), dest=dest, **kwargs)


class _Commands(argparse._SubParsersAction):
    """The command positional.  Its choices are COMMANDS, so usage, help and
    the invalid-choice message list every command; a command's subparser is
    built when the command line names it."""

    def __call__(self, parser, namespace, values, option_string=None):
        self.subparser(values[0])
        super().__call__(parser, namespace, values, option_string)

    def subparser(self, name: str) -> _Parser:
        sp = self._name_parser_map.get(name)
        if sp is None:
            sp = self.add_parser(name, argument_default=argparse.SUPPRESS)
            _add_flags(sp, _flags(name))
            if name == "charsum":
                sp.add_argument("variant", choices=CHARSUM_VARIANTS)
            sp.set_defaults(func=COMMANDS[name][0])
        return sp


def build_parser() -> _Parser:
    """The parser sets only the flags given on the command line (every
    default is SUPPRESS); _resolve fills in the others."""
    p = _Parser(prog="linnik-lab", description=__doc__, argument_default=argparse.SUPPRESS)
    _add_flags(p, COMMON_FLAGS)
    p.add_subparsers(dest="command", action=_Commands).choices = COMMANDS
    return p


def _read_config(path: str, command: str) -> tuple[dict, dict]:
    """A config file's "defaults" section and its section for command."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise PreconditionError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise PreconditionError(f"config {path} must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise PreconditionError(f"config schema must be {SCHEMA!r}")
    sections = data.get("defaults", {}), data.get(command, {})
    if not all(isinstance(values, dict) for values in sections):
        raise PreconditionError(f"config sections \"defaults\" and {command!r} must be JSON objects")
    return sections


def _config_value(dest: str, spec: dict, val):
    """A config value through its flag's type, as if given on the command
    line: a string is parsed, an int is taken where a float is wanted, and
    any other JSON type is refused."""
    kind = spec.get("type", str)
    choices = spec.get("choices")
    out = None
    if isinstance(val, str):
        try:
            out = kind(val)
        except ValueError:
            pass
    elif type(val) is int and kind in (int, float) or type(val) is float and kind is float:
        out = kind(val)
    if out is None or choices is not None and out not in choices:
        want = f"one of {list(choices)}" if choices else f"of type {kind.__name__}"
        raise PreconditionError(f"config value for {_option(dest, spec)} must be "
                                f"{want}, got {val!r}")
    return out


def _resolve(args):
    """Give every flag the command line left out its value: from the config
    file when one is named (its command section over its "defaults"), else
    its default."""
    flags = _flags(args.command)
    if hasattr(args, "config"):
        defaults, own = _read_config(args.config, args.command)
        unknown = sorted(set(own) - set(flags))
        if unknown:
            raise PreconditionError(f"config section {args.command!r} names flags "
                                    f"{args.command} does not take: {', '.join(unknown)}")
        # a shared default that names no flag of this command is left out
        for key, val in {**defaults, **own}.items():
            if key in flags and not hasattr(args, key):
                setattr(args, key, _config_value(key, flags[key], val))
    for key, spec in flags.items():
        if not hasattr(args, key):
            setattr(args, key, spec.get("default"))
    return args


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        args = _resolve(args)
        missing = [name for name, spec in COMMANDS[args.command][1].items()
                   if spec.get("required") and getattr(args, name, None) is None]
        if missing:
            raise _UsageError(f"missing required arguments for {args.command}: "
                              + ", ".join(f"--{m}" for m in missing))
        for name, val in vars(args).items():
            if isinstance(val, float) and not math.isfinite(val):
                raise DomainError(f"--{name.replace('_', '-')} must be finite, got {val}")
        report = args.func(args)
        emit(report, args)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (DomainError, PreconditionError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


# The program is imported and ready: its ~22k import-time objects live until
# exit, so freeze them out of the collector's generations.  Collections while
# a command runs then skip them, and so do the interpreter's collections at
# shutdown; forked --threads workers inherit the frozen heap.
gc.freeze()

if __name__ == "__main__":
    main()
