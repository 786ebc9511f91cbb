"""Top-level reproductions: the sign-witness sets E^Delta(x), the exact
threshold R(h;q) with witness tables, the sparse/dense counting functions S
and T (single-interval and e-adic ladder variants), their comparison, the
squarefree-loss accounting, the case-analysis driver, and the theorem audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import arith
from . import charsums
from . import densemodel
from . import group as group_mod
from . import multfunc
from . import setcomb
from .errors import DomainError, ResourceError

# ---------------------------------------------------------------------------
# parameters

@dataclass
class ParamSet:
    """Scale parameters with the asymptotic formulas as defaults.

    easy_mode uses R = q^(1/2), I = (R/e, R]; the general mode uses the
    quarter-epsilon split R = q^(1/2 - eps/4), U = q/R, M = q/R^2 and the
    prime-factor ladder.  Every field can be overridden for desk-scale runs;
    reports embed the resolved values.
    """

    q: int
    epsilon: float
    Q1: float
    R: float
    U: float
    M: float
    z: float
    K: int
    delta: float
    D: float
    easy_mode: bool
    ladder: charsums.LadderSpec
    overrides: dict = field(default_factory=dict)

    @classmethod
    def from_q(cls, q: int, epsilon: float, easy_mode: bool = True,
               ladder_overrides=None, **overrides) -> "ParamSet":
        if q < 3:
            raise DomainError("q must be >= 3")
        if not 0 < epsilon < 1:
            raise DomainError("epsilon must lie in (0, 1)")
        logq = math.log(q)
        vals = {
            "Q1": q**epsilon if easy_mode else max(3.0, q**epsilon),
            "z": q ** math.sqrt(epsilon),
            "delta": logq ** (-1 / 4),
            "D": q ** (1 / 100),
            "K": int(epsilon * epsilon * logq),
        }
        if easy_mode:
            vals["R"] = math.sqrt(q)
            vals["U"] = vals["R"]
            vals["M"] = 1.0
        else:
            vals["R"] = q ** (0.5 - epsilon / 4)
            vals["U"] = q / vals["R"]
            vals["M"] = q / vals["R"] ** 2
        vals.update(overrides)
        ladder = charsums.ladder_build(max(vals["Q1"], 3.0), q, ladder_overrides)
        ps = cls(q=q, epsilon=epsilon, easy_mode=easy_mode, ladder=ladder,
                 overrides=dict(overrides), **vals)
        if not easy_mode and not overrides:
            if abs(ps.U * ps.R - q) > 1e-9 * q or abs(ps.R**2 * ps.M - q) > 1e-9 * q:
                raise AssertionError("parameter relations U R = q, R^2 M = q broken")
        return ps

    def interval(self, k: int = 0) -> arith.IntegerInterval:
        """The k-th e-adic interval I_R(k) ((R/e, R] when k = 0)."""
        return arith.IntegerInterval.e_adic(self.R, k)

    def as_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if k != "ladder"}
        d["ladder"] = {"Q1": self.ladder.Q1, "J": self.ladder.J,
                       "intervals": list(self.ladder.intervals),
                       "overridden": self.ladder.overridden}
        return d


# ---------------------------------------------------------------------------
# E-sets and R(h; q)

@dataclass
class RFunctionResult:
    q: int
    cap: int
    R_value: int | None
    witnesses: dict[int, dict[int, int]]   # class -> {+1: n, -1: n}
    complete: bool

    def as_dict(self) -> dict:
        return {"q": self.q, "cap": self.cap, "R": self.R_value,
                "complete": self.complete,
                "witnesses": {str(a): {("+" if s > 0 else "-"): n
                                       for s, n in d.items()}
                              for a, d in sorted(self.witnesses.items())}}


# first-hit tables hold this where a (class, sign) pair has no witness yet,
# and 0 where h cannot take that sign on the class
_NO_HIT = np.iinfo(np.int64).max


def _first_hit_table(h, G: group_mod.UnitGroup) -> np.ndarray:
    """An empty (q, 2) first-hit table of _scan_block.  A real character h
    whose modulus divides q has one sign on each unit class; the other sign
    of the class is marked 0, so the class is complete with one witness."""
    first = np.full((G.q, 2), _NO_HIT, dtype=np.int64)
    if h.kind == "character" and G.q % h.character.group.q == 0:
        table = h.character.real_sign_table()
        first[G.units, (table[G.units % h.character.group.q] > 0).astype(np.int64)] = 0
    return first


def _scan_block(h, qs, caps, stop_when_complete: bool = True) -> list[np.ndarray]:
    """First squarefree witness per (class, sign) for a block of moduli.

    One stream of factor_window segments, (0, 2^13] and then doubling up to
    2^18 integers, serves every q of the block: each integer is sieved once
    per block and memory holds one segment.  Each pending q masks the
    segment's squarefree integers with nonzero sign by its units and records
    its first hits with one scatter (np.minimum.at) into a (q, 2) table,
    column 0 for sign +1 and 1 for -1 (see _first_hit_table).  A q leaves
    the stream once every unit class holds every sign h can take on it (if
    stop_when_complete) or once the stream has passed its cap.  Returns the
    tables in the order of qs.
    """
    groups = [group_mod.build_unit_group(q) for q in qs]
    first = [_first_hit_table(h, G) for G in groups]
    pending = list(range(len(qs)))
    lo = 0
    chunk = 1 << 13
    while pending:
        hi = min(lo + chunk, max(caps[i] for i in pending))
        wf = arith.factor_window(lo, hi)
        signs = h.signs(wf)
        pos = np.flatnonzero(wf.squarefree & (signs != 0))
        ns = pos + (lo + 1)
        neg = (signs[pos] < 0).astype(np.int64)
        still = []
        for i in pending:
            q, cap = qs[i], caps[i]
            k = ns.size if cap >= hi else int(np.searchsorted(ns, cap, side="right"))
            res = ns[:k] % q
            unit = groups[i].unit_pos[res] >= 0
            np.minimum.at(first[i].reshape(-1), 2 * res[unit] + neg[:k][unit], ns[:k][unit])
            complete = bool((first[i][groups[i].units] != _NO_HIT).all())
            if cap > hi and not (stop_when_complete and complete):
                still.append(i)
        pending = still
        lo = hi
        chunk = min(chunk * 2, 1 << 18)
    return first


def _found(G: group_mod.UnitGroup, first: np.ndarray) -> dict[tuple[int, int], int]:
    """{(class, sign): first witness} from a first-hit table of _scan_block."""
    return {(a, s): n
            for a, row in zip(G.units.tolist(), first[G.units].tolist())
            for s, n in zip((1, -1), row) if 0 < n < _NO_HIT}


def E_sets(h, q: int, x: int) -> tuple[set[int], set[int]]:
    """E^+(x), E^-(x): classes holding a squarefree witness of each sign."""
    if x < 1:
        raise DomainError("x must be >= 1")
    found = _found(group_mod.build_unit_group(q), _scan_block(h, [q], [x])[0])
    plus = {a for (a, s) in found if s == 1}
    minus = {a for (a, s) in found if s == -1}
    return plus, minus


def R_block(h, qs, caps):
    """R(h; q) with its witness table for each q of a block, in the order of qs.

    Every q is scanned by one shared stream (_scan_block) until its witness
    table holds every (class, sign) pair h can take or the stream passes its
    cap.  The scan runs at once;
    the results are built one at a time as the returned iterator is read.
    """
    qs, caps = list(qs), list(caps)
    if any(cap < 1 for cap in caps):
        raise DomainError("cap must be >= 1")

    def result(q, cap, first):
        G = group_mod.build_unit_group(q)
        found = _found(G, first)
        witnesses: dict[int, dict[int, int]] = {}
        for (a, s), n in found.items():
            witnesses.setdefault(a, {})[s] = n
        complete = len(found) == 2 * len(G.units)
        R = max(found.values()) if complete else None
        return RFunctionResult(q, cap, R, witnesses, complete)

    return map(result, qs, caps, _scan_block(h, qs, caps))


def R_of_h_q(h, q: int, cap: int) -> RFunctionResult:
    """Minimal N <= cap with E^+(N) = E^-(N) = Z_q^x, with witness table.

    Returns R_value None when some (class, sign) pair has no squarefree
    witness below cap, as for a real character h whose modulus divides q.
    This is R_block for the block of one q.
    """
    return next(R_block(h, [q], [cap]))


def verify_witnesses(result: RFunctionResult, h, q: int) -> bool:
    """Independent re-check of a witness table: squarefree, class, sign,
    minimality.

    The class members below every witness are gathered at once, and each
    integer is read from h.squarefree_signs, which evaluates it by scalar
    factorization, not by the window sieve the scan used.  A member where h
    vanishes is a witness of neither sign.
    """
    items = [(a, s, n) for a, d in result.witnesses.items() for s, n in d.items()]
    if not items:
        return True
    a, s, n = np.array(items, dtype=np.int64).T
    if not (np.isin(s, (1, -1)).all() and (n >= 1).all() and ((n - a) % q == 0).all()):
        return False
    if (h.squarefree_signs(n) != s).any():
        return False
    # the members m = a, a + q, ... below n (from q when a = 0); any of
    # them that is squarefree with sign s is an earlier witness
    m0 = np.where(a > 0, a, q)
    counts = np.maximum(0, (n - m0 + q - 1) // q)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    members = np.repeat(m0, counts) + q * offsets
    return not (h.squarefree_signs(members) == np.repeat(s, counts)).any()


# ---------------------------------------------------------------------------
# theorem audit

def theorem_audit(h, q: int, Q1: float, c: float,
                  pretend_cutoff: float | None = None) -> dict:
    """Which side of the sign-change dichotomy holds at this finite scale.

    Branch 1: R(h;q) <= q^2 Q1 (exact capped scan).  Branch 2: some real
    character chi mod q has pretend sum <= c / Q1^(1/100) (cutoff sqrt(q)
    by default).  Verdict is branch1 / branch2 / both / neither.
    """
    return audit_block(h, [q], Q1, c, pretend_cutoff)[0]


def audit_block(h, qs, Q1: float, c: float,
                pretend_cutoff: float | None = None) -> list[dict]:
    """theorem_audit for each q of a block; the R scans share one stream."""
    qs = list(qs)
    caps = [int(q * q * Q1) for q in qs]
    rows = []
    for q, cap, res in zip(qs, caps, R_block(h, qs, caps)):
        branch1 = res.R_value is not None
        cutoff = pretend_cutoff if pretend_cutoff is not None else math.sqrt(q)
        table = []
        best = math.inf
        for chi in group_mod.real_characters(q):
            s = multfunc.pretend_sum(h, chi, cutoff)
            table.append({"character": chi.label(), "pretend_sum": s,
                          "principal": chi.is_principal})
            best = min(best, s)
        branch2 = multfunc.pretend_condition_holds(best, c, Q1)
        verdict = {(True, True): "both", (True, False): "branch1",
                   (False, True): "branch2", (False, False): "neither"}[(branch1, branch2)]
        rows.append({"q": q, "Q1": Q1, "c": c, "cap": cap, "verdict": verdict,
                     "R": res.R_value, "pretend_cutoff": cutoff,
                     "min_pretend_sum": best, "pretend_table": table})
    return rows


# ---------------------------------------------------------------------------
# sparse/dense counting: shared context

@dataclass
class SignContext:
    """Everything the S/T functionals need for one modulus and one h."""

    h: object
    q: int
    params: ParamSet
    G: group_mod.UnitGroup
    norm: float                      # the Mertens normalizer of f
    supports: dict[tuple[int, int], list[int]]   # (k, delta) -> rough interval points
    interval_counts: dict[int, int]  # k -> |[I_R(k)]_q|
    models: dict[tuple[int, int], densemodel.DenseModel]

    def f_raw_sums(self, k: int, delta: int) -> np.ndarray:
        return charsums.all_char_sums(self.G, self.supports[(k, delta)])

    def g_hat(self, k: int, delta: int) -> np.ndarray:
        return self.models[(k, delta)].g_hat


def build_context(h, q: int, params: ParamSet, ks=None) -> SignContext:
    """Build f-supports and dense models for the requested e-adic indices."""
    G = group_mod.build_unit_group(q)
    if ks is None:
        ks = (0,) if params.easy_mode else tuple(range(-params.K, params.K + 1))
    norm = arith.mertens_product(params.z, q, inverse=True)
    supports: dict[tuple[int, int], list[int]] = {}
    counts: dict[int, int] = {}
    models: dict[tuple[int, int], densemodel.DenseModel] = {}
    for k in ks:
        iv = params.interval(k)
        plus, minus = charsums.f_support(G, h, params.z, iv)
        supports[(k, 1)] = plus
        supports[(k, -1)] = minus
        counts[k] = arith.count_units_in_interval(iv, q)[0]
        for delta, supp in ((1, plus), (-1, minus)):
            supp_set = set(supp)
            models[(k, delta)] = densemodel.build_dense_model(
                G, iv, lambda n, s=supp_set: norm if n in s else 0.0,
                params.delta, eta=params.epsilon**2,
                source=f"f^{'+' if delta > 0 else '-'}_k={k}(h={h.name}, q={q})")
    return SignContext(h, q, params, G, norm, supports, counts, models)


# ---------------------------------------------------------------------------
# S and T: single-interval ("easy") variant

def _unit_class(q: int, a: int) -> int:
    """a mod q, the class S and T count at; it must be a unit."""
    if math.gcd(a, q) != 1:
        raise DomainError(f"the class a = {a} is not a unit mod {q}")
    return a % q


def _project(G: group_mod.UnitGroup, a: int, prod_over_chars: np.ndarray) -> float:
    """(1/phi) sum_chi chi(a) prod(chi), the inverse transform at one class."""
    values = group_mod.fourier_inverse(G, prod_over_chars)
    return float(values[G.unit_pos[_unit_class(G.q, a)]].real / G.phi)


# hits expanded at once by the class join; bounds its memory
_JOIN_HITS = 1 << 16


def _grid(lists: list[np.ndarray], rows: np.ndarray) -> list[np.ndarray]:
    """The parts of the given rows of the grid lists[0] x lists[1] x ... (C order)."""
    idx = np.unravel_index(rows, tuple(len(x) for x in lists))
    return [x[i] for x, i in zip(lists, idx)]


def _classes_and_clean(parts: list[np.ndarray], q: int, sqf: np.ndarray):
    """Per row: the class of the product of the parts mod q, and whether the
    parts are all squarefree and pairwise coprime."""
    cls = np.ones(len(parts[0]), dtype=np.int64)
    clean = np.ones(len(parts[0]), dtype=bool)
    for i, x in enumerate(parts):
        cls = cls * (x % q) % q
        clean &= sqf[x]
        for y in parts[:i]:
            clean &= np.gcd(x, y) == 1
    return cls, clean


def _class_join(G: group_mod.UnitGroup, a: int, lists) -> tuple[int, int]:
    """(count, loss): the number of tuples (x_1, ..., x_k), x_i from the i-th
    list of units, with x_1 ... x_k = a mod q, and the number of those whose
    product is not squarefree.

    Exact direct enumeration arranged as a join on classes.  The lists split
    into a left and a right grid of balanced sizes; the right grid is sorted
    by class, and each left row of class c finds the right rows of class
    a c^-1 by binary search.  Every hit is built and tested: all parts
    squarefree and pairwise coprime, by np.gcd on pairs of parts (a running
    product of the parts could overflow int64).  Left rows are taken in
    blocks of at most _JOIN_HITS hits (or one row), so memory does not grow
    with the tuple count.
    """
    q = G.q
    lists = [np.asarray(x, dtype=np.int64) for x in lists]
    sqf = arith.factor_window(0, max(int(x.max()) for x in lists)).squarefree
    sqf = np.concatenate([[False], sqf])     # indexed by the integer itself
    sizes = [len(x) for x in lists]
    s = min(range(1, len(lists)),
            key=lambda i: max(math.prod(sizes[:i]), math.prod(sizes[i:])))
    right = _grid(lists[s:], np.arange(math.prod(sizes[s:])))
    right_cls, right_clean = _classes_and_clean(right, q, sqf)
    order = np.argsort(right_cls, kind="stable")
    right_cls, right_clean = right_cls[order], right_clean[order]
    right = [x[order] for x in right]
    inverse = np.zeros(q, dtype=np.int64)
    inverse[G.units] = G.units[G.inverse_pos()]
    block = max(1, _JOIN_HITS // int(np.bincount(right_cls).max()))
    n_left = math.prod(sizes[:s])
    count = loss = 0
    for first in range(0, n_left, block):
        left = _grid(lists[:s], np.arange(first, min(first + block, n_left)))
        cls, clean = _classes_and_clean(left, q, sqf)
        want = a * inverse[cls] % q
        lo = np.searchsorted(right_cls, want, side="left")
        hits = np.searchsorted(right_cls, want, side="right") - lo
        total = int(hits.sum())
        if total == 0:
            continue
        li = np.repeat(np.arange(len(cls)), hits)
        ri = np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(total)
        ok = clean[li] & right_clean[ri]
        for x in left:
            x = x[li]
            for y in right:
                ok &= np.gcd(x, y[ri]) == 1
        count += total
        loss += total - int(np.count_nonzero(ok))
    return count, loss


def s_function_easy(ctx: SignContext, a: int, B2, B3, deltas: tuple[int, int, int],
                    budget: int = 10**8, monte_carlo: bool = False,
                    rng=None) -> tuple[float, dict]:
    """S(a) by direct enumeration of (r1, r2, r3, p, u) quintuples.

    Returns the normalized count and extras: the squarefree-loss part of the
    sum and enumeration accounting.  Exceeding `budget` raises ResourceError
    unless monte_carlo, in which case a flagged estimate is returned.
    """
    d1, d2, d3 = deltas
    a = _unit_class(ctx.q, a)
    p_set = charsums.q_set(ctx.G, ctx.h, ctx.params.Q1, B2, d2)
    u_list = charsums.u_set_easy(ctx.G, ctx.h, ctx.params.R, B3, d3)
    r_list = ctx.supports[(0, d1)]
    S_norm = ctx.interval_counts[0] ** 3 * ctx.params.Q1 * ctx.params.R
    total_tuples = len(r_list) ** 3 * len(p_set) * len(u_list)
    if total_tuples == 0:
        return 0.0, {"tuples": 0, "loss": 0.0, "method": "exact"}
    if total_tuples > budget:
        if not monte_carlo:
            raise ResourceError(f"{total_tuples} tuples exceed the budget {budget}")
        return _s_easy_monte_carlo(ctx, a, r_list, p_set, u_list, S_norm, budget, rng)

    count, loss_count = _class_join(ctx.G, a, [r_list, r_list, r_list, p_set, u_list])
    value = ctx.norm**3 * count / S_norm
    loss = ctx.norm**3 * loss_count / S_norm
    return value, {"tuples": total_tuples, "count": count, "loss": loss,
                   "method": "exact"}


# Monte-Carlo samples drawn per numpy batch
_MC_BATCH = 1 << 16


def _s_easy_monte_carlo(ctx, a, r_list, p_set, u_list, S_norm, budget, rng):
    rng = rng or np.random.default_rng(0)
    q = ctx.q
    samples = max(budget // 10, 10**5)
    residues = [np.asarray(x, dtype=np.int64) % q
                for x in (r_list, r_list, r_list, p_set, u_list)]
    hits = 0
    for first in range(0, samples, _MC_BATCH):
        n = min(_MC_BATCH, samples - first)
        cls = np.ones(n, dtype=np.int64)
        for x in residues:
            cls = cls * x[rng.integers(len(x), size=n)] % q
        hits += int(np.count_nonzero(cls == a))
    total = len(r_list) ** 3 * len(p_set) * len(u_list)
    est = hits / samples
    value = ctx.norm**3 * est * total / S_norm
    se = ctx.norm**3 * math.sqrt(max(est * (1 - est), 1e-300) / samples) * total / S_norm
    return value, {"tuples": total, "samples": samples, "stderr": se,
                   "loss": float("nan"), "method": "monte-carlo"}


def s_function_easy_chars(ctx: SignContext, a: int, B2, B3,
                          deltas: tuple[int, int, int]) -> float:
    """The same S(a) through the character expansion (independent route)."""
    d1, d2, d3 = deltas
    G = ctx.G
    F_raw = ctx.f_raw_sums(0, d1) * ctx.norm
    Qr = charsums.all_char_sums(G, charsums.q_set(G, ctx.h, ctx.params.Q1, B2, d2))
    Ur = charsums.all_char_sums(G, charsums.u_set_easy(G, ctx.h, ctx.params.R, B3, d3))
    S_norm = ctx.interval_counts[0] ** 3 * ctx.params.Q1 * ctx.params.R
    return _project(G, a, F_raw**3 * Qr * Ur) / S_norm


def t_function_easy(ctx: SignContext, a: int, B2, B3,
                    deltas: tuple[int, int, int]) -> float:
    """T(a) = (g*g*g*1_Q*1_U)(a) / (phi^3 Q1 R), via the character route."""
    d1, d2, d3 = deltas
    G = ctx.G
    Gh = ctx.g_hat(0, d1)
    Qn = charsums.all_char_sums(G, charsums.q_set(G, ctx.h, ctx.params.Q1, B2, d2)) / ctx.params.Q1
    Un = charsums.all_char_sums(G, charsums.u_set_easy(G, ctx.h, ctx.params.R, B3, d3)) / ctx.params.R
    return _project(G, a, Gh**3 * Qn * Un)


def st_compare_easy(ctx: SignContext, a: int, B2, B3,
                    deltas: tuple[int, int, int]) -> charsums.SumReport:
    """|S - T| against 1/q^(1+eps/50) + |U|/(R phi log^(5/4) q) (report only)."""
    s_val = s_function_easy_chars(ctx, a, B2, B3, deltas)
    t_val = t_function_easy(ctx, a, B2, B3, deltas)
    q = ctx.q
    u_count = len(charsums.u_set_easy(ctx.G, ctx.h, ctx.params.R, B3, deltas[2]))
    shape = q ** -(1 + ctx.params.epsilon / 50) + \
        u_count / (ctx.params.R * ctx.G.phi * math.log(q) ** 1.25)
    return charsums.SumReport.make(abs(s_val - t_val), shape, asserted=False,
                                   tag="sparse-dense-comparison",
                                   S=s_val, T=t_val)


# ---------------------------------------------------------------------------
# S and T: general (ladder) variant

def s_function_general(ctx: SignContext, a: int, B4, B5, B6,
                       deltas: tuple[int, int, int, int, int, int],
                       kset, budget: int = 10**8) -> tuple[float, dict]:
    """S(a) over k-triples: direct enumeration of (r1, r2, r3, p, u, m)."""
    d1, d2, d3, d4, d5, d6 = deltas
    a = _unit_class(ctx.q, a)
    pm = ctx.params
    p_set = charsums.q_set(ctx.G, ctx.h, pm.Q1, B4, d4)
    total_val = 0.0
    total_loss = 0.0
    visited = 0
    for (k1, k2, k3) in kset:
        r1l = ctx.supports[(k1, d1)]
        r2l = ctx.supports[(k2, d2)]
        r3l = ctx.supports[(k3, d3)]
        u_list = charsums.u_set(ctx.G, ctx.h, pm.U, -k1, B5, d5)
        m_list = charsums.m_set(ctx.G, ctx.h, pm.M, -k2 - k3, pm.ladder, B6, d6)
        n_tuples = len(r1l) * len(r2l) * len(r3l) * len(p_set) * len(u_list) * len(m_list)
        visited += n_tuples
        if visited > budget:
            raise ResourceError("general S enumeration exceeded its budget")
        if n_tuples == 0:
            continue
        S_norm = (pm.interval(k1).length * pm.interval(k2).length
                  * pm.interval(k3).length * pm.Q1
                  * pm.U * math.exp(-k1) * pm.M * math.exp(-k2 - k3))
        count, loss = _class_join(ctx.G, a, [r1l, r2l, r3l, p_set, u_list, m_list])
        total_val += ctx.norm**3 * count / S_norm
        total_loss += ctx.norm**3 * loss / S_norm
    return total_val, {"tuples": visited, "loss": total_loss, "method": "exact"}


def s_function_general_chars(ctx: SignContext, a: int, B4, B5, B6, deltas,
                             kset) -> float:
    d1, d2, d3, d4, d5, d6 = deltas
    G = ctx.G
    pm = ctx.params
    Qr = charsums.all_char_sums(G, charsums.q_set(G, ctx.h, pm.Q1, B4, d4))
    acc = np.zeros(G.phi, dtype=complex)
    for (k1, k2, k3) in kset:
        F1 = ctx.f_raw_sums(k1, d1) * ctx.norm
        F2 = ctx.f_raw_sums(k2, d2) * ctx.norm
        F3 = ctx.f_raw_sums(k3, d3) * ctx.norm
        Ur = charsums.all_char_sums(G, charsums.u_set(G, ctx.h, pm.U, -k1, B5, d5))
        Mr = charsums.all_char_sums(G, charsums.m_set(G, ctx.h, pm.M, -k2 - k3,
                                                      pm.ladder, B6, d6))
        S_norm = (pm.interval(k1).length * pm.interval(k2).length
                  * pm.interval(k3).length * pm.Q1
                  * pm.U * math.exp(-k1) * pm.M * math.exp(-k2 - k3))
        acc += F1 * F2 * F3 * Qr * Ur * Mr / S_norm
    return _project(G, a, acc)


def t_function_general(ctx: SignContext, a: int, B4, B5, B6, deltas, kset) -> float:
    d1, d2, d3, d4, d5, d6 = deltas
    G = ctx.G
    pm = ctx.params
    Qn = charsums.all_char_sums(G, charsums.q_set(G, ctx.h, pm.Q1, B4, d4)) / pm.Q1
    acc = np.zeros(G.phi, dtype=complex)
    for (k1, k2, k3) in kset:
        G1 = ctx.g_hat(k1, d1)
        G2 = ctx.g_hat(k2, d2)
        G3 = ctx.g_hat(k3, d3)
        Un = charsums.all_char_sums(G, charsums.u_set(G, ctx.h, pm.U, -k1, B5, d5)) \
            / (pm.U * math.exp(-k1))
        Mn = charsums.all_char_sums(G, charsums.m_set(G, ctx.h, pm.M, -k2 - k3,
                                                      pm.ladder, B6, d6)) \
            / (pm.M * math.exp(-k2 - k3))
        acc += G1 * G2 * G3 * Qn * Un * Mn
    return _project(G, a, acc)


def st_compare_general(ctx: SignContext, a: int, B4, B5, B6, deltas, kset,
                       k1set=None) -> charsums.SumReport:
    """|S - T| against the ladder comparison shape (report only)."""
    s_val = s_function_general_chars(ctx, a, B4, B5, B6, deltas, kset)
    t_val = t_function_general(ctx, a, B4, B5, B6, deltas, kset)
    q = ctx.q
    pm = ctx.params
    logq = math.log(q)
    gcd_part = math.gcd(q, math.prod(
        int(p) for p in arith.primes_upto(int(pm.Q1)) if q % int(p) == 0) or 1)
    ratio_gcd = gcd_part / arith.euler_phi(gcd_part)
    k1s = sorted({k[0] for k in kset}) if k1set is None else k1set
    u_term = 0.0
    for k1 in k1s:
        cnt = len(charsums.u_set(ctx.G, ctx.h, pm.U, -k1, B5, deltas[4]))
        u_term += cnt / (pm.U * math.exp(-k1))
    shape = (pm.Q1 ** (-1 / 90) / q * (ctx.G.phi / q) * logq**3
             + logq**1.75 / (q * math.log(pm.Q1) ** 2) * ratio_gcd * u_term)
    return charsums.SumReport.make(abs(s_val - t_val), shape, asserted=False,
                                   tag="sparse-dense-comparison-ladder",
                                   S=s_val, T=t_val)


def nonsquarefree_loss(ctx: SignContext, a: int, B2, B3, deltas,
                       budget: int = 10**8) -> tuple[float, dict]:
    """Contribution of non-squarefree products to S(a), with its target shape."""
    value, extras = s_function_easy(ctx, a, B2, B3, deltas, budget=budget)
    loss = extras["loss"]
    target = ctx.q ** -(1 + ctx.params.epsilon / 2)
    return loss, {"S": value, "loss": loss, "target_shape": target,
                  "ratio": loss / target if target else float("inf"),
                  "loss_le_S": loss <= value + 1e-15}


# ---------------------------------------------------------------------------
# case analysis

@dataclass
class CaseReport:
    case: str
    certificates: dict
    per_k: list[dict]

    def as_dict(self) -> dict:
        cert = {k: (sorted(v) if isinstance(v, (set, frozenset)) else v)
                for k, v in self.certificates.items()}
        return {"case": self.case, "certificates": cert, "per_k": self.per_k}


def _classify_k(ctx: SignContext, k: int, eps: float, c_case1: float) -> dict:
    """One e-adic index: triple-convolution behaviour of A_k^+ and A_k^-."""
    G = ctx.G
    phi = G.phi
    sets = densemodel.level_sets(ctx.models[(k, 1)], ctx.models[(k, -1)], eps)
    out = {"k": k, "sizes": {"+": len(sets.plus), "-": len(sets.minus)}}
    big = {d: len(S) >= (0.5 + 0.01) * phi
           for d, S in ((1, sets.plus), (-1, sets.minus))}
    for delta, A in ((1, sets.plus), (-1, sets.minus)):
        tag = "+" if delta > 0 else "-"
        if not A:
            out[tag] = {"branch": "empty"}
            continue
        cv = setcomb.conv3(G, A, A, A)
        min_all = int(cv.min())
        if min_all >= c_case1 * phi * phi:
            out[tag] = {"branch": "expands", "min_conv": min_all}
            continue
        if big[delta]:
            # oversized set: the convolution bound (2|A| - phi) |A| certifies
            bound = (2 * len(A) - phi) * len(A)
            if int(cv.min()) < bound:
                raise AssertionError("convolution lower bound violated")
            out[tag] = {"branch": "big-set", "min_conv": min_all, "bound": bound}
            continue
        cert = None
        for psi in group_mod.real_characters(G.q, G):
            if psi.is_principal:
                continue
            H = psi.kernel()
            inside = len(A & H)
            outside = len(A) - inside
            ov, rep = (inside, 1) if inside >= outside else \
                (outside, next(iter(x for x in A if x not in H)))
            if ov >= len(A) - eps * phi / 2:
                cert = {"psi": psi.label(), "H": H, "rep": rep, "overlap": ov}
                break
        out[tag] = {"branch": "coset", **cert} if cert else {"branch": "undetermined",
                                                             "min_conv": min_all}
    return out


def case_analysis(h, q: int, params: ParamSet, eps: float | None = None,
                  c_case1: float = 1 / 25) -> CaseReport:
    """Classify an instance by the product-set behaviour of its level sets.

    Case1: some sign expands everywhere (triple convolution >= c_case1 phi^2)
    for enough k.  Case2->1: an oversized level set forces the same bound.
    Case3.1: both signs concentrate on opposite cosets of one common index-2
    subgroup (certificate re-verified, plus the rough-coset counting check).
    Case3.2->1: distinct subgroups across k force mixed expansion.  Numerical
    failures of the asymptotic hypotheses are recorded as Undetermined.
    """
    eps = params.epsilon if eps is None else eps
    ks = (0,) if params.easy_mode else tuple(range(-params.K, params.K + 1))
    ctx = build_context(h, q, params, ks)
    per_k = [_classify_k(ctx, k, eps, c_case1) for k in ks]
    G = ctx.G

    for row in per_k:
        for tag, d1 in (("+", 1), ("-", -1)):
            if row[tag].get("branch") == "big-set":
                return CaseReport("Case2->1", {"delta": d1, "k": row["k"],
                                               "min_conv": row[tag]["min_conv"]}, per_k)
    expand_share = {d: sum(1 for r in per_k if r["+" if d > 0 else "-"]["branch"] == "expands")
                    for d in (1, -1)}
    for d in (1, -1):
        if expand_share[d] >= max(1, len(ks) / 20):
            row = next(r for r in per_k if r["+" if d > 0 else "-"]["branch"] == "expands")
            return CaseReport("Case1", {"delta": d, "k": row["k"],
                                        "min_conv": row["+" if d > 0 else "-"]["min_conv"]},
                              per_k)

    # Case 3: both signs coset-concentrated, same H, opposite cosets
    coset_ks = [r for r in per_k
                if r["+"].get("branch") == "coset" and r["-"].get("branch") == "coset"]
    if not coset_ks:
        return CaseReport("Undetermined", {"reason": "no expansion and no clean cosets"},
                          per_k)
    consistent = []
    for r in coset_ks:
        if r["+"]["psi"] != r["-"]["psi"]:
            continue
        psi = next(c for c in group_mod.real_characters(q, G)
                   if c.label() == r["+"]["psi"])
        table = psi.real_sign_table()
        if table[r["+"]["rep"] % q] != table[r["-"]["rep"] % q]:
            consistent.append((r, psi))
    if not consistent:
        return CaseReport("Undetermined",
                          {"reason": "coset certificates disagree (H+ != H- or equal cosets)"},
                          per_k)
    by_psi: dict[str, list] = {}
    for r, psi in consistent:
        by_psi.setdefault(psi.label(), []).append((r, psi))
    label, rows = max(by_psi.items(), key=lambda kv: len(kv[1]))
    if len(rows) * 2 >= len(coset_ks):
        r0, psi0 = rows[0]
        return CaseReport("Case3.1", {"psi": label, "H": psi0.kernel(),
                                      "b_plus": r0["+"]["rep"], "b_minus": r0["-"]["rep"]},
                          per_k)
    # distinct subgroups: mixed triples must expand (Case 3.2 -> 1)
    (r1, psi1), (r2, psi2) = rows[0], next(
        (rp for rp in consistent if rp[1].label() != label), rows[0])
    if psi1.label() != psi2.label():
        sets1 = densemodel.level_sets(ctx.models[(r1["k"], 1)], ctx.models[(r1["k"], -1)], eps)
        sets2 = densemodel.level_sets(ctx.models[(r2["k"], 1)], ctx.models[(r2["k"], -1)], eps)
        out = setcomb.triple_conv_classify(G, sets1.plus, sets2.plus, sets1.plus, eps)
        if out.branch in (setcomb.EXPANDS, setcomb.BOTH):
            return CaseReport("Case3.2->1", {"k_pair": (r1["k"], r2["k"]),
                                             "min_conv": out.witnesses["min_conv"]}, per_k)
    return CaseReport("Undetermined", {"reason": "mixed triples did not certify"}, per_k)
