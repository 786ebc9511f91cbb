"""Top-level reproductions: the sign-witness sets E^Delta(x), the exact
threshold R(h;q) with witness tables, the sparse/dense counting functions S
and T, their comparison, the squarefree-loss accounting, the case-analysis
driver, and the theorem audit.

S and T are sums over terms: three f-supports, named by their (k, delta)
keys, times the factor sets p, u and, on the ladder, m, over the term's S
normalizer.  The single-interval variant is one term, the e-adic ladder one
term per k-triple.  Three evaluators take any term list: S by an exact class
join, S by the character expansion (the join's independent oracle), and T.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, asdict
from types import MappingProxyType

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

@dataclass(eq=False)
class RFunctionResult:
    """R(h; q) and its witnesses, read once from `first`, the read-only (q, 2)
    first-hit table of _scan_block: class a's first squarefree witness of
    sign +1 in column 0 and of -1 in column 1 (see _scan_setup)."""

    q: int
    cap: int
    first: np.ndarray
    complete: bool = field(init=False)
    R_value: int | None = field(init=False)

    def __post_init__(self):
        self.first.flags.writeable = False
        hits = _hits(self.first)
        # the cells off the units hold 0: complete when all 2 phi unit cells are hits
        self.complete = bool(np.count_nonzero(hits) == 2 * arith.euler_phi(self.q))
        self.R_value = int(self.first.max(initial=0, where=hits)) if self.complete else None

    @functools.cached_property
    def witnesses(self) -> MappingProxyType:
        """Read-only class -> {sign: witness} view of the hits."""
        view: dict[int, dict[int, int]] = {}
        rows, cols = np.nonzero(_hits(self.first))
        for a, col, n in zip(rows.tolist(), cols.tolist(), self.first[rows, cols].tolist()):
            view.setdefault(a, {})[1 - 2 * col] = n
        return MappingProxyType({a: MappingProxyType(d) for a, d in view.items()})

    def as_dict(self) -> dict:
        return {"q": self.q, "cap": self.cap, "R": self.R_value, "complete": self.complete,
                "witnesses": {str(a): {("+" if s > 0 else "-"): n for s, n in d.items()}
                              for a, d in sorted(self.witnesses.items())}}


# first-hit tables hold this where a (class, sign) pair has no witness yet,
# and 0 off the units and where h cannot take that sign on the class
_NO_HIT = np.iinfo(np.int64).max
# a verify's passes (_passes): groups of about _VERIFY_GROUP classes, ranges
# of _VERIFY_BLOCK classes, and at most _VERIFY_BLOCK members per oracle call
_VERIFY_GROUP = 1 << 13
_VERIFY_BLOCK = 1 << 18


def _hits(first: np.ndarray) -> np.ndarray:
    """Where a first-hit table holds a witness."""
    return (first > 0) & (first < _NO_HIT)


def _scan_setup(h, G: group_mod.UnitGroup) -> np.ndarray:
    """What _scan_block reads of a unit group: an empty (q, 2) first-hit
    table.  Its unit cells hold _NO_HIT; the cells off the units hold 0, and
    so does a sign h cannot take on a unit class, so the class is complete
    without it: the -1 column of h = one, and, for a real character h whose
    modulus divides q, the sign it does not take on each class."""
    first = np.zeros((G.q, 2), dtype=np.int64)
    first[G.units] = _NO_HIT
    if h.kind == "one":
        first[G.units, 1] = 0
    elif h.kind == "character" and G.q % h.character.group.q == 0:
        table = h.character.real_sign_table()
        first[G.units, (table[G.units % h.character.group.q] > 0).astype(np.int64)] = 0
    return first


def _scan_block(h, tables, caps) -> list[np.ndarray]:
    """First squarefree witness per (class, sign) for a block of moduli.

    tables holds one empty first-hit table per modulus (_scan_setup), which
    the scan fills in place.  One stream of factor_window segments, (0, 2^12]
    and then doubling up to 2^18 integers, serves every q of the block: each
    integer is sieved once per block and memory holds one segment.  Each
    pending q records its first hits with one scatter (np.minimum.at) of the
    segment's squarefree integers with nonzero sign into its (q, 2) table,
    cell (n mod q, 0) for sign +1 and (n mod q, 1) for -1, with no unit mask:
    a cell that starts at 0 stays 0.  A q leaves the stream once no cell
    holds _NO_HIT, that is once every unit class holds every sign h can take
    on it, or once the stream has passed its cap.  Returns the tables.
    """
    if any(cap < 1 for cap in caps):
        raise DomainError("cap must be >= 1")
    pending = list(range(len(tables)))
    lo = 0
    chunk = 1 << 12
    while pending:
        hi = min(lo + chunk, max(caps[i] for i in pending))
        wf = arith.factor_window(lo, hi)
        signs = h.signs(wf)
        pos = np.flatnonzero(wf.squarefree & (signs != 0))
        ns = pos + (lo + 1)
        neg = (signs[pos] < 0).astype(np.int64)
        still = []
        for i in pending:
            first, cap = tables[i], caps[i]
            k = ns.size if cap >= hi else int(np.searchsorted(ns, cap, side="right"))
            cells = ns[:k] % len(first)
            cells *= 2
            cells += neg[:k]
            np.minimum.at(first.reshape(-1), cells, ns[:k])
            if cap > hi and (first == _NO_HIT).any():
                still.append(i)
        pending = still
        lo = hi
        chunk = min(chunk * 2, 1 << 18)
    return tables


def E_sets(h, q: int, x: int) -> tuple[set[int], set[int]]:
    """E^+(x), E^-(x): classes holding a squarefree witness of each sign."""
    if x < 1:
        raise DomainError("x must be >= 1")
    hits = _hits(_scan_block(h, [_scan_setup(h, group_mod.UnitGroup(q))], [x])[0])
    return set(np.flatnonzero(hits[:, 0]).tolist()), set(np.flatnonzero(hits[:, 1]).tolist())


def R_block(h, qs, caps):
    """R(h; q) with its witness table for each q of a block, in the order of qs.

    Every q is scanned by one shared stream (_scan_block) until its witness
    table holds every (class, sign) pair h can take or the stream passes its
    cap.  Each q's unit group is built once, for its empty table, and dropped
    before the scan.  The scan runs at once; the returned iterator wraps its
    tables.
    """
    qs, caps = list(qs), list(caps)
    tables = [_scan_setup(h, group_mod.UnitGroup(q)) for q in qs]
    return map(RFunctionResult, qs, caps, _scan_block(h, tables, caps))


def R_of_h_q(h, q: int, cap: int) -> RFunctionResult:
    """Minimal N <= cap with E^+(N) = E^-(N) = Z_q^x, with witness table.

    Returns R_value None when some (class, sign) pair has no squarefree
    witness below cap, as for a real character h whose modulus divides q.
    This is R_block for the block of one q.
    """
    return next(R_block(h, [q], [cap]))


def verify_witnesses(result: RFunctionResult, h, read=None) -> bool:
    """Independent re-check of a witness table: squarefree, class, sign,
    minimality.

    Each class a is read once, with its members a, a + q, ... (from q when
    a = 0) up to its later hit: a hit n of sign s must be squarefree of sign
    s and no earlier member may be.  A hit outside its class flags the class
    with no member read.  The members' signs come from h.squarefree_signs:
    trial division, not the window sieve the scan used.  A member where h
    vanishes is a witness of neither sign.  read holds the table's class
    flags, one array per pass that read it (_passes); verify_block passes
    the table's slices of its group passes.
    """
    if read is None:
        read = (flags for _, flags in _passes([result], h))
    return not any(flags.any() for flags in read)


def verify_block(results, h) -> list[bool]:
    """verify_witnesses for each table of a block, in the order of results,
    each called on the table's slices of the shared passes (_passes)."""
    results = list(results)
    return [verify_witnesses(results[t], h, (flags for _, flags in pieces))
            for t, pieces in itertools.groupby(_passes(results, h), operator.itemgetter(0))]


def _passes(results, h):
    """(table index, class flags) for each table range read, in table order.

    Tables of at most _VERIFY_GROUP classes are read whole, in groups of
    consecutive tables that close once they hold _VERIFY_GROUP classes; a
    larger table is read on its own, in ranges of _VERIFY_BLOCK classes.
    Each group or range is one flat pass (_read_classes).
    """
    def read(ranges):
        if not ranges:
            return
        flags = _read_classes([(results[t], lo, hi) for t, lo, hi in ranges], h)
        for t, lo, hi in ranges:
            yield t, flags[:hi - lo]
            flags = flags[hi - lo:]

    group, rows = [], 0
    for t, res in enumerate(results):
        if res.q > _VERIFY_GROUP:
            yield from read(group)
            group, rows = [], 0
            for lo in range(0, res.q, _VERIFY_BLOCK):
                yield from read([(t, lo, min(res.q, lo + _VERIFY_BLOCK))])
            continue
        group.append((t, 0, res.q))
        rows += res.q
        if rows >= _VERIFY_GROUP:
            yield from read(group)
            group, rows = [], 0
    yield from read(group)


def _read_classes(ranges, h) -> np.ndarray:
    """One flat pass: the flags of the classes lo..hi-1 of each table range
    (res, lo, hi), concatenated.

    The ranges' rows are concatenated, and each class's members are expanded
    once, up to its later hit, at most _VERIFY_BLOCK at a time, with one
    h.squarefree_signs call each.  A class is flagged when a hit lies
    outside it, when a member before a hit has the hit's sign, or when a hit
    lacks its sign.
    """
    sizes = np.array([hi - lo for _, lo, hi in ranges], dtype=np.int64)
    n = np.concatenate([res.first[lo:hi] for res, lo, hi in ranges])
    n[~_hits(n)] = 0
    q = np.repeat([res.q for res, _, _ in ranges], sizes)
    a = np.arange(len(n)) - np.repeat(np.cumsum(sizes) - sizes
                                      - [lo for _, lo, _ in ranges], sizes)
    flags = ((n > 0) & ((n - a[:, None]) % q[:, None] != 0)).any(axis=1)
    last = np.where(flags, 0, n.max(axis=1, initial=0))
    ends = np.cumsum(np.where(last > 0, (last - np.where(a > 0, a, q)) // q + 1, 0))
    base = last - q * (ends - 1)   # member k of class r is base[r] + q[r] k
    a = last = None   # the windows read only n, q, ends and base
    total = int(ends[-1])
    for k0 in range(0, total, _VERIFY_BLOCK):
        k1 = min(total, k0 + _VERIFY_BLOCK)
        r0 = int(np.searchsorted(ends, k0, side="right"))
        r1 = int(np.searchsorted(ends, k1 - 1, side="right")) + 1
        reps = np.diff(np.minimum(ends[r0:r1], k1), prepend=k0)
        m = np.repeat(q[r0:r1], reps)
        m *= np.arange(k0, k1)
        m += np.repeat(base[r0:r1], reps)
        s = h.squarefree_signs(m)
        wrong = np.zeros(k1 - k0, dtype=bool)
        for col, sign in ((0, 1), (1, -1)):
            hit = np.repeat(n[r0:r1, col], reps)
            wrong |= (m <= hit) & ((s == sign) != (m == hit))
        flags[np.searchsorted(ends, k0 + np.flatnonzero(wrong), side="right")] = True
    return flags


# ---------------------------------------------------------------------------
# theorem audit

def theorem_audit(h, q: int, Q1: float, c: float,
                  pretend_cutoff: float | None = None) -> dict:
    """Which side of the sign-change dichotomy holds at this finite scale.

    Branch 1: R(h;q) <= q^2 Q1 (exact capped scan).  Branch 2: some real
    character chi mod q has pretend sum <= c / Q1^(1/100) (cutoff sqrt(q)
    by default).  Verdict is branch1 / branch2 / both / neither.
    """
    return next(audit_block(h, [q], Q1, c, pretend_cutoff))


def audit_block(h, qs, Q1: float, c: float,
                pretend_cutoff: float | None = None):
    """theorem_audit for each q of a block; the R scans share one stream.
    Each q's unit group is built once and gives the labels of its real
    characters, their signs at the primes up to its cutoff and its empty
    table; it is dropped before the scan.  The pretend sums of the block
    read h once per prime (multfunc.pretend_sums).  The scan and the sums
    run at once; the returned iterator builds each q's row, pretend table
    included, when it is read."""
    qs = list(qs)
    caps = [int(q * q * Q1) for q in qs]
    cutoffs = [pretend_cutoff if pretend_cutoff is not None else math.sqrt(q) for q in qs]
    ps = arith.primes_upto(int(max(cutoffs, default=0)))
    labels, signs, tables = [], [], []
    for q, cutoff in zip(qs, cutoffs):
        G = group_mod.UnitGroup(q)
        labels.append([chi.label() for chi in G.real_characters()])
        signs.append(G.real_signs(ps[:int(np.searchsorted(ps, int(cutoff), side="right"))]))
        tables.append(_scan_setup(h, G))
    G = None   # no group is held during the scan
    first = _scan_block(h, tables, caps)

    def row(q, cap, cutoff, qlabels, sums, table) -> dict:
        sums = sums.tolist()
        best = min(sums, default=math.inf)
        R = RFunctionResult(q, cap, table).R_value
        branch1 = R is not None
        branch2 = multfunc.pretend_condition_holds(best, c, Q1)
        verdict = {(True, True): "both", (True, False): "branch1",
                   (False, True): "branch2", (False, False): "neither"}[(branch1, branch2)]
        return {"q": q, "Q1": Q1, "c": c, "cap": cap, "verdict": verdict,
                "R": R, "pretend_cutoff": cutoff, "min_pretend_sum": best,
                "pretend_table": [{"character": label, "pretend_sum": s,
                                   "principal": j == 0}
                                  for j, (label, s) in enumerate(zip(qlabels, sums))]}

    return map(row, qs, caps, cutoffs, labels, multfunc.pretend_sums(h, ps, signs), first)


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
    supports: dict[tuple[int, int], np.ndarray]   # (k, delta) -> rough interval points
    squarefree: dict[tuple[int, int], np.ndarray]   # (k, delta) -> their squarefree flags
    interval_counts: dict[int, int]  # k -> |[I_R(k)]_q|
    models: dict[tuple[int, int], densemodel.DenseModel]


def build_context(h, q: int, params: ParamSet, ks=None) -> SignContext:
    """f-supports with their window's squarefree flags, and dense models, per index k."""
    G = group_mod.build_unit_group(q)
    if ks is None:
        ks = (0,) if params.easy_mode else tuple(range(-params.K, params.K + 1))
    norm = arith.mertens_product(params.z, q, inverse=True)
    supports, squarefree, counts, models = {}, {}, {}, {}
    for k in ks:
        iv = params.interval(k)
        counts[k] = arith.count_units_in_interval(iv, q)[0]
        if not counts[k]:
            raise DomainError(f"[I]_q is empty for I=({iv.lo}, {iv.hi}], q={q}")
        for delta, (supp, sqf) in charsums.f_support(G, h, params.z, iv).items():
            supports[(k, delta)] = supp
            squarefree[(k, delta)] = sqf
            f_hat = charsums.all_char_sums(G, supp, np.full(len(supp), norm)) / counts[k]
            models[(k, delta)] = densemodel.build_dense_model(
                G, f_hat, params.delta, eta=params.epsilon**2,
                source=f"f^{'+' if delta > 0 else '-'}_k={k}(h={h.name}, q={q})")
    return SignContext(h, q, params, G, norm, supports, squarefree, counts, models)


def _unit_class(q: int, a: int) -> int:
    """a mod q, the class S and T count at; it must be a unit."""
    if math.gcd(a, q) != 1:
        raise DomainError(f"the class a = {a} is not a unit mod {q}")
    return a % q


def _project(G: group_mod.UnitGroup, a: int, prod_over_chars: np.ndarray) -> float:
    """(1/phi) sum_chi chi(a) prod(chi), the inverse transform at the unit class a."""
    values = group_mod.fourier_inverse(G, prod_over_chars)
    return float(values[G.unit_pos[a]].real / G.phi)


# hits expanded at once by the class join, and the most cells of one of its
# coprimality tables; bounds its memory
_JOIN_HITS = 1 << 16


def _rows(lists: list[np.ndarray], squarefree: list[np.ndarray], coprime, part: range,
          rows: np.ndarray, q: int):
    """The given rows of the grid over lists[part] (C order): their indices
    into each of those lists, the class of their product mod q, and if they
    are squarefree and pairwise coprime (coprime(i, j, u, v), i < j)."""
    idx = np.unravel_index(rows, tuple(len(lists[j]) for j in part))
    cls = np.ones(len(rows), dtype=np.int64)
    clean = np.ones(len(rows), dtype=bool)
    for j, v in zip(part, idx):
        cls = cls * (lists[j][v] % q) % q
        clean &= squarefree[j][v]
        for i, u in zip(part, idx[:j - part.start]):
            clean &= coprime(i, j, u, v)
    return idx, cls, clean


def _class_join(G: group_mod.UnitGroup, a: int, lists, squarefree) -> tuple[int, int]:
    """(count, loss): the number of tuples (x_1, ..., x_k), x_i from the i-th
    list of units (int64 arrays), with x_1 ... x_k = a mod q, and the number
    of those whose product is not squarefree.  squarefree[i] holds the bool
    flags of lists[i].

    Exact direct enumeration arranged as a join on classes.  The lists split
    into a left and a right grid of balanced sizes; the right grid is sorted
    by class, and each left row of class c finds the right rows of class
    a c^-1 by binary search.  Every hit is tested: all parts squarefree and
    pairwise coprime (a running product of the parts could overflow int64).
    Coprimality is read from one flat table per pair of lists i < j,
    gcd(lists[i][u], lists[j][v]) == 1 at u len(lists[j]) + v, built once
    per call; a pair whose table would hold more than _JOIN_HITS cells is
    tested by np.gcd on the hits' parts instead.  Left rows are taken in
    blocks of at most _JOIN_HITS hits (or one row), so memory does not grow
    with the tuple count.
    """
    q = G.q
    sizes = [len(x) for x in lists]
    tables = {(i, j): np.gcd.outer(lists[i], lists[j]).ravel() == 1
              for i, j in itertools.combinations(range(len(lists)), 2)
              if sizes[i] * sizes[j] <= _JOIN_HITS}

    def coprime(i, j, u, v):
        table = tables.get((i, j))
        if table is None:
            return np.gcd(lists[i][u], lists[j][v]) == 1
        return table[u * sizes[j] + v]

    s = min(range(1, len(lists)),
            key=lambda i: max(math.prod(sizes[:i]), math.prod(sizes[i:])))
    left_part, right_part = range(s), range(s, len(lists))
    right, right_cls, right_clean = _rows(lists, squarefree, coprime, right_part,
                                          np.arange(math.prod(sizes[s:])), q)
    order = np.argsort(right_cls, kind="stable")
    right_cls, right_clean = right_cls[order], right_clean[order]
    right = [v[order] for v in right]
    inverse = np.zeros(q, dtype=np.int64)
    inverse[G.units] = G.units[G.inverse_pos()]
    block = max(1, _JOIN_HITS // int(np.bincount(right_cls).max()))
    n_left = math.prod(sizes[:s])
    count = loss = 0
    for first in range(0, n_left, block):
        left, cls, clean = _rows(lists, squarefree, coprime, left_part,
                                 np.arange(first, min(first + block, n_left)), q)
        want = a * inverse[cls] % q
        lo = np.searchsorted(right_cls, want, side="left")
        hits = np.searchsorted(right_cls, want, side="right") - lo
        total = int(hits.sum())
        if total == 0:
            continue
        li = np.repeat(np.arange(len(cls)), hits)
        ri = np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(total)
        ok = clean[li] & right_clean[ri]
        for i, u in zip(left_part, left):
            u = u[li]
            for j, v in zip(right_part, right):
                ok &= coprime(i, j, u, v[ri])
        count += total
        loss += total - int(np.count_nonzero(ok))
    return count, loss


# ---------------------------------------------------------------------------
# S and T: one term engine

@dataclass(eq=False)
class _Factor:
    """A factor set of a term, squarefree by construction, with its
    normalizer: Q1 for p, R (or U e^-k1) for u, M e^(-k2-k3) for m."""

    G: group_mod.UnitGroup
    values: np.ndarray
    norm: float

    @functools.cached_property
    def sums(self) -> np.ndarray:
        """Its character sums, built once for every term that shares it."""
        return charsums.all_char_sums(self.G, self.values)


# the three (k, delta) keys of ctx.supports, the _Factors, the S normalizer
_Term = collections.namedtuple("_Term", "f_keys factors S_norm")


def _easy_terms(ctx: SignContext, B2, B3, deltas) -> list[_Term]:
    """(r1, r2, r3, p, u), every r in I_R(0), over |[I_R]_q|^3 Q1 R."""
    d1, d2, d3 = deltas
    G, h, pm = ctx.G, ctx.h, ctx.params
    p = _Factor(G, charsums.q_set(G, h, pm.Q1, B2, d2), pm.Q1)
    u = _Factor(G, charsums.u_set_easy(G, h, pm.R, B3, d3), pm.R)
    return [_Term(((0, d1),) * 3, (p, u), ctx.interval_counts[0] ** 3 * pm.Q1 * pm.R)]


def _general_terms(ctx: SignContext, B4, B5, B6, deltas, kset) -> list[_Term]:
    """(r1, r2, r3, p, u, m) per k-triple: r_i in I_R(k_i), u in I_U(-k1),
    m in I_M(-k2-k3); triples with the same index share their u or m set."""
    d1, d2, d3, d4, d5, d6 = deltas
    G, h, pm = ctx.G, ctx.h, ctx.params
    p = _Factor(G, charsums.q_set(G, h, pm.Q1, B4, d4), pm.Q1)
    u = functools.cache(lambda v: _Factor(G, charsums.u_set(G, h, pm.U, v, B5, d5),
                                          pm.U * math.exp(v)))
    m = functools.cache(lambda v: _Factor(G, charsums.m_set(G, h, pm.M, v, pm.ladder, B6, d6),
                                          pm.M * math.exp(v)))
    return [_Term(((k1, d1), (k2, d2), (k3, d3)), (p, u(-k1), m(-k2 - k3)),
                  pm.interval(k1).length * pm.interval(k2).length * pm.interval(k3).length
                  * pm.Q1 * pm.U * math.exp(-k1) * pm.M * math.exp(-k2 - k3))
            for k1, k2, k3 in kset]


def _s_direct(ctx: SignContext, a: int, terms: list[_Term], budget: int) -> tuple[float, dict]:
    """S(a) by the class join of each term, with extras: the tuples of all
    terms, the exact count and the squarefree-loss part of S.  More than
    `budget` tuples raise ResourceError before any join."""
    a = _unit_class(ctx.q, a)
    lists = [[ctx.supports[k] for k in t.f_keys] + [f.values for f in t.factors] for t in terms]
    tuples = sum(math.prod(map(len, x)) for x in lists)
    if tuples > budget:
        raise ResourceError(f"{tuples} tuples exceed the budget {budget}")
    value, loss, count = 0.0, 0.0, 0
    for t, x in zip(terms, lists):
        if all(map(len, x)):
            flags = [ctx.squarefree[k] for k in t.f_keys] + [np.ones(len(f.values), bool)
                                                             for f in t.factors]
            c, lost = _class_join(ctx.G, a, x, flags)
            value += ctx.norm**3 * c / t.S_norm
            loss += ctx.norm**3 * lost / t.S_norm
            count += c
    return value, {"tuples": tuples, "count": count, "loss": loss}


def _s_chars(ctx: SignContext, a: int, terms: list[_Term]) -> float:
    """S(a) by the character expansion: per term, the product of the sums of
    its supports and factor sets, projected at a, over its S normalizer."""
    a = _unit_class(ctx.q, a)
    F = {k: charsums.all_char_sums(ctx.G, ctx.supports[k]) * ctx.norm
         for k in {k for t in terms for k in t.f_keys}}
    return sum((_project(ctx.G, a, functools.reduce(
        operator.mul, [F[k] for k in t.f_keys] + [f.sums for f in t.factors])) / t.S_norm
        for t in terms), 0.0)


def _t_dense(ctx: SignContext, a: int, terms: list[_Term]) -> float:
    """T(a): per term, the product of the dense models' g_hat and of the
    factor sets' sums over their normalizers, summed and projected at a."""
    a = _unit_class(ctx.q, a)
    return _project(ctx.G, a, sum((functools.reduce(operator.mul, [
        ctx.models[k].g_hat for k in t.f_keys] + [f.sums / f.norm for f in t.factors])
        for t in terms), np.zeros(ctx.G.phi, dtype=complex)))


def s_function_easy(ctx: SignContext, a: int, B2, B3, deltas: tuple[int, int, int],
                    budget: int = 10**8) -> tuple[float, dict]:
    """S(a) by direct enumeration of (r1, r2, r3, p, u) quintuples (_s_direct)."""
    return _s_direct(ctx, a, _easy_terms(ctx, B2, B3, deltas), budget)


def s_function_easy_chars(ctx: SignContext, a: int, B2, B3,
                          deltas: tuple[int, int, int]) -> float:
    """The same S(a) through the character expansion (independent route)."""
    return _s_chars(ctx, a, _easy_terms(ctx, B2, B3, deltas))


def t_function_easy(ctx: SignContext, a: int, B2, B3,
                    deltas: tuple[int, int, int]) -> float:
    """T(a) = (g*g*g*1_Q*1_U)(a) / (phi^3 Q1 R), via the character route."""
    return _t_dense(ctx, a, _easy_terms(ctx, B2, B3, deltas))


def st_compare_easy(ctx: SignContext, a: int, B2, B3,
                    deltas: tuple[int, int, int]) -> charsums.SumReport:
    """|S - T| against 1/q^(1+eps/50) + |U|/(R phi log^(5/4) q) (report only)."""
    terms = _easy_terms(ctx, B2, B3, deltas)
    s_val, t_val = _s_chars(ctx, a, terms), _t_dense(ctx, a, terms)
    u_count = len(terms[0].factors[1].values)
    shape = ctx.q ** -(1 + ctx.params.epsilon / 50) + \
        u_count / (ctx.params.R * ctx.G.phi * math.log(ctx.q) ** 1.25)
    return charsums.SumReport.make(abs(s_val - t_val), shape, asserted=False,
                                   tag="sparse-dense-comparison",
                                   S=s_val, T=t_val)


def s_function_general(ctx: SignContext, a: int, B4, B5, B6,
                       deltas: tuple[int, int, int, int, int, int],
                       kset, budget: int = 10**8) -> tuple[float, dict]:
    """S(a) over k-triples: direct enumeration of (r1, r2, r3, p, u, m)."""
    return _s_direct(ctx, a, _general_terms(ctx, B4, B5, B6, deltas, kset), budget)


def s_function_general_chars(ctx: SignContext, a: int, B4, B5, B6, deltas,
                             kset) -> float:
    return _s_chars(ctx, a, _general_terms(ctx, B4, B5, B6, deltas, kset))


def t_function_general(ctx: SignContext, a: int, B4, B5, B6, deltas, kset) -> float:
    return _t_dense(ctx, a, _general_terms(ctx, B4, B5, B6, deltas, kset))


def st_compare_general(ctx: SignContext, a: int, B4, B5, B6, deltas,
                       kset) -> charsums.SumReport:
    """|S - T| against the ladder comparison shape (report only)."""
    terms = _general_terms(ctx, B4, B5, B6, deltas, kset)
    s_val, t_val = _s_chars(ctx, a, terms), _t_dense(ctx, a, terms)
    q, pm, logq = ctx.q, ctx.params, math.log(ctx.q)
    gcd_part = math.gcd(q, math.prod(
        int(p) for p in arith.primes_upto(int(pm.Q1)) if q % int(p) == 0) or 1)
    ratio_gcd = gcd_part / arith.euler_phi(gcd_part)
    u_by_k1 = {t.f_keys[0][0]: t.factors[1] for t in terms}
    u_term = sum(len(u.values) / u.norm for _, u in sorted(u_by_k1.items()))
    shape = (pm.Q1 ** (-1 / 90) / q * (ctx.G.phi / q) * logq**3
             + logq**1.75 / (q * math.log(pm.Q1) ** 2) * ratio_gcd * u_term)
    return charsums.SumReport.make(abs(s_val - t_val), shape, asserted=False,
                                   tag="sparse-dense-comparison-ladder",
                                   S=s_val, T=t_val)


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
        if not len(A):
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
        overlap, rep = setcomb.coset_overlaps(G, A)
        j = next((j for j in range(1, len(overlap))
                  if overlap[j] >= len(A) - eps * phi / 2), None)
        psi = G.real_characters()[j or 0]
        out[tag] = {"branch": "undetermined", "min_conv": min_all} if j is None else {
            "branch": "coset", "psi": psi.label(), "H": psi.kernel(), "rep": int(rep[j]),
            "overlap": int(overlap[j])}
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
    ctx = build_context(h, q, params)
    ks = tuple(ctx.interval_counts)
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
    index = {chi.label(): j for j, chi in enumerate(G.real_characters())}
    consistent = []   # (row, label of its common psi), the two reps on opposite cosets
    for r in coset_ks:
        label = r["+"]["psi"]
        if label != r["-"]["psi"]:
            continue
        s_plus, s_minus = G.real_signs([r["+"]["rep"], r["-"]["rep"]], index[label])
        if s_plus != s_minus:
            consistent.append((r, label))
    if not consistent:
        return CaseReport("Undetermined",
                          {"reason": "coset certificates disagree (H+ != H- or equal cosets)"},
                          per_k)
    by_psi: dict[str, list] = {}
    for r, label in consistent:
        by_psi.setdefault(label, []).append(r)
    label, rows = max(by_psi.items(), key=lambda kv: len(kv[1]))
    if len(rows) * 2 >= len(coset_ks):
        r0 = rows[0]
        return CaseReport("Case3.1", {"psi": label,
                                      "H": G.real_characters()[index[label]].kernel(),
                                      "b_plus": r0["+"]["rep"], "b_minus": r0["-"]["rep"]},
                          per_k)
    # distinct subgroups: mixed triples must expand (Case 3.2 -> 1)
    r1 = rows[0]
    r2 = next((r for r, other in consistent if other != label), None)
    if r2 is not None:
        sets1 = densemodel.level_sets(ctx.models[(r1["k"], 1)], ctx.models[(r1["k"], -1)], eps)
        sets2 = densemodel.level_sets(ctx.models[(r2["k"], 1)], ctx.models[(r2["k"], -1)], eps)
        out = setcomb.triple_conv_classify(G, sets1.plus, sets2.plus, sets1.plus, eps)
        if out.branch in (setcomb.EXPANDS, setcomb.BOTH):
            return CaseReport("Case3.2->1", {"k_pair": (r1["k"], r2["k"]),
                                             "min_conv": out.witnesses["min_conv"]}, per_k)
    return CaseReport("Undetermined", {"reason": "mixed triples did not certify"}, per_k)
