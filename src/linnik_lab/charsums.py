"""Character-sum functionals: the sign-restricted interval transforms, prime
and squarefree-unit sets, the prime-factor ladder and its membership set, the
Ramare-type decomposition, the Polya-Vinogradov window sup, and the
mean-value / large-value / amplification checks.

Only the mean value theorem and the Ramare identity are asserted here (their
constants are explicit); every other bound shape is reported as a measured
ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith
from . import group as group_mod
from .errors import DomainError, PreconditionError

# ---------------------------------------------------------------------------
# reports

@dataclass
class SumReport:
    lhs: float
    rhs_shape: float
    ratio: float
    asserted: bool
    ok: bool | None = None
    tag: str = ""
    extra: dict = field(default_factory=dict)

    @classmethod
    def make(cls, lhs, rhs, asserted=False, ok=None, tag="", **extra):
        lhs = float(lhs)
        rhs = float(rhs)
        ratio = lhs / rhs if rhs else (math.inf if lhs else 0.0)
        return cls(lhs, rhs, ratio, asserted, ok, tag, dict(extra))


# ---------------------------------------------------------------------------
# batched character sums via class collapse

def class_weights(G: group_mod.UnitGroup, ns, weights=None) -> np.ndarray:
    """Collapse weighted integers onto unit classes (non-units dropped)."""
    pos = G.unit_pos[np.asarray(ns, dtype=np.int64).reshape(-1) % G.q]
    keep = pos >= 0
    w = (np.ones(len(pos)) if weights is None else np.asarray(weights))[keep]
    out = np.bincount(pos[keep], weights=w.real, minlength=G.phi).astype(complex)
    if np.iscomplexobj(w):
        out.imag = np.bincount(pos[keep], weights=w.imag, minlength=G.phi)
    return out


def all_char_sums(G: group_mod.UnitGroup, ns, weights=None, conj: bool = True) -> np.ndarray:
    """sum_i w_i chi~(n_i) for every character chi (chi~ = conj by default),
    by row: one class collapse and one FFT."""
    return group_mod.transform(G, class_weights(G, ns, weights), conj=conj)


# ---------------------------------------------------------------------------
# coset membership

def _coset_mask(B, G: group_mod.UnitGroup, ns: np.ndarray) -> np.ndarray:
    """Membership of integers in B (a CosetSpec, or None for all of G)."""
    unit = G.unit_pos[ns % G.q] >= 0
    return unit if B is None else unit & B.member_mask(ns)


# ---------------------------------------------------------------------------
# sign-restricted interval transforms f^Delta

def f_support(G: group_mod.UnitGroup, h, z: float,
              interval: arith.IntegerInterval) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Integers of [I]_q that are z-rough, split by sign of h: {+1: (the
    integers, their squarefree flags), -1: (...)}, all from one window sieve."""
    lo, hi = interval.ilo, interval.ihi
    if hi <= lo:
        raise DomainError("empty interval")
    wf = arith.factor_window(lo, hi)
    ns = wf.ns
    signs = h.signs(wf)
    keep = _coset_mask(None, G, ns) & wf.rough(z)
    if np.any(keep & (signs == 0)):
        raise DomainError("h vanishes on a unit of the interval")
    return {d: (ns[keep & (signs == d)], wf.squarefree[keep & (signs == d)])
            for d in (1, -1)}


# ---------------------------------------------------------------------------
# the sets Q, U, M and their normalized character sums

def _signed_primes(G: group_mod.UnitGroup, h, lo: float, hi: float, B,
                   delta: int | None) -> np.ndarray:
    """Primes p in (lo, hi] with p in B and sgn(h(p)) = delta (any sign when
    delta is None; a prime where h vanishes has neither sign)."""
    ps = arith.primes_in(lo, hi)
    mask = _coset_mask(B, G, ps)
    if delta is not None:
        mask &= h.prime_signs(ps) == delta
    return ps[mask]


def q_set(G: group_mod.UnitGroup, h, Q1: float, B=None, delta: int | None = None) -> np.ndarray:
    """Primes p in (Q1/e, Q1] with p in B and sgn(h(p)) = delta."""
    return _signed_primes(G, h, Q1 / math.e, Q1, B, delta)


def _squarefree_signed(G, h, lo: int, hi: int, B, delta):
    wf = arith.factor_window(lo, hi)
    ns = wf.ns
    keep = wf.squarefree & _coset_mask(B, G, ns)
    if delta is not None:
        keep &= h.signs(wf) == delta
    return ns[keep]


def u_set_easy(G, h, R: float, B=None, delta=None) -> np.ndarray:
    """Squarefree u <= R with u in B and sign delta."""
    return _squarefree_signed(G, h, 0, arith.snap(R), B, delta)


def u_set(G, h, U: float, v: int, B=None, delta=None) -> np.ndarray:
    """Squarefree u in I_U(v) with u in B and sign delta."""
    iv = arith.IntegerInterval.e_adic(U, v)
    return _squarefree_signed(G, h, iv.ilo, iv.ihi, B, delta)


def m_set(G, h, M: float, v: int, ladder: "LadderSpec", B=None, delta=None) -> np.ndarray:
    """Squarefree m in I_M(v), m in the ladder set S, (m, P(Q1)) = 1, sign delta."""
    iv = arith.IntegerInterval.e_adic(M, v)
    lo, hi = iv.ilo, iv.ihi
    wf = arith.factor_window(lo, hi)
    ns = wf.ns
    keep = wf.squarefree & wf.rough(ladder.Q1) & _coset_mask(B, G, ns)
    if delta is not None:
        keep &= h.signs(wf) == delta
    for P, Q in ladder.intervals:
        keep &= wf.count_in(P, Q) > 0
    return ns[keep]


# ---------------------------------------------------------------------------
# ladder

@dataclass(frozen=True)
class LadderSpec:
    """Widening prime-factor intervals (P_j, Q_j], j = 2..J (possibly none)."""

    Q1: float
    J: int
    intervals: tuple[tuple[float, float], ...]
    overridden: bool = False

    def interval(self, j: int) -> tuple[float, float]:
        if not 2 <= j <= self.J:
            raise DomainError(f"j must lie in [2, J]={self.J}")
        return self.intervals[j - 2]


def ladder_build(Q1: float, q: int, overrides=None) -> LadderSpec:
    """Ladder intervals; J is maximal with log Q_J <= sqrt(log q).

    P_j = exp(j^(4j) (log Q1)^j) and Q_j = exp(100 j^(4j+2) (log Q1)^j); the
    comparison runs in log space so nothing overflows.  At desk scale the
    formula ladder is empty (J < 2); overrides supply explicit intervals.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if Q1 < 3:
        raise DomainError("Q1 must be >= 3")
    if overrides is not None:
        ivs = [(float(a), float(b)) for a, b in overrides]
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            if not (a < b <= c < d):
                raise DomainError("override intervals must be disjoint and increasing")
        return LadderSpec(Q1, 1 + len(ivs), tuple(ivs), overridden=True)
    logQ1 = math.log(Q1)
    cap = math.sqrt(math.log(q)) if q >= 2 else 0.0
    ivs = []
    j = 2
    while True:
        logPj = j ** (4 * j) * logQ1**j
        logQj = 100 * j ** (4 * j + 2) * logQ1**j
        if logQj > cap:
            break
        ivs.append((math.exp(logPj), math.exp(logQj)))
        j += 1
    return LadderSpec(Q1, 1 + len(ivs), tuple(ivs))


def in_S(n: int, ladder: LadderSpec) -> bool:
    """True iff n has at least one prime factor in every ladder interval."""
    if not ladder.intervals:
        return True
    primes = arith.factorize(n).primes
    return all(any(P < p <= Q for p in primes) for P, Q in ladder.intervals)


# ---------------------------------------------------------------------------
# mean value theorem (asserted) and Halasz-Montgomery report

def _l2(coeffs: np.ndarray) -> float:
    """sum |a_n|^2, added left to right from 0.0."""
    return float(np.cumsum(np.append(0.0, np.abs(coeffs) ** 2))[-1])


def mvt_check(ns, coeffs, N: int, q: int) -> SumReport:
    """Assert (1/phi) sum_chi |sum a_n chi(n)|^2 <= (1 + N/q) sum_{(n,q)=1} |a_n|^2
    for the coefficients a_n = coeffs[i] at the distinct n = ns[i] in [1, N].

    The left side is evaluated exactly by orthogonality as
    sum over classes c of |sum_{n = c} a_n|^2.
    """
    G = group_mod.build_unit_group(q)
    ns, coeffs = np.asarray(ns, dtype=np.int64), np.asarray(coeffs)
    keep = (ns >= 1) & (ns <= N) & _coset_mask(None, G, ns)
    lhs = float(np.sum(np.abs(class_weights(G, ns[keep], coeffs[keep])) ** 2))
    rhs = (1.0 + N / q) * _l2(coeffs[keep])
    ok = lhs <= rhs * (1 + 1e-12) + 1e-12
    if not ok:
        raise AssertionError(f"mean value inequality failed: {lhs} > {rhs}")
    return SumReport.make(lhs, rhs, asserted=True, ok=True, tag="mvt-mean-value")


def halasz_montgomery_report(ns, coeffs, G: group_mod.UnitGroup, rows,
                             N: int, eps: float) -> SumReport:
    """sum_{chi in X} |sum_{n<=N rough} a_n chi(n)|^2 against its bound shape,
    X the characters of G at rows, a_n = coeffs[i] at the distinct n = ns[i].

    Coefficients must be supported on (n, P(q^eps)) = 1; shape is
    (N/log q + N^(2/3) q^(1/9 + 2 eps) |X|) * sum |a_n|^2 (ratio only).
    """
    q = G.q
    if q < 2:
        raise DomainError("q must be >= 2")
    z = q**eps
    ns, coeffs = np.asarray(ns, dtype=np.int64), np.asarray(coeffs)
    if ns.size:
        if ns.min() < 1:
            raise DomainError("coefficients are indexed by n >= 1")
        # one window over (0, max n] checks every n
        bad = ns[~arith.factor_window(0, int(ns.max())).rough(z)[ns - 1]]
        if bad.size:
            raise PreconditionError(f"coefficient at n={bad[0]} is not q^eps-rough")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    vals = all_char_sums(G, ns, coeffs, conj=False)[rows]
    lhs = float(np.sum(np.abs(vals) ** 2))
    l2 = _l2(coeffs[_coset_mask(None, G, ns)])
    rhs = (N / math.log(q) + N ** (2 / 3) * q ** (1 / 9 + 2 * eps) * len(rows)) * l2
    return SumReport.make(lhs, rhs, asserted=False, tag="halasz-montgomery-mean",
                          set_size=len(rows))


def large_values_census(a_p, P: float, q: int, alpha: float, C: float = 1.0) -> tuple[int, SumReport]:
    """Exact count of characters with |sum_{P/e<p<=P} a_p chi(p)| >= P^(1-alpha),
    a_p an array rule on the int64 array of those primes (all ones when None).

    Reported against the shape P^(2 alpha) q^(2 alpha + 1/C); not asserted.
    """
    if not P > 0:
        raise DomainError(f"P must be > 0, got {P}")
    if not 0 <= alpha <= 0.5:
        raise DomainError("alpha must lie in [0, 1/2]")
    if not C > 0:
        raise DomainError(f"C must be > 0, got {C}")
    G = group_mod.build_unit_group(q)
    ps = arith.primes_in(P / math.e, P)
    weights = np.ones(len(ps)) if a_p is None else np.asarray(a_p(ps))
    if np.any(np.abs(weights) > 1 + 1e-12):
        raise PreconditionError("coefficients must be 1-bounded")
    vals = all_char_sums(G, ps, weights, conj=False)
    thr = P ** (1 - alpha)
    count = int(np.sum(np.abs(vals) >= thr))
    shape = P ** (2 * alpha) * q ** (2 * alpha + 1 / C)
    return count, SumReport.make(count, shape, asserted=False, tag="prime-sum-large-values",
                                 threshold=thr, n_primes=len(ps))


# ---------------------------------------------------------------------------
# Polya-Vinogradov: the sup of |sum chi(n)| over all windows

# prefix cells per block of characters, and pair distances per step of one
# character's candidates.  A block holds about 110 bytes a cell (64 of them
# its projections), ~0.45 MiB in all, so the sweep stays in cache and adds
# little to a process's peak.
_PV_CELLS = 1 << 12
# directions theta_j = j pi / K the prefix points are projected on
_PV_DIRECTIONS = 8


def _max_pair_distance(points: np.ndarray) -> float:
    """max |z - w| over all pairs of the given complex points, _PV_CELLS
    distances at a time."""
    step = max(1, _PV_CELLS // len(points))
    return max(float(np.abs(points[s:s + step, None] - points[None, :]).max())
               for s in range(0, len(points), step))


def pv_max_windows(G: group_mod.UnitGroup, rows=None) -> np.ndarray:
    """pv_max_window for the character at each row (default: every
    non-principal character, rows 1..phi-1), aligned with rows.

    Blocks of about _PV_CELLS prefix cells: a block's angle table comes from
    G.character_angles, its prefix sums from one np.cumsum along the rows,
    its projections on the K directions from one product, and only each
    complex row's candidates (see pv_max_window) reach the pairwise step.
    """
    if rows is None:
        rows = np.arange(1, G.phi)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if np.any(rows == 0):
        raise DomainError("principal character excluded")
    roots = np.append(G.roots, 0)   # angle -1 (off the units) reads 0
    theta = np.pi * np.arange(_PV_DIRECTIONS) / _PV_DIRECTIONS
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cos_half = math.cos(math.pi / (2 * _PV_DIRECTIONS))
    real = G.orders[rows] <= 2
    out = np.empty(len(rows))
    step = max(1, _PV_CELLS // G.q)
    for s in range(0, len(rows), step):
        prefix = roots[G.character_angles(rows[s:s + step])]
        np.cumsum(prefix, axis=1, out=prefix)
        xy = prefix.view(np.float64).reshape(len(prefix), G.q, 2)
        proj = dirs @ xy.transpose(0, 2, 1)       # (rows, K, q)
        hi, lo = proj.max(axis=2), proj.min(axis=2)
        width = hi - lo
        W = width.max(axis=1, keepdims=True)
        tau = width - W * cos_half + 1e-9 * (1 + W)
        near = ((proj >= (hi - tau)[:, :, None]) | (proj <= (lo + tau)[:, :, None])).any(axis=1)
        del proj   # freed before the next block is built
        for i in range(len(prefix)):
            if real[s + i]:
                re = prefix[i].real
                out[s + i] = float(re.max() - re.min())
            else:
                out[s + i] = _max_pair_distance(np.unique(prefix[i][near[i]]))
    return out


def pv_max_window(chi) -> tuple[float, dict]:
    """Exact sup over all windows (M, M+N] of |sum chi(n)|, chi non-principal:
    the one-row case of pv_max_windows.

    The prefix sums S(n) are q-periodic with zero period sum, so the sup is
    the diameter D of the points S(0), ..., S(q-1) (S(q) = S(q-1), as
    chi(q) = 0).  A real chi takes max - min.  For a complex chi, D is the
    max of |z - w| over the pairs of a few candidate points, chosen so that
    the answer is exact:

    - Project the points on K = _PV_DIRECTIONS directions theta_j = j pi / K:
      p_j(z) = Re(z e^(-i theta_j)), with range [lo_j, hi_j], width w_j and
      W = max_j w_j <= D.
    - Take a diameter pair (a, b), labelled so that b -> a makes an angle
      delta <= pi / 2K with some theta_j.  Then p_j(a) - p_j(b) = D cos(delta)
      >= W cos(pi / 2K).
    - As p_j(b) >= lo_j, p_j(a) >= hi_j - tau_j with tau_j = w_j - W cos(pi / 2K);
      likewise p_j(b) <= lo_j + tau_j.  tau_j <= W (1 - cos(pi / 2K)) <=
      D (1 - cos(pi / 2K)), a band of about 2% of D at K = 8, and a direction
      with tau_j < 0 is near no diameter pair.
    - So both ends of every diameter pair are among the candidates: the
      points within tau_j of hi_j or lo_j for some j.  The margin
      1e-9 (1 + W) added to tau_j is far above the rounding of the
      projections, and it also admits every pair whose distance is within
      that of D, so the max of |z - w| over the candidate pairs (np.unique,
      _PV_CELLS distances at a time) is the float max over all pairs.

    O(q) memory.
    """
    if chi.is_principal:
        raise DomainError("principal character excluded")
    G = chi.group
    best = float(pv_max_windows(G, [G.character_index(chi)])[0])
    return best, {"max_window_sum": best}


# ---------------------------------------------------------------------------
# Ramare-type decomposition (exact identity); a prime p of (P_j, Q_j] lies in
# the w-th ladder subwindow, w = ceil(H_j log p)

def _H_j(j: int, Q1: float) -> float:
    return j**4 * Q1 ** (1 / 40)


def _subwindows(ps: np.ndarray, H: float) -> np.ndarray:
    """w = ceil(H log p) for each prime of the int64 array ps."""
    return np.ceil(H * np.log(ps) - 1e-12).astype(np.int64)


def ramare_decompose(G: group_mod.UnitGroup, h, B, delta: int, v: int, j: int,
                     ladder: LadderSpec, M: float) -> dict:
    """Split M_{B,v}(chi) = Mtilde + E1 + E2 exactly, for every character.

    The marked-prime rewrite distinguishes one prime factor from the j-th
    ladder interval with weight 1/(omega(m; P_j, Q_j) + 1) on the cofactor;
    E1 collects the squarefree-repair terms (products p^2 m), E2 the two
    edge windows created by snapping the cofactor interval.  All five arrays
    are indexed by row; the defect max_chi |M - Mt - E1 - E2| is
    returned and must vanish to ~1e-12.

    The primes p of (P_j, Q_j] prime to q fall into buckets by (w, sgn h(p),
    psi(p)), w = ceil(H_j log p), visited in order of first prime; each adds
    to Mtilde the product of its primes' character sum and that of the
    cofactors in its window with the matching sign and coset.  E1 and E2 are
    one class collapse each over terms listed prime-major, p increasing and m
    ascending for each p: the order of a loop over the primes, so every float
    is added in the same order.

    h must not vanish on a cofactor candidate or a prime of (P_j, Q_j], and
    no such prime may lie below Q1, as it divides no cofactor (DomainError).
    """
    if not M > 0:
        raise DomainError(f"M must be > 0, got {M}")
    q = G.q
    Q1 = ladder.Q1
    P_j, Q_j = ladder.interval(j)
    H = _H_j(j, Q1)
    iv = arith.IntegerInterval.e_adic(M, v)
    n_lo, n_hi = iv.ilo, iv.ihi
    norm = M * math.exp(v)
    psi_table = B.psi.real_sign_table() if B is not None else None
    target = psi_table[B.b % q] if B is not None else 1

    # factorization data for the master window; entry m - 1 describes m
    wf = arith.factor_window(0, n_hi)
    ns = wf.ns
    sign = h.signs(wf)
    coset = psi_table[ns % q] if psi_table is not None else np.ones(n_hi, dtype=np.int8)
    marks = wf.count_in(P_j, Q_j)
    weight = 1.0 / (marks + 1)
    # shared cofactor conditions: squarefree, unit, rough past Q1, in S_j
    cond = wf.squarefree & (G.unit_pos[ns % q] >= 0) & wf.rough(Q1)
    for jj, (P, Q) in enumerate(ladder.intervals, start=2):
        if jj != j:
            cond &= wf.count_in(P, Q) > 0
    if np.any(cond & (sign == 0)):
        raise DomainError("h vanishes on a cofactor of the decomposition")

    # --- direct M sum ------------------------------------------------------
    w0 = slice(n_lo, n_hi)
    m_members = ns[w0][cond[w0] & (marks[w0] > 0) & (coset[w0] == target) & (sign[w0] == delta)]
    M_direct = all_char_sums(G, m_members) / norm

    # --- the marked primes, their signs and cosets ------------------------
    ps = arith.primes_in(P_j, Q_j)
    ps = ps[np.gcd(ps, q) == 1]
    p_sign = h.prime_signs(ps)
    if np.any(p_sign == 0):
        raise DomainError("h vanishes at a prime of the j-th ladder interval")
    if ps.size and ps[0] < Q1:
        raise DomainError(f"the prime {ps[0]} of the j-th ladder interval lies below "
                          f"Q1 = {Q1:g} and divides no cofactor")
    p_coset = psi_table[ps % q] if psi_table is not None else np.ones_like(p_sign)

    # --- marked main term Mtilde, one bucket (w, sign, coset) at a time ----
    ws = _subwindows(ps, H)
    _, first, bucket = np.unique(4 * ws + 2 * (p_sign > 0) + (p_coset > 0),
                                 return_index=True, return_inverse=True)
    heads = np.sort(first)                            # each bucket's first prime
    bucket = np.searchsorted(heads, first[bucket])    # buckets renumbered in that order
    groups = np.split(ps[np.argsort(bucket, kind="stable")], np.cumsum(np.bincount(bucket))[:-1])
    fixed = np.empty((len(heads), 2), dtype=np.int64)   # each bucket's cofactor window
    Mtilde = np.zeros(G.phi, dtype=complex)
    for k, (f, plist) in enumerate(zip(heads.tolist(), groups)):
        w = int(ws[f])
        win = arith.IntegerInterval(norm * math.exp(-w / H - 1), norm * math.exp(-w / H))
        if win.ihi > n_hi:
            raise AssertionError("cofactor window escaped the factor table")
        fixed[k] = win.ilo, win.ihi
        sl = slice(max(win.ilo, 0), win.ihi)
        keep = cond[sl] & (sign[sl] == delta * p_sign[f]) & (coset[sl] == target * p_coset[f])
        r = all_char_sums(G, ns[sl][keep], weight[sl][keep]) / (norm * math.exp(-w / H))
        Mtilde += all_char_sums(G, plist) * math.exp(-w / H) * r

    def qualifies(owner, m):
        """Whether p m (p = ps[owner]) is a term: m a cofactor, sgn h(p m) =
        delta and p m in the coset."""
        i = m - 1
        return cond[i] & (p_sign[owner] * sign[i] == delta) & (p_coset[owner] * coset[i] == target)

    # --- E1: squarefree repair (n = p^2 m0, m = p m0) ----------------------
    p2 = ps * ps
    counts = n_hi // p2 - n_lo // p2
    owner = np.repeat(np.arange(len(ps)), counts)
    m = ps[owner] * (n_lo // p2[owner] + 1 + _offsets(counts))
    keep = qualifies(owner, m)
    e1_terms = ps[owner[keep]] * m[keep]
    e1_weights = -weight[m[keep] - 1]
    E1 = all_char_sums(G, e1_terms, e1_weights) / norm

    # --- E2: interval-snapping edge terms ----------------------------------
    # m in exactly one of (n_lo/p, n_hi/p] and the bucket's window: the
    # pieces below and above the two intervals' intersection
    t_lo, t_hi = n_lo // ps, n_hi // ps
    f_lo, f_hi = fixed[bucket].T
    mid_lo, mid_hi = np.maximum(t_lo, f_lo), np.minimum(t_hi, f_hi)
    starts = np.stack([np.minimum(t_lo, f_lo), np.maximum(mid_lo, mid_hi)], axis=1).ravel()
    stops = np.stack([np.minimum(mid_lo, mid_hi), np.maximum(t_hi, f_hi)], axis=1).ravel()
    counts = stops - starts
    owner = np.repeat(np.arange(2 * len(ps)) // 2, counts)
    m = np.repeat(starts, counts) + 1 + _offsets(counts)
    keep = qualifies(owner, m)
    m, owner = m[keep], owner[keep]
    e2_terms = ps[owner] * m
    inside = (m > t_lo[owner]) & (m <= t_hi[owner])
    e2_weights = np.where(inside, 1.0, -1.0) / (marks[m - 1] + 1)
    E2 = all_char_sums(G, e2_terms, e2_weights) / norm

    defect = float(np.abs(M_direct - Mtilde - E1 - E2).max()) if len(M_direct) else 0.0
    max_coeff = float(np.abs(np.concatenate([e1_weights, e2_weights])).max(initial=0.0))
    return {"M": M_direct, "Mtilde": Mtilde, "E1": E1, "E2": E2,
            "defect": defect, "members": len(m_members),
            "e1_terms": len(e1_terms), "e2_terms": len(e2_terms),
            "max_coefficient": max_coeff}


# ---------------------------------------------------------------------------
# amplification and moment reports

def amplify_report(q: int, Y1: float, Y2: float, X: float, c_p=None, a_n=None) -> SumReport:
    """(1/phi) sum_chi |Q(chi)|^(2 l) |A(chi)|^2 against the factorial shape.

    Q runs over primes in [Y1, 2Y1], A over integers in [X/Y2, 2X/Y2], and
    l = ceil(log Y2 / log Y1).  c_p and a_n are array rules on the int64 arrays
    of those p and n (all ones when None).  Implied constant unspecified: report only.
    """
    if Y1 <= 1 or Y1 * Y2 <= 1:
        raise DomainError("Y1 must be > 1 and Y1 Y2 > 1 (l >= 0)")
    G = group_mod.build_unit_group(q)
    ell = math.ceil(math.log(Y2) / math.log(Y1))
    ps = arith.primes_upto(int(2 * Y1))
    ps = ps[ps >= Y1]
    ns = np.arange(math.ceil(X / Y2), math.floor(2 * X / Y2) + 1, dtype=np.int64)
    cw = np.ones(len(ps)) if c_p is None else np.asarray(c_p(ps))
    aw = np.ones(len(ns)) if a_n is None else np.asarray(a_n(ns))
    if np.any(np.abs(cw) > 1 + 1e-12) or np.any(np.abs(aw) > 1 + 1e-12):
        raise PreconditionError("coefficients must be 1-bounded")
    Q = all_char_sums(G, ps, cw, conj=False)
    A = all_char_sums(G, ns, aw, conj=False)
    lhs = float(np.mean(np.abs(Q) ** (2 * ell) * np.abs(A) ** 2))
    phi = G.phi
    rhs = (phi / q) * (1 + X * Y1 * 2**ell / q) * X * Y1 * 2**ell * math.factorial(ell + 1) ** 2
    return SumReport.make(lhs, rhs, asserted=False, tag="prime-power-amplification",
                          ell=ell, n_primes=len(ps), n_terms=len(ns))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c in turn, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def square_and_shorts_moments(q: int, N: int, P: float, Q: float, M: float,
                              H: float, Kcap: int, eps: float,
                              seed: int = 0) -> tuple[SumReport, SumReport]:
    """Second moments of the two Ramare error shapes, with their bound shapes.

    Squares: sums over p^2 m <= N with P < p <= Q, shape (phi/q)(N + N^2/q)/P.
    Shorts: sums over l m <= N with m in the union of short windows
    (M e^(k-1/H), M e^k], |k| <= 2K+1, and l rough, shape (phi/q)(N+N^2/q)/H.
    Coefficients are seeded +-1, drawn in the order of the terms.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not M > 0:
        raise DomainError(f"M must be > 0, got {M}")
    if not H > 0:
        raise DomainError(f"H must be > 0, got {H}")
    if not P > 0:
        raise DomainError(f"P must be > 0, got {P}")
    G = group_mod.build_unit_group(q)
    rng = np.random.default_rng(seed)
    phi = G.phi

    # p^2 m for each p in (P, Q] in turn, m = 1, ..., N // p^2
    p2 = arith.primes_in(P, Q) ** 2
    counts = N // p2
    terms = np.repeat(p2, counts) * (_offsets(counts) + 1)
    vals = all_char_sums(G, terms, rng.choice((-1.0, 1.0), size=len(terms)))
    lhs1 = float(np.mean(np.abs(vals) ** 2))
    rhs1 = (phi / q) * (N + N * N / q) / P
    squares = SumReport.make(lhs1, rhs1, asserted=False, tag="square-repair-moment",
                             n_terms=len(terms))

    # l m for each window k in turn, each m <= N of it, each rough l <= N // m
    rough = np.flatnonzero(arith.factor_window(0, N).rough(q**eps)) + 1
    windows = (arith.IntegerInterval(M * math.exp(k - 1 / H), M * math.exp(k)).members()
               for k in range(-(2 * Kcap + 1), 2 * Kcap + 2))
    ms = np.concatenate([np.arange(w.start, min(w.stop, N + 1)) for w in windows])
    counts = np.searchsorted(rough, N // ms, side="right")
    terms2 = np.repeat(ms, counts) * rough[_offsets(counts)]
    vals2 = all_char_sums(G, terms2, rng.choice((-1.0, 1.0), size=len(terms2)))
    lhs2 = float(np.mean(np.abs(vals2) ** 2))
    rhs2 = (phi / q) * (N + N * N / q) / H
    shorts = SumReport.make(lhs2, rhs2, asserted=False, tag="short-window-moment",
                            n_terms=len(terms2))
    return squares, shorts
