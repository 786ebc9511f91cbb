"""Character-sum functionals: the sign-restricted interval transforms, prime
and squarefree-unit sums, the prime-factor ladder and its membership set, the
Ramare-type decomposition, the character partition, and the mean-value /
large-value / amplification checks.

Only the mean value theorem, the Polya-Vinogradov bound and the Ramare
identity are asserted (their constants are explicit); every other bound
shape is reported as a measured ratio.
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
        ratio = lhs / rhs if rhs not in (0.0, -0.0) else math.inf * (1 if lhs else 0)
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
    aligned with G.characters(): one class collapse and one FFT."""
    return group_mod.transform(G, class_weights(G, ns, weights), conj=conj)


# ---------------------------------------------------------------------------
# coset membership

def _coset_mask(B, G: group_mod.UnitGroup, ns: np.ndarray) -> np.ndarray:
    """Membership of integers in B (CosetSpec, frozenset of units, or None=G)."""
    res = ns % G.q
    unit = G.unit_pos[res] >= 0
    if B is None:
        return unit
    if isinstance(B, group_mod.CosetSpec):
        return unit & B.member_mask(ns)
    members = np.zeros(G.q, dtype=bool)
    for b in B:
        members[b % G.q] = True
    return unit & members[res]


# ---------------------------------------------------------------------------
# sign-restricted interval transforms f^Delta

def f_support(G: group_mod.UnitGroup, h, z: float,
              interval: arith.IntegerInterval) -> dict[int, tuple[list[int], np.ndarray]]:
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
    return {d: (ns[keep & (signs == d)].tolist(), wf.squarefree[keep & (signs == d)])
            for d in (1, -1)}


# ---------------------------------------------------------------------------
# the sets Q, U, M and their normalized character sums

def _signed_primes(G: group_mod.UnitGroup, h, lo: float, hi: float, B,
                   delta: int | None) -> list[int]:
    """Primes p in (lo, hi] with p in B and sgn(h(p)) = delta (any sign when
    delta is None; a prime where h vanishes has neither sign)."""
    ps = arith.primes_in(lo, hi)
    mask = _coset_mask(B, G, ps)
    if delta is not None:
        mask &= h.prime_signs(ps) == delta
    return ps[mask].tolist()


def q_set(G: group_mod.UnitGroup, h, Q1: float, B=None, delta: int | None = None) -> list[int]:
    """Primes p in (Q1/e, Q1] with p in B and sgn(h(p)) = delta."""
    return _signed_primes(G, h, Q1 / math.e, Q1, B, delta)


def _squarefree_signed(G, h, lo: int, hi: int, B, delta):
    wf = arith.factor_window(lo, hi)
    ns = wf.ns
    keep = wf.squarefree & _coset_mask(B, G, ns)
    if delta is not None:
        keep &= h.signs(wf) == delta
    return ns[keep].tolist()


def u_set_easy(G, h, R: float, B=None, delta=None) -> list[int]:
    """Squarefree u <= R with u in B and sign delta."""
    return _squarefree_signed(G, h, 0, arith.snap(R), B, delta)


def u_set(G, h, U: float, v: int, B=None, delta=None) -> list[int]:
    """Squarefree u in I_U(v) with u in B and sign delta."""
    iv = arith.IntegerInterval.e_adic(U, v)
    return _squarefree_signed(G, h, iv.ilo, iv.ihi, B, delta)


def m_set(G, h, M: float, v: int, ladder: "LadderSpec", B=None, delta=None) -> list[int]:
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
    return ns[keep].tolist()


def prime_sum_Q(chi, qset: list[int], Q1: float) -> complex:
    """Q_B^Delta(chi) = (1/Q1) sum over the prime set of conj(chi(p))."""
    return sum((chi(p).conjugate() for p in qset), 0j) / Q1


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

def mvt_check(coeffs: dict[int, complex] | np.ndarray, N: int, q: int) -> SumReport:
    """Assert (1/phi) sum_chi |sum a_n chi(n)|^2 <= (1 + N/q) sum_{(n,q)=1} |a_n|^2.

    The left side is evaluated exactly by orthogonality as
    sum over classes c of |sum_{n = c} a_n|^2.
    """
    G = group_mod.build_unit_group(q)
    if isinstance(coeffs, dict):
        items = [(n, c) for n, c in coeffs.items() if 1 <= n <= N]
    else:
        arr = np.asarray(coeffs)
        items = [(n, arr[n - 1]) for n in range(1, min(N, len(arr)) + 1)]
    w = np.zeros(len(G.units), dtype=complex)
    rhs_sum = 0.0
    for n, c in items:
        a = n % q if q > 1 else 0
        if G.is_unit(a):
            w[G.unit_pos[a]] += c
            rhs_sum += abs(c) ** 2
    lhs = float(np.sum(np.abs(w) ** 2))
    rhs = (1.0 + N / q) * rhs_sum
    ok = lhs <= rhs * (1 + 1e-12) + 1e-12
    if not ok:
        raise AssertionError(f"mean value inequality failed: {lhs} > {rhs}")
    return SumReport.make(lhs, rhs, asserted=True, ok=True, tag="mvt-mean-value")


def halasz_montgomery_report(coeffs: dict[int, complex], chars, N: int, q: int,
                             eps: float) -> SumReport:
    """sum_{chi in X} |sum_{n<=N rough} a_n chi(n)|^2 against its bound shape.

    Coefficients must be supported on (n, P(q^eps)) = 1; shape is
    (N/log q + N^(2/3) q^(1/9 + 2 eps) |X|) * sum |a_n|^2 (ratio only).
    """
    if q < 2:
        raise DomainError("q must be >= 2")
    G = group_mod.build_unit_group(q)
    z = q**eps
    ns = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
    if ns.size:
        if ns.min() < 1:
            raise DomainError("coefficients are indexed by n >= 1")
        # one window over (0, max n] checks every n
        bad = ns[~arith.factor_window(0, int(ns.max())).rough(z)[ns - 1]]
        if bad.size:
            raise PreconditionError(f"coefficient at n={bad[0]} is not q^eps-rough")
    w = class_weights(G, list(coeffs), list(coeffs.values()))
    idx = [G.character_index(c) for c in chars]
    vals = group_mod.transform(G, w, conj=False)[idx]
    lhs = float(np.sum(np.abs(vals) ** 2))
    l2 = sum(abs(c) ** 2 for n, c in coeffs.items() if math.gcd(n, q) == 1)
    rhs = (N / math.log(q) + N ** (2 / 3) * q ** (1 / 9 + 2 * eps) * len(idx)) * l2
    return SumReport.make(lhs, rhs, asserted=False, tag="halasz-montgomery-mean",
                          set_size=len(idx))


def large_values_census(a_p, P: float, q: int, alpha: float, C: float = 1.0) -> tuple[int, SumReport]:
    """Exact count of characters with |sum_{P/e<p<=P} a_p chi(p)| >= P^(1-alpha).

    Reported against the shape P^(2 alpha) q^(2 alpha + 1/C); not asserted.
    """
    if not 0 <= alpha <= 0.5:
        raise DomainError("alpha must lie in [0, 1/2]")
    if not C > 0:
        raise DomainError(f"C must be > 0, got {C}")
    G = group_mod.build_unit_group(q)
    ps = [int(p) for p in arith.primes_in(P / math.e, P)]
    if callable(a_p):
        weights = [a_p(p) for p in ps]
    elif a_p is None:
        weights = [1.0] * len(ps)
    else:
        weights = [a_p.get(p, 0.0) for p in ps]
    if any(abs(c) > 1 + 1e-12 for c in weights):
        raise PreconditionError("coefficients must be 1-bounded")
    vals = all_char_sums(G, ps, weights, conj=False)
    thr = P ** (1 - alpha)
    count = int(np.sum(np.abs(vals) >= thr))
    shape = P ** (2 * alpha) * q ** (2 * alpha + 1 / C)
    return count, SumReport.make(count, shape, asserted=False, tag="prime-sum-large-values",
                                 threshold=thr, n_primes=len(ps))


# ---------------------------------------------------------------------------
# Polya-Vinogradov (asserted) and Burgess shapes (reported)

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
    """pv_max_window for each chi = G.characters()[i], i in rows (default:
    every non-principal character, 1..phi-1), aligned with rows.

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
    roots = np.append(G.root_table(), 0)   # angle -1 (off the units) reads 0
    theta = np.pi * np.arange(_PV_DIRECTIONS) / _PV_DIRECTIONS
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cos_half = math.cos(math.pi / (2 * _PV_DIRECTIONS))
    # a character is real iff 2 t_c = 0 mod d_c on every component
    real = np.ones(len(rows), dtype=bool)
    for t, d in zip(np.unravel_index(rows, G.grid_shape), G.grid_shape):
        real &= 2 * t % d == 0
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


def pv_burgess_check(chi, M: int, N: int) -> SumReport:
    """|sum_{M<n<=M+N} chi(n)| with the PV bound asserted, Burgess reported.

    Asserts the classical explicit Polya-Vinogradov constant sqrt(q) log q
    (on the specific window and on the sup over all windows); reports the
    Burgess shapes N^(1-1/r) q^((r+1)/(4 r^2)) for r in {2, 3}.
    """
    if chi.is_principal:
        raise DomainError("principal character excluded")
    q = chi.group.q
    value = abs(chi.values()[np.arange(M + 1, M + N + 1) % q].sum())
    pv = math.sqrt(q) * math.log(q)
    sup, _ = pv_max_window(chi)
    ok = value <= pv + 1e-9 and sup <= pv + 1e-9
    if not ok:
        raise AssertionError(f"Polya-Vinogradov bound violated: {max(value, sup)} > {pv}")
    burgess = {f"burgess_r{r}": N ** (1 - 1 / r) * q ** ((r + 1) / (4 * r * r))
               for r in (2, 3)}
    return SumReport.make(value, pv, asserted=True, ok=True, tag="polya-vinogradov",
                          sup_over_windows=sup, **burgess)


# ---------------------------------------------------------------------------
# ladder character sums and the partition

def _alpha_j(j: int, eta: float) -> float:
    return 1 / 40 - eta * (1 + 1 / (2 * j))


def _H_j(j: int, Q1: float) -> float:
    return j**4 * Q1 ** (1 / 40)


def _w_of_p(p: int, H: float) -> int:
    return int(math.ceil(H * math.log(p) - 1e-12))


def ladder_prime_sums(G, h, ladder: LadderSpec, j: int, B, delta: int) -> dict[int, np.ndarray]:
    """Q_{j,B,w}(chi) for all w: e^(-w/H_j) sums of conj(chi(p)) over the
    w-th subwindow of (P_j, Q_j], restricted to B and sign delta (a prime
    where h vanishes has neither sign and lies in no subwindow)."""
    P, Q = ladder.interval(j)
    H = _H_j(j, ladder.Q1)
    buckets: dict[int, list[int]] = {}
    for p in _signed_primes(G, h, P, Q, B, delta):
        buckets.setdefault(_w_of_p(p, H), []).append(p)
    out = {}
    for w, plist in buckets.items():
        out[w] = all_char_sums(G, plist) * math.exp(-w / H)
    return out


@dataclass
class CharacterPartition:
    classes: dict[int, list[int]]      # j -> character indices
    residual: list[int]                # the set Y
    H_j: dict[int, float]
    alpha_j: dict[int, float]
    eta: float

    def sizes(self) -> dict:
        d = {f"X{j}": len(v) for j, v in self.classes.items()}
        d["Y"] = len(self.residual)
        return d


def partition_characters(q: int, ladder: LadderSpec, H, h, eta: float) -> CharacterPartition:
    """Deterministic partition of the dual group into X_1..X_J and Y.

    chi lands in X_j for the smallest j whose ladder prime sums are all small
    (threshold e^(-alpha_j w / H_j); for j = 1 the threshold is Q1^(-alpha_1),
    the value the j=1 convention H_1 = 1/log Q1 produces).  H is a real
    character whose kernel defines the cosets (None for the full group).
    """
    if not 0 < eta <= 1 / 80:
        raise DomainError("eta must lie in (0, 1/80]")
    G = group_mod.build_unit_group(q)
    nchars = G.phi
    if H is None:
        cosets = [None]
    else:
        psi = H if isinstance(H, group_mod.DirichletCharacter) else H.psi
        # 1 and, for a non-principal psi, the least unit off its kernel
        reps = [1] + G.units[psi.real_sign_table()[G.units] == -1][:1].tolist()
        cosets = [group_mod.CosetSpec(psi, b) for b in reps]

    small = np.ones((ladder.J + 1, nchars), dtype=bool)  # small[j][i]
    # j = 1: the (P_1, Q_1] prime sum
    thr1 = ladder.Q1 ** (-_alpha_j(1, eta))
    for B in cosets:
        for delta in (1, -1):
            qs = q_set(G, h, ladder.Q1, B, delta)
            vals = np.abs(all_char_sums(G, qs)) / ladder.Q1
            small[1] &= vals <= thr1
    for j in range(2, ladder.J + 1):
        aj = _alpha_j(j, eta)
        Hj = _H_j(j, ladder.Q1)
        for B in cosets:
            for delta in (1, -1):
                sums = ladder_prime_sums(G, h, ladder, j, B, delta)
                for w, vals in sums.items():
                    small[j] &= np.abs(vals) <= math.exp(-aj * w / Hj)

    classes: dict[int, list[int]] = {j: [] for j in range(1, ladder.J + 1)}
    residual: list[int] = []
    for i in range(nchars):
        for j in range(1, ladder.J + 1):
            if small[j][i]:
                classes[j].append(i)
                break
        else:
            residual.append(i)
    return CharacterPartition(classes, residual,
                              {j: _H_j(j, ladder.Q1) for j in range(2, ladder.J + 1)},
                              {j: _alpha_j(j, eta) for j in range(1, ladder.J + 1)}, eta)


# ---------------------------------------------------------------------------
# Ramare-type decomposition (exact identity)

def _joined(parts: list[np.ndarray], dtype=np.int64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _psi_of(B):
    if B is None:
        return None, 1
    return B.psi, B.b


def ramare_decompose(G: group_mod.UnitGroup, h, B, delta: int, v: int, j: int,
                     ladder: LadderSpec, M: float) -> dict:
    """Split M_{B,v}(chi) = Mtilde + E1 + E2 exactly, for every character.

    The marked-prime rewrite distinguishes one prime factor from the j-th
    ladder interval with weight 1/(omega(m; P_j, Q_j) + 1) on the cofactor;
    E1 collects the squarefree-repair terms (products p^2 m), E2 the two
    edge windows created by snapping the cofactor interval.  All five arrays
    are indexed by G.characters(); the defect max_chi |M - Mt - E1 - E2| is
    returned and must vanish to ~1e-12.  h must not vanish on a cofactor
    candidate or a prime of (P_j, Q_j] (DomainError).
    """
    q = G.q
    Q1 = ladder.Q1
    P_j, Q_j = ladder.interval(j)
    H = _H_j(j, Q1)
    iv = arith.IntegerInterval.e_adic(M, v)
    n_lo, n_hi = iv.ilo, iv.ihi
    norm = M * math.exp(v)
    psi, b = _psi_of(B)
    psi_table = psi.real_sign_table() if psi is not None else None
    target = psi_table[b % q] if psi is not None else 1

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

    # --- marked main term Mtilde ------------------------------------------
    primes_j = [p for p in arith.primes_in(P_j, Q_j).tolist() if math.gcd(p, q) == 1]
    # sign and coset of each prime
    p_sign = dict(zip(primes_j, h.prime_signs(np.array(primes_j, dtype=np.int64)).tolist()))
    p_coset = {p: int(psi_table[p % q]) if psi_table is not None else 1 for p in primes_j}
    if 0 in p_sign.values():
        raise DomainError("h vanishes at a prime of the j-th ladder interval")
    Mtilde = np.zeros(G.phi, dtype=complex)
    r_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def r_sum(w: int, delta2: int, coset_sign: int) -> np.ndarray:
        key = (w, delta2, coset_sign)
        if key not in r_cache:
            win = arith.IntegerInterval(norm * math.exp(-w / H - 1), norm * math.exp(-w / H))
            if win.ihi > n_hi:
                raise AssertionError("cofactor window escaped the factor table")
            sl = slice(max(win.ilo, 0), win.ihi)
            keep = cond[sl] & (sign[sl] == delta2) & (coset[sl] == coset_sign)
            r_cache[key] = all_char_sums(G, ns[sl][keep], weight[sl][keep]) \
                / (norm * math.exp(-w / H))
        return r_cache[key]

    q_buckets: dict[tuple[int, int, int], list[int]] = {}
    for p in primes_j:
        w = _w_of_p(p, H)
        q_buckets.setdefault((w, p_sign[p], p_coset[p]), []).append(p)
    for (w, s1, c1), plist in q_buckets.items():
        qsum = all_char_sums(G, plist) * math.exp(-w / H)
        delta2 = delta * s1
        coset2 = target * c1  # need c1 * c2 = target
        Mtilde += qsum * r_sum(w, delta2, coset2)

    # --- E1: squarefree repair (n = p^2 m0, m = p m0) ----------------------
    e1_terms, e1_weights = [], []
    for p in primes_j:
        p2 = p * p
        m = p * np.arange(n_lo // p2 + 1, n_hi // p2 + 1)
        i = m - 1
        keep = cond[i] & (p_sign[p] * sign[i] == delta) & (p_coset[p] * coset[i] == target)
        e1_terms.append(p * m[keep])
        e1_weights.append(-weight[i[keep]])
    e1_terms, e1_weights = _joined(e1_terms), _joined(e1_weights, float)
    E1 = all_char_sums(G, e1_terms, e1_weights) / norm

    # --- E2: interval-snapping edge terms ----------------------------------
    e2_terms, e2_weights = [], []
    for p in primes_j:
        w = _w_of_p(p, H)
        fixed = arith.IntegerInterval(norm * math.exp(-w / H - 1), norm * math.exp(-w / H))
        true_lo, true_hi = n_lo // p, n_hi // p
        lo = min(fixed.ilo, true_lo)
        hi = max(fixed.ihi, true_hi)
        if hi > n_hi:
            raise AssertionError("cofactor window escaped the factor table")
        m = ns[lo:hi]
        ind_true = (m > true_lo) & (m <= true_hi)
        ind_fixed = (m > fixed.ilo) & (m <= fixed.ihi)
        keep = ((ind_true != ind_fixed) & cond[lo:hi] & (p_sign[p] * sign[lo:hi] == delta)
                & (p_coset[p] * coset[lo:hi] == target))
        e2_terms.append(p * m[keep])
        e2_weights.append(np.where(ind_true[keep], 1.0, -1.0) / (marks[lo:hi][keep] + 1))
    e2_terms, e2_weights = _joined(e2_terms), _joined(e2_weights, float)
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
    l = ceil(log Y2 / log Y1).  Implied constant unspecified: report only.
    """
    if Y1 <= 1 or Y1 * Y2 <= 1:
        raise DomainError("Y1 must be > 1 and Y1 Y2 > 1 (l >= 0)")
    G = group_mod.build_unit_group(q)
    ell = math.ceil(math.log(Y2) / math.log(Y1))
    ps = [int(p) for p in arith.primes_upto(int(2 * Y1)) if Y1 <= p <= 2 * Y1]
    ns = list(range(int(math.ceil(X / Y2)), int(math.floor(2 * X / Y2)) + 1))
    cw = [1.0] * len(ps) if c_p is None else [c_p(p) for p in ps]
    aw = [1.0] * len(ns) if a_n is None else [a_n(n) for n in ns]
    if any(abs(x) > 1 + 1e-12 for x in cw + aw):
        raise PreconditionError("coefficients must be 1-bounded")
    Q = all_char_sums(G, ps, cw, conj=False)
    A = all_char_sums(G, ns, aw, conj=False)
    lhs = float(np.mean(np.abs(Q) ** (2 * ell) * np.abs(A) ** 2))
    phi = G.phi
    rhs = (phi / q) * (1 + X * Y1 * 2**ell / q) * X * Y1 * 2**ell * math.factorial(ell + 1) ** 2
    return SumReport.make(lhs, rhs, asserted=False, tag="prime-power-amplification",
                          ell=ell, n_primes=len(ps), n_terms=len(ns))


def square_and_shorts_moments(q: int, N: int, P: float, Q: float, M: float,
                              H: float, Kcap: int, eps: float,
                              seed: int = 0) -> tuple[SumReport, SumReport]:
    """Second moments of the two Ramare error shapes, with their bound shapes.

    Squares: sums over p^2 m <= N with P < p <= Q, shape (phi/q)(N + N^2/q)/P.
    Shorts: sums over l m <= N with m in the union of short windows
    (M e^(k-1/H), M e^k], |k| <= 2K+1, and l rough, shape (phi/q)(N+N^2/q)/H.
    Coefficients are seeded +-1.
    """
    if not H > 0:
        raise DomainError(f"H must be > 0, got {H}")
    G = group_mod.build_unit_group(q)
    rng = np.random.default_rng(seed)
    phi = G.phi

    terms, weights = [], []
    for p in arith.primes_in(P, Q):
        p = int(p)
        p2 = p * p
        for m in range(1, N // p2 + 1):
            terms.append(p2 * m)
            weights.append(rng.choice((-1.0, 1.0)))
    vals = all_char_sums(G, terms, weights)
    lhs1 = float(np.mean(np.abs(vals) ** 2))
    rhs1 = (phi / q) * (N + N * N / q) / P
    squares = SumReport.make(lhs1, rhs1, asserted=False, tag="square-repair-moment",
                             n_terms=len(terms))

    z = q**eps
    rough = arith.factor_window(0, N).rough(z)
    terms2, weights2 = [], []
    for k in range(-(2 * Kcap + 1), 2 * Kcap + 2):
        win = arith.IntegerInterval(M * math.exp(k - 1 / H), M * math.exp(k))
        for m in win.members():
            if m > N:
                break
            for ell in (np.flatnonzero(rough[:N // m]) + 1).tolist():
                terms2.append(ell * m)
                weights2.append(rng.choice((-1.0, 1.0)))
    vals2 = all_char_sums(G, terms2, weights2)
    lhs2 = float(np.mean(np.abs(vals2) ** 2))
    rhs2 = (phi / q) * (N + N * N / q) / H
    shorts = SumReport.make(lhs2, rhs2, asserted=False, tag="short-window-moment",
                            n_terms=len(terms2))
    return squares, shorts
