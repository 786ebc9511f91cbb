"""Independent reference computations for the benchmark's output checks.

Nothing here imports linnik_lab.  Every quantity is rebuilt from the
definitions in the project README with numpy and the standard library: a
smallest-prime-factor sieve, real characters assembled from Legendre symbols
and the characters mod 4 and 8, character tables from the smallest primitive
root, and class-histogram convolutions on (Z/q)^x.  Intervals (lo, hi] with
real endpoints are snapped to integers with the same documented 1e-9 relative
guard band the library promises.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

GUARD = 1e-9


def snap(x: float) -> int:
    """floor(x) after widening by the relative guard band."""
    return int(math.floor(x + GUARD * max(1.0, abs(x))))


def e_adic(y: float, k: int) -> tuple[float, float]:
    """The real endpoints of I_y(k) = (e^(k-1) y, e^k y]."""
    return math.exp(k - 1) * y, math.exp(k) * y


# ---------------------------------------------------------------------------
# sieve tables


class Sieve:
    """Arithmetic tables for 0 <= n <= N from one smallest-prime-factor sieve."""

    def __init__(self, N: int):
        N = max(int(N), 16)
        self.N = N
        spf = np.zeros(N + 1, dtype=np.int64)
        for p in range(2, math.isqrt(N) + 1):
            if spf[p] == 0:
                block = spf[p * p :: p]
                block[block == 0] = p
        n = np.arange(N + 1, dtype=np.int64)
        prime = (spf == 0) & (n >= 2)
        spf[prime] = n[prime]
        self.spf = spf
        self.primes = n[prime]
        big_omega = np.zeros(N + 1, dtype=np.int64)
        squarefree = np.ones(N + 1, dtype=bool)
        squarefree[0] = False
        for p in self.primes.tolist():
            pk = p
            while pk <= N:
                big_omega[pk::pk] += 1
                pk *= p
            if p * p <= N:
                squarefree[p * p :: p * p] = False
        self.squarefree = squarefree
        self.liouville = np.where(big_omega % 2 == 0, 1, -1).astype(np.int8)
        self.liouville[0] = 0

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi (guarded endpoints)."""
        top = snap(hi)
        if top > self.N:
            raise ValueError(f"sieve too short: need {top}, have {self.N}")
        ps = self.primes[self.primes <= top]
        return ps[ps > lo + GUARD * max(1.0, abs(lo))]

    def has_factor_in(self, ns: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """True where n has a prime factor p with lo < p <= hi (exact ends)."""
        hit = np.zeros(self.N + 1, dtype=bool)
        for p in self.primes[(self.primes > lo) & (self.primes <= hi)].tolist():
            hit[p::p] = True
        return hit[ns]

    def largest_prime_factor(self) -> np.ndarray:
        lpf = np.zeros(self.N + 1, dtype=np.int64)
        for p in self.primes.tolist():
            lpf[p::p] = p
        return lpf


def units_mask(ns: np.ndarray, q: int) -> np.ndarray:
    return np.gcd(ns, q) == 1


def euler_phi(q: int) -> int:
    return int(np.sum(np.gcd(np.arange(q, dtype=np.int64), q) == 1)) if q > 1 else 1


def factor_small(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization for the small moduli the checks need."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# real characters


def legendre(ns: np.ndarray, p: int) -> np.ndarray:
    """(n/p) for odd prime p by Euler's criterion, as int8 in {0, +-1}."""
    euler = [pow(r, (p - 1) // 2, p) for r in range(p)]
    table = np.array([0 if e == 0 else (1 if e == 1 else -1) for e in euler], dtype=np.int8)
    return table[np.asarray(ns, dtype=np.int64) % p]


def real_characters(q: int, ns: np.ndarray) -> list[np.ndarray]:
    """Values at ns of every real character mod q (the principal one first).

    (Z/q)^x splits over the prime powers of q; its real characters are the
    products of one choice per prime power: trivial or Legendre at odd p^e,
    and at 2^e the characters mod 4 and 8 that exist there.
    """
    ns = np.asarray(ns, dtype=np.int64)
    chars = [np.where(units_mask(ns, q), 1, 0).astype(np.int8)]
    for p, e in factor_small(q):
        if p == 2:
            if e == 1:
                continue
            odd = ns % 2 == 1
            chi4 = np.where(odd, np.where(ns % 4 == 1, 1, -1), 0).astype(np.int8)
            choices = [chi4]
            if e >= 3:
                r8 = ns % 8
                chi8 = np.where(odd, np.where((r8 == 1) | (r8 == 7), 1, -1), 0).astype(np.int8)
                choices += [chi8, (chi4 * chi8).astype(np.int8)]
        else:
            choices = [legendre(ns, p)]
        chars = chars + [(c * x).astype(np.int8) for c in chars for x in choices]
    return chars


# ---------------------------------------------------------------------------
# R(h; q) by brute-force scan


def sign_table(sv: Sieve, h: str) -> np.ndarray:
    """sgn h(n) for 0 <= n <= N; h is 'liouville', 'mobius' or 'character:7:1'."""
    if h == "liouville":
        return sv.liouville
    if h == "mobius":
        return np.where(sv.squarefree, sv.liouville, 0).astype(np.int8)
    if h == "character:7:1":  # the non-principal real character mod 7
        return real_characters(7, np.arange(sv.N + 1))[1]
    raise ValueError(h)


def witnesses(sv: Sieve, signs: np.ndarray, q: int, cap: int):
    """(R, witness table) for R(h; q) at this cap, with R None if incomplete.

    The witness table maps each class a to {'+': n, '-': n}, the least
    squarefree n = a mod q with that sign of h.  The scan doubles its prefix
    until every (class, sign) pair is found or the cap is reached; it raises
    when the sieve is too short to decide.
    """
    want = 2 * euler_phi(q)
    top = min(cap, sv.N, 4096)
    while True:
        ns = np.arange(1, top + 1, dtype=np.int64)
        s = signs[1 : top + 1]
        mask = sv.squarefree[1 : top + 1] & units_mask(ns, q) & (s != 0)
        keys = (ns[mask] % q) * 2 + (s[mask] < 0)
        uniq, first = np.unique(keys, return_index=True)
        if len(uniq) == want or top == cap:
            break
        if top == sv.N:
            raise ValueError(f"sieve too short to decide R for q={q}")
        top = min(2 * top, cap, sv.N)
    found = ns[mask][first]
    table: dict[int, dict[str, int]] = {}
    for k, n in zip(uniq.tolist(), found.tolist()):
        table.setdefault(k // 2, {})["-" if k % 2 else "+"] = n
    return (int(found.max()) if len(uniq) == want else None), table


# ---------------------------------------------------------------------------
# pretend sums


def pretend_min(q: int, h_prime_sign: int, cutoff: float) -> float:
    """min over real chi mod q of sum_{p <= cutoff, h(p) chi(p) < 0} 1/p."""
    ps = np.array([p for p in range(2, int(cutoff) + 1)
                   if all(p % d for d in range(2, math.isqrt(p) + 1))], dtype=np.int64)
    best = math.inf
    for chi in real_characters(q, ps):
        total = 0.0
        for p, c in zip(ps.tolist(), chi.tolist()):
            if h_prime_sign * c < 0:
                total += 1.0 / p
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# characters mod a prime from the smallest primitive root


def primitive_root(p: int) -> int:
    rs = [r for r, _ in factor_small(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // r, p) == 1 for r in rs):
        g += 1
    return g


def dlog_table(p: int) -> np.ndarray:
    """dlog[n] = x with g^x = n mod p (-1 at n = 0)."""
    g = primitive_root(p)
    table = np.full(p, -1, dtype=np.int64)
    x = 1
    for k in range(p - 1):
        table[x] = k
        x = x * g % p
    return table


def dual_sums(p: int, dlog: np.ndarray, ns, weights=None) -> np.ndarray:
    """sum_n w_n conj(chi_t(n)) for every t, chi_t(g^x) = e(t x / (p-1)).

    The class weights are binned on the discrete-log circle, so all p-1 sums
    are one length-(p-1) DFT.
    """
    ns = np.asarray(ns, dtype=np.int64)
    w = np.ones(len(ns)) if weights is None else np.asarray(weights, dtype=float)
    x = dlog[ns % p]
    keep = x >= 0
    hist = np.bincount(x[keep], weights=w[keep], minlength=p - 1)
    return np.fft.fft(hist)


def pv_max_window(p: int) -> float:
    """max over non-principal chi mod prime p of sup_windows |sum chi(n)|."""
    dlog = dlog_table(p)
    n = np.arange(1, p + 1)
    x = dlog[n % p]
    best = 0.0
    for t in range(1, p - 1):
        vals = np.where(x >= 0, np.exp(2j * np.pi * t * np.maximum(x, 0) / (p - 1)), 0)
        prefix = np.concatenate([[0j], np.cumsum(vals)])
        if 2 * t == p - 1:
            best = max(best, float(prefix.real.max() - prefix.real.min()))
        else:
            best = max(best, float(np.abs(prefix[None, :] - prefix[:, None]).max()))
    return best


# ---------------------------------------------------------------------------
# counting on (Z/q)^x


def class_histogram(ns, q: int) -> np.ndarray:
    return np.bincount(np.asarray(ns, dtype=np.int64) % q, minlength=q).astype(np.int64)


def mult_convolve(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """(f * g)[c] = sum_{x y = c mod q} f[x] g[y], exact in int64."""
    res = np.arange(q, dtype=np.int64)
    idx = (res[:, None] * res[None, :]) % q
    out = np.zeros(q, dtype=np.int64)
    np.add.at(out, idx.ravel(), np.outer(f, g).ravel())
    return out


def count_products(lists, q: int, a: int) -> int:
    """#{(x_1, ..., x_k) in the lists : x_1 ... x_k = a mod q}."""
    acc = class_histogram(lists[0], q)
    for lst in lists[1:]:
        acc = mult_convolve(acc, class_histogram(lst, q), q)
    return int(acc[a % q])


def mertens_inverse(z: float, q: int) -> float:
    """prod_{p < z, p not dividing q} (1 - 1/p)^-1, exactly rounded."""
    frac = Fraction(1)
    for p in range(2, math.ceil(z)):
        if p < z and all(p % d for d in range(2, math.isqrt(p) + 1)) and q % p:
            frac *= Fraction(p, p - 1)
    return float(frac)


def integers_in(lo: float, hi: float) -> np.ndarray:
    return np.arange(max(snap(lo), 0) + 1, snap(hi) + 1, dtype=np.int64)


def signed_select(sv: Sieve, ns: np.ndarray, q: int, sign: int | None,
                  squarefree: bool = False, min_prime: float | None = None,
                  ladder=()) -> list[int]:
    """Members of ns that are units mod q with the requested Liouville sign,
    optionally squarefree, free of primes below min_prime, and with a prime
    factor in every ladder interval."""
    mask = units_mask(ns, q)
    if sign is not None:
        mask &= sv.liouville[ns] == sign
    if squarefree:
        mask &= sv.squarefree[ns]
    if min_prime is not None:
        mask &= (ns == 1) | (sv.spf[ns] >= min_prime)
    for lo, hi in ladder:
        mask &= sv.has_factor_in(ns, lo, hi)
    return ns[mask].tolist()
