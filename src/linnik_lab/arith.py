"""Exact integer arithmetic: factorization, Mobius/Liouville, rough numbers,
intervals with real endpoints, unit counts in intervals, the threshold B(q),
Mertens products and Kloosterman-type pair counts.

Everything here is exact; floats only enter through interval endpoints, which
are snapped to integers by one rule (snap): a 1e-9 relative guard band,
at most 1e-6 wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ResourceError

_MAX_N = 2**63 - 1

# ---------------------------------------------------------------------------
# prime tables

# largest prime table built: twice the 2^24 that factorize trial-divides to
PRIME_TABLE_LIMIT = 1 << 25
# widest factor_window: its arrays peak near 200 MB at this width, and the
# witness scan reads windows of at most 2^18
WINDOW_LIMIT = 1 << 22

_prime_limit = 0
_prime_array = np.empty(0, dtype=np.int64)


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (grow-only cached sieve).

    Raises ResourceError when n exceeds PRIME_TABLE_LIMIT.
    """
    global _prime_limit, _prime_array
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n > PRIME_TABLE_LIMIT:
        raise ResourceError(f"a prime table up to {n} exceeds the limit {PRIME_TABLE_LIMIT}")
    if n > _prime_limit:
        limit = min(max(n, 2 * _prime_limit, 1 << 10), PRIME_TABLE_LIMIT)
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _prime_array = np.nonzero(flags)[0].astype(np.int64)
        _prime_limit = limit
    return _prime_array[: np.searchsorted(_prime_array, n, side="right")]


def primes_in(lo: float, hi: float) -> np.ndarray:
    """Primes p with lo < p <= hi."""
    ps = primes_upto(snap(hi))
    return ps[ps > snap(lo)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# factorization

@dataclass(frozen=True)
class Factorization:
    """n and its (prime, exponent) pairs with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def little_omega(self) -> int:
        return len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def mobius(self) -> int:
        return 0 if not self.is_squarefree else (-1) ** self.little_omega

    @property
    def liouville(self) -> int:
        return (-1) ** self.big_omega

    def tau(self, k: int = 2) -> int:
        """k-fold divisor function tau_k(n)."""
        out = 1
        for _, e in self.factors:
            out *= math.comb(e + k - 1, k - 1)
        return out


def factorize(n: int) -> Factorization:
    """Factor n by trial division plus a deterministic primality test.

    The division pass over the prime table is vectorized, so numbers with
    prime factors up to ~10^7 (second-largest) are cheap; exact for all
    1 <= n < 2^63.  Nothing is memoized: each call factors n afresh, so a
    caller that needs several facts about n keeps the one Factorization.
    """
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"factorize expects an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1 or n > _MAX_N:
        raise DomainError(f"factorize requires 1 <= n <= 2^63-1, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    while m > 1 and not is_prime(m):
        root = math.isqrt(m)
        if root > 1 << 24:
            raise ResourceError(
                f"trial division beyond 2^24 needed for the cofactor {m} of n={n}")
        ps = primes_upto(root)
        hits = ps[np.asarray(m, dtype=np.int64) % ps == 0]
        if hits.size == 0:
            break  # m prime (isqrt rounding); handled below
        for p in hits:
            p = int(p)
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    factors.sort()
    return Factorization(n, tuple(factors))


def mobius(n: int) -> int:
    return factorize(n).mobius


def liouville(n: int) -> int:
    return factorize(n).liouville


def is_squarefree(n: int) -> bool:
    return factorize(n).is_squarefree


def is_rough(n: int, z: float) -> bool:
    """True iff (n, P(z)) = 1, i.e. every prime factor of n is >= z.

    Never materializes P(z); trial-divides by primes < min(z, sqrt(n)+1).
    """
    if n < 1:
        raise DomainError("is_rough requires n >= 1")
    if n == 1 or z <= 2:
        return True
    cap = math.isqrt(n)
    for p in primes_upto(min(int(math.ceil(z)) - 1 if z == int(z) else int(z), cap)):
        if p >= z:
            break
        if n % p == 0:
            return False
    # no divisor among primes < min(z, sqrt(n)); if n itself is a small prime
    # it is its own least factor
    if n < z:
        return False
    return True


@lru_cache(maxsize=None)
def euler_phi(q: int) -> int:
    if q < 1:
        raise DomainError("euler_phi requires q >= 1")
    out = 1
    for p, e in factorize(q).factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).factors:
        ds = [d * p**j for d in ds for j in range(e + 1)]
    return sorted(ds)


# ---------------------------------------------------------------------------
# intervals with real endpoints

# relative width of the guard band, and its largest absolute width: an
# integral endpoint snaps to itself at every size
_GUARD = 1e-9
_GUARD_MAX = 1e-6


def snap(x: float) -> int:
    """floor(x) after widening by the guard band."""
    return int(math.floor(x + min(_GUARD * max(1.0, abs(x)), _GUARD_MAX)))


@dataclass(frozen=True)
class IntegerInterval:
    """Half-open real interval (lo, hi]; members are integers lo < n <= hi.

    Endpoints may be irrational (e-adic intervals); membership is decided by
    integer bounds snapped once through the guard band of snap, so every
    derived count (members, multiples) is exactly consistent.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise DomainError(f"interval needs hi >= lo, got ({self.lo}, {self.hi}]")

    @classmethod
    def e_adic(cls, y: float, k: int) -> "IntegerInterval":
        """I_y(k) = (e^(k-1) y, e^k y]."""
        return cls(math.exp(k - 1) * y, math.exp(k) * y)

    @property
    def ilo(self) -> int:
        return snap(self.lo)

    @property
    def ihi(self) -> int:
        return snap(self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def __contains__(self, n: int) -> bool:
        return self.ilo < n <= self.ihi

    def members(self) -> range:
        return range(max(self.ilo, 0) + 1, self.ihi + 1)

    def count(self) -> int:
        return max(0, self.ihi - self.ilo)

    def count_multiples(self, d: int) -> int:
        """Exact number of multiples of d in the interval."""
        if d < 1:
            raise DomainError("d must be >= 1")
        return self.ihi // d - self.ilo // d


def count_units_in_interval(interval: IntegerInterval, q: int) -> tuple[int, float, float]:
    """|[I]_q| exactly, plus the Mobius-inversion main term |I| phi(q)/q.

    Returns (exact, main, exact - main).  The divisor-sum evaluation keeps
    each d-term within 1 of |I|/d, so |exact - main| <= tau(q).
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    exact = 0
    for d in divisors(q):
        mu = mobius(d)
        if mu:
            exact += mu * interval.count_multiples(d)
    main = interval.length * euler_phi(q) / q
    return exact, main, exact - main


# ---------------------------------------------------------------------------
# B(q): threshold beyond which prime divisors of q are no longer dense

def _increasing_root(k: int) -> float:
    """Root of z = 10 k log z on the increasing branch (z > e), to 1e-9."""
    lo = math.e
    hi = max(4.0 * math.e, 20.0 * k * math.log(20.0 * k + 10.0))
    while hi - 10.0 * k * math.log(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 10.0 * k * math.log(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def B_of_q(q: int) -> float:
    """Minimal B >= 2 with |{p <= z : p|q}| <= z/(10 log z) for all z >= B.

    The count jumps only at the prime divisors p_1 < ... < p_w of q; in the
    regime where the count equals k, violations occupy [p_k, t_k) with t_k
    the increasing-branch root of z = 10 k log z.  Hence B is the largest
    such t_k with p_k < t_k (or 2 when there are none).
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    ps = factorize(q).primes
    best = 2.0
    for k, p in enumerate(ps, start=1):
        t = _increasing_root(k)
        if p < t:
            best = max(best, t)
    return best


# ---------------------------------------------------------------------------
# Mertens products

def _tree_prod(vals: list[int]) -> int:
    if not vals:
        return 1
    while len(vals) > 1:
        vals = [vals[i] * vals[i + 1] for i in range(0, len(vals) - 1, 2)] + (
            [vals[-1]] if len(vals) % 2 else []
        )
    return vals[0]


def mertens_product(z: float, q: int = 1, inverse: bool = False) -> float:
    """prod_{p < z, p not dividing q} (1 - 1/p)^(+-1), exactly rounded.

    The product is accumulated as an exact integer ratio and converted to
    float once at the end.
    """
    if z < 0:
        raise DomainError("z must be >= 0")
    num: list[int] = []
    den: list[int] = []
    for p in primes_upto(int(math.ceil(z)) - 1 if z == int(z) else int(z)):
        if p >= z:
            break
        if q % p == 0:
            continue
        num.append(p - 1)
        den.append(p)
    frac = Fraction(_tree_prod(num), _tree_prod(den))
    if inverse:
        frac = 1 / frac
    return float(frac)


# ---------------------------------------------------------------------------
# Kloosterman-type pair counts

def count_pairs_in_class(K: int, L: int, a: int, q: int) -> tuple[int, dict]:
    """Exact |{(k,l): k<=K, l<=L, kl = a mod q}| plus a main-term report.

    The report compares against (phi(q)/q) KL/q + sqrt(q); the implied
    constant is unspecified, so the ratio is informational only.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if math.gcd(a % q if q > 1 else 0, q) != 1:
        raise DomainError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    if K <= 0 or L <= 0:
        count = 0
    elif q == 1:
        count = K * L
    else:
        a %= q
        count = 0
        for k in range(1, K + 1):
            if math.gcd(k, q) != 1:
                continue
            r = a * pow(k, -1, q) % q
            if r == 0:
                r = q
            if r <= L:
                count += (L - r) // q + 1
    main = euler_phi(q) / q * K * L / q
    shape = main + math.sqrt(q)
    report = {
        "exact": count,
        "main_term": main,
        "rhs_shape": shape,
        "ratio": count / shape if shape > 0 else float("nan"),
    }
    return count, report


# ---------------------------------------------------------------------------
# the window sieve

class WindowFactors:
    """Factorizations of the integers lo+1 .. hi as arrays.

    The sieve fills big_omega (prime factors with multiplicity, int8) and
    squarefree; everything else is built from its per-prime hits on first
    use.  The factors of the i-th integer n = lo + 1 + i are primes[start[i]:
    start[i+1]] with exponents exps[start[i]:start[i+1]], primes increasing
    (compressed sparse rows, sorted by n and then by p); omega counts the
    distinct primes and spf is the smallest prime factor (0 for n = 1).
    """

    def __init__(self, lo: int, hi: int, big_omega: np.ndarray, squarefree: np.ndarray,
                 hits: list, big: np.ndarray, cofactors: np.ndarray):
        self.lo = lo
        self.hi = hi
        self.big_omega = big_omega
        self.squarefree = squarefree
        # per sieving prime p: (p, positions of its multiples, positions
        # divisible by p^2, p^3, ...); then the positions whose cofactor is a
        # prime above every sieving prime, and those cofactors
        self._hits = hits
        self._big = big
        self._cofactors = cofactors

    @cached_property
    def ns(self) -> np.ndarray:
        """The integers lo+1 .. hi."""
        return np.arange(self.lo + 1, self.hi + 1, dtype=np.int64)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(position, prime, exponent) of every factor, sorted by position
        and then by prime (the cofactor prime exceeds every sieving prime)."""
        rows, ps, es = [], [], []
        for p, idx, deeper in self._hits:
            exps = np.ones(idx.size, dtype=np.int64)
            for sub in deeper:
                exps[(sub - idx[0]) // p] += 1
            rows.append(idx)
            ps.append(np.full(idx.size, p, dtype=np.int64))
            es.append(exps)
        rows.append(self._big)
        ps.append(self._cofactors)
        es.append(np.ones(self._big.size, dtype=np.int64))
        row = np.concatenate(rows)
        order = np.argsort(row, kind="stable")
        return row[order], np.concatenate(ps)[order], np.concatenate(es)[order]

    @cached_property
    def rows(self) -> np.ndarray:
        """Position (n - lo - 1) of the integer each factor belongs to."""
        return self._factors[0]

    @cached_property
    def primes(self) -> np.ndarray:
        return self._factors[1]

    @cached_property
    def exps(self) -> np.ndarray:
        return self._factors[2]

    @cached_property
    def omega(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.hi - self.lo)

    @cached_property
    def start(self) -> np.ndarray:
        start = np.zeros(self.hi - self.lo + 1, dtype=np.int64)
        np.cumsum(self.omega, out=start[1:])
        return start

    @cached_property
    def spf(self) -> np.ndarray:
        spf = np.zeros(self.hi - self.lo, dtype=np.int64)
        spf[self._big] = self._cofactors
        for p, idx, _ in reversed(self._hits):
            spf[idx] = p
        return spf

    def rough(self, z: float) -> np.ndarray:
        """Per n, whether every prime factor is >= z (true at n = 1)."""
        return (self.spf == 0) | (self.spf >= z)

    def prod(self, values: np.ndarray) -> np.ndarray:
        """Per n, the product of `values` (one per factor) over its factors,
        taken left to right in increasing p; 1 for n = 1."""
        out = np.ones(self.hi - self.lo, dtype=values.dtype)
        has = self.omega > 0
        if has.any():
            out[has] = np.multiply.reduceat(values, self.start[:-1][has])
        return out

    def count_in(self, P: float, Q: float) -> np.ndarray:
        """Per n, the number of its prime factors p with P < p <= Q."""
        inside = (self.primes > P) & (self.primes <= Q)
        return np.bincount(self.rows[inside], minlength=self.hi - self.lo)


def factor_window(lo: int, hi: int) -> WindowFactors:
    """Factorizations of lo+1 .. hi by one segmented sieve.

    Raises ResourceError when the window is wider than WINDOW_LIMIT.
    """
    if lo < 0:
        raise DomainError(f"factor_window needs lo >= 0, got {lo}")
    if hi - lo > WINDOW_LIMIT:
        raise ResourceError(f"a factor window of {hi - lo} integers exceeds the limit {WINDOW_LIMIT}")
    n0 = lo + 1
    N = max(hi - lo, 0)
    rem = np.arange(n0, n0 + N, dtype=np.int64)
    # Omega(n) <= 62 for n < 2^63
    big_omega = np.zeros(N, dtype=np.int8)
    squarefree = np.ones(N, dtype=bool)
    hits = []
    for p in primes_upto(math.isqrt(max(hi, 0))).tolist():
        idx = np.arange((-n0) % p, N, p)
        if idx.size == 0:
            continue
        rem[idx] //= p
        big_omega[idx] += 1
        cur = idx[rem[idx] % p == 0]
        squarefree[cur] = False
        deeper = []
        while cur.size:
            deeper.append(cur)
            rem[cur] //= p
            big_omega[cur] += 1
            cur = cur[rem[cur] % p == 0]
        hits.append((p, idx, deeper))
    # what is left above 1 is a single prime larger than every sieving prime
    big = np.nonzero(rem > 1)[0]
    big_omega[big] += 1
    return WindowFactors(lo, lo + N, big_omega, squarefree, hits, big, rem[big])
