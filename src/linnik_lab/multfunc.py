"""Multiplicative functions and their sign statistics: the sign algebra,
pretentious distance, the "pretends to be a character" prime sum, and L(q).

Signs live in {+1, -1}, identified with the symbols {+, -}; the product of
two signs is + exactly when they agree.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import arith
from .errors import DomainError

PLUS = 1
MINUS = -1


def sgn(x: float) -> int:
    """Sign symbol of a nonzero real, as +1 or -1."""
    if x == 0:
        raise DomainError("sgn is undefined at 0")
    return PLUS if x > 0 else MINUS


class MultiplicativeFunction:
    """A real multiplicative function given by an array rule on prime powers.

    rule(ps, es) maps two int64 arrays of one shape to the floats h(p^e) of
    that shape; one p^e is a one-element call.  h(1) = 1 and h(prod p^e) =
    prod rule(p, e), from one factorize and one rule call; nothing is
    memoized.  Signs multiply the rule's signs, never its values, so they
    neither underflow nor overflow.  `kind` marks built-ins whose signs are
    read without the rule.
    """

    def __init__(self, name: str, prime_power_rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 kind: str = "generic", character=None):
        self.name = name
        self.rule = prime_power_rule
        self.kind = kind
        self.character = character

    def __repr__(self):
        return f"MultiplicativeFunction({self.name!r})"

    def _rule_at(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("multiplicative functions are defined on n >= 1")
        return self.rule(*np.array(arith.factorize(n).factors, dtype=np.int64).reshape(-1, 2).T)

    def value(self, n: int) -> float:
        return math.prod(self._rule_at(n).tolist(), start=1.0)

    __call__ = value

    def sign(self, n: int) -> int:
        return sgn(int(np.prod(np.sign(self._rule_at(n)).astype(np.int8))))

    def prime_signs(self, ps: np.ndarray) -> np.ndarray:
        """sgn h(p) over an int64 array of primes, as int8 (0 where h(p) = 0)."""
        return np.sign(self.rule(ps, np.ones_like(ps))).astype(np.int8)

    def squarefree_signs(self, ns: np.ndarray) -> np.ndarray:
        """sgn h(n) where n is squarefree and 0 elsewhere, as int8, for n >= 1.

        Independent of the window sieve: trial division of the distinct n by
        the primes p <= sqrt(max n), their signs read in one rule call.  A
        second factor p marks n not squarefree; a single one multiplies its
        sign by sgn h(p).  A cofactor left below p^2 is 1 or a prime.  When
        max n is below 8 len(ns), the distinct n are marked in a table of
        max n + 1 entries instead of sorted.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if int(ns.min(initial=1)) < 1:
            raise DomainError("multiplicative functions are defined on n >= 1")
        top = int(ns.max(initial=1))
        if top < 8 * ns.size:
            table = np.zeros(top + 1, dtype=np.int8)
            table[ns] = 1
            keys = np.flatnonzero(table)
        else:
            table = None
            keys, inverse = np.unique(ns, return_inverse=True)
        rest = keys.copy()
        signs = np.ones(rest.size, dtype=np.int8)
        live = np.flatnonzero(rest > 1)
        ps = arith.primes_upto(math.isqrt(top))
        for p, s in zip(ps.tolist(), self.prime_signs(ps).tolist()):
            r = rest[live]
            divides = r % p == 0
            if divides.any():
                hit = live[divides]
                rest[hit] = left = r[divides] // p
                signs[hit] *= s
                square = hit[left % p == 0]   # not squarefree: done
                signs[square], rest[square] = 0, 1
            live = live[r > p * p]
        big = (signs != 0) & (rest > 1)
        signs[big] *= self.prime_signs(rest[big])
        if table is None:
            return signs[inverse]
        table[keys] = signs
        return table[ns]

    def signs(self, wf: arith.WindowFactors) -> np.ndarray:
        """Signs of h(n) over a factor window as int8 (+1/-1; 0 where h(n)=0)."""
        # the parity of big_omega needs no factor arrays, which cost 3x the sieve
        if self.kind in ("liouville", "mobius"):
            lam = 1 - 2 * (wf.big_omega & 1)
            return lam if self.kind == "liouville" else np.where(wf.squarefree, lam, 0)
        if self.kind == "one":
            return np.ones(wf.hi - wf.lo, dtype=np.int8)
        if self.kind == "character":
            chi = self.character
            return chi.real_sign_table()[wf.ns % chi.group.q]
        return wf.prod(np.sign(self.rule(wf.primes, wf.exps)).astype(np.int8))


def liouville_fn() -> MultiplicativeFunction:
    return MultiplicativeFunction("liouville", lambda p, e: (-1.0) ** e, kind="liouville")


def mobius_fn() -> MultiplicativeFunction:
    return MultiplicativeFunction("mobius", lambda p, e: np.where(e == 1, -1.0, 0.0), kind="mobius")


def one_fn() -> MultiplicativeFunction:
    return MultiplicativeFunction("one", lambda p, e: np.ones(np.shape(p)), kind="one")


def character_fn(chi) -> MultiplicativeFunction:
    """Completely multiplicative extension of a real Dirichlet character."""
    if not chi.is_real:
        raise DomainError("character_fn requires a real (order <= 2) character")
    q = chi.group.q
    return MultiplicativeFunction(
        f"character-mod-{q}", lambda p, e: chi.real_sign_table()[p % q].astype(float) ** e,
        kind="character", character=chi)


def builtin_function(name: str) -> MultiplicativeFunction:
    table = {"liouville": liouville_fn, "mobius": mobius_fn, "one": one_fn}
    if name not in table:
        raise DomainError(f"unknown multiplicative function {name!r}; "
                          f"choose from {sorted(table)}")
    return table[name]()


# ---------------------------------------------------------------------------
# pretentious distance and the pretend criterion

def pretentious_distance_squared(f: MultiplicativeFunction, g: MultiplicativeFunction,
                                 x: float, r: int = 1) -> float:
    """D_r(f,g;x)^2 = sum_{p <= x, p not | r} (1 - f(p) g(p)) / p in increasing p."""
    if x < 2:
        raise DomainError("x must be >= 2")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    ps = arith.primes_upto(int(x))
    ps = ps[r % ps.astype(object) != 0]   # exact for any integer r
    terms = (1.0 - f.rule(ps, np.ones_like(ps)) * g.rule(ps, np.ones_like(ps))) / ps
    return float(np.cumsum(np.append(0.0, terms))[-1])


def pretend_sum(h: MultiplicativeFunction, chi, cutoff: float) -> float:
    """sum over p <= cutoff with h(p) chi(p) < 0 of 1/p (chi real/principal)."""
    if not chi.is_real:
        raise DomainError("the pretend criterion is defined for characters of order <= 2")
    G = chi.group
    ps = arith.primes_upto(int(cutoff))
    return float(pretend_sums(h, ps, [G.real_signs(ps, [G.real_index(chi)])])[0][0])


def pretend_sums(h: MultiplicativeFunction, ps: np.ndarray, sign_blocks) -> list[np.ndarray]:
    """pretend_sum of h for every row of each sign block, one float array per
    block.  ps holds the primes in increasing order; a block's k columns are
    its characters' int8 signs at ps[:k], the primes up to its cutoff.

    h is read in one rule call over ps.  Each sum is the running sum
    (np.cumsum) of its terms in increasing p, 1/p where h(p) chi(p) < 0 and
    0 elsewhere.
    """
    h_signs = h.prime_signs(ps)
    inverse = 1.0 / ps
    out = []
    for signs in sign_blocks:
        k = signs.shape[1]
        if not k:
            out.append(np.zeros(len(signs)))
            continue
        terms = np.where(signs * h_signs[:k] < 0, inverse[:k], 0.0)
        out.append(np.cumsum(terms, axis=1)[:, -1])
    return out


def pretend_condition_holds(pretend: float, c: float, Q1: float) -> bool:
    """The theorem-side smallness test: pretend <= c / Q1^(1/100)."""
    return pretend <= c / Q1 ** (1 / 100)


# ---------------------------------------------------------------------------
# L(1, chi) and L(q)

def _L1_values(G, rows) -> list[float]:
    """L(1, chi) for the non-principal real characters G.real_characters()[rows],
    exactly resummed.

    Partial summation over residue classes collapses the conditionally
    convergent series to the finite digamma sum -(1/q) sum_a chi(a) psi(a/q)
    (the a-average of the tail is exact because sum_a chi(a) = 0); evaluated
    at 30 significant digits, far below the 1e-8 relative target, with each
    psi(a/q) evaluated once for all rows.
    """
    import mpmath   # ~30 ms to import; only this function needs it

    q = G.q
    with mpmath.workdps(30):
        digammas = [mpmath.digamma(mpmath.mpf(a) / q) for a in G.units.tolist()]
        out = []
        for signs in G.real_signs(G.units, rows):   # one int8 row at a time
            total = mpmath.mpf(0)
            for s, d in zip(signs.tolist(), digammas):
                total += mpmath.mpf(s) * d
            out.append(float(-total / q))
    return out


def L_of_q(q: int, prime_cutoff: int | None = None) -> tuple[float, list[dict]]:
    """max over non-principal real chi mod q of L(1,chi)^-1 prod_{p<=q}(1-chi(p)/p)^-1.

    This equals max over real chi of prod_{p>q} (1 - chi(p)/p).  The principal
    character's product diverges to 0 and contributes nothing to the max; it
    is excluded.  Returns the max and a per-character breakdown; each entry
    carries a truncated-Euler-product cross-check of L(1,chi) up to
    prime_cutoff (default q).
    """
    from . import group as group_mod

    if q < 3:
        raise DomainError("L(q) needs a non-principal real character (q >= 3)")
    if prime_cutoff is None:
        prime_cutoff = q
    if prime_cutoff < q:
        raise DomainError("prime_cutoff must be >= q")
    G = group_mod.build_unit_group(q)
    ps = arith.primes_upto(prime_cutoff)
    signs = G.real_signs(ps, slice(1, None))   # int8, one row per non-principal character
    best = -math.inf
    rows = []
    for chi, L1, row in zip(G.real_characters()[1:], _L1_values(G, slice(1, None)), signs):
        # 1 - chi(p)/p (1 where chi(p) = 0), multiplied and divided out in increasing p
        local = 1.0 - row / ps
        prod = float(np.cumprod(np.append(1.0, np.where(ps <= q, local, 1.0)))[-1])
        euler = float(np.divide.accumulate(np.append(1.0, local))[-1])
        val = (1.0 / L1) * (1.0 / prod)
        rows.append({"character": chi.label(), "L1": L1, "value": val,
                     "L1_euler_truncated": euler})
        best = max(best, val)
    return best, rows

