"""Multiplicative functions and their sign statistics: the sign algebra,
pretentious distance, the "pretends to be a character" prime sum, sign-density
counts over squarefree integers, L(q), and sums of 1*psi over rough numbers.

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


def pretentious_distance(f, g, x: float, r: int = 1) -> float:
    return math.sqrt(max(0.0, pretentious_distance_squared(f, g, x, r)))


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
# sign densities over squarefree integers

def sign_density_counts(h: MultiplicativeFunction, q: int, y: int, delta: int,
                        eps: float = 0.1) -> tuple[int, dict]:
    """Exact sum_{n<=y, sgn(h(n))=delta} chi_0(n) |mu(n)| plus shape ratios.

    The reported lower-bound shapes are (phi(q)/q) y and, for the minus sign,
    the same times min(1, sum_{p <= y/q^(eps/8), h(p)<0, p not|q} 1/p).
    Ratios are informational (the implied constants are not specified).
    """
    if y < 1:
        raise DomainError("y must be >= 1")
    if delta not in (PLUS, MINUS):
        raise DomainError("delta must be +1 or -1")
    wf = arith.factor_window(0, y)
    coprime = np.gcd(wf.ns, q) == 1
    count = int(np.count_nonzero(coprime & wf.squarefree & (h.signs(wf) == delta)))
    shape = arith.euler_phi(q) / q * y
    neg_cut = y / q ** (eps / 8) if q > 1 else float(y)
    ps = arith.primes_upto(int(neg_cut))
    terms = np.where((q % ps != 0) & (h.prime_signs(ps) < 0), 1.0 / ps, 0.0)
    neg_sum = float(np.cumsum(np.append(0.0, terms))[-1])
    if delta == MINUS:
        shape *= min(1.0, neg_sum)
    report = {
        "count": count,
        "shape": shape,
        "ratio": count / shape if shape > 0 else float("inf"),
        "negative_prime_sum": neg_sum,
    }
    return count, report


def rough_squarefree_density(x: int, prime_predicate: Callable) -> tuple[float, dict]:
    """(1/x) sum_{n<=x, p|n => p in P} |mu(n)|, with the sieve-product shape.

    prime_predicate maps the int64 array of primes up to x to a bool array,
    membership in P.  The right-hand shape is prod_{p <= x, p not in P}
    (1 - 1/p); the ratio is reported, never asserted.
    """
    if x < 10:
        raise DomainError("x must be >= 10")
    ps = arith.primes_upto(x)
    allowed = np.zeros(x + 1, dtype=bool)
    allowed[ps] = prime_predicate(ps)
    wf = arith.factor_window(0, x)
    outside = np.bincount(wf.rows[~allowed[wf.primes]], minlength=x) > 0
    count = int(np.count_nonzero(wf.squarefree & ~outside))
    lhs = count / x
    rhs = float(np.cumprod(np.where(allowed[ps], 1.0, 1.0 - 1.0 / ps))[-1])
    return lhs, {"lhs_density": lhs, "rhs_product": rhs,
                 "ratio": lhs / rhs if rhs > 0 else float("inf")}


# ---------------------------------------------------------------------------
# L(1, chi) and L(q)

def dirichlet_L1(chi) -> float:
    """L(1, chi) for a non-principal real character, exactly resummed.

    Partial summation over residue classes collapses the conditionally
    convergent series to the finite digamma sum -(1/q) sum_a chi(a) psi(a/q)
    (the a-average of the tail is exact because sum_a chi(a) = 0); evaluated
    at 30 significant digits, far below the 1e-8 relative target.
    """
    if chi.is_principal:
        raise DomainError("L(1, chi_0) diverges; principal character excluded")
    if not chi.is_real:
        raise DomainError("only real characters are supported here")
    return _L1_values(chi.group, [chi.group.real_index(chi)])[0]


def _L1_values(G, rows) -> list[float]:
    """dirichlet_L1 of G's real_characters()[rows], psi(a/q) evaluated once for all."""
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


# ---------------------------------------------------------------------------
# sums of 1 * psi over rough numbers

def one_star_psi_sum(q: int, psi, y: int, z: float) -> tuple[float, dict]:
    """Exact sum_{n <= y, (n, P(z)) = 1} (1 * psi)(n), psi a real character.

    The reported shape is y L(1,psi) (phi(q)/q) prod_{2<p<=q, psi(p)=1}(1-2/p);
    the constant c_eps in front is surfaced as the measured ratio.
    """
    if not psi.is_real:
        raise DomainError("psi must be real")
    if y < 1:
        raise DomainError("y must be >= 1")
    wf = arith.factor_window(0, y)
    # (1 * psi)(p^e) is e + 1 where psi(p) = 1, [e even] where psi(p) = -1,
    # and 1 where psi(p) = 0; every term is an integer, so the sum is exact
    v = psi.real_sign_table()[wf.primes % psi.group.q]
    local = np.where(v > 0, wf.exps + 1, np.where(v < 0, wf.exps % 2 == 0, 1))
    total = float(wf.prod(local)[wf.rough(z)].sum())
    shape = 1.0
    if not psi.is_principal:
        L1 = dirichlet_L1(psi)
        shape = y * L1 * arith.euler_phi(q) / q
        ps = arith.primes_upto(q)[1:]   # the odd primes, multiplied in increasing p
        local = np.where(psi.real_sign_table()[ps % psi.group.q] > 0, 1.0 - 2.0 / ps, 1.0)
        shape = float(np.cumprod(np.append(shape, local))[-1])
    report = {"lhs": total, "rhs_shape": shape,
              "ratio": total / shape if shape else float("inf")}
    return total, report
