"""Independent oracles for the paper's lemmas, shared by the tests.

Orthogonality and Parseval on Z_q^x, the transform route of convolution,
the index-2 subgroups, the Polya-Vinogradov bound, the convolution lower
bounds, the sieve's divisor sums and its majorant nu, and roughness of one
integer.  No command runs them; each checks a library route or a fact the
paper asserts, at the tolerance the tests pin.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from linnik_lab import arith, charsums, group as g, setcomb, sieve
from linnik_lab.errors import DomainError, PreconditionError, ResourceError

# ---------------------------------------------------------------------------
# arith


def is_rough(n: int, z: float) -> bool:
    """True iff (n, P(z)) = 1, i.e. every prime factor of n is >= z.

    Never materializes P(z); trial-divides by primes < min(z, sqrt(n)+1).
    """
    if n < 1:
        raise DomainError("is_rough requires n >= 1")
    if n == 1 or z <= 2:
        return True
    cap = math.isqrt(n)
    for p in arith.primes_upto(min(int(math.ceil(z)) - 1 if z == int(z) else int(z), cap)):
        if p >= z:
            break
        if n % p == 0:
            return False
    # no divisor among primes < min(z, sqrt(n)); if n itself is a small prime
    # it is its own least factor
    if n < z:
        return False
    return True


# ---------------------------------------------------------------------------
# group


def index2_subgroups(q: int, G: g.UnitGroup | None = None) -> list[frozenset[int]]:
    """Kernels of the non-principal real characters (index-2 subgroups)."""
    return [chi.kernel() for chi in (G or g.build_unit_group(q)).real_characters()[1:]]


def fourier_forward(G: g.UnitGroup, f) -> np.ndarray:
    """F(chi) = E_{a in Z_q^x} f(a) conj(chi(a)), by row."""
    return g.transform(G, f) / G.phi


def parseval_gap(G: g.UnitGroup, f) -> float:
    """| E|f|^2 - sum_chi |F(chi)|^2 |, zero in exact arithmetic."""
    vec = g._as_unit_vector(G, f)
    coeffs = fourier_forward(G, vec)
    return abs(float(np.mean(np.abs(vec) ** 2)) - float(np.sum(np.abs(coeffs) ** 2)))


def convolve_group_transform(G: g.UnitGroup, f, h) -> np.ndarray:
    """The convolution of group.convolve_group through pointwise products of
    raw transforms."""
    return g.fourier_inverse(G, g.transform(G, f) * g.transform(G, h)) / G.phi


def orthogonality_exact(G: g.UnitGroup) -> bool:
    """Exact pairwise orthogonality via integer angle arithmetic.

    For every non-principal chi, read by row in blocks of character_angles,
    the value multiset is checked to cover each m-th root of unity equally
    often (m = order of chi, from G.orders), which forces
    sum_a chi(a) = 0 exactly; together with sum_a |chi(a)|^2 = phi(q) this
    is pairwise orthogonality of the full dual (differences of characters
    are characters).
    """
    L = G.angle_modulus
    block = max(1, (1 << 16) // G.q)   # rows per character_angles call
    for s in range(1, G.phi, block):   # row 0 is principal
        rows = np.arange(s, min(s + block, G.phi))
        m = G.orders[rows]
        step = (L // m)[:, None]
        ks = G.character_angles(rows)[:, G.units]
        if np.any(ks % step):
            return False
        # each row's values ks // step, shifted past the rows before it
        start = np.cumsum(m) - m
        counts = np.bincount((ks // step + start[:, None]).reshape(-1), minlength=int(m.sum()))
        if np.any(counts != np.repeat(G.phi // m, m)):
            return False
    return True


# ---------------------------------------------------------------------------
# charsums


def pv_burgess_check(chi, M: int, N: int) -> charsums.SumReport:
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
    sup, _ = charsums.pv_max_window(chi)
    ok = value <= pv + 1e-9 and sup <= pv + 1e-9
    if not ok:
        raise AssertionError(f"Polya-Vinogradov bound violated: {max(value, sup)} > {pv}")
    burgess = {f"burgess_r{r}": N ** (1 - 1 / r) * q ** ((r + 1) / (4 * r * r))
               for r in (2, 3)}
    return charsums.SumReport.make(value, pv, asserted=True, ok=True, tag="polya-vinogradov",
                                   sup_over_windows=sup, **burgess)


# ---------------------------------------------------------------------------
# setcomb


def convolution_lower_check(G: g.UnitGroup, A, B, cosets=None) -> dict:
    """Assert the convolution lower bounds on product sets.

    (i) conv(c) >= |A| + |B| - |G| at every c; (ii) when A <= aH, B <= bH
    are supplied as (H_members, a, b), conv(c) >= |A| + |B| - |H| on abH.
    """
    A, B = (np.unique(np.asarray(S, dtype=np.int64) % G.q) for S in (A, B))
    cv = setcomb.conv2(G, A, B)
    bound_i = len(A) + len(B) - G.phi
    if int(cv.min()) < bound_i:
        raise AssertionError("lower bound (i) failed")
    report = {"min_conv": int(cv.min()), "bound_i": bound_i}
    if cosets is not None:
        H, a, b = cosets
        H = np.unique(np.asarray(H, dtype=np.int64) % G.q)
        aH = setcomb.product_set(G, [a], H)
        bH = setcomb.product_set(G, [b], H)
        if not (np.isin(A, aH).all() and np.isin(B, bH).all()):
            raise PreconditionError("coset containment hypothesis fails")
        bound_ii = len(A) + len(B) - len(H)
        abH = setcomb.product_set(G, [a * b % G.q], H)
        low = int(cv[G.unit_pos[abH]].min())
        if low < bound_ii:
            raise AssertionError("lower bound (ii) failed")
        report.update({"bound_ii": bound_ii, "min_conv_on_abH": low})
    return report


# ---------------------------------------------------------------------------
# sieve


def weighted_divisor_sum(weights: sieve.SieveWeights, n: int) -> int:
    """sum_{d | n} lambda_d."""
    d = weights.d if n < 2**63 else weights.d.astype(object)
    return int(weights.mu[n % d == 0].sum())


def sum_over_array(weights: sieve.SieveWeights, limit: int) -> np.ndarray:
    """Array S[n] = sum_{d|n} lambda_d for 0 <= n <= limit (S[0] unused)."""
    if limit > arith.PRIME_TABLE_LIMIT:
        raise ResourceError(
            f"a divisor-sum array up to {limit} exceeds the limit {arith.PRIME_TABLE_LIMIT}")
    out = np.zeros(limit + 1, dtype=np.int64)
    k = int(np.searchsorted(weights.d, limit, "right"))
    for d, w in zip(weights.d[:k].tolist(), weights.mu[:k].tolist()):
        out[d::d] += w
    return out


def majorant_nu(z: float, D: float, q: int, interval: arith.IntegerInterval,
                weights_plus: sieve.SieveWeights | None = None) -> Callable[[int], float]:
    """The pointwise majorant nu(n) of the sign-restricted rough indicators.

    nu(n) = prod_{p<z, p not|q}(1-1/p)^-1 * sum_{d|n, d<=D} lambda_d^+ on
    [I]_q, and 0 elsewhere; nu >= f^Delta pointwise for both signs by the
    sandwich property.
    """
    if weights_plus is None:
        weights_plus, _ = sieve.build_beta_sieve(z, D)
    norm = arith.mertens_product(z, q, inverse=True)

    def nu(n: int) -> float:
        if n not in interval or math.gcd(n, q) != 1:
            return 0.0
        return norm * weighted_divisor_sum(weights_plus, n)

    return nu
