"""Fundamental-lemma sieve weights lambda_d^+-, their sandwich and accuracy
properties, and rough-number counts in index-2 cosets.

Construction: a truncated Buchstab recursion over chains of strictly
decreasing primes p_1 > p_2 > ... below z.  A branch may be cut only at odd
depth for the upper sieve and only at even depth for the lower sieve (that
parity is what makes the sandwich one-sided), and it is cut exactly when the
level budget D cannot absorb further expansion: a chain kept at a checked
depth m must satisfy c_m * p^ <= D, where c_m is the chain product and p^ is
the largest prime below p_m (just c_m <= D when p_m = 2).  This is the least
truncation compatible with support {d <= D, d | P(z)}, so whenever the full
Moebius expansion fits under D the weights are exactly mu(d).  The truncation
parameter beta = 9 kappa + 1 governs the accuracy threshold s >= 9 kappa + 1
of the explicit (1 +- e^(9 kappa - s) K^10) factor.

The recursion is expanded level by level in arrays: depth m holds every
kept chain of m primes.  A chain's children extend it by a smaller prime p
with c * p <= D; both the children under D and those that pass the budget
test are prefixes of the primes below the chain's smallest one, so each
level's kept nodes are counted, and checked against the support budget,
before they are built.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import arith
from .errors import DomainError, PreconditionError, ResourceError

_SUPPORT_BUDGET = 10**7
# rough_count_in_coset counts n <= cap in blocks of this many integers, and
# refuses a cap past the limit (its run time grows with cap)
_ROUGH_BLOCK = 1 << 20
_ROUGH_CAP_LIMIT = 1 << 32


class _WeightItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.d.tolist(), self._mapping.mu.tolist())


class _WeightValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.mu.tolist())


class _WeightView(Mapping):
    """Read-only mapping d -> lambda_d (Python ints) over sorted arrays."""

    def __init__(self, d: np.ndarray, mu: np.ndarray):
        self.d, self.mu = d, mu

    def __getitem__(self, key):
        i = int(np.searchsorted(self.d, key))
        if i < self.d.size and self.d[i] == key:
            return int(self.mu[i])
        raise KeyError(key)

    def __iter__(self):
        return iter(self.d.tolist())

    def __len__(self):
        return self.d.size

    def items(self):
        return _WeightItems(self)

    def values(self):
        return _WeightValues(self)


@dataclass(frozen=True, eq=False)
class SieveWeights:
    """Coefficients lambda_d for one side of the sieve.

    d holds the support, the squarefree d | P(z) with d <= D, in increasing
    order; mu holds lambda_d = mu(d) as int8 (never more than 1 in absolute
    value).  d[0] = 1 and lambda_1 = 1.  d is int64, or an object array of
    Python ints when D * max p could pass int64.
    """

    z: float
    D: float
    kappa: float
    sign: int  # +1 upper, -1 lower
    d: np.ndarray
    mu: np.ndarray

    @property
    def weights(self) -> Mapping[int, int]:
        """The weights as a read-only mapping d -> lambda_d."""
        return _WeightView(self.d, self.mu)

    @property
    def s(self) -> float:
        return math.log(self.D) / math.log(self.z) if self.z > 1 else math.inf


def build_beta_sieve(z: float, D: float, kappa: float = 1.0) -> tuple[SieveWeights, SieveWeights]:
    """Construct the (upper, lower) weight pair for sifting limit z, level D."""
    if not (z >= 2 and D >= 2):  # NaN fails too
        raise DomainError("need z >= 2 and D >= 2")
    ps = arith.primes_upto(math.ceil(z) - 1)
    if ps.size and ps[-1] > D:
        raise PreconditionError(
            f"no valid lower sieve: prime {ps[-1]} < z exceeds the level D={D}")
    # every chain product divides P(z), so capping D there changes no test
    P = math.prod(ps.tolist())
    D_eff = P if D >= P else math.floor(D)
    dtype = np.int64 if not ps.size or D_eff * int(ps[-1]) < 2**63 else object
    # the child p_i of chain c passes the budget iff c * p_i * p^_i <= D_eff,
    # i.e. pair[i] <= D_eff // c, with p^_i the prime below p_i (1 at p = 2)
    pair = ps * np.concatenate(([1], ps[:-1]))
    top = int(pair.max(initial=1))

    # prime indices and child counts fit the smallest type holding ps.size,
    # so the loop's per-chain arrays take 1 byte a chain where ps.size < 256
    small = np.min_scalar_type(ps.size)
    c = np.ones(1, dtype=dtype)
    low = np.array([ps.size], dtype=small)  # index of the chain's smallest prime
    keep_plus = keep_minus = np.ones(1, dtype=bool)
    plus, minus = [(c, 1)], [(c, 1)]
    count = depth = 0
    while c.size:
        depth += 1
        room = np.minimum(D_eff // c, top).astype(np.int64, copy=False)
        k = np.minimum(low, np.searchsorted(ps, room, "right").astype(small))
        k_budget = np.minimum(k, np.searchsorted(pair, room, "right").astype(small))
        del room   # the loop's peak holds a few arrays of c's size: one fewer
        # odd depths check the upper side, even depths the lower side; the
        # unchecked side keeps all k children, the checked one the budget prefix
        checked, free = (keep_plus, keep_minus) if depth % 2 else (keep_minus, keep_plus)
        n = np.where(free, k, k_budget * checked)
        count += int(n.sum())
        if count > _SUPPORT_BUDGET:
            raise ResourceError("sieve support enumeration exceeded 1e7 divisors")
        parent = np.repeat(np.arange(c.size, dtype=np.int32), n)
        first = np.cumsum(n, dtype=np.int64) - n   # each chain's first child
        low = (np.arange(parent.size) - np.repeat(first, n)).astype(small)
        c = c[parent] * ps[low]
        checked = checked[parent] & (low < k_budget[parent])
        free = free[parent]
        keep_plus, keep_minus = (checked, free) if depth % 2 else (free, checked)
        w = -1 if depth % 2 else 1
        plus.append((c[keep_plus], w))
        minus.append((c[keep_minus], w))

    def side(levels, sign):
        d = np.concatenate([ds for ds, _ in levels])
        mu = np.concatenate([np.full(ds.size, w, dtype=np.int8) for ds, w in levels])
        # freed before the sort so that it reuses their memory: the peak
        # then does not depend on where the allocator placed the levels
        levels.clear()
        if d.dtype == object:
            order = np.argsort(d)
            d, mu = d[order], mu[order]
        else:
            # every d is at most D_eff < 2^62, so d and the bit mu < 0 pack
            # into one int64 that sorts in place (the d are distinct)
            d <<= 1
            d |= mu < 0
            d.sort()
            mu = 1 - 2 * np.bitwise_and(d, 1, dtype=np.int8)
            d >>= 1
        d.setflags(write=False)
        mu.setflags(write=False)
        return SieveWeights(z, float(D), kappa, sign, d, mu)

    return side(plus, +1), side(minus, -1)


def _check_kbound(ps: np.ndarray, gs: np.ndarray, K: float, kappa: float):
    """Verify prod_{w<=p<z1}(1-g(p))^-1 <= K (log z1 / log w)^kappa on prime
    pairs, given the primes p < z and their values g(p) in [0, 1)."""
    bad = np.flatnonzero(~((gs >= 0.0) & (gs < 1.0)))
    if bad.size:
        raise PreconditionError(f"g({ps[bad[0]]}) = {float(gs[bad[0]])} outside [0, 1)")
    # the sup over real (w, z1) is attained with w at a prime and z1 just
    # above one, so prime pairs suffice; products divide in increasing p
    logs = np.log(ps)
    for i, w in enumerate(ps.tolist()):
        prods = np.divide.accumulate(np.append(1.0, 1.0 - gs[i:]))[1:]
        over = np.flatnonzero(prods > K * (logs[i:] / logs[i]) ** kappa + 1e-12)
        if over.size:
            raise PreconditionError(
                f"declared K={K} violates the dimension bound at w={w}, z1={ps[i + over[0]]}")


def _weighted_sum(weights: SieveWeights, ps: np.ndarray, gs: np.ndarray) -> float:
    """sum_d lambda_d g(d) with g(d) = prod_{p | d} g(p), multiplied in
    increasing p, and the terms added left to right in the pre-order of the
    Buchstab recursion (larger primes first, a chain before its extensions)."""
    d = weights.d
    hits = [np.nonzero(d % p == 0)[0] for p in ps]
    gd = np.ones(d.size)
    omega = np.zeros(d.size, dtype=np.int64)
    for hit, gp in zip(hits, gs):
        gd[hit] *= gp
        omega[hit] += 1
    # row j holds len(ps) - i for the j-th largest prime p_i of d, and 0 past
    # its last prime, so an ascending sort puts a chain before its extensions
    chain = np.zeros((max(int(omega.max()), 1), d.size), dtype=np.min_scalar_type(len(ps)))
    depth = np.zeros(d.size, dtype=np.int64)
    for i in range(len(ps) - 1, -1, -1):
        chain[depth[hits[i]], hits[i]] = len(ps) - i
        depth[hits[i]] += 1
    order = np.lexsort(chain[::-1])
    return float(np.cumsum(weights.mu[order] * gd[order])[-1])


def sieve_accuracy(pair: tuple[SieveWeights, SieveWeights],
                   g: Callable[[np.ndarray], np.ndarray],
                   z: float, K: float, kappa: float = 1.0) -> dict:
    """Assert the explicit accuracy sandwich of the weight pair against the
    density g, an array rule: the int64 array of primes in, g(p) out.

    Returns both weighted sums and the reference product prod_{p<z}(1-g(p)),
    asserting sum lambda^+ g <= (1+err) ref and sum lambda^- g >= (1-err) ref
    with err = e^(9 kappa - s) K^10.  Requires s = log D/log z >= 9 kappa + 1.
    """
    plus, minus = pair
    s = plus.s
    if s < 9 * kappa + 1:
        raise PreconditionError(f"s = log D/log z = {s:.3f} < 9 kappa + 1 = {9 * kappa + 1}")
    # one call of g on the primes below z and below the weights' sifting limit
    ps = arith.primes_upto(math.ceil(max(z, plus.z)) - 1)
    gs = np.asarray(g(ps), dtype=float)
    n_z = int(np.searchsorted(ps, z, "left"))
    _check_kbound(ps[:n_z], gs[:n_z], K, kappa)

    def weighted(weights: SieveWeights) -> float:
        n = int(np.searchsorted(ps, weights.z, "left"))
        return _weighted_sum(weights, ps[:n], gs[:n])

    val_plus = weighted(plus)
    val_minus = weighted(minus)
    ref = float(np.cumprod(np.append(1.0, 1.0 - gs[:n_z]))[-1])
    err = math.exp(9 * kappa - s) * K**10
    ok_plus = val_plus <= (1.0 + err) * ref + 1e-12
    ok_minus = val_minus >= (1.0 - err) * ref - 1e-12
    if not (ok_plus and ok_minus):
        raise AssertionError(
            f"accuracy sandwich failed: {val_minus} .. {val_plus} vs ref {ref}, err {err}")
    return {"upper": val_plus, "lower": val_minus, "reference": ref,
            "error_factor": err, "s": s}


def rough_count_in_coset(Rcap: float, coset, z: float,
                         eps: float = 0.1) -> tuple[int, dict]:
    """Exact |{n <= Rcap : n in bH, (n, P(z)) = 1}| with the half-share ratio.

    `coset` is a CosetSpec, or None to count every rough n <= Rcap.  The
    report compares against (1/2 - eps) times the total rough count below
    Rcap; at desk scale the ratio may dip below the shape and is logged,
    never asserted.  The integers are counted in fixed blocks; a cap
    past _ROUGH_CAP_LIMIT raises ResourceError.  A cap below 1 or eps >= 1/2
    leaves no positive shape and raises DomainError.
    """
    cap = arith.snap(Rcap)
    if cap < 1:
        raise DomainError(f"the cap must be >= 1, got {Rcap}")
    if not eps < 0.5:
        raise DomainError(f"eps must be < 1/2, got {eps}")
    if cap > _ROUGH_CAP_LIMIT:
        raise ResourceError(f"a rough count up to {cap} exceeds the limit {_ROUGH_CAP_LIMIT}")
    if coset is not None and not coset.group.is_unit(coset.b):
        raise DomainError("coset representative must be a unit")
    ps = [p for p in arith.primes_upto(int(z)).tolist() if p < z]
    total = count = 0
    for lo in range(0, cap, _ROUGH_BLOCK):
        n = np.arange(lo + 1, min(lo + _ROUGH_BLOCK, cap) + 1, dtype=np.int64)
        rough = np.ones(n.size, dtype=bool)
        for p in ps:
            rough[(-(lo + 1)) % p :: p] = False
        total += int(np.sum(rough))
        if coset is not None:
            count += int(np.sum(rough & coset.member_mask(n)))
    if coset is None:
        count = total
    shape = (0.5 - eps) * total
    report = {"count": count, "total_rough": total, "share_shape": shape,
              "ratio": count / shape}
    return count, report

