"""Product-set combinatorics on Z_q^x: stabilizers, the Kneser inequality,
the popular-Kneser dichotomy, the small-product structure lemma, and the
triple-convolution dichotomy classifier.

Sets are frozensets (or iterables) of unit residues.  Convolutions are exact
integer counts on the dlog grid of Z_q^x (group.convolve_group); product sets
and stabilizers are supports and level sets of those counts.  Every
certificate a classifier returns is re-verified by direct recomputation before
it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import group as group_mod
from .errors import DomainError, PreconditionError

EXPANDS = "ExpandsEverywhere"
COSET = "CosetConcentrated"
BOTH = "Both"
UNDETERMINED = "Undetermined"


@dataclass
class DichotomyOutcome:
    branch: str
    witnesses: dict = field(default_factory=dict)
    verified: bool = False


def _indicator(G: group_mod.UnitGroup, A) -> np.ndarray:
    """0/1 vector over unit positions; raises on a non-unit."""
    q = G.q
    res = np.fromiter(A, np.int64, count=len(A)) % q
    pos = G.unit_pos[res]
    if np.any(pos < 0):
        bad = next(a for a in A if G.unit_pos[a % q] < 0)
        raise DomainError(f"{bad} is not a unit mod {q}")
    v = np.zeros(len(G.units), dtype=np.int64)
    v[pos] = 1
    return v


def _members(G: group_mod.UnitGroup, mask: np.ndarray) -> frozenset[int]:
    return frozenset(G.units[mask].tolist())


def product_set(G: group_mod.UnitGroup, A, B) -> frozenset[int]:
    """A . B = {ab mod q}, the support of 1_A * 1_B."""
    return _members(G, conv2(G, A, B) > 0)


def stabilizer(G: group_mod.UnitGroup, S) -> frozenset[int]:
    """{h : hS = S}; the full group for empty S (documented convention).

    (1_S * 1_{S^-1})(h) counts the s in S with h^-1 s in S, so it equals |S|
    exactly on the stabilizer.
    """
    ind = _indicator(G, S)
    size = int(ind.sum())
    if not size:
        return _members(G, np.ones(len(G.units), dtype=bool))
    return _members(G, group_mod.convolve_group(G, ind, ind[G.inverse_pos()]) == size)


def conv2(G: group_mod.UnitGroup, A, B) -> np.ndarray:
    """(1_A * 1_B) over unit positions, exact integer counts."""
    return group_mod.convolve_group(G, _indicator(G, A), _indicator(G, B))


def conv3(G: group_mod.UnitGroup, A, B, C) -> np.ndarray:
    """(1_A * 1_B * 1_C) over unit positions, exact."""
    return group_mod.convolve_group(G, conv2(G, A, B), _indicator(G, C))


def conv3_transform(G: group_mod.UnitGroup, A, B, C) -> np.ndarray:
    """Triple convolution through the character transform (cross-check route)."""
    ra, rb, rc = (group_mod.transform(G, _indicator(G, S)) for S in (A, B, C))
    return group_mod.fourier_inverse(G, ra * rb * rc).real / G.phi


def kneser_check(G: group_mod.UnitGroup, A, B) -> dict:
    """Assert |A.B| >= |A.H| + |B.H| - |H| >= |A| + |B| - |H|, H = stab(A.B)."""
    A = frozenset(a % G.q for a in A)
    B = frozenset(b % G.q for b in B)
    if not A or not B:
        raise PreconditionError("A and B must be nonempty")
    AB = product_set(G, A, B)
    H = stabilizer(G, AB)
    AH = product_set(G, A, H)
    BH = product_set(G, B, H)
    mid = len(AH) + len(BH) - len(H)
    low = len(A) + len(B) - len(H)
    report = {"|AB|": len(AB), "|AH|+|BH|-|H|": mid, "|A|+|B|-|H|": low,
              "|H|": len(H)}
    if not (len(AB) >= mid >= low):
        raise AssertionError(f"Kneser inequality failed: {report}")
    return report


def convolution_lower_check(G: group_mod.UnitGroup, A, B, cosets=None) -> dict:
    """Assert the convolution lower bounds on product sets.

    (i) conv(c) >= |A| + |B| - |G| at every c; (ii) when A <= aH, B <= bH
    are supplied as (H_members, a, b), conv(c) >= |A| + |B| - |H| on abH.
    """
    A = frozenset(a % G.q for a in A)
    B = frozenset(b % G.q for b in B)
    cv = conv2(G, A, B)
    bound_i = len(A) + len(B) - G.phi
    if int(cv.min()) < bound_i:
        raise AssertionError("lower bound (i) failed")
    report = {"min_conv": int(cv.min()), "bound_i": bound_i}
    if cosets is not None:
        H, a, b = cosets
        H = frozenset(h % G.q for h in H)
        aH = product_set(G, [a], H)
        bH = product_set(G, [b], H)
        if not (A <= aH and B <= bH):
            raise PreconditionError("coset containment hypothesis fails")
        bound_ii = len(A) + len(B) - len(H)
        abH = product_set(G, [a * b % G.q], H)
        vals = [int(cv[G.unit_pos[c]]) for c in abH]
        if min(vals) < bound_ii:
            raise AssertionError("lower bound (ii) failed")
        report.update({"bound_ii": bound_ii, "min_conv_on_abH": min(vals)})
    return report


def popular_kneser_classify(G: group_mod.UnitGroup, A, B, t: int, u: int) -> DichotomyOutcome:
    """Decide which side of the popular-Kneser dichotomy holds, with proof.

    (a): conv >= u on at least |A| + |B| - 2t - u|G|/t elements.  (b): trimmed
    subsets A', B' with at most t-1 total removals such that conv_{A,B} >= t
    on all of A'.B'.  The trim search is greedy (repeatedly removing the
    element covering the most bad products); any verified certificate is
    acceptable since the lemma only asserts existence.
    """
    A = frozenset(a % G.q for a in A)
    B = frozenset(b % G.q for b in B)
    if not (t >= u >= 1):
        raise PreconditionError("need t >= u >= 1")
    if len(A) < t or len(B) < t:
        raise PreconditionError("need |A|, |B| >= t")
    cv = conv2(G, A, B)
    popular = int(np.sum(cv >= u))
    need_a = len(A) + len(B) - 2 * t - u * G.phi / t
    ok_a = popular >= need_a

    # greedy trim for branch (b)
    q = G.q
    Ap, Bp = set(A), set(B)
    removals = 0

    def bad_products():
        bad = set()
        for a in Ap:
            for b in Bp:
                c = a * b % q
                if cv[G.unit_pos[c]] < t:
                    bad.add(c)
        return bad

    bad = bad_products()
    while bad and removals < t - 1:
        best_elem, best_side, best_cover = None, None, -1
        for x in Ap:
            cover = sum(1 for b in Bp if x * b % q in bad)
            if cover > best_cover:
                best_elem, best_side, best_cover = x, "A", cover
        for y in Bp:
            cover = sum(1 for a in Ap if a * y % q in bad)
            if cover > best_cover:
                best_elem, best_side, best_cover = y, "B", cover
        if best_cover <= 0:
            break
        (Ap if best_side == "A" else Bp).discard(best_elem)
        removals += 1
        bad = bad_products()
    ok_b = not bad and (len(A) - len(Ap)) + (len(B) - len(Bp)) <= t - 1

    witnesses = {"popular_count": popular, "popular_threshold": need_a}
    if ok_b:
        witnesses.update({"A_prime": frozenset(Ap), "B_prime": frozenset(Bp),
                          "removals": removals})
        # re-verify the certificate from scratch
        for c in product_set(G, Ap, Bp):
            assert cv[G.unit_pos[c]] >= t
    if ok_a and ok_b:
        return DichotomyOutcome(BOTH, witnesses, verified=True)
    if ok_a:
        return DichotomyOutcome(EXPANDS, witnesses, verified=True)
    if ok_b:
        return DichotomyOutcome(COSET, witnesses, verified=True)
    return DichotomyOutcome(UNDETERMINED, witnesses, verified=False)


def subgroups_of_index_below(G: group_mod.UnitGroup, bound: float) -> list[frozenset[int]]:
    """All proper subgroups of index Y with 1 < Y < bound (bound <= 6).

    Enumerated through dual subgroups of order Y; for Y <= 5 two generators
    suffice (every abelian group of order < 8 except Z_2^3 is 2-generated,
    and |dual subgroup| < 6 here).
    """
    if bound > 6:
        raise PreconditionError("subgroup enumeration implemented for index < 6 only")
    # the order of dual vector t is lcm_i d_i / gcd(d_i, t_i); no character is built
    orders = np.ones(G.phi, dtype=np.int64)
    for t, d in zip(np.unravel_index(np.arange(G.phi), G.grid_shape), G.grid_shape):
        orders = np.lcm(orders, d // np.gcd(d, t))
    small = [G.dual_vector(i) for i in np.flatnonzero((orders > 1) & (orders < bound)).tolist()]
    seen: set[frozenset[tuple[int, ...]]] = set()
    out: list[frozenset[int]] = []
    for i, v1 in enumerate(small):
        for v2 in small[i:]:
            # subgroup of the dual generated by v1, v2
            vecs = {v1, v2}
            frontier = True
            while frontier:
                frontier = False
                for v in list(vecs):
                    for w in list(vecs):
                        s = tuple((a + b) % comp.order for a, b, comp in
                                  zip(v, w, G.components))
                        if s not in vecs:
                            vecs.add(s)
                            frontier = True
            zero = tuple(0 for _ in G.components)
            vecs.add(zero)
            if not (1 < len(vecs) < bound):
                continue
            key = frozenset(vecs)
            if key in seen:
                continue
            seen.add(key)
            out.append(frozenset.intersection(
                *(group_mod.DirichletCharacter(G, v).kernel() for v in vecs)))
    return out


def structure_classify(G: group_mod.UnitGroup, A, B, alpha: float, alpha_prime: float,
                       beta: float) -> dict:
    """Either |A.B| >= beta phi(q), or the stabilizer of A.B has index Y with
    1 < Y < 1/(2 alpha' - beta).  Hypotheses are checked computationally and
    raise PreconditionError when violated.
    """
    if not (beta < 2 * alpha <= 2 * alpha_prime):
        raise PreconditionError("need beta < 2 alpha <= 2 alpha'")
    A = frozenset(a % G.q for a in A)
    B = frozenset(b % G.q for b in B)
    phi = G.phi
    if len(A) < alpha * phi or len(B) < alpha * phi:
        raise PreconditionError("size hypothesis |A|,|B| >= alpha phi fails")
    index_bound = 1.0 / (2 * alpha - beta)
    for H0 in subgroups_of_index_below(G, index_bound):
        Y0 = phi // len(H0)
        for S, name in ((A, "A"), (B, "B")):
            met = len({_coset_id(G, s, H0) for s in S})
            if met < alpha_prime * Y0:
                raise PreconditionError(
                    f"{name} meets only {met}/{Y0} cosets of an index-{Y0} subgroup")
    AB = product_set(G, A, B)
    if len(AB) >= beta * phi:
        return {"branch": "a", "|AB|": len(AB), "threshold": beta * phi}
    H = stabilizer(G, AB)
    Y = phi // len(H)
    if not (1 < Y < 1.0 / (2 * alpha_prime - beta)):
        raise AssertionError("structure lemma: neither branch verified")
    return {"branch": "b", "stabilizer_index": Y,
            "index_bound": 1.0 / (2 * alpha_prime - beta), "H": H}


def _coset_id(G, s, H) -> frozenset[int]:
    return product_set(G, [s], H)


def coset_overlaps(G: group_mod.UnitGroup, S) -> tuple[list[int], list[int]]:
    """For each real character psi (rows in real_characters() order) and a
    nonempty set S of units: the larger of |S cap ker psi| and |S minus ker psi|,
    and a representative of that coset, 1 for the kernel and else the first
    element of S, in its iteration order, off the kernel."""
    arr = np.fromiter(S, np.int64, count=len(S))
    # compared as int64, whose loops every command already runs: the first
    # int8 comparison or bool argmax of a process adds ~64 kB to its peak RSS
    off = G.real_signs(arr).astype(np.int64) != 1
    outside = np.count_nonzero(off, axis=1).tolist()
    return ([max(len(arr) - o, o) for o in outside],
            [1 % G.q if 2 * o <= len(arr) else int(arr[np.flatnonzero(row)[0]])
             for o, row in zip(outside, off)])


def triple_conv_classify(G: group_mod.UnitGroup, A1, A2, A3, eps: float) -> DichotomyOutcome:
    """The triple-convolution dichotomy for sets larger than (2/5+eps) phi.

    (a) the triple convolution is >= eps^2 phi^2 / 500 everywhere, or (b) an
    index-2 subgroup H and representatives a_i with overlaps
    |A_i cap a_i H| >= |A_i| - eps phi/2 and convolution >= phi^2/25 on
    a_1 a_2 a_3 H.  Both branches are evaluated; ties report Both; outside
    the asymptotic regime neither may certify, reported as Undetermined.
    """
    sets = [frozenset(a % G.q for a in S) for S in (A1, A2, A3)]
    phi = G.phi
    if any(len(S) <= (0.4 + eps) * phi for S in sets):
        raise PreconditionError("size hypothesis |A_i| > (2/5 + eps) phi fails")
    cv = conv3(G, *sets)
    thr_a = eps * eps * phi * phi / 500.0
    min_all = int(cv.min())
    ok_a = min_all >= thr_a
    if ok_a:
        # independent recomputation through the transform route
        alt = conv3_transform(G, *sets)
        assert abs(alt - cv).max() < 1e-6

    best_b = None
    fits = [coset_overlaps(G, S) for S in sets]
    for j in range(1, len(G.real_characters())):
        overlaps = [int(overlap[j]) for overlap, _ in fits]
        if any(ov < len(S) - eps * phi / 2 for ov, S in zip(overlaps, sets)):
            continue
        reps = [int(rep[j]) for _, rep in fits]
        prod_rep = math.prod(reps) % G.q if G.q > 1 else 0
        # the coset prod_rep H: the units where psi takes its value at prod_rep
        on_coset = G.real_signs(G.units, j) == G.real_signs(prod_rep, j)
        min_coset = int(cv[on_coset].min())
        if min_coset >= phi * phi / 25.0:
            psi = G.real_characters()[j]
            best_b = {"H": psi.kernel(), "psi": psi.label(), "representatives": reps,
                      "overlaps": overlaps, "min_conv_on_coset": min_coset}
            break
    ok_b = best_b is not None

    witnesses = {"min_conv": min_all, "argmin": int(G.units[int(np.argmin(cv))]),
                 "threshold_a": thr_a}
    if ok_b:
        witnesses["coset_certificate"] = best_b
    if ok_a and ok_b:
        return DichotomyOutcome(BOTH, witnesses, verified=True)
    if ok_a:
        return DichotomyOutcome(EXPANDS, witnesses, verified=True)
    if ok_b:
        return DichotomyOutcome(COSET, witnesses, verified=True)
    return DichotomyOutcome(UNDETERMINED, witnesses, verified=False)
