"""Product-set combinatorics on Z_q^x: stabilizers, the Kneser inequality,
coset overlaps, and the triple-convolution dichotomy classifier.

Sets are int64 arrays (or lists) of units, read mod q, duplicates counted
once.  Convolutions are exact integer counts of their 0/1 indicators on the
dlog grid of Z_q^x (group.convolve_group); product sets and stabilizers are
the sorted unit arrays at supports and level sets of those counts.  Every
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
    res = np.asarray(A, dtype=np.int64)
    pos = G.unit_pos[res % G.q]
    if np.any(pos < 0):
        raise DomainError(f"{res[pos < 0][0]} is not a unit mod {G.q}")
    v = np.zeros(len(G.units), dtype=np.int64)
    v[pos] = 1
    return v


def product_set(G: group_mod.UnitGroup, A, B) -> np.ndarray:
    """A . B = {ab mod q}, the support of 1_A * 1_B."""
    return G.units[conv2(G, A, B) > 0]


def stabilizer(G: group_mod.UnitGroup, S) -> np.ndarray:
    """{h : hS = S}; the full group for empty S (documented convention).

    (1_S * 1_{S^-1})(h) counts the s in S with h^-1 s in S, so it equals |S|
    exactly on the stabilizer, and 0 = |S| everywhere for empty S.
    """
    ind = _indicator(G, S)
    return G.units[group_mod.convolve_group(G, ind, ind[G.inverse_pos()]) == ind.sum()]


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
    A, B = (G.units[_indicator(G, S) > 0] for S in (A, B))
    if not len(A) or not len(B):
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


def coset_overlaps(G: group_mod.UnitGroup, S) -> tuple[list[int], list[int]]:
    """For each real character psi (rows in real_characters() order) and a
    nonempty array S of distinct units: the larger of |S cap ker psi| and
    |S minus ker psi|, and a representative of that coset, 1 for the kernel
    and else the first element of S off the kernel."""
    arr = np.asarray(S, dtype=np.int64)
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
    sets = [G.units[_indicator(G, S) > 0] for S in (A1, A2, A3)]
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
