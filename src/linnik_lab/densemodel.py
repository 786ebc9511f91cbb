"""Dense models of sparse interval-supported functions by hard spectral
truncation, property verification, and the epsilon^2 level sets.

Construction: keep the principal coefficient plus every character whose
coefficient is at least delta in absolute value, and resynthesize.  The
spectral-agreement, domination and mean properties then hold by
construction; boundedness and coset averages are verified and reported.
No clipping is applied, so small negative excursions of g are possible at
desk scale; level sets use the signed threshold g(a) >= eps^2, with the
absolute-value variant recorded side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import group as group_mod
from .errors import DomainError


@dataclass
class DenseModel:
    group: group_mod.UnitGroup
    delta: float
    eta: float
    source: str
    spectrum: tuple[int, ...]          # indices into group.characters() (raveled dual vectors)
    f_hat: np.ndarray                  # E_{n in [I]_q} f(n) conj(chi(n))
    g_hat: np.ndarray                  # truncated coefficients
    g: np.ndarray                      # real values over group.units

    def mean_g(self) -> float:
        return float(np.mean(self.g))


def build_dense_model(G: group_mod.UnitGroup, f_hat: np.ndarray, delta: float,
                      eta: float = 0.0, source: str = "") -> DenseModel:
    """Spectral-truncation dense model at threshold delta of f: [I]_q -> R_{>=0},
    given by its coefficients f_hat[chi] = E_{n in [I]_q} f(n) conj(chi(n)),
    aligned with G.characters()."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    keep = np.abs(f_hat) >= delta
    keep[0] = True  # principal character always retained so means agree
    g_hat = np.where(keep, f_hat, 0.0)
    g_vals = group_mod.fourier_inverse(G, g_hat)
    if np.abs(g_vals.imag).max() > 1e-9:
        raise AssertionError("dense model is not real; input f was not real?")
    spectrum = tuple(int(i) for i in np.nonzero(keep)[0])
    return DenseModel(G, float(delta), float(eta), source, spectrum,
                      f_hat, g_hat, g_vals.real.copy())


def verify_model(model: DenseModel, tol: float = 1e-12) -> dict:
    """Check the five dense-model properties; assert the constructive ones.

    (ii) max_chi |F - G| <= delta, (iii) |G| <= |F| and |F - G| <= |F|, and
    (iv) E g = E f are asserted (to `tol`).  (i) the range of g and (v) the
    coset averages over every index-2 subgroup are measured and reported;
    (v) slack is returned in units of delta.
    """
    G = model.group
    diff = np.abs(model.f_hat - model.g_hat)
    ok_ii = float(diff.max()) <= model.delta + tol
    ok_iii = bool(np.all(np.abs(model.g_hat) <= np.abs(model.f_hat) + tol)
                  and np.all(diff <= np.abs(model.f_hat) + tol))
    mean_gap = abs(model.mean_g() - model.f_hat[0].real)
    ok_iv = mean_gap <= tol
    if not (ok_ii and ok_iii and ok_iv):
        raise AssertionError(
            f"constructive properties failed: ii={ok_ii} iii={ok_iii} iv={ok_iv}")

    gmin = float(model.g.min())
    gmax = float(model.g.max())

    # E f 1_{bH} - E g 1_{bH} = psi(b)/2 * (F(psi) - G(psi)) for real psi
    psis = G.real_characters()[1:]
    at = [G.character_index(psi) for psi in psis]
    gaps = (np.abs((model.f_hat[at] - model.g_hat[at]).real) / 2.0).tolist()
    coset_rows = [{"psi": psi.label(), "coset_sign": b_sign, "gap": gap,
                   "slack_in_delta": gap / model.delta}
                  for psi, gap in zip(psis, gaps) for b_sign in (+1, -1)]
    worst = max(gaps, default=0.0)

    return {
        "asserted": {"ii": ok_ii, "iii": ok_iii, "iv": ok_iv, "mean_gap": mean_gap},
        "range": {"min": gmin, "max": gmax, "upper_shape": 1.0 + model.eta},
        "majorant": None,
        "coset_averages": coset_rows,
        "max_coset_gap": worst,
        "spectrum_size": len(model.spectrum),
        "delta": model.delta,
    }


@dataclass
class SignedLevelSets:
    plus: frozenset[int]
    minus: frozenset[int]
    plus_abs: frozenset[int]
    minus_abs: frozenset[int]
    epsilon: float


def level_sets(model_plus: DenseModel, model_minus: DenseModel, eps: float) -> SignedLevelSets:
    """A^Delta = {a : g^Delta(a) >= eps^2} (signed), plus the |g| variant."""
    if model_plus.group.q != model_minus.group.q:
        raise DomainError("models must share the modulus")
    G = model_plus.group
    thr = eps * eps

    def pick(model, absolute):
        vals = np.abs(model.g) if absolute else model.g
        return frozenset(int(a) for a, v in zip(G.units, vals) if v >= thr)

    return SignedLevelSets(pick(model_plus, False), pick(model_minus, False),
                           pick(model_plus, True), pick(model_minus, True), eps)


def aprop_check(sets: SignedLevelSets, G: group_mod.UnitGroup,
                supp_plus: set[int], supp_minus: set[int]) -> dict:
    """Measure the level-set lemma: total mass and per-coset lower bounds.

    (i) |A+| + |A-| >= (1 - eps) phi; (ii) per index-2 coset bH,
    |A^Delta cap bH| >= (share of sign-Delta rough interval elements in bH
    minus eps) phi.  Asymptotic conclusions: recorded pass/fail, not raised.
    """
    eps = sets.epsilon
    phi = G.phi
    total_ok = len(sets.plus) + len(sets.minus) >= (1 - eps) * phi
    rough_total = len(supp_plus) + len(supp_minus)

    def counts(S):   # per non-principal real character: the elements where it is +1, -1
        return G.real_sign_counts(np.fromiter(S, np.int64, count=len(S)))[1:].tolist()

    sides = [(delta, counts(A), counts(supp)) for delta, A, supp in
             ((+1, sets.plus, supp_plus), (-1, sets.minus, supp_minus))]
    rows = []
    for j, psi in enumerate(G.real_characters()[1:]):
        for col, b_sign in enumerate((+1, -1)):
            for delta, in_A, in_supp in sides:
                share = in_supp[j][col] / rough_total if rough_total else 0.0
                lhs = in_A[j][col]
                bound = (share - eps) * phi
                rows.append({"psi": psi.label(), "coset_sign": b_sign, "delta": delta,
                             "|A cap bH|": lhs, "bound": bound, "ok": lhs >= bound})
    return {"total_mass_ok": bool(total_ok),
            "|A+|": len(sets.plus), "|A-|": len(sets.minus),
            "threshold": (1 - eps) * phi, "coset_rows": rows,
            "coset_failures": sum(1 for r in rows if not r["ok"])}


# ---------------------------------------------------------------------------
# JSON dump (external interface)

def model_to_json(model: DenseModel) -> dict:
    G = model.group
    return {
        "q": model.group.q,
        "delta": model.delta,
        "eta": model.eta,
        "source": model.source,
        "spectrum": [list(G.dual_vector(i)) for i in model.spectrum],
        "g": {int(a): float(v) for a, v in zip(model.group.units, model.g)},
    }


def model_from_json(data: dict) -> DenseModel:
    G = group_mod.build_unit_group(int(data["q"]))
    spectrum = tuple(sorted(G.character_index(group_mod.DirichletCharacter(G, tuple(v)))
                            for v in data["spectrum"]))
    g = np.array([float(data["g"][str(int(a))]) if str(int(a)) in data["g"]
                  else float(data["g"][int(a)]) for a in G.units])
    g_hat = group_mod.fourier_forward(G, g)
    f_hat = g_hat.copy()
    return DenseModel(G, float(data["delta"]), float(data["eta"]), data.get("source", ""),
                      spectrum, f_hat, g_hat, g)
