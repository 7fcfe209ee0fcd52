"""Sampled hypothesis checks for the gap classification of self-shrinkers.

A GapReport collects, over a deterministic sample of a model, the
suprema/infima that enter the classification: sup of the modified norm
tr(P_{r-1} A^2), the smallest eigenvalue of P_{r-1}, sup ||A||^2,
sup sigma_{r-1}, the worst shrinker residual |sigma_r + <X,N>| and, for
r = n, the Gauss-flow fragment (GaussReport) of the same samples.

The sample set holds one row per distinct sample (``sample_fields``).  A
sphere, cylinder or hyperplane has the same curvatures and support at
every point, so it is reported from its one closed-form row; for these
models the resolution only sizes the grid that the sample budget is
checked against.  A revolution profile gives one row per node.

Classification semantics are deliberately "consistent with": finite
samples cannot certify completeness or properness, so a report states
which branch of the taxonomy the sampled data matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Cylinder, Hyperplane, HypersurfaceModel, sample_fields
from .errors import DomainError, NotSelfShrinkerError, NumericalError, check_order
from .symfun import (
    Definiteness,
    _check_degree,
    _excluding_rows,
    classify_from_eigenvalues,
    elem_sym_all_rows,
)

GAP_TOL = 1e-6          # strict-vs-boundary discrimination on the norm scale
SHRINKER_TOL = 1e-8     # residual threshold for "is a shrinker"


@dataclass(frozen=True)
class GapFlags:
    thm1_strict: bool          # sup ||sqrt(P_{r-1})A||^2 < r - tol
    thm1_boundary: bool        # |sup - r| <= tol
    thm1_psd_definite: bool    # sampled min eigenvalue of P_{r-1} > tol
    thm2: bool                 # strict gap with finite sampled sup ||A||^2
    gauss_weakly_convex: bool  # r = n only: all sampled curvatures >= -tol
    gauss_hk: bool             # r = n only: sup HK <= n + tol

    def to_json_dict(self) -> dict:
        return {
            "thm1_strict": self.thm1_strict,
            "thm1_boundary": self.thm1_boundary,
            "thm1_psd_definite": self.thm1_psd_definite,
            "thm2": self.thm2,
            "gauss_weakly_convex": self.gauss_weakly_convex,
            "gauss_HK": self.gauss_hk,
        }


@dataclass(frozen=True)
class Classification:
    kind: str                  # Hyperplane | Sphere | Cylinder | Inconclusive | NotShrinker
    m: int | None = None

    def __str__(self) -> str:
        if self.kind == "Cylinder" and self.m is not None:
            return f"Cylinder(m={self.m})"
        return self.kind


@dataclass(frozen=True, eq=False)
class GapReport:
    r: int
    n: int
    sup_modified_norm_sq: float
    min_eig_p: float
    sup_a_norm_sq: float
    sup_sigma_rm1: float
    sup_residual: float
    psd_class: Definiteness
    flags: GapFlags
    classification: Classification
    zero_multiplicity: int | None    # sampled count of vanishing curvatures
    notes: tuple
    gauss: GaussReport | None = None  # Gauss fragment, r = n only

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "supModifiedNormSq": self.sup_modified_norm_sq,
            "minEigP": self.min_eig_p,
            "supANormSq": self.sup_a_norm_sq,
            "supSigmaRm1": self.sup_sigma_rm1,
            "supResidual": self.sup_residual,
            "psdClass": {
                "class": self.psd_class.kind.value,
                "minEigenvalue": self.psd_class.min_eigenvalue,
                "maxEigenvalue": self.psd_class.max_eigenvalue,
            },
            "flags": self.flags.to_json_dict(),
            "classification": str(self.classification),
            "notes": list(self.notes),
        }


def _classify(sup_norm_sq: float, min_eig_p: float, sup_residual: float,
              r: int, n: int, zero_mult: int | None) -> Classification:
    if sup_residual > SHRINKER_TOL:
        return Classification(kind="NotShrinker")
    if sup_norm_sq < r - GAP_TOL:
        return Classification(kind="Hyperplane")
    if abs(sup_norm_sq - r) <= GAP_TOL and min_eig_p > GAP_TOL:
        if zero_mult == 0:
            return Classification(kind="Sphere")
        if zero_mult is not None and zero_mult > 0:
            return Classification(kind="Cylinder", m=n - zero_mult)
    return Classification(kind="Inconclusive")


def evaluate(model: HypersurfaceModel, r: int, resolution: int = 16) -> GapReport:
    """Sampled suprema/infima and hypothesis flags for a model at order r.

    Values within GAP_TOL of a threshold count as on it; a sampled
    residual above SHRINKER_TOL classifies the model as NotShrinker.
    """
    n = model.n
    check_order(r, n)
    curvatures, support = sample_fields(model, resolution)
    return evaluate_from_samples(curvatures, support, r, n, model=model)


def evaluate_from_samples(curvatures: np.ndarray, support: np.ndarray, r: int,
                          n: int, model: HypersurfaceModel | None = None) -> GapReport:
    """GapReport of sample rows: curvatures (S, n) and support values (S,).

    Every reported value has degree at most r + 1 in the curvatures, so
    curvatures whose degree-(r + 1) bound leaves the float range raise
    the float-range NumericalError before any row is reduced.
    """
    K = curvatures
    _check_degree(float(np.abs(K).max()), r + 1, n)
    sig = elem_sym_all_rows(K, r)                    # (S, r+1): the orders read
    eig_p = _excluding_rows(K, sig, r - 1)           # eigenvalues of P_{r-1}
    # for r = n, eig_p is sigma_{n-1}(A_j): the Gauss fragment's input
    gauss = _gauss_report(K, sig, eig_p, n) if r == n else None
    norm_sq = (eig_p * K * K).sum(axis=1)
    residual = np.abs(sig[:, r] + support)

    notes = []
    if isinstance(model, Cylinder):
        notes.append("axial box sampling is exact: samples are axially constant")
    if isinstance(model, Hyperplane):
        notes.append("open hypersurface: normal fixed to +e_{n+1}")

    sup_norm_sq = float(norm_sq.max())
    min_eig_p = float(eig_p.min())
    sup_a = float((K * K).sum(axis=1).max())
    sup_sig_rm1 = float(sig[:, r - 1].max())
    sup_res = float(residual.max())
    psd = classify_from_eigenvalues(eig_p.ravel(), tol=GAP_TOL)
    reported = [sup_norm_sq, min_eig_p, sup_a, sup_sig_rm1, sup_res,
                psd.max_eigenvalue]
    if gauss is not None:
        reported += [gauss.sup_hk, gauss.identity_residual]
    if not np.isfinite(reported).all():
        raise NumericalError("a gap report value leaves the float range")

    zero_mult: int | None = None
    kscale = max(1.0, float(np.abs(K).max()))
    zeros_per_sample = (np.abs(K) <= GAP_TOL * kscale).sum(axis=1)
    if zeros_per_sample.min() == zeros_per_sample.max():
        zero_mult = int(zeros_per_sample[0])

    strict = sup_norm_sq < r - GAP_TOL
    boundary = abs(sup_norm_sq - r) <= GAP_TOL
    definite = min_eig_p > GAP_TOL
    flags = GapFlags(
        thm1_strict=bool(strict),
        thm1_boundary=bool(boundary),
        thm1_psd_definite=bool(definite),
        thm2=bool(strict),     # sup ||A||^2 is finite, checked above
        gauss_weakly_convex=gauss is not None and gauss.weakly_convex,
        gauss_hk=gauss is not None and gauss.hk_at_most_n,
    )
    classification = _classify(sup_norm_sq, min_eig_p, sup_res, r, n, zero_mult)
    return GapReport(
        r=r, n=n,
        sup_modified_norm_sq=sup_norm_sq,
        min_eig_p=min_eig_p,
        sup_a_norm_sq=sup_a,
        sup_sigma_rm1=sup_sig_rm1,
        sup_residual=sup_res,
        psd_class=psd,
        flags=flags,
        classification=classification,
        zero_multiplicity=zero_mult,
        notes=tuple(notes),
        gauss=gauss,
    )


def classify(report: GapReport) -> Classification:
    """Taxonomy branch for a report whose model is a sampled shrinker.

    Raises NotSelfShrinkerError when the residual (above SHRINKER_TOL)
    shows the model is not a shrinker at all.
    """
    if report.sup_residual > SHRINKER_TOL:
        raise NotSelfShrinkerError(
            f"sup |sigma_r + <X,N>| = {report.sup_residual:.3e} above threshold"
        )
    return report.classification


@dataclass(frozen=True)
class GaussReport:
    """Gauss-flow fragment (r = n): convexity, HK bound, K identity."""

    n: int
    sup_hk: float
    weakly_convex: bool
    hk_at_most_n: bool
    identity_residual: float    # max |K - k_i sigma_{n-1}(A_i)| over samples, i

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "supHK": self.sup_hk,
            "weaklyConvex": self.weakly_convex,
            "HKAtMostN": self.hk_at_most_n,
            "identityResidual": self.identity_residual,
        }


def _gauss_report(K: np.ndarray, sig: np.ndarray, eig_p: np.ndarray,
                  n: int) -> GaussReport:
    """Gauss fragment of samples K with their sigmas and sigma_{n-1}(A_j)."""
    # K * I = P_{n-1} A: the product curvature equals k_i sigma_{n-1}(A_i)
    identity_residual = float(np.abs(K * eig_p - sig[:, n:n + 1]).max())
    hk = sig[:, 1] * sig[:, n]
    return GaussReport(
        n=n,
        sup_hk=float(hk.max()),
        weakly_convex=bool(K.min() >= -GAP_TOL),
        hk_at_most_n=bool(hk.max() <= n + GAP_TOL),
        identity_residual=identity_residual,
    )


def gauss_check(model: HypersurfaceModel, resolution: int = 16) -> GaussReport:
    """Checks specific to the Gauss-curvature flow (r = n): the Gauss
    fragment of ``evaluate(model, model.n, resolution)``.

    sup HK has degree n + 1: out-of-range curvatures raise NumericalError.
    """
    return evaluate(model, model.n, resolution).gauss


@dataclass(frozen=True)
class PsdSufficiencyReport:
    """Which sampled sufficient conditions certify P_{r-1} >= 0, if any.

    The conditions mirror the classical criteria and are cumulative:
    (i) sigma_r vanishes identically (the parity of r-1 and the sign of
    sigma_{r-1} decide whether the positive orientation is achievable);
    (ii) additionally sigma_{r+1} never vanishes, upgrading semidefinite
    to definite; (iii) some sigma_k with k >= r is everywhere positive
    and some sample is weakly convex.  Sufficiency only; necessity is
    never claimed.
    """

    fires_i: bool
    fires_ii: bool
    fires_iii: bool
    definite: bool              # some firing condition certifies definiteness
    detail: str

    @property
    def fired(self) -> str | None:
        """First firing condition in the order (i), (ii), (iii)."""
        for name, flag in (("i", self.fires_i), ("ii", self.fires_ii),
                           ("iii", self.fires_iii)):
            if flag:
                return name
        return None

    def to_json_dict(self) -> dict:
        return {
            "firesI": self.fires_i,
            "firesII": self.fires_ii,
            "firesIII": self.fires_iii,
            "definite": self.definite,
            "detail": self.detail,
        }


def psd_sufficient(curvatures, r: int, zero_tol: float = GAP_TOL) -> PsdSufficiencyReport:
    """Evaluate the sampled sufficient conditions for P_{r-1} >= 0.

    ``curvatures`` is an (S, n) array of rows, e.g. ``sample_fields(model,
    res)[0]``; sigma_n has degree n, so out-of-range rows raise NumericalError.
    """
    K = np.asarray(curvatures, dtype=float)
    if K.ndim != 2 or K.size == 0:
        raise DomainError("curvatures must be a non-empty (S, n) array of rows")
    if not np.isfinite(K).all():
        raise DomainError("curvature rows have non-finite entries")
    n = K.shape[1]
    check_order(r, n)
    kmax = float(np.abs(K).max())
    _check_degree(kmax, n, n)
    sig = elem_sym_all_rows(K)
    scale = max(1.0, kmax ** max(r, 1))

    fires_i = fires_ii = fires_iii = False
    details = []
    sigma_r_zero = bool(np.abs(sig[:, r]).max() <= zero_tol * scale)
    if sigma_r_zero:
        parity_even = (r - 1) % 2 == 0
        sigma_rm1_nonneg = bool(sig[:, r - 1].min() >= -zero_tol * scale)
        if (not parity_even) or sigma_rm1_nonneg:
            fires_i = True
            note = ("r-1 odd: orientation choice" if not parity_even
                    else "r-1 even and sigma_{r-1} >= 0")
            details.append(f"sigma_r = 0 on all samples ({note})")
            if r < n and np.abs(sig[:, r + 1]).min() > zero_tol * scale:
                fires_ii = True
                details.append("sigma_{r+1} never vanishes: definite")

    has_convex_sample = bool((K >= -zero_tol * max(1.0, kmax)).all(axis=1).any())
    if has_convex_sample:
        for k_idx in range(r, n + 1):
            if sig[:, k_idx].min() > zero_tol * scale:
                fires_iii = True
                details.append(
                    f"sigma_{k_idx} > 0 everywhere and a weakly convex sample exists")
                break
    if not details:
        details.append("no sufficient condition")
    return PsdSufficiencyReport(
        fires_i=fires_i, fires_ii=fires_ii, fires_iii=fires_iii,
        definite=fires_ii or fires_iii,
        detail="; ".join(details),
    )
