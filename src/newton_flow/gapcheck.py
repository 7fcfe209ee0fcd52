"""Sampled hypothesis checks for the gap classification of self-shrinkers.

A GapReport collects, over a deterministic sample of a model, the
suprema/infima that enter the classification: sup of the modified norm
tr(P_{r-1} A^2), the smallest eigenvalue of P_{r-1}, sup ||A||^2,
sup sigma_{r-1}, the worst shrinker residual |sigma_r + <X,N>| and, for
r = n, the Gauss-flow fragment (GaussReport) of the same samples.

The sample set holds one row per distinct sample (``sample_fields``), so
a report reads a model and no resolution.  A sphere, cylinder or
hyperplane has the same curvatures and support at every point, so it is
reported from its one closed-form row; its dimension n is bounded by
``check_dimension``.  A revolution profile gives one row per node of its
own grid.

Classification semantics are deliberately "consistent with": finite
samples cannot certify completeness or properness, so a report states
which branch of the taxonomy the sampled data matches.  ``SHRINKER_TOL``
is read here only, and ``classify`` is the package's one raise of
NotSelfShrinkerError (``operators.verify_shrinker_pde`` calls it).
What is zero (P_{r-1}'s class, the zero count, weak convexity) is
``symfun``'s one window; ``GAP_TOL`` only compares norm and HK with thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Hyperplane, HypersurfaceModel, check_model, sample_fields
from .errors import DomainError, NotSelfShrinkerError, NumericalError, as_floats, check_order
from .symfun import (
    Definiteness,
    DefinitenessClass,
    _check_degree,
    _classify,
    _zero_cut,
    elem_sym_all_rows,
    elem_sym_excluding_rows,
)

GAP_TOL = 1e-6          # strict-vs-boundary discrimination of the norm and HK
SHRINKER_TOL = 1e-8     # residual threshold for "is a shrinker"


@dataclass(frozen=True)
class GapFlags:
    thm1_strict: bool          # sup ||sqrt(P_{r-1})A||^2 < r - tol
    thm1_boundary: bool        # |sup - r| <= tol
    thm1_psd_definite: bool    # the report's psd_class is PositiveDefinite

    def to_json_dict(self) -> dict:
        return dict(vars(self))     # the JSON keys are the field names


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
        out = {
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
        if self.gauss is not None:
            out["gauss"] = self.gauss.to_json_dict()
        return out


def _taxonomy(flags: GapFlags, sup_residual: float, n: int,
              zero_mult: int | None) -> Classification:
    if sup_residual > SHRINKER_TOL:
        return Classification(kind="NotShrinker")
    if flags.thm1_strict:
        return Classification(kind="Hyperplane")
    if flags.thm1_boundary and flags.thm1_psd_definite:
        if zero_mult == 0:
            return Classification(kind="Sphere")
        if zero_mult is not None and zero_mult > 0:
            return Classification(kind="Cylinder", m=n - zero_mult)
    return Classification(kind="Inconclusive")


def evaluate(model: HypersurfaceModel, r: int) -> GapReport:
    """Sampled suprema/infima and hypothesis flags for a model at order r.

    Values within GAP_TOL of a threshold count as on it; a sampled
    residual above SHRINKER_TOL classifies the model as NotShrinker.
    Anything but a catalog model raises DomainError.
    """
    check_model(model)
    check_order(r, model.n)
    curvatures, support = sample_fields(model)
    notes = (("open hypersurface: normal fixed to +e_{n+1}",)
             if isinstance(model, Hyperplane) else ())
    return _report(curvatures, support, r, notes)


def evaluate_from_samples(curvatures, support, r: int) -> GapReport:
    """GapReport of sample rows: curvatures (S, n) and support values (S,).

    n is the number of columns; the report has no notes.  Input that
    ``errors.as_floats`` refuses, rows not a non-empty 2-D array of finite
    numbers, a support not of shape (S,) and r outside 1..n raise DomainError.
    """
    K = as_floats(curvatures, "curvatures")
    support = as_floats(support, "support")
    if K.ndim != 2 or K.size == 0:
        raise DomainError("curvatures must be a non-empty (S, n) array of rows")
    if support.shape != K.shape[:1]:
        raise DomainError(f"support must have shape ({K.shape[0]},): one value per row")
    if not (np.isfinite(K).all() and np.isfinite(support).all()):
        raise DomainError("sample rows have non-finite entries")
    check_order(r, K.shape[1])
    return _report(K, support, r, ())


def _report(K: np.ndarray, support: np.ndarray, r: int, notes: tuple) -> GapReport:
    """The gap reduction of rows K (S, n) and support (S,).  Every reported
    value has degree at most r + 1 in K, so rows whose degree-(r + 1) bound
    leaves the float range (an overflowed closed-form row among them) raise
    the float-range NumericalError before any row is reduced."""
    n = K.shape[1]
    _check_degree(float(np.abs(K).max()), r + 1, n)
    sig = elem_sym_all_rows(K, r)                    # (S, r+1): the orders read
    eig_p = elem_sym_excluding_rows(K, r - 1)        # eigenvalues of P_{r-1}
    # for r = n, eig_p is sigma_{n-1}(A_j): the Gauss fragment's input
    gauss = _gauss_report(K, sig, eig_p, n) if r == n else None
    norm_sq = (eig_p * K * K).sum(axis=1)
    residual = np.abs(sig[:, r] + support)

    sup_norm_sq = float(norm_sq.max())
    min_eig_p = float(eig_p.min())
    sup_a = float((K * K).sum(axis=1).max())
    sup_sig_rm1 = float(sig[:, r - 1].max())
    sup_res = float(residual.max())
    psd = _classify(min_eig_p, float(eig_p.max()))
    reported = [sup_norm_sq, min_eig_p, sup_a, sup_sig_rm1, sup_res,
                psd.max_eigenvalue]
    if gauss is not None:
        reported += [gauss.sup_hk, gauss.identity_residual]
    if not np.isfinite(reported).all():
        raise NumericalError("a gap report value leaves the float range")

    zeros = (np.abs(K) <= _zero_cut(float(K.min()), float(K.max()))).sum(axis=1)
    zero_mult = int(zeros[0]) if zeros.min() == zeros.max() else None

    flags = GapFlags(
        thm1_strict=sup_norm_sq < r - GAP_TOL,
        thm1_boundary=abs(sup_norm_sq - r) <= GAP_TOL,
        thm1_psd_definite=psd.kind is DefinitenessClass.POSITIVE_DEFINITE,
    )
    classification = _taxonomy(flags, sup_res, n, zero_mult)
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
        notes=notes,
        gauss=gauss,
    )


def classify(report: GapReport) -> Classification:
    """Taxonomy branch for a report whose model is a sampled shrinker.

    Raises NotSelfShrinkerError when the report classifies the model as
    NotShrinker: its residual is above SHRINKER_TOL.
    """
    if report.classification.kind == "NotShrinker":
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
        weakly_convex=_classify(float(K.min()), float(K.max())).is_psd,
        hk_at_most_n=bool(hk.max() <= n + GAP_TOL),
        identity_residual=identity_residual,
    )
