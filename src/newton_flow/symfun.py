"""Algebra of principal curvatures.

Elementary symmetric functions sigma_0..sigma_n of a curvature vector,
shape operators, and the derived matrix family P_0..P_n with

    P_0 = I,    P_r = sigma_r * I - P_{r-1} @ A,    P_n = 0,

whose eigenvalues in the eigenframe of A are the symmetric functions of
the curvatures with one entry deleted.  Conventions: sigma_0 = 1 and
sigma_r = 0 for r > n.  All functions are pure and operate on plain
numpy arrays.

The row kernel ``elem_sym_all_rows`` holds the one sigma recurrence;
``elem_sym`` and ``elem_sym_all`` read its one-row case.  Each order-r
entry point validates its operator and builds the family once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NotPSDError, NumericalError, check_order

# Tolerances (double precision with degree-based scaling).
SYM_TOL = 1e-10        # relative asymmetry allowed in a shape operator
CLAMP_TOL = 1e-12      # eigenvalue clamping window in sqrt_psd
IDENTITY_TOL = 1e-10   # residual tolerance for the trace identities


def _as_curvatures(k) -> np.ndarray:
    # empty vectors are allowed: sigma_0 of nothing is 1 (deletion from n=1)
    k = np.asarray(k, dtype=float)
    if k.ndim != 1:
        raise DomainError("curvature vector must be 1-D")
    if not np.isfinite(k).all():
        raise DomainError("curvature vector has non-finite entries")
    return k


def _as_shape_operator(S) -> np.ndarray:
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DomainError("shape operator must be a square matrix")
    if not np.isfinite(A).all():
        raise DomainError("shape operator has non-finite entries")
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.abs(A - A.T).max() > SYM_TOL * scale:
        raise DomainError("shape operator is not symmetric within tolerance")
    # work with the exactly-symmetric part so eigh sees a clean input;
    # halving before adding cannot overflow for finite entries
    return 0.5 * A + 0.5 * A.T


def elem_sym(k, r: int) -> float:
    """r-th elementary symmetric function of the entries of k.

    Returns 1 for r = 0 and 0 for r > len(k); otherwise entry r of
    ``elem_sym_all(k)``.
    """
    k = _as_curvatures(k)
    if r < 0:
        raise DomainError("order r must be nonnegative")
    if r > k.size:
        return 0.0
    return float(elem_sym_all_rows(k[None])[0, r])


def elem_sym_all(k) -> np.ndarray:
    """All values sigma_0..sigma_n of k as one array of length n+1."""
    return elem_sym_all_rows(_as_curvatures(k)[None])[0]


def elem_sym_excluding(k, i: int, r: int) -> float:
    """sigma_r of k with entry i removed (0-based index)."""
    k = _as_curvatures(k)
    if not 0 <= i < k.size:
        raise DomainError(f"index {i} out of range for n={k.size}")
    return elem_sym(np.delete(k, i), r)


def elem_sym_all_rows(K: np.ndarray) -> np.ndarray:
    """Row-wise sigma_0..sigma_n; K has one curvature vector per row.

    The prefix recurrence e_p^(j) = e_p^(j-1) + k_j * e_{p-1}^(j-1).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    S, n = K.shape
    e = np.zeros((S, n + 1))
    e[:, 0] = 1.0
    for j in range(n):
        e[:, 1:j + 2] += K[:, j:j + 1] * e[:, 0:j + 1]
    return e


def elem_sym_excluding_rows(K: np.ndarray, r: int) -> np.ndarray:
    """Row-wise sigma_r with one entry deleted, for every entry.

    Returns out[s, j] = sigma_r of row s with column j removed, via the
    deletion identity sigma_p(A_j) = sigma_p - k_j * sigma_{p-1}(A_j).
    These are the eigenvalues of P_r in the eigenframe of the shape
    operator.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    S, n = K.shape
    if r < 0:
        raise DomainError("order r must be nonnegative")
    if r > n - 1:
        return np.zeros((S, n))
    sig = elem_sym_all_rows(K)
    out = np.ones((S, n))
    for p in range(1, r + 1):
        out = sig[:, p:p + 1] - K * out
    return out


@dataclass(frozen=True, eq=False)
class NewtonFamily:
    """sigma_0..sigma_n together with the matrices P_0..P_n."""

    sigmas: np.ndarray
    P: tuple


def newton_family(S) -> NewtonFamily:
    """Build sigma_0..sigma_n and P_0..P_n from a symmetric shape operator.

    The sigmas come from the eigenvalues of S (symmetric eigensolver, not
    characteristic-polynomial coefficients, for conditioning); the P_r come
    from the recurrence P_r = sigma_r I - P_{r-1} A.  The independent
    polynomial form sum_j (-1)^j sigma_{r-j} A^j is evaluated as a built-in
    cross-check, as is P_n = 0.
    """
    return _family(_as_shape_operator(S))[1]


def _family(A: np.ndarray) -> tuple:
    """Eigenvalues and NewtonFamily of an operator already validated."""
    n = A.shape[0]
    k = np.linalg.eigvalsh(A)
    sig = elem_sym_all_rows(k[None])[0]
    eye = np.eye(n)
    P = [eye]
    for r in range(1, n + 1):
        P.append(sig[r] * eye - P[r - 1] @ A)

    norm_a = float(np.linalg.norm(A))
    # cross-check against the polynomial form, degree-scaled
    powers = [eye]
    for _ in range(n):
        powers.append(powers[-1] @ A)
    for r in range(n + 1):
        poly_r = sum(
            ((-1.0) ** j) * sig[r - j] * powers[j] for j in range(r + 1)
        )
        tol = IDENTITY_TOL * n * (1.0 + norm_a) ** max(r, 1)
        if not np.linalg.norm(P[r] - poly_r) <= tol:    # NaN fails too
            raise NumericalError(
                f"recurrence/polynomial disagreement for P_{r}"
            )
    if not np.linalg.norm(P[n]) <= IDENTITY_TOL * (1.0 + norm_a) ** n:
        raise NumericalError("P_n deviates from zero beyond tolerance")
    return k, NewtonFamily(sigmas=sig, P=tuple(P))


def _order_family(S, r: int) -> tuple:
    """Validated S, its eigenvalues and its family, once 1 <= r <= n holds."""
    A = _as_shape_operator(S)
    check_order(r, A.shape[0])
    k, fam = _family(A)
    return A, k, fam


def sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-CLAMP_TOL*||M||, 0) are clamped to zero; anything
    below that window raises NotPSDError.
    """
    A = _as_shape_operator(M)
    w, V = np.linalg.eigh(A)
    scale = float(np.linalg.norm(A))
    if w[0] < -CLAMP_TOL * scale:
        raise NotPSDError(
            f"matrix has eigenvalue {w[0]:.3e} below the PSD clamping window"
        )
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def modified_sff_norm_sq(S, r: int) -> float:
    """Squared trace norm of the curvature-weighted second fundamental form.

    Returns tr(P_{r-1} A^2).  Three routes must agree within tolerance:
    (a) the trace itself, (b) sum_j sigma_{r-1}(A_j) k_j^2, and
    (c) sigma_1 sigma_r - (r+1) sigma_{r+1}.
    """
    A, k, fam = _order_family(S, r)
    n = A.shape[0]
    val_trace = float(np.trace(fam.P[r - 1] @ A @ A))
    val_sum = float(
        sum(elem_sym_excluding(k, j, r - 1) * k[j] ** 2 for j in range(n))
    )
    sig_rp1 = fam.sigmas[r + 1] if r + 1 <= n else 0.0
    val_sigma = float(fam.sigmas[1] * fam.sigmas[r] - (r + 1) * sig_rp1)

    tol = IDENTITY_TOL * (1.0 + np.linalg.norm(A)) ** (r + 1)
    # written so that a NaN route fails (max() would drop a NaN in second place)
    if not (abs(val_trace - val_sum) <= tol and abs(val_trace - val_sigma) <= tol):
        raise NumericalError("modified norm routes disagree beyond tolerance")
    return val_trace


@dataclass(frozen=True)
class TraceIdentityResiduals:
    """Normalized residuals of the three trace identities at order r."""

    trace_p: float      # |tr P_{r-1} - (n-r+1) sigma_{r-1}|
    trace_pa: float     # |tr(P_{r-1} A) - r sigma_r|
    trace_pa2: float    # |tr(P_{r-1} A^2) - (sigma_1 sigma_r - (r+1) sigma_{r+1})|

    @property
    def worst(self) -> float:
        return max(self.trace_p, self.trace_pa, self.trace_pa2)


def trace_identities(S, r: int) -> TraceIdentityResiduals:
    """Residuals of tr P_{r-1}, tr(P_{r-1}A), tr(P_{r-1}A^2) identities.

    Each residual is normalized by (1 + ||S||)^(r+1).
    """
    A, _, fam = _order_family(S, r)
    n = A.shape[0]
    P = fam.P[r - 1]
    sig = fam.sigmas
    sig_rp1 = sig[r + 1] if r + 1 <= n else 0.0
    scale = (1.0 + float(np.linalg.norm(A))) ** (r + 1)
    return TraceIdentityResiduals(
        trace_p=abs(np.trace(P) - (n - r + 1) * sig[r - 1]) / scale,
        trace_pa=abs(np.trace(P @ A) - r * sig[r]) / scale,
        trace_pa2=abs(
            np.trace(P @ A @ A) - (sig[1] * sig[r] - (r + 1) * sig_rp1)
        ) / scale,
    )


class DefinitenessClass(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"
    NEGATIVE_SEMIDEFINITE = "NegativeSemidefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"


@dataclass(frozen=True)
class Definiteness:
    kind: DefinitenessClass
    min_eigenvalue: float
    max_eigenvalue: float

    @property
    def is_psd(self) -> bool:
        return self.kind in (
            DefinitenessClass.POSITIVE_DEFINITE,
            DefinitenessClass.POSITIVE_SEMIDEFINITE,
        )


def definiteness(M, tol: float = 1e-10) -> Definiteness:
    """Classify a symmetric matrix by its extreme eigenvalues.

    An eigenvalue within +/- tol*max(1, ||M||) of zero counts as zero
    (semidefinite), never as strictly signed.
    """
    A = _as_shape_operator(M)
    w = np.linalg.eigvalsh(A)
    return _classify(float(w[0]), float(w[-1]),
                     tol * max(1.0, float(np.linalg.norm(A))))


def classify_from_eigenvalues(w, tol: float = 1e-10) -> Definiteness:
    """Definiteness from a precomputed eigenvalue set (same tie-breaking).

    Its zero window scales with max |w| rather than the Frobenius norm.
    """
    w = np.asarray(w, dtype=float).ravel()
    if w.size == 0:
        raise DomainError("empty eigenvalue set")
    return _classify(float(w.min()), float(w.max()),
                     tol * max(1.0, float(np.abs(w).max())))


def _classify(lo: float, hi: float, cut: float) -> Definiteness:
    """Class of the eigenvalue range [lo, hi]; |lambda| <= cut counts as zero."""
    if lo > cut:
        kind = DefinitenessClass.POSITIVE_DEFINITE
    elif hi < -cut:
        kind = DefinitenessClass.NEGATIVE_DEFINITE
    elif lo >= -cut:
        kind = DefinitenessClass.POSITIVE_SEMIDEFINITE
    elif hi <= cut:
        kind = DefinitenessClass.NEGATIVE_SEMIDEFINITE
    else:
        kind = DefinitenessClass.INDEFINITE
    return Definiteness(kind=kind, min_eigenvalue=lo, max_eigenvalue=hi)


def cauchy_schwarz_bound(S, r: int) -> tuple:
    """Both sides of r^2 sigma_r^2 <= tr(P_{r-1}) * tr(P_{r-1} A^2).

    The inequality is only asserted for positive semidefinite P_{r-1};
    an indefinite or negative P_{r-1} raises NotPSDError.
    """
    A, _, fam = _order_family(S, r)
    P = fam.P[r - 1]
    d = definiteness(P)
    if not d.is_psd:
        raise NotPSDError(
            f"P_{r - 1} is {d.kind.value}; bound asserted only under PSD"
        )
    lhs = float((r * fam.sigmas[r]) ** 2)
    rhs = float(np.trace(P) * np.trace(P @ A @ A))
    return lhs, rhs
