"""Algebra of principal curvatures.

Elementary symmetric functions sigma_0..sigma_n of a curvature vector,
shape operators, and the derived matrix family P_0..P_n, defined by

    P_0 = I,    P_r = sigma_r * I - P_{r-1} @ A,    P_n = 0,

whose eigenvalues in the eigenframe of A are the symmetric functions of
the curvatures with one entry deleted.  Conventions: sigma_0 = 1 and
sigma_r = 0 for r > n.  All functions operate on plain numpy arrays
and are pure as observed: the same input bytes give the same result
bytes, and every result is the caller's own.

The row kernel ``elem_sym_all_rows`` holds the one sigma recurrence;
``elem_sym`` and ``elem_sym_all`` read its one-row case, and the
deletion kernel ``elem_sym_excluding_rows`` runs it on each row with one
entry deleted (through a read-only column index, built once per n): no
sigma_p(A_j) comes from a subtraction.  P_r is built in the eigenframe
(k, Q) of A as Q diag(sigma_r(A_j)) Q^T from the kernel's table, with
the polynomial form as the cross-check.  Each order-r entry point
validates its operator on every call.  ``definiteness`` eigensolves a
symmetric M and counts an eigenvalue within ZERO_TOL * max(1, ||M||) of
zero as zero; the PSD gate of ``cauchy_schwarz_bound`` reads P_{r-1}'s
eigenvalues off the deletion table instead, with the same window.

One operator is usually asked about at every order r in turn, so the
module keeps the validated family of the last operator it built: one
slot keyed by the bytes of the exactly-symmetric operator, whose arrays
are read-only.  A hit skips only the build (``eigh``, the deletion
table, the P_r and their polynomial cross-check), which is a
deterministic function of those bytes; every per-call check still runs.
``newton_family`` hands out writable copies, so no caller can alter
the slot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    NotPSDError,
    NumericalError,
    check_integer,
    check_order,
    float_range_error,
)

# Tolerances (double precision with degree-based scaling).
SYM_TOL = 1e-10        # relative asymmetry allowed in a shape operator
CLAMP_TOL = 1e-12      # eigenvalue clamping window in sqrt_psd
IDENTITY_TOL = 1e-10   # residual tolerance for the trace identities
ZERO_TOL = 1e-10       # relative zero window of definiteness
_LOG_MAX = math.log(np.finfo(float).max)


def _as_curvatures(k) -> np.ndarray:
    # empty vectors are allowed: sigma_0 of nothing is 1 (deletion from n=1)
    k = np.asarray(k, dtype=float)
    if k.ndim != 1:
        raise DomainError("curvature vector must be 1-D")
    if not np.isfinite(k).all():
        raise DomainError("curvature vector has non-finite entries")
    return k


def _norm(X: np.ndarray) -> float:
    """Frobenius norm; math.hypot scales, so it overflows only past the float range."""
    return math.hypot(*X.ravel().tolist())


def _check_degree(norm_a: float, p: int, n: int):
    """Raise the float-range NumericalError unless n 2^n (1 + |A|)^p is finite: it
    bounds the degree-p quantities of an n x n A (sigma_p, A^p, P_p, their traces)."""
    if not p * math.log1p(norm_a) + math.log(n * 2.0 ** n) < _LOG_MAX:
        raise float_range_error("|A|", norm_a, p)


def _as_shape_operator(S) -> np.ndarray:
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DomainError("shape operator must be a square matrix")
    if not np.isfinite(A).all():
        raise DomainError("shape operator has non-finite entries")
    scale = _norm(A)
    if scale < 8e307:     # half the largest float: no A_ij - A_ji overflows
        asymmetry = np.abs(A - A.T).max()
    else:                 # measure both in units of max|A|
        unit = np.abs(A).max()
        scale = _norm(A / unit)
        asymmetry = np.abs(A / unit - A.T / unit).max()
    if asymmetry > SYM_TOL * max(1.0, scale):
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
    check_integer(r, "order r")
    if r < 0:
        raise DomainError("order r must be nonnegative")
    if r > k.size:
        return 0.0
    return float(elem_sym_all_rows(k[None])[0, r])


def elem_sym_all(k) -> np.ndarray:
    """All values sigma_0..sigma_n of k as one array of length n+1."""
    return elem_sym_all_rows(_as_curvatures(k)[None])[0]


def elem_sym_excluding(k, i: int, r: int) -> float:
    """sigma_r of k with entry i (0-based) removed: one row of elem_sym_excluding_rows."""
    k = _as_curvatures(k)
    check_integer(i, "index i")
    if not 0 <= i < k.size:
        raise DomainError(f"index {i} out of range for n={k.size}")
    return float(elem_sym_excluding_rows(k[None], r)[0, i])


def elem_sym_all_rows(K: np.ndarray, top: int | None = None) -> np.ndarray:
    """Row-wise sigma_0..sigma_top (top = n by default); K has one
    curvature vector per row.

    The prefix recurrence e_p^(j) = e_p^(j-1) + k_j * e_{p-1}^(j-1).  An
    entry depends only on lower orders, so a smaller top gives the same
    bits for the orders it keeps and never forms the higher ones.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    S, n = K.shape
    top = n if top is None else min(top, n)
    e = np.zeros((S, top + 1))
    e[:, 0] = 1.0
    for j in range(top):
        e[:, 1:j + 2] += K[:, j:j + 1] * e[:, 0:j + 1]
    for j in range(top, n):     # later curvatures feed orders 1..top only
        e[:, 1:] += K[:, j:j + 1] * e[:, :-1]
    return e


def elem_sym_excluding_rows(K: np.ndarray, r: int) -> np.ndarray:
    """Row-wise sigma_r with one entry deleted, for every entry.

    Returns out[s, j] = sigma_r of row s with column j removed.  These
    are the eigenvalues of P_r in the eigenframe of the shape operator.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    check_integer(r, "order r")
    if r < 0:
        raise DomainError("order r must be nonnegative")
    S, n = K.shape
    if r > n - 1:
        return np.zeros((S, n))
    return _excluding_table(K, r)[:, r].reshape(S, n)


def _excluding_table(K: np.ndarray, top: int) -> np.ndarray:
    """Row s * n + j: sigma_0..sigma_top of row s of K without column j, by
    ``elem_sym_all_rows`` on the rows np.delete would give (no subtraction).
    For one row and top = n - 1 it is the (n, n) table [j, p] = sigma_p(A_j)."""
    S, n = K.shape
    return elem_sym_all_rows(K[:, _excluding_columns(n)].reshape(S * n, n - 1), top)


@functools.lru_cache(maxsize=64)
def _excluding_columns(n: int) -> np.ndarray:
    """The read-only (n, n-1) column index whose row j is 0..n-1 without j."""
    cols = np.arange(n - 1)
    keep = cols + (cols >= np.arange(n)[:, None])
    keep.flags.writeable = False
    return keep


@dataclass(frozen=True, eq=False)
class NewtonFamily:
    """sigma_0..sigma_n together with the matrices P_0..P_n."""

    sigmas: np.ndarray
    P: tuple


def newton_family(S) -> NewtonFamily:
    """Build sigma_0..sigma_n and P_0..P_n from a symmetric shape operator.

    The sigmas come from the eigenvalues k of S (symmetric eigensolver, not
    characteristic-polynomial coefficients, for conditioning); P_r is
    Q diag(sigma_r(A_j)) Q^T in the eigenframe (k, Q), with P_0 = I and
    P_n = 0.  The independent polynomial form sum_j (-1)^j sigma_{r-j} A^j
    is a built-in cross-check at every r, and its P_n must vanish
    (Cayley-Hamilton).  The arrays returned are the caller's own.
    """
    fam = _family(_as_shape_operator(S))[1]
    return NewtonFamily(sigmas=fam.sigmas.copy(), P=tuple(p.copy() for p in fam.P))


# (key, (k, NewtonFamily, deletion table)) of the last operator built, or None
_last_family = None


def _family(A: np.ndarray) -> tuple:
    """Eigenvalues, NewtonFamily and deletion table of a validated operator.

    The result is shared and read-only: it comes from the one-operator
    slot when A has the bytes of the operator built last.
    """
    global _last_family
    key = (A.shape, A.tobytes())
    slot = _last_family
    if slot is not None and slot[0] == key:
        return slot[1]
    k, fam, table = _build_family(A)
    for array in (k, fam.sigmas, *fam.P, table):
        array.setflags(write=False)
    _last_family = (key, (k, fam, table))
    return k, fam, table


def _build_family(A: np.ndarray) -> tuple:
    """Eigenvalues, NewtonFamily and deletion table [j, p] = sigma_p(A_j)
    of A, cross-checked, built afresh."""
    n = A.shape[0]
    norm_a = _norm(A)
    _check_degree(norm_a, n, n)
    k, Q = np.linalg.eigh(A)
    sig = elem_sym_all_rows(k[None])[0]
    table = _excluding_table(k[None], n - 1)
    eye = np.eye(n)
    P = (eye, *((Q * table[:, 1:].T[:, None, :]) @ Q.T), np.zeros((n, n)))

    # cross-check against the polynomial form sum_j sigma_{r-j} (-A)^j, degree-scaled
    powers, minus_a, s = [eye], -A, sig.tolist()
    for _ in range(n):
        powers.append(powers[-1] @ minus_a)
    for r in range(n + 1):
        poly_r = sum(s[r - j] * powers[j] for j in range(r + 1))
        tol = IDENTITY_TOL * n * (1.0 + norm_a) ** max(r, 1)
        if not _norm(P[r] - poly_r) <= tol:    # NaN fails too
            raise NumericalError(f"eigenframe/polynomial disagreement for P_{r}")
    # Cayley-Hamilton: the polynomial form of P_n vanishes
    if not _norm(poly_r) <= IDENTITY_TOL * (1.0 + norm_a) ** n:
        raise NumericalError("polynomial P_n deviates from zero beyond tolerance")
    return k, NewtonFamily(sigmas=sig, P=P), table


def _order_family(S, r: int) -> tuple:
    """Validated S, then _family's triple, once 1 <= r <= n holds."""
    A = _as_shape_operator(S)
    check_order(r, A.shape[0])
    _check_degree(_norm(A), r + 1, A.shape[0])   # the order-r identities reach degree r+1
    return (A, *_family(A))


def sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-CLAMP_TOL*||M||, 0) are clamped to zero; anything
    below that window raises NotPSDError.
    """
    A = _as_shape_operator(M)
    w, V = np.linalg.eigh(A)
    if w[0] < -CLAMP_TOL * _norm(A):
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
    A, k, fam, table = _order_family(S, r)
    n = A.shape[0]
    val_trace = float(np.trace(fam.P[r - 1] @ A @ A))
    val_sum = float((table[:, r - 1] * k ** 2).sum())
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
    A, _, fam, _ = _order_family(S, r)
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


def definiteness(M) -> Definiteness:
    """Classify a symmetric matrix by its extreme eigenvalues.

    An eigenvalue within +/- ZERO_TOL*max(1, ||M||) of zero counts as
    zero (semidefinite), never as strictly signed.
    """
    A = _as_shape_operator(M)
    w = np.linalg.eigvalsh(A)
    return _classify(float(w[0]), float(w[-1]), ZERO_TOL * max(1.0, _norm(A)))


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


def _p_spectrum(S, r: int) -> tuple:
    """Validated S, its NewtonFamily, and the Definiteness of P_{r-1} with the
    ascending eigenvalues it was read from: column r-1 of the deletion table,
    cut as in ``definiteness``.  No eigensolve on a slot hit."""
    A, _, fam, table = _order_family(S, r)
    w = np.sort(table[:, r - 1])
    cut = ZERO_TOL * max(1.0, _norm(fam.P[r - 1]))
    return A, fam, _classify(float(w[0]), float(w[-1]), cut), w


def cauchy_schwarz_bound(S, r: int) -> tuple:
    """Both sides of r^2 sigma_r^2 <= tr(P_{r-1}) * tr(P_{r-1} A^2).

    The inequality is only asserted for positive semidefinite P_{r-1};
    an indefinite or negative P_{r-1} raises NotPSDError.  The gate reads
    P_{r-1}'s eigenvalues off the family's deletion table (``_p_spectrum``).
    """
    A, fam, d, _ = _p_spectrum(S, r)
    _check_degree(_norm(A), 2 * r, A.shape[0])   # both sides are degree 2r in A
    P = fam.P[r - 1]
    if not d.is_psd:
        raise NotPSDError(
            f"P_{r - 1} is {d.kind.value}; bound asserted only under PSD"
        )
    lhs = float((r * fam.sigmas[r]) ** 2)
    rhs = float(np.trace(P) * np.trace(P @ A @ A))
    return lhs, rhs
