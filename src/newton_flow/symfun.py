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
Horner's form of the polynomial, poly_r = sigma_r I - poly_{r-1} A, as
the cross-check.  ``_classify`` is the package's one zero window: lambda
is zero when |lambda| <= ZERO_TOL max(1, max|lambda|) over the spectrum it
classifies, eigh's in ``definiteness`` and ``sqrt_psd``, the deletion
table's in the PSD gate of ``cauchy_schwarz_bound``.  Every entry point converts
its curvatures, operator or rows once through ``errors.as_floats``, which
refuses ragged, string, complex or object input with DomainError; the
row kernels also refuse rows that are not 1-D or 2-D.

One operator is usually asked about at every order r in turn, so the
module keeps the last operator it built a family for: one slot keyed by
the shape and float64 bytes of the caller's array, holding the
validated, exactly-symmetric operator A, its norm, its eigenframe (k, Q)
as ``eigh`` gave it, its family and the traces of each order asked so
far, all read-only.  Validation and build are deterministic functions of
those bytes, and the slot is stored only after both have passed.  A hit
skips the validation (finiteness, symmetry, the symmetrized copy, the
norm) and the build (``eigh``, the deletion table, the P_r and their
cross-check).  An order's traces tr P_{r-1}, tr(P_{r-1} A) and
tr(P_{r-1} A^2) are formed at its first call, after its degree check,
and the three order entry points share them.  Every per-call check still
runs: the order r, the degree checks (from the stored norm), the three
modified-norm routes, the trace identities and the PSD gate.  On a hit
``definiteness`` and ``sqrt_psd`` read the stored eigenframe, the bits
their own ``eigh`` of the stored A would give; a miss there validates and
eigensolves afresh and leaves the slot alone.  ``newton_family`` hands
out writable copies, so no caller can alter the slot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    NotPSDError,
    NumericalError,
    as_floats,
    check_integer,
    check_order,
    float_range_error,
)

# Tolerances (double precision with degree-based scaling).
SYM_TOL = 1e-10        # relative asymmetry allowed in a shape operator
IDENTITY_TOL = 1e-10   # residual tolerance for the trace identities
ZERO_TOL = 1e-10       # the one relative zero window (_zero_cut)
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_2 = math.log(2.0)


def _as_curvatures(k) -> np.ndarray:
    # empty vectors are allowed: sigma_0 of nothing is 1 (deletion from n=1)
    k = as_floats(k, "curvature vector")
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
    bounds the degree-p quantities of an n x n A (sigma_p, A^p, P_p, their traces).
    Summed as logarithms, so that no n overflows the bound; names n if n 2^n does."""
    if not p * math.log1p(norm_a) + math.log(n) + n * _LOG_2 < _LOG_MAX:
        if not math.log(n) + n * _LOG_2 < _LOG_MAX:
            raise NumericalError(f"n 2^n of n={n} leaves the float range")
        raise float_range_error("|A|", norm_a, p)


def _as_shape_operator(S) -> np.ndarray:
    A = as_floats(S, "shape operator")
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
    if check_integer(r, "order r") < 0:
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


def _as_rows(K) -> np.ndarray:
    K = as_floats(K, "curvature rows")
    if not 1 <= K.ndim <= 2:
        raise DomainError("curvature rows must be a 1-D or 2-D array")
    return np.atleast_2d(K)


def elem_sym_all_rows(K: np.ndarray, top: int | None = None) -> np.ndarray:
    """Row-wise sigma_0..sigma_top (top = n by default); K has one
    curvature vector per row.

    The prefix recurrence e_p^(j) = e_p^(j-1) + k_j * e_{p-1}^(j-1).  An
    entry depends only on lower orders, so a smaller top (a nonnegative
    integer) gives the same bits for the orders it keeps and never forms
    the higher ones.
    """
    K = _as_rows(K)
    S, n = K.shape
    if top is not None and check_integer(top, "top") < 0:
        raise DomainError("top must be nonnegative")
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
    K = _as_rows(K)
    if check_integer(r, "order r") < 0:
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
    P_n = 0.  The independent polynomial form, evaluated by Horner's rule
    poly_r = sigma_r I - poly_{r-1} A, is a built-in cross-check at every
    r, and poly_n must vanish (Cayley-Hamilton).  When S has the bytes of
    the last operator built, the validation and the build are skipped and
    the family comes from the slot.  The arrays returned are the caller's
    own.
    """
    fam = _family(*_lookup(S)).fam
    return NewtonFamily(sigmas=fam.sigmas.copy(), P=tuple(p.copy() for p in fam.P))


class _Operator(NamedTuple):
    """A validated operator and, once built, its eigenframe, its family and
    the traces of the orders asked so far."""

    A: np.ndarray                   # the exactly-symmetric part of the input
    norm: float                     # _norm(A), which the degree checks read
    k: np.ndarray | None = None     # eigenvalues of A, ascending, as eigh gave them
    Q: np.ndarray | None = None     # eigh's eigenvectors of A, column j for k[j]
    fam: NewtonFamily | None = None
    table: np.ndarray | None = None     # deletion table [j, p] = sigma_p(A_j)
    # traces[r]: (tr P_{r-1}, tr(P_{r-1} A), tr(P_{r-1} A^2)), None until order r is asked
    traces: tuple = ()


# (key, _Operator with its eigenframe, family and traces, all read-only) of the
# last operator built, keyed by the shape and float64 bytes of the caller's
# array; or None
_last_family = None


def _lookup(S) -> tuple:
    """(key, _Operator) of the caller's operator S: the slot's entry on a
    hit; on a miss S validated afresh, without a family, and the slot is
    left alone."""
    X = as_floats(S, "shape operator")
    key = (X.shape, X.tobytes())
    slot = _last_family
    if slot is not None and slot[0] == key:
        return slot
    A = _as_shape_operator(X)
    return key, _Operator(A, _norm(A))


def _family(key, op: _Operator) -> _Operator:
    """op with its family.  A miss's family is built, made read-only with A
    and its eigenframe and stored in the slot under key; the result is
    shared and must not be written."""
    global _last_family
    if op.fam is not None:
        return op
    (k, Q), fam, table = _build_family(op.A)
    for array in (op.A, k, Q, fam.sigmas, *fam.P, table):
        array.setflags(write=False)
    op = op._replace(k=k, Q=Q, fam=fam, table=table, traces=(None,) * len(fam.P))
    _last_family = (key, op)
    return op


def _build_family(A: np.ndarray) -> tuple:
    """eigh's (k, Q), NewtonFamily and deletion table [j, p] = sigma_p(A_j)
    of A, cross-checked, built afresh."""
    n = A.shape[0]
    norm_a = _norm(A)
    _check_degree(norm_a, n, n)
    k, Q = np.linalg.eigh(A)
    sig = elem_sym_all_rows(k[None])[0]
    table = _excluding_table(k[None], n - 1)
    P = (np.eye(n), *((Q * table[:, 1:].T[:, None, :]) @ Q.T), np.zeros((n, n)))
    _cross_check(A, norm_a, sig, P)
    return (k, Q), NewtonFamily(sigmas=sig, P=P), table


def _cross_check(A: np.ndarray, norm_a: float, sigmas: np.ndarray, P: tuple):
    """Raise NumericalError unless every P_r is within IDENTITY_TOL n
    (1 + |A|)^max(r, 1) of Horner's form poly_r = sigma_r I - poly_{r-1} A
    (poly_0 = I), and poly_n is within IDENTITY_TOL (1 + |A|)^n of zero."""
    n = A.shape[0]
    eye = np.eye(n)
    poly = eye
    for r, s_r in enumerate(sigmas.tolist()):
        if r:
            poly = s_r * eye - poly @ A
        tol = IDENTITY_TOL * n * (1.0 + norm_a) ** max(r, 1)
        if not _norm(P[r] - poly) <= tol:    # NaN fails too
            raise NumericalError(f"eigenframe/polynomial disagreement for P_{r}")
    # Cayley-Hamilton: the polynomial form of P_n vanishes
    if not _norm(poly) <= IDENTITY_TOL * (1.0 + norm_a) ** n:
        raise NumericalError("polynomial P_n deviates from zero beyond tolerance")


def _order_family(S, r: int) -> _Operator:
    """S with its family and order r's traces, once 1 <= r <= n holds and
    the degree-(r+1) quantities stay in the float range; both are checked
    on every call, before any build or trace.  The traces are formed at the
    operator's first order-r call and stored in the slot beside its family."""
    global _last_family
    key, op = _lookup(S)
    n = op.A.shape[0]
    check_order(r, n)
    _check_degree(op.norm, r + 1, n)   # the order-r identities reach degree r+1
    op = _family(key, op)
    if op.traces[r] is None:
        traces = _order_traces(op.A, op.fam.P[r - 1])
        op = op._replace(traces=op.traces[:r] + (traces,) + op.traces[r + 1:])
        _last_family = (key, op)
    return op


def _order_traces(A: np.ndarray, P: np.ndarray) -> tuple:
    """(tr P, tr(P A), tr(P A^2)), from two matrix products."""
    PA = P @ A
    return P.trace(), PA.trace(), (PA @ A).trace()


def _eigenframe(op: _Operator) -> tuple:
    """eigh's (k, Q) of op.A: the stored eigenframe on a slot hit, else solved."""
    return (op.k, op.Q) if op.k is not None else np.linalg.eigh(op.A)


def sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues in the zero window of ``definiteness`` are clamped
    to zero; an M that ``definiteness`` does not call PSD raises NotPSDError.
    On a slot hit the eigenframe is the family's, with no eigensolve.
    """
    w, V = _eigenframe(_lookup(M)[1])
    if not _classify(float(w[0]), float(w[-1])).is_psd:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below the PSD zero window")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def modified_sff_norm_sq(S, r: int) -> float:
    """Squared trace norm of the curvature-weighted second fundamental form.

    Returns tr(P_{r-1} A^2).  Three routes must agree within tolerance:
    (a) the trace itself, (b) sum_j sigma_{r-1}(A_j) k_j^2, and
    (c) sigma_1 sigma_r - (r+1) sigma_{r+1}.
    """
    op = _order_family(S, r)
    n = op.A.shape[0]
    sig = op.fam.sigmas
    val_trace = float(op.traces[r][2])
    val_sum = float((op.table[:, r - 1] * op.k ** 2).sum())
    sig_rp1 = sig[r + 1] if r + 1 <= n else 0.0
    val_sigma = float(sig[1] * sig[r] - (r + 1) * sig_rp1)

    tol = IDENTITY_TOL * (1.0 + op.norm) ** (r + 1)
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

    Each residual is normalized by (1 + ||S||)^(r+1), ||S|| being the
    Frobenius norm that the degree check read.
    """
    op = _order_family(S, r)
    n = op.A.shape[0]
    tr_p, tr_pa, tr_pa2 = op.traces[r]
    sig = op.fam.sigmas
    sig_rp1 = sig[r + 1] if r + 1 <= n else 0.0
    scale = (1.0 + op.norm) ** (r + 1)
    return TraceIdentityResiduals(
        trace_p=abs(tr_p - (n - r + 1) * sig[r - 1]) / scale,
        trace_pa=abs(tr_pa - r * sig[r]) / scale,
        trace_pa2=abs(tr_pa2 - (sig[1] * sig[r] - (r + 1) * sig_rp1)) / scale,
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

    An eigenvalue within +/- ZERO_TOL*max(1, max|lambda|) of zero counts
    as zero (semidefinite), never as strictly signed.  The eigenvalues are
    eigh's, as in ``sqrt_psd``, so that the two agree on every M; on a slot
    hit they are the family's, with no eigensolve.
    """
    w = _eigenframe(_lookup(M)[1])[0]
    return _classify(float(w[0]), float(w[-1]))


def _zero_cut(lo: float, hi: float) -> float:
    """The zero window of values in [lo, hi]: |x| <= ZERO_TOL max(1, max|x|)."""
    return ZERO_TOL * max(1.0, -lo, hi)


def _classify(lo: float, hi: float) -> Definiteness:
    """Class of the eigenvalue range [lo, hi], cut by its own ``_zero_cut``."""
    cut = _zero_cut(lo, hi)
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
    """S with its family and traces (``_order_family``), and the Definiteness
    of P_{r-1} with the ascending eigenvalues it was read from: column r-1
    of the deletion table, cut as in ``definiteness``.  No eigensolve on a
    slot hit."""
    op = _order_family(S, r)
    w = np.sort(op.table[:, r - 1])
    return op, _classify(float(w[0]), float(w[-1])), w


def cauchy_schwarz_bound(S, r: int) -> tuple:
    """Both sides of r^2 sigma_r^2 <= tr(P_{r-1}) * tr(P_{r-1} A^2).

    The inequality is only asserted for positive semidefinite P_{r-1};
    an indefinite or negative P_{r-1} raises NotPSDError.  The gate reads
    P_{r-1}'s eigenvalues off the family's deletion table (``_p_spectrum``).
    """
    op, d, _ = _p_spectrum(S, r)
    _check_degree(op.norm, 2 * r, op.A.shape[0])   # both sides are degree 2r in A
    if not d.is_psd:
        raise NotPSDError(
            f"P_{r - 1} is {d.kind.value}; bound asserted only under PSD"
        )
    tr_p, _, tr_pa2 = op.traces[r]
    lhs = float((r * op.fam.sigmas[r]) ** 2)
    rhs = float(tr_p * tr_pa2)
    return lhs, rhs
