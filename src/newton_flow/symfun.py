"""Algebra of principal curvatures.

Elementary symmetric functions sigma_0..sigma_n of a curvature vector,
shape operators, and the derived matrix family P_0..P_n, defined by

    P_0 = I,    P_r = sigma_r * I - P_{r-1} @ A,    P_n = 0,

whose eigenvalues in the eigenframe of A are the symmetric functions of
the curvatures with one entry deleted.  Conventions: sigma_0 = 1 and
sigma_r = 0 for r > n.  All functions operate on plain numpy arrays
and are pure as observed: the same input bytes give the same result
bytes, and every result is the caller's own.

The row kernel ``elem_sym_all_rows`` holds the one sigma recurrence, run
order by order on an (n+1, S) working array whose transpose it returns;
``elem_sym`` and ``elem_sym_all`` read its one-row case.  ``_sigma_tables``
runs it once on the rows stacked over each row with one entry deleted
(through a read-only column index, built once per n) and padded with a
trailing 0.0, which moves no bit of a finite table: one pass gives an
operator's sigmas and deletion table, and a gap report's sigmas and the
eigenvalues of P_{r-1}.  The deletion kernel ``elem_sym_excluding_rows``
runs it on the deleted rows alone, unpadded.  No sigma_p(A_j) comes
from a subtraction.  P_r is built in the eigenframe (k, Q) of A as
Q diag(sigma_r(A_j)) Q^T from the kernel's table, with Horner's form of
the polynomial, poly_r = sigma_r I - poly_{r-1} A, as the cross-check.  ``_classify`` is the package's one zero window: lambda
is zero when |lambda| <= ZERO_TOL max(1, max|lambda|) over the spectrum it
classifies, eigh's in ``definiteness`` and ``sqrt_psd``, the deletion
table's in the PSD gate of ``cauchy_schwarz_bound``.  Every entry point converts
its curvatures, operator or rows once through ``errors.as_floats``, which
refuses ragged, string, complex or object input with DomainError; the
row kernels also refuse rows that are not 1-D or 2-D.

One operator is usually asked about at every order r in turn, so every
entry point that takes an operator reads it as an ``_Operator``, from a
``functools.lru_cache`` of the last two asked about, keyed by the shape
and float64 bytes of the caller's array.  An ``_Operator`` holds the
validated, exactly-symmetric A and its norm, and forms each further part
when it is first read: eigh's eigenframe (k, Q), which ``definiteness``
and ``sqrt_psd`` read; the family with its deletion table, after the
degree check of P_n and before any eigensolve; and each order's traces
tr P_{r-1}, tr(P_{r-1} A) and tr(P_{r-1} A^2), which the three order
entry points share.  Every part is a deterministic function of the
bytes and is kept read-only, so a hit gives the bits of a fresh build.
An input that validation refuses is not cached, and a part whose build
raises is not kept, so it raises again.  Every per-call check still
runs: the order r and its degree check (before the order's traces are
formed), the three modified-norm routes, the trace identities and the
PSD gate.  ``newton_family`` hands out writable copies, so no caller
can alter the cache.
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
    # a NaN entry makes the norm NaN and an inf entry inf; a finite A whose
    # norm overflows passes and is measured in units of max|A| below
    scale = _norm(A)
    if not math.isfinite(scale) and not np.isfinite(A).all():
        raise DomainError("shape operator has non-finite entries")
    if scale < 8e307:     # half the largest float: no A_ij - A_ji overflows
        D = A - A.T
    else:                 # measure both in units of max|A|
        unit = np.abs(A).max()
        scale = _norm(A / unit)
        D = A / unit - A.T / unit
    asymmetry = np.maximum.reduce(np.abs(D, out=D), axis=None)
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
    the higher ones.  The (S, top + 1) result is the transpose of the
    kernel's own (top + 1, S) array: Fortran-ordered, the caller's, and
    with the bytes (``tobytes()``) of a C-ordered one.
    """
    K = _as_rows(K)
    S, n = K.shape
    if top is not None and check_integer(top, "top") < 0:
        raise DomainError("top must be nonnegative")
    top = n if top is None else min(top, n)
    # order p of every row is one contiguous row of e: few, long slices
    e = np.zeros((top + 1, S))
    e[0] = 1.0
    cols = K.T
    for j in range(top):
        e[1:j + 2] += cols[j] * e[0:j + 1]
    for j in range(top, n):     # later curvatures feed orders 1..top only
        e[1:] += cols[j] * e[:-1]
    return e.T


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
    # unpadded: rows whose lower orders overflow keep their inf
    deleted = K[:, _excluding_columns(n)].reshape(S * n, n - 1)
    return elem_sym_all_rows(deleted, r)[:, r].reshape(S, n)


def _sigma_tables(K: np.ndarray, top: int) -> tuple:
    """(sigma_0..sigma_top of each row of K, the table whose row s * n + j is
    sigma_0..sigma_top of row s without column j), from one ``elem_sym_all_rows``
    pass over the rows stacked over the rows np.delete would give, each
    padded with a trailing 0.0 (no subtraction).

    The pad moves no bit where every sigma_p, p < top, is finite, as the
    callers' degree checks make it: an entry starts at +0.0 and a
    round-to-nearest sum is -0.0 only when both addends are, so no entry is
    ever -0.0, and adding the pad's +-0.0 products to it gives it back.  A
    deleted row's order n is +0.0; for one row and top = n, the table's
    first n columns are the (n, n) table [j, p] = sigma_p(A_j)."""
    S, n = K.shape
    rows = np.zeros((S * (n + 1), n))
    rows[:S] = K
    rows[S:, :-1] = K[:, _excluding_columns(n)].reshape(S * n, n - 1)
    e = elem_sym_all_rows(rows, top)
    return e[:S], e[S:]


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
    r, and poly_n must vanish (Cayley-Hamilton).  The arrays returned are
    the caller's own.
    """
    fam = _operator(S).family[1]
    return NewtonFamily(sigmas=fam.sigmas.copy(), P=tuple(p.copy() for p in fam.P))


def _read_only(*arrays) -> tuple:
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _Operator:
    """A validated operator A, exactly symmetric, and its norm; every other
    part is formed when first read and then kept, read-only."""

    def __init__(self, A: np.ndarray):
        A.setflags(write=False)
        self.A, self.norm = A, _norm(A)     # the degree checks read the norm
        self._traces = {}

    @functools.cached_property
    def frame(self) -> tuple:
        """eigh's (k, Q) of A: k ascending, column j of Q for k[j]."""
        return _read_only(*np.linalg.eigh(self.A))

    @functools.cached_property
    def family(self) -> tuple:
        """(deletion table [j, p] = sigma_p(A_j), NewtonFamily), cross-checked;
        the degree check comes before the eigensolve."""
        n = self.A.shape[0]
        _check_degree(self.norm, n, n)
        k, Q = self.frame
        sig, table = _sigma_tables(k[None], n)
        sig, table = sig[0], table[:, :n]
        P = (np.eye(n), *((Q * table[:, 1:].T[:, None, :]) @ Q.T), np.zeros((n, n)))
        _cross_check(self.A, self.norm, sig, P)
        table, sig, *P = _read_only(table, sig, *P)
        return table, NewtonFamily(sigmas=sig, P=tuple(P))

    def traces(self, r: int) -> tuple:
        """(tr P_{r-1}, tr(P_{r-1} A), tr(P_{r-1} A^2)), once 1 <= r <= n holds
        and the degree-(r+1) quantities stay in the float range: both are
        checked on every call, and the traces formed at the first that passes."""
        n = self.A.shape[0]
        check_order(r, n)
        _check_degree(self.norm, r + 1, n)   # the order-r identities reach degree r+1
        if r not in self._traces:
            P = self.family[1].P[r - 1]
            PA = P @ self.A
            self._traces[r] = (P.trace(), PA.trace(), (PA @ self.A).trace())
        return self._traces[r]


def _operator(S) -> _Operator:
    """The _Operator of the caller's S, keyed by its shape and float64 bytes."""
    X = as_floats(S, "shape operator")
    return _operator_of(X.shape, X.tobytes())


# two operators: the algebra job asks about each P_{r-1} between its calls on A;
# a refused input raises, and lru_cache stores no call that raised
@functools.lru_cache(maxsize=2)
def _operator_of(shape: tuple, data: bytes) -> _Operator:
    return _Operator(_as_shape_operator(np.frombuffer(data).reshape(shape)))


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


def sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues in the zero window of ``definiteness`` are clamped
    to zero; an M that ``definiteness`` does not call PSD raises NotPSDError.
    """
    w, V = _operator(M).frame
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
    op = _operator(S)
    val_trace = float(op.traces(r)[2])
    n = op.A.shape[0]
    table, fam = op.family
    sig = fam.sigmas
    val_sum = float((table[:, r - 1] * op.frame[0] ** 2).sum())
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
    op = _operator(S)
    tr_p, tr_pa, tr_pa2 = op.traces(r)
    n = op.A.shape[0]
    sig = op.family[1].sigmas
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
    eigh's, as in ``sqrt_psd``, so that the two agree on every M.
    """
    w = _operator(M).frame[0]
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
    """S's _Operator, order r's traces, and the Definiteness of P_{r-1} with
    the ascending eigenvalues it was read from: column r-1 of the deletion
    table, cut as in ``definiteness``."""
    op = _operator(S)
    traces = op.traces(r)
    w = np.sort(op.family[0][:, r - 1])
    return op, traces, _classify(float(w[0]), float(w[-1])), w


def cauchy_schwarz_bound(S, r: int) -> tuple:
    """Both sides of r^2 sigma_r^2 <= tr(P_{r-1}) * tr(P_{r-1} A^2).

    The inequality is only asserted for positive semidefinite P_{r-1};
    an indefinite or negative P_{r-1} raises NotPSDError.  The gate reads
    P_{r-1}'s eigenvalues off the family's deletion table (``_p_spectrum``).
    """
    op, (tr_p, _, tr_pa2), d, _ = _p_spectrum(S, r)
    _check_degree(op.norm, 2 * r, op.A.shape[0])   # both sides are degree 2r in A
    if not d.is_psd:
        raise NotPSDError(
            f"P_{r - 1} is {d.kind.value}; bound asserted only under PSD"
        )
    lhs = float((r * op.family[1].sigmas[r]) ** 2)
    rhs = float(tr_p * tr_pa2)
    return lhs, rhs
