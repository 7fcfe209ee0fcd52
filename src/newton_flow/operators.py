"""Discrete curvature-weighted second-order operators on revolution surfaces.

For a rotationally invariant function F on a surface of revolution the
operator tr(P_{r-1} Hess F) reduces to the one-dimensional flux form

    L F = (1/(f w)) d/dz ( (f * lambda_mer / w) dF/dz ),

where lambda_mer is the eigenvalue of P_{r-1} on the meridional
direction, f the distance to the axis and w = sqrt(1 + f'^2).  Every
operator takes that surface's curvature record (the catalog's
``RevolutionGeometry``, from ``revolution_geometry`` or a radial-graph
flow state) and an array of values on its grid, and returns an array;
lambda_mer and the identities' sigma_p are read off the record, F_z is
the first output of an ``fd._stencil`` of the record's grid, and L F is
one ``fd.flux_divergence``.  The drifted variant subtracts <X, grad F>.
A refinement study takes model_at, a function from resolution to
``Revolution`` (a caller that studies a sphere or a cylinder builds its
band or its tube by a catalog profile constructor).  Identity checks
report max-norm residuals over interior nodes only (two nodes trimmed
per open boundary, where the stencils are lower order); a residual at
rounding level (EXACT_TOL) counts as exact in a refinement study.  No
discrete maximum principle is claimed for semidefinite weights.
``verify_shrinker_pde`` takes its shrinker verdict and modified norm from
``gapcheck``'s report of a closed-form row, and forms only sigma_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fd
from .catalog import RevolutionGeometry, check_model, exact_curvatures, revolution_geometry
from .errors import DomainError, as_floats, check_integer, check_order
from .gapcheck import classify, evaluate
from .symfun import elem_sym

ORDER_BAND = (1.5, 2.5)   # observed orders a passing refinement study shows
FINEST_TOL = 1e-3         # largest residual it may leave at the finest grid
EXACT_TOL = 1e-10         # a residual at most this is rounding: the identity is exact


def _values(g: RevolutionGeometry, values) -> np.ndarray:
    """values through ``errors.as_floats``, finite, on the grid of g; else DomainError."""
    v = as_floats(values, "field")
    if v.shape != g.f.shape:
        raise DomainError("field length does not match the grid")
    if not np.all(np.isfinite(v)):
        raise DomainError("field has non-finite values")
    return v


def _dz(g: RevolutionGeometry, values) -> np.ndarray:
    """F_z of checked values: the first output of a stencil of g's grid."""
    return fd._stencil(g.f.size, g.h, g.boundary)(_values(g, values))[0]


def surface_gradient(geometry: RevolutionGeometry, values) -> np.ndarray:
    """Signed magnitude of grad F along the (unit) meridional direction."""
    return _dz(geometry, values) / geometry.w


def position_gradient_term(geometry: RevolutionGeometry, values) -> np.ndarray:
    """<X, grad F> nodewise: (f f' + z) F_z / w^2."""
    g = geometry
    return (g.f * g.fp + g.z) * _dz(g, values) / (g.w * g.w)


def lr_apply(geometry: RevolutionGeometry, values, r: int) -> np.ndarray:
    """Divergence-form discretization of tr(P_{r-1} Hess F).

    Second order in the interior; for r = 1 this is the discrete
    Laplace-Beltrami operator of the surface.
    """
    g = geometry
    coef = g.f * g.p_eigenvalues(r)[0] / g.w
    return fd.flux_divergence(coef, _values(g, values), g.h, g.boundary) / (g.f * g.w)


def drifted_apply(geometry: RevolutionGeometry, values, r: int) -> np.ndarray:
    """Drifted operator: lr_apply minus the position drift <X, grad F>."""
    return lr_apply(geometry, values, r) - position_gradient_term(geometry, values)


# ---------------------------------------------------------------------------
# identity verification

@dataclass(frozen=True)
class ConvergenceReport:
    r: int
    resolutions: tuple
    residuals: tuple
    observed_orders: tuple

    def passes(self) -> bool:
        """An exact finest residual, or a small one reached at the observed orders.

        A finest residual that is not exact must give an order with the
        one before it: a study of one resolution, or one whose residual
        first appears at the finest grid, shows no convergence.
        """
        finest = self.residuals[-1]
        if finest <= EXACT_TOL:
            return True
        return (finest <= FINEST_TOL and len(self.residuals) > 1
                and self.residuals[-2] > EXACT_TOL
                and all(ORDER_BAND[0] <= p <= ORDER_BAND[1] for p in self.observed_orders))


def _support_identity_residual(g: RevolutionGeometry, r: int) -> float:
    support = g.support
    lhs = lr_apply(g, support, r)
    sigma_r = g.sigma(r)
    rhs = (-r * sigma_r - (g.sigma(1) * sigma_r - (r + 1) * g.sigma(r + 1)) * support
           - position_gradient_term(g, sigma_r))
    return float(np.abs(lhs - rhs)[g.interior()].max())


def _position_identity_residual(g: RevolutionGeometry, r: int) -> float:
    lhs = 0.5 * lr_apply(g, g.f ** 2 + g.z ** 2, r)
    rhs = (2 - r + 1) * g.sigma(r - 1) + r * g.sigma(r) * g.support
    return float(np.abs(lhs - rhs)[g.interior()].max())


def refinement_report(residual_fn, model_at, r, resolutions) -> ConvergenceReport:
    """Refinement study of residual_fn(geometry, r) over the resolutions.

    geometry is the curvature record of model_at(m), the ``Revolution`` at
    resolution m.  Observed orders compare consecutive resolutions, whose
    grid spacings must differ (a DomainError otherwise: a model_at that
    returns one fixed Revolution has one spacing at every resolution).  A
    pair holding an exact residual (at most EXACT_TOL, rounding) gives no
    order.
    """
    resolutions = [check_integer(m, "resolution") for m in resolutions]
    if not resolutions:
        raise DomainError("a refinement study needs at least one resolution")
    residuals = []
    spacings = []
    for m in resolutions:
        g = revolution_geometry(model_at(m))
        if spacings and g.h == spacings[-1]:
            raise DomainError(f"resolutions {resolutions} repeat the grid spacing "
                              f"h={g.h:.6g}: no order can be observed")
        residuals.append(residual_fn(g, r))
        spacings.append(g.h)
    orders = [math.log(coarse / fine) / math.log(h_coarse / h_fine)
              for coarse, fine, h_coarse, h_fine
              in zip(residuals, residuals[1:], spacings, spacings[1:])
              if min(coarse, fine) > EXACT_TOL]
    return ConvergenceReport(
        r=r, resolutions=tuple(resolutions),
        residuals=tuple(residuals), observed_orders=tuple(orders),
    )


def verify_support_identity(model_at, r: int, resolutions) -> ConvergenceReport:
    """Refinement study of the support-function identity on model_at(m),
    a function from resolution to ``Revolution``.

    Checks L_{r-1}<X,N> = -r sigma_r
                          - (sigma_1 sigma_r - (r+1) sigma_{r+1}) <X,N>
                          - <grad sigma_r, X>
    which holds on any hypersurface, shrinker or not.
    """
    return refinement_report(_support_identity_residual, model_at, r, resolutions)


def verify_position_identity(model_at, r: int, resolutions) -> ConvergenceReport:
    """Refinement study of (1/2) L_{r-1} ||X||^2 = (n-r+1) sigma_{r-1}
    + r sigma_r <X,N> on model_at(m), as ``verify_support_identity``."""
    return refinement_report(_position_identity_residual, model_at, r, resolutions)


def verify_product_rule(geometry: RevolutionGeometry, a, b, r: int) -> float:
    """Max-norm residual of L(ab) = a Lb + b La + 2 <P grad a, grad b>."""
    g = geometry
    a, b = _values(g, a), _values(g, b)
    lhs = lr_apply(g, a * b, r)
    cross = 2.0 * g.p_eigenvalues(r)[0] * surface_gradient(g, a) * surface_gradient(g, b)
    rhs = a * lr_apply(g, b, r) + b * lr_apply(g, a, r) + cross
    return float(np.abs(lhs - rhs)[g.interior()].max())


@dataclass(frozen=True)
class ShrinkerPdeReport:
    """Residuals of the two stationary identities on a model shrinker."""

    residual_linear: float    # |(||sqrt(P_{r-1})A||^2 - r) * sigma_r|
    residual_squared: float   # |sigma_r^2 (r - ||sqrt(P_{r-1})A||^2)|

    @property
    def worst(self) -> float:
        return max(self.residual_linear, self.residual_squared)


def verify_shrinker_pde(model, r: int) -> ShrinkerPdeReport:
    """Stationary form of the shrinker identities on an exact model.

    On the catalog models sigma_r is constant, so the drifted terms and
    gradient terms vanish and both identities reduce to multiples of
    (||sqrt(P_{r-1})A||^2 - r) * sigma_r.  The verdict and the norm are
    those of ``gapcheck.evaluate`` on the model's closed-form row: its
    ``classify`` raises NotSelfShrinkerError when |sigma_r + <X,N>|
    exceeds SHRINKER_TOL, and a row that leaves the float range raises
    its NumericalError.  A model with no constant row raises DomainError.
    """
    check_model(model)
    check_order(r, model.n)
    k = exact_curvatures(model)
    report = evaluate(model, r)
    classify(report)
    norm_sq = report.sup_modified_norm_sq
    sigma_r = elem_sym(k, r)
    return ShrinkerPdeReport(
        residual_linear=abs((norm_sq - r) * sigma_r),
        residual_squared=abs(sigma_r ** 2 * (r - norm_sq)),
    )
