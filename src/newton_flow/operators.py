"""Discrete curvature-weighted second-order operators on revolution surfaces.

For a rotationally invariant function F on a surface of revolution the
operator tr(P_{r-1} Hess F) reduces to the one-dimensional flux form

    L F = (1/(f w)) d/dz ( (f * lambda_mer / w) dF/dz ),

where lambda_mer is the eigenvalue of P_{r-1} on the meridional
direction, f the distance to the axis and w = sqrt(1 + f'^2); it and the
identities' sigma_p are read off the catalog's ``RevolutionGeometry``.
The drifted variant subtracts <X, grad F>.
Identity checks report max-norm residuals over interior nodes only (two
nodes trimmed per open boundary, where the stencils are lower order); a
residual at rounding level (EXACT_TOL) counts as exact in a refinement
study.  No discrete maximum principle is claimed for semidefinite weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fd
from .catalog import (
    Cylinder,
    EllipsoidRev,
    HypersurfaceModel,
    Revolution,
    RevolutionGeometry,
    Sphere,
    cylinder_profile,
    exact_curvatures,
    exact_support,
    revolution_geometry,
    sphere_band_profile,
)
from .errors import DomainError, NotSelfShrinkerError, check_order
from .gapcheck import SHRINKER_TOL
from .symfun import elem_sym_all, elem_sym_excluding

ORDER_BAND = (1.5, 2.5)   # observed orders a passing refinement study shows
FINEST_TOL = 1e-3         # largest residual it may leave at the finest grid
EXACT_TOL = 1e-10         # a residual at most this is rounding: the identity is exact


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Rotationally invariant function sampled on the profile grid."""

    values: np.ndarray
    geometry: Revolution

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.geometry.profile.z.shape:
            raise DomainError("field length does not match the grid")
        if not np.all(np.isfinite(v)):
            raise DomainError("field has non-finite values")


# private forms on the geometry g the caller holds: one geometry pass per call

def _gradient(g: RevolutionGeometry, values: np.ndarray) -> np.ndarray:
    return fd.deriv1(values, g.h, g.boundary) / g.w


def _drift(g: RevolutionGeometry, values: np.ndarray) -> np.ndarray:
    """<X, grad F> = (f f' + z) F_z / w^2 for F sampled as values."""
    return (g.f * g.fp + g.z) * fd.deriv1(values, g.h, g.boundary) / (g.w * g.w)


def _lr_apply(g: RevolutionGeometry, field: ScalarField, r: int) -> ScalarField:
    coef = g.f * g.p_eigenvalues(r)[0] / g.w
    flux = fd.flux_divergence(coef, field.values, g.h, g.boundary)
    return ScalarField(values=flux / (g.f * g.w), geometry=field.geometry)


def surface_gradient(field: ScalarField) -> np.ndarray:
    """Signed magnitude of grad F along the (unit) meridional direction."""
    return _gradient(revolution_geometry(field.geometry), field.values)


def position_gradient_term(field: ScalarField) -> np.ndarray:
    """<X, grad F> nodewise: (f f' + z) F_z / w^2."""
    return _drift(revolution_geometry(field.geometry), field.values)


def lr_apply(field: ScalarField, r: int) -> ScalarField:
    """Divergence-form discretization of tr(P_{r-1} Hess F).

    Second order in the interior; for r = 1 this is the discrete
    Laplace-Beltrami operator of the surface.
    """
    return _lr_apply(revolution_geometry(field.geometry), field, r)


def drifted_apply(field: ScalarField, r: int) -> ScalarField:
    """Drifted operator: lr_apply minus the position drift <X, grad F>."""
    g = revolution_geometry(field.geometry)
    values = _lr_apply(g, field, r).values - _drift(g, field.values)
    return ScalarField(values=values, geometry=field.geometry)


# ---------------------------------------------------------------------------
# identity verification

@dataclass(frozen=True)
class ConvergenceReport:
    identity: str
    r: int
    resolutions: tuple
    residuals: tuple
    observed_orders: tuple

    def passes(self) -> bool:
        """An exact finest residual, or a small one reached at the observed orders."""
        finest = self.residuals[-1]
        return finest <= EXACT_TOL or (finest <= FINEST_TOL and all(
            ORDER_BAND[0] <= p <= ORDER_BAND[1] for p in self.observed_orders))


def _as_revolution(model: HypersurfaceModel, resolution: int) -> Revolution:
    """Discretize a model as a revolution surface at the given node count."""
    if isinstance(model, Revolution):
        return model
    if isinstance(model, EllipsoidRev):
        return model.as_revolution(resolution)
    if isinstance(model, Sphere):
        if model.n != 2:
            raise DomainError("revolution operators need n = 2")
        return Revolution(profile=sphere_band_profile(
            model.radius, 0.3 * model.radius, resolution))
    if isinstance(model, Cylinder):
        if model.n != 2:
            raise DomainError("revolution operators need n = 2")
        return Revolution(profile=cylinder_profile(
            model.radius, 2.0 * model.radius, resolution))
    raise DomainError(f"cannot discretize {type(model).__name__} as a revolution")


def _support_identity_residual(rev: Revolution, r: int) -> float:
    g = revolution_geometry(rev)
    support = g.support
    lhs = _lr_apply(g, ScalarField(values=support, geometry=rev), r).values
    sigma_r = g.sigma(r)
    rhs = (-r * sigma_r - (g.sigma(1) * sigma_r - (r + 1) * g.sigma(r + 1)) * support
           - _drift(g, sigma_r))
    cut = g.interior()
    return float(np.abs(lhs - rhs)[cut].max())


def _position_identity_residual(rev: Revolution, r: int) -> float:
    g = revolution_geometry(rev)
    radius_sq = ScalarField(values=g.f ** 2 + g.z ** 2, geometry=rev)
    lhs = 0.5 * _lr_apply(g, radius_sq, r).values
    rhs = (2 - r + 1) * g.sigma(r - 1) + r * g.sigma(r) * g.support
    cut = g.interior()
    return float(np.abs(lhs - rhs)[cut].max())


def refinement_report(identity: str, residual_fn, model, r,
                      resolutions) -> ConvergenceReport:
    """Refinement study of residual_fn(revolution, r) over the resolutions.

    Observed orders compare consecutive resolutions, whose grid spacings
    must differ (a DomainError otherwise: a fixed Revolution has one
    spacing at every resolution).  A pair holding an exact residual (at
    most EXACT_TOL, rounding) gives no order.
    """
    resolutions = [int(m) for m in resolutions]
    residuals = []
    spacings = []
    for m in resolutions:
        rev = _as_revolution(model, m)
        if spacings and rev.profile.h == spacings[-1]:
            raise DomainError(f"resolutions {resolutions} repeat the grid spacing "
                              f"h={rev.profile.h:.6g}: no order can be observed")
        residuals.append(residual_fn(rev, r))
        spacings.append(rev.profile.h)
    orders = [math.log(coarse / fine) / math.log(h_coarse / h_fine)
              for coarse, fine, h_coarse, h_fine
              in zip(residuals, residuals[1:], spacings, spacings[1:])
              if min(coarse, fine) > EXACT_TOL]
    return ConvergenceReport(
        identity=identity, r=r, resolutions=tuple(resolutions),
        residuals=tuple(residuals), observed_orders=tuple(orders),
    )


def verify_support_identity(model, r: int, resolutions) -> ConvergenceReport:
    """Refinement study of the support-function identity.

    Checks L_{r-1}<X,N> = -r sigma_r
                          - (sigma_1 sigma_r - (r+1) sigma_{r+1}) <X,N>
                          - <grad sigma_r, X>
    which holds on any hypersurface, shrinker or not.
    """
    return refinement_report("support", _support_identity_residual, model, r, resolutions)


def verify_position_identity(model, r: int, resolutions) -> ConvergenceReport:
    """Refinement study of (1/2) L_{r-1} ||X||^2 = (n-r+1) sigma_{r-1}
    + r sigma_r <X,N>."""
    return refinement_report("position", _position_identity_residual, model, r, resolutions)


def verify_product_rule(f: ScalarField, g_field: ScalarField, r: int) -> float:
    """Max-norm residual of L(fg) = f Lg + g Lf + 2 <P grad f, grad g>."""
    if f.geometry is not g_field.geometry:
        pa, pb = f.geometry.profile, g_field.geometry.profile
        same = (
            pa.z.shape == pb.z.shape
            and np.array_equal(pa.z, pb.z)
            and np.array_equal(pa.f, pb.f)
            and pa.boundary == pb.boundary
            and f.geometry.orientation == g_field.geometry.orientation
        )
        if not same:
            raise DomainError("fields live on different geometries")
    geom = revolution_geometry(f.geometry)
    lam = geom.p_eigenvalues(r)[0]
    fg = ScalarField(values=f.values * g_field.values, geometry=f.geometry)
    lhs = _lr_apply(geom, fg, r).values
    cross = 2.0 * lam * _gradient(geom, f.values) * _gradient(geom, g_field.values)
    rhs = (f.values * _lr_apply(geom, g_field, r).values
           + g_field.values * _lr_apply(geom, f, r).values + cross)
    cut = geom.interior()
    return float(np.abs(lhs - rhs)[cut].max())


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
    (||sqrt(P_{r-1})A||^2 - r) * sigma_r.  Raises NotSelfShrinkerError
    when |sigma_r + <X,N>| exceeds SHRINKER_TOL.
    """
    n = model.n
    check_order(r, n)
    k = exact_curvatures(model)
    support = exact_support(model)
    sig = elem_sym_all(k)
    if abs(sig[r] + support) > SHRINKER_TOL:
        raise NotSelfShrinkerError(
            f"model violates sigma_r = -<X,N> by {abs(sig[r] + support):.3e}"
        )
    norm_sq = float(
        sum(elem_sym_excluding(k, j, r - 1) * k[j] ** 2 for j in range(n))
    )
    sigma_r = float(sig[r])
    return ShrinkerPdeReport(
        residual_linear=abs((norm_sq - r) * sigma_r),
        residual_squared=abs(sigma_r ** 2 * (r - norm_sq)),
    )
