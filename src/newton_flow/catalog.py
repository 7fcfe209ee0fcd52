"""Model hypersurfaces with pointwise curvature data.

Exact variants (hyperplane, round sphere, spherical cylinder) carry
closed-form curvatures and support values.  Surfaces of revolution are
discretized as radial graphs rho = f(z) over a uniform axial grid, with
curvatures from second-order difference stencils into one
``RevolutionGeometry`` record, whose n = 2 closed forms the flow and the
operators read.  ``sample_fields`` gives the sample rows that ``gap`` and ``residual`` read.

Orientation convention: the normal points inward on closed model
hypersurfaces, so spheres and cylinders have positive principal
curvatures and support value -R.  For revolution graphs, orientation +1
reproduces that convention on a constant profile (k_parallel = +1/R,
support = -R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, inf
from typing import NamedTuple, Union

import numpy as np

from . import fd
from .errors import DomainError, NumericalError, check_order, float_range_error
from .symfun import elem_sym

ON_MODEL_TOL = 1e-9    # absolute tolerance for "point lies on the model"
MAX_SAMPLES = 10 ** 7  # a larger sample grid is refused, not allocated
QUERY_RESOLUTION = 129  # profile nodes of an EllipsoidRev queried pointwise


# ---------------------------------------------------------------------------
# model types

@dataclass(frozen=True)
class Hyperplane:
    """Flat hyperplane through the origin; normal fixed to +e_{n+1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("dimension n must be >= 1")


@dataclass(frozen=True)
class Sphere:
    """Round n-sphere of the given radius, centered at the origin."""

    n: int
    radius: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("dimension n must be >= 1")
        if not 0 < self.radius < inf:
            raise DomainError("radius must be positive and finite")

    @property
    def min_radius(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Cylinder:
    """Product of an m-sphere of the given radius with a flat factor.

    Lives in R^{n+1}: sphere coordinates first (m+1 of them), then the
    n-m flat axial coordinates.
    """

    n: int
    m: int
    radius: float

    def __post_init__(self):
        if self.n < 2 or not 1 <= self.m <= self.n - 1:
            raise DomainError("cylinder needs 1 <= m <= n-1")
        if not 0 < self.radius < inf:
            raise DomainError("radius must be positive and finite")


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Radial graph rho = f(z) on a uniform axial grid."""

    z: np.ndarray
    f: np.ndarray
    boundary: str = "neumann"

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "f", f)
        if z.ndim != 1 or z.size < 5 or z.shape != f.shape:
            raise DomainError("profile needs >= 5 matching z/f samples")
        if not (np.isfinite(z).all() and np.isfinite(f).all()):
            raise DomainError("profile has non-finite z or f samples")
        dz = np.diff(z)
        if dz.min() <= 0 or np.abs(dz - dz[0]).max() > 1e-12 * abs(dz[0]):
            raise DomainError("profile grid must be uniform and increasing")
        if f.min() <= 0:
            raise DomainError("profile radii must be positive")
        if self.boundary not in fd.BOUNDARY_MODES:
            raise DomainError(f"unknown boundary mode {self.boundary!r}")

    @property
    def h(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def size(self) -> int:
        return int(self.z.size)


@dataclass(frozen=True, eq=False)
class Revolution:
    """Surface of revolution in R^3 built from a profile curve."""

    profile: ProfileCurve
    orientation: int = 1
    n: int = field(default=2, init=False)

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise DomainError("orientation must be +1 or -1")


@dataclass(frozen=True)
class EllipsoidRev:
    """Band of an ellipsoid of revolution (equatorial radius a, polar b).

    The profile f(z) = a*sqrt(1 - (z/b)^2) is restricted to |z| <= band*b
    so the polar coordinate singularity stays outside the grid.
    """

    a: float
    b: float
    band: float = 0.75
    n: int = field(default=2, init=False)

    def __post_init__(self):
        if not (0 < self.a < inf and 0 < self.b < inf):
            raise DomainError("semi-axes must be positive and finite")
        if not 0 < self.band < 1:
            raise DomainError("band fraction must lie in (0, 1)")

    def profile_curve(self, resolution: int) -> ProfileCurve:
        m = int(resolution)
        check_samples(m, 5, "resolution")
        z = np.linspace(-self.band * self.b, self.band * self.b, m)
        f = self.a * np.sqrt(1.0 - (z / self.b) ** 2)
        return ProfileCurve(z=z, f=f, boundary="neumann")

    def as_revolution(self, resolution: int) -> Revolution:
        return Revolution(profile=self.profile_curve(resolution))


HypersurfaceModel = Union[Hyperplane, Sphere, Cylinder, Revolution, EllipsoidRev]


# ---------------------------------------------------------------------------
# closed forms

def shrinker_radius(m: int, r: int) -> float:
    """Radius C(m,r)^(1/(r+1)) at which the model satisfies sigma_r = -<X,N>."""
    if not 1 <= r <= m:
        raise DomainError(
            f"no shrinking radius for r={r} > m={m}: sigma_r vanishes there"
        )
    return comb(m, r) ** (1.0 / (r + 1))


def sigma_p_cylinder(m: int, r: int, p: int) -> float:
    """Closed-form sigma_p on the shrinking cylinder with spherical rank m."""
    if not 1 <= r <= m:
        raise DomainError(f"cylinder closed form needs 1 <= r <= m, got r={r}")
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p > m:
        return 0.0
    return comb(m, p) * comb(m, r) ** (-p / (r + 1))


# ---------------------------------------------------------------------------
# revolution geometry

class RevolutionGeometry(NamedTuple):
    """Nodewise data of a radial graph rho = f(z): the one source of its
    curvatures, sigma_p, P_{r-1} eigenvalues and support (n = 2)."""

    z: np.ndarray
    f: np.ndarray
    h: float
    boundary: str
    orientation: int
    fp: np.ndarray        # f'
    w: np.ndarray         # sqrt(1 + f'^2), arclength factor
    k_mer: np.ndarray     # oriented meridional principal curvature
    k_par: np.ndarray     # oriented parallel principal curvature

    @property
    def min_radius(self) -> float:
        return float(self.f.min())

    @property
    def support(self) -> np.ndarray:
        """<X, N> = o (z f' - f) / w."""
        return float(self.orientation) * (self.z * self.fp - self.f) / self.w

    def interior(self) -> slice:
        return fd.trim_slice(self.boundary)

    def sigma(self, p: int) -> np.ndarray:
        """sigma_p(k_mer, k_par): 1, k_mer + k_par, k_mer k_par, then 0."""
        if p == 0:
            return np.ones_like(self.f)
        if p == 1:
            return self.k_mer + self.k_par
        if p == 2:
            return self.k_mer * self.k_par
        return np.zeros_like(self.f)

    def p_eigenvalues(self, r: int) -> tuple:
        """(meridional, parallel) eigenvalues of P_0 = I or P_1 = diag(k_par, k_mer)."""
        if r == 1:
            one = np.ones_like(self.f)
            return one, one
        if r == 2:
            return self.k_par, self.k_mer
        raise DomainError(f"revolution surfaces support r in {{1, 2}}, got r={r}")

    def p_trace_sup(self, r: int) -> float:
        """sup over the nodes of tr|P_{r-1}|; tr P_0 = 2 at every node."""
        if r == 1:
            return 2.0
        mer, par = self.p_eigenvalues(r)
        return float((np.abs(mer) + np.abs(par)).max())


def radial_graph(z: np.ndarray, f: np.ndarray, h: float, boundary: str,
                 orientation: int) -> RevolutionGeometry:
    """The record of the radial graph rho = f(z), from one derivative pass."""
    if not h * h > 0.0:      # an underflowed h^2 would divide f'' by zero
        raise float_range_error("h", h, 2)
    fp, fpp = fd.derivatives(f, h, boundary)
    w = np.sqrt(1.0 + fp * fp)
    o = float(orientation)
    return RevolutionGeometry(z, f, h, boundary, orientation, fp, w,
                              o * (-fpp) / w ** 3, o / (f * w))


def revolution_geometry(rev: Revolution) -> RevolutionGeometry:
    """The record of a surface of revolution's profile.

    A record that leaves the float range (radii near the float maximum
    overflow the ghosts, steep slopes overflow w^3) raises NumericalError
    with no numpy warning.  The check is made once per profile, here, and
    not in the ``radial_graph`` of every flow step.
    """
    p = rev.profile
    with np.errstate(over="raise", invalid="raise"):
        try:
            return radial_graph(p.z, p.f, p.h, p.boundary, rev.orientation)
        except FloatingPointError as exc:
            raise NumericalError(
                f"the curvature record of a profile with max f={p.f.max():.6g} "
                f"and h={p.h:.6g} leaves the float range") from exc


def sphere_band_profile(radius: float, half_width: float, samples: int,
                        boundary: str = "neumann") -> ProfileCurve:
    """Profile of the band |z| <= half_width of a round 2-sphere."""
    if not 0 < half_width < radius < inf:
        raise DomainError("need 0 < half_width < radius < inf")
    check_samples(samples, 5, "samples")
    try:
        radius_sq = radius ** 2
    except OverflowError as exc:
        raise float_range_error("R", radius, 2) from exc
    z = np.linspace(-half_width, half_width, samples)
    return ProfileCurve(z=z, f=np.sqrt(radius_sq - z ** 2), boundary=boundary)


def cylinder_profile(radius: float, half_width: float, samples: int,
                     boundary: str = "neumann") -> ProfileCurve:
    """Constant profile: the tube of the given radius."""
    if not (0 < radius < inf and 0 < half_width < inf):
        raise DomainError("radius and half_width must be positive and finite")
    check_samples(samples, 5, "samples")
    z = np.linspace(-half_width, half_width, samples)
    return ProfileCurve(z=z, f=np.full_like(z, radius), boundary=boundary)


# ---------------------------------------------------------------------------
# pointwise queries

def exact_curvatures(model) -> np.ndarray:
    """Curvature vector of a position-independent model."""
    if isinstance(model, Hyperplane):
        return np.zeros(model.n)
    if isinstance(model, Sphere):
        return np.full(model.n, 1.0 / model.radius)
    if isinstance(model, Cylinder):
        k = np.zeros(model.n)
        k[:model.m] = 1.0 / model.radius
        return k
    raise DomainError(f"{type(model).__name__} has no constant curvature data")


def exact_support(model) -> float:
    """Support value <X,N> of a position-independent model."""
    if isinstance(model, Hyperplane):
        return 0.0
    if isinstance(model, (Sphere, Cylinder)):
        return -model.radius
    raise DomainError(f"{type(model).__name__} has no constant support value")


def _locate_node(rev: Revolution, point) -> int:
    x = np.asarray(point, dtype=float)
    if x.shape != (3,):
        raise DomainError("revolution points live in R^3")
    p = rev.profile
    j = int(round((x[2] - p.z[0]) / p.h))
    if not 0 <= j < p.size or abs(x[2] - p.z[j]) > ON_MODEL_TOL:
        raise DomainError("point is not an axial grid node of the profile")
    rho = float(np.hypot(x[0], x[1]))
    if abs(rho - p.f[j]) > ON_MODEL_TOL:
        raise DomainError("point radius does not match the profile")
    return j


def _validate_point(model, point) -> np.ndarray:
    x = np.asarray(point, dtype=float)
    n = model.n
    if x.shape != (n + 1,):
        raise DomainError(f"point must live in R^{n + 1}")
    if isinstance(model, Hyperplane):
        if abs(x[-1]) > ON_MODEL_TOL:
            raise DomainError("point is off the hyperplane")
    elif isinstance(model, Sphere):
        if abs(np.linalg.norm(x) - model.radius) > ON_MODEL_TOL:
            raise DomainError("point is off the sphere")
    elif isinstance(model, Cylinder):
        if abs(np.linalg.norm(x[:model.m + 1]) - model.radius) > ON_MODEL_TOL:
            raise DomainError("point is off the cylinder")
    return x


def principal_curvatures(model: HypersurfaceModel, point) -> np.ndarray:
    """Principal curvatures of the model at a point on it.

    Revolution models are queried at grid nodes and return the pair
    (meridional, parallel) from the difference stencils.
    """
    if isinstance(model, (Hyperplane, Sphere, Cylinder)):
        _validate_point(model, point)
        return exact_curvatures(model)
    if isinstance(model, EllipsoidRev):
        model = model.as_revolution(QUERY_RESOLUTION)
    if isinstance(model, Revolution):
        j = _locate_node(model, point)
        g = revolution_geometry(model)
        return np.array([g.k_mer[j], g.k_par[j]])
    raise DomainError(f"unsupported model {type(model).__name__}")


def support_function(model: HypersurfaceModel, point) -> float:
    """<X, N> at a point on the model, inward convention on closed models."""
    if isinstance(model, (Hyperplane, Sphere, Cylinder)):
        _validate_point(model, point)
        return exact_support(model)
    if isinstance(model, EllipsoidRev):
        model = model.as_revolution(QUERY_RESOLUTION)
    if isinstance(model, Revolution):
        j = _locate_node(model, point)
        return float(revolution_geometry(model).support[j])
    raise DomainError(f"unsupported model {type(model).__name__}")


def shrinker_residual(model: HypersurfaceModel, r: int, point) -> float:
    """sigma_r + <X,N> at the point; zero iff the shrinker equation holds."""
    check_order(r, model.n)
    k = principal_curvatures(model, point)
    return elem_sym(k, r) + support_function(model, point)


# ---------------------------------------------------------------------------
# sample rows

def check_samples(count: int, least: int, what: str):
    """Raise DomainError unless least <= count <= MAX_SAMPLES."""
    if not least <= count <= MAX_SAMPLES:
        raise DomainError(f"{what} must lie in {least}..{MAX_SAMPLES}, got {count}")


def _axis_sizes(ndims: int, resolution: int) -> list:
    """Product-grid sizes: the first two axes get `resolution`, the rest 3."""
    # ndims > 16 is over budget at any resolution >= 8; testing it first
    # keeps 3 ** (ndims - 2) from being evaluated for an absurd n
    if ndims > 16 or resolution ** min(2, ndims) * 3 ** max(0, ndims - 2) > MAX_SAMPLES:
        raise DomainError(f"an {ndims}-dimensional grid at resolution {resolution} "
                          f"exceeds {MAX_SAMPLES} samples")
    return [resolution] * min(2, ndims) + [3] * max(0, ndims - 2)


def _grid_sizes(model, resolution: int) -> list:
    """Axis sizes of the grid a position-independent model is budgeted on.

    A cylinder's spherical factor takes the first m sizes and its flat
    factor the rest.  Refuses an over-budget grid (the cylinder's
    spherical factor is checked first); no grid is ever built.
    """
    if isinstance(model, Cylinder):
        _axis_sizes(model.m, resolution)
    if isinstance(model, (Hyperplane, Sphere, Cylinder)):
        return _axis_sizes(model.n, resolution)
    raise DomainError(f"unsupported model {type(model).__name__}")


def sample_fields(model: HypersurfaceModel, resolution: int) -> tuple:
    """Curvature rows (S, n) and support values (S,) of the distinct samples.

    A position-independent model has one distinct sample: its closed-form
    row, given once its sample grid passes the budget checks.  A
    revolution profile gives one row per node.
    """
    check_samples(resolution, 8, "resolution")
    if isinstance(model, EllipsoidRev):
        model = model.as_revolution(resolution)
    if isinstance(model, Revolution):
        g = revolution_geometry(model)
        curvatures, support = np.stack([g.k_mer, g.k_par], axis=1), g.support
        if not (np.isfinite(curvatures).all() and np.isfinite(support).all()):
            raise NumericalError("non-finite curvature data on the revolution profile")
        return curvatures, support
    _grid_sizes(model, resolution)
    return exact_curvatures(model)[None], np.array([exact_support(model)])


def self_shrinkers(n_max: int) -> list:
    """All catalog self-shrinkers with n <= n_max, as (model, r) pairs.

    Hyperplanes for every r, spheres of radius delta_n(r), and cylinders
    of radius delta_m(r) for r <= m <= n-1.
    """
    out = []
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            out.append((Hyperplane(n=n), r))
            out.append((Sphere(n=n, radius=shrinker_radius(n, r)), r))
            for m in range(r, n):
                out.append(
                    (Cylinder(n=n, m=m, radius=shrinker_radius(m, r)), r)
                )
    return out
