"""Model hypersurfaces and their curvature data.

Exact variants (hyperplane, round sphere, spherical cylinder) carry
closed-form curvatures and support values (``exact_curvatures``,
``exact_support``), with binomials C(n, r) rounded once from exact
integers (``binomial``); a shrinker's radius and sigma_p whose binomial
leaves the float range are formed from the logarithms of the integers.
``check_model`` refuses a non-model at the entries that take one.
Surfaces of revolution are discretized as radial graphs rho = f(z)
over a uniform axial grid, with curvatures from
second-order difference stencils into one ``RevolutionGeometry`` record,
whose n = 2 closed forms the flow and the operators read.  A
``Revolution`` over a ``ProfileCurve`` is the one model with a profile,
whose grid its constructor chooses (``sphere_band_profile``,
``cylinder_profile``, ``ellipsoid_band_profile``).
``revolution_geometry(model)`` is the one door from a model to its record
(``flow``, ``operators`` and ``sample_fields`` read no profile
themselves): it makes one checked build.  Profiles hold read-only copies
of z and f, and records read-only arrays.  The private ``_graph_builder`` binds
one grid (z, h, boundary mode, orientation) and its ``fd._stencil``
once, and checks no values; it gives each profile's unoriented curvature
parts from one derivative pass (a flow run's stage reads them at every
step) and the record made from them (which a run makes only for a
diagnostics row or its result).
``sample_fields`` gives either kind's curvature and support rows, which
``gap`` and ``residual`` read.

Orientation convention: the normal points inward on closed model
hypersurfaces, so spheres and cylinders have positive principal
curvatures and support value -R.  For revolution graphs, orientation +1
reproduces that convention on a constant profile (k_parallel = +1/R,
support = -R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, exp, inf, isfinite, log
from typing import Callable, NamedTuple, Union

import numpy as np

from . import fd
from .errors import (DomainError, NumericalError, as_floats, brief, check_integer,
                     check_real, float_range_error)

MAX_SAMPLES = 10 ** 7  # a larger sample grid is refused, not allocated
MAX_DIMENSION = 215    # the largest n whose (n+1) n^2 is at most MAX_SAMPLES


# ---------------------------------------------------------------------------
# model types

@dataclass(frozen=True)
class Hyperplane:
    """Flat hyperplane through the origin; normal fixed to +e_{n+1}."""

    n: int

    def __post_init__(self):
        if check_integer(self.n, "dimension n") < 1:
            raise DomainError("dimension n must be >= 1")


@dataclass(frozen=True)
class Sphere:
    """Round n-sphere of the given radius, centered at the origin."""

    n: int
    radius: float

    def __post_init__(self):
        if check_integer(self.n, "dimension n") < 1:
            raise DomainError("dimension n must be >= 1")
        if not 0 < check_real(self.radius, "radius") < inf:
            raise DomainError("radius must be positive and finite")


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
        check_integer(self.n, "dimension n")
        check_integer(self.m, "rank m")
        if self.n < 2 or not 1 <= self.m <= self.n - 1:
            raise DomainError("cylinder needs 1 <= m <= n-1")
        if not 0 < check_real(self.radius, "radius") < inf:
            raise DomainError("radius must be positive and finite")


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Radial graph rho = f(z) on a uniform axial grid, with read-only copies of z and f."""

    z: np.ndarray
    f: np.ndarray
    boundary: str = "neumann"

    def __post_init__(self):
        z, f = as_floats(self.z, "profile z").copy(), as_floats(self.f, "profile f").copy()
        for name, values in (("z", z), ("f", f)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if z.ndim != 1 or z.size < 5 or z.shape != f.shape:
            raise DomainError("profile needs >= 5 matching z/f samples")
        if not (np.isfinite(z).all() and np.isfinite(f).all()):
            raise DomainError("profile has non-finite z or f samples")
        # np.linspace spacings stray by up to about 2 eps max|z|: allow 4
        dz = np.diff(z)
        slack = 1e-12 * abs(dz[0]) + 4 * np.finfo(float).eps * np.abs(z).max()
        if dz.min() <= 0 or np.abs(dz - dz[0]).max() > slack:
            raise DomainError("profile grid must be uniform and increasing")
        if f.min() <= 0:
            raise DomainError("profile radii must be positive")
        if self.boundary not in fd.BOUNDARY_MODES:
            raise DomainError(f"unknown boundary mode {brief(self.boundary)}")

    @property
    def h(self) -> float:
        return float(self.z[1] - self.z[0])


@dataclass(frozen=True, eq=False)
class Revolution:
    """Surface of revolution in R^3 built from a profile curve."""

    profile: ProfileCurve
    orientation: int = 1
    n: int = field(default=2, init=False)

    def __post_init__(self):
        if check_integer(self.orientation, "orientation") not in (1, -1):
            raise DomainError("orientation must be +1 or -1")


HypersurfaceModel = Union[Hyperplane, Sphere, Cylinder, Revolution]


def check_model(model):
    """Raise DomainError unless model is a catalog model (a HypersurfaceModel)."""
    if not isinstance(model, HypersurfaceModel):
        raise DomainError(f"{type(model).__name__} is not a catalog model")


# ---------------------------------------------------------------------------
# closed forms

def binomial(n: int, r: int, factor: int = 1) -> float:
    """factor C(n, r) as a float: the exact integer product, rounded once (the
    bits Python's int-float arithmetic gives it).  A product past the float
    range raises the float-range NumericalError, which names the product,
    e.g. "551*C(1100,550) leaves the float range"."""
    try:
        return float(factor * comb(n, r))
    except OverflowError as exc:
        times = "" if factor == 1 else f"{brief(factor)}*"
        raise NumericalError(f"{times}C({brief(n)},{brief(r)}) "
                             f"leaves the float range") from exc


def shrinker_radius(m: int, r: int) -> float:
    """Radius C(m,r)^(1/(r+1)) at which the model satisfies sigma_r = -<X,N>."""
    check_integer(m, "rank m")
    if not 1 <= check_integer(r, "order r") <= m:
        raise DomainError(
            f"no shrinking radius for r={brief(r)} > m={brief(m)}: sigma_r vanishes there"
        )
    return _binomial_product(m, 0, r, 1.0 / (r + 1))


def sigma_p_cylinder(m: int, r: int, p: int) -> float:
    """Closed-form sigma_p on the shrinking cylinder with spherical rank m."""
    check_integer(m, "rank m")
    if not 1 <= check_integer(r, "order r") <= m:
        raise DomainError(f"cylinder closed form needs 1 <= r <= m, got r={brief(r)}")
    if check_integer(p, "p") < 0:
        raise DomainError("p must be nonnegative")
    if p > m:
        return 0.0
    return _binomial_product(m, p, r, -p / (r + 1))


def _binomial_product(m: int, p: int, r: int, power: float) -> float:
    """C(m,p) C(m,r)^power: the float binomials' product where both are in
    range, else exp of the logarithms of the exact integers.  A result past
    the float maximum raises the first out-of-range binomial's NumericalError."""
    try:
        return binomial(m, p) * binomial(m, r) ** power
    except NumericalError as exc:
        try:
            return exp(log(comb(m, p)) + power * log(comb(m, r)))
        except OverflowError:
            raise exc


def exact_curvatures(model) -> np.ndarray:
    """Curvature vector of a position-independent model, once its
    dimension passes ``check_dimension``."""
    if not isinstance(model, (Hyperplane, Sphere, Cylinder)):
        raise DomainError(f"{type(model).__name__} has no constant curvature data")
    check_dimension(model.n)
    k = np.zeros(model.n)
    if isinstance(model, Sphere):
        k[:] = 1.0 / model.radius
    if isinstance(model, Cylinder):
        k[:model.m] = 1.0 / model.radius
    return k


def exact_support(model) -> float:
    """Support value <X,N> of a position-independent model."""
    if isinstance(model, Hyperplane):
        return 0.0
    if isinstance(model, (Sphere, Cylinder)):
        return -model.radius
    raise DomainError(f"{type(model).__name__} has no constant support value")


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
    def support(self) -> np.ndarray:
        """<X, N> = o (z f' - f) / w."""
        return float(self.orientation) * (self.z * self.fp - self.f) / self.w

    def interior(self) -> slice:
        return fd.trim_slice(self.boundary)

    def sigma(self, p: int) -> np.ndarray:
        """sigma_p(k_mer, k_par): 1, k_mer + k_par, k_mer k_par, then 0."""
        if check_integer(p, "p") < 0:
            raise DomainError("p must be nonnegative")
        if p == 0:
            return np.ones_like(self.f)
        if p == 1:
            return self.k_mer + self.k_par
        if p == 2:
            return self.k_mer * self.k_par
        return np.zeros_like(self.f)

    def p_eigenvalues(self, r: int) -> tuple:
        """(meridional, parallel) eigenvalues of P_0 = I or P_1 = diag(k_par, k_mer)."""
        check_integer(r, "order r")
        if r == 1:
            one = np.ones_like(self.f)
            return one, one
        if r == 2:
            return self.k_par, self.k_mer
        raise DomainError(f"revolution surfaces support r in {{1, 2}}, got r={brief(r)}")


class _GraphBuilder(NamedTuple):
    """The record builder of one grid; build(f) -> the record of rho = f(z)."""

    parts: Callable     # f -> (f', w, q = f''/w^3, p = 1/(f w)), one derivative pass
    record: Callable    # (f, its parts) -> the record, with no pass of its own

    def __call__(self, f) -> RevolutionGeometry:
        return self.record(f, self.parts(f))


def _graph_builder(z: np.ndarray, h: float, boundary: str, orientation: int) -> _GraphBuilder:
    """The record builder of one grid: its parts, and the record made from them.

    The grid (z, h, the boundary mode and the orientation) is bound, and
    checked, once: an underflowed h^2 would divide f'' by zero, so it is
    refused here.  ``parts`` takes one derivative pass of the grid's
    ``fd._stencil`` (so one caller at a time) on float64 values of the
    grid's size, which it does not check, and returns new arrays.  The
    unoriented q and p are the one curvature formula: ``record`` makes
    k_mer = -o q and k_par = o p (o = +-1) by exact sign flips, holds f
    itself, and makes f and the four derived arrays read-only, so a flow
    stage that reads q and p directly gets the bits of the record's
    curvatures.
    """
    if not h * h > 0.0:
        raise float_range_error("h", h, 2)
    derivatives = fd._stencil(np.size(z), h, boundary)
    negate = orientation > 0
    one, three = np.array(1.0), np.array(3)

    def parts(f):
        fp, fpp = derivatives(f)
        w = np.sqrt(fp * fp + one)
        return fp, w, fpp / np.power(w, three), one / (f * w)

    def record(f, of_f):
        fp, w, q, p = of_f
        geo = RevolutionGeometry(z, f, h, boundary, orientation, fp, w,
                                 -q if negate else q, p if negate else -p)
        for values in geo[5:] + (f,):
            values.flags.writeable = False
        return geo

    return _GraphBuilder(parts, record)


def revolution_geometry(model) -> RevolutionGeometry:
    """The record of a ``Revolution``: the one door from a model to it.

    One build of a fresh ``_graph_builder`` on the profile's own grid
    shares its checked, read-only z and f.  A record that leaves the
    float range (radii near the float maximum overflow the ghosts, steep
    slopes overflow w^3) raises NumericalError with no numpy warning.
    The check is made once per profile, here, and not in the stages of a
    flow run.  The ghosts overflow without a numpy flag, so a non-finite
    f' at an end is caught here.
    """
    if not isinstance(model, Revolution):
        raise DomainError(f"cannot discretize {type(model).__name__} as a revolution")
    p = model.profile
    with np.errstate(over="raise", invalid="raise"):
        try:
            geo = _graph_builder(p.z, p.h, p.boundary, model.orientation)(p.f)
            finite = isfinite(geo.fp[0]) and isfinite(geo.fp[-1])
        except FloatingPointError:
            finite = False
    if not finite:
        raise NumericalError(
            f"the curvature record of a profile with max f={p.f.max():.6g} "
            f"and h={p.h:.6g} leaves the float range")
    return geo


def sphere_band_profile(radius: float, half_width: float, samples: int) -> ProfileCurve:
    """Profile of the band |z| <= half_width of a round 2-sphere."""
    check_real(radius, "radius")
    if not 0 < check_real(half_width, "half_width") < radius < inf:
        raise DomainError("need 0 < half_width < radius < inf")
    check_samples(samples, 5, "samples")
    try:
        radius_sq = radius ** 2
    except OverflowError as exc:
        raise float_range_error("R", radius, 2) from exc
    z = np.linspace(-half_width, half_width, samples)
    return ProfileCurve(z=z, f=np.sqrt(radius_sq - z ** 2))


def ellipsoid_band_profile(a: float, b: float, band: float, samples: int) -> ProfileCurve:
    """Profile f(z) = a sqrt(1 - (z/b)^2), |z| <= band*b, of an ellipsoid of
    revolution (equatorial semi-axis a, polar b): the band keeps the polar
    coordinate singularity off the grid.  a, b and band are checked before
    the sample count, which an ellipsoid scene's resolution sets, and which
    is refused by that name outside 5..MAX_SAMPLES."""
    a, b = check_real(a, "semi-axis a"), check_real(b, "semi-axis b")
    if not (0 < a < inf and 0 < b < inf):
        raise DomainError("semi-axes must be positive and finite")
    if not 0 < check_real(band, "band fraction") < 1:
        raise DomainError("band fraction must lie in (0, 1)")
    check_samples(samples, 5, "resolution")
    z = np.linspace(-band * b, band * b, samples)
    return ProfileCurve(z=z, f=a * np.sqrt(1.0 - (z / b) ** 2))


def cylinder_profile(radius: float, half_width: float, samples: int) -> ProfileCurve:
    """Constant profile: the tube of the given radius."""
    check_real(radius, "radius")
    if not (0 < radius < inf and 0 < check_real(half_width, "half_width") < inf):
        raise DomainError("radius and half_width must be positive and finite")
    check_samples(samples, 5, "samples")
    z = np.linspace(-half_width, half_width, samples)
    return ProfileCurve(z=z, f=np.full_like(z, radius))


# ---------------------------------------------------------------------------
# sample rows

def check_samples(count: int, least: int, what: str):
    """Raise DomainError unless count is an integer in least..MAX_SAMPLES."""
    if not least <= check_integer(count, what) <= MAX_SAMPLES:
        raise DomainError(f"{what} must lie in {least}..{MAX_SAMPLES}, got {brief(count)}")


def check_dimension(n: int):
    """Raise DomainError unless the n + 1 matrices of size n x n of an
    n-dimensional curvature family fit the sample budget: n <= MAX_DIMENSION.
    n is compared before any product is formed, and ``brief`` shows it, so
    a huge n gives a short message."""
    if check_integer(n, "dimension n") > MAX_DIMENSION:
        raise DomainError(f"the family's (n+1) n^2 at n={brief(n)} exceeds "
                          f"{MAX_SAMPLES}: n must be at most {MAX_DIMENSION}")


def sample_fields(model: HypersurfaceModel) -> tuple:
    """Curvature rows (S, n) and support values (S,) of the distinct samples.

    A position-independent model has one distinct sample: its closed-form
    row, once its dimension passes ``check_dimension``.  A revolution
    profile gives one row per node of its own grid.
    """
    if isinstance(model, Revolution):
        g = revolution_geometry(model)
        curvatures = np.stack([g.k_mer, g.k_par], axis=1)
        with np.errstate(over="ignore"):    # z f' past the float range: refused below
            support = g.support
        if not (np.isfinite(curvatures).all() and np.isfinite(support).all()):
            raise NumericalError("non-finite curvature data on the revolution profile")
        return curvatures, support
    return exact_curvatures(model)[None], np.array([exact_support(model)])


def self_shrinkers(n_max: int) -> list:
    """All catalog self-shrinkers with n <= n_max, as (model, r) pairs.

    Hyperplanes for every r, spheres of radius delta_n(r), and cylinders
    of radius delta_m(r) for r <= m <= n-1.
    """
    out = []
    for n in range(1, check_integer(n_max, "n_max") + 1):
        for r in range(1, n + 1):
            out.append((Hyperplane(n=n), r))
            out.append((Sphere(n=n, radius=shrinker_radius(n, r)), r))
            for m in range(r, n):
                out.append(
                    (Cylinder(n=n, m=m, radius=shrinker_radius(m, r)), r)
                )
    return out
